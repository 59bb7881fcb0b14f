"""Quick tests of the benchmark itself: tiny rounds of every workload end to
end, the output contract, and oracles that reject perturbed values.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from xml.parsers import expat

import pytest

from perfbench import run

run.import_program()

from entronet import jspace  # noqa: E402
from entronet.jspace import PrimeVector, symbol  # noqa: E402

from perfbench import oracles as orc  # noqa: E402
from perfbench import workloads as wl  # noqa: E402
from perfbench.trace import PER_LAYER, Tracer, per_layer_metrics  # noqa: E402

ROOT = run.ROOT
END_TO_END = ["ops_per_s", "op_p50_ms", "op_tail_ms", "op_small_p50_ms", "op_large_p50_ms",
              "peak_rss_mb", "setup_s"]


class Tiny:
    """A workload whose every round is the given workload's warm-up round."""

    def __init__(self, workload):
        self.workload = workload

    def round(self, r):
        return self.workload.warmup()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_tiny_round_runs_and_checks(name):
    p = run.run_pass(Tiny(wl.WORKLOADS[name](7)), 0, rounds=2)
    run.run_deferred(p)
    assert p.errors == [] and p.problems == []
    assert p.attempted == p.completed > 0 and p.rounds == 2


def _traced(workload):
    tracer = Tracer()
    tracer.install()
    meta: dict = {}
    try:
        p = run.run_pass(Tiny(workload), 0, rounds=1, tracer=tracer, ops_meta=meta)
    finally:
        tracer.uninstall()
    assert p.errors == [] and not hasattr(jspace.symbol, "__wrapped__")
    values = per_layer_metrics(tracer, meta, None)
    assert set(values) <= {n for n, _, _ in PER_LAYER}
    return values


def test_traced_tiny_rounds_report_layers():
    values = _traced(wl.Wide(3))
    assert values["affine.j_invariant.self_s"] > 0 and values["affine.j_invariant.w250_ms"] == 0
    assert values["dsl.parse.bytes_per_s"] > 0 and values["render.to_svg.bytes"] > 0
    assert values["groupnet.h_solver.calls"] == 0
    # calls the benchmark itself makes are traced too
    values = _traced(wl.ExactArith(3))
    assert values["jspace.beta_to_j.self_s"] > 0 and values["jspace.symbol.b8_us"] > 0


def test_rounds_are_seeded():
    a = [op.inputs for op in wl.ExactArith(5).round(2)]
    assert a == [op.inputs for op in wl.ExactArith(5).round(2)]
    assert a != [op.inputs for op in wl.ExactArith(6).round(2)]
    assert [op.inputs for op in wl.Wide(5, widths=(10,)).round(1)] == \
        [op.inputs for op in wl.Wide(5, widths=(10,)).round(1)]


def test_semiprime_fails_on_its_limit_every_round():
    p = run.run_pass(wl.ExactArith(1, bits=(8,)), 0, rounds=2)
    assert (p.attempted, p.failed, p.errors) == (4, 2, [])


# ---------------------------------------------------------------------------
# Each check rejects a perturbed result.


def _rejects(op, perturb) -> bool:
    result = perturb(op.run())
    try:
        for deferred in op.check(result):
            deferred()
    except (AssertionError, expat.ExpatError):
        return True
    return False


def _first(ops, kind):
    return next(op for op in ops if op.kind == kind)


BUMP = PrimeVector({2: Fraction(1)})


def test_exact_arith_checks_reject_perturbed_values():
    op = wl.ExactArith(11, bits=(8,)).round(0)[0]
    assert not _rejects(op, lambda r: r)
    perturbed = {
        0: lambda s: s + BUMP,  # the symbol <a,b>
        1: lambda laws: (False,) + laws[1:],
        2: lambda hp: hp.scaled(2),
        3: lambda hp_float: hp_float + 1e-6,
        4: lambda four: False,
        6: lambda terms: terms[:3] + (terms[3] + 1e-6,),
        7: lambda jx: jx + BUMP,
        8: lambda beta: False,
        9: lambda ts: (ts[0] + 1, ts[1] + 1),
        10: lambda chain: (chain[0], chain[1].scaled(2)),
    }
    for i, f in perturbed.items():
        assert _rejects(op, lambda r: r[:i] + (f(r[i]),) + r[i + 1:]), i
    with pytest.raises(AssertionError):
        wl.ExactArith._semiprime().check(BUMP)


def test_wide_checks_reject_perturbed_values():
    ops = wl.Wide(2, widths=(15,)).round(0)
    fold, chain = _first(ops, "right-fold"), _first(ops, "chain")
    assert not _rejects(fold, lambda r: r) and not _rejects(chain, lambda r: r)
    perturbed = {
        0: lambda d: d.with_mode("J"),  # the loaded diagram
        1: lambda exact: exact.scaled(Fraction(1, 2)),
        2: lambda approx: approx + 1e-6,
        3: lambda normal: (normal[0], normal[1].scaled(2)),
        4: lambda svgs: (svgs[0], svgs[1] + " "),
    }
    for i, f in perturbed.items():
        assert _rejects(fold, lambda r: r[:i] + (f(r[i]),) + r[i + 1:]), i
    assert _rejects(fold, lambda r: r[:4] + ((r[4][0] + "<", r[4][0] + "<"), None))
    assert _rejects(chain, lambda r: r[:5] + (False,))


def test_diagram_checks_reject_perturbed_values():
    ops = wl.Diagrams(4).round(0, scale_down=50)
    assert _rejects(_first(ops, "diagram"), lambda r: (r[0], False))
    assert _rejects(_first(ops, "worked-example"), lambda v: v + BUMP)
    assert _rejects(_first(ops, "rule-site"), lambda r: r[:4] + ((r[4][0], r[4][1], r[4][2] + BUMP),))
    assert _rejects(_first(ops, "normalize"), lambda r: r[:5] + (False,))
    assert _rejects(_first(ops, "roundtrip"), lambda r: (r[0], r[1].__class__(r[1].decls[:-1])))
    assert _rejects(_first(ops, "svg"), lambda r: (r[0], r[1], r[2][:-1]))


def test_cohomology_checks_reject_perturbed_values():
    c = wl.Cohomology(9)
    h2 = c._h2(("cyclic", 4), 2)
    assert _rejects(h2, lambda r: ([4],) + r[1:])
    assert _rejects(h2, lambda r: r[:3] + ([True] * len(r[3]), r[4]))
    assert _rejects(h2, lambda r: r[:4] + ((r[4][0] * 2, r[4][1]),))
    assert _rejects(c._network(("cyclic", 3), 5, None), lambda r: (r[0], (1,), r[2], r[3]))
    assert _rejects(c._carry(3), lambda r: (r[0], r[1], wl._group(("cyclic", 3))))
    assert _rejects(c._carry(3), lambda r: (r[0], r[1], wl._group(("product", 3, 3))))
    assert _rejects(c._witt(3), lambda r: (r[0], r[1], False))


def test_oracles_against_known_values():
    assert orc.symbol(Fraction(1, 2), Fraction(1, 2)) == {2: Fraction(-1)}
    assert orc.entropy([Fraction(1, 2)] * 2) == (0, {2: Fraction(1)})
    assert orc.h2_trivial(("product", 2, 2), 2) == [2, 2, 2]
    assert orc.h2_trivial(("product", 2, 4), 4) == [2, 2, 4]
    assert orc.h2_trivial(("cyclic", 6), 4) == [2]
    assert orc.h2_trivial(("aff1", 3), 3) == []
    assert orc.invariant_factors([2, 3, 4]) == [2, 12]
    a, b = Fraction(-7, 9), Fraction(5, 12)
    assert orc.symbol(a, b) == orc.prime_vector_dict(symbol(a, b))
    assert orc.symbol(a, b) != orc.prime_vector_dict(symbol(a, b + 1))
    assert not orc.is_cocycle_trivial(orc.cyclic_law(3), 3, lambda g, h: 1 if (g, h) == (1, 1) else 0)
    assert orc.extension_has_order_p2(2, lambda x, y: 1 if (x, y) == (1, 1) else 0)
    assert not orc.extension_has_order_p2(2, lambda x, y: 0)


# ---------------------------------------------------------------------------
# The command line.


def test_cli_prints_the_contracted_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "diagrams", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} == set(wl.WORKLOADS) - {"wide"}


def test_run_without_the_program_fails_cleanly(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert out.returncode != 0 and out.stdout.strip() == ""
