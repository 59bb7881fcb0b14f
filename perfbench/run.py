"""The entronet benchmark.

    python3 perfbench/run.py --workload diagrams --seed 1 --seconds 35 --trace 0

Runs whole rounds of one workload's operations for about ``--seconds``, in
one process and one thread, and checks every result.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and the
metrics -- the end-to-end ones with ``--trace 0``, the per-layer ones with
``--trace 1``.  A traced run first makes the untraced measurement, then
replays a fixed number of rounds from the first with spans around every
traced call, and reports the ratio of the two throughputs as its overhead.
Spans and results are written under ``perfbench/out/``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60
# Rounds in the traced pass: fixed, so that its counts repeat exactly for a seed.
TRACED_ROUNDS = {"diagrams": 4, "wide": 1, "exact-arith": 10, "cohomology": 1}


class OpTimeout(Exception):
    """An operation ran past its time limit."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def import_program() -> None:
    """Import entronet from the checkout's ``src``; exit 2 if it is not there."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    try:
        import entronet  # noqa: F401
        import entronet.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import entronet from {SRC}: {exc}", file=sys.stderr)
        raise SystemExit(2)


def setup(name: str, seed: int, tracer=None):
    """Everything before the first timed operation.

    Imports the program, builds the workload and its first round of inputs,
    sieves the prime table and runs a small warm-up round drawn from inputs
    the timed rounds never use, so the factor cache does not hold them.
    """
    import_program()
    from entronet import scalars
    from perfbench.workloads import WORKLOADS

    # Installed after the imports above, so that the names they copy stay the
    # program's own functions when the tracer is removed again.
    if tracer is not None:
        tracer.install()
    workload = WORKLOADS[name](seed)
    first = workload.round(0)
    scalars.prime_table()
    for op in workload.warmup():
        op.check(op.run())
    if tracer is not None:
        tracer.uninstall()
    return workload, first


# ---------------------------------------------------------------------------
# Measuring.


class Pass:
    """Timings, counts and pending oracle checks of one measured pass."""

    def __init__(self) -> None:
        self.durations: list[tuple[float, str]] = []
        self.timed_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.rounds = 0
        self.round_stats: list[tuple[int, float]] = []  # (completed, timed seconds) per round
        self.errors: list[str] = []  # operations that failed
        self.problems: list[str] = []  # results that failed a check
        self.deferred: list = []
        self.digest_first = ""
        self.digest_all = hashlib.sha256()

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_pass(workload, seconds: float, rounds: int | None = None, first_ops=None,
             tracer=None, ops_meta=None) -> Pass:
    """Run whole rounds from round 0 for about ``seconds``, or exactly ``rounds``.

    ``first_ops`` is round 0 when it was built beforehand.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    out = Pass()
    start = time.perf_counter()
    r = 0
    while True:
        ops = first_ops if (r == 0 and first_ops is not None) else workload.round(r)
        digest = hashlib.sha256()
        completed, timed_s = out.completed, out.timed_s
        for op in ops:
            if tracer is not None:
                tracer.op = len(ops_meta)
                ops_meta[tracer.op] = op.meta
            out.attempted += 1
            signal.setitimer(signal.ITIMER_REAL, op.limit_s)
            t0 = time.perf_counter()
            try:
                try:
                    result = op.run()
                finally:
                    t1 = time.perf_counter()
                    signal.setitimer(signal.ITIMER_REAL, 0)
            except OpTimeout:
                out.timed_s += t1 - t0
                out.failed += 1
                if not op.fault:
                    out.errors.append(f"{op.inputs[:200]}: over its {op.limit_s} s limit")
                continue
            except Exception as exc:  # a crash fails this operation, not the run
                out.timed_s += t1 - t0
                out.failed += 1
                out.errors.append(f"{op.inputs[:200]}: {exc!r}")
                continue
            out.timed_s += t1 - t0
            try:
                out.deferred += op.check(result)
            except Exception as exc:  # a failed check makes the run incorrect
                out.problems.append(f"{op.inputs[:200]}: {exc!r}")
            out.durations.append((t1 - t0, op.size))
            digest.update(op.inputs.encode())
            if op.drawn is not None:
                digest.update(op.drawn(result).encode())
        if tracer is not None:
            tracer.op = -1
        if r == 0:
            out.digest_first = digest.hexdigest()[:16]
        out.digest_all.update(digest.digest())
        out.round_stats.append((out.completed - completed, out.timed_s - timed_s))
        out.rounds += 1
        r += 1
        if rounds is not None:
            if out.rounds >= rounds:
                break
        else:
            # Stop at the whole number of rounds nearest to ``seconds``.
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / out.rounds >= seconds:
                break
    return out


def run_deferred(p: Pass) -> None:
    for check in p.deferred:
        try:
            check()
        except AssertionError as exc:
            p.problems.append(str(exc))
    p.deferred.clear()


def overhead_ratio(plain: Pass, traced: Pass) -> float:
    """Traced over untraced throughput on the rounds both passes ran."""
    k = min(plain.rounds, traced.rounds)

    def rate(p: Pass) -> float:
        return sum(c for c, _ in p.round_stats[:k]) / sum(t for _, t in p.round_stats[:k])

    return rate(traced) / rate(plain)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile: the smallest value with a share q of values at or below it."""
    ordered = sorted(values)
    k = math.ceil(round(q * len(ordered), 9)) - 1
    return ordered[min(len(ordered) - 1, max(0, k))]


def end_to_end(name: str, p: Pass, setup_s: float) -> dict:
    from perfbench.workloads import TAIL_QUANTILE

    ms = [d * 1e3 for d, _ in p.durations]
    small = [d * 1e3 for d, size in p.durations if size == "small"]
    large = [d * 1e3 for d, size in p.durations if size == "large"]
    return {
        "ops_per_s": (p.completed / p.timed_s, "ops/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (quantile(ms, TAIL_QUANTILE[name]), "ms"),
        "op_small_p50_ms": (statistics.median(small), "ms"),
        "op_large_p50_ms": (statistics.median(large), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


# ---------------------------------------------------------------------------
# Set-up probes and import times, each in a fresh interpreter.


def _probe(name: str, seed: int, importtime: bool) -> tuple[float, str]:
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + [
        os.path.abspath(__file__), "--setup-probe", "--workload", name, "--seed", str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"set-up probe failed with code {done.returncode}")
    return float(done.stdout.split()[-1]), done.stderr


def import_times(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the entronet and numpy imports from ``-X importtime``."""
    out = {"entronet": 0.0, "numpy": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        fields = line[len("import time:"):].split("|")
        package = fields[2].rstrip()
        stripped = package.strip()
        try:
            cumulative = int(fields[1]) / 1e6
        except ValueError:
            continue
        if stripped in ("entronet", "entronet.cli") and package == " " + stripped:
            out["entronet"] += cumulative
        elif stripped == "numpy":
            out["numpy"] = max(out["numpy"], cumulative)
    return out


def setup_probes(name: str, seed: int, importtime: bool):
    runs = [_probe(name, seed, importtime) for _ in range(SETUP_PROBES)]
    setup_s = statistics.median(t for t, _ in runs)
    imports = [import_times(err) for _, err in runs] if importtime else []
    return setup_s, imports


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("diagrams", "wide", "exact-arith", "cohomology"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup(args.workload, args.seed)
        print(f"{time.perf_counter() - _T0:.6f}")
        return 0
    import_program()
    setup_s, imports = setup_probes(args.workload, args.seed, importtime=bool(args.trace))

    tracer = None
    if args.trace:
        from perfbench.trace import Tracer

        tracer = Tracer()
    workload, first = setup(args.workload, args.seed, tracer)
    cache_info = tracer.cache_info if tracer is not None else None
    setup_cache = cache_info() if cache_info is not None else None

    plain = run_pass(workload, args.seconds, first_ops=first)
    passes = [plain]
    if args.trace:
        # The traced pass replays the first rounds from an empty factor cache,
        # so its throughput compares with the same rounds untraced.
        ops_meta: dict[int, dict] = {}
        if cache_info is not None:
            tracer.cache_clear()
        before = cache_info() if cache_info is not None else None
        tracer.install()
        traced = run_pass(workload, args.seconds, rounds=TRACED_ROUNDS[args.workload],
                          tracer=tracer, ops_meta=ops_meta)
        tracer.uninstall()
        passes.append(traced)

    metrics = end_to_end(args.workload, plain, setup_s)
    for p in passes:
        run_deferred(p)
        for line in (p.errors + p.problems)[:20]:
            print(line, file=sys.stderr)
    correct = not any(p.problems for p in passes)

    if args.trace:
        from perfbench.trace import PER_LAYER, per_layer_metrics

        cache_delta = None
        if cache_info is not None:
            after = cache_info()
            cache_delta = (setup_cache.hits + after.hits - before.hits,
                           setup_cache.misses + after.misses - before.misses)
        values = per_layer_metrics(tracer, ops_meta, cache_delta)
        values["trace.ops_per_s_ratio"] = overhead_ratio(plain, traced)
        values["import.entronet_s"] = statistics.median(i["entronet"] for i in imports)
        values["import.numpy_s"] = statistics.median(i["numpy"] for i in imports)
        metrics = {name: (values[name], unit) for name, unit, _ in PER_LAYER if name in values}

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"inputs: workload={args.workload} seed={args.seed} rounds={plain.rounds} "
          f"round0={plain.digest_first} all={plain.digest_all.hexdigest()[:16]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + "-spans.csv.gz")
    line = json.dumps(result)
    with open(stem + "-result.json", "w", encoding="utf-8") as fh:
        fh.write(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
