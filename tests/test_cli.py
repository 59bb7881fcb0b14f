import contextlib
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from entronet import cli, dsl
from entronet.sampling import random_source

FIXTURES = os.path.join(os.path.dirname(dsl.__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_entropy_command(capsys):
    code, out, _ = run(capsys, "entropy", "--dist", "1/2,1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "log(2)"
    assert abs(float(lines[1]) - 0.6931471805599453) < 1e-12


def test_entropy_json(capsys):
    code, out, _ = run(capsys, "--json", "entropy", "--dist", "1/2,1/4,1/4")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == "(3/2)*log(2)"
    assert payload["logpart"] == "{2: 3/2}"


def test_entropy_bad_input(capsys):
    code, _, err = run(capsys, "entropy", "--dist", "1/0,1")
    assert code == cli.EXIT_USAGE
    assert err


def test_h2_command(capsys):
    code, out, _ = run(capsys, "h2", "--group", "cyclic:2", "--module", "z:2")
    assert code == 0
    assert "order 2" in out
    code, out, _ = run(capsys, "h2", "--group", "product:2,2", "--module", "z:2")
    assert code == 0
    assert "order 8" in out
    # the module's size does not bound the work: its elements are never enumerated
    code, out, _ = run(capsys, "h2", "--group", "cyclic:2", "--module", "z:1000000000")
    assert code == 0
    assert "invariant factors: [2]" in out


def test_validate_and_exit_codes(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", fx("affine_mult.net"))
    assert code == 0
    bad = tmp_path / "bad.net"
    bad.write_text("object Z = X+(1/0)\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == cli.EXIT_PARSE and "zero denominator" in err
    invalid = tmp_path / "invalid.net"
    invalid.write_text(
        "object A = X+(1) X+(3)\nobject B = X+(4)\ndiagram D : A -> B { add_merge @5; }\n"
    )
    code, _, err = run(capsys, "validate", str(invalid))
    assert code == cli.EXIT_VALIDATION
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.net"))
    assert code == cli.EXIT_USAGE


@pytest.mark.parametrize(
    "text, where",
    [
        ("group G = table[[0,1],[0,1]]\n", "1:1"),
        ("group G = cyclic(0)\n", "1:1"),
        ("group G = aff1modp(4)\n", "1:1"),
        ("group G = table[[0,1],[1]]\n", "1:1"),
        ("group G = cyclic(2)\nmodule U over G = z(0)\n", "2:1"),
        ("group G = cyclic(3)\ngdiagram N over G : [1 L] -> [] { split_l(99, 1) @0; }\n", "2:35"),
        ("group G = cyclic(3)\ngdiagram N over G : [] -> [] { cup_lr(99) @0; cap @0; }\n", "2:32"),
        ("group G = cyclic(3)\ngdiagram N over G : [1 L] -> [2 L, 2 L] { split_l(-1, 2) @0; }\n", "2:43"),
        ("group G = cyclic(3)\ngdiagram N over G : [] -> [] { cup_rl(3) @0; cap @0; }\n", "2:32"),
        ("group G = cyclic(3)\ngdiagram N over G : [0 R] -> [] { t2_split_rr(1, 5) @0; }\n", "2:35"),
        ("group G = cyclic(3)\ngdiagram N over G : [] -> [] { cup_lr(1, 7, 9) @0; cap @0; }\n", "2:32"),
        ("group G = cyclic(3)\ngdiagram N over G : [1 L, 2 L] -> [0 L] { merge_l(1) @0; }\n", "2:43"),
        ("group G = cyclic(3)\ngdiagram N over G : [] -> [] { cup_lr(1) @0; cap(0) @0; }\n", "2:46"),
        ("group G = cyclic(2000)\n", "1:1"),
        ("group G = aff1modp(17)\n", "1:1"),
        ("group A = cyclic(14)\ngroup B = cyclic(14)\ngroup G = product(A, B)\n", "3:1"),
        # an entry of the wrong rank for its module
        ("group G = cyclic(2)\nmodule U over G = z(2)\n"
         "cocycle1 f : G -> U = { 1: (1, 1); }\n", "3:1"),
        ("group G = cyclic(2)\nmodule U over G = z(2)\n"
         "cocycle2 c : G -> U = { (1, 1): (1, 0); }\n", "3:1"),
        # an element or pair given twice
        ("group G = cyclic(3)\nmodule U over G = z(3)\n"
         "cocycle1 f : G -> U = { 1: (0); 1: (1); 2: (2); }\n", "3:1"),
        ("group G = cyclic(2)\nmodule U over G = z(2)\n"
         "cocycle2 c : G -> U = { (1, 1): (1); (1, 1): (0); }\n", "3:1"),
        ("group G = cyclic(2)\n"
         "module U over G = z(3) action { 0: [[1]]; 1: [[2]]; 1: [[1]]; }\n", "2:1"),
    ],
)
def test_invalid_group_declarations(capsys, tmp_path, text, where):
    path = tmp_path / "group.net"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert code == cli.EXIT_VALIDATION
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"group.net:{where}:" in err and out == ""


@pytest.mark.parametrize(
    "objects, layer",
    [
        ("object S = X+(1) X+(2)\nobject T = X+(3)\n", "add_merge(7, 9) @0"),
        ("object S =\nobject T =\n", "dot(5) @0 {2: 1}"),
        ("object S = X+(3)\nobject T = X+(1) X+(2)\n", "add_split(+, 2) @0"),
        ("object S = X+(3)\nobject T = X+(1) X+(2)\n", "add_split(1, 2, 3) @0"),
        ("object S =\nobject T = X-(1) X+(1)\n", "cup_x(1, 7) @0"),
        ("object S =\nobject T = Y-(1) Y+(1)\n", "cup_y(0, -) @0"),
        ("object S = Y+(6)\nobject T = Y+(2) Y+(3)\n", "mult_split(2, -) @0"),
    ],
)
def test_invalid_layer_arguments(capsys, tmp_path, objects, layer):
    path = tmp_path / "layers.net"
    path.write_text(objects + "diagram D : S -> T {\n  " + layer + ";\n}\n")
    code, out, err = run(capsys, "validate", str(path))
    assert code == cli.EXIT_VALIDATION
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert "layers.net:4:3:" in err and out == ""


def test_json_after_the_subcommand(capsys):
    dist = ("entropy", "--dist", "1/2,1/2")
    for argv in (dist + ("--json",), ("--json",) + dist):
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["exact"] == "log(2)"
    code, out, _ = run(capsys, "validate", fx("affine_mult.net"), "--json")
    assert code == 0 and json.loads(out)["ok"] is True


# Byte-level edits of a random source: (operation, offset, byte).
_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("insert", "delete", "replace")),
        st.integers(0, 1 << 16),
        st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789()[]{}@;:,+-/ LRXY")),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), edits=_EDITS)
def test_validate_exit_codes_fuzz(tmp_path_factory, seed, edits):
    data = bytearray(dsl.print_source(random_source(random.Random(seed))).encode())
    for op, at, byte in edits:
        at %= len(data) + 1
        if op == "insert":
            data[at:at] = bytes([byte])
        elif at < len(data):
            data[at : at + 1] = b"" if op == "delete" else bytes([byte])
    path = tmp_path_factory.getbasetemp() / "fuzz.net"
    path.write_bytes(bytes(data))
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["validate", str(path)])
    assert time.perf_counter() - start < 2.0
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_VALIDATION, cli.EXIT_USAGE)
    assert "Traceback" not in err.getvalue()
    if code != cli.EXIT_OK:
        assert len(err.getvalue().strip().splitlines()) == 1 and out.getvalue() == ""


# Tokens of a distribution: rationals of up to 200 bits, and malformed ones.
_BIG = st.integers(0, 200).flatmap(lambda bits: st.integers(-(2**bits), 2**bits))
_TOKEN = st.one_of(
    _BIG.map(str),
    st.builds("{}/{}".format, _BIG, _BIG.map(abs)),
    st.sampled_from(("", " ", "x", "1/", "/2", "1/-2", "1//2", "1/2/3", "--1", "1.5", "1e3", "0x10",
                     "nan", "\u00bd", "1_0", "+0", "-0/7", "9" * 5000)),
)


def _dist(size=st.integers(0, 4)):
    return size.flatmap(lambda k: st.lists(_TOKEN, min_size=k, max_size=k)).map(",".join)


def _chain_argv(z, ys):
    return ["chain", f"--z={z}"] + [f"--y={y}" for y in ys]


# chain needs one --y per outer weight; the first branch keeps the counts equal
_FACTORING_ARGV = st.one_of(
    _dist().map(lambda d: ["entropy", f"--dist={d}"]),
    st.integers(1, 3).flatmap(lambda k: st.builds(
        _chain_argv, _dist(st.just(k)), st.lists(_dist(st.integers(1, 3)), min_size=k, max_size=k))),
    st.builds(_chain_argv, _dist(), st.lists(_dist(), max_size=3)),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(argv=_FACTORING_ARGV)
def test_factoring_commands_exit_codes_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 2.0
    assert code in (cli.EXIT_OK, cli.EXIT_FAILED, cli.EXIT_USAGE)
    assert "Traceback" not in err.getvalue()


def test_weight_command(capsys):
    code, out, _ = run(capsys, "weight", fx("affine_mult.net"), "--object", "Z0")
    assert code == 0
    assert out.splitlines() == ["a = 17/10", "c = 21/2"]


def test_jinv_formats(capsys):
    code, out, _ = run(capsys, "jinv", fx("worked_example.net"), "--diagram", "worked")
    assert code == 0 and out.startswith("{")
    code, out, _ = run(
        capsys, "jinv", fx("entropy_fold.net"), "--diagram", "fold", "--format", "entropy"
    )
    assert code == 0 and out.strip() == "(3/2)*log(2)"
    code, out, _ = run(
        capsys, "jinv", fx("entropy_fold.net"), "--diagram", "fold", "--format", "float"
    )
    assert code == 0 and abs(float(out) - 1.0397207708399179) < 1e-12


_N = 1152921504606859327 * 309485009821345068724848949
_BIG = 10**400  # past the double range


class _Source(str):
    """The text of a .net file in an argv row; the row runs on a file holding it."""


def _path_of(tmp_path, arg):
    if not isinstance(arg, _Source):
        return arg
    path = tmp_path / "input.net"
    path.write_text(arg)
    return str(path)


# a float-mode diagram whose exact weights are past the double range
_FLOAT_PAST_RANGE = _Source(f"mode Hfloat\nobject Z0 = X+({_BIG}) X+(1)\n"
                            f"object Z1 = X+({_BIG + 1})\ndiagram D : Z0 -> Z1 {{ add_merge @0; }}\n")
_TO_ENTROPY = "diagram evaluates to an entropy scalar; use --format entropy"
_TO_FLOAT = "float-mode diagram; use --format float"


@pytest.mark.parametrize(
    "name, diagram, fmt, refusal",
    [
        ("worked_example.net", "worked", "entropy", None),
        ("worked_example.net", "worked", "float", None),
        ("entropy_fold.net", "fold", "prime-vector", _TO_ENTROPY),
        ("floaty.net", "halves", "prime-vector", _TO_FLOAT),
        ("floaty.net", "halves", "entropy", _TO_FLOAT),
        ("floaty.net", "halves", "float", None),
        (_FLOAT_PAST_RANGE, "D", "prime-vector", _TO_FLOAT),
        (_FLOAT_PAST_RANGE, "D", "entropy", _TO_FLOAT),
    ],
    ids=lambda v: "float-past-range" if v is _FLOAT_PAST_RANGE else None,
)
def test_jinv_formats_per_mode(capsys, monkeypatch, tmp_path, name, diagram, fmt, refusal):
    path = _path_of(tmp_path, name) if isinstance(name, _Source) else fx(name)
    if refusal is not None:
        # a format the mode cannot give is refused before anything is evaluated
        monkeypatch.setattr(cli.af, "j_invariant", lambda d: pytest.fail("evaluated before refusing"))
    code, out, err = run(capsys, "jinv", path, "--diagram", diagram, "--format", fmt)
    if refusal is None:
        assert code == 0 and len(out.splitlines()) == 1 and err == ""
    else:
        assert (code, out, err) == (cli.EXIT_USAGE, "", refusal + "\n")


def test_chain_command(capsys):
    code, out, _ = run(capsys, "chain", "--z", "1/2,1/2", "--y", "1/3,2/3", "--y", "1")
    assert code == 0 and out.strip() == "verified"


def test_normalize_command(capsys, tmp_path):
    out_path = tmp_path / "normal.net"
    code, out, _ = run(
        capsys,
        "normalize",
        fx("worked_example.net"),
        "--diagram",
        "worked",
        "-o",
        str(out_path),
    )
    assert code == 0
    resolved = dsl.resolve(dsl.parse(out_path.read_text()))
    from entronet import affine as af

    original = dsl.resolve(dsl.parse(open(fx("worked_example.net")).read())).diagrams["worked"]
    normal = resolved.diagrams["worked_normal"]
    assert af.equal_morphisms(original, normal)


def test_check_rewrites_command(capsys):
    code, out, _ = run(
        capsys, "check-rewrites", fx("worked_example.net"), "--diagram", "worked", "--trials", "25"
    )
    assert code == 0 and "verified" in out


def test_eval_command(capsys):
    code, out, _ = run(
        capsys,
        "eval",
        fx("networks.net"),
        "--gdiagram",
        "merge3",
        "--with",
        "alphaC",
        "--cocycle",
        "cy",
    )
    assert code == 0 and out.strip() == "(0,)"
    code, out, _ = run(
        capsys,
        "eval",
        fx("networks.net"),
        "--gdiagram",
        "circ",
        "--with",
        "alphaF",
        "--cocycle1",
        "zero",
    )
    assert code == cli.EXIT_USAGE  # alphaF reads --cocycle
    code, out, _ = run(
        capsys,
        "eval",
        fx("networks.net"),
        "--gdiagram",
        "circ",
        "--with",
        "alphaF",
        "--cocycle",
        "zero",
    )
    assert code == 0 and out.strip() == "(0,)"


def test_eval_reports_only_validation_errors_as_such(capsys, monkeypatch):
    def fault(d, c):
        raise ZeroDivisionError("a program fault")

    monkeypatch.setattr(cli, "eval_alpha_c", fault)
    argv = ["eval", fx("networks.net"), "--gdiagram", "merge3", "--with", "alphaC", "--cocycle", "cy"]
    with pytest.raises(ZeroDivisionError):
        cli.main(argv)


def test_extension_command(capsys):
    code, out, _ = run(capsys, "extension", fx("networks.net"), "--cocycle", "cy")
    assert code == 0
    assert "order 16" in out and "order-16: 8" in out


def test_extension_size_bound(capsys, tmp_path):
    # an extension of order 3000, past the bound of 182: refused before any table
    path = tmp_path / "big.net"
    path.write_text("group G = cyclic(2)\nmodule M over G = z(1500)\ncocycle2 c : G -> M = { }\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "extension", str(path), "--cocycle", "c")
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_USAGE and out == ""
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_catalog_commands(capsys):
    assert run(capsys, "catalog", "carry", "--n", "7")[0] == 0
    assert run(capsys, "catalog", "witt", "--p", "5")[0] == 0
    assert run(capsys, "catalog", "binomial", "--max", "6")[0] == 0
    assert run(capsys, "catalog", "binomial", "--max", "31")[0] == 0  # the largest within the bound
    code, out, _ = run(capsys, "catalog", "pmi", "--masses", "a=1/2; b=1/4; c=1/4")
    assert code == 0 and "True" in out


def test_render_command(capsys, tmp_path):
    out_path = tmp_path / "d.svg"
    code, _, _ = run(
        capsys, "render", fx("worked_example.net"), "--diagram", "worked", "-o", str(out_path)
    )
    assert code == 0
    import xml.etree.ElementTree as ET

    ET.parse(out_path)


def _hfloat_dot(payload):
    return _Source(f"mode Hfloat\nobject Z = X+(1)\ndiagram D : Z -> Z {{ dot @0 {payload}; }}\n")


def _jdot(payload):
    return _Source(f"object Z = X+(1)\ndiagram D : Z -> Z {{ dot @0 {payload}; }}\n")


_LONG = "9" * 5000
_NINES = "9" * 4000


@pytest.mark.parametrize(
    "argv, want",
    [
        (("h2", "--group", "cyclic:x", "--module", "z:2"), cli.EXIT_USAGE),
        (("h2", "--group", "cyclic:0", "--module", "z:2"), cli.EXIT_VALIDATION),
        (("h2", "--group", "cyclic:2", "--module", "z:0"), cli.EXIT_VALIDATION),
        (("catalog", "carry", "--n", "0"), cli.EXIT_USAGE),
        (("catalog", "witt", "--p", "4"), cli.EXIT_USAGE),
        (("h2", "--group", "cyclic:65", "--module", "z:2"), cli.EXIT_USAGE),
        (("h2", "--group", "cyclic:34", "--module", "z:2"), cli.EXIT_USAGE),
        (("h2", "--group", "product:2,x", "--module", "z:2"), cli.EXIT_USAGE),
        (("h2", "--group", "aff1modp:4", "--module", "z:2"), cli.EXIT_VALIDATION),
        (("h2", "--group", "cyclic:2", "--module", "z:"), cli.EXIT_USAGE),
        (("catalog", "pmi", "--masses", "a=x"), cli.EXIT_USAGE),
        (("catalog", "carry", "--n", "34"), cli.EXIT_USAGE),
        (("catalog", "witt", "--p", "37"), cli.EXIT_USAGE),
        # N, a 61-bit prime times an 89-bit prime, is past the factoring budget
        (("entropy", "--dist", f"1/{_N},{_N - 1}/{_N}"), cli.EXIT_USAGE),
        # verifications cubic in their range, refused before anything is built
        (("catalog", "binomial", "--max", "32"), cli.EXIT_USAGE),
        (("catalog", "binomial", "--max", str(10**30)), cli.EXIT_USAGE),
        (("catalog", "pmi", "--masses", "; ".join(f"{k}=1/6" for k in "abcdef")), cli.EXIT_USAGE),
        # an output file in a directory that does not exist
        (("normalize", fx("worked_example.net"), "--diagram", "worked", "-o",
          os.path.join(FIXTURES, "no-such-dir", "x.net")), cli.EXIT_USAGE),
        (("render", fx("worked_example.net"), "--diagram", "worked", "-o",
          os.path.join(FIXTURES, "no-such-dir", "x.svg")), cli.EXIT_USAGE),
        # weights and exact values past the double range, asked for as a double
        (("jinv", _FLOAT_PAST_RANGE, "--diagram", "D", "--format", "float"), cli.EXIT_USAGE),
        (("jinv", _Source(f"mode H\nobject Z = X+(1)\n"
                          f"diagram D : Z -> Z {{ dot @0 {_BIG} + {{2: 1}}; }}\n"),
          "--diagram", "D", "--format", "float"), cli.EXIT_USAGE),
        (("entropy", "--dist", f"{2**1400},{2**1400}"), cli.EXIT_USAGE),
        # float payloads are finite doubles
        (("validate", _hfloat_dot("1e999")), cli.EXIT_PARSE),
        (("validate", _hfloat_dot("-1e999")), cli.EXIT_PARSE),
        (("validate", _hfloat_dot(_BIG)), cli.EXIT_PARSE),
        # payload keys are primes, each given once
        (("jinv", _jdot("{4: 1}"), "--diagram", "D"), cli.EXIT_PARSE),
        (("jinv", _jdot("{0: 1, 1: 5}"), "--diagram", "D", "--format", "float"), cli.EXIT_PARSE),
        (("validate", _jdot("{2: 1, 2: 3}")), cli.EXIT_PARSE),
        # integer literals past the interpreter's 4,300-digit str-to-int limit
        (("validate", _Source(f"object E = X+({_LONG})\n")), cli.EXIT_PARSE),
        (("validate", _jdot(f"{{{_LONG}: 1}}")), cli.EXIT_PARSE),
        # computed values past that limit: a weight, and a sum of two dots
        (("weight", _Source(f"object A = Y+({_NINES}) Y+({_NINES})\n"), "--object", "A"),
         cli.EXIT_USAGE),
        (("weight", _Source(f"object A = Y+({_NINES}) Y+({_NINES})\n"), "--object", "A", "--json"),
         cli.EXIT_USAGE),
        (("jinv", _jdot(f"{{2: 1/{3**8000}}}; dot @0 {{2: 1/{7**4000}}}"), "--diagram", "D"),
         cli.EXIT_USAGE),
    ],
)
def test_bad_input_exit_codes(capsys, tmp_path, argv, want):
    code, out, err = run(capsys, *(_path_of(tmp_path, arg) for arg in argv))
    assert code == want
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert out == ""


def test_check_rewrites_with_infinite_float_dots(tmp_path):
    """Two dots of 1e308 sum to inf, and inf equals inf, with and without -O."""
    path = tmp_path / "inf.net"
    path.write_text(
        "mode Hfloat\nobject Z0 = X+(1) X+(2)\n"
        "diagram D : Z0 -> Z0 { dot @0 1e308; dot @0 1e308; add_merge @0; add_split(1, 2) @0; }\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    for flags in ([], ["-O"]):
        argv = [sys.executable, *flags, "-m", "entronet.cli", "check-rewrites", str(path),
                "--diagram", "D"]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout, done.stderr) == (0, "verified: 100 rewrites applied\n", "")


def test_usage_errors(capsys):
    code, _, _ = run(capsys, "no-such-command")
    assert code == cli.EXIT_USAGE
    code, _, err = run(capsys, "weight", fx("affine_mult.net"), "--object", "nope")
    assert code == cli.EXIT_USAGE and "nope" in err


def test_cli_import_leaves_numpy_out():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys, entronet.cli; print('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "False"


# File commands on copies of the shipped fixtures, malformed paths, names and
# flags.  The fixture names, "OUT" and "GARBLED" stand for files under a
# temporary directory, so no case can write over a fixture.
_FIXTURE_NAMES = sorted(n for n in os.listdir(FIXTURES) if n.endswith(".net"))
_PATH = st.sampled_from(_FIXTURE_NAMES + ["", "no/such/file.net", FIXTURES, "GARBLED"])
_NAME = st.sampled_from(("worked", "fold", "circ", "merge3", "cy", "zero", "M", "W0", "nope", ""))


def _or_junk(valid, junk):
    """Mostly a valid value, sometimes a malformed one."""
    return st.one_of(valid, valid, valid, junk)


# the affine diagrams, and the group networks and cocycles, of the fixtures
_DIAGRAM = _or_junk(st.sampled_from([
    ("worked_example.net", "worked"), ("entropy_fold.net", "fold"),
    ("entropy_fold.net", "fold_dotted"), ("floaty.net", "halves"), ("affine_mult.net", "mult"),
]), st.tuples(_PATH, _NAME))
_NETWORKS = _or_junk(st.just("networks.net"), _PATH)
_SMALL = _or_junk(st.integers(1, 12).map(str), st.one_of(
    st.integers(-(10**30), 10**30).map(str), st.sampled_from(("", "0", "-1", "x", "1.5", "0x10"))))
_SMALLS = st.lists(_SMALL, min_size=1, max_size=3).map(",".join)
_RATIONAL = _or_junk(st.sampled_from(("1/2", "1/3", "1/4", "1/6", "0")),
                     st.sampled_from(("1", "-1/2", "x", "1/0", "")))
_MASSES = st.lists(st.tuples(st.sampled_from("abcdefgh"), _RATIONAL), max_size=8).map(
    lambda ms: "; ".join(f"{k}={v}" for k, v in ms))


def _opt(*tokens):
    return st.one_of(st.just([]), st.tuples(*tokens).map(list))


def _cmd(head, *parts):
    return st.tuples(*parts).map(lambda ps: list(head) + [t for p in ps for t in p])


_FILE_ARGV = st.one_of(
    _cmd(["jinv"], _DIAGRAM.map(lambda d: [d[0], "--diagram", d[1]]),
         _opt(st.just("--format"), st.sampled_from(("prime-vector", "entropy", "float", "hex")))),
    _cmd(["normalize"], _DIAGRAM.map(lambda d: [d[0], "--diagram", d[1]]),
         _opt(st.just("-o"), st.sampled_from(("OUT", "OUT/missing/x.net", "")))),
    _cmd(["eval"], _NETWORKS.map(lambda p: [p]),
         st.tuples(st.just("--gdiagram"), _or_junk(st.sampled_from(("circ", "merge3")), _NAME)),
         st.tuples(st.just("--with"), st.sampled_from(("alphaU", "alphaF", "alphaC", "alphaCF",
                                                       "beta"))),
         _opt(st.just("--cocycle"), _or_junk(st.sampled_from(("cy", "zero")), _NAME)),
         _opt(st.just("--cocycle1"), _or_junk(st.sampled_from(("zero", "cy")), _NAME)),
         _opt(st.just("--module"), _or_junk(st.just("M"), _NAME))),
    _cmd(["extension"], _NETWORKS.map(lambda p: [p]),
         st.tuples(st.just("--cocycle"), _or_junk(st.just("cy"), _NAME))),
    _cmd(["h2"],
         st.tuples(st.just("--group"), _or_junk(
             st.builds("{}:{}".format, st.sampled_from(("cyclic", "aff1modp")), _SMALL)
             | st.builds("product:{},{}".format, _SMALL, _SMALL),
             st.builds("{}:{}".format, st.sampled_from(("cyclic", "product", "dihedral")), _SMALLS))),
         st.tuples(st.just("--module"), _or_junk(st.builds("z:{}".format, _SMALL),
                                                 st.builds("q:{}".format, _SMALLS))),
         _opt(st.just("--degree"), _or_junk(st.sampled_from(("1", "2")), _SMALL)),
         _opt(st.just("--action"), st.sampled_from(("trivial", "sign")))),
    _cmd(["catalog"], st.one_of(
        st.tuples(st.just("carry"), st.just("--n"), _SMALL),
        st.tuples(st.just("witt"), st.just("--p"), _SMALL),
        st.tuples(st.just("binomial"), st.just("--max"), _SMALL),
        st.tuples(st.just("pmi"), st.just("--masses"), _MASSES),
        st.tuples(st.sampled_from(("carry", "moebius")), st.just("--q"), _SMALL),
    ).map(list)),
)
# malformed flags, in half the cases: a token dropped, or a stray one inserted
_FLAG_EDITS = st.one_of(st.just([]), st.lists(
    st.tuples(st.booleans(), st.integers(0, 12),
              st.sampled_from(("--json", "--bogus", "-o", "--diagram", "--", "-"))),
    min_size=1, max_size=2,
))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(argv=_FILE_ARGV, edits=_FLAG_EDITS)
def test_file_commands_exit_codes_fuzz(tmp_path_factory, argv, edits):
    base = tmp_path_factory.mktemp("fuzz")
    files = {"OUT": base / "out.net", "GARBLED": base / "garbled.net"}
    files["GARBLED"].write_bytes(b"diagram D : A -> B {\n  add_merge @0;\n}\n\xff\xfe object")
    for name in _FIXTURE_NAMES:
        files[name] = base / name
        files[name].write_bytes(open(fx(name), "rb").read())
    argv = [str(files[a]) if a in files else a.replace("OUT", str(base)) for a in argv]
    for insert, at, token in edits:
        at %= len(argv) + 1
        if insert:
            argv.insert(at, token)
        elif at < len(argv):
            del argv[at]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert time.perf_counter() - start < 3.0, argv
    assert code in (cli.EXIT_OK, cli.EXIT_FAILED, cli.EXIT_PARSE, cli.EXIT_VALIDATION,
                    cli.EXIT_USAGE), argv
    assert "Traceback" not in err.getvalue(), argv
