import json
import os
import subprocess
import sys

import pytest

from entronet import cli, dsl

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
    ],
)
def test_invalid_group_declarations(capsys, tmp_path, text, where):
    path = tmp_path / "group.net"
    path.write_text(text)
    code, out, err = run(capsys, "validate", str(path))
    assert code == cli.EXIT_VALIDATION
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert f"group.net:{where}:" in err and out == ""


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


def test_catalog_commands(capsys):
    assert run(capsys, "catalog", "carry", "--n", "7")[0] == 0
    assert run(capsys, "catalog", "witt", "--p", "5")[0] == 0
    assert run(capsys, "catalog", "binomial", "--max", "6")[0] == 0
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
    ],
)
def test_bad_input_exit_codes(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == want
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert out == ""


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
