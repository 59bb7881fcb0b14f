"""Acceptance gate: every criterion at its stated tolerance and budget.

One test per criterion; each prints a PASS/FAIL line with its runtime so the
suite can be read as a report (`pytest -s tests/test_acceptance.py`).
"""

import json
import time

import pytest

from entronet import acceptance


@pytest.mark.parametrize(
    "number,title,fn,budget",
    acceptance.CRITERIA,
    ids=[f"criterion_{num}_{fn.__name__}" for num, _, fn, _ in acceptance.CRITERIA],
)
def test_criterion(number, title, fn, budget):
    t0 = time.time()
    ok, detail = fn()
    elapsed = time.time() - t0
    status = "PASS" if (ok and elapsed < budget) else "FAIL"
    print(f"{status} criterion {number} ({elapsed:.2f}s < {budget:g}s): {title} -- {detail}")
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget, f"criterion {number} exceeded its budget: {elapsed:.2f}s"


def test_selftest_json_splits_generation_from_checking(capsys, monkeypatch):
    """Each JSON result splits its seconds into sampling time and the rest."""
    cheap = [row for row in acceptance.CRITERIA if row[0] in ("1", "7", "12")]
    monkeypatch.setattr(acceptance, "CRITERIA", cheap)
    assert acceptance.run_all(json_output=True) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert [r["criterion"] for r in results] == ["1", "7", "12"]
    for r in results:
        assert r["generate_s"] >= 0 and r["check_s"] >= 0
        assert abs(r["generate_s"] + r["check_s"] - r["seconds"]) <= 0.05 * r["seconds"]
    # criterion 1 draws nothing; criterion 7 draws its distributions
    assert results[0]["generate_s"] == 0 and results[1]["generate_s"] > 0
