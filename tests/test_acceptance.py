"""The acceptance battery: every criterion runs at its stated budget with
zero numerical tolerance, printing one pass/fail line per criterion."""

import pytest

from cycdaha import acceptance


@pytest.mark.parametrize(
    "criterion", acceptance.ALL_CRITERIA, ids=lambda fn: fn.criterion_name
)
def test_acceptance_criterion(criterion):
    result = criterion()
    line = f"[{result['status'].upper()}] {result['name']} ({result['seconds']}s)"
    print(line)
    failed = {
        k: v for k, v in result["details"].items() if v is not True
    }
    assert result["status"] == "pass", failed


def test_smoke_failure_names_the_exception(monkeypatch):
    from cycdaha import algebra

    def broken(rep, box_radius=2):
        raise ZeroDivisionError("probe")

    monkeypatch.setattr(algebra, "jucys_murphy_consistency", broken)
    results = {r["name"]: r for r in acceptance.run_smoke()}
    entry = results["Jucys-Murphy word identity N=3"]
    assert entry["status"] == "fail"
    assert entry["details"]["error"].startswith("ZeroDivisionError at test_acceptance.py:")
    assert entry["details"]["error"].endswith(": probe")
    others = [r for name, r in results.items() if r is not entry]
    assert len(others) == 6 and all(r["status"] == "pass" for r in others)
