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


def test_criterion_12_fails_on_an_unexpected_error(monkeypatch):
    from cycdaha import quiver

    def broken(X, Y, g, h):
        raise RuntimeError("probe")

    monkeypatch.setattr(quiver, "moment_equivariance_check", broken)
    entry = acceptance.criterion_12()
    assert entry["status"] == "fail"
    assert entry["details"]["error"].startswith("RuntimeError at test_acceptance.py:")


def test_criterion_12_fails_when_no_draw_is_checked(monkeypatch):
    from cycdaha import quiver

    def singular(X, Y, g, h):
        raise quiver.SingularFactor("1 + XY must be invertible")

    monkeypatch.setattr(quiver, "moment_equivariance_check", singular)
    entry = acceptance.criterion_12()
    assert entry["status"] == "fail"
    assert entry["details"]["moment-map equivariance (0 of 5 draws)"] is False


def test_status_is_derived_from_the_details():
    # a criterion passes only when it checked something and all of it held
    assert acceptance._timed("empty", lambda: {})["status"] == "fail"
    assert acceptance._timed("one false", lambda: {"a": True, "b": False})["status"] == "fail"
    assert acceptance._timed("not a bool", lambda: {"a": 1})["status"] == "fail"
    assert acceptance._timed("all true", lambda: {"a": True, "b": True})["status"] == "pass"


def test_criterion_10_evaluates_the_point_equations_once_per_point(monkeypatch):
    """Beyond the certification sample_chain makes, each point criterion 10
    draws has its point equations evaluated once: the product formulas read
    the report check_point has made."""
    from cycdaha import quiver

    point_equations, sample_chain = quiver.point_equations, quiver.sample_chain
    sampled, outside, inside = [], {}, []

    def counted(p):
        if not inside:
            outside[id(p)] = outside.get(id(p), 0) + 1
        return point_equations(p)

    def sampling(*args, **kwargs):
        inside.append(True)
        try:
            p = sample_chain(*args, **kwargs)
        finally:
            inside.pop()
        sampled.append(p)
        return p

    monkeypatch.setattr(quiver, "point_equations", counted)
    monkeypatch.setattr(quiver, "sample_chain", sampling)
    assert acceptance.criterion_10()["status"] == "pass"
    assert len(sampled) > 120  # the 120 product-formula points and the others
    assert [outside.get(id(p)) for p in sampled] == [1] * len(sampled)
