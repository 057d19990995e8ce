"""The equations tables of quiver points, quadruples and bow segments: a
perturbed input turns False exactly the equations that contain it, and the
certifiers' reports on fixed seeds are pinned by a fingerprint."""

import hashlib
import json
from dataclasses import fields, replace
from fractions import Fraction

from cycdaha.bow import check_bow, hw_round_trip_check, hw_transition, sample_bow
from cycdaha.linalg import Matrix
from cycdaha.quiver import check_point, check_quadruple, product_formulas, psi, sample_chain


def Zs(l):
    return tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(l))


def bow(dims, seed):
    return sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), seed)


def bumped(m):
    """m with 1 added to its top-left entry."""
    rows = [list(r) for r in m.rows]
    rows[0][0] += 1
    return Matrix(rows)


def perturbations(obj):
    """(input name, obj with that one input perturbed) for every nonempty
    matrix and every scalar of a QuiverPoint, Quadruple or BowData; a list
    or tuple field yields one perturbation per entry, named "X[i]"."""
    out = []
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, Fraction):
            out.append((f.name, replace(obj, **{f.name: value + 1})))
        elif isinstance(value, Matrix) and value.m and value.n:
            out.append((f.name, replace(obj, **{f.name: bumped(value)})))
        elif isinstance(value, (list, tuple)) and f.name != "dims":
            for i, entry in enumerate(value):
                new = list(value)
                new[i] = bumped(entry) if isinstance(entry, Matrix) else entry + 1
                out.append((f"{f.name}[{i}]", replace(obj, **{f.name: type(value)(new)})))
    return out


def flipped(report):
    """The equations a report finds nonzero."""
    return {r["equation"] for r in report["residuals"] if not r["zero"]}


def assert_live(check, obj, table):
    """obj passes check, and perturbing any one input turns False exactly the
    equations of table (equation name -> the inputs it contains) that
    contain it; every input the table names is perturbed."""
    assert [r["equation"] for r in check(obj)["residuals"]] == list(table)
    assert flipped(check(obj)) == set()
    seen = set()
    for name, bad in perturbations(obj):
        seen.add(name)
        expect = {eq for eq, inputs in table.items() if name in inputs}
        assert flipped(check(bad)) == expect, name
    assert set().union(*table.values()) <= seen


def test_point_equations_are_live():
    # l = 3: chain[2] and chain[3] join neighbouring vertices, closing joins
    # vertex 1 to vertex 3 through T; t enters no equation
    assert_live(check_point, sample_chain(3, 2, Zs(3), seed=32), {
        "chain[2]": {"X[1]", "D[1]", "Z[1]", "X[0]", "D[0]", "Z[0]"},
        "chain[3]": {"X[2]", "D[2]", "Z[2]", "X[1]", "D[1]", "Z[1]"},
        "closing": {"X[0]", "D[0]", "Z[0]", "T", "X[2]", "D[2]", "Z[2]"},
    })


def test_quadruple_equations_are_live():
    Z = {"Z[0]", "Z[1]"}
    assert_live(check_quadruple, psi(sample_chain(2, 2, Zs(2), seed=22)), {
        "XD": {"X", "D", "Y"} | Z,
        "DX": {"D", "X", "Y", "T"} | Z,
        "YX=XYT": {"Y", "X", "T"},
        "YTD=DY": {"Y", "T", "D"},
    })


def test_bow_equations_are_live_in_both_orientations():
    b = bow((2, 2, 2), 11)
    assert_live(check_bow, b, {
        "loop-left": {"B1", "D", "C", "t", "Z"},
        "loop-right": {"B2", "C", "D", "Zp"},
        "cross": {"B3", "A", "B2", "a", "b"},
    })
    assert_live(check_bow, hw_transition(b), {
        "loop-left": {"B2", "D", "C", "t", "Z"},
        "loop-right": {"B3", "C", "D", "Zp"},
        "cross": {"B2", "A", "B1", "a", "b"},
    })


# SHA-256 over the canonical JSON of check_point, check_quadruple(psi(p)) and
# product_formulas at (l, N) <= (3, 3), of check_bow on sampled bows in both
# orientations, of the same reports after each single-input perturbation,
# and of the hw_round_trip_check checks at dims (1,1,1) and (2,2,2).  The
# constant was computed before the certifiers read their residuals from one
# equations table per object; any change to a verdict, an equation name or
# the order of the residuals changes it.
GEOMETRY_SHA256 = "662222d6e6957a6a788e041b60801cf818ce9c4dc9bb7d117997f7a05962b6e5"
GEOMETRY_REPORTS = 312


def geometry_fingerprint():
    h = hashlib.sha256()
    count = 0

    def add(*key_and_report):
        nonlocal count
        h.update(json.dumps(key_and_report, sort_keys=True).encode())
        count += 1

    for l in (1, 2, 3):
        for N in (1, 2, 3):
            p = sample_chain(l, N, Zs(l), seed=10 * l + N)
            q = psi(p)
            add("point", l, N, check_point(p))
            add("quadruple", l, N, check_quadruple(q))
            add("product", l, N, product_formulas(p))
            for name, bad in perturbations(p):
                add("point", l, N, name, check_point(bad))
            for name, bad in perturbations(q):
                add("quadruple", l, N, name, check_quadruple(bad))
    for dims in ((1, 1, 1), (2, 2, 2)):
        for seed in (11, 12, 13):
            b = bow(dims, seed)
            for x in (b, hw_transition(b)):
                add("bow", x.orientation, dims, seed, check_bow(x))
                for name, bad in perturbations(x):
                    add("bow", x.orientation, dims, seed, name, check_bow(bad))
            add("hw", dims, seed, hw_round_trip_check(b)["checks"])
    return count, h.hexdigest()


def test_geometry_fingerprint():
    assert geometry_fingerprint() == (GEOMETRY_REPORTS, GEOMETRY_SHA256)
