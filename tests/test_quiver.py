from fractions import Fraction
from random import Random

import pytest

from cycdaha.linalg import Matrix
from cycdaha.quiver import (
    Quadruple,
    QuiverPoint,
    UncertifiedInput,
    XNotInvertible,
    check_point,
    check_quadruple,
    irreducibility_check,
    lift_open_locus,
    moment_equivariance_check,
    product_formulas,
    psi,
    quadruple_equations,
    sample_chain,
    telescoped_framing,
    vdb_moment,
)


def Zs(l):
    return tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(l))


def test_trivial_point_certifies():
    p = QuiverPoint(
        1, 1, (Fraction(3),), Fraction(2),
        [Matrix.zero(1, 1)], [Matrix.zero(1, 1)], Matrix.identity(1),
    )
    assert check_point(p)["certified"]


def test_scalar_chain_closed_form():
    # l = 2, N = 1: T = Z_2 (1 + D_2 X_2) / (Z_1 (1 + X_1 D_1))
    p = sample_chain(2, 1, Zs(2), seed=5)
    (x1,), (d1,) = p.X[0].rows[0], p.D[0].rows[0]
    (x2,), (d2,) = p.X[1].rows[0], p.D[1].rows[0]
    expect = p.Z[1] * (1 + d2 * x2) / (p.Z[0] * (1 + x1 * d1))
    assert p.T.rows[0][0] == expect


def test_sample_chain_certifies_and_product_formulas():
    for l in (1, 2, 3):
        for N in (1, 2, 3):
            p = sample_chain(l, N, Zs(l), seed=10 * l + N)
            assert check_point(p)["certified"]
            pf = product_formulas(p)
            assert pf["Lplus_matches"] and pf["Lminus_matches"]


def test_product_formulas_evaluate_the_quadruple_equations_once(monkeypatch):
    # psi's postcondition and the L+- verdicts read one equations table
    from cycdaha import quiver

    calls = []

    def counted(q):
        calls.append(q)
        return quadruple_equations(q)

    monkeypatch.setattr(quiver, "quadruple_equations", counted)
    p = sample_chain(3, 3, Zs(3), seed=33)
    pf = product_formulas(p)
    assert pf["Lplus_matches"] and pf["Lminus_matches"]
    assert len(calls) == 1


def test_l1_T_formula():
    p = sample_chain(1, 2, Zs(1), seed=5)
    I = Matrix.identity(2)
    expect = (I + p.X[0] * p.D[0]).inverse() * (I + p.D[0] * p.X[0])
    assert p.T == expect


def test_perturbation_is_caught():
    p = sample_chain(2, 2, Zs(2), seed=5)
    rows = [list(r) for r in p.X[0].rows]
    rows[0][0] += 1
    p.X[0] = Matrix(rows)
    assert not check_point(p)["certified"]


def test_psi_is_repackaging_at_level_one():
    p = sample_chain(1, 2, Zs(1), seed=7)
    q = psi(p)
    assert q.X == p.X[0] and q.D == p.D[0]
    assert q.Y == (Matrix.identity(2) + p.X[0] * p.D[0]) * p.Z[0]
    assert check_quadruple(q)["certified"]


def test_psi_requires_certified_input():
    p = sample_chain(2, 2, Zs(2), seed=5)
    rows = [list(r) for r in p.D[0].rows]
    rows[0][0] += 1
    p.D[0] = Matrix(rows)
    with pytest.raises(UncertifiedInput):
        psi(p)


def test_lift_round_trip():
    for seed in (3, 7, 9):
        p = sample_chain(2, 2, Zs(2), seed=seed)
        q = psi(p)
        if not q.X.is_invertible():
            continue
        p2 = lift_open_locus(q)
        q2 = psi(p2)
        assert (q2.X, q2.D, q2.Y, q2.T) == (q.X, q.D, q.Y, q.T)
        # idempotence of lift-then-psi
        p3 = lift_open_locus(q2)
        assert psi(p3).X == q.X


def test_lift_needs_invertible_X():
    # a sampled quadruple with X set to 0 is no longer certified
    q = psi(sample_chain(1, 2, Zs(1), seed=3))
    bad = Quadruple(q.l, q.N, q.Z, q.t, Matrix.zero(2, 2), q.D, q.Y, q.T)
    with pytest.raises(UncertifiedInput):
        lift_open_locus(bad)
    # X = 0, D = 5, Y = Z = 2, T = 1 is certified (XD = Y/Z - 1 = 0), and
    # its X is not invertible
    q0 = Quadruple(1, 1, (Fraction(2),), Fraction(2), Matrix.zero(1, 1),
                   Matrix([[5]]), Matrix([[2]]), Matrix([[1]]))
    assert check_quadruple(q0)["certified"]
    with pytest.raises(XNotInvertible):
        lift_open_locus(q0)


def test_irreducibility():
    q1 = psi(sample_chain(1, 1, Zs(1), seed=2))
    assert irreducibility_check(q1)["irreducible"]
    qg = psi(sample_chain(1, 2, Zs(1), seed=3))
    assert irreducibility_check(qg)["irreducible"]
    # a visibly reducible quadruple, with a rational witness
    bd = Quadruple(
        1, 2, (Fraction(1),), Fraction(2),
        Matrix.zero(2, 2), Matrix.zero(2, 2),
        Matrix([[1, 0], [0, 2]]), Matrix.identity(2),
    )
    r = irreducibility_check(bd)
    assert r == {"irreducible": False, "algebra_dim": 2, "witness": [[["1"], ["0"]]]}


def test_results_hold_exact_entries():
    p = sample_chain(2, 2, Zs(2), seed=5)
    q = psi(p)
    mats = p.X + p.D + [p.T, q.X, q.D, q.Y, q.T]
    assert all(type(x) in (int, Fraction) for m in mats for r in m.rows for x in r)


def test_vdb_moment_examples():
    z = Matrix.zero(2, 2)
    mu = vdb_moment(z, z)
    assert mu == (Matrix.identity(2), Matrix.identity(2))
    x, y = Matrix([[Fraction(1, 2)]]), Matrix([[3]])
    mu1, mu2 = vdb_moment(x, y)
    assert mu1.rows[0][0] == 1 / (1 + Fraction(3) / 2)
    assert mu2.rows[0][0] == 1 + Fraction(3) / 2


def test_vdb_singular_factor():
    from cycdaha.quiver import SingularFactor

    x, y = Matrix([[1]]), Matrix([[-1]])
    with pytest.raises(SingularFactor):
        vdb_moment(x, y)


def test_moment_equivariance():
    rng = Random(12)
    X = Matrix.random(rng, 2, 3)
    Y = Matrix.random(rng, 3, 2)
    g = Matrix([[1, 1, 0], [0, 1, 0], [0, 0, 2]])
    h = Matrix([[2, 0], [1, 1]])
    assert moment_equivariance_check(X, Y, g, h)


def test_fusion_moment_and_telescoping():
    rng = Random(4)
    a1, b1 = Matrix.random(rng, 2, 1), Matrix.random(rng, 1, 2)
    a2, b2 = Matrix.random(rng, 2, 1), Matrix.random(rng, 1, 2)
    I = Matrix.identity(2)
    tilded, ok = telescoped_framing([(a1, b1), (a2, b2)])
    assert ok
    assert tilded[0][0] == a1 and tilded[1][0] == (I + a1 * b1) * a2
    # the repackaged framing sums to the fusion product of the framing factors
    total = I + sum((a * b for a, b in tilded), Matrix.zero(2, 2))
    assert total == (I + a1 * b1) * (I + a2 * b2)


def test_point_json_round_trip():
    p = sample_chain(2, 2, Zs(2), seed=5)
    q = QuiverPoint.from_json(p.to_json())
    assert q.X == p.X and q.D == p.D and q.T == p.T and q.Z == p.Z
