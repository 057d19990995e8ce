from fractions import Fraction
from random import Random

import pytest

from cycdaha.algebra import sample_rep
from cycdaha.laurent import LaurentPoly
from cycdaha.macdonald import (
    InputNotSymmetric,
    M1_l1,
    apply_macdonald_operator,
    hamiltonian,
    hecke_symmetrizer_expr,
    macdonald_M1,
    poly_from_roots,
    symmetric_basis,
    y_f,
)
from cycdaha.ops import FamilyMismatch, Gen, OperatorExpr, Rep, op_equal_on_box
from cycdaha.scalars import CycloNumber, ParameterDegenerate, RatFuncField


@pytest.mark.parametrize("N,order", [(2, 4), (3, 6)])
def test_symmetrizer_at_a_root_of_sum_t_to_the_length(N, order):
    """tb = zeta_4 gives t = -1, where 1 + t = 0 (N = 2); tb = zeta_6 gives
    t = zeta_3, where (1 + t)(1 + t + t^2) = 0 (N = 3): no symmetrizer."""
    rep = Rep.daha(N, Fraction(3, 2), CycloNumber.zeta(order, 1))
    with pytest.raises(ParameterDegenerate):
        hecke_symmetrizer_expr(rep)


def test_symmetrizer_projector_identities():
    for N in (2, 3):
        rep = sample_rep("daha", N, seed=4)
        tb = rep.params["tb"]
        e = hecke_symmetrizer_expr(rep)
        for i in range(1, N):
            Ti = OperatorExpr.gen("T", i)
            assert op_equal_on_box(rep, Ti * e, tb * e, 2)["result"]
            assert op_equal_on_box(rep, e * Ti, tb * e, 2)["result"]
        assert op_equal_on_box(rep, e * e, e, 2)["result"]


def test_symmetrizer_fixes_symmetric_polynomials():
    rep = sample_rep("daha", 3, seed=4)
    rng = Random(2)
    e = hecke_symmetrizer_expr(rep)
    for p in symmetric_basis(rep, 4):
        assert rep.apply(e, p) == p
    # idempotence on non-symmetric input
    p = rep.monomial((2, 1, 0))
    ep = rep.apply(e, p)
    assert rep.apply(e, ep) == ep
    assert ep.is_symmetric()


def test_macdonald_on_constants_symbolic():
    F = RatFuncField("t")
    t = F.gen
    for N in (2, 3, 4):
        one = LaurentPoly.one(N, F)
        img = apply_macdonald_operator(N, F.coerce(1), t, one, F)
        assert img == LaurentPoly.const(N, (1 - t ** N) / (1 - t), F)


def test_macdonald_matches_hecke_average():
    for N in (2, 3):
        rep = sample_rep("daha", N, seed=6)
        e = hecke_symmetrizer_expr(rep)
        ysum = OperatorExpr.zero()
        for i in range(1, N + 1):
            ysum = ysum + OperatorExpr.gen("Y", i)
        for p in symmetric_basis(rep, 5):
            assert rep.apply(ysum * e, p) == macdonald_M1(rep, p)


def test_macdonald_rank_one():
    # N = 1: M is the shift p(X) -> p(qX)
    rep = sample_rep("daha", 1, seed=1)
    q = rep.params["q"]
    p = rep.var(1) ** 3 + rep.var(1)
    assert macdonald_M1(rep, p) == p.scale_var(1, q)
    # M1 at level one: p -> (p(qX) - p(X))/X
    rep1 = sample_rep("l1", 1, 1, seed=1)
    q = rep1.params["q"]
    p = rep1.var(1) ** 2
    img = M1_l1(rep1, p)
    assert img == (p.scale_var(1, q) - p).shift((-1,))


def test_M1_l1_matches_dunkl_sum():
    for N in (2, 3):
        rep = sample_rep("l1", N, 1, seed=8)
        dsum = OperatorExpr.zero()
        for i in range(1, N + 1):
            dsum = dsum + OperatorExpr.gen("Dl", i)
        for p in symmetric_basis(rep, 4):
            assert rep.apply(dsum, p) == M1_l1(rep, p)
    # constants are annihilated
    rep = sample_rep("l1", 2, 1, seed=8)
    assert not M1_l1(rep, rep.one())


def test_symmetric_precondition_enforced():
    rep = sample_rep("daha", 2, seed=3)
    with pytest.raises(InputNotSymmetric):
        macdonald_M1(rep, rep.var(1))
    with pytest.raises(InputNotSymmetric):
        M1_l1(sample_rep("l1", 2, 1, seed=3), rep.var(1))


def test_y_f_structure():
    rep = sample_rep("cyc-daha", 2, 1, seed=5)
    # f = 1: Y_i(f) = Y_i
    assert y_f(rep, 2, [1]) == OperatorExpr.gen("Y", 2)
    # i = 1: no conjugators, Y_1 f(X_1^-1)
    e = y_f(rep, 1, [Fraction(-1), Fraction(1)])  # f = X - 1
    expect = OperatorExpr.word([Gen("Y", 1), Gen("X^-1", 1)]) - OperatorExpr.word(
        [Gen("Y", 1)]
    )
    assert e == expect


def test_y_f_commute_and_involution_link():
    for N in (2, 3):
        for l in (1, 2):
            rep = sample_rep("cyc-daha", N, l, seed=13)
            f = poly_from_roots(rep.params["Z"])
            fam = [y_f(rep, i, f) for i in range(1, N + 1)]
            for i in range(N):
                for j in range(i + 1, N):
                    assert op_equal_on_box(
                        rep, fam[i] * fam[j], fam[j] * fam[i], 2
                    )["result"]


def _displayed_y_f(rep, i, f_coeffs):
    """Y_i T_{i-1}^-1...T_1^-1 f(X_1^-1) T_1...T_{i-1}, word for word."""
    fX = OperatorExpr({(Gen("X^-1", 1),) * d: c for d, c in enumerate(f_coeffs) if c})
    left = [Gen("Y", i), *(Gen("T^-1", r) for r in range(i - 1, 0, -1))]
    right = [Gen("T", r) for r in range(1, i)]
    return OperatorExpr.word(left) * fX * OperatorExpr.word(right)


@pytest.mark.parametrize("N,l,B", [
    (2, 1, 2), (2, 2, 2), (3, 1, 2), (3, 2, 2), (4, 1, 1), (4, 2, 1), (3, None, 1)])
def test_y_f_equals_the_displayed_product(N, l, B):
    """y_f builds Y_i(f) for i >= 2 as the telescoped product
    tb^(N-1) T_i^-1...T_{N-1}^-1 omega f(X_1^-1) T_1...T_{i-1}; it must act
    as the displayed product on the box, and the same product without its
    tb^(N-1) must not.  l = None is the Q(t) rep with tb = t and Z = (2,)."""
    if l is None:
        rep = Rep.daha(N, Fraction(3, 2), RatFuncField("t").gen, (2,))
    else:
        rep = sample_rep("cyc-daha", N, l)
    tb = rep.params["tb"]
    f = poly_from_roots(rep.params["Z"])
    for i in range(1, N + 1):
        ref = _displayed_y_f(rep, i, f)
        assert op_equal_on_box(rep, y_f(rep, i, f), ref, B)["result"], i
        if i > 1:
            unscaled = (1 / tb) ** (N - 1) * y_f(rep, i, f)
            assert not op_equal_on_box(rep, unscaled, ref, B)["result"], i


def test_y_f_rejects_an_index_outside_the_rank_when_built():
    rep = sample_rep("cyc-daha", 3, 2, seed=13)
    f = poly_from_roots(rep.params["Z"])
    for i in (0, 4, -1):
        for coeffs in (f, [Fraction(2)]):
            with pytest.raises(ValueError, match="Y_i"):
                y_f(rep, i, coeffs)
    with pytest.raises(FamilyMismatch):
        y_f(sample_rep("deg-daha", 3), 2, [Fraction(1), Fraction(1)])


def test_hamiltonians_preserve_symmetry_and_commute():
    rep = sample_rep("cyc-daha", 2, 1, seed=15)
    f = poly_from_roots(rep.params["Z"])
    h1 = hamiltonian(rep, 1, f)
    h2 = hamiltonian(rep, 2, f)
    assert h1.certify(5)
    assert h2.certify(5)
    for p in symmetric_basis(rep, 4):
        assert h1.apply(h2.apply(p)) == h2.apply(h1.apply(p))


def test_hamiltonian_symmetry_certificate_degree_five_rank_three():
    rep = sample_rep("cyc-daha", 3, 2, seed=17)
    f = poly_from_roots(rep.params["Z"])
    h = hamiltonian(rep, 1, f)
    assert h.certify(5)


def test_dual_hamiltonian_is_macdonald_like():
    # r = 1, dual side at l = 1 equals the displayed level-one Hamiltonian
    rep = sample_rep("l1", 2, 1, seed=16)
    f = poly_from_roots(rep.params["Z"])
    h = hamiltonian(rep, 1, f, dual=True)
    for p in symmetric_basis(rep, 4):
        assert h.apply(p) == M1_l1(rep, p)
