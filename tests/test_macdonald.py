import itertools
from fractions import Fraction
from random import Random

import pytest

from cycdaha.algebra import sample_rep
from cycdaha.laurent import LaurentPoly, NotDivisible
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
from cycdaha.quasiinv import PLAIN_Q, QuasiSpec, graded_basis
from cycdaha.scalars import QQ, CycloNumber, ParameterDegenerate, RatFuncField


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


def _cofactor(N, j, dom):
    """Vandermonde of all variables except X_j, with the sign such that
    prod_{i != j} (X_i - X_j) * cofactor * sign = full Vandermonde."""
    out = LaurentPoly.one(N, dom)
    for a in range(1, N + 1):
        for b in range(a + 1, N + 1):
            if j in (a, b):
                continue
            out = out * (LaurentPoly.variable(N, a, dom) - LaurentPoly.variable(N, b, dom))
    return out


def _reference_macdonald(N, q, t, p, dom, subtract_one=False):
    """M p assembled summand by summand: A_j = prod_{i != j} (X_i - t X_j)
    over prod_{i != j} (X_i - X_j), brought over the Vandermonde through
    the cofactor of X_j and the sign (-1)^(N-j), then divided by each
    X_a - X_b in turn."""
    q, t = dom.coerce(q), dom.coerce(t)
    total = LaurentPoly.zero(N, dom)
    for j in range(1, N + 1):
        numer = LaurentPoly.one(N, dom)
        Xj = LaurentPoly.variable(N, j, dom)
        for i in range(1, N + 1):
            if i != j:
                numer = numer * (LaurentPoly.variable(N, i, dom) - Xj * t)
        shifted = p.scale_var(j, q)
        if subtract_one:
            shifted = (shifted - p).shift(tuple(-1 if v == j - 1 else 0 for v in range(N)))
        total = total + numer * _cofactor(N, j, dom) * shifted * (-1) ** (N - j)
    for a, b in itertools.combinations(range(1, N + 1), 2):
        total = total.divide_by_difference(a, b)
    return total


def _image_or_not_divisible(apply, *args, **kwargs):
    try:
        return apply(*args, **kwargs).to_json()
    except NotDivisible:
        return "NotDivisible"


def _random_inputs(N, dom, rng):
    """Two symmetrized and two plain random Laurent polynomials in N
    variables over dom."""
    out = []
    for symmetric in (True, True, False, False):
        p = LaurentPoly(N, dom, {
            tuple(rng.randint(-2, 2) for _ in range(N)): dom.coerce(
                Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
            for _ in range(3)})
        if symmetric:
            p = sum((p.permute(dict(zip(range(1, N + 1), w)))
                     for w in itertools.permutations(range(1, N + 1))),
                    LaurentPoly.zero(N, dom))
        out.append(p)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_macdonald_operator_matches_the_cofactor_assembly(N):
    """apply_macdonald_operator, built from one Vandermonde V as
    V^-1 sum_j V(X_j -> t X_j) shift_j, against the summand-by-summand
    cofactor assembly: on random Laurent polynomials, symmetric and not,
    with and without subtract_one, over QQ at q = 3/2, t = 2/5 and over
    Q(t) at q = 5/3, and on non-symmetric plain-q quasiinvariants at
    t = q^-1, the images have the same to_json or both raise NotDivisible."""
    rng = Random(40 + N)
    Qt = RatFuncField("t")
    cases = [(QQ, Fraction(3, 2), Fraction(2, 5), p) for p in _random_inputs(N, QQ, rng)]
    cases += [(Qt, Fraction(5, 3), Qt.gen, p) for p in _random_inputs(N, Qt, rng)]
    if N in (2, 3):
        q = Fraction(3, 2)
        spec = QuasiSpec(PLAIN_Q, N, 1, q=q)
        cases += [(QQ, q, 1 / q, G) for polys in graded_basis(spec, 4).degrees
                  for G in polys if not G.is_symmetric()]
    outcomes = set()
    for dom, q, t, p in cases:
        for subtract_one in (False, True):
            image = _image_or_not_divisible(
                apply_macdonald_operator, N, q, t, p, dom, subtract_one=subtract_one)
            assert image == _image_or_not_divisible(
                _reference_macdonald, N, q, t, p, dom, subtract_one), (N, dom, p)
            outcomes.add(image == "NotDivisible")
    # both outcomes occur once there is a Vandermonde to divide by
    assert outcomes == ({False, True} if N > 1 else {False})


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
