import functools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycdaha.laurent import LaurentPoly, NotDivisible, coefficient_rows
from cycdaha.linalg import nullspace
from cycdaha.macdonald import apply_macdonald_operator
from cycdaha.quasiinv import (
    CYC,
    PLAIN_Q,
    TWISTED,
    TWISTED_Q,
    ParameterDegenerate,
    QuasiSpec,
    _value_tables,
    check_member,
    conditions_matrix,
    degree_monomials,
    expected_twisted_series,
    flatness_report,
    freeness_numerator,
    graded_basis,
    graded_basis_with_symmetry,
)
from cycdaha.scalars import QQ, CycloField
from cycdaha.tableaux import invariants_series, kostka_polynomial, series_mul
from test_laurent import fraction_long_division


def X(i, N=2):
    return LaurentPoly.variable(N, i)


def test_no_conditions_at_m_zero():
    spec = QuasiSpec(PLAIN_Q, 2, 0, q=Fraction(5, 3))
    assert graded_basis(spec, 4).dims() == [1, 2, 3, 4, 5]


def test_degree_zero_constants_always_quasiinvariant():
    spec = QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(5, 3))
    assert graded_basis(spec, 0).dims() == [1]


def test_plain_q_degree_three_contains_product_and_symmetric_cubics():
    q = Fraction(5, 3)
    spec = QuasiSpec(PLAIN_Q, 2, 1, q=q)
    P = (X(1) - X(2)) * (X(1) - q * X(2)) * (X(1) - (1 / q) * X(2))
    assert check_member(spec, P)
    for sym in (
        (X(1) + X(2)) ** 3,
        X(1) * X(2) * (X(1) + X(2)),
    ):
        assert check_member(spec, sym)
    # the degree-3 component is spanned by the two symmetric cubics + P
    assert graded_basis(spec, 3).dims()[3] == 3


def test_membership_ideal_spot_check():
    # anything divisible by the full product of shifted hyperplanes is a member
    q = Fraction(7, 5)
    m = 1
    spec = QuasiSpec(PLAIN_Q, 2, m, q=q)
    prod = LaurentPoly.one(2)
    for p_exp in range(-m, m + 1):
        prod = prod * (X(1) - (q ** p_exp) * X(2))
    for extra in (LaurentPoly.one(2), X(1), X(1) * X(2) + X(2) ** 2):
        assert check_member(spec, prod * extra)


def test_non_member_is_rejected_by_the_exponent_box():
    """F - s12 F of this F is not a multiple of the three shifted
    hyperplanes, so it fails to vanish on one of them.  It spans exponents
    0..4 in each variable and their product 0..3, so a quotient would lie in
    the box 0..1; long division by the product (test_laurent's
    fraction_long_division) leaves that box."""
    spec = QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2))
    F = X(1) ** 4 * X(2) + X(2) ** 3 * Fraction(1, 2)
    assert check_member(spec, F) is False


def test_plain_q_m_two_rejects_an_m_one_member():
    """Control for the outer hyperplanes |p| = m: the product over |p| <= 1
    is anti-invariant, so it lies in the m = 1 space, but it does not vanish
    at X_1 = q^{+-2} X_2 and check_member must reject it at m = 2; the product
    over |p| <= 2 is accepted."""
    q = Fraction(3, 2)

    def product(m):
        out = LaurentPoly.one(2)
        for p in range(-m, m + 1):
            out = out * (X(1) - X(2) * q ** p)
        return out

    assert check_member(QuasiSpec(PLAIN_Q, 2, 1, q=q), product(1))
    assert not check_member(QuasiSpec(PLAIN_Q, 2, 2, q=q), product(1))
    assert check_member(QuasiSpec(PLAIN_Q, 2, 2, q=q), product(2))


def test_q_collision_detected():
    for variant in (PLAIN_Q, CYC):
        with pytest.raises(ParameterDegenerate):
            QuasiSpec(variant, 2, 1, q=Fraction(-1))


def test_twisted_weight_count_must_match_rank():
    for variant in (TWISTED, TWISTED_Q):
        for a in ((Fraction(1),), (Fraction(1), Fraction(0), Fraction(0))):
            with pytest.raises(ValueError):
                QuasiSpec(variant, 2, 1, a=a)


def test_spec_rejects_spaces_it_cannot_mean():
    weights = (Fraction(1), Fraction(0))
    for variant, m, kwargs in (
        ("unknown", 1, {}),
        (PLAIN_Q, -1, {}),
        (CYC, 1, {"l": 0}),
        (CYC, 1, {"l": 2, "mlist": (1, 5, 7)}),
        (PLAIN_Q, 1, {"l": 2}),
        (TWISTED, 1, {"l": 2, "a": weights}),
        (PLAIN_Q, 1, {"a": weights}),
        (PLAIN_Q, 1, {"q": Fraction(0)}),
        (TWISTED, 1, {"a": weights, "q": Fraction(5, 3)}),
    ):
        with pytest.raises(ValueError):
            QuasiSpec(variant, 2, m, **kwargs)
    with pytest.raises(ValueError):
        QuasiSpec(PLAIN_Q, 0, 1)


def test_twisted_closed_form_series():
    spec = QuasiSpec(TWISTED, 2, 2, a=(Fraction(1), Fraction(0)))
    dims = graded_basis(spec, 10).dims()
    assert dims == series_mul([0, 1, 0, 0, 1], invariants_series(2, 10), 10)
    for m in (1, 2):
        spec = QuasiSpec(TWISTED, 2, m, a=(Fraction(1, 2), Fraction(0)))
        dims = graded_basis(spec, 8).dims()
        expect = [0] * 9
        for d in range(m, 9):
            expect[d] = d - m + 1
        assert dims == expect


def test_twisted_degree_one_generator():
    a = Fraction(1, 3)
    spec = QuasiSpec(TWISTED, 2, 1, a=(a, Fraction(0)))
    (f,) = graded_basis(spec, 1).degrees[1]
    target = (1 - a) * X(1) + (1 + a) * X(2)
    scale = f.terms[(1, 0)] / target.terms[(1, 0)]
    assert scale and f == target * scale
    assert check_member(spec, target)
    # the opposite sign on the X_1 coefficient violates the conditions
    assert not check_member(spec, (a - 1) * X(1) + (a + 1) * X(2))


def test_twisted_q_at_q_one_rechecks_the_twisted_conditions():
    """At q = 1 twisted-q is the twisted space: check_member reads the same
    weighted expansions for both, so both variants reject X_1."""
    a = (Fraction(1, 2), Fraction(0))
    twisted, twisted_q = QuasiSpec(TWISTED, 2, 1, a=a), QuasiSpec(TWISTED_Q, 2, 1, a=a)
    assert not check_member(twisted, X(1))
    assert not check_member(twisted_q, X(1))
    (f,) = graded_basis(twisted_q, 1).degrees[1]
    assert check_member(twisted, f) and check_member(twisted_q, f)


def test_counterexample_series_and_numerator():
    spec = QuasiSpec(TWISTED, 3, 2, a=(Fraction(1), Fraction(0), Fraction(0)))
    dims = graded_basis(spec, 12).dims()
    assert dims == [0, 0, 1, 1, 2, 3, 5, 7, 10, 15, 20, 26, 33]
    numer, neg = freeness_numerator(dims, 3)
    assert numer == [0, 0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 0, -1]
    assert neg


def test_freeness_numerator_formal_products():
    # series t^m/(1-t)^2 against prod (1-t^i) for N = 2: numerator stays
    # nonnegative
    for m in (0, 1, 3):
        dims = [0] * m + [d + 1 for d in range(12 - m + 1)]
        numer, neg = freeness_numerator(dims, 2)
        assert not neg
        # t^m (1-t)(1-t^2)/(1-t)^2 = t^m (1+t)(1-t) = t^m(1 - t^2)... the
        # formal product: check against direct convolution
        poly = [1, -1, -1, 1]  # (1-t)(1-t^2)
        direct = [0] * len(numer)
        for k in range(len(numer)):
            direct[k] = sum(
                poly[d] * dims[k - d] for d in range(min(k + 1, 4))
            )
        assert numer == direct
    # (1 + t^(2m+1))/((1-t)(1-t^2)): numerator recovered exactly
    for m in (1, 2):
        num_poly = [0] * (2 * m + 2)
        num_poly[0] = 1
        num_poly[2 * m + 1] = 1
        dims = series_mul(num_poly, invariants_series(2, 12), 12)
        numer, neg = freeness_numerator(dims, 2)
        assert not neg
        assert numer == (num_poly + [0] * 13)[:13]


def test_cyclotomic_flatness_and_projector_conditions():
    spec = QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=Fraction(7, 5))
    gb = graded_basis(spec, 6)
    # projector condition: x_i-exponents congruent to 1 mod 2 must be >= 3
    for polys in gb.degrees:
        for F in polys:
            for e in F.terms:
                for v in e:
                    if v % 2 == 1:
                        assert v >= 3
    spec1 = QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=1)
    assert gb.dims() == graded_basis(spec1, 6).dims()


def test_cyclotomic_flatness_all_small_weights():
    # every (m, m_1) in {0,1}^2 at N = 2, l = 2: generic q matches q = 1
    for m in (0, 1):
        for m1 in (0, 1):
            deformed = QuasiSpec(CYC, 2, m, l=2, mlist=(m1,), q=Fraction(7, 5))
            classical = QuasiSpec(CYC, 2, m, l=2, mlist=(m1,), q=1)
            assert (
                graded_basis(deformed, 6).dims()
                == graded_basis(classical, 6).dims()
            ), (m, m1)


def test_cyclotomic_level_three_over_cyclo_field():
    # l = 3 runs over Q(zeta_3); the deformed and classical dimension
    # sequences agree degree by degree
    deformed = QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=Fraction(5, 3))
    classical = QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=1)
    ddims = graded_basis(deformed, 6).dims()
    cdims = graded_basis(classical, 6).dims()
    assert ddims == cdims
    from cycdaha.scalars import CycloField

    assert isinstance(deformed.dom, CycloField)


def test_twisted_q_flatness_small():
    r = flatness_report(QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(0))), 6, 2)
    assert r["all_match"]


def test_plain_q_flatness_small():
    r = flatness_report(QuasiSpec(PLAIN_Q, 2, 1), 6, 2)
    assert r["all_match"]


def test_plain_q_flatness_at_n_four():
    # the q = 1 dimensions are the closed form
    # sum_lambda f_lambda t^(m(N(N-1)/2 - c(lambda))) K_lambda(t) / prod_i (1 - t^i)
    # of Felder-Veselov and Berest-Etingof-Ginzburg at N = 4, m = 1
    r = flatness_report(QuasiSpec(PLAIN_Q, 4, 1), 12, 1)
    assert r["reference_dims"] == [1, 1, 2, 3, 5, 9, 15, 23, 35, 50, 71, 98, 132]
    assert r["all_match"]


def test_expected_twisted_series_examples():
    # N=2, l=2: t^m/(1-t)^2
    for m in (1, 2):
        s = expected_twisted_series((1, 1), m, ((1,), (1,)), 8)
        expect = [0] * 9
        for d in range(m, 9):
            expect[d] = d - m + 1
        assert s == expect
    # N=3, l=3: t^{3m}/(1-t)^3
    s = expected_twisted_series((1, 1, 1), 1, ((1,), (1,), (1,)), 8)
    inv3 = [(d + 1) * (d + 2) // 2 for d in range(9)]
    expect = [0, 0, 0] + inv3[:6]
    assert s == expect
    # N=3, l=2 split numerators t^{2m} and t^{4m+1}
    hp = expected_twisted_series((1, 2), 1, ((1,), (2,)), 10)
    hm = expected_twisted_series((1, 2), 1, ((1,), (1, 1)), 10)
    assert hp[2] == 1 and all(x == 0 for x in hp[:2])
    assert hm[5] == 1 and all(x == 0 for x in hm[:5])


def test_symmetry_split_matches_expected():
    spec = QuasiSpec(TWISTED, 3, 1, a=(Fraction(1, 2), Fraction(0), Fraction(0)))
    hp = graded_basis_with_symmetry(spec, 8, 2, 3, +1)
    hm = graded_basis_with_symmetry(spec, 8, 2, 3, -1)
    assert hp == expected_twisted_series((1, 2), 1, ((1,), (2,)), 8)
    assert hm == expected_twisted_series((1, 2), 1, ((1,), (1, 1)), 8)


def test_kostka_padding():
    assert kostka_polynomial((2, 1)) == [0, 1, 1]


def _macdonald_images_inside(N, maxdeg, t_power):
    """How many of the plain-q (q = 3/2, m = 1) basis elements of degree <=
    maxdeg the Macdonald operator at t = q^t_power keeps in the space, and
    how many there are.  12 of the 22 at (N, maxdeg) = (2, 6) and (3, 5)
    are not symmetric, so N = 3 divides a numerator that is not
    antisymmetric by each X_a - X_b in turn."""
    q, m = Fraction(3, 2), 1
    spec = QuasiSpec(PLAIN_Q, N, m, q=q)
    basis = [F for polys in graded_basis(spec, maxdeg).degrees for F in polys]
    inside = sum(check_member(spec, apply_macdonald_operator(N, q, q ** t_power, F))
                 for F in basis)
    return inside, len(basis)


def test_macdonald_preserves_q_quasiinvariants():
    assert _macdonald_images_inside(2, 6, -1) == (22, 22)
    assert _macdonald_images_inside(3, 5, -1) == (22, 22)


def test_macdonald_at_t_equal_q_to_the_m_leaves_q_quasiinvariants():
    """Control: at t = q^m instead of q^-m, 12 of the 22 images escape."""
    assert _macdonald_images_inside(2, 6, 1) == (10, 22)
    assert _macdonald_images_inside(3, 5, 1) == (10, 22)


# Every variant, both branches of q, an empty condition set (m = 0), the
# cyclotomic projector rows over QQ and over Q(zeta_3), and fractional weights.
FINGERPRINT_SPECS = [
    (QuasiSpec(PLAIN_Q, 2, 2, q=1), 7),
    (QuasiSpec(PLAIN_Q, 3, 1, q=1), 4),
    (QuasiSpec(PLAIN_Q, 2, 2, q=Fraction(5, 3)), 7),
    (QuasiSpec(PLAIN_Q, 3, 1, q=Fraction(3, 2)), 4),
    (QuasiSpec(PLAIN_Q, 2, 0, q=Fraction(5, 3)), 3),
    (QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=1), 6),
    (QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=Fraction(7, 5)), 6),
    (QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=1), 5),
    (QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=Fraction(5, 3)), 5),
    (QuasiSpec(TWISTED, 2, 2, a=(Fraction(1, 3), Fraction(0))), 7),
    (QuasiSpec(TWISTED, 3, 1, a=(Fraction(1, 2), Fraction(1, 3), Fraction(0))), 4),
    (QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(0)), q=Fraction(3, 2)), 6),
    (QuasiSpec(TWISTED_Q, 3, 1, a=(Fraction(1, 2), Fraction(0), Fraction(0)),
               q=Fraction(5, 3)), 4),
]


def test_graded_basis_fingerprint():
    """SHA-256 over every basis polynomial (terms sorted by exponent) and the
    swap-eigenspace dimensions of each fingerprint spec."""
    import hashlib
    import json

    digest = hashlib.sha256()
    for spec, maxdeg in FINGERPRINT_SPECS:
        degrees = [
            [[[list(e), spec.dom.scalar_to_json(c)] for e, c in sorted(F.terms.items())]
             for F in polys]
            for polys in graded_basis(spec, maxdeg).degrees
        ]
        split = [graded_basis_with_symmetry(spec, maxdeg, 1, 2, sign) for sign in (1, -1)]
        digest.update(json.dumps([degrees, split]).encode())
    assert digest.hexdigest() == (
        "87c1a50cb3adb4d4a0cc0fd323995d5463c2dcb5b7b6d7d6535c5f17f71c9352"
    )


def test_swap_split_adds_up_to_the_dimensions():
    """When a_1 = a_2 the swap of X_1, X_2 preserves the space, so its two
    eigenspaces fill each degree, also a degree with no condition rows."""
    for spec, maxdeg in FINGERPRINT_SPECS:
        if spec.a[0] != spec.a[1]:
            continue
        plus, minus = (graded_basis_with_symmetry(spec, maxdeg, 1, 2, sign) for sign in (1, -1))
        dims = graded_basis(spec, maxdeg).dims()
        assert [p + m for p, m in zip(plus, minus)] == dims, spec


TAG_SPECS = [
    QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2)),
    QuasiSpec(PLAIN_Q, 3, 1, q=1),
    QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=Fraction(7, 5)),
    QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=1),
    QuasiSpec(CYC, 2, 1, l=3, mlist=(0, 1), q=Fraction(-5, 3)),
    QuasiSpec(TWISTED, 2, 1, a=(Fraction(1, 3), Fraction(0))),
    QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(0)), q=Fraction(3, 2)),
]


@functools.lru_cache(maxsize=None)
def _tag_basis(k):
    return graded_basis(TAG_SPECS[k], 4).degrees


# one block: a degree, coefficients of a combination of that degree's basis,
# and maybe a monomial of that degree added (most often a non-member)
_coef = st.integers(-2, 2)
_blocks = st.lists(st.tuples(st.integers(0, 4), st.lists(_coef, max_size=5),
                             st.none() | st.tuples(st.integers(0, 14), _coef.filter(bool))),
                   min_size=1, max_size=4)


@settings(deadline=None)
@given(st.integers(0, len(TAG_SPECS) - 1), _blocks)
def test_check_member_on_a_tagged_block_is_the_conjunction(k, blocks):
    """F = sum_k F_k X_{N+1}^k passes check_member exactly when every F_k
    does, for every variant, with members and non-members mixed."""
    spec, degrees = TAG_SPECS[k], _tag_basis(k)
    N, dom = spec.N, spec.dom
    polys = []
    for d, coefs, extra in blocks:
        F = LaurentPoly.zero(N, dom)
        for c, B in zip(coefs, degrees[d]):
            F = F + B * c
        if extra is not None:
            monomials = degree_monomials(N, d)
            F = F + LaurentPoly.monomial(N, monomials[extra[0] % len(monomials)], extra[1], dom)
        polys.append(F)
    tagged = LaurentPoly(N + 1, dom, {e + (t,): c for t, F in enumerate(polys)
                                      for e, c in F.terms.items()})
    assert check_member(spec, tagged) == all(check_member(spec, F) for F in polys)


@pytest.mark.parametrize("k", range(3))
def test_graded_basis_rejects_one_corrupted_kernel_vector(monkeypatch, k):
    """Adding X^c to one of the three degree-3 kernel vectors of plain-q
    (N = 2, m = 1, q = 3/2) must make graded_basis fail at degree 3: at odd
    degree no monomial is symmetric, so X^c is not a member and neither is
    the corrupted vector."""
    from cycdaha import quasiinv

    spec = QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2))
    assert graded_basis(spec, 5).dims()[3] == 3
    real = quasiinv.nullspace

    def corrupted(rows, ncols, *args):
        vecs = real(rows, ncols, *args)
        if ncols == len(degree_monomials(2, 3)):
            nums, den = vecs[k]
            c = min(set(range(ncols)) - nums.keys())
            vecs[k] = ({**nums, c: den}, den)
        return vecs

    monkeypatch.setattr(quasiinv, "nullspace", corrupted)
    with pytest.raises(AssertionError, match="fails raw conditions at degree 3$"):
        graded_basis(spec, 5)


def test_check_member_propagates_unexpected_errors(monkeypatch):
    """Only a nonzero substitution means "not a member": any error in the
    hyperplane check is a fault and must surface, not read as a verdict."""
    def broken(self, rules):
        raise RuntimeError("broken substitution")

    monkeypatch.setattr(LaurentPoly, "substitute", broken)
    spec = QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2))
    with pytest.raises(RuntimeError):
        check_member(spec, X(1))


_small = st.integers(-3, 3)
_scales = st.lists(st.tuples(_small, _small, st.integers(1, 3)), min_size=1, max_size=3)
_cofactor = st.dictionaries(st.tuples(st.integers(-1, 2), st.integers(-1, 2)),
                            _small.filter(bool), min_size=1, max_size=3)


@settings(deadline=None)
@given(st.sampled_from([QQ, CycloField(3)]), _scales, _cofactor,
       st.lists(st.sampled_from([True, True, False]), min_size=3, max_size=3),
       st.none() | st.tuples(st.integers(-1, 3), st.integers(-1, 3)),
       st.sampled_from([(1, 2), (2, 1)]))
def test_vanishing_on_hyperplanes_is_divisibility_by_their_product(
        dom, scales, cofactor, chosen, extra, ij):
    """For distinct nonzero c_p, g vanishes at every X_i = c_p X_j exactly
    when long division by prod_p (X_i - c_p X_j) succeeds (check_member's
    q != 1 test against test_laurent's division reference).  g is h times the factors
    of a random subset, with or without one added monomial; over Q(zeta_3)
    the c_p are a/d + b zeta, over QQ a/d."""
    i, j = ij
    cs = []
    for a, b, d in scales:
        c = dom.coerce(Fraction(a, d))
        if dom is not QQ:
            c = c + dom.zeta * b
        if c and all(c != x for x in cs):
            cs.append(c)
    assume(cs)
    xi, xj = LaurentPoly.variable(2, i, dom), LaurentPoly.variable(2, j, dom)
    g = LaurentPoly(2, dom, cofactor)
    product = LaurentPoly.one(2, dom)
    for c, keep in zip(cs, chosen):
        product = product * (xi - xj * c)
        if keep:
            g = g * (xi - xj * c)
    if extra is not None:
        g = g + LaurentPoly.monomial(2, extra, 1, dom)
    vanishes = all(not g.substitute({i: (c, j)}) for c in cs)
    try:
        fraction_long_division(g, product)
        divides = True
    except NotDivisible:
        divides = False
    assert vanishes == divides


def _zeta_power(dom, r):
    return dom.zeta ** r if isinstance(dom, CycloField) else dom.coerce((-1) ** r)


def _reference_rows(spec, d, swap_weights=False):
    """The condition rows of conditions_matrix built from the polynomials
    themselves: reflect each basis monomial with substitute, then expand
    along the hyperplane (q = 1) or substitute onto it (q != 1).
    swap_weights gives F the weight a_j and g_r F the weight a_i."""
    basis = degree_monomials(spec.N, d)
    dom, l, K, M, q = spec.dom, spec.l, 2 * spec.m, spec.common_denominator, spec.q
    monomials = [LaurentPoly.monomial(spec.N, e, 1, dom) for e in basis]
    rows = []
    for i in range(1, spec.N + 1):
        for j in range(i + 1, spec.N + 1):
            ai, aj = spec.a[i - 1], spec.a[j - 1]
            if swap_weights:
                ai, aj = aj, ai
            for r in range(l):
                zr = _zeta_power(dom, r)
                reflect = {i: (zr, j), j: (_zeta_power(dom, -r % l), i)}
                pairs = [(F, F.substitute(reflect)) for F in monomials]
                if q == 1:
                    series = []
                    for F, g in pairs:
                        sf = F.scale_var(i, zr).series_on_hyperplane(j, i, K, ai)
                        sg = g.scale_var(i, zr).series_on_hyperplane(j, i, K, aj)
                        series.append([x - y for x, y in zip(sf, sg)])
                    for order in range(K + 1):
                        rows += coefficient_rows([s[order] for s in series])
                    continue
                for p in range(-spec.m, spec.m + 1):
                    if p:
                        wi = dom.coerce(q ** int(p * ai * M))
                        wj = dom.coerce(q ** int(p * aj * M))
                        at = {i: (zr * dom.coerce(q ** (p * M)), j)}
                        rows += coefficient_rows(
                            [(F * wi - g * wj).substitute(at) for F, g in pairs])
    return rows, _projector_rows(spec, basis), basis


def _projector_rows(spec, basis):
    """One unit row per monomial whose x_i-exponent is r mod l but below
    r + m_r l, 0 < r < l."""
    l, dom = spec.l, spec.dom
    mlist = tuple(spec.mlist) + (0,) * l
    rows = []
    for i in range(spec.N):
        for r in range(1, l):
            for k, e in enumerate(basis):
                if e[i] % l == r and e[i] < r + mlist[r - 1] * l:
                    rows.append([dom.one if c == k else dom.zero for c in range(len(basis))])
    return rows


ROW_SPECS = [
    QuasiSpec(PLAIN_Q, 2, 2, q=1),
    QuasiSpec(PLAIN_Q, 3, 1, q=Fraction(-2, 3)),
    QuasiSpec(PLAIN_Q, 3, 2, q=Fraction(5, 3)),
    QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=Fraction(-3, 2)),
    QuasiSpec(CYC, 3, 1, l=2, mlist=(0,), q=1),
    QuasiSpec(CYC, 2, 1, l=3, mlist=(1, 0), q=1),
    QuasiSpec(CYC, 2, 1, l=3, mlist=(0, 1), q=Fraction(-5, 3)),
    QuasiSpec(CYC, 2, 1, l=4, mlist=(1, 0, 1), q=1),
    QuasiSpec(CYC, 3, 1, l=4, q=Fraction(3, 2)),
    QuasiSpec(TWISTED, 2, 2, a=(Fraction(1, 3), Fraction(-1, 2))),
    QuasiSpec(TWISTED, 3, 1, a=(Fraction(1, 2), Fraction(2, 3), Fraction(0))),
    QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(-1, 3)), q=Fraction(-3, 2)),
    QuasiSpec(TWISTED_Q, 3, 1, a=(Fraction(1, 2), Fraction(0), Fraction(1, 3)),
              q=Fraction(5, 4)),
    QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(0)), q=1),
]


def test_closed_form_rows_have_the_reference_nullspace():
    """conditions_matrix reads its rows off the exponents; its null space at
    every degree up to 5 is the one of the rows built by substitution and
    series expansion, for every variant, over QQ and Q(zeta_3), Q(zeta_4).
    Over QQ its condition rows are ints; the projector rows come last."""
    for spec in ROW_SPECS:
        for d in range(6):
            rows, basis = conditions_matrix(spec, d)
            ref, projector, ref_basis = _reference_rows(spec, d)
            assert basis == ref_basis
            assert rows[len(rows) - len(projector):] == projector
            if not isinstance(spec.dom, CycloField):
                assert all(type(x) is int for row in rows[:len(rows) - len(projector)]
                           for x in row)
            assert nullspace(rows, len(basis)) == nullspace(ref + projector, len(basis)), (spec, d)


def test_swapped_weights_change_the_reference_nullspace():
    """Control: the reference with a_i and a_j exchanged differs from
    conditions_matrix on some spec, so the comparison above can fail."""
    differs = []
    for spec in ROW_SPECS:
        for d in range(6):
            ref, projector, basis = _reference_rows(spec, d, swap_weights=True)
            if nullspace(ref + projector, len(basis)) != nullspace(
                    conditions_matrix(spec, d)[0], len(basis)):
                differs.append(spec)
    assert differs and all(spec.variant in (TWISTED, TWISTED_Q) for spec in differs)


def test_check_member_agrees_with_the_reference_rows():
    """check_member against the reference rows of every ROW_SPECS space at
    degrees <= 4: random combinations of the reference null-space vectors
    pass, and such a combination plus one monomial passes exactly when the
    reference rows accept it (its column is zero).  This reaches cyc at
    l = 3, 4 over Q(zeta) with q != 1 and twisted-q with two unequal nonzero
    weights, which no other membership test does."""
    from random import Random

    rng = Random(31)
    verdicts = set()
    for spec in ROW_SPECS:
        N, dom = spec.N, spec.dom
        for d in range(5):
            ref, projector, basis = _reference_rows(spec, d)
            rows = ref + projector
            vectors = [LaurentPoly(N, dom, {basis[c]: dom.coerce(n) for c, n in nums.items()})
                       for nums, _ in nullspace(rows, len(basis))]
            for _ in range(2):
                F = LaurentPoly.zero(N, dom)
                for v in vectors:
                    F = F + v * rng.randint(-3, 3)
                assert check_member(spec, F), (spec, d)
                for c, e in enumerate(basis):
                    accepted = not any(row[c] for row in rows)
                    member = check_member(spec, F + LaurentPoly.monomial(N, e, 1, dom))
                    assert member == accepted, (spec, d, e)
                    verdicts.add(member)
    assert verdicts == {True, False}


def test_flatness_report_needs_a_draw_and_the_q_one_space():
    """No draw would be a pass that checked nothing; a reference away from
    q = 1 or a variant without q is not the protocol."""
    spec = QuasiSpec(PLAIN_Q, 2, 1)
    for seeds in (0, -1):
        with pytest.raises(ValueError, match="^seeds must be at least 1"):
            flatness_report(spec, 4, seeds)
    with pytest.raises(ValueError, match="^q must be 1"):
        flatness_report(QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2)), 4, 1)
    with pytest.raises(ValueError, match="q-deformable"):
        flatness_report(QuasiSpec(TWISTED, 2, 1, a=(Fraction(1, 2), Fraction(0))), 4, 1)
    assert flatness_report(spec, 4, 1)["runs"]


def test_check_member_substitutes_one_hyperplane_of_each_sign_pair(monkeypatch):
    """g_r maps x_i = zeta^r q^(pM) x_j onto the hyperplane of -p, and
    X^a F - g_r(X^a F) changes sign under it, so check_member substitutes
    for 0 < p <= m only: on the non-symmetric member
    prod_{|p| <= 2} (X_1 - q^p X_2) of the plain-q space at N = 2, m = 2,
    q = 3/2, that is 2 one-rule substitutions, not 4."""
    q = Fraction(3, 2)
    spec = QuasiSpec(PLAIN_Q, 2, 2, q=q)
    F = LaurentPoly.one(2)
    for p in range(-2, 3):
        F = F * (X(1) - X(2) * q ** p)
    assert F != F.swap(1, 2)
    calls = []
    substitute = LaurentPoly.substitute

    def counting(self, rules):
        if len(rules) == 1:
            calls.append(rules)
        return substitute(self, rules)

    monkeypatch.setattr(LaurentPoly, "substitute", counting)
    assert check_member(spec, F)
    assert len(calls) == 2


@pytest.mark.parametrize("spec", [
    QuasiSpec(PLAIN_Q, 2, 1, q=Fraction(3, 2)),
    QuasiSpec(PLAIN_Q, 3, 3, q=Fraction(5, 3)),
    QuasiSpec(CYC, 2, 2, l=3, mlist=(1, 0), q=Fraction(-5, 3)),
    QuasiSpec(TWISTED_Q, 2, 2, a=(Fraction(1, 2), Fraction(-1, 3)), q=Fraction(3, 2)),
])
def test_value_tables_give_one_block_per_positive_p(spec):
    """At q != 1 the rows of a pair come in m blocks, one per 0 < p <= m
    (the block of -p repeats that of p up to row scalars); at q = 1 in
    2m + 1, one per order of u."""
    for i in range(1, spec.N + 1):
        for j in range(i + 1, spec.N + 1):
            assert len(_value_tables(spec, i, j, 3)) == spec.m
            at_one = replace(spec, q=1)
            assert len(_value_tables(at_one, i, j, 3)) == 2 * spec.m + 1
