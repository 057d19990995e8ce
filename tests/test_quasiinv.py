from fractions import Fraction

import pytest

from cycdaha.laurent import LaurentPoly
from cycdaha.macdonald import apply_macdonald_operator
from cycdaha.quasiinv import (
    CYC,
    PLAIN_Q,
    TWISTED,
    TWISTED_Q,
    ParameterDegenerate,
    QuasiSpec,
    check_member,
    expected_twisted_series,
    flatness_report,
    freeness_numerator,
    graded_basis,
    graded_basis_with_symmetry,
    kostka,
)
from cycdaha.tableaux import invariants_series, series_mul


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
    scale = f.coefficient((1, 0)) / target.coefficient((1, 0))
    assert scale and f == target * scale
    assert check_member(spec, target)
    # the opposite sign on the X_1 coefficient violates the conditions
    assert not check_member(spec, (a - 1) * X(1) + (a + 1) * X(2))


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
    r = flatness_report(
        TWISTED_Q, 2, 1, 6, 2, a=(Fraction(1, 2), Fraction(0))
    )
    assert r["all_match"]


def test_plain_q_flatness_small():
    r = flatness_report(PLAIN_Q, 2, 1, 6, 2)
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
    assert kostka((2, 1), 5) == [0, 1, 1, 0, 0, 0]


def test_macdonald_preserves_q_quasiinvariants():
    q = Fraction(3, 2)
    m = 1
    spec = QuasiSpec(PLAIN_Q, 2, m, q=q)
    gb = graded_basis(spec, 6)
    for polys in gb.degrees:
        for F in polys:
            img = apply_macdonald_operator(2, q, q ** (-m), F)
            assert check_member(spec, img)


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
        "83a53562f9bc707593268f861aabdad6603a87fa9a5ae9c754cb29526eacf951"
    )
