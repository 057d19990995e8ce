import itertools
import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cycdaha import kernel as K
from cycdaha.laurent import LaurentPoly, NotDivisible, coefficient_rows
from cycdaha.laurent import NonInvertibleScale
from cycdaha.scalars import (
    QQ,
    CycloField,
    CycloNumber,
    RatFuncField,
    binomial_fraction,
    format_rational,
)


def X(i, N=2):
    return LaurentPoly.variable(N, i)


def random_poly(rng, N=2, terms=5, span=3):
    out = {}
    for _ in range(terms):
        e = tuple(rng.randint(-span, span) for _ in range(N))
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if c:
            out[e] = c
    return LaurentPoly(N, QQ, out)


def derivative(p, i):
    """Reference: the formal partial derivative of p with respect to X_i
    (1-based), term by term over the field coefficients."""
    out = {}
    for e, c in p.terms.items():
        if e[i - 1]:
            f = list(e)
            f[i - 1] -= 1
            out[tuple(f)] = c * e[i - 1]
    return LaurentPoly(p.N, p.dom, out)


def combination(N, dom, pairs):
    """Reference: the sum of c*p over the (c, p) in pairs, c in dom, through
    LaurentPoly.linear_sum with each c split in dom."""
    split, coerce = dom.split, dom.coerce
    return LaurentPoly.linear_sum(N, dom, [(*split(coerce(c)), p) for c, p in pairs])


def divided_difference(p, i, j, c=1):
    """Reference: (p - g p)/(X_i - c X_j), where g sends X_i -> c X_j and
    X_j -> X_i/c (for c = 1, the swap of X_i and X_j), with no division.

    g fixes the hyperplane X_i = c X_j, and a monomial with exponents
    a = e_i, b = e_j has the signed geometric sum
    sign(a - b) * sum_t c^(t-b) X_i^(a+b-1-t) X_j^t over
    min(a, b) <= t < max(a, b) as its quotient (the Demazure / BGG
    operator when c = 1)."""
    dom = p.dom
    c = dom.coerce(c)
    out = {}
    for e, v in p.terms.items():
        a, b = e[i - 1], e[j - 1]
        if a < b:
            v = -v
        f = list(e)
        for t in range(min(a, b), max(a, b)):
            f[i - 1] = a + b - 1 - t
            f[j - 1] = t
            key = tuple(f)
            w = c ** (t - b) if t >= b else (dom.one / c) ** (b - t)
            out[key] = out.get(key, dom.zero) + v * w
    return LaurentPoly(p.N, dom, out)


def fraction_long_division(p, d):
    """Reference: p / d by long division over the field coefficients, the
    glex-leading remainder term first, for d with at least two terms.  A
    quotient term outside the exponent box or below the trail bound, a
    step past the term budget, or a failed re-multiplication check raises
    NotDivisible."""
    if not p:
        return p
    num, dvs = dict(p.terms), dict(d.terms)
    sp = tuple(min(0, *col) for col in zip(*num))
    sd = tuple(min(0, *col) for col in zip(*dvs))
    num = K.terms_shift(num, tuple(-x for x in sp))
    dvs = K.terms_shift(dvs, tuple(-x for x in sd))
    dvs_terms = sorted(dvs.items(), key=lambda t: _glex(t[0]), reverse=True)
    (lead_e, lead_c), rest = dvs_terms[0], dvs_terms[1:]
    lo = [min(a) - min(b) for a, b in zip(zip(*num), zip(*dvs))]
    hi = [max(a) - max(b) for a, b in zip(zip(*num), zip(*dvs))]
    bound = _glex(tuple(x - y for x, y in zip(min(num, key=_glex), min(dvs, key=_glex))))
    cap = 10000 + 16 * len(num) * len(dvs)
    quot, cur = {}, dict(num)
    for steps in itertools.count(1):
        if not cur:
            break
        if steps > cap:
            raise NotDivisible("no quotient within the term budget")
        e = max(cur, key=_glex)
        ue = tuple(x - y for x, y in zip(e, lead_e))
        if any(u < a or u > b for u, a, b in zip(ue, lo, hi)):
            raise NotDivisible("quotient term outside the exponent box")
        if _glex(ue) < bound:
            raise NotDivisible("leading term falls below the trail bound")
        uc = cur.pop(e) / lead_c
        quot[ue] = uc
        K.terms_iaddmul(cur, K.terms_shift(dict(rest), ue), -uc)
    quot = K.terms_shift(quot, tuple(x - y for x, y in zip(sp, sd)))
    if K.terms_mul(quot, dict(d.terms)) != dict(p.terms):
        raise NotDivisible("re-multiplication check failed")
    return LaurentPoly(p.N, p.dom, quot)


def _glex(e):
    return (sum(e), e)


def test_ring_axioms_randomized():
    rng = Random(11)
    for _ in range(200):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_exact_divide_examples():
    """Exact division by X_1 - X_2 (divide_by_difference), and by X_2 - X_1."""
    assert (X(2) - X(1)).divide_by_difference(1, 2) == LaurentPoly.const(2, -1)
    assert (X(2) - X(1)).divide_by_difference(2, 1) == LaurentPoly.one(2)
    assert (X(1) ** 2 - X(2) ** 2).divide_by_difference(1, 2) == X(1) + X(2)
    # ((1 - s_12)(X1^2 X2)) / (X1 - X2) = X1 X2
    p = X(1) ** 2 * X(2) - X(1) * X(2) ** 2
    q = p.divide_by_difference(1, 2)
    assert q == X(1) * X(2)
    assert q * (X(1) - X(2)) == p
    assert not LaurentPoly.zero(2).divide_by_difference(1, 2)


def test_exact_divide_failure():
    with pytest.raises(NotDivisible):
        (X(1) + 1).divide_by_difference(1, 2)
    with pytest.raises(ValueError):
        X(1).divide_by_difference(2, 2)


def test_substitute_examples():
    q = Fraction(7, 5)
    p = X(1) * X(2)
    assert p.substitute({1: (q, 1)}) == p * q
    assert (X(1) - X(2)).substitute({1: (q, 2)}) == (q - 1) * X(2)
    # omega with N=2: f(X1,X2) -> f(qX2, X1)
    p = X(1) ** 2 + X(2)
    img = p.substitute({1: (q, 2), 2: (1, 1)})
    assert img == q ** 2 * X(2) ** 2 + X(1)


def test_substitute_composes():
    rng = Random(3)
    a, b = Fraction(2, 3), Fraction(-5, 4)
    for _ in range(50):
        p = random_poly(rng)
        assert p.scale_var(1, a).scale_var(1, b) == p.scale_var(1, a * b)


def test_substitute_zero_scale_with_negative_exponent():
    p = X(1) ** -1
    with pytest.raises(NonInvertibleScale):
        p.scale_var(1, 0)
    with pytest.raises(NonInvertibleScale):
        p.substitute({1: (0, 2)})


def test_symmetrize_and_is_symmetric():
    assert (X(1) * X(2)).is_symmetric()
    assert not X(1).is_symmetric()
    # N = 3 orbit sum over S_3
    import itertools

    N = 3
    p = LaurentPoly.monomial(N, (2, 1, 0))
    total = LaurentPoly.zero(N)
    for perm in itertools.permutations((1, 2, 3)):
        total = total + p.permute(list(perm))
    assert not p.is_symmetric()
    assert total.is_symmetric()
    assert len(total.terms) == 6


def test_series_on_hyperplane_examples():
    N = 2
    p = X(1) - X(2)
    s = p.series_on_hyperplane(1, 2, 2)
    assert not s[0]
    assert s[1] == -X(1)
    assert not s[2]
    p2 = (X(1) - X(2)) ** 2
    s2 = p2.series_on_hyperplane(1, 2, 3)
    assert [bool(c) for c in s2] == [False, False, True, False]
    assert s2[2] == X(1) ** 2
    p3 = X(2) ** 3
    s3 = p3.series_on_hyperplane(1, 2, 2)
    assert s3[0] == X(1) ** 3
    assert s3[1] == 3 * X(1) ** 3
    assert s3[2] == 3 * X(1) ** 3


def test_series_constant_term_is_substitution():
    rng = Random(9)
    for _ in range(40):
        p = random_poly(rng, span=2)
        s = p.series_on_hyperplane(1, 2, 1)
        assert s[0] == p.substitute({2: (1, 1)})


def test_weighted_series_of_a_constant_is_the_binomial_series():
    # integer exponent: plain binomials; negative: alternating; fractional
    one = LaurentPoly.one(2)
    assert one.series_on_hyperplane(1, 2, 3, 2) == [1, 2, 1, 0]
    assert one.series_on_hyperplane(1, 2, 3, -1) == [1, -1, 1, -1]
    half = one.series_on_hyperplane(1, 2, 2, Fraction(1, 2))
    assert half == [1, Fraction(1, 2), Fraction(-1, 8)]


def test_negative_monomial_power():
    p = X(1) * 2
    assert p ** -2 == LaurentPoly.monomial(2, (-2, 0), Fraction(1, 4))
    with pytest.raises(ValueError):
        (X(1) + X(2)) ** -1


def test_json_round_trip_and_canonical_order():
    p = X(1) ** 2 + X(2) * 3 - 1
    data = p.to_json()
    exps = [tuple(t["e"]) for t in data["terms"]]
    assert exps == sorted(exps, key=lambda e: (sum(e), e), reverse=True)
    assert LaurentPoly.from_json(data) == p


def test_coefficient_rows_over_qq_are_int_multiples_of_the_coefficients():
    rng = Random(5)
    polys = [random_poly(rng) for _ in range(4)]
    rows = coefficient_rows(polys)
    # one row per monomial of the joint support, in first-seen order
    support = list(dict.fromkeys(e for p in polys for e in p.terms))
    ref = [[p.terms.get(e, Fraction(0)) for p in polys] for e in support]
    assert all(type(x) is int for r in rows for x in r)
    lcm = math.lcm(*[p.den for p in polys])
    assert lcm > 1 and rows == [[c * lcm for c in r] for r in ref]
    assert coefficient_rows([]) == []


def test_coefficient_rows_over_cyclotomics_are_field_elements():
    dom = CycloField(3)
    z = dom.zeta
    a = LaurentPoly(2, dom, {(1, 0): z, (0, 1): dom.one})
    b = LaurentPoly(2, dom, {(0, 1): z ** 2, (2, 0): dom.coerce(Fraction(1, 2))})
    rows = coefficient_rows([a, b])
    assert rows == [[z, dom.zero], [dom.one, z ** 2], [dom.zero, dom.coerce(Fraction(1, 2))]]
    assert all(isinstance(x, CycloNumber) for r in rows for x in r)


def test_derivative():
    p = X(1) ** 3 * X(2) + X(1) ** -1
    d = derivative(p, 1)
    assert d == 3 * X(1) ** 2 * X(2) - X(1) ** -2


def test_divided_difference_is_the_exact_quotient():
    """The reference divided_difference, (p - g p)/(X_i - c X_j) with
    g: X_i -> c X_j, X_j -> X_i/c in closed form, against long division,
    over QQ and over Q(zeta_3); at c = 1 against divide_by_difference too."""
    rng = Random(3)
    for _ in range(60):
        p = random_poly(rng, N=3, terms=4)
        for i, j in ((1, 2), (3, 1)):
            g = p - p.swap(i, j)
            quot = fraction_long_division(g, X(i, 3) - X(j, 3))
            assert divided_difference(p, i, j) == quot == g.divide_by_difference(i, j)
            c = Fraction(2, 3)
            gp = p.scale_var(j, 1 / c).scale_var(i, c).swap(i, j)
            quot = fraction_long_division(p - gp, X(i, 3) - X(j, 3) * c)
            assert divided_difference(p, i, j, c) == quot
    dom = CycloField(3)
    for _ in range(20):
        p = LaurentPoly(2, dom, random_poly(rng, terms=3).terms)
        for m in range(3):
            c = dom.zeta ** m
            gp = p.scale_var(2, 1 / c).scale_var(1, c).swap(1, 2)
            x1, x2 = LaurentPoly.variable(2, 1, dom), LaurentPoly.variable(2, 2, dom)
            assert divided_difference(p, 1, 2, c) == fraction_long_division(p - gp, x1 - x2 * c)


# -- fraction-free storage: every result is canonical and agrees with plain
# Fraction arithmetic on the same inputs (the kernel on Fraction dicts)

exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
fractions = st.fractions(min_value=-6, max_value=6, max_denominator=6)
field_terms = st.dictionaries(exponents, fractions.filter(bool), max_size=5)


def assert_agrees(p, ref):
    """p is canonical and equals the Fraction-valued term dict ref in its
    terms, ==, hash and to_json."""
    assert p.den > 0 and math.gcd(p.den, *p.nums.values()) == 1
    assert all(type(n) is int and n for n in p.nums.values())
    assert dict(p.terms) == ref and all(type(c) is Fraction for c in p.terms.values())
    q = LaurentPoly(2, QQ, ref)
    assert p == q and hash(p) == hash(q)
    assert p.to_json() == {"N": 2, "terms": [
        {"e": list(e), "c": format_rational(ref[e])}
        for e in sorted(ref, key=_glex, reverse=True)]}


@given(field_terms, field_terms, fractions, fractions)
def test_fraction_free_results_agree_with_fractions(fa, fb, c, d):
    a, b = LaurentPoly(2, QQ, fa), LaurentPoly(2, QQ, fb)
    assert_agrees(a, fa)
    assert_agrees(a + b, K.terms_add(fa, fb))
    assert_agrees(a - b, K.terms_sub(fa, fb))
    assert_agrees(-a, K.terms_neg(fa))
    assert_agrees(a * b, K.terms_mul(fa, fb))
    assert_agrees(a * c, K.terms_scale(fa, c))
    assert_agrees(c + a, K.terms_add(fa, {(0, 0): c} if c else {}))
    assert_agrees(combination(2, QQ, [(c, a), (d, b)]),
                  K.terms_add(K.terms_scale(fa, c), K.terms_scale(fb, d)))
    cache = {}
    assert_agrees(a.map_linear(cache, b.shift), K.terms_mul(fa, fb))
    assert cache.keys() == fa.keys() and all(cache[e] == b.shift(e) for e in fa)
    assert_agrees(a.shift((1, -2)), K.terms_shift(fa, (1, -2)))
    assert_agrees(a.swap(1, 2), K.terms_permute(fa, (1, 0)))
    assert_agrees((a * (X(1) - X(2))).divide_by_difference(1, 2), fa)
    assert_agrees((a * (X(1) - X(2))).divide_by_difference(2, 1), K.terms_neg(fa))
    if c:
        assert_agrees(a.scale_var(2, c), {e: v * c ** e[1] for e, v in fa.items()})
    ref = {}
    for e, v in fa.items():
        K.terms_iaddmul(ref, {(e[0] + e[1], 0): v}, 1)
    assert_agrees(a.substitute({2: (1, 1)}), ref)
    for r, s in enumerate(a.series_on_hyperplane(1, 2, 2)):
        ref = {}
        for e, v in fa.items():
            K.terms_iaddmul(ref, {(e[0] + e[1], 0): v}, binomial_fraction(e[1], r))
        assert_agrees(s, ref)


@given(field_terms, st.fractions(min_value=-3, max_value=3, max_denominator=4))
def test_weighted_series_is_the_convolution_with_binomials(fa, a):
    """The weight a of series_on_hyperplane multiplies the unweighted series
    by (1+u)^a = sum_s C(a, s) u^s, truncated at the same order."""
    p = LaurentPoly(2, QQ, fa)
    order = 3
    plain = p.series_on_hyperplane(1, 2, order)
    want = []
    for r in range(order + 1):
        acc = LaurentPoly.zero(2)
        for s in range(r + 1):
            acc = acc + plain[r - s] * binomial_fraction(a, s)
        want.append(acc)
    assert p.series_on_hyperplane(1, 2, order, a) == want


def substitute_reference(p, rules):
    """Reference: p.substitute(rules) term by term over the field
    coefficients (Fractions over QQ), c^k for k < 0 as (1/c)^-k."""
    dom = p.dom
    out = {}
    for e, v in p.terms.items():
        f = list(e)
        for i in rules:
            f[i - 1] = 0
        for i, (c, j) in rules.items():
            c, k = dom.coerce(c), e[i - 1]
            v = v * (c ** k if k >= 0 else (dom.one / c) ** -k)
            if j is not None:
                f[j - 1] += k
        out[tuple(f)] = out.get(tuple(f), dom.zero) + v
    return LaurentPoly(p.N, dom, out)


SUBSTITUTE_DOMAINS = (QQ, CycloField(3), RatFuncField("t"))


def _in_field(dom, x, y):
    """x + y zeta over Q(zeta_3), x + y t over Q(t), x over QQ."""
    if isinstance(dom, CycloField):
        return dom.coerce(x) + dom.zeta * y
    if isinstance(dom, RatFuncField):
        return dom.coerce(x) + dom.gen * y
    return dom.coerce(x)


def assert_substitutes_like_the_reference(p, rules):
    got = p.substitute(rules)
    assert got == substitute_reference(p, rules)
    assert got.den > 0 and (p.dom is QQ or got.den == 1)
    field_type = {QQ: int}.get(p.dom, type(p.dom.one))
    assert all(type(n) is field_type for n in got.nums.values())
    return got


three_exponents = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2))


@given(st.sampled_from(SUBSTITUTE_DOMAINS),
       st.dictionaries(three_exponents, st.tuples(fractions, fractions), max_size=5),
       st.sampled_from(["move", "scale", "scalar", "reflect", "two"]),
       st.tuples(fractions, fractions).filter(any),
       st.tuples(fractions, fractions).filter(any))
def test_substitute_agrees_with_the_term_by_term_reference(dom, fp, kind, c1, c2):
    """substitute against the Fraction reference over QQ, Q(zeta_3) and
    Q(t), with negative exponents: one rule X_1 -> c X_3, a scaling, a pure
    scalar rule (j = None), the simultaneous two-rule reflection of
    check_member and two rules with independent scales.  The split powers
    are kept across calls, so every example after the first reads tables
    an earlier one filled; a second call must agree with the first."""
    p = LaurentPoly(3, dom, {e: _in_field(dom, *xy) for e, xy in fp.items()})
    a, b = _in_field(dom, *c1), _in_field(dom, *c2)
    assume(a and b)
    if isinstance(dom, CycloField):
        zeta = dom.zeta
        reflect = {1: (zeta, 2), 2: (zeta ** 2, 1)}
    else:
        reflect = {1: (a, 2), 2: (dom.one / a, 1)}
    rules = {"move": {1: (a, 3)}, "scale": {2: (a, 2)}, "scalar": {3: (a, None)},
             "reflect": reflect, "two": {1: (a, 2), 3: (b, 1)}}[kind]
    got = assert_substitutes_like_the_reference(p, rules)
    assert p.substitute(rules) == got


def test_substitute_by_zero_raises_only_on_a_negative_exponent():
    """c = 0 sends every term with a positive exponent in the slot to 0 and
    keeps the others; a negative exponent there raises NonInvertibleScale,
    one elsewhere does not, in every domain."""
    for dom in SUBSTITUTE_DOMAINS:
        x1, x2 = (LaurentPoly.variable(2, i, dom) for i in (1, 2))
        p = x1 ** 2 * x2 ** -1 + x2 ** -2 * 3 + x1 * x2
        for rules in ({1: (0, 2)}, {1: (0, None)}, {1: (0, 1)}):
            assert assert_substitutes_like_the_reference(p, rules) == x2 ** -2 * 3
        for rules in ({2: (0, 1)}, {2: (0, None)}, {1: (1, 2), 2: (0, 1)}):
            with pytest.raises(NonInvertibleScale):
                p.substitute(rules)


def test_equal_scales_in_two_domains_never_share_a_table():
    """2/3 in QQ, in Q(zeta_3) and in Q(t) are equal values that split
    differently (over den 3, and over den 1 in the other two fields); each
    domain's substitution keeps its own split powers, in either order."""
    c = Fraction(2, 3)
    for order in (SUBSTITUTE_DOMAINS, SUBSTITUTE_DOMAINS[::-1]):
        for dom in order + order:
            x1, x2 = (LaurentPoly.variable(2, i, dom) for i in (1, 2))
            p = x1 ** 3 * x2 + x1 ** -2 + x2 * Fraction(1, 5)
            for rules in ({1: (c, 2)}, {1: (c, None)}, {1: (c, 2), 2: (1 / c, 1)}):
                assert_substitutes_like_the_reference(p, rules)


@given(st.sampled_from(SUBSTITUTE_DOMAINS),
       st.dictionaries(three_exponents, st.tuples(fractions, fractions), max_size=5),
       st.permutations([1, 2, 3]), three_exponents, st.tuples(fractions, fractions),
       st.integers(-2, 2), st.sampled_from([0, 1, -1]))
def test_divide_by_difference_agrees_with_vanishing(dom, fp, perm, m, c, shift, sign):
    """Over QQ, Q(zeta_3) and Q(t), with negative exponents and i < j or
    i > j: (p (X_i - X_j)) / (X_i - X_j) gives back p in canonical form.
    Adding to p (X_i - X_j) a random monomial c X^m, or that and
    sign * c X^m' with m' on its line X_i^k X_j^(s-k), makes the division
    raise NotDivisible exactly when the sum does not vanish at X_i = X_j;
    a quotient it does return times X_i - X_j is the sum."""
    i, j = perm[:2]
    p = LaurentPoly(3, dom, {e: _in_field(dom, *xy) for e, xy in fp.items()})
    d = LaurentPoly.variable(3, i, dom) - LaurentPoly.variable(3, j, dom)
    got = (p * d).divide_by_difference(i, j)
    assert got == p and got.den > 0
    if dom is QQ:
        assert math.gcd(got.den, *got.nums.values()) == 1
    else:
        assert got.den == 1
    field_type = {QQ: int}.get(dom, type(dom.one))
    assert all(type(n) is field_type for n in got.nums.values())
    c = _in_field(dom, *c)
    m2 = list(m)
    m2[i - 1] += shift
    m2[j - 1] -= shift
    g = (p * d + LaurentPoly.monomial(3, m, c, dom)
         + LaurentPoly.monomial(3, m2, c * sign, dom))
    vanishes = not g.substitute({i: (1, j)})
    try:
        q = g.divide_by_difference(i, j)
    except NotDivisible:
        assert not vanishes
    else:
        assert vanishes and q * d == g
