import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycdaha import scalars
from cycdaha.scalars import (
    CycloField,
    CycloNumber,
    QQ,
    RatFunc1,
    RatFuncField,
    SamplingExhausted,
    binomial_fraction,
    cyclotomic_polynomial,
    field_of,
    sample_generic,
)


# -- the reference: dense univariate polynomials over Fraction, low-degree
# first with no trailing zeros; [] is the zero polynomial.  The library's
# int core (scalars.poly_*) is checked against it.

def poly_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_sub(a, b):
    return poly_add(a, [-x for x in b])


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = poly_trim(Fraction(x) for x in a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b):
        k = len(a) - len(b)
        c = a[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a = poly_trim(a[:-1])
    return poly_trim(q), a


def poly_gcd(a, b):
    """The monic gcd."""
    a, b = poly_trim(map(Fraction, a)), poly_trim(map(Fraction, b))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return [x / a[-1] for x in a] if a else a


def test_cyclo_normalize_examples():
    # zeta_2 = -1
    assert CycloNumber(2, [3, 5]).coeffs == (Fraction(-2),)
    # zeta_4^2 = -1
    assert CycloNumber(4, [0, 0, 1, 0]).coeffs == (Fraction(-1), Fraction(0))
    # 1 + zeta_3 + zeta_3^2 = 0
    assert not CycloNumber(3, [1, 1, 1])
    # there is no zeta_0: the order must be at least 1
    for l in (0, -2):
        with pytest.raises(ValueError):
            CycloNumber(l, [1, 2])
        with pytest.raises(ValueError):
            CycloField(l)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(3) == [1, 1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    # x^l - 1 is the product of Phi_d over the divisors d of l
    for l in range(1, 31):
        prod = [1]
        for d in range(1, l + 1):
            if l % d == 0:
                phi = cyclotomic_polynomial(d)
                assert all(type(c) is int for c in phi) and phi[-1] == 1
                prod = poly_mul(prod, phi)
        assert prod == [-1] + [0] * (l - 1) + [1]


def test_minimal_polynomial_of_zeta_vanishes():
    for l in (2, 3, 4, 5, 6, 8):
        z = CycloNumber.zeta(l)
        phi = cyclotomic_polynomial(l)
        acc = CycloNumber.from_rational(l, 0)
        for c in reversed(phi):
            acc = acc * z + c
        assert not acc
        assert z ** l == 1


def test_low_order_cyclotomics_match_rationals():
    # l = 1: zeta = 1; l = 2: zeta = -1
    for l, zval in ((1, Fraction(1)), (2, Fraction(-1))):
        z = CycloNumber.zeta(l)
        a = (z * 3 + 2) * (z - Fraction(1, 2))
        expected = (zval * 3 + 2) * (zval - Fraction(1, 2))
        assert a.rational_part() == expected


def _assert_field_axioms(dom, a, b, c):
    """Associativity, commutativity, distributivity and inverses in dom;
    equal results must also be equal canonical forms, so they hash alike."""
    zero, one = dom.zero, dom.one

    def same(x, y):
        assert x == y and hash(x) == hash(y)

    same((a + b) + c, a + (b + c))
    same((a * b) * c, a * (b * c))
    same(a * (b + c), a * b + a * c)
    same((a - b) * c, a * c - b * c)
    same(a + b, b + a)
    same(a * b, b * a)
    same(a + zero, a)
    same(a * one, a)
    same(a + (-a), zero)
    same(a - b, -(b - a))
    if a:
        same(a * (one / a), one)
        same((b / a) * a, b)
        same(a ** -2 * a ** 2, one)


def _axiom_trials(dom, sampler, trials=1000, seed=3):
    rng = Random(seed)
    for _ in range(trials):
        _assert_field_axioms(dom, sampler(rng), sampler(rng), sampler(rng))


def test_field_axioms_rationals():
    _axiom_trials(
        QQ, lambda rng: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
    )


def test_field_axioms_cyclotomic():
    dom = CycloField(3)

    def sampler(rng):
        return CycloNumber(
            3, [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(2)]
        )

    _axiom_trials(dom, sampler, trials=300)


# -- Q(zeta_l) against a Fraction reference: poly_mul, then the remainder
# of poly_divmod by the cyclotomic polynomial

def _reduced(l, coeffs):
    """coeffs mod Phi_l in Fraction arithmetic, padded to phi entries."""
    phi = cyclotomic_polynomial(l)
    _, r = poly_divmod(coeffs, phi)
    return tuple(r) + (Fraction(0),) * (len(phi) - 1 - len(r))


def _reduced_power(l, coeffs, n):
    out = _reduced(l, [1])
    for _ in range(n):
        out = _reduced(l, poly_mul(out, coeffs))
    return out


def assert_cyclo(x, l, ref):
    """x is canonical in Q(zeta_l) and its coefficients are ref."""
    assert x.l == l and len(x.nums) == len(cyclotomic_polynomial(l)) - 1
    assert all(type(n) is int for n in x.nums) and type(x.den) is int
    assert x.den > 0 and math.gcd(x.den, *x.nums) == 1
    assert x.coeffs == ref and all(type(c) is Fraction for c in x.coeffs)
    y = CycloNumber(l, list(ref))
    assert x == y and hash(x) == hash(y)
    assert CycloNumber.from_json(x.to_json()) == x


small = st.fractions(min_value=-5, max_value=5, max_denominator=6)


@given(st.integers(1, 12), st.lists(small, max_size=10), st.lists(small, max_size=10),
       st.one_of(small, st.integers(-4, 4)), st.integers(-3, 3), st.integers(-10, 10))
def test_cyclotomic_arithmetic_matches_the_fraction_reference(l, ca, cb, c, n, k):
    a, b = CycloNumber(l, ca), CycloNumber(l, cb)
    ra, rb = _reduced(l, ca), _reduced(l, cb)
    one = _reduced(l, [1])
    assert_cyclo(a, l, ra)
    assert_cyclo(a + b, l, _reduced(l, poly_add(ra, rb)))
    assert_cyclo(a - b, l, _reduced(l, poly_sub(ra, rb)))
    assert_cyclo(-a, l, _reduced(l, [-x for x in ra]))
    assert_cyclo(a * b, l, _reduced(l, poly_mul(ra, rb)))
    assert_cyclo(a * c, l, _reduced(l, [x * c for x in ra]))
    assert_cyclo(c + a, l, _reduced(l, poly_add([c], ra)))
    assert_cyclo(c - a, l, _reduced(l, poly_sub([c], ra)))
    z, rz = CycloNumber.zeta(l, k), _reduced(l, [0] * (k % l) + [1])
    assert_cyclo(z, l, rz)
    assert_cyclo(z.inverse(), l, _reduced(l, [0] * (-k % l) + [1]))
    assert _reduced(l, poly_mul(z.inverse().coeffs, rz)) == one
    assert (CycloNumber(l, [c]) == c) and (CycloNumber(l, [c]) != c + 1)
    assert (a == b) == (ra == rb)
    if b:
        # (a / b) * b == a in the reference
        assert _reduced(l, poly_mul((a / b).coeffs, rb)) == ra
        assert_cyclo(a / b, l, (a / b).coeffs)
    if a:
        assert _reduced(l, poly_mul((c / a).coeffs, ra)) == _reduced(l, [c])
        assert _reduced(l, poly_mul(a.inverse().coeffs, ra)) == one
    if n >= 0:
        assert_cyclo(a ** n, l, _reduced_power(l, ra, n))
    elif a:
        p = a ** n
        assert_cyclo(p, l, p.coeffs)
        assert _reduced(l, poly_mul(p.coeffs, _reduced_power(l, ra, -n))) == one


def test_mixed_fields_raise_type_error():
    """Two cyclotomic orders, or two parameters of Q(t), are two fields:
    arithmetic across them raises TypeError, as Domain.coerce and field_of
    do."""
    t, k = RatFunc1.variable("t"), RatFunc1.variable("k")
    z3, z4 = CycloNumber.zeta(3), CycloNumber.zeta(4)
    for a, b in ((z3, z4), (t, k)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        CycloField(3).coerce(z4)
    with pytest.raises(TypeError):
        RatFuncField("t").coerce(k)


def test_field_axioms_ratfunc():
    dom = RatFuncField("t")

    def sampler(rng):
        num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 3))]
        den = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, 2))] + [
            Fraction(1)
        ]
        return RatFunc1("t", num, den)

    _axiom_trials(dom, sampler, trials=150)


@given(small, small, small)
def test_field_axioms_rationals_property(a, b, c):
    _assert_field_axioms(QQ, a, b, c)
    for x in (a, a + b, a * b, a - c, a / b if b else c):
        n, d = QQ.split(x)
        assert type(n) is int and type(d) is int and d > 0 and math.gcd(n, d) == 1
        assert QQ.join(n, d) == x and QQ.coerce(x) is x


def _assert_ratfunc_canonical(x):
    """Numerator and denominator are trimmed int tuples, coprime in Q[t],
    with no common integer factor and a positive leading coefficient of
    the denominator; zero is () / (1,)."""
    assert x.num == tuple(poly_trim(x.num)) and x.den == tuple(poly_trim(x.den))
    assert all(type(v) is int for v in x.num + x.den)
    assert x.den and x.den[-1] > 0
    if x.num:
        assert len(poly_gcd(list(x.num), list(x.den))) == 1
        assert math.gcd(*x.num, *x.den) == 1
    else:
        assert x.den == (1,)


ratfuncs = st.builds(
    lambda num, den: RatFunc1("t", num, den),
    st.lists(small, max_size=3), st.lists(small, min_size=1, max_size=3).filter(any))


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms_ratfunc_property(a, b, c):
    _assert_field_axioms(RatFuncField("t"), a, b, c)
    for x in (a, a + b, a * b, a - c, a / b if b else c, -a):
        _assert_ratfunc_canonical(x)
        assert RatFunc1.from_json(x.to_json()) == x


def _value(x, point):
    """x at t = point, from its stored int coefficients."""
    num = sum(c * point ** i for i, c in enumerate(x.num))
    return Fraction(num, 1) / sum(c * point ** i for i, c in enumerate(x.den))


points = [Fraction(p) for p in (-3, -1, 0, 1, 2, Fraction(1, 2), Fraction(-5, 3))]


@given(ratfuncs, ratfuncs)
def test_ratfunc_arithmetic_matches_evaluation(a, b):
    """At every point where no denominator in sight vanishes, the value of
    a sum, difference, product and quotient is that of its operands: an
    oracle that does not go through the gcd."""
    results = [(a + b, operator.add), (a - b, operator.sub), (a * b, operator.mul)]
    if b:
        results.append((a / b, operator.truediv))
    for p in points:
        dens = [a.den, b.den, b.num] + [x.den for x, _ in results]
        if any(sum(c * p ** i for i, c in enumerate(d)) == 0 for d in dens):
            continue
        for x, op in results:
            assert _value(x, p) == op(_value(a, p), _value(b, p))


@given(ratfuncs, st.one_of(small, st.integers(-4, 4)), st.integers(-3, 3))
def test_ratfunc_rational_left_operands_and_powers_match_evaluation(a, c, n):
    """c + a, c - a, c * a and c / a with an int or Fraction c on the left,
    which reach the reflected operators, and a ** n for -3 <= n <= 3, against
    the same evaluation oracle."""
    results = [(c + a, lambda v: c + v), (c - a, lambda v: c - v), (c * a, lambda v: c * v)]
    if a:
        results += [(c / a, lambda v: c / v), (a ** n, lambda v: v ** n)]
    elif n >= 0:
        results.append((a ** n, lambda v: v ** n))
    dens = [a.den] + ([a.num] if a else []) + [x.den for x, _ in results]
    for p in points:
        if any(sum(k * p ** i for i, k in enumerate(d)) == 0 for d in dens):
            continue
        for x, f in results:
            assert _value(x, p) == f(_value(a, p))


int_polys = st.lists(st.integers(-6, 6), max_size=5).map(poly_trim)


@given(int_polys, int_polys, int_polys)
def test_int_polynomial_core_matches_the_fraction_reference(a, b, g):
    """scalars.poly_* on int lists against the Fraction reference: sum and
    product, the primitive part, the pseudo-remainder (a nonzero rational
    multiple of the remainder), the primitive gcd and exact division."""
    assert scalars.poly_add(a, b) == poly_add(a, b)
    assert scalars.poly_mul(a, b) == poly_mul(a, b)
    if a:
        p = scalars.poly_primitive(a)
        assert p[-1] > 0 and math.gcd(*p) == 1
        assert [Fraction(x, p[-1]) for x in p] == [Fraction(x, a[-1]) for x in a]
    if b:
        r, ref = scalars.poly_prem(a, b), poly_divmod(a, b)[1]
        assert len(r) == len(ref)
        assert all(x * ref[-1] == y * r[-1] for x, y in zip(r, ref))
    if a or b:
        d = scalars.poly_gcd(a, b)
        assert d[-1] > 0 and math.gcd(*d) == 1
        assert [Fraction(x, d[-1]) for x in d] == poly_gcd(a, b)
    if g:
        g = scalars.poly_primitive(g)
        assert scalars.poly_exact_div(scalars.poly_mul(a, g), g) == a
        if len(g) > 1 and a:
            with pytest.raises(ArithmeticError):
                scalars.poly_exact_div(scalars.poly_add(scalars.poly_mul(a, g), [1]), g)


def test_ratfunc_simplify_examples():
    t = RatFunc1.variable("t")
    # (1 - t^3)/(1 - t) = 1 + t + t^2
    r = RatFunc1("t", [1, 0, 0, -1], [1, -1])
    assert r == 1 + t + t * t
    # (t^2 - 1)/(t - 1) = t + 1
    assert RatFunc1("t", [-1, 0, 1], [-1, 1]) == t + 1
    # (1 - t^4)/((1-t)(1-t^2)): the gcd is 1 - t^2, leaving (1 + t^2)/(1 - t);
    # cross-checked by long division of both numerator and denominator by
    # the gcd
    den = [1, -1, -1, 1]  # (1-t)(1-t^2)
    r = RatFunc1("t", [1, 0, 0, 0, -1], den)
    gcd = [Fraction(1), Fraction(0), Fraction(-1)]  # 1 - t^2
    qn, rn = poly_divmod([Fraction(1), 0, 0, 0, Fraction(-1)], gcd)
    qd, rd = poly_divmod([Fraction(c) for c in den], gcd)
    assert not rn and not rd
    assert r == RatFunc1("t", qn, qd)
    assert r == (1 + t ** 2) / (1 - t)


def test_ratfunc_zero_denominator_raises():
    with pytest.raises(ZeroDivisionError):
        RatFunc1("t", [1], [0])


def test_sample_generic_deterministic_and_valid():
    cons = [("nonzero", "q"), ("not_root_of_unity", "q", 24)]
    v1 = sample_generic(["q"], cons, seed=7)
    v2 = sample_generic(["q"], cons, seed=7)
    assert v1 == v2
    q = v1["q"]
    assert q != 0
    p = Fraction(1)
    for _ in range(24):
        p *= q
        assert p != 1


def test_sample_generic_difference_constraint():
    v = sample_generic(
        ["z1", "z2"], [("diff_not_integer", "z1", "z2")], seed=1
    )
    assert (v["z1"] - v["z2"]).denominator != 1


def test_sample_generic_ratio_constraint_excludes_13_values():
    q = Fraction(5, 3)
    v = sample_generic(
        ["Z1", "Z2"],
        [("nonzero", "Z1"), ("nonzero", "Z2"),
         ("ratio_not_q_power", "Z1", "Z2", q, 6)],
        seed=3,
    )
    ratio = v["Z1"] / v["Z2"]
    excluded = [q ** p for p in range(-6, 7)]
    assert len(excluded) == 13
    for bad in excluded:
        assert ratio != bad


def test_sample_generic_exhaustion():
    # q nonzero and q equal to an integer power of itself beyond the window
    # is impossible: ratio of a value with itself is q^0 = 1 = (q)^0
    with pytest.raises(SamplingExhausted):
        sample_generic(
            ["x"],
            [("ratio_not_q_power", "x", "x", Fraction(2), 0)],
            seed=0,
            max_attempts=50,
        )


def test_samplers_share_one_exhaustion_type():
    from cycdaha import bow, quiver

    with pytest.raises(SamplingExhausted):
        quiver.sample_chain(2, 1, (Fraction(2), Fraction(3)), seed=0, max_attempts=0)
    with pytest.raises(SamplingExhausted):
        bow.sample_bow((2, 2, 2), Fraction(2), Fraction(3), Fraction(5, 2), seed=0,
                       max_attempts=0)
    with pytest.raises(SamplingExhausted):
        bow.sample_cobalanced_segment(2, seed=0, max_attempts=0)


def test_generalized_binomials():
    a = Fraction(1, 2)
    assert binomial_fraction(a, 0) == 1
    assert binomial_fraction(a, 1) == a
    assert binomial_fraction(a, 2) == Fraction(-1, 8)
    assert binomial_fraction(-2, 2) == 3  # C(-2,2) = 3
    assert binomial_fraction(3, 5) == 0


def test_binomial_cache_matches_the_formula():
    def formula(a, r):
        out = Fraction(1)
        for i in range(r):
            out *= Fraction(a) - i
        return out / math.factorial(r)

    binomial_fraction.cache_clear()
    for a in (-3, 0, 2, 7, Fraction(2), Fraction(1, 2), Fraction(-5, 3)):
        for r in range(-1, 7):
            expect = formula(a, r) if r >= 0 else 0
            assert binomial_fraction(a, r) == expect
            assert binomial_fraction(a, r) == expect  # the memoized value
            assert type(binomial_fraction(a, r)) is Fraction
    assert binomial_fraction.cache_info().hits > 0


def test_split_and_join_invert_each_other():
    for c in (Fraction(-6, 4), Fraction(0), Fraction(5), 7):
        n, d = QQ.split(c)
        assert d > 0 and math.gcd(n, d) == 1 and QQ.join(n, d) == c
    # fields other than QQ keep their elements as numerators over 1
    for dom, c in ((CycloField(3), CycloNumber.zeta(3)),
                   (RatFuncField("t"), RatFunc1.variable("t"))):
        assert dom.split(c) == (c, 1) and dom.join(c, 1) == c


def test_serialization_round_trips():
    z = CycloNumber(4, [Fraction(1, 2), Fraction(-3)])
    assert CycloNumber.from_json(z.to_json()) == z
    r = RatFunc1("t", [1, 2], [1, 0, 1])
    assert RatFunc1.from_json(r.to_json()) == r


def test_field_of_follows_the_values():
    t = RatFuncField("t").gen
    assert field_of() is QQ
    assert field_of(1, Fraction(2, 3), "5/7") is QQ
    assert field_of(Fraction(2), t, t + 1).name == "QQ(t)"
    assert field_of(3, CycloNumber.zeta(3)).name == "QQ(zeta_3)"
    for mixed in ((t, RatFuncField("k").gen), (CycloNumber.zeta(3), CycloNumber.zeta(4)),
                  (t, CycloNumber.zeta(3)), (CycloNumber.zeta(3), t)):
        with pytest.raises(TypeError):
            field_of(*mixed)
