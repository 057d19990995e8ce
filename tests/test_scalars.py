import math
import operator
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

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
    poly_add,
    poly_divmod,
    poly_gcd,
    poly_mul,
    poly_sub,
    poly_trim,
    sample_generic,
)


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
    assert cyclotomic_polynomial(1) == [Fraction(-1), Fraction(1)]
    assert cyclotomic_polynomial(2) == [Fraction(1), Fraction(1)]
    assert cyclotomic_polynomial(3) == [Fraction(1), Fraction(1), Fraction(1)]
    assert cyclotomic_polynomial(4) == [Fraction(1), Fraction(0), Fraction(1)]
    assert cyclotomic_polynomial(6) == [Fraction(1), Fraction(-1), Fraction(1)]


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


@given(st.integers(1, 8), st.lists(small, max_size=10), st.lists(small, max_size=10),
       small, st.integers(-3, 3), st.integers(-10, 10))
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
    """Numerator and denominator trimmed, coprime, and the denominator
    monic; zero is 0/1."""
    assert x.num == tuple(poly_trim(x.num)) and x.den == tuple(poly_trim(x.den))
    assert all(type(v) is Fraction for v in x.num + x.den)
    assert x.den and x.den[-1] == 1
    if x.num:
        assert len(poly_gcd(list(x.num), list(x.den))) == 1
    else:
        assert x.den == (Fraction(1),)


ratfuncs = st.builds(
    lambda num, den: RatFunc1("t", num, den),
    st.lists(small, max_size=3), st.lists(small, min_size=1, max_size=3).filter(any))


@given(ratfuncs, ratfuncs, ratfuncs)
def test_field_axioms_ratfunc_property(a, b, c):
    _assert_field_axioms(RatFuncField("t"), a, b, c)
    for x in (a, a + b, a * b, a - c, a / b if b else c, -a):
        _assert_ratfunc_canonical(x)
        assert RatFunc1.from_json(x.to_json()) == x


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
        ["z1", "z2"], [("diff_not_integer", "z1", "z2", 10)], seed=1
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
