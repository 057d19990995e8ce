"""The term-arithmetic kernel: exact sparse dict arithmetic, no zero stored."""

from fractions import Fraction

from hypothesis import assume, given
from hypothesis import strategies as st

from cycdaha import kernel

NVARS = 3

exponents = st.tuples(*[st.integers(-3, 3)] * NVARS)
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=4)
terms = st.dictionaries(exponents, coefficients.filter(bool), max_size=6)


def test_zero_coefficients_never_stored():
    a = {(0, 0): Fraction(1)}
    b = {(0, 0): Fraction(-1)}
    assert kernel.terms_add(a, b) == {}
    assert kernel.terms_mul(a, {}) == {}
    assert kernel.terms_scale(a, Fraction(0)) == {}


def test_mul_matches_convolution():
    a = {(1, 0): Fraction(2), (0, 1): Fraction(1)}
    b = {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    # (2x + y)(x - y) = 2x^2 - xy - y^2
    assert kernel.terms_mul(a, b) == {
        (2, 0): Fraction(2),
        (1, 1): Fraction(-1),
        (0, 2): Fraction(-1),
    }


@given(terms, terms, coefficients)
def test_addmul_is_add_of_scale(a, b, c):
    assert kernel.terms_addmul(a, b, c) == kernel.terms_add(a, kernel.terms_scale(b, c))


@given(terms, terms, coefficients)
def test_iaddmul_accumulates_in_place(a, b, c):
    out = dict(a)
    assert kernel.terms_iaddmul(out, b, c) is out
    assert out == kernel.terms_add(a, kernel.terms_scale(b, c))
    assert all(out.values())


@given(terms)
def test_sub_self_is_empty(a):
    assert kernel.terms_sub(a, a) == {}


@given(terms, terms, coefficients, exponents, st.permutations(range(NVARS)),
       st.integers(0, NVARS - 1))
def test_no_output_stores_a_zero(a, b, c, delta, perm, i):
    outs = [
        kernel.terms_add(a, b),
        kernel.terms_sub(a, b),
        kernel.terms_addmul(a, b, c),
        kernel.terms_neg(a),
        kernel.terms_scale(a, c),
        kernel.terms_mul(a, b),
        kernel.terms_shift(a, delta),
        kernel.terms_permute(a, tuple(perm)),
    ]
    if c:
        outs.append(kernel.terms_scale_var(a, i, c, lambda k: c ** k))
    for out in outs:
        assert all(out.values())


@given(terms, st.integers(0, NVARS - 1), coefficients)
def test_scale_var_keeps_keys(a, i, c):
    assume(c or all(e[i] >= 0 for e in a))  # 0 ** -k raises in the caller's cache
    out = kernel.terms_scale_var(a, i, c, lambda k: c ** k)
    assert set(out) == {e for e in a if a[e] * c ** e[i]}
    assert all(v == a[e] * c ** e[i] for e, v in out.items())
