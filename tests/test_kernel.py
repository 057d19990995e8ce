"""The term-arithmetic kernel: exact sparse dict arithmetic, no zero stored."""

from fractions import Fraction

from hypothesis import given
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
def test_iaddmul_accumulates_in_place(a, b, c):
    out = dict(a)
    assert kernel.terms_iaddmul(out, b, c) is out
    assert out == kernel.terms_add(a, kernel.terms_scale(b, c))
    assert all(out.values())


@given(terms)
def test_sub_self_is_empty(a):
    assert kernel.terms_sub(a, a) == {}


@given(terms, terms, coefficients, exponents, st.permutations(range(NVARS)))
def test_no_output_stores_a_zero(a, b, c, delta, perm):
    outs = [
        kernel.terms_add(a, b),
        kernel.terms_sub(a, b),
        kernel.terms_neg(a),
        kernel.terms_scale(a, c),
        kernel.terms_mul(a, b),
        kernel.terms_shift(a, delta),
        kernel.terms_permute(a, tuple(perm)),
    ]
    for out in outs:
        assert all(out.values())



@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), coefficients.filter(bool), max_size=5),
    st.dictionaries(st.tuples(*[st.integers(-2, 2)] * n), coefficients.filter(bool), max_size=5),
    st.permutations(range(n)))))
def test_mul_and_permute_match_term_by_term_references(args):
    """terms_mul against the convolution and terms_permute against slot-by-slot
    reindexing, for one to four variables (one variable permutes trivially)."""
    a, b, perm = args
    product = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            product[e] = product.get(e, 0) + ca * cb
    assert kernel.terms_mul(a, b) == {e: c for e, c in product.items() if c}
    assert kernel.terms_permute(a, tuple(perm)) == {
        tuple(e[p] for p in perm): c for e, c in a.items()}
