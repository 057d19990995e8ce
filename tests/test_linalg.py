from fractions import Fraction
from math import gcd, lcm
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycdaha.linalg import (
    Matrix,
    _row_echelon_field,
    algebra_closure_dim,
    matrix_rank,
    nullspace,
    rational_eigenvalues,
    row_echelon,
    span_closure,
)
from cycdaha.quasiinv import CYC, PLAIN_Q, TWISTED, QuasiSpec, conditions_matrix
from cycdaha.scalars import CycloField

entries = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def _over_pivots(echelon):
    """The integer echelon with each row divided by its pivot entry: the
    reduced row echelon form, as _row_echelon_field returns it."""
    rank, pivots, ech = echelon
    return rank, pivots, [[Fraction(x, r[p]) for x in r] for r, p in zip(ech, pivots)]


def test_rank_and_nullspace_rational():
    rows = [
        [Fraction(1), Fraction(2), Fraction(3)],
        [Fraction(2), Fraction(4), Fraction(6)],
        [Fraction(0), Fraction(1), Fraction(1)],
    ]
    assert matrix_rank(rows, 3) == 2
    basis = _dense(nullspace(rows, 3), 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


def test_nullspace_over_cyclotomic_field():
    dom = CycloField(3)
    z = dom.zeta
    rows = [[dom.one, z], [z ** 2, dom.one]]  # second row = z^2 * first
    ((nums, den),) = nullspace(rows, 2)
    assert den == 1 and all(nums.values())
    v = [nums.get(c, dom.zero) for c in range(2)]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == dom.zero


def test_nullspace_without_nonzero_rows():
    # no entry names the field: the standard basis, with the one given
    assert nullspace([], 3) == [({0: 1}, 1), ({1: 1}, 1), ({2: 1}, 1)]
    dom = CycloField(3)
    assert nullspace([[dom.zero, dom.zero]], 2, dom.one) == [({0: dom.one}, 1),
                                                             ({1: dom.one}, 1)]


def test_row_echelon_with_a_zero_first_entry():
    # the unit and the path come from the first nonzero entry
    dom = CycloField(3)
    z, o = dom.zero, dom.one
    assert row_echelon([[z, o]], 2) == (1, [1], [[z, o]])
    rank, pivots, ech = row_echelon([[z, dom.zeta], [o, o]], 2)
    assert (rank, pivots, ech) == (2, [0, 1], [[o, z], [z, o]])
    assert row_echelon([[0, Fraction(2)]], 2) == (1, [1], [[0, 1]])


def test_row_echelon_deterministic():
    rng = Random(3)
    rows = [[Fraction(rng.randint(-5, 5)) for _ in range(4)] for _ in range(6)]
    r1 = row_echelon([list(r) for r in rows], 4)
    r2 = row_echelon([list(r) for r in rows], 4)
    assert r1 == r2


@given(st.integers(1, 4).flatmap(lambda n: st.lists(
    st.lists(entries, min_size=n, max_size=n), min_size=1, max_size=4)),
    st.lists(st.integers(1, 6), min_size=4, max_size=4))
def test_fraction_free_echelon_matches_field_elimination(rows, scales):
    # the Fraction elimination is the reference; nonzero rows only, as
    # row_echelon drops zero rows before eliminating
    ncols = len(rows[0])
    ref = _row_echelon_field([r for r in rows if any(r)], ncols, Fraction(1))
    assert _over_pivots(row_echelon(rows, ncols)) == ref
    # each row scaled by a positive int and given as ints
    ints = [[int(x * lcm(*[y.denominator for y in r]) * k) for x in r]
            for r, k in zip(rows, scales)]
    assert all(type(x) is int for r in ints for x in r)
    assert _over_pivots(row_echelon(ints, ncols)) == ref


def _field_nullspace(rows, ncols):
    """The nullspace parametrization read off the Fraction elimination."""
    rows = [[Fraction(x) for x in r] for r in rows if any(r)]
    rank, pivots, ech = _row_echelon_field(rows, ncols, Fraction(1))
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for row, pc in zip(ech, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _dense(vecs, ncols):
    """nullspace's rational (nums, den) vectors as dense Fraction lists,
    after checking that each is canonical: nonzero int numerators over a
    positive den that shares no factor with them."""
    out = []
    for nums, den in vecs:
        assert den > 0 and all(type(v) is int and v for v in nums.values())
        assert gcd(den, *nums.values()) == 1
        out.append([Fraction(nums.get(c, 0), den) for c in range(ncols)])
    return out


nonzero_entries = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-4, max_value=4, max_denominator=5)
).filter(bool)


@st.composite
def wide_sparse_rows(draw):
    """About 30 columns at about 10% density, with int and Fraction
    entries, plus duplicate rows and rows that reduce to zero."""
    ncols = draw(st.integers(24, 36))
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        row = [0] * ncols
        for c in draw(st.lists(st.integers(0, ncols - 1), max_size=6)):
            row[c] = draw(nonzero_entries)
        rows.append(row)
    for _ in range(draw(st.integers(0, 4))):
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        k = draw(nonzero_entries)
        if draw(st.booleans()):
            rows.append(list(rows[i]))  # a duplicate
        else:
            rows.append([a * k - b for a, b in zip(rows[i], rows[j])])  # reduces to zero
    return rows, ncols


@settings(deadline=None)
@given(wide_sparse_rows())
def test_sparse_elimination_matches_field_elimination(case):
    rows, ncols = case
    ref = _row_echelon_field([r for r in rows if any(r)], ncols, Fraction(1))
    assert _over_pivots(row_echelon(rows, ncols)) == ref
    # the integer rows: primitive, a positive pivot, the reduced row over it
    rank, pivots, ech = row_echelon(rows, ncols)
    assert (rank, pivots) == ref[:2]
    assert all(type(x) is int for r in ech for x in r)
    for row, p, ref_row in zip(ech, pivots, ref[2]):
        assert row[p] > 0 and gcd(*row) == 1
        assert [Fraction(x, row[p]) for x in row] == ref_row
    assert _dense(nullspace(rows, ncols), ncols) == _field_nullspace(rows, ncols)


@pytest.mark.parametrize("spec, d", [
    (QuasiSpec(PLAIN_Q, 3, 1, q=Fraction(3, 2)), 6),
    (QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=Fraction(7, 5)), 7),
    (QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=1), 7),
    (QuasiSpec(TWISTED, 3, 1, a=(Fraction(1, 2), Fraction(1, 3), Fraction(0))), 5),
])
def test_condition_row_nullspace_matches_field_elimination(spec, d):
    rows, basis = conditions_matrix(spec, d)
    assert _dense(nullspace(rows, len(basis)), len(basis)) == _field_nullspace(rows, len(basis))


def test_matrix_inverse_and_det():
    m = Matrix([[1, 2], [3, 5]])
    assert m.char_poly()[0] == -1  # det(-A) = det(A) for a 2 x 2 matrix
    inv = m.inverse()
    assert m * inv == Matrix.identity(2)
    with pytest.raises(ZeroDivisionError):
        Matrix([[1, 2], [2, 4]]).inverse()


def test_char_poly_and_rational_eigenvalues():
    m = Matrix([[2, 0], [1, 3]])
    # det(xI - A) = (x-2)(x-3) = 6 - 5x + x^2
    assert m.char_poly() == [Fraction(6), Fraction(-5), Fraction(1)]
    assert sorted(rational_eigenvalues(m)) == [2, 3]
    n = Matrix([[0, 1], [1, 0]])
    assert sorted(rational_eigenvalues(n)) == [-1, 1]
    # no rational eigenvalues
    r = Matrix([[0, -1], [1, 0]])
    assert rational_eigenvalues(r) == []
    # singular: the constant coefficient of x (x - 2) (x - 1/2) vanishes
    # and 0 is an eigenvalue
    s = Matrix([[1, 2, 0], [Fraction(1, 2), 1, 0], [3, 4, Fraction(1, 2)]])
    assert s.char_poly()[0] == 0
    assert rational_eigenvalues(s) == [0, Fraction(1, 2), 2]


def test_solve_right():
    m = Matrix([[1, 0], [1, 1], [0, 1]])
    rhs = m * Matrix([[2], [3]])
    x = m.solve_right(rhs)
    assert x == Matrix([[2], [3]])
    with pytest.raises(ValueError):
        m.solve_right(Matrix([[1], [0], [1]]))


def test_left_kernel_and_stack():
    m = Matrix([[1, 2], [2, 4], [0, 1]])
    lk = m.T.kernel().T
    assert lk.m == 1
    assert (lk * m).is_zero()
    assert m.hstack(m).shape == (3, 4)
    assert m.vstack(m).shape == (6, 2)


def test_kernel_columns_and_left_kernel_shapes():
    m = Matrix([[1, 2, 3], [2, 4, 6]])
    k = m.kernel()
    assert k.shape == (3, 2) and (m * k).is_zero()
    # an injective map: no kernel columns, and a full-rank left kernel
    # through the empty transpose
    inj = Matrix([[1, 0], [0, 1], [1, 1]])
    assert inj.kernel() == Matrix.zero(2, 0)
    assert inj.T.kernel().T.shape == (1, 3)
    assert Matrix.identity(2).T.kernel().T == Matrix.zero(0, 2)


def test_entries_are_kept_exact():
    m = Matrix([[1, 2], [3, 4]])
    assert all(type(x) is int for r in (m * m * 3 + m).rows for x in r)
    half = m * Fraction(1, 2)
    assert half.rows[0] == (Fraction(1, 2), 1)
    assert all(type(x) is Fraction for r in half.rows for x in r)


def _canonical(m):
    """The storage invariant: den > 0 and gcd(den, every numerator) = 1;
    rows are the ints themselves when den = 1, else all Fractions."""
    flat = [v for r in m.nums for v in r]
    assert m.den > 0 and gcd(m.den, *flat) == 1
    assert all(type(v) is int for v in flat)
    kind = int if m.den == 1 else Fraction
    assert all(type(x) is kind for r in m.rows for x in r)
    return True


def _ref_mul(a, b, inner, ncols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Fraction(0)) for j in range(ncols)]
            for i in range(len(a))]


matrix_entries = st.one_of(st.integers(-6, 6), entries)


@st.composite
def matrix_pairs(draw):
    """Two m x n entry lists, an n x p one and a scalar."""
    m, n, p = draw(st.integers(0, 3)), draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def grid(r, c):
        return [[draw(matrix_entries) for _ in range(c)] for _ in range(r)]

    return (m, n, p), grid(m, n), grid(m, n), grid(n, p), draw(matrix_entries)


@settings(deadline=None)
@given(matrix_pairs())
def test_matrix_arithmetic_matches_fraction_reference(case):
    (m, n, p), a, b, c, k = case
    A, B, C = Matrix(a, (m, n)), Matrix(b, (m, n)), Matrix(c, (n, p))
    assert all(_canonical(x) for x in (A, B, C))
    fa = [[Fraction(x) for x in r] for r in a]
    assert [list(r) for r in A.rows] == fa
    for got, want in (
        (A + B, [[x + y for x, y in zip(r, s)] for r, s in zip(fa, b)]),
        (A - B, [[x - y for x, y in zip(r, s)] for r, s in zip(fa, b)]),
        (A * k, [[x * k for x in r] for r in fa]),
        (A * C, _ref_mul(fa, c, n, p)),
    ):
        assert _canonical(got)
        assert [list(r) for r in got.rows] == want
        assert got == Matrix(want, got.shape)
        assert got.to_json() == [[str(Fraction(x)) for x in r] for r in want]
    assert (A == B) == (fa == [[Fraction(x) for x in r] for r in b])
    assert A == Matrix(A.rows, A.shape) and A == Matrix.from_json(A.to_json(), A.shape)
    # the kernel is the nullspace parametrization of the Fraction elimination
    K = A.kernel()
    assert _canonical(K) and K.shape == (n, n - A.rank())
    assert [list(r) for r in K.T.rows] == _field_nullspace(fa, n)
    # the inverse is the right half of the Fraction elimination of [A | 1]
    if m == n:
        aug = [r + [Fraction(int(i == j)) for j in range(n)] for i, r in enumerate(fa)]
        rank, pivots, ech = _row_echelon_field(aug, 2 * n, Fraction(1))
        if pivots[:n] == list(range(n)):
            inv = A.inverse()
            assert _canonical(inv) and [list(r) for r in inv.rows] == [r[n:] for r in ech]
            assert A * inv == Matrix.identity(n)
        else:
            with pytest.raises(ZeroDivisionError):
                A.inverse()


def test_matrix_json_strings():
    # integral entries are written as ints, whatever the denominator
    m = Matrix([[3, Fraction(1, 2)], [Fraction(6, 2), -1]])
    assert (m.nums, m.den) == (((6, 1), (6, -2)), 2)
    assert m.to_json() == [["3", "1/2"], ["3", "-1"]]
    assert (m * 2).to_json() == [["6", "1"], ["6", "-2"]] and (m * 2).den == 1
    assert Matrix.from_json([["3/1", "-4/2"]], (1, 2)).to_json() == [["3", "-2"]]


def test_span_closure():
    op = Matrix([[0, 1], [0, 0]])
    v = Matrix.column([0, 1])
    closure = span_closure([v], [op])
    assert len(closure) == 2  # v and op v span everything
    w = Matrix.column([1, 0])
    assert len(span_closure([w], [op])) == 1  # invariant line


def test_algebra_closure_dim():
    # two generic matrices generate all of M_2
    a = Matrix([[1, 2], [0, 1]])
    b = Matrix([[1, 0], [3, 1]])
    assert algebra_closure_dim([a, b]) == 4
    # simultaneously diagonal matrices generate a 2-dim algebra
    d1 = Matrix([[1, 0], [0, 2]])
    d2 = Matrix([[3, 0], [0, 5]])
    assert algebra_closure_dim([d1, d2]) == 2
    # a nilpotent generator: span of 1, N, N^2 in M_3
    n = Matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    assert algebra_closure_dim([n]) == 3


def test_span_closure_of_matrices_matches_rank():
    # closing the identity under left multiplication gives every word; the
    # dimension equals the rank of the words of length <= n^2 flattened
    rng = Random(5)
    for _ in range(20):
        gens = [Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
                for _ in range(2)]
        words = [Matrix.identity(2)]
        frontier = list(words)
        for _ in range(4):
            frontier = [g * w for w in frontier for g in gens]
            words += frontier
        flat = [[x for r in w.rows for x in r] for w in words]
        assert algebra_closure_dim(gens) == matrix_rank(flat, 4)


def test_zero_dimensional_shapes():
    z = Matrix.zero(0, 3)
    assert z.shape == (0, 3)
    assert z.T.shape == (3, 0)
    # the transpose of an empty shape keeps one (empty) row per column
    assert z.T == Matrix.zero(3, 0)
    assert z.T.hstack(Matrix.zero(3, 2)) == Matrix.zero(3, 2)
    assert (Matrix.zero(2, 0) * Matrix.zero(0, 3)).shape == (2, 3)
    assert Matrix.zero(2, 0).rank() == 0
