"""Exact dense linear algebra over Fraction and other exact fields.

There is one elimination per field.  Rational rows, given as ints or
Fractions (``laurent.coefficient_rows`` and ``quasiinv.conditions_matrix``
give ints), are cleared to primitive integer rows and reduced
fraction-free (Bareiss-style with per-row content stripping) on Python
integers; ``nullspace`` reads its vectors off those integer rows, one
Fraction per free-column entry.  Other exact fields (cyclotomics, rational
functions) use ordinary Gaussian elimination, which stays exact.  The
first nonzero entry tells the two apart, and ``x / x`` of that entry is
the field's unit, so no caller passes one.  ``_row_echelon_field`` stays
beside the integer path: it is the only elimination for Q(zeta_l) and Q(t)
rows, and the tests use it as the reference for the integer path.

A small immutable Matrix class over Fraction covers the matrix work of the
quiver/bow modules; its inverse and solver use the same row_echelon.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


# ---------------------------------------------------------------------------
# row echelon over generic exact fields

def _row_echelon_field(rows, ncols, one):
    """In-place Gaussian elimination; returns (rank, pivot_cols, echelon rows)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        inv = one / pv
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows[:r]


def _int_rows(rows):
    """Rational rows (ints or Fractions, none all zero) as primitive integer
    rows: denominators cleared, content stripped."""
    out = []
    for row in rows:
        den = lcm(*[x.denominator for x in row])
        ints = [x.numerator * (den // x.denominator) for x in row]
        g = gcd(*ints)
        out.append(ints if g == 1 else [v // g for v in ints])
    return out


def _row_echelon_int(rows, ncols):
    """Fraction-free elimination with row-content stripping over the integers.

    Keeps entries as exact integers; divides out row gcds after every
    elimination step so coefficient growth stays modest.  Returns
    (rank, pivot_cols, echelon rows as ints); row i over its pivot entry is
    the reduced row.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        for i in range(len(rows)):
            if i == r or not rows[i][c]:
                continue
            f = rows[i][c]
            new = [pv * a - f * b for a, b in zip(rows[i], rows[r])]
            g = 0
            for v in new:
                g = gcd(g, v)
            if g > 1:
                new = [v // g for v in new]
            rows[i] = new
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots, rows[:r]


def row_echelon(rows, ncols, ints=False):
    """Reduced row echelon form; returns (rank, pivot_cols, rows).

    rows: iterable of coefficient sequences.  Rational rows (ints or
    Fractions) take the integer fraction-free path and come back as
    Fractions, or with ints as the integer rows of that elimination (row i
    over its pivot entry is the reduced row); any other exact field
    eliminates with x / x as its unit, x the first nonzero entry.  That
    entry also tells the two apart.
    """
    rows = [list(r) for r in rows]
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0, [], []
    x = next(v for v in rows[0] if v)
    if isinstance(x, (Fraction, int)):
        rank, pivots, ech = _row_echelon_int(_int_rows(rows), ncols)
        if not ints:
            ech = [[Fraction(v, row[c]) for v in row] for row, c in zip(ech, pivots)]
        return rank, pivots, ech
    return _row_echelon_field(rows, ncols, x / x)


def matrix_rank(rows, ncols):
    return row_echelon(rows, ncols)[0]


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix, as coefficient vectors.

    Free variables are set to 1 one at a time (the standard parametrization),
    so the output is deterministic.  Rational rows give Fraction vectors,
    read off the integer echelon only at the free columns; with no nonzero
    row the basis is the standard one, over Fraction.
    """
    rank, pivots, ech = row_echelon(rows, ncols, ints=True)
    integral = not ech or type(ech[0][pivots[0]]) is int
    if integral:
        zero, one = Fraction(0), Fraction(1)
    else:
        zero = ech[0][0] - ech[0][0]
        one = ech[0][pivots[0]]
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for row, pc in zip(ech, pivots):
            v = row[fc]
            if v:
                vec[pc] = Fraction(-v, row[pc]) if integral else -v
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# small exact matrices over Fraction

class Matrix:
    """Immutable dense matrix over Fraction.

    Zero-dimensional shapes are supported through the explicit shape
    argument (rows cannot carry a column count when there are no rows).
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows, shape=None):
        self.rows = tuple(tuple(Fraction(x) for x in r) for r in rows)
        if shape is not None:
            self.m, self.n = shape
            if self.rows and (len(self.rows) != self.m or len(self.rows[0]) != self.n):
                raise ValueError("shape disagrees with rows")
        else:
            self.m = len(self.rows)
            self.n = len(self.rows[0]) if self.rows else 0
        if any(len(r) != self.n for r in self.rows):
            raise ValueError("ragged rows")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], shape=(n, n))

    @classmethod
    def zero(cls, m, n):
        return cls([[0] * n for _ in range(m)], shape=(m, n))

    @classmethod
    def scalar(cls, n, c):
        c = Fraction(c)
        return cls([[c if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random(cls, rng, m, n):
        """Entries a/b with -5 <= a <= 5 and 1 <= b <= 3."""
        return cls(
            [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(m)
            ]
        )

    @classmethod
    def column(cls, entries):
        return cls([[x] for x in entries])

    @classmethod
    def row(cls, entries):
        return cls([list(entries)])

    def __add__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} + {other.shape}")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            shape=self.shape,
        )

    def __sub__(self, other):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} - {other.shape}")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
            shape=self.shape,
        )

    def __neg__(self):
        return Matrix([[-a for a in r] for r in self.rows], shape=self.shape)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.n != other.m:
                raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
            if self.n == 0 or self.m == 0 or other.n == 0:
                return Matrix.zero(self.m, other.n)
            cols = list(zip(*other.rows))
            return Matrix(
                [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.rows]
            )
        c = Fraction(other)
        return Matrix([[c * a for a in r] for r in self.rows], shape=self.shape)

    def __rmul__(self, other):
        c = Fraction(other)
        return Matrix([[c * a for a in r] for r in self.rows], shape=self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    @property
    def shape(self):
        return (self.m, self.n)

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    @property
    def T(self):
        return Matrix(list(zip(*self.rows)), shape=(self.n, self.m))

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.m, self.n)))

    def entry(self, i, j):
        return self.rows[i][j]

    def rank(self):
        return matrix_rank([list(r) for r in self.rows], self.n) if self.rows else 0

    def inverse(self):
        if self.m != self.n:
            raise ValueError("not square")
        n = self.n
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        rank, pivots, ech = row_echelon(aug, 2 * n)
        if rank < n or pivots[:n] != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return Matrix([r[n:] for r in ech])

    def is_invertible(self):
        return self.m == self.n and self.rank() == self.n

    def char_poly(self):
        """Characteristic polynomial det(xI - A), low-degree first (Faddeev-LeVerrier)."""
        if self.m != self.n:
            raise ValueError("not square")
        n = self.n
        coeffs = [Fraction(0)] * (n + 1)
        coeffs[n] = Fraction(1)
        M = Matrix.zero(n, n)
        c = Fraction(1)
        for k in range(1, n + 1):
            M = self * M + Matrix.scalar(n, c)
            c = -(self * M).trace() / k
            coeffs[n - k] = c
        return coeffs

    def kernel_basis(self):
        """Columns spanning the right kernel, as a list of column Matrices."""
        vecs = nullspace([list(r) for r in self.rows], self.n)
        return [Matrix.column(v) for v in vecs]

    def left_kernel_matrix(self):
        """Matrix whose rows span the left null space (may have 0 rows)."""
        vecs = nullspace([list(r) for r in self.T.rows], self.m)
        if not vecs:
            return Matrix.zero(0, self.m) if self.m else Matrix([])
        return Matrix(vecs)

    def hstack(self, *others):
        rows = [list(r) for r in self.rows]
        n = self.n
        for o in others:
            if o.m != self.m:
                raise ValueError("row count mismatch")
            for i in range(self.m):
                rows[i].extend(o.rows[i])
            n += o.n
        return Matrix(rows, shape=(self.m, n))

    def vstack(self, *others):
        rows = [list(r) for r in self.rows]
        m = self.m
        for o in others:
            if o.n != self.n:
                raise ValueError("column count mismatch")
            rows.extend(list(r) for r in o.rows)
            m += o.m
        return Matrix(rows, shape=(m, self.n))

    def submatrix(self, row_range, col_range):
        rows = list(row_range)
        cols = list(col_range)
        return Matrix(
            [[self.rows[i][j] for j in cols] for i in rows],
            shape=(len(rows), len(cols)),
        )

    def solve_right(self, rhs):
        """X with self * X = rhs; raises if inconsistent (least structure wins)."""
        aug = self.hstack(rhs)
        rank, pivots, ech = row_echelon(aug.rows, aug.n)
        if any(p >= self.n for p in pivots):
            raise ValueError("inconsistent system")
        out = [[Fraction(0)] * rhs.n for _ in range(self.n)]
        for i, p in enumerate(pivots):
            for j in range(rhs.n):
                out[p][j] = ech[i][self.n + j]
        X = Matrix(out, shape=(self.n, rhs.n))
        if self * X != rhs:
            raise ValueError("inconsistent system")
        return X

    def to_json(self):
        def fmt(x):
            return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"

        return [[fmt(x) for x in r] for r in self.rows]

    @classmethod
    def from_json(cls, data):
        return cls([[Fraction(x) for x in r] for r in data])

    def __repr__(self):
        return "Matrix(" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + ")"


def span_closure(seed_vectors, operators):
    """Smallest operator-invariant subspace containing the seed vectors.

    seed_vectors: list of column Matrices; operators: list of square
    Matrices.  Returns a list of linearly independent column vectors.
    """
    if not seed_vectors:
        return []
    dim = seed_vectors[0].m
    basis_rows = []

    def add(vec):
        row = [vec.rows[i][0] for i in range(dim)]
        cand = basis_rows + [row]
        if matrix_rank(cand, dim) > len(basis_rows):
            basis_rows.append(row)
            return True
        return False

    frontier = []
    for v in seed_vectors:
        if add(v):
            frontier.append(v)
    while frontier:
        new_frontier = []
        for v in frontier:
            for op in operators:
                w = op * v
                if not w.is_zero() and add(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return [Matrix.column(r) for r in basis_rows]


def algebra_closure_dim(generators):
    """Dimension of the unital matrix algebra generated by the given matrices.

    Burnside: the generators act irreducibly on C^n iff this equals n^2.
    """
    if not generators:
        return 1
    n = generators[0].m
    flat = []

    def add(mat):
        row = [mat.rows[i][j] for i in range(n) for j in range(n)]
        cand = flat + [row]
        if matrix_rank(cand, n * n) > len(flat):
            flat.append(row)
            return True
        return False

    frontier = []
    for m in [Matrix.identity(n)] + list(generators):
        if add(m):
            frontier.append(m)
    while frontier:
        new_frontier = []
        for m in frontier:
            for g in generators:
                for prod in (g * m, m * g):
                    if add(prod):
                        new_frontier.append(prod)
        frontier = new_frontier
    return len(flat)


def rational_eigenvalues(mat):
    """All rational eigenvalues of a Fraction matrix, found exactly."""
    poly = mat.char_poly()
    # the same roots as a primitive integer polynomial (char_poly is monic)
    (ints,) = _int_rows([poly])
    out = []
    if not ints[0]:
        # constant coefficient zero => 0 is an eigenvalue
        out.append(Fraction(0))
    while not ints[0]:
        ints = ints[1:]  # factor out x
    a0, an = abs(ints[0]), abs(ints[-1])

    def divisors(v):
        v = abs(v)
        out = set()
        d = 1
        while d * d <= v:
            if v % d == 0:
                out.add(d)
                out.add(v // d)
            d += 1
        return sorted(out) if out else [1]

    cands = set()
    for p in divisors(a0) or [1]:
        for q in divisors(an) or [1]:
            cands.add(Fraction(p, q))
            cands.add(Fraction(-p, q))

    def peval(x):
        acc = Fraction(0)
        for c in reversed(poly):
            acc = acc * x + c
        return acc

    for x in sorted(cands):
        if x not in out and peval(x) == 0:
            out.append(x)
    return out
