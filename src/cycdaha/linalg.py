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

A small immutable Matrix class covers the matrix work of the quiver and
bow modules.  It holds the exact int and Fraction entries it is given and
never re-casts them; its inverse and solver use the same row_echelon.
There is one kernel, ``Matrix.kernel`` (the left kernel of M is
``M.T.kernel().T``), and one invariant-subspace closure, ``span_closure``,
which also gives the dimension of a generated matrix algebra."""

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
# small exact matrices

class Matrix:
    """Immutable dense matrix holding exact entries (ints, Fractions) as given.

    Nothing re-casts an entry: sums and products keep the type the exact
    arithmetic gives.  Zero-dimensional shapes are supported through the
    explicit shape argument (rows cannot carry a column count when there
    are no rows).  ``kernel`` is the one kernel: its columns span the right
    kernel, and ``M.T.kernel().T`` has rows spanning the left one.
    """

    __slots__ = ("m", "n", "rows")

    def __init__(self, rows, shape=None):
        self.rows = tuple(tuple(r) for r in rows)
        if shape is None:
            shape = (len(self.rows), len(self.rows[0]) if self.rows else 0)
        self.m, self.n = shape
        if len(self.rows) != self.m or any(len(r) != self.n for r in self.rows):
            raise ValueError(f"rows disagree with shape {shape}")

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], shape=(n, n))

    @classmethod
    def zero(cls, m, n):
        return cls([[0] * n for _ in range(m)], shape=(m, n))

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

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return Matrix([[other * a for a in r] for r in self.rows], shape=self.shape)
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        cols = other.T.rows
        return Matrix(
            [[sum(a * b for a, b in zip(r, c)) for c in cols] for r in self.rows],
            shape=(self.m, other.n),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.rows == other.rows
        )

    @property
    def shape(self):
        return (self.m, self.n)

    def is_zero(self):
        return all(not x for r in self.rows for x in r)

    @property
    def T(self):
        return Matrix(zip(*self.rows) if self.m else [()] * self.n, shape=(self.n, self.m))

    def trace(self):
        return sum(self.rows[i][i] for i in range(min(self.m, self.n)))

    def rank(self):
        return matrix_rank(self.rows, self.n)

    def inverse(self):
        if self.m != self.n:
            raise ValueError("not square")
        n = self.n
        aug = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(self.rows)]
        rank, pivots, ech = row_echelon(aug, 2 * n)
        if rank < n or pivots[:n] != list(range(n)):
            raise ZeroDivisionError("singular matrix")
        return Matrix([r[n:] for r in ech], shape=(n, n))

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
            M = self * M + Matrix.identity(n) * c
            c = Fraction(-(self * M).trace(), k)
            coeffs[n - k] = c
        return coeffs

    def kernel(self):
        """The n x k matrix whose columns span the right kernel."""
        vecs = nullspace(self.rows, self.n)
        return Matrix(vecs, shape=(len(vecs), self.n)).T

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
        out = [[0] * rhs.n for _ in range(self.n)]
        for i, p in enumerate(pivots):
            for j in range(rhs.n):
                out[p][j] = ech[i][self.n + j]
        X = Matrix(out, shape=(self.n, rhs.n))
        if self * X != rhs:
            raise ValueError("inconsistent system")
        return X

    def to_json(self):
        return [[str(x) for x in r] for r in self.rows]

    @classmethod
    def from_json(cls, data, shape):
        """The matrix to_json wrote; ValueError unless it has the given shape."""
        return cls([[Fraction(x) for x in r] for r in data], shape=shape)

    def __repr__(self):
        return "Matrix(" + "; ".join(" ".join(str(x) for x in r) for r in self.rows) + ")"


def span_closure(seeds, operators):
    """Smallest operator-invariant subspace containing the seeds.

    seeds: Matrices of one shape (columns, or n x n matrices); operators:
    square Matrices acting on them from the left.  Each candidate is
    reduced against an integer echelon basis of what is kept so far, which
    grows one row at a time.  Returns the kept Matrices, in the order they
    were found: a basis of the subspace.
    """
    echelon = []  # (pivot column, primitive integer row), in insertion order
    kept = []

    def add(mat):
        row = [x for r in mat.rows for x in r]
        if not any(row):
            return False
        (row,) = _int_rows([row])
        for p, e in echelon:
            c = row[p]
            if c:
                row = [e[p] * a - c * b for a, b in zip(row, e)]
        if not any(row):
            return False
        g = gcd(*row)
        echelon.append((next(j for j, x in enumerate(row) if x), [v // g for v in row]))
        kept.append(mat)
        return True

    frontier = [v for v in seeds if add(v)]
    while frontier:
        frontier = [w for w in (op * v for v in frontier for op in operators) if add(w)]
    return kept


def algebra_closure_dim(generators):
    """Dimension of the unital matrix algebra generated by the given matrices:
    left multiplication from the identity reaches every word in them.

    Burnside: the generators act irreducibly on C^n iff this equals n^2.
    """
    return len(span_closure([Matrix.identity(generators[0].m)], generators))


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
