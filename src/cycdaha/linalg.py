"""Exact linear algebra over QQ and other exact fields.

There is one elimination per field.  Over QQ it is a fraction-free
Gauss-Jordan elimination on sparse integer rows ``{column: int}``
(``_reduce``): each incoming row is reduced against the kept pivot rows in
column order, its content is stripped, and its pivot column is then cleared
from every kept row.  Kept rows therefore stay fully reduced, so a reduction
never creates an entry in another pivot column, and row i over its pivot
entry is row i of the reduced row echelon form.  Rational rows (ints or
Fractions; ``laurent.coefficient_rows`` and ``quasiinv.conditions_matrix``
give ints) have their denominators cleared on the way in, and the
quasiinvariant condition rows, which hold a few entries each, stay sparse
throughout.  ``row_echelon``, ``nullspace``, the ``Matrix`` rank, inverse,
kernel and solver, and ``span_closure`` all take this one path.  Other
exact fields (cyclotomics, rational functions) use ordinary Gaussian
elimination, ``_row_echelon_field``, which stays exact; the tests also use
it as the reference for the integer path.  The first nonzero entry tells
the two apart, and ``x / x`` of that entry is the field's unit, so no
caller passes one (``nullspace`` takes one only for a matrix with no
nonzero row, where no entry names the field).

There is one kernel parametrization, ``_kernel``: one vector per free
column f of the integer echelon, 1 at f and -row[f] / row[p] at each pivot
p, as sparse int numerators over the lcm of the pivot entries it meets, in
canonical (nums, den) form.  No Fraction is made.  ``nullspace`` returns
these vectors (the quasiinvariant bases are built from them directly), and
``Matrix.kernel`` puts them over their common den as its columns; over
other fields ``nullspace`` reads the same vectors off the field echelon,
over den 1.

A small immutable Matrix class covers the matrix work of the quiver and
bow modules.  It stores integer numerators over one positive denominator
in canonical form, so its arithmetic runs on ints.  Its kernel is the one
above (the left kernel of M is ``M.T.kernel().T``), and there is one
invariant-subspace closure, ``span_closure``, which also gives the
dimension of a generated matrix algebra."""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import add, mul, sub

from .scalars import int_poly, poly_primitive


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


# ---------------------------------------------------------------------------
# the rational elimination: sparse integer rows

def _sparse(row):
    """A rational row (ints or Fractions) as {column: int}: its nonzero
    entries times the lcm of their denominators."""
    cols = {c: x for c, x in enumerate(row) if x}
    den = lcm(*[x.denominator for x in cols.values()])
    return {c: x.numerator * (den // x.denominator) for c, x in cols.items()}


def _axpy(a, row, b, other):
    """a row - b other for sparse integer rows, without zero entries; row
    is consumed."""
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in other.items():
        w = row.get(c, 0) - b * v
        if w:
            row[c] = w
        else:
            del row[c]
    return row


def _reduce(kept, row):
    """Grow the reduced echelon form kept by one sparse integer row.

    kept maps each pivot column to its row: primitive, with a positive
    pivot entry that is also its first entry, and zero at every other pivot
    column.  The row (consumed) is reduced against kept in column order;
    if anything is left, its content is stripped, its pivot column is
    cleared from every kept row, and it is kept.  Returns whether it was.
    """
    for c in sorted(row.keys() & kept.keys()):
        piv = kept[c]
        a, b = piv[c], row[c]
        g = gcd(a, b)
        row = _axpy(a // g, row, b // g, piv)
    if not row:
        return False
    p = min(row)
    g = gcd(*row.values())
    if row[p] < 0:
        g = -g
    if g != 1:
        row = {c: v // g for c, v in row.items()}
    a = row[p]
    for q, other in kept.items():
        b = other.get(p)
        if b:
            g = gcd(a, b)
            other = _axpy(a // g, other, b // g, row)
            g = gcd(*other.values())
            kept[q] = {c: v // g for c, v in other.items()} if g != 1 else other
    kept[p] = row
    return True


def _echelon(rows):
    """The reduced echelon form (as _reduce keeps it) of sparse integer rows."""
    kept = {}
    for row in rows:
        _reduce(kept, row)
    return kept


def _int_sparse(nums):
    """Dense integer rows as sparse ones."""
    return ({c: v for c, v in enumerate(r) if v} for r in nums)


def row_echelon(rows, ncols):
    """Reduced row echelon form; returns (rank, pivot_cols, rows).

    rows: iterable of coefficient sequences.  Rational rows (ints or
    Fractions) take the sparse integer elimination and come back as its
    primitive int rows: row i over its pivot entry, which is positive, is
    the reduced row.  Any other exact field eliminates with x / x as its
    unit, x the first nonzero entry, and returns the reduced rows.  That
    entry also tells the two apart.
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return 0, [], []
    x = next(v for v in rows[0] if v)
    if not isinstance(x, (Fraction, int)):
        return _row_echelon_field(rows, ncols, x / x)
    kept = _echelon(map(_sparse, rows))
    pivots = sorted(kept)
    ech = []
    for p in pivots:
        dense = [0] * ncols
        for c, v in kept[p].items():
            dense[c] = v
        ech.append(dense)
    return len(pivots), pivots, ech


def matrix_rank(rows, ncols):
    return row_echelon(rows, ncols)[0]


def _kernel(kept, ncols):
    """The kernel vectors of the reduced echelon form kept (as _reduce keeps
    it), one per free column f: 1 at f and -row[f] / row[p] at each pivot
    p, over the lcm of the pivot entries it meets.  Each is (nums, den),
    nums a sparse {column: int} and den > 0 with gcd(den, *nums) == 1.
    A kept row is zero at every other pivot column, so its entries off its
    pivot are exactly the free columns it meets."""
    meets = {}
    for p, row in kept.items():
        a = row[p]
        for c, v in row.items():
            if c != p:
                meets.setdefault(c, []).append((p, a, v))
    out = []
    for f in range(ncols):
        if f in kept:
            continue
        hits = meets.get(f, ())
        den = lcm(*[a for _, a, _ in hits])
        nums = {f: den}
        for p, a, v in hits:
            nums[p] = -v * (den // a)
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {c: v // g for c, v in nums.items()}
            den //= g
        out.append((nums, den))
    return out


def nullspace(rows, ncols, one=1):
    """Basis of the right kernel of the matrix, one sparse vector per free
    column f (the standard parametrization, so the output is
    deterministic): 1 at f and minus the reduced rows' f-entries at their
    pivots, nothing elsewhere.

    Each vector is (nums, den), its entries nums[c] / den.  Rational rows
    take the sparse integer echelon and give canonical int vectors, as
    _kernel reads them: no Fraction is made.  Any other exact field keeps
    its elimination and gives field elements over den 1.  With no nonzero
    row no entry names the field, so the basis is the standard one with
    numerator one (an int by default).
    """
    rows = [r for r in rows if any(r)]
    if not rows:
        return [({f: one}, 1) for f in range(ncols)]
    x = next(v for v in rows[0] if v)
    if isinstance(x, (Fraction, int)):
        return _kernel(_echelon(map(_sparse, rows)), ncols)
    unit = x / x
    rank, pivots, ech = _row_echelon_field(rows, ncols, unit)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        nums = {f: unit}
        for row, p in zip(ech, pivots):
            if row[f]:
                nums[p] = -row[f]
        basis.append((nums, 1))
    return basis


# ---------------------------------------------------------------------------
# small exact matrices

class Matrix:
    """Immutable dense rational matrix: integer numerators over one
    denominator.

    ``nums`` holds tuples of ints and ``den`` is a positive int with
    gcd(den, every numerator) = 1, so equal matrices store equal data and
    sums, products, scalar multiples, comparisons and the eliminations all
    run on ints.  ``rows`` is the entry view: the ints themselves when
    den = 1, Fractions otherwise.  The constructor takes int and Fraction
    entries.  Zero-dimensional shapes are supported through the explicit
    shape argument (rows cannot carry a column count when there are no
    rows).  ``kernel`` is the one kernel: its columns span the right
    kernel, and ``M.T.kernel().T`` has rows spanning the left one.
    """

    __slots__ = ("m", "n", "nums", "den")

    def __init__(self, rows, shape=None):
        rows = [tuple(r) for r in rows]
        if shape is None:
            shape = (len(rows), len(rows[0]) if rows else 0)
        self.m, self.n = shape
        if len(rows) != self.m or any(len(r) != self.n for r in rows):
            raise ValueError(f"rows disagree with shape {shape}")
        # over the lcm of the reduced denominators the form is canonical
        den = lcm(*[x.denominator for r in rows for x in r])
        self.nums = tuple(tuple(x.numerator * (den // x.denominator) for x in r) for r in rows)
        self.den = den

    @classmethod
    def _make(cls, nums, den, shape):
        """The matrix nums / den (den > 0), brought to canonical form."""
        if den != 1:
            g = gcd(den, *chain.from_iterable(nums))
            if g != 1:
                nums = tuple(tuple(v // g for v in r) for r in nums)
                den //= g
        out = cls.__new__(cls)
        out.nums, out.den = nums, den
        out.m, out.n = shape
        return out

    @classmethod
    def identity(cls, n):
        return cls._make(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1, (n, n))

    @classmethod
    def zero(cls, m, n):
        return cls._make(((0,) * n,) * m, 1, (m, n))

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

    @property
    def rows(self):
        if self.den == 1:
            return self.nums
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in r) for r in self.nums)

    def _scaled(self, den):
        """The numerators over den, a multiple of self.den."""
        if den == self.den:
            return self.nums
        k = den // self.den
        return tuple(tuple(k * v for v in r) for r in self.nums)

    def _entrywise(self, other, op, sign):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} {sign} {other.shape}")
        den = lcm(self.den, other.den)
        nums = tuple(tuple(map(op, r, s)) for r, s in zip(self._scaled(den), other._scaled(den)))
        return Matrix._make(nums, den, self.shape)

    def __add__(self, other):
        return self._entrywise(other, add, "+")

    def __sub__(self, other):
        return self._entrywise(other, sub, "-")

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            k = other.numerator
            nums = tuple(tuple(k * v for v in r) for r in self.nums)
            return Matrix._make(nums, self.den * other.denominator, self.shape)
        if self.n != other.m:
            raise ValueError(f"shape mismatch {self.shape} * {other.shape}")
        cols = tuple(zip(*other.nums)) if other.m else ((),) * other.n
        nums = tuple(tuple(sum(map(mul, r, c)) for c in cols) for r in self.nums)
        return Matrix._make(nums, self.den * other.den, (self.m, other.n))

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.shape == other.shape
            and self.den == other.den
            and self.nums == other.nums
        )

    @property
    def shape(self):
        return (self.m, self.n)

    def is_zero(self):
        return not any(map(any, self.nums))

    @property
    def T(self):
        nums = tuple(zip(*self.nums)) if self.m else ((),) * self.n
        return Matrix._make(nums, self.den, (self.n, self.m))

    def trace(self):
        t = sum(self.nums[i][i] for i in range(min(self.m, self.n)))
        return t if self.den == 1 else Fraction(t, self.den)

    def rank(self):
        return len(_echelon(_int_sparse(self.nums)))

    def inverse(self):
        """(nums / den)^-1 = den nums^-1; row i of nums^-1 is the right half
        of the echelon row of [nums | 1] with pivot i, over that pivot."""
        if self.m != self.n:
            raise ValueError("not square")
        n = self.n
        rows = list(_int_sparse(self.nums))
        for i, row in enumerate(rows):
            row[n + i] = 1
        kept = _echelon(rows)
        if any(p >= n for p in kept):
            raise ZeroDivisionError("singular matrix")
        den = lcm(*[kept[i][i] for i in range(n)])
        nums = tuple(tuple(kept[i].get(n + j, 0) * (self.den * den // kept[i][i])
                           for j in range(n)) for i in range(n))
        return Matrix._make(nums, den, (n, n))

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
        """The n x k matrix whose columns span the right kernel: the
        vectors of nullspace, one per free column, over their common
        den."""
        vecs = _kernel(_echelon(_int_sparse(self.nums)), self.n)
        den = lcm(*[d for _, d in vecs])
        cols = []
        for nums, d in vecs:
            col = [0] * self.n
            for c, v in nums.items():
                col[c] = v * (den // d)
            cols.append(col)
        nums = tuple(zip(*cols)) if cols else ((),) * self.n
        return Matrix._make(nums, den, (self.n, len(cols)))

    def hstack(self, *others):
        if any(o.m != self.m for o in others):
            raise ValueError("row count mismatch")
        mats = (self, *others)
        den = lcm(*[o.den for o in mats])
        nums = tuple(tuple(chain.from_iterable(r)) for r in zip(*[o._scaled(den) for o in mats]))
        return Matrix._make(nums, den, (self.m, sum(o.n for o in mats)))

    def vstack(self, *others):
        if any(o.n != self.n for o in others):
            raise ValueError("column count mismatch")
        mats = (self, *others)
        den = lcm(*[o.den for o in mats])
        nums = tuple(chain.from_iterable(o._scaled(den) for o in mats))
        return Matrix._make(nums, den, (len(nums), self.n))

    def submatrix(self, row_range, col_range):
        cols = list(col_range)
        nums = tuple(tuple(self.nums[i][j] for j in cols) for i in row_range)
        return Matrix._make(nums, self.den, (len(nums), len(cols)))

    def solve_right(self, rhs):
        """X with self * X = rhs; raises if inconsistent (least structure wins)."""
        n = self.n
        kept = _echelon(_int_sparse(self.hstack(rhs).nums))
        if any(p >= n for p in kept):
            raise ValueError("inconsistent system")
        out = [[0] * rhs.n for _ in range(n)]
        for p, row in kept.items():
            for j in range(rhs.n):
                out[p][j] = Fraction(row.get(n + j, 0), row[p])
        X = Matrix(out, shape=(n, rhs.n))
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
    square Matrices acting on them from the left.  Each candidate's
    numerators, flattened, are reduced into one echelon form of what is
    kept so far (the denominator does not change the span).  Returns the
    kept Matrices, in the order they were found: a basis of the subspace.
    """
    echelon = {}
    kept = []

    def add(mat):
        row = {c: v for c, v in enumerate(chain.from_iterable(mat.nums)) if v}
        if _reduce(echelon, row):
            kept.append(mat)
            return True
        return False

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
    ints = poly_primitive(int_poly(poly)[0])
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
        return sorted(out)

    cands = set()
    for p in divisors(a0):
        for q in divisors(an):
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
