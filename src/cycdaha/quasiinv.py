"""Graded bases and Hilbert series of quasiinvariant spaces by exact linear
algebra.

The four variants share one condition.  For each pair i < j and each twist
r < l, let g_r be the reflection x_i -> zeta^r x_j, x_j -> zeta^-r x_i
(zeta a primitive l-th root of unity; g_0 is the swap s_ij).  Then
X^a F - g_r(X^a F) must

* vanish to order 2m+1 along x_i = zeta^r x_j when q = 1, or
* vanish at x_i = zeta^r q^p x_j for 0 < |p| <= m when q != 1,

and for l > 1 every x_i-exponent congruent to r mod l (0 < r < l) must be at
least r + m_r l (the projector conditions).  The variants differ only in
(l, a, q, M), where M is the common denominator of the a_i (1 wherever
a = 0) and q^(1/M) raised to integer powers gives the weights q^(p a_i):

* PLAIN_Q   -- q-deformed quasiinvariants: l = 1, a = 0, any q.
* CYC       -- cyclotomic quasiinvariants for the wreath product S_N wr Z/l:
               l >= 1, a = 0, any q (the deformation base 'bold q'),
               weights m_1..m_{l-1} of the projector conditions.
* TWISTED   -- monomial-weight-twisted quasiinvariants: l = 1, rational a,
               q = 1; the weight (1+u)^{a_i} rides in the expansion itself:
               along x_i = x_j (1+u) a monomial with x_i-exponent n
               contributes C(n + a_i, s) to u^s (series_on_hyperplane).
* TWISTED_Q -- the q-deformation of TWISTED: l = 1, rational a, and q
               stores the base parameter qq = q^(1/M).

The condition rows need no polynomial arithmetic.  For a pair i < j and a
twist r, both X^e and g_r X^e land on the one monomial X^k(e), k(e) being e
with e_j += e_i and e_i = 0, so column e has a single entry per order (or
hyperplane), in the row of k(e):

* q = 1, order s: zeta^{r e_i} (C(e_i + a_i, s) - C(e_j + a_j, s));
* q != 1, hyperplane p: zeta^{r e_i} (w_i Q^{e_i} - w_j Q^{e_j}), with
  Q = q^{pM} and w = q^{p a M}.

conditions_matrix reads these off the exponent tuples, as ints over QQ.
graded_basis does one pass per degree.  The kernel vectors come from the
sparse integer echelon as int numerators over one den each
(linalg.nullspace), and become the basis polynomials without a Fraction
step.  Every basis element is then re-verified against the raw conditions
by a direct checker (check_member) that works on the polynomial itself and
shares no code with the row builder.  It states the condition once, in one
loop over r < l and i < j for every variant: with G = g_r F and
d = a_i - a_j, it compares the expansions of F (1+u)^d and G along
x_i = zeta^r x_j (1+u) to order 2m (q = 1), or requires
F - G + (q^{pdM} - 1) F to vanish at x_i = zeta^r q^{pM} x_j for
0 < p <= m (q != 1).  p = 0 needs no test: g_r fixes x_i = zeta^r x_j
pointwise, so F - G vanishes there identically.  p < 0 needs none either:
the involution g_r maps the hyperplane of p onto the one of -p, and
X^a F - g_r(X^a F) changes sign under it, so it vanishes on one exactly
when it vanishes on the other, and the rows of -p add nothing to the row
span (conditions_matrix).  The checker acts on X_1..X_N only, so the
degree's vectors F_0..F_{k-1} are checked in one call, as the one
polynomial sum_k F_k X_{N+1}^k in N + 1 variables: its result vanishes
exactly when every F_k passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import lcm

from .laurent import LaurentPoly
from .linalg import matrix_rank, nullspace
from .scalars import QQ, CycloField, ParameterDegenerate, int_poly
from .tableaux import (
    content_sum,
    invariants_series,
    kostka_polynomial,
    series_mul,
)

PLAIN_Q = "plain-q"
CYC = "cyc"
TWISTED = "twisted"
TWISTED_Q = "twisted-q"
VARIANTS = (PLAIN_Q, CYC, TWISTED, TWISTED_Q)


@dataclass
class QuasiSpec:
    """Parameters of one quasiinvariant space.

    For PLAIN_Q: N, m, q (q = 1 selects the classical order-vanishing form).
    For CYC: N, m, l >= 1, mlist (m_1..m_{l-1}; missing entries are 0), q.
    For TWISTED: N, m, a (N rational weights).
    For TWISTED_Q: N, m, a, q, where q must be supplied as qq**M for the
    common denominator M of the a_i (qq is stored).

    Construction fixes all that conditions_matrix and check_member read,
    for every variant alike: l (1 unless CYC), the weights a (zeros unless
    twisted), common_denominator M (the lcm of the denominators of the a_i,
    so 1 wherever a = 0), the field dom (QQ for l <= 2, else Q(zeta_l)) and
    the powers zeta[k] = zeta^k, k < l (the ints 1, -1 over QQ, so rows
    over QQ stay ints).  A space the variant cannot mean raises ValueError
    with a message that starts with the offending parameter's name.
    """

    variant: str
    N: int
    m: int
    l: int = 1
    mlist: tuple = ()
    q: Fraction = Fraction(1)
    a: tuple = ()
    dom: object = field(init=False)
    common_denominator: int = field(init=False)
    zeta: tuple = field(init=False)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(
                f"variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}"
            )
        if self.N < 1:
            raise ValueError(f"N must be at least 1, got {self.N}")
        if self.m < 0:
            raise ValueError(f"m must be non-negative, got {self.m}")
        if self.variant == CYC and self.l < 1:
            raise ValueError(f"l must be at least 1 for cyc, got {self.l}")
        if self.variant != CYC and self.l != 1:
            raise ValueError(f"l must be 1 for {self.variant}, got {self.l}")
        if len(self.mlist) > self.l - 1:
            raise ValueError(
                f"mlist takes at most l - 1 = {self.l - 1} entries, "
                f"got {len(self.mlist)}"
            )
        self.q = Fraction(self.q)
        self.a = tuple(Fraction(x) for x in self.a)
        if self.variant in (TWISTED, TWISTED_Q):
            if len(self.a) != self.N:
                raise ValueError(
                    f"a needs {self.N} weights for N = {self.N}, got {len(self.a)}"
                )
        elif any(self.a):
            raise ValueError(
                f"a must be zero for {self.variant}, got {', '.join(map(str, self.a))}"
            )
        else:
            self.a = (Fraction(0),) * self.N
        if self.variant == TWISTED and self.q != 1:
            raise ValueError(f"q must be 1 for twisted (see twisted-q), got {self.q}")
        if self.q == 0:
            raise ValueError("q must be nonzero")
        self.dom = QQ if self.l <= 2 else CycloField(self.l)
        self.common_denominator = lcm(*(x.denominator for x in self.a))
        self.zeta = tuple((-1) ** k if self.l <= 2 else self.dom.zeta ** k
                          for k in range(self.l))
        if self.q != 1:
            # the 2m+1 hyperplanes X_i = q^p X_j must be distinct; for CYC a
            # rational q makes zeta^r q^p collide only when q^p does
            seen = set()
            for p in range(-self.m, self.m + 1):
                v = self.q ** p
                if v in seen:
                    raise ParameterDegenerate(
                        f"q {self.q} makes two hyperplanes X_i = q^p X_j with "
                        f"|p| <= {self.m} coincide"
                    )
                seen.add(v)


def degree_monomials(N, d):
    """Exponent tuples of total degree d with nonnegative entries."""
    def gen(slots, total):
        if slots == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(slots - 1, total - first):
                yield (first,) + rest

    return list(gen(N, d))


# ---------------------------------------------------------------------------
# condition rows

def _value_tables(spec, i, j, d):
    """The (u, v) tables of each block of rows for the pair i < j, one
    block per order of u (q = 1) or per hyperplane p (q != 1): u[n] and v[n]
    for n = 0..d, ints over one positive den per block."""
    m, M, q = spec.m, spec.common_denominator, spec.q

    def side(a):
        """One (ints, den) pair per block for the weight a: the values
        C(n + a, s) = prod_{t<s} (n b + c - t b) / (b^s s!) with a = c/b
        (q = 1), or w Q^n = q^(p (a M + M n)) (q != 1)."""
        out = []
        if q == 1:
            c, b = a.numerator, a.denominator
            prods, den = [1] * (d + 1), 1
            for s in range(2 * m + 1):
                out.append((prods, den))
                prods = [x * (n * b + c - s * b) for n, x in enumerate(prods)]
                den *= b * (s + 1)
            return out
        A = int(a * M)
        for p in range(1, m + 1):
            out.append(int_poly(q ** (p * (A + M * n)) for n in range(d + 1)))
        return out

    out = []
    for (u, du), (v, dv) in zip(side(spec.a[i - 1]), side(spec.a[j - 1])):
        den = lcm(du, dv)
        out.append(([x * (den // du) for x in u], [x * (den // dv) for x in v]))
    return out


def conditions_matrix(spec, d):
    """Rows of the exact linear system whose null space is the degree-d
    component, together with the monomial basis indexing the columns.

    For each pair i < j, twist r < l and basis monomial F, with
    g = g_r F and K = 2m, the condition reads

    * q = 1: the coefficients of u^0..u^K in F (1+u)^{a_i} - g (1+u)^{a_j}
      at x_i = zeta^r x_j (1+u), one block of rows per power of u;
    * q != 1: q^{p a_i M} F - q^{p a_j M} g at x_i = zeta^r q^{pM} x_j, one
      block per 0 < p <= m.  p = 0 holds by antisymmetry, and the block
      of -p would repeat the block of p up to row scalars: g_r swaps the
      two hyperplanes and X^a F - g_r(X^a F) changes sign under it.  On
      the row of k(e), with n = e_i + e_j fixed along it, the entry of -p
      times -q^{pM(n + a_i + a_j)} is the entry of p given below.

    Both sides of a monomial X^e land on the one monomial X^k(e), where k(e)
    is e with e_j += e_i and e_i = 0, so column e has exactly one entry per
    block, in the row of k(e), and the rows are built from the exponents
    alone:

    * q = 1, order s: zeta^{r e_i} (C(e_i + a_i, s) - C(e_j + a_j, s));
    * q != 1, hyperplane p: zeta^{r e_i} (w_i Q^{e_i} - w_j Q^{e_j}), with
      Q = q^{pM} and w = q^{p a M}.

    Each block is scaled by one positive den, so over QQ the entries are
    ints.  The projector rows come last; for l = 1 there are none.
    """
    basis = degree_monomials(spec.N, d)
    dom, l, zeta, ncols = spec.dom, spec.l, spec.zeta, len(basis)
    zero = dom.split(dom.zero)[0]  # 0 over QQ, the field's zero elsewhere
    rows = []
    for i in range(1, spec.N + 1):
        for j in range(i + 1, spec.N + 1):
            cols = [(c, e[i - 1], e[j - 1],
                     e[:i - 1] + (0,) + e[i:j - 1] + (e[j - 1] + e[i - 1],) + e[j:])
                    for c, e in enumerate(basis)]
            tables = _value_tables(spec, i, j, d)
            for r in range(l):
                for u, v in tables:
                    block = {}
                    for c, ei, ej, k in cols:
                        x = u[ei] - v[ej]
                        if x:
                            row = block.get(k)
                            if row is None:
                                row = block[k] = [zero] * ncols
                            row[c] = zeta[r * ei % l] * x
                    rows += block.values()
    # projector divisibility: monomials with x_i-exponent congruent to r
    # mod l but smaller than r + m_r l are forbidden
    for i in range(1, spec.N + 1):
        for r in range(1, l):
            m_r = spec.mlist[r - 1] if len(spec.mlist) >= r else 0
            for k, e in enumerate(basis):
                if e[i - 1] % l == r and e[i - 1] < r + m_r * l:
                    row = [dom.zero] * len(basis)
                    row[k] = dom.one
                    rows.append(row)
    return rows, basis


# ---------------------------------------------------------------------------
# independent membership checker (used to re-verify solver output)

def check_member(spec, F):
    """Direct verification that F satisfies every defining condition.

    Works on the concrete polynomial, independent of the row builder, in
    one loop for every variant.  For each twist r < l and pair i < j let
    G = g_r F and d = a_i - a_j; along x_i = zeta^r x_j (1+u),
    X^a F - g_r(X^a F) is F (1+u)^d - G times a unit.  So the check reads

    * q = 1: the expansions of F (1+u)^d and G agree to order u^2m (when
      d = 0, the one expansion of F - G vanishes to that order);
    * q != 1: F - G + (q^{pdM} - 1) F vanishes at x_i = zeta^r q^{pM} x_j
      for each 0 < p <= m.

    p = 0 is skipped: g_r fixes the hyperplane x_i = zeta^r x_j pointwise,
    so F - G vanishes there identically (and q^0 - 1 = 0).  p < 0 is
    skipped too: g_r is an involution mapping the hyperplane of p onto the
    one of -p, and X^a F - g_r(X^a F) changes sign under it, so it
    vanishes on the hyperplane of -p exactly when it vanishes on that of p.
    When d = 0 the substitutions so decide what division of F - G by
    prod_{0 < |p| <= m} (X_i - zeta^r q^{pM} X_j) would: each X_i - c X_j
    generates a prime ideal of the Laurent ring, two of them with c != c'
    are comaximal ((c' - c) X_j is a unit), so F - G lies in their product
    exactly when it vanishes on every hyperplane.

    Variables of F past spec.N are inert tags: every swap, substitution,
    series expansion and projector test acts on X_1..X_N linearly and
    keeps the other exponents, so F = sum_k F_k X_{N+1}^k passes exactly
    when every F_k does (graded_basis checks a degree in one call so).
    """
    N, m, q, M, l, zeta = spec.N, spec.m, spec.q, spec.common_denominator, spec.l, spec.zeta

    def along(P, r, i, j, a=0):
        """u^0..u^2m of P (1+u)^a along x_i = zeta^r x_j (1+u)."""
        if r:
            P = P.scale_var(i, zeta[r])
        return P.series_on_hyperplane(j, i, 2 * m, a)

    for r in range(l):
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                d = spec.a[i - 1] - spec.a[j - 1]
                G = F.swap(i, j) if r == 0 else F.substitute({i: (zeta[r], j), j: (zeta[-r], i)})
                D = F - G
                if not (D or d):
                    continue
                if q == 1:
                    if (along(F, r, i, j, d) != along(G, r, i, j) if d
                            else any(along(D, r, i, j))):
                        return False
                    continue
                for p in range(1, m + 1):
                    h = D + F * (q ** (p * d * M) - 1) if d else D
                    if h.substitute({i: (zeta[r] * q ** (p * M), j)}):
                        return False
    # projector exponents
    for i in range(1, N + 1):
        for r in range(1, l):
            m_r = spec.mlist[r - 1] if len(spec.mlist) >= r else 0
            for e in F.nums:
                if e[i - 1] % l == r and e[i - 1] < r + m_r * l:
                    return False
    return True


# ---------------------------------------------------------------------------
# graded bases and series

@dataclass
class GradedBasis:
    spec: QuasiSpec
    degrees: list  # list of lists of LaurentPoly

    def dims(self):
        return [len(d) for d in self.degrees]


def _tagged(polys):
    """sum_k polys[k] X_{N+1}^k: the polynomials of one degree as one
    polynomial in N + 1 variables, the last exponent tagging the vector each
    term comes from.  Over the lcm of the dens, which keeps it canonical
    because each polys[k] is."""
    N, dom = polys[0].N, polys[0].dom
    den = lcm(*[F.den for F in polys])
    nums = {}
    for k, F in enumerate(polys):
        m = den // F.den
        for e, n in F.nums.items():
            nums[e + (k,)] = n if m == 1 else n * m
    return LaurentPoly._make(N + 1, dom, nums, den)


def graded_basis(spec, maxdeg):
    """Exact degree-wise bases up to maxdeg, re-verified post-solve.

    One pass per degree: the kernel vectors of conditions_matrix become the
    basis polynomials with their int numerators as they are (no Fraction
    step), and check_member re-verifies all of them in one call on their
    tagged sum (_tagged), which passes exactly when every vector does, as
    the tag variable is inert.  A failure raises AssertionError naming the
    degree.
    """
    N, dom = spec.N, spec.dom
    one = dom.split(dom.one)[0]  # 1 over QQ, the field's one elsewhere
    out = []
    for d in range(maxdeg + 1):
        rows, basis = conditions_matrix(spec, d)
        polys = [LaurentPoly._make(N, dom, {basis[c]: n for c, n in nums.items()}, den)
                 for nums, den in nullspace(rows, len(basis), one)]
        if polys and not check_member(spec, _tagged(polys)):
            raise AssertionError(f"solver output fails raw conditions at degree {d}")
        out.append(polys)
    return GradedBasis(spec, out)


def freeness_numerator(dims, N):
    """Coefficients of series * prod_{i=1}^N (1 - t^i) up to the degree of
    dims, with a negativity flag.

    A negative coefficient obstructs freeness over the symmetric
    polynomials.
    """
    numer = list(dims)
    for i in range(1, N + 1):
        for k in range(len(numer) - 1, i - 1, -1):
            numer[k] -= numer[k - i]
    return numer, any(c < 0 for c in numer)


def expected_twisted_series(Ns, m, shapes, truncation):
    """t^{m(N(N-1)/2 - sum cont)} * prod_r K_{pi_r}(t)/prod(1-t^i), truncated.

    Ns: the multiplicities (N_1..N_l) of the distinct weights; shapes: one
    partition of N_r per group.
    """
    N = sum(Ns)
    shift = m * (N * (N - 1) // 2 - sum(content_sum(s) for s in shapes))
    series = [0] * (truncation + 1)
    if shift > truncation:
        return series
    acc = [0] * (truncation + 1)
    acc[0] = 1
    for Nr, shape in zip(Ns, shapes):
        if sum(shape) != Nr:
            raise ValueError("shape does not match group size")
        h = series_mul(
            kostka_polynomial(shape), invariants_series(Nr, truncation), truncation
        )
        acc = series_mul(acc, h, truncation)
    for d, c in enumerate(acc):
        if d + shift <= truncation:
            series[d + shift] = c
    return series


# ---------------------------------------------------------------------------
# symmetry-split series (for the h_+ / h_- refinement)

def graded_basis_with_symmetry(spec, maxdeg, i, j, sign):
    """The dimensions, degree by degree up to maxdeg, of the subspace where
    swapping X_i, X_j acts by the given sign: the number of columns less
    the rank of the condition rows and the rows F - sign s_ij F = 0.  No
    kernel vector is built."""
    out = []
    for d in range(maxdeg + 1):
        rows, basis = conditions_matrix(spec, d)
        col = {e: k for k, e in enumerate(basis)}
        # add rows F - sign * s_ij F = 0
        for e in basis:
            se = list(e)
            se[i - 1], se[j - 1] = se[j - 1], se[i - 1]
            se = tuple(se)
            if se < e:
                continue
            row = [spec.dom.zero] * len(basis)
            row[col[e]] = spec.dom.one
            if se == e:
                if sign < 0:
                    rows.append(row)
                continue
            row[col[se]] = row[col[se]] - spec.dom.coerce(sign)
            rows.append(row)
        out.append(len(basis) - matrix_rank(rows, len(basis)))
    return out


# ---------------------------------------------------------------------------
# flatness protocols

def flatness_report(spec, maxdeg, seeds):
    """Compare the dimension sequences of the space of spec (at q = 1) up to
    maxdeg with those of dataclasses.replace(spec, q=q) at seeds sampled
    generic q.  A q-deformable variant, q = 1 and seeds >= 1 are required
    (ValueError otherwise): with no draw the report would pass having
    checked nothing."""
    from .scalars import sample_generic

    if spec.variant not in (PLAIN_Q, CYC, TWISTED_Q):
        raise ValueError("flatness protocol needs a q-deformable variant")
    if spec.q != 1:
        raise ValueError(f"q must be 1 in the reference space, got {spec.q}")
    if seeds < 1:
        raise ValueError(f"seeds must be at least 1, got {seeds}")
    reference = graded_basis(spec, maxdeg).dims()
    runs = []
    for s in range(seeds):
        vals = sample_generic(
            ["q"], [("nonzero", "q"), ("not_root_of_unity", "q", 24)], seed=1000 + s
        )
        q = vals["q"]
        dims = graded_basis(replace(spec, q=q), maxdeg).dims()
        runs.append({"q": str(q), "dims": dims, "match": dims == reference})
    return {
        "variant": spec.variant,
        "N": spec.N,
        "m": spec.m,
        "reference_dims": reference,
        "runs": runs,
        "all_match": all(run["match"] for run in runs),
    }
