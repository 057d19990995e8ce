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
(l, a, q, M), where q^(1/M) raised to integer powers gives the weights
q^(p a_i):

* PLAIN_Q   -- q-deformed quasiinvariants: l = 1, a = 0, any q, M = 1.
* CYC       -- cyclotomic quasiinvariants for the wreath product S_N wr Z/l:
               l >= 1, a = 0, any q (the deformation base 'bold q'), M = 1,
               weights m_1..m_{l-1} of the projector conditions.
* TWISTED   -- monomial-weight-twisted quasiinvariants: l = 1, rational a,
               q = 1, M = 1; order-(2m+1) vanishing is encoded through
               generalized binomial series in (1+u)^a.
* TWISTED_Q -- the q-deformation of TWISTED: l = 1, rational a, M the common
               denominator of the a_i, and q stores the base parameter
               qq = q^(1/M).

Every basis element returned by graded_basis is re-verified against the raw
conditions by a direct checker that does not share code with the row
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .laurent import LaurentPoly, one_plus_u_power
from .linalg import nullspace
from .scalars import QQ, CycloField
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


class ParameterDegenerate(Exception):
    pass


@dataclass
class QuasiSpec:
    """Parameters of one quasiinvariant space.

    For PLAIN_Q: N, m, q (q = 1 selects the classical order-vanishing form).
    For CYC: N, m, l >= 1, mlist (m_1..m_{l-1}; missing entries are 0), q.
    For TWISTED: N, m, a (N rational weights).
    For TWISTED_Q: N, m, a, q, where q must be supplied as qq**M for the
    common denominator M of the a_i (qq is stored).

    Construction fixes what conditions_matrix reads: l (1 unless CYC), the
    weights a (zeros unless twisted) and common_denominator M (1 unless
    TWISTED_Q).  A space the variant cannot mean raises ValueError with a
    message that starts with the offending parameter's name.
    """

    variant: str
    N: int
    m: int
    l: int = 1
    mlist: tuple = ()
    q: Fraction = Fraction(1)
    a: tuple = ()
    dom: object = field(default=None)

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
        self.dom = self.dom or (QQ if self.l <= 2 else CycloField(self.l))
        self.common_denominator = (
            lcm(*(x.denominator for x in self.a)) if self.variant == TWISTED_Q else 1
        )
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

def _zeta_power(dom, r):
    if isinstance(dom, CycloField):
        return dom.zeta ** r
    # l <= 2 over QQ: zeta_1 = 1, zeta_2 = -1
    return dom.coerce((-1) ** r)


def conditions_matrix(spec, d):
    """Rows of the exact linear system whose null space is the degree-d
    component, together with the monomial basis indexing the columns.

    For each pair i < j, twist r < l and basis monomial F, with
    g = g_r F and K = 2m:

    * q = 1: the coefficients of u^0..u^K in F (1+u)^{a_i} - g (1+u)^{a_j}
      at x_i = zeta^r x_j (1+u), one block of rows per power of u;
    * q != 1: q^{p a_i M} F - q^{p a_j M} g at x_i = zeta^r q^{pM} x_j, one
      block per 0 < |p| <= m (p = 0 holds by antisymmetry).

    The projector rows come last; for l = 1 there are none.
    """
    basis = degree_monomials(spec.N, d)
    dom, l, K, M, q = spec.dom, spec.l, 2 * spec.m, spec.common_denominator, spec.q
    monomials = [LaurentPoly.monomial(spec.N, e, 1, dom) for e in basis]
    rows = []

    def add_rows_from_images(images):
        """images: per-basis-monomial output polynomial; rows indexed by the
        union of output monomials."""
        support = {}
        for img in images:
            for e in img.terms:
                support.setdefault(e, len(support))
        block = [[dom.zero] * len(basis) for _ in range(len(support))]
        for bi, img in enumerate(images):
            for e, c in img.terms.items():
                block[support[e]][bi] = c
        rows.extend(r for r in block if any(r))

    for i in range(1, spec.N + 1):
        for j in range(i + 1, spec.N + 1):
            ai, aj = spec.a[i - 1], spec.a[j - 1]
            for r in range(l):
                zr = _zeta_power(dom, r)
                reflect = {i: (zr, j), j: (_zeta_power(dom, -r % l), i)}
                pairs = [(F, F.substitute(reflect)) for F in monomials]
                if q == 1:
                    wi, wj = one_plus_u_power(ai, K), one_plus_u_power(aj, K)

                    def expand(G, w):
                        return (
                            G.scale_var(i, zr)
                            .series_on_hyperplane(j, i, K)
                            .scale_by_scalar_series(w)
                        )

                    series = [(expand(F, wi) - expand(g, wj)).coeffs for F, g in pairs]
                    for order in range(K + 1):
                        add_rows_from_images([s[order] for s in series])
                else:
                    for p in range(-spec.m, spec.m + 1):
                        if p == 0:
                            continue
                        wi = dom.coerce(q ** int(p * ai * M))
                        wj = dom.coerce(q ** int(p * aj * M))
                        at = {i: (zr * dom.coerce(q ** (p * M)), j)}
                        add_rows_from_images(
                            [(F * wi - g * wj).substitute(at) for F, g in pairs]
                        )
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

    Uses exact division by the full hyperplane products (or series
    expansion) on the concrete polynomial, independent of the row builder.
    """
    dom = spec.dom
    N = spec.N

    if spec.variant == PLAIN_Q:
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                g = F - F.swap(i, j)
                if not g:
                    continue
                if spec.q == 1:
                    ser = g.series_on_hyperplane(i, j, 2 * spec.m)
                    if any(ser.coeffs[: 2 * spec.m + 1]):
                        return False
                else:
                    div = LaurentPoly.one(N, dom)
                    Xi = LaurentPoly.variable(N, i, dom)
                    Xj = LaurentPoly.variable(N, j, dom)
                    for p_exp in range(-spec.m, spec.m + 1):
                        div = div * (Xi - Xj * dom.coerce(spec.q ** p_exp))
                    try:
                        g.exact_divide(div)
                    except Exception:
                        return False
        return True

    if spec.variant == CYC:
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                for r in range(spec.l):
                    zr = _zeta_power(dom, r)
                    zr_inv = _zeta_power(dom, (spec.l - r) % spec.l)
                    g = F - F.substitute({i: (zr, j), j: (zr_inv, i)})
                    if not g:
                        continue
                    if spec.q == 1:
                        h = g.scale_var(i, zr)
                        ser = h.series_on_hyperplane(j, i, 2 * spec.m)
                        if any(ser.coeffs[: 2 * spec.m + 1]):
                            return False
                    else:
                        div = LaurentPoly.one(N, dom)
                        xi = LaurentPoly.variable(N, i, dom)
                        xj = LaurentPoly.variable(N, j, dom)
                        for p_exp in range(-spec.m, spec.m + 1):
                            c = zr * dom.coerce(spec.q ** p_exp)
                            div = div * (xi - xj * c)
                        try:
                            g.exact_divide(div)
                        except Exception:
                            return False
        for i in range(1, N + 1):
            for r in range(1, spec.l):
                m_r = spec.mlist[r - 1] if len(spec.mlist) >= r else 0
                bound = r + m_r * spec.l
                for e in F.terms:
                    if e[i - 1] % spec.l == r and e[i - 1] < bound:
                        return False
        return True

    if spec.variant == TWISTED:
        K = 2 * spec.m
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                wi = one_plus_u_power(spec.a[i - 1], K)
                wj = one_plus_u_power(spec.a[j - 1], K)
                s1 = F.series_on_hyperplane(i, j, K).scale_by_scalar_series(wj)
                s2 = (
                    F.swap(i, j)
                    .series_on_hyperplane(i, j, K)
                    .scale_by_scalar_series(wi)
                )
                if any((s1 - s2).coeffs[: K + 1]):
                    return False
        return True

    if spec.variant == TWISTED_Q:
        M = spec.common_denominator
        qq = spec.q
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                ai, aj = spec.a[i - 1], spec.a[j - 1]
                for p_exp in range(-spec.m, spec.m + 1):
                    if p_exp == 0:
                        continue
                    qp = qq ** (p_exp * M)
                    ei, ej = p_exp * ai * M, p_exp * aj * M
                    assert ei.denominator == 1 and ej.denominator == 1
                    lhs = F.substitute({i: (qp, j)}) * (qq ** int(ei))
                    rhs = F.swap(i, j).substitute({i: (qp, j)}) * (qq ** int(ej))
                    if lhs != rhs:
                        return False
        return True

    raise ValueError(f"unknown variant {spec.variant!r}")


# ---------------------------------------------------------------------------
# graded bases and series

@dataclass
class GradedBasis:
    spec: QuasiSpec
    degrees: list  # list of lists of LaurentPoly

    def dims(self):
        return [len(d) for d in self.degrees]


def graded_basis(spec, maxdeg):
    """Exact degree-wise bases up to maxdeg, re-verified post-solve."""
    out = []
    for d in range(maxdeg + 1):
        rows, basis = conditions_matrix(spec, d)
        if rows:
            vecs = nullspace(rows, len(basis), field_one=spec.dom.one)
        else:
            vecs = [
                [spec.dom.one if i == k else spec.dom.zero for i in range(len(basis))]
                for k in range(len(basis))
            ]
        polys = []
        for v in vecs:
            terms = {}
            for e, c in zip(basis, v):
                if c:
                    terms[e] = c
            F = LaurentPoly(spec.N, spec.dom, terms)
            if not check_member(spec, F):
                raise AssertionError(
                    f"solver output fails raw conditions at degree {d}"
                )
            polys.append(F)
        out.append(polys)
    return GradedBasis(spec, out)


def freeness_numerator(dims, N, truncation=None):
    """Coefficients of series * prod_{i=1}^N (1 - t^i), with a negativity flag.

    A negative coefficient within the valid truncation obstructs freeness
    over the symmetric polynomials.
    """
    if truncation is None:
        truncation = len(dims) - 1
    truncation = min(truncation, len(dims) - 1)
    poly = [1]
    for i in range(1, N + 1):
        new = [0] * (len(poly) + i)
        for d, c in enumerate(poly):
            new[d] += c
            new[d + i] -= c
        poly = new
    numer = [0] * (truncation + 1)
    for k in range(truncation + 1):
        acc = 0
        for d, c in enumerate(poly):
            if d > k:
                break
            if c:
                acc += c * dims[k - d]
        numer[k] = acc
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


def kostka(shape, truncation=None):
    """Kostka polynomial coefficients (charge statistic); optionally padded."""
    k = kostka_polynomial(tuple(shape))
    if truncation is not None:
        k = (k + [0] * (truncation + 1))[: truncation + 1]
    return k


# ---------------------------------------------------------------------------
# symmetry-split series (for the h_+ / h_- refinement)

def graded_basis_with_symmetry(spec, maxdeg, i, j, sign):
    """Basis of the subspace where swapping X_i, X_j acts by the given sign."""
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
        vecs = nullspace(rows, len(basis), field_one=spec.dom.one) if rows else []
        out.append(len(vecs))
    return out


# ---------------------------------------------------------------------------
# flatness protocols

def flatness_report(variant, N, m, maxdeg, seeds, l=1, mlist=(), a=()):
    """Compare dimension sequences at sampled generic q against q = 1; the
    q = 1 reference of TWISTED_Q is the TWISTED space."""
    from .scalars import sample_generic

    if variant not in (PLAIN_Q, CYC, TWISTED_Q):
        raise ValueError("flatness protocol needs a q-deformable variant")

    def spec(q):
        at_q = TWISTED if variant == TWISTED_Q and q == 1 else variant
        return QuasiSpec(at_q, N, m, l=l, mlist=mlist, q=q, a=a)

    reference = graded_basis(spec(1), maxdeg).dims()
    runs = []
    all_match = True
    for s in range(seeds):
        vals = sample_generic(
            ["q"], [("nonzero", "q"), ("not_root_of_unity", "q", 24)], seed=1000 + s
        )
        q = vals["q"]
        dims = graded_basis(spec(q), maxdeg).dims()
        match = dims == reference
        all_match &= match
        runs.append({"q": str(q), "dims": dims, "match": match})
    return {
        "variant": variant,
        "N": N,
        "m": m,
        "reference_dims": reference,
        "runs": runs,
        "all_match": all_match,
    }
