"""Graded bases and Hilbert series of quasiinvariant spaces by exact linear
algebra.

Four variants are supported:

* PLAIN_Q   -- q-deformed quasiinvariants: (1 - s_ij)F divisible by
               prod_{p=-m}^{m} (X_i - q^p X_j).  At q = 1 the conditions
               switch to vanishing to order 2m+1 along X_i = X_j.
* CYC       -- cyclotomic quasiinvariants in variables x_i for the wreath
               product S_N wr Z/l: twisted-swap differences divisible by
               prod_p (x_i - zeta^r q^p x_j), plus homogeneous projector
               divisibility by powers of x_i.
* TWISTED   -- monomial-weight-twisted quasiinvariants: X^a F with rational
               exponents a_i, order-(2m+1) vanishing encoded through
               generalized binomial series in (1+u)^a.
* TWISTED_Q -- the q-deformation of TWISTED: the weight condition becomes
               q^{p a_i} F|_{X_i = q^p X_j} = q^{p a_j} (s_ij F)|_{X_i = q^p X_j},
               with fractional a_i handled through the base parameter
               qq = q^(1/M) for a common denominator M.

Every basis element returned by graded_basis is re-verified against the raw
conditions by a direct checker that does not share code with the row
builder.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

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


class ParameterDegenerate(Exception):
    pass


@dataclass
class QuasiSpec:
    """Parameters of one quasiinvariant space.

    For PLAIN_Q: N, m, q (q = 1 selects the classical order-vanishing form).
    For CYC: N, m, l, mlist (m_1..m_{l-1}), q (the deformation base 'bold q').
    For TWISTED: N, m, a (rational weights).
    For TWISTED_Q: N, m, a, q, where q must be supplied as qq**M for the
    common denominator M of the a_i (qq is stored).
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
        self.q = Fraction(self.q)
        self.a = tuple(Fraction(x) for x in self.a)
        if self.variant in (TWISTED, TWISTED_Q) and len(self.a) != self.N:
            raise ValueError(
                f"{self.variant} needs one weight per variable: N = {self.N}, "
                f"got {len(self.a)} weights"
            )
        if self.variant == CYC:
            self.dom = self.dom or (QQ if self.l <= 2 else CycloField(self.l))
        else:
            self.dom = self.dom or QQ
        if self.variant == TWISTED_Q:
            M = 1
            for x in self.a:
                M = M * x.denominator // gcd(M, x.denominator)
            self.common_denominator = M
        if self.variant in (PLAIN_Q, TWISTED_Q) and self.q != 1:
            # the 2m+1 hyperplanes X_i = q^p X_j must be distinct
            seen = set()
            for p in range(-self.m, self.m + 1):
                v = self.q ** p
                if v in seen:
                    raise ParameterDegenerate(f"q^p collision at |p| <= {self.m}")
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
    component, together with the monomial basis indexing the columns."""
    basis = degree_monomials(spec.N, d)
    col = {e: i for i, e in enumerate(basis)}
    dom = spec.dom
    rows = []

    def poly_of(e):
        return LaurentPoly.monomial(spec.N, e, 1, dom)

    def add_rows_from_images(images):
        """images: per-basis-monomial output polynomial; rows indexed by the
        union of output monomials."""
        support = {}
        for bi, img in enumerate(images):
            for e in img.terms:
                support.setdefault(e, len(support))
        block = [[dom.zero] * len(basis) for _ in range(len(support))]
        for bi, img in enumerate(images):
            for e, c in img.terms.items():
                block[support[e]][bi] = c
        rows.extend(r for r in block if any(r))

    if spec.variant == PLAIN_Q:
        for i in range(1, spec.N + 1):
            for j in range(i + 1, spec.N + 1):
                if spec.q == 1:
                    # order-(2m+1) vanishing along X_i = X_j
                    for r in range(2 * spec.m + 1):
                        images = []
                        for e in basis:
                            p = poly_of(e)
                            g = p - p.swap(i, j)
                            ser = g.series_on_hyperplane(i, j, 2 * spec.m)
                            images.append(ser.coeffs[r])
                        add_rows_from_images(images)
                else:
                    for p_exp in range(-spec.m, spec.m + 1):
                        if p_exp == 0:
                            continue  # automatic by antisymmetry
                        c = dom.coerce(spec.q ** p_exp)
                        images = []
                        for e in basis:
                            p = poly_of(e)
                            g = p - p.swap(i, j)
                            images.append(g.substitute({i: (c, j)}))
                        add_rows_from_images(images)
        return rows, basis

    if spec.variant == CYC:
        zl = spec.l
        for i in range(1, spec.N + 1):
            for j in range(i + 1, spec.N + 1):
                for r in range(zl):
                    zr = _zeta_power(dom, r)
                    zr_inv = _zeta_power(dom, (zl - r) % zl)
                    if spec.q == 1:
                        # vanishing to order 2m+1 along x_i = zeta^r x_j:
                        # substitute x_i -> zeta^r x_j (1+u)
                        for order in range(2 * spec.m + 1):
                            images = []
                            for e in basis:
                                p = poly_of(e)
                                g = p - p.substitute(
                                    {i: (zr, j), j: (zr_inv, i)}
                                )
                                # expand x_i = zeta^r x_j(1+u): first swap the
                                # roles so series helper applies: substitute
                                # x_i -> zeta^r * x_i and then x_i = x_j(1+u)
                                g = g.scale_var(i, zr)
                                ser = g.series_on_hyperplane(j, i, 2 * spec.m)
                                images.append(ser.coeffs[order])
                            add_rows_from_images(images)
                    else:
                        for p_exp in range(-spec.m, spec.m + 1):
                            if p_exp == 0:
                                continue
                            c = zr * dom.coerce(spec.q ** p_exp)
                            images = []
                            for e in basis:
                                p = poly_of(e)
                                g = p - p.substitute(
                                    {i: (zr, j), j: (zr_inv, i)}
                                )
                                images.append(g.substitute({i: (c, j)}))
                            add_rows_from_images(images)
        # projector divisibility: monomials with x_i-exponent congruent to r
        # mod l but smaller than r + m_r l are forbidden
        for i in range(1, spec.N + 1):
            for r in range(1, zl):
                m_r = spec.mlist[r - 1] if len(spec.mlist) >= r else 0
                bound = r + m_r * zl
                for e in basis:
                    if e[i - 1] % zl == r and e[i - 1] < bound:
                        row = [dom.zero] * len(basis)
                        row[col[e]] = dom.one
                        rows.append(row)
        return rows, basis

    if spec.variant == TWISTED:
        K = 2 * spec.m
        for i in range(1, spec.N + 1):
            for j in range(i + 1, spec.N + 1):
                wi = one_plus_u_power(spec.a[i - 1], K)
                wj = one_plus_u_power(spec.a[j - 1], K)
                for order in range(K + 1):
                    images = []
                    for e in basis:
                        p = poly_of(e)
                        s1 = p.series_on_hyperplane(i, j, K).scale_by_scalar_series(wj)
                        s2 = (
                            p.swap(i, j)
                            .series_on_hyperplane(i, j, K)
                            .scale_by_scalar_series(wi)
                        )
                        images.append(s1.coeffs[order] - s2.coeffs[order])
                    add_rows_from_images(images)
        return rows, basis

    if spec.variant == TWISTED_Q:
        M = spec.common_denominator
        qq = spec.q  # base parameter with q = qq**M
        for i in range(1, spec.N + 1):
            for j in range(i + 1, spec.N + 1):
                ai, aj = spec.a[i - 1], spec.a[j - 1]
                for p_exp in range(-spec.m, spec.m + 1):
                    if p_exp == 0:
                        continue
                    qp = qq ** (p_exp * M)
                    ei, ej = p_exp * ai * M, p_exp * aj * M
                    if ei.denominator != 1 or ej.denominator != 1:
                        raise ParameterDegenerate("weights not normalized by M")
                    wi = qq ** int(ei)
                    wj = qq ** int(ej)
                    images = []
                    for e in basis:
                        p = poly_of(e)
                        lhs = p.substitute({i: (qp, j)}) * wi
                        rhs = p.swap(i, j).substitute({i: (qp, j)}) * wj
                        images.append(lhs - rhs)
                    add_rows_from_images(images)
        return rows, basis

    raise ValueError(f"unknown variant {spec.variant!r}")


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
    """Compare dimension sequences at sampled generic q against q = 1."""
    from .scalars import sample_generic

    if variant == PLAIN_Q:
        base = QuasiSpec(PLAIN_Q, N, m, q=1)
    elif variant == CYC:
        base = QuasiSpec(CYC, N, m, l=l, mlist=mlist, q=1)
    elif variant == TWISTED_Q:
        base = QuasiSpec(TWISTED, N, m, a=a)
    else:
        raise ValueError("flatness protocol needs a q-deformable variant")
    reference = graded_basis(base, maxdeg).dims()
    runs = []
    all_match = True
    for s in range(seeds):
        vals = sample_generic(
            ["q"], [("nonzero", "q"), ("not_root_of_unity", "q", 24)], seed=1000 + s
        )
        q = vals["q"]
        if variant == PLAIN_Q:
            spec = QuasiSpec(PLAIN_Q, N, m, q=q)
        elif variant == CYC:
            spec = QuasiSpec(CYC, N, m, l=l, mlist=mlist, q=q)
        else:
            spec = QuasiSpec(TWISTED_Q, N, m, a=a, q=q)
        dims = graded_basis(spec, maxdeg).dims()
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
