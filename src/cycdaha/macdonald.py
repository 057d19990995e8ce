"""The commuting-operator layer: conjugated Y-operators Y_i(f), the finite
Hecke symmetrizer, the first Macdonald difference operator, and the
symmetric Hamiltonians built from elementary symmetric functions of the
commuting families.

The family is Y_i(f) = Y_i T_{i-1}^-1...T_1^-1 f(X_1^-1) T_1...T_{i-1}.
y_f builds it, for i >= 2, as the telescoped product
tb^(N-1) T_i^-1...T_{N-1}^-1 omega f(X_1^-1) T_1...T_{i-1}, the same
operator: Y_i = tb^(N-1) T_i^-1...T_{N-1}^-1 omega T_1...T_{i-1} ends in
T_1...T_{i-1}, which cancels the conjugators T_{i-1}^-1...T_1^-1.

The Macdonald operator has rational coefficients in X.  It is evaluated in
Macdonald's form V^-1 sum_j V(X_j -> t X_j) tau_j, V the Vandermonde: the
numerator is built from the one polynomial V, and divided by one
X_a - X_b at a time, so everything stays inside the Laurent ring.
"""

from __future__ import annotations

import itertools

from .laurent import LaurentPoly
from .ops import (
    FAMILY_DAHA,
    FamilyMismatch,
    Gen,
    OperatorExpr,
    _permutations_with_words,
    op_equal_on_box,
    word_product,
)
from .scalars import QQ, ParameterDegenerate, field_of
from .tableaux import partitions


class InputNotSymmetric(Exception):
    pass


# ---------------------------------------------------------------------------
# Hecke symmetrizer

def hecke_symmetrizer_expr(rep):
    """e = (sum_w tb^len(w) T_w) / (sum_w t^len(w)) as an OperatorExpr.

    Normalized so that T_i e = tb * e = e T_i and e^2 = e; fixes symmetric
    polynomials.  Raises ParameterDegenerate when sum_w t^len(w) vanishes.
    """
    tb = rep.params["tb"]
    t = rep.params["t"]
    total = rep.dom.zero
    expr = OperatorExpr.zero()
    for word in _permutations_with_words(rep.N, "T").values():
        total = total + t ** len(word)
        expr = expr + OperatorExpr.word(word, tb ** len(word))
    if not total:
        raise ParameterDegenerate("Hecke symmetrizer undefined: sum_w t^l(w) = 0")
    return (1 / total) * expr


# ---------------------------------------------------------------------------
# rational-coefficient difference operators

def apply_macdonald_operator(N, q, t, p, dom=QQ, subtract_one=False):
    """Apply M = sum_j A_j shift_j, A_j = prod_{i != j} (X_i - t X_j)/(X_i - X_j).

    shift_j is tau_j (X_j -> q X_j); with subtract_one the factor becomes
    (1/X_j)(tau_j - 1) instead, which is the level-one Hamiltonian.
    Macdonald's form of the operator (Symmetric Functions and Hall
    Polynomials, 2nd ed., VI (3.4)) is M = V^-1 sum_j V(X_j -> t X_j) shift_j
    for the Vandermonde V = prod_{a<b} (X_a - X_b): X_j -> t X_j turns the
    factor X_a - X_j into X_a - t X_j and X_j - X_b into t X_j - X_b, and
    fixes the factors without X_j, so V(X_j -> t X_j)/V = A_j.  V is built
    once; the numerator sum_j V(X_j -> t X_j) shift_j p is divided by each
    X_a - X_b in turn (LaurentPoly.divide_by_difference).  These factors are
    pairwise non-associate primes of the Laurent ring, a UFD, so every
    division succeeds exactly when V divides the numerator.  Raises
    NotDivisible when the result is not a Laurent polynomial (it always is
    on symmetric inputs, and on q-deformed quasiinvariants at t = q^-m).
    """
    q = dom.coerce(q)
    t = dom.coerce(t)
    if p.N != N:
        raise ValueError("rank mismatch")
    pairs = list(itertools.combinations(range(1, N + 1), 2))
    V = LaurentPoly.one(N, dom)
    for a, b in pairs:
        V = V * (LaurentPoly.variable(N, a, dom) - LaurentPoly.variable(N, b, dom))
    total = LaurentPoly.zero(N, dom)
    for j in range(1, N + 1):
        shifted = p.scale_var(j, q)
        if subtract_one:
            shifted = (shifted - p).shift(tuple(-1 if v == j - 1 else 0 for v in range(N)))
        total = total + V.scale_var(j, t) * shifted
    for a, b in pairs:
        total = total.divide_by_difference(a, b)
    return total


def macdonald_M1(rep, p):
    """The first Macdonald operator on a symmetric Laurent polynomial."""
    if not p.is_symmetric():
        raise InputNotSymmetric("macdonald_M1 requires symmetric input")
    return apply_macdonald_operator(
        rep.N, rep.params["q"], rep.params["t"], p, rep.dom
    )


def M1_l1(rep, p):
    """The level-one Hamiltonian: sum_j prod((X_i-tX_j)/(X_i-X_j)) X_j^-1 (tau_j - 1)."""
    if not p.is_symmetric():
        raise InputNotSymmetric("M1_l1 requires symmetric input")
    return apply_macdonald_operator(
        rep.N, rep.params["q"], rep.params["t"], p, rep.dom, subtract_one=True
    )


# ---------------------------------------------------------------------------
# the commuting families

def y_f(rep, i, f_coeffs):
    """Y_i(f) = Y_i T_{i-1}^-1...T_1^-1 f(X_1^-1) T_1...T_{i-1}, for
    1 <= i <= N on a daha representation; any other i raises ValueError,
    and any other family FamilyMismatch.

    f_coeffs are the coefficients of f, low-degree first; f(X_1^-1) expands
    as a polynomial in X_1^-1.  For i >= 2 the expression is the telescoped
    product tb^(N-1) T_i^-1...T_{N-1}^-1 omega f(X_1^-1) T_1...T_{i-1}:
    Y_i = tb^(N-1) T_i^-1...T_{N-1}^-1 omega T_1...T_{i-1}, whose trailing
    T_1...T_{i-1} cancels the conjugators T_{i-1}^-1...T_1^-1.  For i = 1 it
    is Y_1 f(X_1^-1), and for constant f it is f(0) Y_i.
    """
    if rep.family != FAMILY_DAHA:
        raise FamilyMismatch(f"Y_i(f) not available in family {rep.family!r}")
    if not 1 <= i <= rep.N:
        raise ValueError(f"Y_i(f) needs 1 <= i <= N = {rep.N}, got i = {i}")
    if all(not c for c in f_coeffs[1:]):
        # constant f: the conjugators cancel
        return OperatorExpr.word([Gen("Y", i)], f_coeffs[0] if f_coeffs else 0)
    # for i >= 2, tb^(N-1) rides on the coefficients of f(X_1^-1), so no
    # separate pass scales the image
    scale = rep.params["tb"] ** (rep.N - 1) if i > 1 else 1
    fX = OperatorExpr({(Gen("X^-1", 1),) * d: scale * c for d, c in enumerate(f_coeffs) if c})
    if i == 1:
        return OperatorExpr.gen("Y", 1) * fX
    left = [*(Gen("T^-1", r) for r in range(i, rep.N)), Gen("omega")]
    right = [Gen("T", r) for r in range(1, i)]
    return OperatorExpr.word(left) * fX * OperatorExpr.word(right)


def dunkl_family(rep):
    """The commuting q-Dunkl operators D_i^(l) as expressions."""
    return [OperatorExpr.gen("Dl", i) for i in range(1, rep.N + 1)]


def y_family(rep, f_coeffs):
    return [y_f(rep, i, f_coeffs) for i in range(1, rep.N + 1)]


def elementary_symmetric(exprs, r):
    """e_r of a list of pairwise commuting operator expressions."""
    out = OperatorExpr.zero()
    for subset in itertools.combinations(exprs, r):
        out = out + word_product(list(subset))
    return out


def poly_from_roots(roots):
    """Coefficients (low-first) of prod (X - Z_i), over the field of the roots."""
    dom = field_of(*roots)
    coeffs = [dom.coerce(1)]
    for z in roots:
        z = dom.coerce(z)
        new = [dom.coerce(0)] * (len(coeffs) + 1)
        for d, c in enumerate(coeffs):
            new[d + 1] = new[d + 1] + c
            new[d] = new[d] - c * z
        coeffs = new
    return coeffs


class SymmetricOperator:
    """A named operator expression meant to preserve symmetric polynomials."""

    def __init__(self, rep, expr, name):
        self.rep = rep
        self.expr = expr
        self.name = name

    def apply(self, p):
        return self.rep.apply(self.expr, p)

    def certify(self, maxdeg):
        """Check that symmetric inputs of degree <= maxdeg map to symmetric
        outputs."""
        return all(self.apply(p).is_symmetric() for p in symmetric_basis(self.rep, maxdeg))


def symmetric_basis(rep, maxdeg):
    """Monomial symmetric polynomials m_lambda with |lambda| <= maxdeg."""
    dom, N = rep.dom, rep.N
    out = [LaurentPoly.one(N, dom)]
    for total in range(1, maxdeg + 1):
        for lam in [p for p in partitions(total) if len(p) <= N]:
            mono = {}
            for perm in set(itertools.permutations(lam + (0,) * (N - len(lam)))):
                mono[perm] = dom.coerce(1)
            out.append(LaurentPoly(N, dom, mono))
    return out


def hamiltonian(rep, r, f_coeffs, dual=False):
    """The symmetric Hamiltonian e_r of the commuting family, times the
    Hecke symmetrizer.

    dual=False builds e_r(Y_1(f),...,Y_N(f)) e; dual=True builds the
    involution-side family e_r(D_1,...,D_N) e from the q-Dunkl operators
    (whose f is fixed by the representation's Z parameters).  Commutativity
    of the family is asserted on a small box first.
    """
    if not 1 <= r <= rep.N:
        raise ValueError("need 1 <= r <= N")
    family = dunkl_family(rep) if dual else y_family(rep, f_coeffs)
    for a, b in itertools.combinations(family, 2):
        if not op_equal_on_box(rep, a * b, b * a, 1)["result"]:
            raise AssertionError("family is not commuting; aborting Hamiltonian assembly")
    expr = elementary_symmetric(family, r) * hecke_symmetrizer_expr(rep)
    return SymmetricOperator(rep, expr, name=f"M_{r}{'(dual)' if dual else ''}")
