"""Operator engine: algebra generators acting exactly on Laurent polynomials.

Three representation families are supported, each acting on
P = K[X_1^{+-1}, ..., X_N^{+-1}]:

* "daha":  Hecke generators T_i act by t*s_i + (t - 1/t)/(X_i/X_{i+1} - 1)(s_i - 1),
  X_i by multiplication, and Y_i through the factorization
  Y_i = tb^(N-1) * T_i^-1...T_{N-1}^-1 * omega * T_1...T_{i-1} with
  (omega f)(X_1,...,X_N) = f(q X_N, X_1, ..., X_{N-1}).  Derived generators:
  pi = X_1 T_1...T_{N-1}, pi_- = pi^-1 (Y_1-Z_1)...(Y_1-Z_l), and the
  q-deformed Dunkl operators Dl_i built from X_1^-1 (Y_1-Z_1)...(Y_1-Z_l).

* "deg": the degenerate (trigonometric) family with permutations s_i,
  rational Dunkl operators D_i = hbar*d_i - sum_j k/(X_i-X_j)(1-s_ij),
  trigonometric Dunkl operators y_i = X_i D_i - k sum_{j<i} s_ij,
  pi = X_1 s_1...s_{N-1}, s_0 = s_1N X_1^-1 X_N, and the degenerate
  Dl_i = s_1i X_1^-1 (y_1-z_1)...(y_1-z_l) s_1i.

* "cyc": the cyclotomic rational Cherednik family for S_N wr Z/l over
  Q(zeta_l), with variable scalings sigma_i and Dunkl-Opdam operators DO_i.

Operator words act right-to-left (the rightmost generator applies first).
Per-generator images of monomials are cached on the representation; caching
is semantically invisible because representations are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .laurent import LaurentPoly
from .scalars import QQ, CycloField

FAMILY_DAHA = "daha"
FAMILY_DEG = "deg"
FAMILY_CYC = "cyc"


class FamilyMismatch(Exception):
    """Generator not defined in this representation family."""


@dataclass(frozen=True)
class Gen:
    """A named generator; i, j are 1-based variable indices where used."""

    tag: str
    i: int = 0
    j: int = 0

    def __repr__(self):
        if self.j:
            return f"{self.tag}({self.i},{self.j})"
        if self.i:
            return f"{self.tag}{self.i}"
        return self.tag


# generator tags by family
_DAHA_TAGS = {"T", "T^-1", "X", "X^-1", "Y", "Y^-1", "omega", "omega^-1",
              "tau", "pi", "pi^-1", "pi-", "Dl", "s"}
_DEG_TAGS = {"s", "s0", "sij", "X", "X^-1", "D", "Dtrig", "y", "pi", "pi^-1",
             "pi-", "Dl", "tau"}
_CYC_TAGS = {"s", "sij", "X", "X^-1", "sigma", "sigma^-1", "DO", "tau"}

_FAMILY_TAGS = {FAMILY_DAHA: _DAHA_TAGS, FAMILY_DEG: _DEG_TAGS, FAMILY_CYC: _CYC_TAGS}


class OperatorExpr:
    """Formal linear combination of words in generators.

    terms: dict mapping word tuples to scalar coefficients.  Purely
    syntactic; evaluation is linear and words compose right-to-left.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @classmethod
    def word(cls, gens, coeff=1):
        return cls({tuple(gens): coeff})

    @classmethod
    def gen(cls, tag, i=0, j=0):
        return cls.word([Gen(tag, i, j)])

    @classmethod
    def scalar(cls, c):
        return cls({(): c})

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            other = OperatorExpr.scalar(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return OperatorExpr(out)

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            other = OperatorExpr.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """Operator product: words concatenate (self acts after other)."""
        if not isinstance(other, OperatorExpr):
            return OperatorExpr({w: c * other for w, c in self.terms.items()})
        out = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                c = c1 * c2
                s = out.get(w)
                s = c if s is None else s + c
                if s:
                    out[w] = s
                elif w in out:
                    del out[w]
        return OperatorExpr(out)

    def __rmul__(self, other):
        # scalar * expr
        return OperatorExpr({w: other * c for w, c in self.terms.items()})

    def __pow__(self, n):
        out = OperatorExpr.one()
        for _ in range(n):
            out = out * self
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def gens(self):
        for w in self.terms:
            yield from w

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.terms.items():
            word = " ".join(repr(g) for g in w) if w else "1"
            bits.append(f"({c})*[{word}]")
        return " + ".join(bits)


def word_product(exprs):
    """Product of a list of OperatorExprs, left to right."""
    out = OperatorExpr.one()
    for e in exprs:
        out = out * e
    return out


class Rep:
    """A representation context: family, rank, level, parameter values.

    Immutable after construction; all generator applications are exact and
    memoized per monomial.
    """

    def __init__(self, family, N, l=0, params=None, dom=QQ):
        self.family = family
        self.N = N
        self.l = l
        self.params = dict(params or {})
        self.dom = dom
        self._cache = {}
        if family == FAMILY_DAHA:
            tb = self.params["tb"]
            self.params.setdefault("t", tb * tb)
            if self.params["t"] != tb * tb:
                raise ValueError("t must equal tb^2")

    # -- constructors -------------------------------------------------------

    @classmethod
    def daha(cls, N, q, tb, Z=()):
        q, tb = Fraction(q), Fraction(tb)
        Z = tuple(Fraction(z) for z in Z)
        return cls(FAMILY_DAHA, N, len(Z), {"q": q, "tb": tb, "Z": Z})

    @classmethod
    def degenerate(cls, N, hbar, k, z=()):
        z = tuple(Fraction(x) for x in z)
        return cls(FAMILY_DEG, N, len(z),
                   {"hbar": Fraction(hbar), "k": Fraction(k), "z": z})

    @classmethod
    def cyclotomic_cherednik(cls, N, l, hbar, k, c):
        dom = CycloField(l)
        c = tuple(dom.coerce(x) for x in c)
        if len(c) != l:
            raise ValueError("need l parameters c_0..c_{l-1}")
        return cls(FAMILY_CYC, N, l,
                   {"hbar": dom.coerce(hbar), "k": dom.coerce(k), "c": c}, dom)

    # -- basics -------------------------------------------------------------

    def zero(self):
        return LaurentPoly.zero(self.N, self.dom)

    def one(self):
        return LaurentPoly.one(self.N, self.dom)

    def var(self, i):
        return LaurentPoly.variable(self.N, i, self.dom)

    def monomial(self, exps, c=1):
        return LaurentPoly.monomial(self.N, exps, c, self.dom)

    def valid_gen(self, g):
        return g.tag in _FAMILY_TAGS[self.family]

    # -- application --------------------------------------------------------

    def apply_gen(self, g, p):
        """Apply one generator to a Laurent polynomial (exact, linear)."""
        if not self.valid_gen(g):
            raise FamilyMismatch(f"{g!r} not available in family {self.family!r}")
        cache = self._cache.get(g)
        if cache is None:
            cache = self._cache[g] = {}
        out = self.zero()
        for e, c in p.terms.items():
            img = cache.get(e)
            if img is None:
                img = self._apply_to_monomial(g, e)
                cache[e] = img
            out = out.addmul(img, c)
        return out

    def apply_word(self, word, p):
        for g in reversed(word):
            p = self.apply_gen(g, p)
        return p

    def apply(self, expr, p):
        """Apply an OperatorExpr (linear in the combination)."""
        if isinstance(expr, Gen):
            return self.apply_gen(expr, p)
        out = self.zero()
        for w, c in expr.terms.items():
            out = out.addmul(self.apply_word(w, p), c)
        return out

    # -- generator actions on a single monomial -----------------------------

    def _apply_to_monomial(self, g, e):
        p = self.monomial(e)
        return self._dispatch(g, p)

    def _dispatch(self, g, p):
        t = g.tag
        if t == "X":
            return p.shift(self._unit(g.i))
        if t == "X^-1":
            return p.shift(self._unit(g.i, -1))
        if t == "s":
            return p.swap(g.i, g.i + 1)
        if t == "sij":
            return p.swap(g.i, g.j)
        if t == "tau":
            return p.scale_var(g.i, self._q())

        if self.family == FAMILY_DAHA:
            return self._dispatch_daha(g, p)
        if self.family == FAMILY_DEG:
            return self._dispatch_deg(g, p)
        return self._dispatch_cyc(g, p)

    def _unit(self, i, v=1):
        e = [0] * self.N
        e[i - 1] = v
        return tuple(e)

    def _q(self):
        return self.params["q"] if self.family == FAMILY_DAHA else self.params.get("q", 1)

    # -- DAHA family --------------------------------------------------------

    def _tb(self):
        return self.params["tb"]

    def _demazure_part(self, i, p):
        """(s_i - 1)p / (X_i/X_{i+1} - 1)  =  (s_i p - p) X_{i+1} / (X_i - X_{i+1})."""
        num = (p.swap(i, i + 1) - p).shift(self._unit(i + 1))
        den = self.var(i) - self.var(i + 1)
        return num.exact_divide(den, verify=False)

    def _T(self, i, p):
        tb = self._tb()
        return p.swap(i, i + 1) * tb + self._demazure_part(i, p) * (tb - 1 / tb)

    def _omega(self, p, inverse=False):
        """(omega f)(X) = f(qX_N, X_1, ..., X_{N-1}); exponentwise a cycle."""
        q = self.params["q"]
        N = self.N
        out = {}
        if not inverse:
            # exponent vector e -> (e_2, ..., e_N, e_1), coefficient * q^{e_1}
            for e, c in p.terms.items():
                k = e[0]
                coef = c * (q ** k if k >= 0 else (1 / q) ** (-k)) if k else c
                out[e[1:] + (e[0],)] = coef
        else:
            for e, c in p.terms.items():
                k = e[-1]
                coef = c * ((1 / q) ** k if k >= 0 else q ** (-k)) if k else c
                out[(e[-1],) + e[:-1]] = coef
        return LaurentPoly(N, self.dom, out)

    def _Y(self, i, p, inverse=False):
        tb = self._tb()
        N = self.N
        if not inverse:
            # Y_i = tb^(N-1) T_i^-1...T_{N-1}^-1 omega T_1...T_{i-1};
            # rightmost factor acts first.
            for j in range(i - 1, 0, -1):
                p = self.apply_gen(Gen("T", j), p)
            p = self._omega(p)
            for j in range(N - 1, i - 1, -1):
                p = self.apply_gen(Gen("T^-1", j), p)
            return p * tb ** (N - 1)
        # Y_i^-1 = tb^(1-N) T_{i-1}^-1...T_1^-1 omega^-1 T_{N-1}...T_i
        for j in range(i, N):
            p = self.apply_gen(Gen("T", j), p)
        p = self._omega(p, inverse=True)
        for j in range(1, i):
            p = self.apply_gen(Gen("T^-1", j), p)
        return p * (1 / tb) ** (N - 1)

    def _Dl1(self, p):
        """X_1^-1 (Y_1 - Z_1)...(Y_1 - Z_l) applied to p."""
        for z in self.params["Z"]:
            p = self.apply_gen(Gen("Y", 1), p) - p * z
        return p.shift(self._unit(1, -1))

    def _dispatch_daha(self, g, p):
        t, i = g.tag, g.i
        N = self.N
        if t == "T":
            return self._T(i, p)
        if t == "T^-1":
            tb = self._tb()
            return self._T(i, p) - p * (tb - 1 / tb)
        if t == "Y":
            return self._Y(i, p)
        if t == "Y^-1":
            return self._Y(i, p, inverse=True)
        if t == "omega":
            return self._omega(p)
        if t == "omega^-1":
            return self._omega(p, inverse=True)
        if t == "pi":
            # X_1 T_1...T_{N-1}: rightmost acts first
            for j in range(N - 1, 0, -1):
                p = self.apply_gen(Gen("T", j), p)
            return p.shift(self._unit(1))
        if t == "pi^-1":
            p = p.shift(self._unit(1, -1))
            for j in range(1, N):
                p = self.apply_gen(Gen("T^-1", j), p)
            return p
        if t == "pi-":
            for z in self.params["Z"]:
                p = self.apply_gen(Gen("Y", 1), p) - p * z
            return self.apply_gen(Gen("pi^-1"), p)
        if t == "Dl":
            # T_{i-1}^-1 ... T_1^-1 Dl_1 T_1^-1 ... T_{i-1}^-1
            for j in range(i - 1, 0, -1):
                p = self.apply_gen(Gen("T^-1", j), p)
            p = self._Dl1(p)
            for j in range(1, i):
                p = self.apply_gen(Gen("T^-1", j), p)
            return p
        raise FamilyMismatch(f"{g!r} in family daha")

    # -- degenerate family --------------------------------------------------

    def _dunkl(self, i, p):
        """hbar * d_i - sum_{j != i} k/(X_i - X_j) (1 - s_ij)."""
        hbar, k = self.params["hbar"], self.params["k"]
        out = p.derivative(i) * hbar
        if k:
            for j in range(1, self.N + 1):
                if j == i:
                    continue
                num = p - p.swap(i, j)
                den = self.var(i) - self.var(j)
                out = out - num.exact_divide(den, verify=False) * k
        return out

    def _dispatch_deg(self, g, p):
        t, i = g.tag, g.i
        N = self.N
        k = self.params["k"]
        if t == "D":
            return self._dunkl(i, p)
        if t in ("Dtrig", "y"):
            out = self._dunkl(i, p).shift(self._unit(i))
            for j in range(1, i):
                out = out - p.swap(i, j) * k
            return out
        if t == "pi":
            for j in range(N - 1, 0, -1):
                p = p.swap(j, j + 1)
            return p.shift(self._unit(1))
        if t == "pi^-1":
            p = p.shift(self._unit(1, -1))
            for j in range(1, N):
                p = p.swap(j, j + 1)
            return p
        if t == "s0":
            # s_{1N} X_1^-1 X_N: multiply first, then swap
            e = [0] * N
            e[0] -= 1
            e[N - 1] += 1
            return p.shift(tuple(e)).swap(1, N)
        if t == "pi-":
            for z in self.params["z"]:
                p = self.apply_gen(Gen("y", 1), p) - p * z
            return self.apply_gen(Gen("pi^-1"), p)
        if t == "Dl":
            if i > 1:
                p = p.swap(1, i)
            for z in self.params["z"]:
                p = self.apply_gen(Gen("y", 1), p) - p * z
            p = p.shift(self._unit(1, -1))
            if i > 1:
                p = p.swap(1, i)
            return p
        raise FamilyMismatch(f"{g!r} in family deg")

    # -- cyclotomic Cherednik family ----------------------------------------

    def _dispatch_cyc(self, g, p):
        t, i = g.tag, g.i
        zeta = self.dom.zeta
        if t == "sigma":
            return p.scale_var(i, zeta)
        if t == "sigma^-1":
            return p.scale_var(i, zeta ** (self.l - 1))
        if t == "DO":
            return self._dunkl_opdam(i, p)
        raise FamilyMismatch(f"{g!r} in family cyc")

    def _dunkl_opdam(self, i, p):
        """hbar d_i - x_i^-1 sum_j c_j sigma_i^j
        - k sum_{r != i, m} (1 - s_ir sigma_i^m sigma_r^-m)/(x_i - zeta^m x_r)."""
        hbar, k, c = self.params["hbar"], self.params["k"], self.params["c"]
        l = self.l
        zeta = self.dom.zeta
        out = p.derivative(i) * hbar
        acc = self.zero()
        for j, cj in enumerate(c):
            if cj:
                acc = acc.addmul(p.scale_var(i, zeta ** j), cj)
        out = out - acc.shift(self._unit(i, -1))
        if k:
            for r in range(1, self.N + 1):
                if r == i:
                    continue
                for m in range(l):
                    # g = s_ir sigma_i^m sigma_r^-m: apply sigma_r^-m,
                    # then sigma_i^m, then the swap
                    gp = p.scale_var(r, zeta ** ((l - m) % l)).scale_var(i, zeta ** m).swap(i, r)
                    num = p - gp
                    den = self.var(i) - self.var(r) * (zeta ** m)
                    out = out - num.exact_divide(den, verify=False) * k
        return out


# ---------------------------------------------------------------------------
# operator equality testing

def box_monomials(N, B):
    return itertools.product(range(-B, B + 1), repeat=N)


def op_equal_on_box(rep, a, b, box_radius=None):
    """Compare two operator expressions on every monomial with exponents in
    [-B, B]^N.  Returns a report dict with a witness on failure.

    When box_radius is omitted the conservative default 2*(longest word)+2
    applies.  Equality on a box certifies representation-level equality at
    the given parameters; at generic parameters the polynomial
    representation is faithful, so this is the algebra-level claim being
    tested.
    """
    if box_radius is None:
        box_radius = default_box_radius(a, b)
    for e in box_monomials(rep.N, box_radius):
        p = rep.monomial(e)
        ia = rep.apply(a, p)
        ib = rep.apply(b, p)
        if ia != ib:
            return {
                "lhs": repr(a),
                "rhs": repr(b),
                "mode": "box",
                "B": box_radius,
                "result": False,
                "witness": {
                    "monomial": list(e),
                    "lhs_image": ia.to_json(),
                    "rhs_image": ib.to_json(),
                },
            }
    return {"lhs": repr(a), "rhs": repr(b), "mode": "box", "B": box_radius,
            "result": True}


def op_equal_randomized(rep, a, b, trials, seed, window=4, rebuild=None):
    """Compare on random monomials; with `rebuild` = (rep_builder,
    expr_builder) fresh generic parameters are drawn each trial."""
    rng = Random(seed)
    for trial in range(trials):
        if rebuild is not None:
            rep_builder, expr_builder = rebuild
            rep_t = rep_builder(rng.randrange(1 << 30))
            a_t, b_t = expr_builder(rep_t)
        else:
            rep_t, a_t, b_t = rep, a, b
        e = tuple(rng.randint(-window, window) for _ in range(rep_t.N))
        p = rep_t.monomial(e)
        ia = rep_t.apply(a_t, p)
        ib = rep_t.apply(b_t, p)
        if ia != ib:
            return {
                "lhs": repr(a),
                "rhs": repr(b),
                "mode": "random",
                "trials": trials,
                "result": False,
                "witness": {
                    "trial": trial,
                    "monomial": list(e),
                    "lhs_image": ia.to_json(),
                    "rhs_image": ib.to_json(),
                },
            }
    return {"lhs": repr(a), "rhs": repr(b), "mode": "random", "trials": trials,
            "result": True}


def default_box_radius(a, b):
    """Conservative default: 2 * (longest word length) + 2."""
    n = 0
    for expr in (a, b):
        for w in expr.terms:
            n = max(n, len(w))
    return 2 * n + 2


def _permutations_with_words(N, tag):
    """All of S_N as {permutation tuple: reduced word in Gen(tag, i)}, in
    breadth-first order (so by word length)."""
    start = tuple(range(1, N + 1))
    seen = {start: ()}
    frontier = [start]
    while frontier:
        new = []
        for perm in frontier:
            word = seen[perm]
            for i in range(1, N):
                q = list(perm)
                q[i - 1], q[i] = q[i], q[i - 1]
                q = tuple(q)
                if q not in seen:
                    seen[q] = word + (Gen(tag, i),)
                    new.append(q)
        frontier = new
    return seen
