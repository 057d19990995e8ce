"""Sparse multivariate Laurent polynomials over an exact coefficient domain.

A LaurentPoly is a dict from exponent tuples (length N, negative entries
allowed) to nonzero coefficients, plus a ring context (N, domain).  All
arithmetic is exact; the zero polynomial is the empty term map.  The
canonical term order used for display and serialization is graded
lexicographic, largest first.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import kernel as K
from .scalars import QQ, binomial_fraction


class NotDivisible(Exception):
    """Exact division failed; for operator combinations this signals a bug."""


class NonInvertibleScale(Exception):
    """A zero scale factor met a negative exponent in a substitution."""


def _glex_key(e):
    return (sum(e), e)


class LaurentPoly:
    __slots__ = ("N", "dom", "terms")

    def __init__(self, N, dom, terms=None):
        self.N = N
        self.dom = dom
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, N, dom=QQ):
        return cls(N, dom, {})

    @classmethod
    def const(cls, N, c, dom=QQ):
        c = dom.coerce(c)
        if not c:
            return cls(N, dom, {})
        return cls(N, dom, {(0,) * N: c})

    @classmethod
    def one(cls, N, dom=QQ):
        return cls.const(N, 1, dom)

    @classmethod
    def monomial(cls, N, exps, c=1, dom=QQ):
        c = dom.coerce(c)
        if not c:
            return cls(N, dom, {})
        return cls(N, dom, {tuple(exps): c})

    @classmethod
    def variable(cls, N, i, dom=QQ):
        """X_i, 1-based index."""
        e = [0] * N
        e[i - 1] = 1
        return cls.monomial(N, e, 1, dom)

    def _wrap(self, terms):
        return LaurentPoly(self.N, self.dom, terms)

    def _coerce_other(self, other):
        if isinstance(other, LaurentPoly):
            if other.N != self.N:
                raise ValueError("mixed ring contexts")
            return other
        try:
            return LaurentPoly.const(self.N, other, self.dom)
        except TypeError:
            return None

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self._wrap(K.terms_add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(K.terms_neg(self.terms))

    def __sub__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self._wrap(K.terms_sub(self.terms, o.terms))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.N != self.N:
                raise ValueError("mixed ring contexts")
            return self._wrap(K.terms_mul(self.terms, other.terms))
        try:
            c = self.dom.coerce(other)
        except TypeError:
            return NotImplemented
        return self._wrap(K.terms_scale(self.terms, c))

    __rmul__ = __mul__

    def addmul(self, other, c):
        """self + c*other, in one kernel pass."""
        return self._wrap(K.terms_addmul(self.terms, other.terms, self.dom.coerce(c)))

    def __pow__(self, n):
        if n < 0:
            if len(self.terms) == 1:
                ((e, c),) = self.terms.items()
                inv = self.dom.one / c
                return self._wrap({tuple(-x for x in e): inv}) ** (-n)
            raise ValueError("negative power of a non-monomial")
        out = LaurentPoly.one(self.N, self.dom)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.terms == o.terms

    def __hash__(self):
        return hash((self.N, tuple(sorted(self.terms.items(), key=lambda t: _glex_key(t[0])))))

    # -- structure ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _glex_key(t[0]), reverse=True)

    def coefficient(self, exps):
        return self.terms.get(tuple(exps), self.dom.zero)

    def is_polynomial(self):
        return all(min(e) >= 0 for e in self.terms) if self.terms else True

    # -- substitutions ------------------------------------------------------

    def _pow_cache(self, c):
        cache = {}
        dom = self.dom

        def cpows(k):
            v = cache.get(k)
            if v is None:
                if k >= 0:
                    v = c ** k
                else:
                    if not c:
                        raise NonInvertibleScale("zero scale with negative exponent")
                    v = (dom.one / c) ** (-k)
                cache[k] = v
            return v

        return cpows

    def scale_var(self, i, c):
        """Substitute X_i -> c*X_i (1-based i)."""
        c = self.dom.coerce(c)
        if not c and any(e[i - 1] < 0 for e in self.terms):
            raise NonInvertibleScale("zero scale with negative exponent")
        return self._wrap(K.terms_scale_var(self.terms, i - 1, c, self._pow_cache(c)))

    def permute(self, sigma):
        """Apply a permutation of the variables: X_i -> X_sigma(i).

        sigma is a dict or list giving sigma(i) for 1-based i.  The resulting
        polynomial q satisfies q(X_1,..,X_N) = p evaluated with each X_i
        replaced by X_sigma(i).
        """
        if isinstance(sigma, dict):
            full = {i: sigma.get(i, i) for i in range(1, self.N + 1)}
        else:
            full = {i: sigma[i - 1] for i in range(1, self.N + 1)}
        # output exponent at slot sigma(i)-1 comes from input slot i-1:
        # X_i^e contributes X_sigma(i)^e.
        inv = {full[i]: i for i in full}
        perm = tuple(inv[k + 1] - 1 for k in range(self.N))
        return self._wrap(K.terms_permute(self.terms, perm))

    def swap(self, i, j):
        """Exchange X_i and X_j (1-based)."""
        if i == j:
            return self
        return self.permute({i: j, j: i})

    def substitute(self, rules):
        """Apply per-variable rules X_i -> c * X_j  or  X_i -> c.

        rules maps 1-based variable indices to (c, j) with j a 1-based target
        index or None for a pure scalar substitution.  Unlisted variables map
        to themselves.  Raises NonInvertibleScale when c == 0 meets a
        negative exponent.
        """
        dom = self.dom
        coerced = {}
        for i, (c, j) in rules.items():
            coerced[i - 1] = (dom.coerce(c), None if j is None else j - 1)
        pow_caches = {i: self._pow_cache(c) for i, (c, _) in coerced.items()}
        out = {}
        for e, coef in self.terms.items():
            # rules act simultaneously: clear every substituted slot first,
            # then accumulate the transferred exponents
            new_e = list(e)
            for i in coerced:
                new_e[i] = 0
            c_acc = coef
            for i, (c, j) in coerced.items():
                k = e[i]
                if k == 0:
                    continue
                if not c and k < 0:
                    raise NonInvertibleScale("zero scale with negative exponent")
                c_acc = c_acc * pow_caches[i](k)
                if j is not None:
                    new_e[j] += k
                if not c_acc:
                    break
            if not c_acc:
                continue
            key = tuple(new_e)
            s = out.get(key)
            if s is None:
                out[key] = c_acc
            else:
                s = s + c_acc
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._wrap(out)

    def shift(self, delta):
        """Multiply by the monomial X^delta."""
        return self._wrap(K.terms_shift(self.terms, tuple(delta)))

    def derivative(self, i):
        """Formal partial derivative with respect to X_i (1-based)."""
        out = {}
        k = i - 1
        for e, c in self.terms.items():
            if e[k] == 0:
                continue
            new_e = list(e)
            new_e[k] -= 1
            v = c * e[k]
            if v:
                out[tuple(new_e)] = v
        return self._wrap(out)

    # -- exact division -----------------------------------------------------

    def exact_divide(self, d, verify=True):
        """Quotient q with self == q*d; raises NotDivisible otherwise."""
        if not isinstance(d, LaurentPoly):
            d = LaurentPoly.const(self.N, d, self.dom)
        if not d.terms:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self.terms:
            return self._wrap({})
        if len(d.terms) == 1:
            ((e, c),) = d.terms.items()
            inv = self.dom.one / c
            return self._wrap(
                K.terms_scale(K.terms_shift(self.terms, tuple(-x for x in e)), inv)
            )
        # shift both to honest polynomials
        def neg_mins(p):
            mins = [0] * self.N
            for e in p.terms:
                for i, x in enumerate(e):
                    if x < mins[i]:
                        mins[i] = x
            return tuple(mins)

        sp, sd = neg_mins(self), neg_mins(d)
        num = K.terms_shift(self.terms, tuple(-x for x in sp))
        den = K.terms_shift(d.terms, tuple(-x for x in sd))

        den_terms = sorted(den.items(), key=lambda t: _glex_key(t[0]), reverse=True)
        lead_e, lead_c = den_terms[0]
        lead_inv = self.dom.one / lead_c
        den_rest = den_terms[1:]
        # graded-lex is a multiplicative total order, so for an honest
        # quotient every term lies between trail(num)-trail(den) and
        # lead(num)-lead(den); dropping below the trail bound proves
        # non-divisibility.  An iteration cap backstops pathological inputs.
        trail_num = min(num, key=_glex_key)
        trail_den = min(den, key=_glex_key)
        bound = _glex_key(tuple(x - y for x, y in zip(trail_num, trail_den)))
        cap = 10000 + 16 * len(num) * max(1, len(den))

        quot = {}
        cur = dict(num)
        steps = 0
        while cur:
            steps += 1
            if steps > cap:
                raise NotDivisible("no quotient within the term budget")
            e = max(cur, key=_glex_key)
            c = cur[e]
            ue = tuple(x - y for x, y in zip(e, lead_e))
            if _glex_key(ue) < bound:
                raise NotDivisible("leading term falls below the trail bound")
            uc = c * lead_inv
            quot[ue] = uc
            del cur[e]
            for fe, fc in den_rest:
                key = tuple(x + y for x, y in zip(ue, fe))
                v = uc * fc
                s = cur.get(key)
                if s is None:
                    cur[key] = -v
                else:
                    s = s - v
                    if s:
                        cur[key] = s
                    else:
                        del cur[key]
        delta = tuple(x - y for x, y in zip(sp, sd))
        q = self._wrap(K.terms_shift(quot, delta))
        if verify and (q * d).terms != self.terms:
            raise NotDivisible("re-multiplication check failed")
        return q

    # -- symmetry -----------------------------------------------------------

    def symmetrize(self):
        """Average over all N! variable permutations."""
        total = LaurentPoly.zero(self.N, self.dom)
        count = 0
        for perm in itertools.permutations(range(1, self.N + 1)):
            total = total + self.permute(list(perm))
            count += 1
        return total * Fraction(1, count)

    def is_symmetric(self):
        return all(self.swap(i, i + 1) == self for i in range(1, self.N))

    # -- series -------------------------------------------------------------

    def series_on_hyperplane(self, i, j, order):
        """Expand with X_j -> X_i*(1+u), truncated at u^order.

        Returns a TruncatedSeries whose coefficients live in the same ring
        (with no X_j dependence).
        """
        if i == j:
            raise ValueError("need distinct variables")
        coeffs = [dict() for _ in range(order + 1)]
        ii, jj = i - 1, j - 1
        for e, c in self.terms.items():
            n = e[jj]
            new_e = list(e)
            new_e[ii] += n
            new_e[jj] = 0
            key = tuple(new_e)
            for r in range(order + 1):
                b = binomial_fraction(n, r)
                if not b:
                    continue
                v = c * b
                tgt = coeffs[r]
                s = tgt.get(key)
                if s is None:
                    tgt[key] = v
                else:
                    s = s + v
                    if s:
                        tgt[key] = s
                    else:
                        del tgt[key]
        return TruncatedSeries(order, [self._wrap(t) for t in coeffs])

    # -- io -----------------------------------------------------------------

    def to_json(self):
        return {
            "N": self.N,
            "terms": [
                {"e": list(e), "c": self.dom.scalar_to_json(c)}
                for e, c in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json(cls, data, dom=QQ):
        terms = {}
        for t in data["terms"]:
            terms[tuple(t["e"])] = dom.scalar_from_json(t["c"])
        return cls(data["N"], dom, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(
                f"X{i+1}^{x}" if x != 1 else f"X{i+1}"
                for i, x in enumerate(e)
                if x
            )
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class TruncatedSeries:
    """Element of R[u]/(u^(order+1)) with LaurentPoly coefficients."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order, coeffs):
        self.order = order
        self.coeffs = list(coeffs)
        if len(self.coeffs) != order + 1:
            raise ValueError("coefficient list must have length order+1")

    def __sub__(self, other):
        if self.order != other.order:
            raise ValueError("mixed truncation orders")
        return TruncatedSeries(
            self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def scale_by_scalar_series(self, scalars):
        """Multiply by sum scalars[r]*u^r (a list of field scalars)."""
        zero = self.coeffs[0] - self.coeffs[0]
        out = [zero for _ in range(self.order + 1)]
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j in range(0, self.order + 1 - i):
                s = scalars[j] if j < len(scalars) else 0
                if s:
                    out[i + j] = out[i + j] + a * s
        return TruncatedSeries(self.order, out)

    def __repr__(self):
        return " + ".join(f"({c})*u^{r}" for r, c in enumerate(self.coeffs))


def one_plus_u_power(a, order):
    """Scalar coefficient list of (1+u)^a to the given truncation order.

    a may be any rational; generalized binomial coefficients are exact.
    """
    return [binomial_fraction(a, r) for r in range(order + 1)]
