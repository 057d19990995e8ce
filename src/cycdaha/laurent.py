"""Sparse multivariate Laurent polynomials over an exact coefficient domain.

A LaurentPoly is a ring context (N, domain) plus a sparse map from exponent
tuples (length N, negative entries allowed) to nonzero coefficients.  All
arithmetic is exact; the zero polynomial has no terms.  The canonical term
order used for display and serialization is graded lexicographic, largest
first.

Coefficients are stored fraction-free, as FLINT's fmpq_poly stores them:
``nums`` maps each exponent tuple to a numerator and ``den`` is one positive
int on the polynomial, shared by every term, so the coefficient of X^e is
nums[e]/den.  Over QQ the numerators are ints; over Q(zeta_l) and Q(t) they
are the field elements themselves and den stays 1 (Domain.split and
Domain.join convert one coefficient).  The form is canonical: den > 0 and
gcd(den, *nums.values()) == 1, so == compares (den, nums) directly.  A nums
dict may be shared between polynomials and is never mutated.  ``terms`` is
a read-only view that maps each exponent tuple to its field coefficient (a
Fraction over QQ).

Reduction happens in two places:

* content: every operation that can create a common factor of den and the
  numerators (sums, products, scalings, substitutions, series) ends with
  one ``math.gcd(den, *nums)``.  The operator engine's ``map_linear``
  serves the generators that cache images: T^+-1 and the Dunkl operators
  applied to a polynomial that is not a unit monomial (the engine answers
  that from its cache, whose images are canonical), and a composite
  generator only when its cache holds every term.  It is one loop over the
  terms: it looks each image up in the generator's cache, computes it only
  on a miss, and adds its numerators into one dict over the lcm of the
  image dens.  ``linear_sum`` (one operator sum, its coefficients split
  beforehand; the engine keeps them split in its compiled plans)
  accumulates its polynomials in one dict the same way.  Each pays for one
  reduction.  A generator that sends each monomial to one monomial reads
  a table of image exponents instead and caches no image:
  ``map_exponents`` (scalar 1: X^+-1, the permutations) keeps den and
  reduces nothing, and ``map_exponents_scaled`` (q-, zeta- and omega
  scalings) pays for one reduction;
* values leaving: the ``terms`` view joins a numerator and den into a
  reduced field coefficient only when read, for hash, ``to_json`` and
  reports, ``coefficient``, and code outside the engine.  Coefficient
  matrices do not go through it: ``coefficient_rows`` scales the numerators
  of several polynomials to one common den, so over QQ their rows reach
  elimination as ints.

Division needs no reduction.  The one division is by X_i - X_j
(``divide_by_difference``), for the Macdonald operator: the quotient's
numerators are partial sums of the input's, so no coefficient is divided,
and by Gauss's lemma the quotient keeps the input's den.  The
quasiinvariant membership check substitutes onto hyperplanes instead, and
the operator engine's quotients are closed forms (the one-pass T_i, Dunkl
and Dunkl-Opdam images).

Two tables are kept across calls, each keyed on the domain object as well
as on its values, so equal values of two fields never share an entry:

* ``substitute`` reads the powers c^k of each scale factor split as
  (numerator, den) from ``split_powers``.  A call scales the powers its
  exponents need to their lcm, so each term takes one multiply per rule
  (one int multiply over QQ) and the result one content reduction;
* a truncated series along a hyperplane is a plain list of polynomials, the
  coefficients of u^0..u^order (``series_on_hyperplane``).  Its weight
  (1+u)^a is folded into the expansion: X_j^n contributes C(n + a, r) to
  u^r, and the split row of these binomials for each n + a comes from
  ``_binomial_rows``.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping

from . import kernel as K
from .scalars import QQ, binomial_fraction, power


class NotDivisible(Exception):
    """X_i - X_j does not divide the polynomial (divide_by_difference): the
    Macdonald operator's image of the input is not a Laurent polynomial."""


class NonInvertibleScale(Exception):
    """A zero scale factor met a negative exponent in a substitution."""


@functools.lru_cache(maxsize=256)
def split_powers(dom, c):
    """The table k -> c**k of dom for any int k, split as (numerator, den)
    (Domain.split), each entry made on first use and kept across calls:
    substitute reads it for every rule, and the operator engine's tables
    of omega^+-1 and tau (for q) and sigma^+-1 (for zeta).  Keyed on the
    domain object as well as on c, so equal values of two domains (2 in QQ
    and 2 in Q(zeta_3)) never share a table.  A negative k raises
    NonInvertibleScale when c == 0."""
    split = dom.split

    def make(k):
        if k >= 0:
            return split(c ** k)
        if not c:
            raise NonInvertibleScale("zero scale with negative exponent")
        return split((dom.one / c) ** -k)

    return _Table(make)


@functools.lru_cache(maxsize=256)
def _binomial_rows(dom, a, order):
    """The table n -> (C(n + a, r) for r = 0..order) split in dom as
    (numerator, den) pairs, each row made on first use and kept across
    calls of series_on_hyperplane; keyed on the domain object too."""
    split, coerce = dom.split, dom.coerce
    return _Table(lambda n: tuple(split(coerce(binomial_fraction(n + a, r)))
                                  for r in range(order + 1)))


class _Table(dict):
    """A dict that fills a missing key k with make(k) and keeps it."""

    __slots__ = ("_make",)

    def __init__(self, make):
        super().__init__()
        self._make = make

    def __missing__(self, k):
        v = self[k] = self._make(k)
        return v


def _glex_key(e):
    return (sum(e), e)


def _scaled(nums, m):
    """nums times the positive int m (the dict itself when m == 1)."""
    return nums if m == 1 else K.terms_scale(nums, m)


class Terms(Mapping):
    """Read-only view of a polynomial's terms: exponent tuple -> field
    coefficient (a Fraction over QQ), joined from nums and den on access."""

    __slots__ = ("_nums", "_den", "_join")

    def __init__(self, nums, den, join):
        self._nums = nums
        self._den = den
        self._join = join

    def __getitem__(self, e):
        return self._join(self._nums[e], self._den)

    def __contains__(self, e):
        return e in self._nums

    def __iter__(self):
        return iter(self._nums)

    def __len__(self):
        return len(self._nums)


def _canonical(N, dom, nums, den):
    """The polynomial nums/den with den and the numerators divided by their
    gcd; a den of 1 is canonical as it stands."""
    if den != 1:
        if not nums:
            den = 1
        else:
            g = math.gcd(den, *nums.values())
            if g != 1:
                nums = {e: n // g for e, n in nums.items()}
                den //= g
    return LaurentPoly._make(N, dom, nums, den)


class LaurentPoly:
    __slots__ = ("N", "dom", "nums", "den")

    def __init__(self, N, dom, terms=None):
        """terms maps exponent tuples to coefficients in dom; zero
        coefficients are dropped."""
        split, coerce = dom.split, dom.coerce
        parts = [(e, *split(coerce(c))) for e, c in terms.items() if c] if terms else []
        # reduced fractions over their lcm have no common content
        den = math.lcm(*[d for _, _, d in parts])
        self.N = N
        self.dom = dom
        self.nums = {e: n if d == den else n * (den // d) for e, n, d in parts}
        self.den = den

    @classmethod
    def _make(cls, N, dom, nums, den=1):
        """Wrap numerators over den that are already in canonical form."""
        p = object.__new__(cls)
        p.N = N
        p.dom = dom
        p.nums = nums
        p.den = den
        return p

    @property
    def terms(self):
        """The terms as a read-only map to field coefficients (see Terms)."""
        return Terms(self.nums, self.den, self.dom.join)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, N, dom=QQ):
        return cls._make(N, dom, {})

    @classmethod
    def const(cls, N, c, dom=QQ):
        return cls.monomial(N, (0,) * N, c, dom)

    @classmethod
    def one(cls, N, dom=QQ):
        return cls.const(N, 1, dom)

    @classmethod
    def monomial(cls, N, exps, c=1, dom=QQ):
        c = dom.coerce(c)
        if not c:
            return cls.zero(N, dom)
        n, d = dom.split(c)
        return cls._make(N, dom, {tuple(exps): n}, d)

    @classmethod
    def variable(cls, N, i, dom=QQ):
        """X_i, 1-based index."""
        e = [0] * N
        e[i - 1] = 1
        return cls.monomial(N, e, 1, dom)

    @staticmethod
    def linear_sum(N, dom, parts):
        """The sum of (n/d)*p over the (n, d, p) in parts, n/d a coefficient
        already split in dom: one dict over the lcm of the denominators, one
        content reduction."""
        lcm = math.lcm(*[d * p.den for _, d, p in parts])
        out = {}
        for n, d, p in parts:
            d *= p.den
            K.terms_iaddmul(out, p.nums, n if d == lcm else n * (lcm // d))
        return _canonical(N, dom, out, lcm)

    def map_linear(self, cache, fresh):
        """The image of self under the linear map sending X^e to cache[e], a
        LaurentPoly in the same ring; an image not yet in cache is fresh(e),
        stored there.  One loop adds n * image over the lcm of the image dens
        into one dict, then one content reduction.  (Rep.apply_gen answers a
        unit monomial over den 1 from the cache itself.)"""
        out = {}
        lcm = 1
        for e, n in self.nums.items():
            img = cache.get(e)
            if img is None:
                img = cache[e] = fresh(e)
            d = img.den
            if d != lcm:
                if lcm % d:
                    # a new factor of the lcm: rescale what is already summed
                    m = d // math.gcd(lcm, d)
                    lcm *= m
                    if out:
                        out = {f: v * m for f, v in out.items()}
                if d != lcm:
                    n = n * (lcm // d)
            get = out.get
            for f, v in img.nums.items():
                v = n * v
                s = get(f)
                if s is None:
                    out[f] = v
                else:
                    s = s + v
                    if s:
                        out[f] = s
                    else:
                        del out[f]
        return _canonical(self.N, self.dom, out, lcm * self.den)

    def map_exponents(self, table):
        """The image of self under the monomial map X^e -> X^table[e], table
        injective on exponents: one dict comprehension over the terms.  den
        is kept and no content is reduced, since no two terms merge and no
        coefficient changes."""
        return LaurentPoly._make(self.N, self.dom,
                                 {table[e]: n for e, n in self.nums.items()}, self.den)

    def map_exponents_scaled(self, table):
        """The image of self under X^e -> (n/d) X^f with (f, n, d) =
        table[e], f injective in e and n/d split in the domain: one pass
        over the terms into one dict over the lcm of the ds, then one
        content reduction."""
        images = [(table[e], n) for e, n in self.nums.items()]
        lcm = math.lcm(*[d for (_, _, d), _ in images])
        out = {}
        for (f, sn, d), n in images:
            n = n * sn if d == lcm else n * sn * (lcm // d)
            if n:
                out[f] = n
        return self._reduced(out, self.den * lcm)

    def _wrap(self, nums, den=1):
        """Same ring, numerators already canonical over den."""
        return LaurentPoly._make(self.N, self.dom, nums, den)

    def _reduced(self, nums, den):
        return _canonical(self.N, self.dom, nums, den)

    def _collect(self, parts):
        """The sum of n/(d*den) X^e over the (e, n, d) in parts, d a positive
        int and den self's; exponents may repeat."""
        lcm = math.lcm(*[d for _, _, d in parts])
        out = {}
        for e, n, d in parts:
            if d != lcm:
                n = n * (lcm // d)
            s = out.get(e)
            if s is None:
                out[e] = n
            else:
                s = s + n
                if s:
                    out[e] = s
                else:
                    del out[e]
        return self._reduced(out, self.den * lcm)

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

    def _sum(self, other, op):
        """op (kernel terms_add or terms_sub) over the lcm of both dens."""
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        den = math.lcm(self.den, o.den)
        return self._reduced(
            op(_scaled(self.nums, den // self.den), _scaled(o.nums, den // o.den)), den)

    def __add__(self, other):
        return self._sum(other, K.terms_add)

    __radd__ = __add__

    def __neg__(self):
        return self._wrap(K.terms_neg(self.nums), self.den)

    def __sub__(self, other):
        return self._sum(other, K.terms_sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, LaurentPoly):
            if other.N != self.N:
                raise ValueError("mixed ring contexts")
            return self._reduced(K.terms_mul(self.nums, other.nums), self.den * other.den)
        try:
            c = self.dom.coerce(other)
        except TypeError:
            return NotImplemented
        n, d = self.dom.split(c)
        return self._reduced(K.terms_scale(self.nums, n), self.den * d)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            if len(self.nums) == 1:
                ((e, c),) = self.terms.items()
                inv = LaurentPoly.monomial(self.N, [-x for x in e], self.dom.one / c, self.dom)
                return inv ** (-n)
            raise ValueError("negative power of a non-monomial")
        return power(self, n, LaurentPoly.one(self.N, self.dom))

    def __bool__(self):
        return bool(self.nums)

    def __eq__(self, other):
        o = self._coerce_other(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.nums == o.nums

    def __hash__(self):
        return hash((self.N, tuple(sorted(self.terms.items(), key=lambda t: _glex_key(t[0])))))

    # -- structure ----------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _glex_key(t[0]), reverse=True)

    # -- substitutions ------------------------------------------------------

    def scale_var(self, i, c):
        """Substitute X_i -> c*X_i (1-based i)."""
        return self.substitute({i: (c, i)})

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
        return self._wrap(K.terms_permute(self.nums, perm), self.den)

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

        The powers of each c come split from a table kept across calls
        (split_powers).  Each rule scales the powers its exponents need to
        the lcm of their dens, so a term takes one multiply per rule and the
        result one content reduction over den times those lcms.
        """
        dom, nums = self.dom, self.nums
        slots = []
        den = self.den
        for i, (c, j) in rules.items():
            powers = split_powers(dom, dom.coerce(c))
            split = {k: powers[k] for k in {e[i - 1] for e in nums}}
            lcm = math.lcm(*[d for _, d in split.values()])
            table = {k: n if d == lcm else n * (lcm // d) for k, (n, d) in split.items()}
            slots.append((i - 1, None if j is None else j - 1, table))
            den *= lcm
        out = {}
        get = out.get
        for e, n in nums.items():
            # rules act simultaneously: each takes its own exponent out of
            # its slot and adds it to its target, whatever the others moved
            new_e = list(e)
            for i, j, table in slots:
                k = e[i]
                n = n * table[k]
                new_e[i] -= k
                if j is not None:
                    new_e[j] += k
            if not n:
                continue
            key = tuple(new_e)
            s = get(key)
            if s is None:
                out[key] = n
            else:
                s = s + n
                if s:
                    out[key] = s
                else:
                    del out[key]
        return self._reduced(out, den)

    def shift(self, delta):
        """Multiply by the monomial X^delta."""
        return self._wrap(K.terms_shift(self.nums, tuple(delta)), self.den)

    # -- exact division -----------------------------------------------------

    def divide_by_difference(self, i, j):
        """The quotient of self by X_i - X_j (1-based, i != j); raises
        NotDivisible when there is none.

        The terms that share their exponents off {i, j} and s = e_i + e_j
        form a binary form sum_k c_k X_i^k X_j^(s-k).  X_i - X_j divides it
        exactly when sum_k c_k == 0, and the quotient's coefficient at
        X_i^k X_j^(s-1-k) is then the partial sum of the c_k' over k' > k.
        No coefficient is divided, so one pass serves every domain; X_i - X_j
        is primitive, so by Gauss's lemma the quotient keeps den and stays
        canonical.
        """
        if i == j:
            raise ValueError("need distinct variables")
        ii, jj = i - 1, j - 1
        groups = {}
        for e, n in self.nums.items():
            # the group key moves e_i onto e_j: exponents off {i, j}, and s
            f = list(e)
            f[jj] += f[ii]
            f[ii] = 0
            groups.setdefault(tuple(f), []).append((e[ii], n))
        out = {}
        for f, terms in groups.items():
            terms.sort(reverse=True)  # by k, distinct within a group
            f = list(f)
            s = f[jj] - 1
            (k, total), *rest = terms
            for k_next, n in rest:
                if total:
                    # X_i^x for k_next <= x < k: the partial sum over k' >= k
                    for x in range(k_next, k):
                        f[ii], f[jj] = x, s - x
                        out[tuple(f)] = total
                total = total + n
                k = k_next
            if total:
                raise NotDivisible(f"X{i} - X{j} does not divide the polynomial")
        return self._wrap(out, self.den)

    # -- symmetry -----------------------------------------------------------

    def is_symmetric(self):
        return all(self.swap(i, i + 1) == self for i in range(1, self.N))

    # -- series -------------------------------------------------------------

    def series_on_hyperplane(self, i, j, order, a=0):
        """The coefficients of u^0..u^order in self*(1+u)^a with
        X_j -> X_i*(1+u): a list of order + 1 polynomials free of X_j.

        a may be any rational.  A monomial with X_j-exponent n carries
        (1+u)^(n+a), so it adds C(n + a, r) to u^r (by Chu-Vandermonde, the
        product of the expansions of (1+u)^n and (1+u)^a).
        """
        if i == j:
            raise ValueError("need distinct variables")
        parts = [[] for _ in range(order + 1)]
        ii, jj = i - 1, j - 1
        # the split rows C(n + a, r), r = 0..order, kept across calls
        rows = _binomial_rows(self.dom, a, order)
        for e, c in self.nums.items():
            n = e[jj]
            new_e = list(e)
            new_e[ii] += n
            new_e[jj] = 0
            key = tuple(new_e)
            for part, (bn, bd) in zip(parts, rows[n]):
                if bn:
                    part.append((key, c * bn, bd))
        return [self._collect(p) for p in parts]

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
        """Inverse of to_json; every exponent must be a list of N ints."""
        N = data["N"]
        terms = {}
        for t in data["terms"]:
            e = t["e"]
            if not (isinstance(e, list) and len(e) == N and all(type(x) is int for x in e)):
                raise ValueError(f"exponent {e!r} is not a list of N = {N} integers")
            terms[tuple(e)] = dom.scalar_from_json(t["c"])
        return cls(N, dom, terms)

    def __repr__(self):
        if not self.nums:
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


def coefficient_rows(polys):
    """The coefficient matrix of polys: one column per polynomial and one row
    per monomial of their joint support, in first-seen order.

    Each column's numerators are scaled to the lcm of the dens, so the
    matrix is that lcm times the field coefficients: over QQ every entry is
    an int, elsewhere a field element.
    """
    if not polys:
        return []
    dom = polys[0].dom
    zero = dom.split(dom.zero)[0]  # 0 over QQ, the field's zero elsewhere
    den = math.lcm(*[p.den for p in polys])
    rows = {}
    for k, p in enumerate(polys):
        m = den // p.den
        for e, n in p.nums.items():
            row = rows.get(e)
            if row is None:
                row = rows[e] = [zero] * len(polys)
            row[k] = n if m == 1 else n * m
    return list(rows.values())
