"""Exact coefficient domains shared by every other module.

Three fields are supported as coefficient domains for Laurent polynomials:

* QQ          -- rationals, represented by fractions.Fraction;
* CycloField  -- Q(zeta_l), elements reduced mod the l-th cyclotomic
                 polynomial Phi_l in the power basis and stored
                 fraction-free: phi(l) int numerators over one positive int
                 den (CycloNumber).  Phi_l is monic with int coefficients,
                 so products are int convolutions folded back with a table
                 of zeta^k mod Phi_l, and an inverse is the product of the
                 other Galois conjugates over the rational norm;
* RatFuncField -- univariate rational functions Q(t) in one named
                  parameter, stored as a coprime pair of int polynomials
                  with no common integer factor (RatFunc1).

All three rest on one core of dense int polynomials: poly_add, poly_mul,
poly_primitive, the pseudo-remainder poly_prem, poly_gcd and poly_exact_div,
with int_poly clearing the denominators of a rational list.

The two extension fields share one protocol.  _FieldElement, the base of
CycloNumber and RatFunc1, holds the coercion of an operand (int and
Fraction lifted, the other field's key a TypeError), the arithmetic
operators and their reflections, ** and == with hash; each element class
holds only _add, _mul, inverse, _lift and its canonical _form.
_ExtensionField, the Domain of CycloField and RatFuncField, holds coerce
and the scalar JSON of both.  One square-and-multiply routine, power,
serves both element classes and LaurentPoly.

Plus deterministic "generic parameter" sampling with explicit excluded-value
constraints, re-checked exactly after sampling.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from random import Random


class SamplingExhausted(Exception):
    """Raised when constraint-compatible parameters could not be sampled."""


class ParameterDegenerate(Exception):
    """Raised when a parameter value degenerates a construction: two
    hyperplanes X_i = q^p X_j coincide (quasiinv), or sum_w t^len(w) = 0
    leaves the Hecke symmetrizer undefined (macdonald)."""


# ---------------------------------------------------------------------------
# rationals

def parse_rational(s):
    """Parse 'p/q' or 'p' into a Fraction."""
    return Fraction(str(s).strip())


def format_rational(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# dense univariate polynomials over the ints, low-degree first; [] is zero.
# Trimmed input (no trailing zeros) gives trimmed output.

def _trim(c):
    while c and not c[-1]:
        c.pop()
    return c


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _trim([x + y for x, y in zip(a, b)] + list(a[len(b):]))


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def poly_primitive(a):
    """a over the gcd of its coefficients, with a positive leading coefficient."""
    if not a:
        return []
    g = math.gcd(*a) if a[-1] > 0 else -math.gcd(*a)
    return [c // g for c in a]


def poly_prem(a, b):
    """A pseudo-remainder of a by b: the remainder of lead(b)^e a for some
    e >= 0, computed over the ints."""
    r, n, lead = list(a), len(b), b[-1]
    while len(r) >= n:
        c, k = r.pop(), len(r) - n + 1
        r = [lead * x for x in r]
        for i, y in enumerate(b[:-1]):
            r[k + i] -= c * y
        _trim(r)
    return r


def poly_gcd(a, b):
    """The gcd of a and b in Q[x] as a primitive int polynomial with a
    positive leading coefficient: Euclid on primitive pseudo-remainders."""
    a, b = poly_primitive(a), poly_primitive(b)
    while b:
        a, b = b, poly_primitive(poly_prem(a, b))
    return a


def poly_exact_div(a, b):
    """The quotient a / b over the ints; a remainder raises ArithmeticError.
    By Gauss's lemma, a primitive b dividing a in Q[x] divides it over Z."""
    r, n = list(a), len(b)
    q = [0] * (len(r) - n + 1)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n - 1] // b[-1]
        for i, y in enumerate(b):
            r[k + i] -= c * y
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


# ---------------------------------------------------------------------------
# cyclotomic polynomials and Q(zeta_l)

_CYCLO_CACHE = {}


def cyclotomic_polynomial(l):
    """Coefficients of the l-th cyclotomic polynomial, low-degree first."""
    if l in _CYCLO_CACHE:
        return _CYCLO_CACHE[l]
    if l < 1:
        raise ValueError(f"cyclotomic order must be at least 1, got {l}")
    # x^l - 1 divided exactly by the monic Phi_d of the proper divisors d
    num = [-1] + [0] * (l - 1) + [1]
    for d in range(1, l):
        if l % d == 0:
            num = poly_exact_div(num, cyclotomic_polynomial(d))
    _CYCLO_CACHE[l] = num
    return num


_ZETA_ROWS = {}


def _zeta_rows(l, top):
    """(phi, rows) with phi = deg Phi_l and rows[k - phi] the nonzero
    (i, c) of zeta^k = sum_i c zeta^i mod Phi_l, for phi <= k <= top.

    Phi_l is monic with int coefficients, so every c is an int.  A product
    of two reduced elements reaches k = 2 phi - 2; the table grows on demand
    for longer constructor input."""
    entry = _ZETA_ROWS.get(l)
    if entry is None:
        poly = cyclotomic_polynomial(l)
        # Phi_l = c_0 + ... + c_{phi-1} zeta^(phi-1) + zeta^phi = 0
        entry = _ZETA_ROWS[l] = (
            len(poly) - 1, [tuple((i, -c) for i, c in enumerate(poly[:-1]) if c)])
    phi, rows = entry
    while phi + len(rows) <= top:
        first, prev = rows[0], rows[-1]
        nxt = [0] * phi
        for i, c in prev:
            if i + 1 < phi:
                nxt[i + 1] += c
            else:
                for j, r in first:
                    nxt[j] += c * r
        rows.append(tuple((i, c) for i, c in enumerate(nxt) if c))
    return entry


def _fold(l, nums):
    """The int coefficients nums of 1, zeta, zeta^2, ... reduced mod Phi_l:
    a list of exactly phi ints."""
    phi, rows = _zeta_rows(l, len(nums) - 1)
    out = list(nums[:phi]) + [0] * (phi - len(nums))
    for k in range(phi, len(nums)):
        c = nums[k]
        if c:
            for i, r in rows[k - phi]:
                out[i] += c * r
    return out


_ZETA_POWERS = {}


def _zeta_powers(l):
    """(powers, index): powers[k] = z^k for 0 <= k < l, shared instances,
    and index maps the nums of each power to its k."""
    entry = _ZETA_POWERS.get(l)
    if entry is None:
        _zeta_rows(l, l - 1)  # rejects l < 1 before anything is stored
        powers = [CycloNumber(l, [0] * k + [1]) for k in range(l)]
        entry = _ZETA_POWERS[l] = (powers, {z.nums: k for k, z in enumerate(powers)})
    return entry


def int_poly(coeffs):
    """Rational coefficients as (ints, m), m > 0 their common denominator."""
    fr = [Fraction(c) for c in coeffs]
    m = math.lcm(*[c.denominator for c in fr])
    return [c.numerator * (m // c.denominator) for c in fr], m


def power(x, n, one):
    """x ** n for an int n >= 0 by square and multiply; one for n = 0."""
    out = None
    while n:
        if n & 1:
            out = x if out is None else out * x
        n >>= 1
        if n:
            x = x * x
    return one if out is None else out


# ---------------------------------------------------------------------------
# the field-element protocol

class _FieldElement:
    """The arithmetic of CycloNumber and RatFunc1, stated once.

    An element carries the key of its field in the attribute named _KEY (l
    for Q(zeta_l), var for Q(t)).  _coerce brings the other operand into
    that field: an element of the same class and key as it is, an int or a
    Fraction lifted by the classmethod _lift(key, x), None for any other
    type, so that the operator returns NotImplemented; the same class with
    another key raises the TypeError _MIXED.  A subclass states the rest:
    _add(other, sign), _mul(other) and inverse() on a coerced operand, and
    _form(), the canonical tuple that == and hash compare.
    """

    __slots__ = ()

    def _coerce(self, other):
        if isinstance(other, type(self)):
            key, other_key = getattr(self, self._KEY), getattr(other, self._KEY)
            if key != other_key:
                raise TypeError(self._MIXED.format(key, other_key))
            return other
        if isinstance(other, (int, Fraction)):
            return self._lift(getattr(self, self._KEY), other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o, 1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._add(o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._add(self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._mul(o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o._mul(self.inverse())

    def __pow__(self, n):
        one = self._lift(getattr(self, self._KEY), 1)
        return power(self.inverse() if n < 0 else self, abs(n), one)

    def __eq__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._form() == o._form()

    def __hash__(self):
        return hash((getattr(self, self._KEY), *self._form()))


# ---------------------------------------------------------------------------
# Q(zeta_l)

def _canon(nums, den):
    """nums/den with den and the numerators divided by their gcd, as
    (tuple, den); den is a positive int, and zero comes out as 0/1."""
    if den != 1:
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [n // g for n in nums]
            den //= g
    return tuple(nums), den


def _cyclo(l, nums, den):
    """The CycloNumber nums/den, nums already reduced mod Phi_l."""
    x = object.__new__(CycloNumber)
    x.l = l
    x.nums, x.den = _canon(nums, den)
    return x


class CycloNumber(_FieldElement):
    """Element of Q(zeta_l) in the power basis 1, z, ..., z^(phi-1), phi the
    degree of Phi_l.

    Stored fraction-free, the way LaurentPoly stores QQ coefficients:
    ``nums`` is a tuple of phi ints and ``den`` one positive int, with
    gcd(den, *nums) == 1, so the element is sum_i nums[i]/den z^i and ==
    compares (nums, den).  A product is an int convolution folded back with
    the table of z^k mod Phi_l (_zeta_rows), and so is each factor of an
    inverse.  ``coeffs`` is the read-only tuple of the Fraction
    coefficients.  The constructor takes any list of rationals, reduces it
    mod Phi_l and pads it to phi entries.
    """

    __slots__ = ("l", "nums", "den")
    _KEY, _MIXED = "l", "mixed cyclotomic orders {} and {}"

    def __init__(self, l, coeffs):
        nums, den = int_poly(coeffs)
        self.l = l
        self.nums, self.den = _canon(_fold(l, nums), den)

    @property
    def coeffs(self):
        return tuple(Fraction(n, self.den) for n in self.nums)

    @classmethod
    def zeta(cls, l, power=1):
        return _zeta_powers(l)[0][power % l]

    @classmethod
    def from_rational(cls, l, x):
        n, d = (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()
        phi, _ = _zeta_rows(l, 0)
        return _cyclo(l, (n,) + (0,) * (phi - 1), d)

    _lift = from_rational

    def _form(self):
        return self.nums, self.den

    def _add(self, other, sign):
        """self + sign * other."""
        da, db = self.den, other.den
        if da == db:
            return _cyclo(self.l, [x + sign * y for x, y in zip(self.nums, other.nums)], da)
        return _cyclo(self.l, [x * db + sign * y * da for x, y in zip(self.nums, other.nums)],
                      da * db)

    def _mul(self, other):
        x, y = self.nums, other.nums
        if len(x) == 1:
            return _cyclo(self.l, (x[0] * y[0],), self.den * other.den)
        return _cyclo(self.l, _fold(self.l, poly_mul(x, y)), self.den * other.den)

    def __neg__(self):
        x = object.__new__(CycloNumber)
        x.l, x.nums, x.den = self.l, tuple(-n for n in self.nums), self.den
        return x

    def inverse(self):
        """Inverse mod Phi_l: z^-k = z^(l-k) for a power of z (read off
        _zeta_powers), c / N(a) otherwise, with c the product of the other
        Galois conjugates z -> z^k (k prime to l) and N(a) = a c rational."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        l = self.l
        if self.den == 1:
            powers, index = _zeta_powers(l)
            k = index.get(self.nums)
            if k is not None:
                return powers[-k]  # z^-k = z^(l-k)
        c = CycloNumber.from_rational(l, 1)
        for k in range(2, l):
            if math.gcd(k, l) == 1:
                conj = [0] * l
                for i, n in enumerate(self.nums):
                    conj[i * k % l] += n
                c = c._mul(_cyclo(l, _fold(l, conj), self.den))
        norm = self._mul(c)
        n, d = norm.nums[0], norm.den  # N(a) = n / d
        if n < 0:
            n, d = -n, -d
        return _cyclo(l, [x * d for x in c.nums], c.den * n)

    def __bool__(self):
        return any(self.nums)

    def rational_part(self):
        """The element as a Fraction; raises if it is not rational."""
        if any(self.nums[1:]):
            raise ValueError("not a rational element")
        return Fraction(self.nums[0], self.den)

    def to_json(self):
        return {"l": self.l, "coeffs": [format_rational(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data):
        return cls(data["l"], [parse_rational(c) for c in data["coeffs"]])

    def __repr__(self):
        return f"CycloNumber(l={self.l}, {list(self.coeffs)})"


# ---------------------------------------------------------------------------
# univariate rational functions

def _canonical(num, den):
    """num/den from int lists, den nonzero, as (num, den) tuples: both
    divided by their gcd in Q[x] and then by the gcd of all their
    coefficients, with the sign that makes the leading coefficient of den
    positive."""
    _trim(num)
    _trim(den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), (1,)
    if len(num) > 1 and len(den) > 1:
        g = poly_gcd(num, den)
        if len(g) > 1:
            num, den = poly_exact_div(num, g), poly_exact_div(den, g)
    p = poly_primitive(num + den)  # makes the leading coefficient of den positive
    return tuple(p[:len(num)]), tuple(p[len(num):])


def _ratfunc(var, num, den):
    x = object.__new__(RatFunc1)
    x.var = var
    x.num, x.den = _canonical(num, den)
    return x


class RatFunc1(_FieldElement):
    """Rational function in one named parameter over Q.

    Stored fraction-free, as CycloNumber is: ``num`` and ``den`` are int
    tuples, low-degree first, coprime in Q[x], with no common integer factor
    and a positive leading coefficient of ``den`` (zero is () / (1,)).  That
    form is canonical, so == and hash compare it; ``to_json`` and ``repr``
    show the Fraction form over a monic denominator.
    """

    __slots__ = ("var", "num", "den")
    _KEY, _MIXED = "var", "mixed parameters {!r} and {!r}"

    def __init__(self, var, num, den=(1,)):
        """num / den from any lists of rationals."""
        ints, _ = int_poly([*num, *den])
        self.var = var
        self.num, self.den = _canonical(ints[:len(num)], ints[len(num):])

    @classmethod
    def variable(cls, var):
        return cls(var, [0, 1])

    @classmethod
    def const(cls, var, x):
        n, d = (x, 1) if isinstance(x, int) else Fraction(x).as_integer_ratio()
        return _ratfunc(var, [n], [d])

    _lift = const

    def _form(self):
        return self.num, self.den

    def _add(self, other, sign):
        """self + sign * other."""
        num = poly_add(poly_mul(self.num, other.den),
                       [sign * c for c in poly_mul(other.num, self.den)])
        return _ratfunc(self.var, num, poly_mul(self.den, other.den))

    def _mul(self, other):
        return _ratfunc(self.var, poly_mul(self.num, other.num), poly_mul(self.den, other.den))

    def __neg__(self):
        x = object.__new__(RatFunc1)
        x.var, x.num, x.den = self.var, tuple(-c for c in self.num), self.den
        return x

    def inverse(self):
        """den / num, already canonical up to the sign that makes the new
        den's leading coefficient positive: no gcd to take."""
        if not self.num:
            raise ZeroDivisionError("division by zero rational function")
        s = 1 if self.num[-1] > 0 else -1
        x = object.__new__(RatFunc1)
        x.var = self.var
        x.num, x.den = tuple(s * c for c in self.den), tuple(s * c for c in self.num)
        return x

    def __bool__(self):
        return bool(self.num)

    def _monic(self):
        """(num, den) as Fraction lists over the leading coefficient of den."""
        lead = self.den[-1]
        return [Fraction(c, lead) for c in self.num], [Fraction(c, lead) for c in self.den]

    def to_json(self):
        num, den = self._monic()
        return {
            "var": self.var,
            "num": [format_rational(c) for c in num],
            "den": [format_rational(c) for c in den],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["var"],
            [parse_rational(c) for c in data["num"]],
            [parse_rational(c) for c in data["den"]],
        )

    def __repr__(self):
        num, den = self._monic()
        return f"RatFunc1({self.var!r}, {num}, {den})"


# ---------------------------------------------------------------------------
# coefficient domains

class Domain:
    """Descriptor for a coefficient field: coercion plus 0 and 1."""

    name = "abstract"

    def coerce(self, x):
        raise NotImplementedError

    @property
    def zero(self):
        return self.coerce(0)

    @property
    def one(self):
        return self.coerce(1)

    def split(self, x):
        """x as (numerator, den) with den a positive int.  A LaurentPoly
        stores numerators over one shared den; only QQ has den > 1, every
        other field keeps its elements as numerators over 1."""
        return x, 1

    def join(self, n, den):
        """The coefficient n/den; the inverse of split."""
        return n

    def scalar_to_json(self, x):
        raise NotImplementedError

    def scalar_from_json(self, data):
        raise NotImplementedError

    def __repr__(self):
        return self.name


class RationalField(Domain):
    name = "QQ"

    def coerce(self, x):
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return parse_rational(x)
        if isinstance(x, CycloNumber):
            return x.rational_part()
        raise TypeError(f"cannot coerce {x!r} into QQ")

    def split(self, x):
        return x.numerator, x.denominator

    def join(self, n, den):
        return Fraction(n, den)

    def scalar_to_json(self, x):
        return format_rational(x)

    def scalar_from_json(self, data):
        return parse_rational(data)


class _ExtensionField(Domain):
    """Q(zeta_l) or Q(t): the field of the element class ``element``,
    stored under the name of its key (element._KEY), as its elements are.
    coerce takes an element with the same key, or an int, Fraction or
    rational string lifted into the field; another key raises the TypeError
    _MISMATCH, and any other value TypeError."""

    def coerce(self, x):
        cls = self.element
        key = getattr(self, cls._KEY)
        if isinstance(x, cls):
            if getattr(x, cls._KEY) != key:
                raise TypeError(self._MISMATCH.format(getattr(x, cls._KEY), key))
            return x
        if isinstance(x, str):
            x = parse_rational(x)
        if isinstance(x, (int, Fraction)):
            return cls._lift(key, x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def scalar_to_json(self, x):
        return self.coerce(x).to_json()

    def scalar_from_json(self, data):
        return self.element.from_json(data)


class CycloField(_ExtensionField):
    element, _MISMATCH = CycloNumber, "cyclotomic order mismatch: {} vs {}"

    def __init__(self, l):
        if l < 1:
            raise ValueError(f"cyclotomic order must be at least 1, got {l}")
        self.l = l
        self.name = f"QQ(zeta_{l})"

    @property
    def zeta(self):
        return CycloNumber.zeta(self.l)


class RatFuncField(_ExtensionField):
    element, _MISMATCH = RatFunc1, "parameter mismatch: {} vs {}"

    def __init__(self, var="t"):
        self.var = var
        self.name = f"QQ({var})"

    @property
    def gen(self):
        return RatFunc1.variable(self.var)


QQ = RationalField()


def field_of(*values):
    """The field the values live in: QQ(var) for a RatFunc1, QQ(zeta_l) for a
    CycloNumber, QQ when every value is rational.  Values from two different
    fields raise the TypeError of Domain.coerce."""
    dom = QQ
    for x in values:
        if dom is not QQ:
            dom.coerce(x)
        elif isinstance(x, RatFunc1):
            dom = RatFuncField(x.var)
        elif isinstance(x, CycloNumber):
            dom = CycloField(x.l)
    return dom


# ---------------------------------------------------------------------------
# generic parameter sampling

_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]


def _check_constraint(con, values):
    kind = con[0]
    if kind == "nonzero":
        return values[con[1]] != 0
    if kind == "not_root_of_unity":
        _, name, order = con
        x = values[name]
        if x == 0:
            return False
        p = Fraction(1)
        for _ in range(order):
            p *= x
            if p == 1:
                return False
        return True
    if kind == "diff_not_integer":
        _, n1, n2 = con
        d = values[n1] - values[n2]
        return d.denominator != 1
    if kind == "ratio_not_q_power":
        _, n1, n2, q, window = con
        if isinstance(q, str):
            q = values[q]
        x, y = values[n1], values[n2]
        if y == 0:
            return False
        r = Fraction(x, 1) / y
        for p in range(-window, window + 1):
            if r == Fraction(q) ** p:
                return False
        return True
    raise ValueError(f"unknown constraint {kind!r}")


def sample_generic(names, constraints, seed, max_attempts=2000):
    """Deterministically sample named rationals satisfying every constraint.

    names: iterable of parameter names to draw; constraints: list of tuples
    ('nonzero', name), ('not_root_of_unity', name, M),
    ('diff_not_integer', n1, n2), ('ratio_not_q_power', n1, n2, q, W).
    Same seed reproduces the same tuple; every constraint is re-checked
    exactly before returning.
    """
    rng = Random(seed)
    names = list(names)
    for _ in range(max_attempts):
        values = {}
        for name in names:
            p = rng.choice(_SMALL_PRIMES)
            q = rng.choice(_SMALL_PRIMES)
            while q == p:
                q = rng.choice(_SMALL_PRIMES)
            sign = rng.choice([1, 1, 1, -1])
            values[name] = Fraction(sign * p, q)
        if all(_check_constraint(c, values) for c in constraints):
            return values
    raise SamplingExhausted(
        f"no assignment for {names} met {len(constraints)} constraints "
        f"in {max_attempts} attempts"
    )


def z_from_c(c, l, hbar=Fraction(1)):
    """Change of variables between the two cyclotomic parameter systems:

        z_i = (1/l) * (hbar*(l - i) + sum_j c_j zeta^{ij}),   i = 1..l.

    c are the wreath-product weights c_0..c_{l-1}; the z_i live in Q(zeta_l)
    and are returned as CycloNumbers (rational for l <= 2 or for
    conjugation-symmetric c).
    """
    if len(c) != l:
        raise ValueError("need l weights c_0..c_{l-1}")
    zeta = CycloNumber.zeta(l)
    out = []
    for i in range(1, l + 1):
        acc = CycloNumber.from_rational(l, Fraction(hbar) * (l - i))
        for j, cj in enumerate(c):
            acc = acc + zeta ** (i * j) * Fraction(cj)
        out.append(acc * Fraction(1, l))
    return tuple(out)


@functools.lru_cache(maxsize=4096)
def binomial_fraction(a, r):
    """Generalized binomial coefficient C(a, r) for a rational (or integer) a.

    Memoized on (a, r): an int and the equal Fraction share an entry, which is
    safe because a is converted to a Fraction before use."""
    if r < 0:
        return Fraction(0)
    num = Fraction(1)
    a = Fraction(a)
    for i in range(r):
        num *= a - i
    return num / math.factorial(r)
