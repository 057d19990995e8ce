"""Exact coefficient domains shared by every other module.

Three fields are supported as coefficient domains for Laurent polynomials:

* QQ          -- rationals, represented by fractions.Fraction;
* CycloField  -- Q(zeta_l), elements reduced mod the l-th cyclotomic
                 polynomial Phi_l in the power basis and stored
                 fraction-free: phi(l) int numerators over one positive int
                 den (CycloNumber).  Phi_l is monic with int coefficients,
                 so products are int convolutions folded back with a table
                 of zeta^k mod Phi_l; only the inverse runs on Fractions;
* RatFuncField -- univariate rational functions Q(t) in one named
                  parameter, stored gcd-reduced with monic denominator.

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
# dense univariate polynomials over Fraction (helpers for RatFunc1, the
# cyclotomic polynomials and CycloNumber.inverse).  Coefficient lists are
# low-degree first with no trailing zeros; [] is the zero polynomial.

def poly_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def poly_add(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return poly_trim(out)


def poly_neg(a):
    return [-x for x in a]


def poly_sub(a, b):
    return poly_add(a, poly_neg(b))


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly_trim(out)


def poly_divmod(a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [Fraction(x) for x in a]
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    lead = Fraction(b[-1])
    while len(a) >= len(b) and poly_trim(a):
        a = poly_trim(a)
        if len(a) < len(b):
            break
        k = len(a) - len(b)
        c = a[-1] / lead
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] -= c * y
        a = a[:-1]
    return poly_trim(q), poly_trim(a)


def poly_gcd(a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(a, b)[1]
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


# ---------------------------------------------------------------------------
# cyclotomic polynomials and Q(zeta_l)

def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


_CYCLO_CACHE = {}


def cyclotomic_polynomial(l):
    """Coefficients of the l-th cyclotomic polynomial, low-degree first."""
    if l in _CYCLO_CACHE:
        return _CYCLO_CACHE[l]
    if l < 1:
        raise ValueError(f"cyclotomic order must be at least 1, got {l}")
    # x^l - 1 divided by the product of Phi_d for proper divisors d
    num = [Fraction(-1)] + [Fraction(0)] * (l - 1) + [Fraction(1)]
    for d in _divisors(l):
        if d == l:
            continue
        num, rem = poly_divmod(num, cyclotomic_polynomial(d))
        assert not rem
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
            len(poly) - 1, [tuple((i, -int(c)) for i, c in enumerate(poly[:-1]) if c)])
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


def _mul(a, b):
    x, y = a.nums, b.nums
    if len(x) == 1:
        return _cyclo(a.l, (x[0] * y[0],), a.den * b.den)
    conv = [0] * (2 * len(x) - 1)
    for i, u in enumerate(x):
        if u:
            for j, v in enumerate(y):
                conv[i + j] += u * v
    return _cyclo(a.l, _fold(a.l, conv), a.den * b.den)


def _add(a, b, sign=1):
    """a + b, or a - b for sign = -1."""
    da, db = a.den, b.den
    if da == db:
        return _cyclo(a.l, [x + sign * y for x, y in zip(a.nums, b.nums)], da)
    return _cyclo(a.l, [x * db + sign * y * da for x, y in zip(a.nums, b.nums)], da * db)


class CycloNumber:
    """Element of Q(zeta_l) in the power basis 1, z, ..., z^(phi-1), phi the
    degree of Phi_l.

    Stored fraction-free, the way LaurentPoly stores QQ coefficients:
    ``nums`` is a tuple of phi ints and ``den`` one positive int, with
    gcd(den, *nums) == 1, so the element is sum_i nums[i]/den z^i and ==
    compares (nums, den).  A product is an int convolution folded back with
    the table of z^k mod Phi_l (_zeta_rows); only ``inverse`` runs on
    Fractions.  ``coeffs`` is the read-only tuple of the Fraction
    coefficients.  The constructor takes any list of rationals, reduces it
    mod Phi_l and pads it to phi entries.
    """

    __slots__ = ("l", "nums", "den")

    def __init__(self, l, coeffs):
        fr = [Fraction(c) for c in coeffs]
        den = math.lcm(*[c.denominator for c in fr])
        self.l = l
        self.nums, self.den = _canon(
            _fold(l, [c.numerator * (den // c.denominator) for c in fr]), den)

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

    def _coerce(self, other):
        if isinstance(other, CycloNumber):
            if other.l != self.l:
                raise TypeError(f"mixed cyclotomic orders {self.l} and {other.l}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycloNumber.from_rational(self.l, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o)

    __radd__ = __add__

    def __neg__(self):
        x = object.__new__(CycloNumber)
        x.l, x.nums, x.den = self.l, tuple(-n for n in self.nums), self.den
        return x

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(self, o, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _add(o, self, -1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o)

    __rmul__ = __mul__

    def inverse(self):
        """Inverse mod Phi_l: z^-k = z^(l-k) for a power of z (read off
        _zeta_powers), the extended Euclidean algorithm on the Fraction
        coefficients otherwise."""
        if not self:
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if self.den == 1:
            powers, index = _zeta_powers(self.l)
            k = index.get(self.nums)
            if k is not None:
                return powers[-k]  # z^-k = z^(l-k)
        phi = cyclotomic_polynomial(self.l)
        r0, r1 = phi, poly_trim(self.coeffs)
        s0, s1 = [], [Fraction(1)]
        while len(r1) > 1:
            q, r = poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        # r1 is a nonzero constant
        c = r1[0]
        inv = [x / c for x in s1]
        return CycloNumber(self.l, inv)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(self, o.inverse())

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _mul(o, self.inverse())

    def __pow__(self, n):
        base = self.inverse() if n < 0 else self
        n = abs(n)
        out = None
        while n:
            if n & 1:
                out = base if out is None else _mul(out, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return CycloNumber.from_rational(self.l, 1) if out is None else out

    def __bool__(self):
        return any(self.nums)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.nums == o.nums and self.den == o.den

    def __hash__(self):
        return hash((self.l, self.nums, self.den))

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

class RatFunc1:
    """Rational function in one named parameter over Q, stored reduced."""

    __slots__ = ("var", "num", "den")

    def __init__(self, var, num, den=(Fraction(1),), _reduced=False):
        self.var = var
        if _reduced:
            self.num = tuple(num)
            self.den = tuple(den)
            return
        num = poly_trim([Fraction(c) for c in num])
        den = poly_trim([Fraction(c) for c in den])
        if not den:
            raise ZeroDivisionError("zero denominator")
        if num:
            g = poly_gcd(num, den)
            if len(g) > 1:
                num = poly_divmod(num, g)[0]
                den = poly_divmod(den, g)[0]
        else:
            den = [Fraction(1)]
        lead = den[-1]
        if lead != 1:
            num = [c / lead for c in num]
            den = [c / lead for c in den]
        self.num = tuple(num)
        self.den = tuple(den)

    @classmethod
    def variable(cls, var):
        return cls(var, [0, 1])

    @classmethod
    def const(cls, var, x):
        return cls(var, [Fraction(x)])

    def _coerce(self, other):
        if isinstance(other, RatFunc1):
            if other.var != self.var:
                raise TypeError(f"mixed parameters {self.var!r} and {other.var!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc1.const(self.var, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        num = poly_add(poly_mul(self.num, o.den), poly_mul(o.num, self.den))
        return RatFunc1(self.var, num, poly_mul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return RatFunc1(self.var, [-c for c in self.num], self.den, _reduced=True)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc1(self.var, poly_mul(self.num, o.num), poly_mul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o.num:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc1(self.var, poly_mul(self.num, o.den), poly_mul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n):
        if n < 0:
            return (RatFunc1.const(self.var, 1) / self) ** (-n)
        out = RatFunc1.const(self.var, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.var, self.num, self.den))

    def to_json(self):
        return {
            "var": self.var,
            "num": [format_rational(c) for c in self.num],
            "den": [format_rational(c) for c in self.den],
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            data["var"],
            [parse_rational(c) for c in data["num"]],
            [parse_rational(c) for c in data["den"]],
        )

    def __repr__(self):
        return f"RatFunc1({self.var!r}, {list(self.num)}, {list(self.den)})"


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


class CycloField(Domain):
    def __init__(self, l):
        if l < 1:
            raise ValueError(f"cyclotomic order must be at least 1, got {l}")
        self.l = l
        self.name = f"QQ(zeta_{l})"

    def coerce(self, x):
        if isinstance(x, CycloNumber):
            if x.l != self.l:
                raise TypeError(f"cyclotomic order mismatch: {x.l} vs {self.l}")
            return x
        if isinstance(x, (int, Fraction)):
            return CycloNumber.from_rational(self.l, x)
        if isinstance(x, str):
            return CycloNumber.from_rational(self.l, parse_rational(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    @property
    def zeta(self):
        return CycloNumber.zeta(self.l)

    def scalar_to_json(self, x):
        return self.coerce(x).to_json()

    def scalar_from_json(self, data):
        return CycloNumber.from_json(data)


class RatFuncField(Domain):
    def __init__(self, var="t"):
        self.var = var
        self.name = f"QQ({var})"

    def coerce(self, x):
        if isinstance(x, RatFunc1):
            if x.var != self.var:
                raise TypeError(f"parameter mismatch: {x.var} vs {self.var}")
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc1.const(self.var, x)
        if isinstance(x, str):
            return RatFunc1.const(self.var, parse_rational(x))
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    @property
    def gen(self):
        return RatFunc1.variable(self.var)

    def scalar_to_json(self, x):
        return self.coerce(x).to_json()

    def scalar_from_json(self, data):
        return RatFunc1.from_json(data)


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
        _, n1, n2, window = con
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
    ('diff_not_integer', n1, n2, W), ('ratio_not_q_power', n1, n2, q, W).
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
