"""Operator engine: algebra generators acting exactly on Laurent polynomials.

Three representation families are supported, each acting on
P = K[X_1^{+-1}, ..., X_N^{+-1}]:

* "daha":  Hecke generators T_i act by tb*s_i + (tb - 1/tb)/(X_i/X_{i+1} - 1)(s_i - 1),
  X_i by multiplication, omega by (omega f)(X_1,...,X_N) = f(q X_N, X_1, ..., X_{N-1}),
  Y_i = tb^(N-1) T_i^-1...T_{N-1}^-1 omega T_1...T_{i-1}, and the q-shift
  tau_i by f(..., X_i, ...) -> f(..., q X_i, ...); tau is daha only, since
  the other families have no q.  Derived
  generators: pi = X_1 T_1...T_{N-1}, pi_- = pi^-1 (Y_1-Z_1)...(Y_1-Z_l), and
  the q-deformed Dunkl operators
  Dl_i = T_{i-1}^-1...T_1^-1 X_1^-1 (Y_1-Z_1)...(Y_1-Z_l) T_1^-1...T_{i-1}^-1.

* "deg": the degenerate (trigonometric) family with permutations s_i,
  rational Dunkl operators D_i = hbar*d_i - sum_j k/(X_i-X_j)(1-s_ij),
  trigonometric Dunkl operators y_i = X_i D_i - k sum_{j<i} s_ij,
  pi = X_1 s_1...s_{N-1}, s_0 = s_1N X_1^-1 X_N, and the degenerate
  Dl_i = s_1i X_1^-1 (y_1-z_1)...(y_1-z_l) s_1i.

* "cyc": the cyclotomic rational Cherednik family for S_N wr Z/l over
  Q(zeta_l), with variable scalings sigma_i and Dunkl-Opdam operators DO_i;
  deg's D_i is DO_i at l = 1 with no c-part.

X_i^+-1 and s_i act alike in every family.  The coefficient field follows
the parameter values (scalars.field_of): Rep.daha and Rep.degenerate work
over QQ for rational parameters, over Q(t) when one is a RatFunc1 in t, and
over Q(zeta_l) when one is a CycloNumber.  Rep.cyclotomic_cherednik always
works over Q(zeta_l), since its operators use zeta even at rational
parameters.

GENERATORS[family] is the one table of a family: it maps each generator tag
the family accepts to its action, and any other tag raises FamilyMismatch.
An action is of one of three kinds.  A monomial map (_Monomial: X^+-1,
s_i, s_ij, omega^+-1, tau_i, sigma_i^+-1, and deg's pi^+-1 and s_0, whose
displayed products above are words in X^+-1 and s) sends each monomial to
one monomial.  A primitive (T^+-1 and the Dunkl operators) acts by its own
code and spreads a monomial into a polynomial.  A composite (Y^+-1, Dl,
pi_-, and daha's pi^+-1) is an OperatorExpr, the product displayed above,
built once per (representation, generator) and evaluated like any other
expression, so every generator in it acts through apply_gen.

Operator words act right-to-left (the rightmost generator applies first).
Rep.apply_gen reads a generator's action from a slot bound once per
(representation, generator), after the family and index checks.  A
monomial map's slot holds one table (laurent._Table) from an exponent e to
its image exponent e', with the image's scalar split as (numerator, den)
where it is not 1 (omega^+-1 by q^(+-e), tau_i, sigma_i^+-1), filled on
first use.  A unit-scalar map acts on any polynomial in one dict
comprehension over its terms (LaurentPoly.map_exponents): the den is kept
and nothing is reduced, since an injective exponent map with scalar 1
keeps the canonical form.  A scaled map takes one pass and one content
reduction (map_exponents_scaled).  deg's pi, pi^-1 and s_0 get one table
each, filled through their factors' tables (_composed).  A monomial map
keeps no images.

The other generators cache images of monomials on the representation;
caching is semantically invisible because representations are immutable.
A primitive caches the image of every monomial it meets.  A composite
caches the image of a monomial with coefficient 1 it is applied to;
applied to any other polynomial with a term outside its cache, it
evaluates its expression on the whole polynomial, which merges like terms
at each factor through the factors' slots, and stores nothing.  In
randomized checks the images of such intermediate polynomials' terms are
mostly read about once, so building and storing one per monomial, each
along its own walk of the factor chain, costs more than it saves.

The engine works in LaurentPoly's fraction-free form: a cached image holds
numerators over one shared den (ints over a positive int den for QQ, field
elements over 1 for Q(zeta_l) and Q(t); a CycloNumber is itself int
numerators over one den).  The slot of a primitive or composite holds its
image cache, its fresh-image function and (for a composite) its
whole-polynomial function; they reach the representation through a weak
reference, and no table or function in a slot holds it, so no closure is
built per call and the slot makes no reference cycle.  A monomial with
coefficient 1 gets its cached image itself, computed only on a miss (from
a monomial wrapping the unit numerator split once per representation); a
composite's argument with a term outside its cache goes to its expression;
any other argument goes to LaurentPoly.map_linear, one loop over its terms
that looks up each image the same way and adds its numerators into one
dict.

Rep.apply evaluates an OperatorExpr as it was built, through Rep._eval (so
the public Rep.apply is entered once per call).  A product of sums keeps
its two factors (see OperatorExpr): the right factor is applied in full,
then the left.  Any other expression is compiled once, with the plan kept
on the expression and keyed by the coefficient field: a single word with
coefficient 1 goes straight to apply_word, and a sum becomes the suffix
trie of its words (grouped by their rightmost generator, then the next,
...), with each coefficient split once.  Walking the trie for a polynomial
applies each node's generator once, so a suffix common to several words
acts once, and a leaf of one word goes to apply_word; one
LaurentPoly.linear_sum adds the parts over one lcm.  map_linear and
linear_sum each end with one gcd content reduction.  A Gen is a named
tuple, so the cache lookups hash and compare it in C.  Reports read
coefficients through LaurentPoly.terms and to_json, which join them into
reduced Fractions over QQ.

Rep.apply_word applies a word along its plan (Rep._plan), built on the
word's first use in the representation and looked up by the word object's
id, so the word is not hashed on each call; the plan holds the word, so the
id stays its own.  Only a tuple's plan is kept: the words of compiled
expressions are tuples, and a list could change after its plan is built.
A plan fuses two kinds of run.  A run of two or more unit-scalar monomial
maps (X^+-1, s, s_ij, deg's pi^+-1 and s_0) becomes one monomial map,
whose table is filled through the factors' tables, as deg's pi and s_0
are; a run met once costs about what its factors would, and one met
again is one lookup per term.  A run of two or more composites (Y_1...Y_N in
R10, Y_i Y_j in R12, Dl_i Dl_j) becomes one composite, with its own slot
and cache keyed by the tuple of its Gens, so equal runs of different
words share them: it caches the image of a monomial with coefficient 1 it
is applied to, and a polynomial with a term outside its cache goes
through the run factor by factor and stores nothing, as for any
composite.  In box sweeps the relations of one family meet the same run
on the same monomials (R10[i] applies Y_1...Y_N to X^e and to X_i X^e for
every i), and there the cache pays; in randomized checks it is rarely
read back.  The scaled maps (omega^+-1, tau, sigma^+-1), the primitives,
and runs that contain a primitive stay single steps.  A primitive already
caches the image of every monomial it meets, so caching a run through it
stores each image a second time, once per run: caching the runs of
primitives and composites as well (T_i T_j, T_i^-1 Dl_i T_i^-1, ...)
raised the peak RSS of a seed-0 relations-box run from 29.4 to 42.6 MB
and made its pass slower, 3.45 s against 3.23 s.  Every Gen of a word is
checked before its plan or any run is kept, so a Gen outside the family
raises on every call.

Fresh images are built without intermediate polynomials where the action
has a closed form.  T_i^+-1 and the Dunkl operators make one pass over
the terms of their argument into one LaurentPoly._collect: T_i's
quotient by X_i/X_{i+1} - 1 is a signed geometric sum.  One pass,
Rep._dunkl, serves DO_i, D_i and y_i (Dtrig_i is y_i, bound to y_i's slot
and cache through _Same): DO_i's quotients by x_i - zeta^m x_r, summed
over m, are one geometric sum with integer coefficients, D_i is DO_i at
l = 1 with no c-part, and y_i shifts D_i by X_i and adds its s_ij terms.
The scalars they use are computed once per representation: tb, tb - 1/tb
and the powers of q (which the tables of omega^+-1 and tau read too); the
Dunkl step l, the table a -> hbar a - w(a mod l) of DO's c-part and
derivative (w = 0 for deg), and -k l and k l.  Where a composite contains another composite's
factors, its expression holds that composite as one Gen, applied through
apply_gen like any other:
Dl_i = T_{i-1}^-1 Dl_{i-1} T_{i-1}^-1 (daha) and s_1i Dl_1 s_1i (deg), and
pi_- = T_{N-1}^-1...T_1^-1 Dl_1 (daha) and s_{N-1}...s_1 Dl_1 (deg), the
displayed products grouped.
"""

from __future__ import annotations

import itertools
import weakref
from operator import itemgetter
from random import Random
from typing import NamedTuple

from .kernel import terms_add, terms_neg, terms_scale, terms_sub
from .laurent import LaurentPoly, _Table, split_powers
from .scalars import QQ, CycloField, CycloNumber, field_of

FAMILY_DAHA = "daha"
FAMILY_DEG = "deg"
FAMILY_CYC = "cyc"


class FamilyMismatch(Exception):
    """A representation asked for what its family lacks: a generator, Y_i(f)
    or the relations of a family that acts in another representation."""


class Gen(NamedTuple):
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


class OperatorExpr:
    """Formal linear combination of words in generators.

    terms: dict mapping word tuples to nonzero scalar coefficients (a zero
    scalar gives the zero expression).  Purely syntactic; evaluation is
    linear and words compose right-to-left.  An expression is immutable
    after construction (the operators build new ones).  A product keeps
    its two factors (_factors = (left, right)) when either is a sum of
    several words or a kept product, and so does a nonzero scalar times a
    kept product; terms, == and repr expand it on first use, exactly as the
    product of the expanded factors.  Rep.apply evaluates a kept product
    factor by factor, and compiles any other expression once, keeping the
    plan (see _compile) in _plan; a rep over another coefficient field
    compiles it anew.
    """

    __slots__ = ("_terms", "_factors", "_plan")

    def __init__(self, terms=None, factors=None):
        """terms, or the two factors (left, right) of a kept product."""
        self._terms = None if factors else dict(terms) if terms else {}
        self._factors = factors
        self._plan = None

    @property
    def terms(self):
        """The expanded terms; a kept product is expanded once, down its
        chain of left factors (so a long power needs no deep recursion)."""
        if self._terms is None:
            rights, e = [], self
            while e._terms is None:
                e, right = e._factors
                rights.append(right)
            terms = e._terms
            for right in reversed(rights):
                terms = _word_products(terms, right.terms)
            self._terms = terms
        return self._terms

    @classmethod
    def word(cls, gens, coeff=1):
        """coeff times the word gens; zero when coeff is 0."""
        return cls({tuple(gens): coeff} if coeff else None)

    @classmethod
    def gen(cls, tag, i=0, j=0):
        return cls.word([Gen(tag, i, j)])

    @classmethod
    def scalar(cls, c):
        return cls.word((), c)

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def zero(cls):
        return cls()

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            other = OperatorExpr.scalar(other)
        return OperatorExpr(terms_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return OperatorExpr(terms_neg(self.terms))

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            other = OperatorExpr.scalar(other)
        return OperatorExpr(terms_sub(self.terms, other.terms))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        """Operator product: words concatenate (self acts after other)."""
        if not isinstance(other, OperatorExpr):
            if other and self._factors is not None:
                return OperatorExpr(factors=(self, OperatorExpr.scalar(other)))
            return OperatorExpr(terms_scale(self.terms, other))
        if any(e._factors is not None or len(e._terms) > 1 for e in (self, other)):
            return OperatorExpr(factors=(self, other))
        return OperatorExpr(_word_products(self._terms, other._terms))

    def __rmul__(self, other):
        # scalar * expr
        if other and self._factors is not None:
            return OperatorExpr(factors=(OperatorExpr.scalar(other), self))
        return OperatorExpr(terms_scale(self.terms, other))

    def __pow__(self, n):
        """self to a power n, an int >= 0; any other exponent raises
        ValueError (an OperatorExpr has no inverse)."""
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"operator power {n!r} is not an int >= 0")
        return word_product([self] * n)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, OperatorExpr) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for w, c in self.terms.items():
            word = " ".join(repr(g) for g in w) if w else "1"
            bits.append(f"({c})*[{word}]")
        return " + ".join(bits)


def _word_products(a, b):
    """The terms of the product of the terms a and b: every word of a
    followed by every word of b, like words summed and zeros dropped."""
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            c = c1 * c2
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return out


def _compile(dom, terms):
    """The plan (dom, word, root) by which Rep.apply applies terms: word is
    the one word of terms when its coefficient is 1, else None and root the
    suffix trie of the words, each coefficient c split once as
    dom.split(dom.coerce(c)).  A node is (here, children): here is the
    split coefficient of the word that ends at the node, or None, and
    children lists (g, word, sub) in first-seen order, one per generator g
    to the left of the node's suffix.  A child that holds one word is a
    leaf: word is that word without the node's suffix and sub its
    coefficient; otherwise word is None and sub the child node."""
    split, coerce = dom.split, dom.coerce
    words = [(w, split(coerce(c))) for w, c in terms.items()]
    if len(words) == 1 and words[0][1] == (1, 1):
        return dom, words[0][0], None
    return dom, None, _trie_node(words, 0)


def _trie_node(words, depth):
    """The node of the (word, split coefficient) pairs in words, which share
    their last depth generators."""
    here = None
    groups = {}
    for w, c in words:
        k = len(w) - depth
        if k:
            groups.setdefault(w[k - 1], []).append((w, c))
        else:
            here = c
    children = []
    for g, group in groups.items():
        if len(group) == 1:
            ((w, c),) = group
            children.append((g, w[:len(w) - depth], c))
        else:
            children.append((g, None, _trie_node(group, depth + 1)))
    return here, children


def word_product(exprs):
    """Product of a list of OperatorExprs, left to right."""
    out = OperatorExpr.one()
    for e in exprs:
        out = out * e
    return out


def root_product(a, roots):
    """prod_s (a - roots_s), left to right."""
    return word_product([a - OperatorExpr.scalar(z) for z in roots])


class Rep:
    """A representation context: family, rank, level, parameter values.

    Immutable after construction; all generator applications are exact.
    Images of monomials are cached per generator: every monomial a
    primitive meets, and the monomials with coefficient 1 a composite, or
    a run of composites in a word's plan, is applied to.  A monomial map
    (X^+-1, s, s_ij, omega^+-1, tau, sigma^+-1, deg's pi^+-1 and s_0)
    caches no image: it keeps a table of image exponents (see the module
    docstring).
    """

    def __init__(self, family, N, l=0, params=None, dom=QQ):
        self.family = family
        self.N = N
        self.l = l
        self.params = dict(params or {})
        self.dom = dom
        self._actions = GENERATORS[family]
        self._cache = {}
        self._slots = {}  # g -> its slot, bound on first use (see _slot)
        self._exprs = {}  # composite g -> its OperatorExpr
        self._plans = {}  # id(word) -> (word, its steps), built on first use (see _plan)
        # the numerator of 1, wrapped as the monomial argument of each fresh image
        self._one = dom.split(dom.one)[0]
        if family == FAMILY_DAHA:
            tb = self.params["tb"]
            self.params.setdefault("t", tb * tb)
            if self.params["t"] != tb * tb:
                raise ValueError("t must equal tb^2")
            # T_i's scalars tb and tb - 1/tb as (numerator, den) pairs, and
            # omega's powers of q
            self._tb = dom.split(dom.coerce(tb))
            self._gap = dom.split(dom.coerce(tb - 1 / tb))
            self._qpows = split_powers(dom, dom.coerce(self.params["q"]))
        else:
            # the Dunkl scalars (see _dunkl; deg is l = 1 with w = 0): the
            # step l, the table a -> hbar a - w(a mod l) with
            # w(s) = sum_j c_j zeta^(js), and -k l and k l, split; None when 0
            hbar, k = self.params["hbar"], self.params["k"]
            if family == FAMILY_CYC:
                step = l
                w = tuple(sum((cj * CycloNumber.zeta(l, j * s)
                               for j, cj in enumerate(self.params["c"])), dom.zero)
                          for s in range(l))
            else:
                step, w = 1, (dom.zero,)

            def scalar(a):
                c = hbar * a - w[a % step]
                return dom.split(c) if c else None

            self._step = step
            self._dc = _Table(scalar)
            kl = k * step
            self._kl = (dom.split(-kl), dom.split(kl)) if kl else None

    # -- constructors -------------------------------------------------------

    @classmethod
    def daha(cls, N, q, tb, Z=()):
        """The polynomial representation of the (cyclotomic) DAHA at level
        len(Z), over the field of q, tb and Z (see scalars.field_of)."""
        dom = field_of(q, tb, *Z)
        Z = tuple(dom.coerce(z) for z in Z)
        return cls(FAMILY_DAHA, N, len(Z),
                   {"q": dom.coerce(q), "tb": dom.coerce(tb), "Z": Z}, dom)

    @classmethod
    def degenerate(cls, N, hbar, k, z=()):
        """The degenerate representation at level len(z), over the field of
        hbar, k and z (see scalars.field_of)."""
        dom = field_of(hbar, k, *z)
        z = tuple(dom.coerce(x) for x in z)
        return cls(FAMILY_DEG, N, len(z),
                   {"hbar": dom.coerce(hbar), "k": dom.coerce(k), "z": z}, dom)

    @classmethod
    def cyclotomic_cherednik(cls, N, l, hbar, k, c):
        dom = CycloField(l)
        c = tuple(dom.coerce(x) for x in c)
        if len(c) != l:
            raise ValueError("need l parameters c_0..c_{l-1}")
        return cls(FAMILY_CYC, N, l,
                   {"hbar": dom.coerce(hbar), "k": dom.coerce(k), "c": c}, dom)

    # -- basics -------------------------------------------------------------

    def one(self):
        return LaurentPoly.one(self.N, self.dom)

    def var(self, i):
        return LaurentPoly.variable(self.N, i, self.dom)

    def monomial(self, exps, c=1):
        return LaurentPoly.monomial(self.N, exps, c, self.dom)

    # -- application --------------------------------------------------------

    def apply_gen(self, g, p):
        """Apply one generator to a Laurent polynomial (exact, linear).  A
        monomial map sends p through its exponent table.  For any other
        generator, a monomial with coefficient 1 gets its cached image
        itself; a composite applied to a polynomial with a term not in its
        cache is evaluated through its factors, and its cache is left as it
        was; any other polynomial sums the images of its terms
        (map_linear).  A Gen outside the family gets no slot, so it raises
        on every call.  g may also be a run of a word's plan (see _plan),
        whose slot the plan bound."""
        slot = self._slots.get(g)
        if slot is None:
            slot = self._slot(g)
        cache, fresh, whole = slot
        if cache is None:
            # a monomial map: fresh is its exponent table and whole
            # LaurentPoly.map_exponents or map_exponents_scaled
            return whole(p, fresh)
        nums = p.nums
        if p.den == 1 and len(nums) == 1:
            for e, n in nums.items():
                if n == 1:
                    img = cache.get(e)
                    if img is None:
                        img = cache[e] = fresh(e)
                    return img
        if whole is None or cache.keys() >= nums.keys():
            return p.map_linear(cache, fresh)
        return whole(p)

    def _action(self, g):
        """The table's action of g, after the family and index checks."""
        if g.tag not in self._actions:
            raise FamilyMismatch(f"{g!r} not available in family {self.family!r}")
        if not index_ok(g, self.N):
            raise ValueError(f"index i={g.i}, j={g.j} of {g.tag} is out of range at N = {self.N}")
        return self._actions[g.tag]

    def _slot(self, g):
        """The slot of g, bound once per (rep, g) after the family and index
        checks, with g's image cache as self._cache[g].  A monomial map
        (_Monomial) keeps no images: its slot is (None, its exponent table,
        the LaurentPoly method that applies the table), and its cache stays
        empty.  Any other generator's slot is its image cache, its
        fresh-image function, and for a composite the function that
        evaluates its expression on a whole polynomial (None for a
        primitive).  A tag bound to _Same(tag') shares the slot and cache
        of tag' at the same indices.  Nothing in a slot holds the rep, and
        the functions reach it through a weak reference, so the slot kept
        on the rep makes no reference cycle."""
        action = self._action(g)
        if isinstance(action, _Same):
            h = g._replace(tag=action.tag)
            slot = self._slots[g] = self._slots.get(h) or self._slot(h)
            self._cache[g] = self._cache[h]
            return slot
        if isinstance(action, _Monomial):
            return self._bind_map(g, action.build(self, g), action.scaled)
        rep = weakref.ref(self)

        def whole(p):
            return action(rep(), g, p)

        return self._bind(g, whole, isinstance(action, _Composite))

    def _bind_map(self, key, f, scaled=False):
        """Bind key's slot to the monomial map with exponent function f."""
        self._cache[key] = {}
        slot = self._slots[key] = (
            None, _Table(f),
            LaurentPoly.map_exponents_scaled if scaled else LaurentPoly.map_exponents)
        return slot

    def _bind(self, key, whole, composite):
        """Bind key's slot to an image cache whose fresh image of X^e is
        whole applied to X^e; a composite's slot keeps whole for the
        polynomials with a term outside its cache."""
        N, dom, one = self.N, self.dom, self._one

        def fresh(e):
            return whole(LaurentPoly._make(N, dom, {e: one}))

        cache = self._cache[key] = {}
        slot = self._slots[key] = (cache, fresh, whole if composite else None)
        return slot

    def apply_word(self, word, p):
        """Apply word, a sequence of Gens (the rightmost acts first), along
        its plan on this rep (see _plan), looked up by the word object."""
        plan = self._plans.get(id(word))
        if plan is None or plan[0] is not word:
            plan = self._plan(word)
        for g in plan[1]:
            p = self.apply_gen(g, p)
        return p

    def _plan(self, word):
        """The plan (word, steps) of word, kept on the rep as
        self._plans[id(word)] when word is a tuple; holding word keeps its id
        from being reused.  Any other sequence could change after the call,
        so it is planned on each call and its plan is not kept.  steps
        lists, in the order they act, the keys apply_gen takes: a Gen, or a
        run of two or more unit-scalar monomial maps, or of two or more
        composites, as the tuple of its Gens.  A run's slot is bound here,
        once per (rep, run): a map run's is a table filled through its
        factors' tables (_composed, as for deg's pi and s_0), a composite
        run's is a composite's whose whole-polynomial function applies the
        run factor by factor.  Every Gen is checked before anything is
        kept, so a Gen the rep lacks raises on every call."""
        kinds = [(g, self._kind(g)) for g in word]
        steps = []
        for kind, group in itertools.groupby(kinds, itemgetter(1)):
            run = tuple(g for g, _ in group)
            if kind is None or len(run) == 1:
                steps.extend(run)
                continue
            if run not in self._slots:
                if kind is _Monomial:
                    self._bind_map(run, _composed(self, run))
                else:
                    self._bind(run, _factor_by_factor(weakref.ref(self), run[::-1]), True)
            steps.append(run)
        plan = (word, tuple(reversed(steps)))
        if type(word) is tuple:
            self._plans[id(word)] = plan
        return plan

    def _kind(self, g):
        """_Monomial for a unit-scalar monomial map, _Composite for a
        composite, None for anything else (the runs _plan fuses)."""
        action = self._action(g)
        if isinstance(action, _Same):
            action = self._actions[action.tag]
        if isinstance(action, _Monomial):
            return None if action.scaled else _Monomial
        return _Composite if isinstance(action, _Composite) else None

    def apply(self, expr, p):
        """Apply an OperatorExpr (linear) as it was built (see _eval)."""
        if isinstance(expr, Gen):
            return self.apply_gen(expr, p)
        return self._eval(expr, p)

    def _eval(self, expr, p):
        """expr applied to p: a kept product right factor first, looping down
        its left factors; anything else along its suffix trie (_compile)."""
        while expr._factors is not None:
            expr, right = expr._factors
            p = self._eval(right, p)
        plan = expr._plan
        if plan is None or plan[0] is not self.dom:
            plan = expr._plan = _compile(self.dom, expr._terms)
        _, word, root = plan
        if word is not None:
            return self.apply_word(word, p)
        parts = []
        self._walk(root, p, parts)
        return LaurentPoly.linear_sum(self.N, self.dom, parts)

    def _walk(self, node, p, parts):
        """Append (n, d, w' p) to parts for each word w with coefficient n/d
        under node, where p is the image of node's suffix and w' is w without
        it.  A leaf's word is applied by apply_word."""
        here, children = node
        if here is not None:
            parts.append((*here, p))
        for g, word, sub in children:
            if word is None:
                self._walk(sub, self.apply_gen(g, p), parts)
            else:
                parts.append((*sub, self.apply_word(word, p)))

    # -- primitive actions --------------------------------------------------

    def _T(self, i, p, inverse=False):
        """T_i = tb s_i + (tb - 1/tb)(s_i - 1)/(X_i/X_{i+1} - 1), in one pass
        over the terms of p.  With a = e_i and b = e_{i+1},
        (s_i - 1)/(X_i/X_{i+1} - 1) sends X^e to
        -X_{i+1} (X^e - X^{s_i e})/(X_i - X_{i+1}): minus sign(a - b) times
        the sum of X^f over f_i = a + b - 1 - t, f_{i+1} = t + 1 for
        min(a, b) <= t < max(a, b).  T_i^-1 = T_i - (tb - 1/tb)."""
        (tn, td), (gn, gd) = self._tb, self._gap
        ii, jj = i - 1, i
        parts = []
        for e, n in p.nums.items():
            a, b = e[ii], e[jj]
            f = list(e)
            f[ii], f[jj] = b, a
            parts.append((tuple(f), n * tn, td))
            if a != b:
                m = -n * gn if a > b else n * gn
                for t in range(min(a, b), max(a, b)):
                    f[ii] = a + b - 1 - t
                    f[jj] = t + 1
                    parts.append((tuple(f), m, gd))
            if inverse:
                parts.append((e, -n * gn, gd))
        return p._collect(parts)

    def _dunkl(self, i, p, trig=False):
        """DO_i = hbar d_i - x_i^-1 sum_j c_j sigma_i^j
        - k sum_{r != i} sum_m (1 - s_ir sigma_i^m sigma_r^-m)/(x_i - zeta^m x_r),
        in one pass over the terms of p.  At l = 1 with no c-part it is
        deg's D_i = hbar d_i - k sum_{r != i} (1 - s_ir)/(X_i - X_r); with
        trig, y_i = X_i D_i - k sum_{r<i} s_ir.

        sigma_i^j scales X^e by zeta^(j e_i), so the c-part meets the
        derivative at X^e/X_i in one term, hbar e_i - w(e_i mod l) (self._dc).
        With a = e_i and b = e_r, the m-th quotient sends X^e to
        sign(a - b) sum_t zeta^(m(t-b)) X_i^(a+b-1-t) X_r^t over
        min(a, b) <= t < max(a, b), and zeta^(m(t-b)) sums over m to l when
        t = b mod l and to 0 otherwise: an integer k-part with 1/l of the
        terms.  y_i shifts both parts by X_i and adds -k X^(s_ir e), r < i."""
        dc, kl, step = self._dc, self._kl, self._step
        ii = i - 1
        up = 1 if trig else 0  # the exponent of X_i in front of D_i
        parts = []
        for e, n in p.nums.items():
            a = e[ii]
            c = dc[a]
            if c is not None:
                f = list(e)
                f[ii] = a - 1 + up
                parts.append((tuple(f), n * c[0], c[1]))
            if kl is None:
                continue
            for r, b in enumerate(e):
                if r == ii or a == b:
                    continue
                # -k l sign(a - b)
                kn, kd = kl[a < b]
                m = n * kn
                lo, hi = (b, a) if a > b else (a, b)
                f = list(e)
                # t runs over lo <= t < hi with t = b mod l
                for t in range(lo + (b - lo) % step, hi, step):
                    f[ii] = a + b - 1 - t + up
                    f[r] = t
                    parts.append((tuple(f), m, kd))
            if trig:
                kn, kd = kl[0]
                m = n * kn
                for r in range(ii):
                    f = list(e)
                    f[ii], f[r] = e[r], a
                    parts.append((tuple(f), m, kd))
        return p._collect(parts)


# ---------------------------------------------------------------------------
# generator tables: GENERATORS[family][tag] is the action of the tag: a
# function (rep, g, p) -> g.p (a primitive), a _Composite, a _Monomial, or
# _Same(tag') for the action of tag' at the same indices

class _Composite:
    """The action of a generator defined as an OperatorExpr: build(rep, g)
    is the paper's product, built once per (rep, g), kept on the
    representation and evaluated by Rep._eval.  Rep._slot tells a composite
    by this type."""

    __slots__ = ("build",)

    def __init__(self, build):
        self.build = build

    def __call__(self, rep, g, p):
        expr = rep._exprs.get(g)
        if expr is None:
            expr = rep._exprs[g] = self.build(rep, g)
        return rep._eval(expr, p)


class _Same:
    """The action of another tag of the family at the same indices: Rep._slot
    binds the two Gens to one slot, so they share one image cache."""

    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag


class _Monomial:
    """The action of a generator that sends each monomial X^e to one
    monomial c(e) X^f(e), f injective.  build(rep, g) is the function
    e -> f(e) when c is 1 throughout, or, when scaled, e -> (f(e), n, d)
    with c(e) = n/d split in rep.dom.  Rep._slot tells a monomial map by
    this type and keeps build(rep, g) on the representation as the filler
    of one _Table, so the function must not hold rep."""

    __slots__ = ("build", "scaled")

    def __init__(self, build, scaled=False):
        self.build = build
        self.scaled = scaled


def _gens(tag, indices):
    return [Gen(tag, j) for j in indices]


def _shift(k, v):
    """e -> e with v added at 0-based slot k."""
    return lambda e: (*e[:k], e[k] + v, *e[k + 1:])


def _swap(a, b):
    """e -> e with 0-based slots a and b exchanged (the identity if a == b)."""
    def f(e):
        e = list(e)
        e[a], e[b] = e[b], e[a]
        return tuple(e)
    return f


def _scale(k, powers):
    """e -> (e, n, d) with n/d = powers[e_k], powers a split_powers table."""
    return lambda e: (e, *powers[e[k]])


def _composed(rep, word):
    """The exponent function of word, unit monomial maps of rep's family
    (the rightmost acts first): one function through the factors' tables,
    shared with the factors' own slots, so an exponent a factor has met is
    looked up, not mapped again; no table holds rep."""
    tables = [(rep._slots.get(h) or rep._slot(h))[1] for h in reversed(word)]

    def f(e):
        for t in tables:
            e = t[e]
        return e
    return f


def _word(word):
    """The unit monomial map of a word of unit monomial maps, word(rep) its
    factors, each a monomial map of the family."""
    return _Monomial(lambda rep, g: _composed(rep, word(rep)))


def _factor_by_factor(rep, gens):
    """The function applying gens one by one, in order, through apply_gen
    of the rep that the weak reference rep names."""
    def whole(p):
        apply_gen = rep().apply_gen
        for g in gens:
            p = apply_gen(g, p)
        return p
    return whole


_SHARED = {
    "X": _Monomial(lambda rep, g: _shift(g.i - 1, 1)),
    "X^-1": _Monomial(lambda rep, g: _shift(g.i - 1, -1)),
    "s": _Monomial(lambda rep, g: _swap(g.i - 1, g.i)),
}
_SIJ = _Monomial(lambda rep, g: _swap(g.i - 1, g.j - 1))


def _omega(rep, g):
    """(omega f)(X) = f(qX_N, X_1, ..., X_{N-1}) sends X^e to q^(e_1) X^e'
    with e' the exponent vector rotated left."""
    qpows = rep._qpows
    return lambda e: ((*e[1:], e[0]), *qpows[e[0]])


def _omega_inverse(rep, g):
    """omega^-1 sends X^e to q^(-e_N) X^e'' with e'' rotated right."""
    qpows = rep._qpows
    return lambda e: ((e[-1], *e[:-1]), *qpows[-e[-1]])


# the tags that take no index, and those of T_i, T_i^-1 and s_i, which act on
# X_i and X_{i+1}
_NO_INDEX = ("omega", "omega^-1", "pi", "pi^-1", "pi-", "s0")
_ADJACENT = ("T", "T^-1", "s")


def index_ok(g, N):
    """Whether the indices of g name variables at rank N: none for omega,
    pi, pi_- and s_0 (and the inverses); 1 <= i < N for T, T^-1 and s; two
    indices 1 <= i, j <= N for sij (s_ii is the identity, as in
    s_0 = s_1N X_1^-1 X_N at N = 1); 1 <= i <= N and no j otherwise."""
    if g.tag in _NO_INDEX:
        return g.i == g.j == 0
    if g.tag == "sij":
        return 1 <= g.i <= N and 1 <= g.j <= N
    return 1 <= g.i <= (N - 1 if g.tag in _ADJACENT else N) and g.j == 0


GENERATORS = {
    FAMILY_DAHA: {
        **_SHARED,
        "tau": _Monomial(lambda rep, g: _scale(g.i - 1, rep._qpows), scaled=True),
        "T": lambda rep, g, p: rep._T(g.i, p),
        "T^-1": lambda rep, g, p: rep._T(g.i, p, inverse=True),
        "omega": _Monomial(_omega, scaled=True),
        "omega^-1": _Monomial(_omega_inverse, scaled=True),
        # Y_i = tb^(N-1) T_i^-1...T_{N-1}^-1 omega T_1...T_{i-1}
        "Y": _Composite(lambda rep, g: OperatorExpr.word([
            *_gens("T^-1", range(g.i, rep.N)), Gen("omega"), *_gens("T", range(1, g.i))],
            rep.params["tb"] ** (rep.N - 1))),
        # Y_i^-1 = tb^(1-N) T_{i-1}^-1...T_1^-1 omega^-1 T_{N-1}...T_i
        "Y^-1": _Composite(lambda rep, g: OperatorExpr.word([
            *_gens("T^-1", range(g.i - 1, 0, -1)), Gen("omega^-1"),
            *_gens("T", range(rep.N - 1, g.i - 1, -1))], (1 / rep.params["tb"]) ** (rep.N - 1))),
        # pi = X_1 T_1...T_{N-1}
        "pi": _Composite(lambda rep, g: OperatorExpr.word(
            [Gen("X", 1), *_gens("T", range(1, rep.N))])),
        # pi^-1 = T_{N-1}^-1...T_1^-1 X_1^-1
        "pi^-1": _Composite(lambda rep, g: OperatorExpr.word(
            [*_gens("T^-1", range(rep.N - 1, 0, -1)), Gen("X^-1", 1)])),
        # pi_- = pi^-1 (Y_1 - Z_1)...(Y_1 - Z_l) = T_{N-1}^-1...T_1^-1 Dl_1
        "pi-": _Composite(lambda rep, g: OperatorExpr.word(
            [*_gens("T^-1", range(rep.N - 1, 0, -1)), Gen("Dl", 1)])),
        # Dl_1 = X_1^-1 (Y_1 - Z_1)...(Y_1 - Z_l), and
        # Dl_i = T_{i-1}^-1...T_1^-1 Dl_1 T_1^-1...T_{i-1}^-1 = T_{i-1}^-1 Dl_{i-1} T_{i-1}^-1
        "Dl": _Composite(lambda rep, g: (
            OperatorExpr.gen("X^-1", 1) * root_product(OperatorExpr.gen("Y", 1), rep.params["Z"])
            if g.i == 1 else
            OperatorExpr.word([Gen("T^-1", g.i - 1), Gen("Dl", g.i - 1), Gen("T^-1", g.i - 1)]))),
    },
    FAMILY_DEG: {
        **_SHARED,
        "sij": _SIJ,
        "D": lambda rep, g, p: rep._dunkl(g.i, p),
        "y": lambda rep, g, p: rep._dunkl(g.i, p, trig=True),
        "Dtrig": _Same("y"),
        # s_0 = s_1N X_1^-1 X_N
        "s0": _word(lambda rep: [Gen("sij", 1, rep.N), Gen("X^-1", 1), Gen("X", rep.N)]),
        # pi = X_1 s_1...s_{N-1}
        "pi": _word(lambda rep: [Gen("X", 1), *_gens("s", range(1, rep.N))]),
        # pi^-1 = s_{N-1}...s_1 X_1^-1
        "pi^-1": _word(lambda rep: [*_gens("s", range(rep.N - 1, 0, -1)), Gen("X^-1", 1)]),
        # pi_- = pi^-1 (y_1 - z_1)...(y_1 - z_l) = s_{N-1}...s_1 Dl_1
        "pi-": _Composite(lambda rep, g: OperatorExpr.word(
            [*_gens("s", range(rep.N - 1, 0, -1)), Gen("Dl", 1)])),
        # Dl_1 = X_1^-1 (y_1 - z_1)...(y_1 - z_l), and Dl_i = s_1i Dl_1 s_1i
        "Dl": _Composite(lambda rep, g: (
            OperatorExpr.gen("X^-1", 1) * root_product(OperatorExpr.gen("y", 1), rep.params["z"])
            if g.i == 1 else
            OperatorExpr.word([Gen("sij", 1, g.i), Gen("Dl", 1), Gen("sij", 1, g.i)]))),
    },
    FAMILY_CYC: {
        **_SHARED,
        "sij": _SIJ,
        # sigma_i scales X_i by zeta, sigma_i^-1 by zeta^(l-1)
        "sigma": _Monomial(lambda rep, g: _scale(
            g.i - 1, split_powers(rep.dom, rep.dom.zeta)), scaled=True),
        "sigma^-1": _Monomial(lambda rep, g: _scale(
            g.i - 1, split_powers(rep.dom, rep.dom.zeta ** (rep.l - 1))), scaled=True),
        "DO": lambda rep, g, p: rep._dunkl(g.i, p),
    },
}


# ---------------------------------------------------------------------------
# operator equality testing

def box_monomials(N, B):
    return itertools.product(range(-B, B + 1), repeat=N)


def op_equal_on_box(rep, a, b, box_radius):
    """Compare two operator expressions on every monomial with exponents in
    [-B, B]^N, B = box_radius.  Returns a report dict with a witness on
    failure.

    Equality on a box shows that a and b agree on the (2B+1)^N monomials
    of the box, and no more: it is evidence for equality in the
    representation, not a proof (prod_{|j| <= B} (tau_1 - q^j) kills every
    monomial of the box and is not 0).  At generic parameters the
    polynomial representation is faithful, so representation-level
    equality would be the algebra-level claim.  B < 0 gives an empty box,
    which checks nothing, and raises ValueError; B = 0 checks the
    monomial 1.
    """
    if box_radius < 0:
        raise ValueError(f"box radius must be at least 0, got {box_radius}")
    N, dom, one = rep.N, rep.dom, rep._one
    for e in box_monomials(N, box_radius):
        p = LaurentPoly._make(N, dom, {e: one})
        ia = rep.apply(a, p)
        ib = rep.apply(b, p)
        if ia != ib:
            return _report(a, b, "box", box_radius, {"monomial": list(e)}, ia, ib)
    return _report(a, b, "box", box_radius)


def op_equal_randomized(rep, a, b, trials, seed):
    """Compare on random monomials with exponents in [-4, 4].  Fewer than
    one trial checks nothing and raises ValueError."""
    if trials < 1:
        raise ValueError(f"need at least 1 trial, got {trials}")
    rng = Random(seed)
    N, dom, one = rep.N, rep.dom, rep._one
    for trial in range(trials):
        e = tuple(rng.randint(-4, 4) for _ in range(N))
        p = LaurentPoly._make(N, dom, {e: one})
        ia = rep.apply(a, p)
        ib = rep.apply(b, p)
        if ia != ib:
            return _report(a, b, "random", trials,
                           {"trial": trial, "monomial": list(e)}, ia, ib)
    return _report(a, b, "random", trials)


def _report(a, b, mode, extent, witness=None, ia=None, ib=None):
    """The report of one comparison: extent is the box radius B or the trial
    count; on failure, witness locates the monomial whose images ia != ib."""
    out = {"lhs": repr(a), "rhs": repr(b), "mode": mode,
           "B" if mode == "box" else "trials": extent, "result": witness is None}
    if witness is not None:
        out["witness"] = {**witness, "lhs_image": ia.to_json(), "rhs_image": ib.to_json()}
    return out


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
