"""Relation catalogs for each algebra family, batch verification,
involutions, and PBW-style basis enumeration with independence checks.

Families:

* "daha"     -- the 12 defining relation schemas R1..R12 of the double
                affine Hecke algebra of GL_N;
* "deg-daha" -- the affine presentation of the degenerate (trigonometric)
                DAHA plus its lattice form (y-X commutation relations and
                the pi / s_0 transition identities);
* "deg-cyc"  -- the 11-schema presentation of the degenerate cyclotomic
                algebra in terms of S_N, y_i, X_i and the degenerate
                Dunkl-type generators D_i;
* "cyc-daha" -- R1-R7, R11, R12 plus the ten cd-relations presenting the
                (unlocalized) cyclotomic DAHA;
* "l1"       -- the level-one presentation with q-deformed Dunkl operators;
* "lastrel"  -- the single Jucys-Murphy relation D_1 X_1 + 1 = q J_N (X_1 D_1 + 1).

FAMILIES is the one table of the families.  Each entry holds the family's
schema builder, the representation family it acts in (ops.FAMILY_DAHA or
FAMILY_DEG), its fixed level (None: any l >= 1) and whether the involution
phi covers it; catalog, rep_family_for, sample_rep, verify_involution and
the CLI's level check read it.  phi's generator map, the representation it
maps into and the generators phi^2 = id is checked on depend only on the
representation family (_PHI).

Index-quantified schemas are expanded to explicit instances at catalog
build time for the given rank, through a few shapes: _each (one instance
label[i] per index i), _pairwise (label[i,j] per pair i < j), _commuting
and _far_commuting (generators that commute), and _one (a single
instance).  A relation that two catalogs state is built by one relation
function in both: deg-daha's yX[i,1] is deg-cyc's yX1[i] and y1X1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import NamedTuple

from .laurent import coefficient_rows
from .linalg import matrix_rank
from .ops import (
    FAMILY_DAHA,
    FAMILY_DEG,
    FamilyMismatch,
    Gen,
    OperatorExpr,
    Rep,
    _permutations_with_words,
    index_ok,
    op_equal_on_box,
    op_equal_randomized,
    root_product,
)
from .scalars import sample_generic


class UnknownFamily(Exception):
    pass


@dataclass
class RelationInstance:
    name: str
    lhs: OperatorExpr
    rhs: OperatorExpr


@dataclass
class RelationSchema:
    name: str
    build: object  # rep -> list[RelationInstance]


@dataclass
class RelationCatalog:
    family: str
    schemas: list

    def instances(self, rep):
        out = []
        for s in self.schemas:
            out.extend(s.build(rep))
        return out


# -- word helpers ------------------------------------------------------------

def _g(tag, i=0, j=0):
    return OperatorExpr.gen(tag, i, j)


def _w(gens, c=1):
    return OperatorExpr.word(gens, c)


def _T(i):
    return Gen("T", i)


def _Ti(i):
    return Gen("T^-1", i)


def _sandwich(i, j, outer, mid, inner, k):
    """outer_{j-1} ... outer_{i+1} mid_i^k inner_{i+1} ... inner_{j-1}, each
    letter a T-tag ("T" or "T^-1"); empty for i >= j."""
    if i >= j:
        return ()
    return tuple(
        [Gen(outer, r) for r in range(j - 1, i, -1)]
        + [Gen(mid, i)] * k
        + [Gen(inner, r) for r in range(i + 1, j)]
    )


def left_jm_inv(i):
    """T_{i-1}^-1 ... T_1^-2 ... T_{i-1}^-1 (empty for i = 1)."""
    return _sandwich(1, i, "T^-1", "T^-1", "T^-1", 2)


def right_jm(i, N):
    """T_i ... T_{N-1}^2 ... T_i (empty for i = N); right_jm(1, N) is the
    Jucys-Murphy word J_N."""
    up = [_T(r) for r in range(i, N)]
    return tuple(up + up[::-1])


def _commutator(a, b):
    return a * b - b * a


def _telescope(head, mid, tail, roots):
    """sum_r prod_{s<r} (head - z_s) * mid * prod_{s>r} (tail - z_s)."""
    out = OperatorExpr.zero()
    for r in range(len(roots)):
        before = root_product(head, roots[:r])
        out = out + before * mid * root_product(tail, roots[r + 1:])
    return out


def _gen_sum(tag, N):
    """A_1 + ... + A_N."""
    return sum((_g(tag, i) for i in range(1, N + 1)), OperatorExpr.zero())


def _gen_product(tag, N):
    """The word A_1 ... A_N."""
    return _w([Gen(tag, i) for i in range(1, N + 1)])


# -- relation shapes -------------------------------------------------------------
# Each shape returns a schema build (rep -> list of instances) whose
# instances are named label[indices]; a relation returns (lhs, rhs).

def _swap(name, a, b):
    """The instance a b = b a for two generators a, b."""
    return RelationInstance(name, _w([a, b]), _w([b, a]))


def _chain(*builds):
    """One schema built from several, instances in order."""
    return lambda rep: [inst for build in builds for inst in build(rep)]


def _one(name, relation, min_N=1):
    """The single instance relation(rep), named name, at every N >= min_N."""
    return lambda rep: [RelationInstance(name, *relation(rep))] if rep.N >= min_N else []


def _each(label, relation, lo, hi):
    """relation(rep, i) for every lo <= i <= N + hi."""
    return lambda rep: [
        RelationInstance(f"{label}[{i}]", *relation(rep, i))
        for i in range(lo, rep.N + hi + 1)
    ]


def _pairwise(label, relation):
    """relation(rep, i, j) for every 1 <= i < j <= N."""
    return lambda rep: [
        RelationInstance(f"{label}[{i},{j}]", *relation(rep, i, j))
        for i, j in itertools.combinations(range(1, rep.N + 1), 2)
    ]


def _commuting(label, tag):
    """A_i A_j = A_j A_i for i < j."""
    return lambda rep: [
        _swap(f"{label}[{i},{j}]", Gen(tag, i), Gen(tag, j))
        for i, j in itertools.combinations(range(1, rep.N + 1), 2)
    ]


def _far_at(label, s, tag, i, N):
    """s_i A_j = A_j s_i for j not in {i, i+1}, at one i."""
    return [
        _swap(f"{label}[{i},{j}]", Gen(s, i), Gen(tag, j))
        for j in range(1, N + 1)
        if j not in (i, i + 1)
    ]


def _far_commuting(label, s, tag):
    """s_i A_j = A_j s_i for every i < N and j not in {i, i+1}."""
    return lambda rep: [
        inst for i in range(1, rep.N) for inst in _far_at(label, s, tag, i, rep.N)
    ]


# -- relations stated by more than one catalog -------------------------------------

def _t_conjugation(tag):
    """T_i A_i T_i = A_{i+1}."""
    return lambda rep, i: (_w([_T(i), Gen(tag, i), _T(i)]), _g(tag, i + 1))


def _s_y(rep, i):
    """s_i y_i = y_{i+1} s_i + k."""
    return _w([Gen("s", i), Gen("y", i)]), _w([Gen("y", i + 1), Gen("s", i)]) + rep.params["k"]


def _s_x(rep, i):
    """s_i X_i = X_{i+1} s_i."""
    return _w([Gen("s", i), Gen("X", i)]), _w([Gen("X", i + 1), Gen("s", i)])


def _y_x(rep, i, j):
    """[y_i, X_j] = k X_a s_ab for i != j, {a < b} = {i, j}, and
    [y_i, X_i] = hbar X_i - k sum_{r != i} X_a s_ab, {a < b} = {r, i}."""
    k = rep.params["k"]

    def x_s(a, b):
        a, b = sorted((a, b))
        return k * _w([Gen("X", a), Gen("sij", a, b)])

    lhs = _commutator(_g("y", i), _g("X", j))
    if i != j:
        return lhs, x_s(i, j)
    rhs = rep.params["hbar"] * _g("X", i)
    for r in range(1, rep.N + 1):
        if r != i:
            rhs = rhs - x_s(r, i)
    return lhs, rhs


# -- DAHA schemas ------------------------------------------------------------

def _daha_schemas():
    def r1(rep, i):
        tb, Ti = rep.params["tb"], _g("T", i)
        return Ti * Ti, (tb - 1 / tb) * Ti + OperatorExpr.one()

    def r2(rep, i):
        return _w([_T(i), _T(i + 1), _T(i)]), _w([_T(i + 1), _T(i), _T(i + 1)])

    def r3(rep):
        return [
            _swap(f"R3[{i},{j}]", _T(i), _T(j))
            for i in range(1, rep.N)
            for j in range(i + 2, rep.N)
        ]

    def r8(rep):
        lhs = _w([Gen("X^-1", 1), Gen("Y^-1", 2), Gen("X", 1), Gen("Y", 2)])
        return lhs, _w([_T(1), _T(1)])

    def r9(rep, i):
        Xt = _gen_product("X", rep.N)
        return _g("Y", i) * Xt, rep.params["q"] * (Xt * _g("Y", i))

    def r10(rep, i):
        Yt = _gen_product("Y", rep.N)
        return _g("X", i) * Yt, (1 / rep.params["q"]) * (Yt * _g("X", i))

    return [
        RelationSchema("R1", _each("R1", r1, 1, -1)),
        RelationSchema("R2", _each("R2", r2, 1, -2)),
        RelationSchema("R3", r3),
        RelationSchema("R4", _each("R4", _t_conjugation("X"), 1, -1)),
        RelationSchema("R5", _far_commuting("R5", "T", "X")),
        RelationSchema("R6", _each("R6", _t_conjugation("Y"), 1, -1)),
        RelationSchema("R7", _far_commuting("R7", "T", "Y")),
        RelationSchema("R8", _one("R8", r8, min_N=2)),
        RelationSchema("R9", _each("R9", r9, 1, 0)),
        RelationSchema("R10", _each("R10", r10, 1, 0)),
        RelationSchema("R11", _commuting("R11", "X")),
        RelationSchema("R12", _commuting("R12", "Y")),
    ]


# -- degenerate DAHA schemas --------------------------------------------------

def _deg_s(i):
    """Affine generator: s_0 has its own tag."""
    return Gen("s0") if i == 0 else Gen("s", i)


def _deg_daha_schemas():
    def sq(rep, i):
        return _w([_deg_s(i)] * 2), OperatorExpr.one()

    def braid(rep):
        if rep.N < 3:
            return []
        out = []
        for i in range(rep.N):
            j = (i + 1) % rep.N
            a = _w([_deg_s(i), _deg_s(j), _deg_s(i)])
            b = _w([_deg_s(j), _deg_s(i), _deg_s(j)])
            out.append(RelationInstance(f"braid[{i},{j}]", a, b))
        return out

    def comm(rep):
        N = rep.N
        return [
            _swap(f"ss-comm[{i},{j}]", _deg_s(i), _deg_s(j))
            for i in range(N)
            for j in range(i + 1, N)
            if (i - j) % N not in (1, N - 1)
        ]

    def pi_s(rep, i):
        return _w([Gen("pi"), _deg_s(i)]), _w([_deg_s((i + 1) % rep.N), Gen("pi")])

    def pi_y(rep, i):
        return _w([Gen("pi"), Gen("y", i)]), _w([Gen("y", i + 1), Gen("pi")])

    def pi_yN(rep):
        lhs = _w([Gen("pi"), Gen("y", rep.N)])
        return lhs, (_g("y", 1) - rep.params["hbar"]) * _g("pi")

    def s0_yN(rep):
        # s_0 = s_1N X_1^-1 X_N is the identity at N = 1, where there is no
        # affine reflection and the relation would read y_1 = y_1 - hbar + k
        lhs = _w([Gen("s0"), Gen("y", rep.N)])
        return lhs, (_g("y", 1) - rep.params["hbar"]) * _g("s0") + rep.params["k"]

    def s_y_comm(rep):
        N = rep.N
        out = []
        for i in range(N):
            touched = {N, 1} if i == 0 else {i, i + 1}
            for j in range(1, N + 1):
                if j not in touched:
                    out.append(_swap(f"sy-comm[{i},{j}]", _deg_s(i), Gen("y", j)))
        return out

    # lattice form (y-X commutation relations) and transition identities
    def s_X(rep):
        # for each i: s_i X_i = X_{i+1} s_i, then s_i commuting with the far X_j
        return [
            inst
            for i in range(1, rep.N)
            for inst in [RelationInstance(f"sX[{i}]", *_s_x(rep, i))]
            + _far_at("sX-comm", "s", "X", i, rep.N)
        ]

    def y_X(rep):
        return [
            RelationInstance(f"yX[{i},{j}]", *_y_x(rep, i, j))
            for i in range(1, rep.N + 1)
            for j in range(1, rep.N + 1)
        ]

    def transition(rep):
        N = rep.N
        pi_word = [Gen("X", 1)] + [Gen("s", i) for i in range(1, N)]
        out = [RelationInstance("pi-word", _g("pi"), _w(pi_word))]
        s0_word = [Gen("X^-1", N), Gen("X", 1), Gen("sij", 1, N)]
        out.append(RelationInstance("s0-word", _g("s0"), _w(s0_word)))
        return out

    def firrel_prod(rep, i):
        Xt = _gen_product("X", rep.N)
        return _commutator(_g("y", i), Xt), rep.params["hbar"] * Xt

    def firrel_sum(rep, j):
        return _commutator(_gen_sum("y", rep.N), _g("X", j)), rep.params["hbar"] * _g("X", j)

    def secrel(rep):
        lhs = _commutator(_g("y", 2), _g("X", 1))
        return lhs, rep.params["k"] * _w([Gen("X", 1), Gen("s", 1)])

    return [
        RelationSchema("s^2", _each("s^2", sq, 0, -1)),
        RelationSchema("braid", braid),
        RelationSchema("ss-comm", comm),
        RelationSchema("pi-s", _each("pi-s", pi_s, 0, -1)),
        RelationSchema("yy", _commuting("yy", "y")),
        RelationSchema("pi-y", _each("pi-y", pi_y, 1, -1)),
        RelationSchema("pi-yN", _one("pi-yN", pi_yN)),
        RelationSchema("s-y", _each("s-y", _s_y, 1, -1)),
        RelationSchema("s0-yN", _one("s0-yN", s0_yN, min_N=2)),
        RelationSchema("sy-comm", s_y_comm),
        RelationSchema("sX", s_X),
        RelationSchema("XX", _commuting("XX", "X")),
        RelationSchema("yX", y_X),
        RelationSchema("transition", transition),
        RelationSchema("firrel-prod", _each("firrel-prod", firrel_prod, 1, 0)),
        RelationSchema("firrel-sum", _each("firrel-sum", firrel_sum, 1, 0)),
        RelationSchema("secrel", _one("secrel", secrel, min_N=2)),
    ]


# -- degenerate cyclotomic schemas (11 displayed lines) ------------------------

def _deg_cyc_schemas():
    def refl_sum(rep):
        """hbar - k * sum_{j>1} s_1j as an OperatorExpr."""
        hbar, k = rep.params["hbar"], rep.params["k"]
        e = OperatorExpr.scalar(hbar)
        for j in range(2, rep.N + 1):
            e = e - k * _g("sij", 1, j)
        return e

    def s_d(rep):
        out = []
        for i in range(1, rep.N):
            for d in range(1, rep.N + 1):
                target = d
                if d == i:
                    target = i + 1
                elif d == i + 1:
                    target = i
                out.append(
                    RelationInstance(
                        f"sD[{i},{d}]",
                        _w([Gen("s", i), Gen("Dl", d)]),
                        _w([Gen("Dl", target), Gen("s", i)]),
                    )
                )
        return out

    def y_dl1(rep, i):
        # [y_i, Dl_1] = -k s_1i Dl_1 for i > 1; [y_1, Dl_1] = -hbar Dl_1 + k sum_{r>1} s_1r Dl_1
        k = rep.params["k"]
        lhs = _commutator(_g("y", i), _g("Dl", 1))
        if i > 1:
            return lhs, -k * _w([Gen("sij", 1, i), Gen("Dl", 1)])
        rhs = -rep.params["hbar"] * _g("Dl", 1)
        for r in range(2, rep.N + 1):
            rhs = rhs + k * _w([Gen("sij", 1, r), Gen("Dl", 1)])
        return lhs, rhs

    # D1X1 and D1Xm telescope over r: the factors before the r-th are
    # (y_1 - z_i + hbar - k sum_{j>1} s_1j), the ones after it (y_1 - z_i)
    def d1x1(rep):
        refl = refl_sum(rep)
        lhs = _commutator(_g("Dl", 1), _g("X", 1))
        return lhs, _telescope(_g("y", 1) + refl, refl, _g("y", 1), rep.params["z"])

    def d1xm(rep):
        k = rep.params["k"]
        head = _g("y", 1) + refl_sum(rep)
        out = []
        for m in range(2, rep.N + 1):
            lhs = _commutator(_g("Dl", 1), _g("X", m))
            rhs = _telescope(head, _g("sij", 1, m), _g("y", 1), rep.params["z"])
            out.append(RelationInstance(f"D1X[{m}]", lhs, k * rhs))
        # conjugated instance: s_12 [D_1, X_2] s_12 = [D_2, X_1]; the right
        # side is conjugated as a word (y_1 does not relabel under s_12)
        if rep.N >= 2:
            base = out[0]
            s12 = _g("sij", 1, 2)
            out.append(
                RelationInstance(
                    "D2X1(conj)",
                    _commutator(_g("Dl", 2), _g("X", 1)),
                    s12 * base.rhs * s12,
                )
            )
        return out

    def x1d1(rep):
        return _w([Gen("X", 1), Gen("Dl", 1)]), root_product(_g("y", 1), rep.params["z"])

    return [
        RelationSchema("sy", _each("sy", _s_y, 1, -1)),
        RelationSchema("yy", _commuting("yy", "y")),
        RelationSchema("sX+XX", _chain(_each("sX", _s_x, 1, -1), _commuting("XX", "X"))),
        RelationSchema("yX1", _each("yX1", lambda rep, i: _y_x(rep, i, 1), 2, 0)),
        RelationSchema("y1X1", _one("y1X1", lambda rep: _y_x(rep, 1, 1))),
        RelationSchema("sD+DD", _chain(s_d, _commuting("DD", "Dl"))),
        RelationSchema("yD1", _each("yD1", y_dl1, 2, 0)),
        RelationSchema("y1D1", _one("y1D1", lambda rep: y_dl1(rep, 1))),
        RelationSchema("D1X1", _one("D1X1", d1x1)),
        RelationSchema("D1Xm", d1xm),
        RelationSchema("X1D1", _one("X1D1", x1d1)),
    ]


# -- cyclotomic DAHA schemas ---------------------------------------------------

def _cd_schemas():
    def cd1(rep, i, j):
        # X_i Y_j = Y_j X_i T_{j-1}^-1 ... T_{i+1}^-1 T_i^2 T_{i+1} ... T_{j-1}
        rhs = _w((Gen("Y", j), Gen("X", i)) + _sandwich(i, j, "T^-1", "T", "T", 2))
        return _w([Gen("X", i), Gen("Y", j)]), rhs

    def cd2(rep, i, j):
        # Y_i X_j = T_{j-1}...T_{i+1} T_i^-2 T_{i+1}^-1...T_{j-1}^-1 X_j Y_i,
        # forced by cd1 together with R4/R6 (conjugate cd2[i,i+1] upward)
        rhs = _w(_sandwich(i, j, "T", "T^-1", "T^-1", 2) + (Gen("X", j), Gen("Y", i)))
        return _w([Gen("Y", i), Gen("X", j)]), rhs

    def cd3(rep, i):
        lhs = _w((Gen("Y", i),) + left_jm_inv(i) + (Gen("X", i),))
        return lhs, rep.params["q"] * _w((Gen("X", i),) + right_jm(i, rep.N) + (Gen("Y", i),))

    def cd5(rep, i):
        return _w([_Ti(i), Gen("Dl", i), _Ti(i)]), _g("Dl", i + 1)

    def cd5_comm(rep):
        # the commuting part skips |i - j| < 2, which is not the far set of R5
        return [
            _swap(f"cd5-comm[{j},{i}]", _T(j), Gen("Dl", i))
            for i in range(1, rep.N + 1)
            for j in range(1, rep.N)
            if abs(i - j) >= 2
        ]

    def cd6(rep, i, j):
        # D_i Y_j = Y_j T_{j-1}^-1 ... T_{i+1}^-1 T_i^-2 T_{i+1} ... T_{j-1} D_i
        rhs = _w((Gen("Y", j),) + _sandwich(i, j, "T^-1", "T^-1", "T", 2) + (Gen("Dl", i),))
        return _w([Gen("Dl", i), Gen("Y", j)]), rhs

    def cd7(rep, i, j):
        # D_j T_{j-1} ... T_{i+1} T_i^2 T_{i+1}^-1 ... T_{j-1}^-1 Y_i = Y_i D_j
        lhs = _w((Gen("Dl", j),) + _sandwich(i, j, "T", "T", "T^-1", 2) + (Gen("Y", i),))
        return lhs, _w([Gen("Y", i), Gen("Dl", j)])

    def cd8(rep, i):
        # the factor q comes from D_1 Y_1 = q T_1...T_{N-1}^2...T_1 Y_1 D_1
        lhs = _w((Gen("Dl", i), Gen("Y", i)) + left_jm_inv(i))
        return lhs, rep.params["q"] * _w(right_jm(i, rep.N) + (Gen("Y", i), Gen("Dl", i)))

    def cd9a(rep, i):
        # X_i Dl_i = prod_r (Y_i L(i) - Z_r), L(i) = left_jm_inv(i), empty for i = 1
        YL = _w((Gen("Y", i),) + left_jm_inv(i))
        return _w([Gen("X", i), Gen("Dl", i)]), root_product(YL, rep.params["Z"])

    def cd9b(rep):
        qJY = rep.params["q"] * _w(right_jm(1, rep.N) + (Gen("Y", 1),))
        return _w([Gen("Dl", 1), Gen("X", 1)]), root_product(qJY, rep.params["Z"])

    def cd10(rep):
        q, tb = rep.params["q"], rep.params["tb"]
        qJY = q * _w(right_jm(1, rep.N) + (Gen("Y", 1),))
        Y2T = _w([Gen("Y", 2), _Ti(1), _Ti(1)])
        lhs = _commutator(_g("Dl", 1), _g("X", 2))
        rhs = _telescope(qJY, Y2T, Y2T, rep.params["Z"]) * _g("T", 1)
        return lhs, (1 / tb - tb) * rhs

    return [
        RelationSchema("cd1", _pairwise("cd1", cd1)),
        RelationSchema("cd2", _pairwise("cd2", cd2)),
        RelationSchema("cd3", _each("cd3", cd3, 1, 0)),
        RelationSchema("cd4", _commuting("cd4", "Dl")),
        RelationSchema("cd5", _chain(_each("cd5", cd5, 1, -1), cd5_comm)),
        RelationSchema("cd6", _pairwise("cd6", cd6)),
        RelationSchema("cd7", _pairwise("cd7", cd7)),
        RelationSchema("cd8", _each("cd8", cd8, 1, 0)),
        RelationSchema("cd9", _chain(_one("cd9a", lambda rep: cd9a(rep, 1)),
                                     _one("cd9b", cd9b), _each("cd9a", cd9a, 2, 0))),
        RelationSchema("cd10", _one("cd10", cd10, min_N=2)),
    ]


def cd11_instance(rep):
    """[D_2, X_1] in terms of K_N = T_2...T_{N-1}^2...T_2; the phi-image of cd10."""
    q, tb = rep.params["q"], rep.params["tb"]
    qKY = q * _w(right_jm(2, rep.N) + (Gen("Y", 2),))
    lhs = _commutator(_g("Dl", 2), _g("X", 1))
    # the factors run over Z_l, ..., Z_1: (qKY - Z_s) for s > r, (Y_1 - Z_s) for s < r
    rhs = _telescope(qKY, qKY, _g("Y", 1), rep.params["Z"][::-1]) * _g("T^-1", 1)
    return RelationInstance("cd11", lhs, (1 / tb - tb) * rhs)


def _cyc_daha_schemas():
    daha = {s.name: s for s in _daha_schemas()}
    keep = ["R1", "R2", "R3", "R4", "R5", "R6", "R7", "R11", "R12"]
    return [daha[k] for k in keep] + _cd_schemas()


# -- level-one schemas ---------------------------------------------------------

def _l1_schemas():
    daha = {s.name: s for s in _daha_schemas()}

    def tdt(rep, i):
        return _g("Dl", i), _w([_T(i), Gen("Dl", i + 1), _T(i)])

    def xidj(rep, i, j):
        tb = rep.params["tb"]
        lhs = _w([Gen("X", i), Gen("Dl", j)])
        rhs = _w((Gen("Dl", j),) + _sandwich(i, j, "T", "T", "T^-1", 2) + (Gen("X", i),))
        return lhs, rhs + (tb - 1 / tb) * _w(_sandwich(i, j, "T^-1", "T^-1", "T^-1", 1))

    def djxi(rep, j, i):
        tb = rep.params["tb"]
        lhs = _w([Gen("Dl", j), Gen("X", i)])
        rhs = _w((Gen("X", i),) + _sandwich(j, i, "T^-1", "T^-1", "T", 2) + (Gen("Dl", j),))
        return lhs, rhs - (tb - 1 / tb) * _w(_sandwich(j, i, "T", "T", "T", 1))

    def dsum(rep, i):
        inner = _w([Gen("Dl", i), Gen("X", i)]) + OperatorExpr.one()
        rhs = (1 - 1 / rep.params["q"]) * (inner * _w(left_jm_inv(i)))
        return _commutator(_g("Dl", i), _gen_sum("X", rep.N)), rhs

    return [
        daha["R1"],
        daha["R2"],
        daha["R3"],
        RelationSchema("TXT", _each("TXT", _t_conjugation("X"), 1, -1)),
        RelationSchema("TX-comm", _far_commuting("TX-comm", "T", "X")),
        RelationSchema("TDT", _each("TDT", tdt, 1, -1)),
        RelationSchema("TD-comm", _far_commuting("TD-comm", "T", "Dl")),
        # the level-one X relations keep their DAHA instance names
        RelationSchema("XX", _commuting("R11", "X")),
        RelationSchema("DD", _commuting("DD", "Dl")),
        RelationSchema("XiDj", _pairwise("XiDj", xidj)),
        RelationSchema("DjXi", _pairwise("DjXi", djxi)),
        RelationSchema("Dsum", _each("Dsum", dsum, 1, 0)),
    ]


def _lastrel_schemas():
    def lastrel(rep):
        lhs = _w([Gen("Dl", 1), Gen("X", 1)]) + OperatorExpr.one()
        rhs = rep.params["q"] * (
            _w(right_jm(1, rep.N))
            * (_w([Gen("X", 1), Gen("Dl", 1)]) + OperatorExpr.one())
        )
        return lhs, rhs

    return [RelationSchema("lastrel", _one("lastrel", lastrel))]


# -- the family table --------------------------------------------------------------

class Family(NamedTuple):
    """What makes a relation family: schemas() lists its relation schemas,
    rep is the representation family it acts in, level its fixed level
    (None: any l >= 1, since at l = 0 every cyclotomic product is the empty
    product 1 and the cyclotomic relations would hold vacuously), and phi
    whether the involution covers it."""

    schemas: object  # () -> list[RelationSchema]
    rep: str
    level: int | None
    phi: bool


# daha and deg-daha have no cyclotomic parameters; l1 and lastrel are
# normalized to Z = (1,)
FAMILIES = {
    "daha": Family(_daha_schemas, FAMILY_DAHA, level=0, phi=False),
    "deg-daha": Family(_deg_daha_schemas, FAMILY_DEG, level=0, phi=False),
    "deg-cyc": Family(_deg_cyc_schemas, FAMILY_DEG, level=None, phi=True),
    "cyc-daha": Family(_cyc_daha_schemas, FAMILY_DAHA, level=None, phi=True),
    "l1": Family(_l1_schemas, FAMILY_DAHA, level=1, phi=True),
    "lastrel": Family(_lastrel_schemas, FAMILY_DAHA, level=1, phi=False),
}


def _family(name):
    if name not in FAMILIES:
        raise UnknownFamily(name)
    return FAMILIES[name]


def catalog(family):
    """The relation catalog for a named family."""
    return RelationCatalog(family, _family(family).schemas())


def rep_family_for(family):
    return _family(family).rep


# -- generic-parameter representation samplers --------------------------------

def sample_rep(family, N, l=0, seed=0):
    """A representation with generic parameters drawn deterministically: q
    and tb are no root of unity of order up to 24, and no ratio Z_i / Z_j is
    a power q^p with |p| <= 8."""
    fam = _family(family)
    if fam.level is None and l < 1:
        raise ValueError(f"{family} needs level l >= 1, got {l}")
    if fam.level is not None and l != fam.level:
        raise ValueError(f"{family} has level {fam.level}, got {l}")
    if fam.rep == FAMILY_DAHA:
        names = ["q", "tb"] + [f"Z{i}" for i in range(1, l + 1)]
        cons = [
            ("nonzero", "q"),
            ("nonzero", "tb"),
            ("not_root_of_unity", "q", 24),
            ("not_root_of_unity", "tb", 24),
        ]
        for i in range(1, l + 1):
            cons.append(("nonzero", f"Z{i}"))
            for j in range(i + 1, l + 1):
                cons.append(("ratio_not_q_power", f"Z{i}", f"Z{j}", "q", 8))
        vals = sample_generic(names, cons, seed)
        if fam.level == 1:
            # the level-one generators are normalized to Z_1 = 1
            Z = (Fraction(1),)
        else:
            Z = tuple(vals[f"Z{i}"] for i in range(1, l + 1))
        return Rep.daha(N, vals["q"], vals["tb"], Z)
    names = ["k"] + [f"z{i}" for i in range(1, l + 1)]
    cons = [("nonzero", "k")]
    for i in range(1, l + 1):
        for j in range(i + 1, l + 1):
            cons.append(("diff_not_integer", f"z{i}", f"z{j}"))
    vals = sample_generic(names, cons, seed)
    z = tuple(vals[f"z{i}"] for i in range(1, l + 1))
    return Rep.degenerate(N, 1, vals["k"], z)


# -- batch verification --------------------------------------------------------

def _check_rep_family(rep, family):
    if rep.family != rep_family_for(family):
        raise FamilyMismatch(
            f"representation family {rep.family!r} incompatible with {family!r}"
        )


def verify_family(rep, family, mode="box", box_radius=3, trials=30, seed=0):
    """Check every relation instance of the family in the given representation.

    Returns a report dict; failures are data (status fields), not errors.
    """
    cat = catalog(family)
    _check_rep_family(rep, family)
    results = []
    rng = Random(seed)
    for inst in cat.instances(rep):
        if mode == "box":
            r = op_equal_on_box(rep, inst.lhs, inst.rhs, box_radius)
        else:
            r = op_equal_randomized(
                rep, inst.lhs, inst.rhs, trials, rng.randrange(1 << 30)
            )
        results.append(_relation_entry(inst.name, r))
    return {
        "family": family,
        "mode": mode,
        "B" if mode == "box" else "trials": box_radius if mode == "box" else trials,
        "params": {
            k: rep.dom.scalar_to_json(v)
            for k, v in rep.params.items() if k not in ("Z", "z", "c")
        },
        "relations": results,
        "all_pass": _all_pass(results),
    }


def _relation_entry(name, r):
    """The report entry of one relation from its comparison report r; a
    failure carries the witness."""
    entry = {"relation": name, "status": "pass" if r["result"] else "fail"}
    if not r["result"]:
        entry["witness"] = r["witness"]
    return entry


def _all_pass(results):
    return all(entry["status"] == "pass" for entry in results)


# -- involutions ----------------------------------------------------------------

def _phi_daha(rep):
    """phi on the cyclotomic DAHA: X <-> D, T -> T^-1, Y -> q R(i) Y L(i)."""
    q = rep.params["q"]
    N = rep.N

    def image(g):
        if g.tag == "X":
            return _g("Dl", g.i)
        if g.tag == "Dl":
            return _g("X", g.i)
        if g.tag == "T":
            return _g("T^-1", g.i)
        if g.tag == "T^-1":
            return _g("T", g.i)
        if g.tag == "Y":
            return q * _w(right_jm(g.i, N) + (Gen("Y", g.i),) + left_jm_inv(g.i))
        if g.tag == "Y^-1":
            inv_left = tuple(Gen("T", x.i) for x in reversed(left_jm_inv(g.i)))
            inv_right = tuple(Gen("T^-1", x.i) for x in reversed(right_jm(g.i, N)))
            return (1 / q) * _w(inv_left + (Gen("Y^-1", g.i),) + inv_right)
        raise ValueError(f"{g!r} outside the involution domain")

    return image


def _phi_deg(rep):
    """Degenerate involution: X <-> D, s fixed, and

        y_i -> y_i + hbar - k sum_{j>i} s_ij + k sum_{j<i} s_ij,

    the quasiclassical limit of Y_i -> q T_i..T_{N-1}^2..T_i Y_i
    T_{i-1}^-1..T_1^-2..T_{i-1}^-1 (the two conjugating tails contribute
    transpositions with opposite signs)."""
    hbar, k = rep.params["hbar"], rep.params["k"]
    N = rep.N

    def image(g):
        if g.tag == "X":
            return _g("Dl", g.i)
        if g.tag == "Dl":
            return _g("X", g.i)
        if g.tag in ("s", "sij", "s0"):
            return OperatorExpr.word([g])
        if g.tag == "y":
            e = _g("y", g.i) + OperatorExpr.scalar(hbar)
            for j in range(g.i + 1, N + 1):
                e = e - k * _g("sij", g.i, j)
            for j in range(1, g.i):
                e = e + k * _g("sij", j, g.i)
            return e
        raise ValueError(f"{g!r} outside the involution domain")

    return image


# phi on each representation family: its generator map at the parameters
# of a representation, the representation it maps into, and the tags of the
# generators phi^2 = id is checked on
_PHI = {
    FAMILY_DAHA: (
        _phi_daha,
        lambda rep: Rep.daha(rep.N, 1 / rep.params["q"], 1 / rep.params["tb"], rep.params["Z"]),
        ("X", "Dl", "T", "Y"),
    ),
    FAMILY_DEG: (
        _phi_deg,
        lambda rep: Rep.degenerate(rep.N, -rep.params["hbar"], -rep.params["k"], rep.params["z"]),
        ("X", "Dl", "y", "s"),
    ),
}


def apply_gen_map(expr, gen_image):
    """Extend a generator substitution multiplicatively over an expression."""
    out = OperatorExpr.zero()
    for word, c in expr.terms.items():
        prod = OperatorExpr.scalar(c)
        for g in word:
            img = gen_image(g)
            if isinstance(img, Gen):
                img = OperatorExpr.word([img])
            prod = prod * img
        out = out + prod
    return out


def verify_involution(rep, family, box_radius=2):
    """Check that the involution maps every catalog relation to a relation
    holding in the parameter-transformed representation, and squares to the
    identity on the generators of its domain.  A family without an
    involution catalog raises ValueError."""
    if not _family(family).phi:
        raise ValueError(f"no involution catalog for {family}")
    _check_rep_family(rep, family)
    phi, target, tags = _PHI[rep.family]
    rep2 = target(rep)
    gen_image2 = phi(rep2)
    results = []
    # The involution is semilinear over the parameter inversion, so the
    # image of a relation instance built at the source parameters (its
    # sigma-transformed coefficients re-evaluated at the target parameters
    # reproduce the source values) must hold in the target representation.
    # Composite generator images (e.g. the conjugated Y_i) carry the target
    # parameter values, hence the map is built from rep2.
    # A generator outside the involution's domain raises ValueError.
    for inst in catalog(family).instances(rep):
        lhs = apply_gen_map(inst.lhs, gen_image2)
        rhs = apply_gen_map(inst.rhs, gen_image2)
        r = op_equal_on_box(rep2, lhs, rhs, box_radius)
        results.append(_relation_entry(f"phi({inst.name})", r))
    # phi^2 = id on generators: source -> target uses target coefficients,
    # target -> source uses source coefficients
    gen_image1 = phi(rep)
    for g in [Gen(tag, i) for tag in tags for i in range(1, rep.N + 1)]:
        if not index_ok(g, rep.N):
            continue
        once = apply_gen_map(OperatorExpr.word([g]), gen_image2)
        twice = apply_gen_map(once, gen_image1)
        r = op_equal_on_box(rep, twice, OperatorExpr.word([g]), box_radius)
        results.append(_relation_entry(f"phi^2({g!r})", r))
    return {"family": family, "relations": results, "all_pass": _all_pass(results)}


# -- PBW-style bases -------------------------------------------------------------

def basis_monomials(shape, N, l, caps):
    """Enumerate PBW-style monomials for one of the three basis shapes.

    shape: 'MX_My_s_MD' (X-monomial, y-monomial capped at l-1, permutation,
    D-monomial), 'MX_MD_missing' (X/D monomials, exclusive per index, labeled
    by integer tuples), or 'MX_MY_Ts_MD' (X, Y capped at l-1, Hecke element,
    D).  caps: dict with per-variable exponent bounds 'X', 'D' and optionally
    'y'/'Y'.  Returns a list of (OperatorExpr, label) pairs; label is the
    integer tuple (m_1..m_N) for MX_MD_missing and None otherwise.
    """
    capX = caps.get("X", 0)
    capD = caps.get("D", 0)
    out = []

    def xword(a):
        return tuple(g for i, e in enumerate(a) for g in [Gen("X", i + 1)] * e)

    def dword(c):
        return tuple(g for i, e in enumerate(c) for g in [Gen("Dl", i + 1)] * e)

    if shape == "MX_MD_missing":
        for m in itertools.product(range(-capD, capX + 1), repeat=N):
            a = tuple(max(e, 0) for e in m)
            c = tuple(max(-e, 0) for e in m)
            out.append((OperatorExpr.word(xword(a) + dword(c)), m))
        return out

    if shape not in ("MX_My_s_MD", "MX_MY_Ts_MD"):
        raise ValueError(f"unknown basis shape {shape!r}")
    y, s = ("y", "s") if shape == "MX_My_s_MD" else ("Y", "T")
    capy = min(caps.get(y, l - 1), l - 1)
    perms = [word for _, word in sorted(_permutations_with_words(N, s).items())]
    for a in itertools.product(range(capX + 1), repeat=N):
        for b in itertools.product(range(capy + 1), repeat=N):
            yw = tuple(g for i, e in enumerate(b) for g in [Gen(y, i + 1)] * e)
            for word in perms:
                for c in itertools.product(range(capD + 1), repeat=N):
                    out.append((OperatorExpr.word(xword(a) + yw + word + dword(c)), None))
    return out


def independence_check(rep, exprs, probes):
    """Exact rank of the evaluation matrix ((probe, monomial) x operator).

    Full rank certifies linear independence of the operators at the
    representation's parameters; a nullspace vector would be a vanishing
    operator combination.
    """
    images = [[rep.apply(expr, p) for p in probes] for expr in exprs]
    # one block of rows per probe, one column per operator
    rows = [row for imgs in zip(*images) for row in coefficient_rows(imgs)]
    rank = matrix_rank(rows, len(exprs))
    return {
        "count": len(exprs),
        "rank": rank,
        "independent": rank == len(exprs),
        "probes": len(probes),
    }


def jucys_murphy_consistency(rep, box_radius=2):
    """J_N = 1 + (tb - tb^-1) * sum_{i>1} T_1...T_{i-1}...T_1 as operators."""
    tb = rep.params["tb"]
    N = rep.N
    rhs = OperatorExpr.one()
    for i in range(2, N + 1):
        up = [_T(r) for r in range(1, i - 1)]
        word = tuple(up + [_T(i - 1)] + up[::-1])
        rhs = rhs + (tb - 1 / tb) * _w(word)
    lhs = _w(right_jm(1, N))
    return op_equal_on_box(rep, lhs, rhs, box_radius)
