"""Exact matrix realization of multiplicative quiver varieties on the cyclic
quiver with a Calogero-Moser vertex, the associated quadruple variety, the
product formulas linking them, Van den Bergh moment maps and the fusion
telescoping of framing pairs.

Points are matrices over the rationals; every certification is an exact
residual check.  Each object states its equations once, as an ordered list
of (name, lhs - rhs) matrices: point_equations for a quiver point and
quadruple_equations for a quadruple.  check_point, check_quadruple and
product_formulas read their verdicts from these tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .linalg import (
    Matrix,
    algebra_closure_dim,
    rational_eigenvalues,
    span_closure,
)
from .scalars import SamplingExhausted


class UncertifiedInput(Exception):
    pass


class XNotInvertible(Exception):
    pass


class SingularFactor(Exception):
    pass


@dataclass
class QuiverPoint:
    """Cyclic-quiver data: X[i]: V_{i+2} -> V_{i+1} and D[i]: V_{i+1} -> V_{i+2}
    (0-based lists of length l, indices mod l), with scalars Z_1..Z_l, t and
    the twist T acting on V_1."""

    l: int
    N: int
    Z: tuple
    t: Fraction
    X: list
    D: list
    T: Matrix

    def to_json(self):
        return {
            "l": self.l,
            "N": self.N,
            "Z": [str(z) for z in self.Z],
            "t": str(self.t),
            "X": [m.to_json() for m in self.X],
            "D": [m.to_json() for m in self.D],
            "T": self.T.to_json(),
        }

    @classmethod
    def from_json(cls, data):
        """The point to_json wrote.  ValueError unless l and N are
        positive, Z, X and D have l entries, t and the Z are nonzero and
        every matrix is N x N."""
        l, N = data["l"], data["N"]
        Z = tuple(Fraction(z) for z in data["Z"])
        t = Fraction(data["t"])
        if not (isinstance(l, int) and isinstance(N, int) and l >= 1 and N >= 1):
            raise ValueError(f"l and N must be positive integers, got {l!r} and {N!r}")
        if not len(Z) == len(data["X"]) == len(data["D"]) == l:
            raise ValueError(f"Z, X and D need l = {l} entries each")
        if t == 0 or 0 in Z:
            raise ValueError("t and every Z must be nonzero")

        def square(name, m):
            try:
                return Matrix.from_json(m, (N, N))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None

        X = [square(f"X[{i}]", m) for i, m in enumerate(data["X"])]
        D = [square(f"D[{i}]", m) for i, m in enumerate(data["D"])]
        return cls(l=l, N=N, Z=Z, t=t, X=X, D=D, T=square("T", data["T"]))


@dataclass
class Quadruple:
    """Matrices (X, D, Y, T) with scalars Z_1..Z_l, t."""

    l: int
    N: int
    Z: tuple
    t: Fraction
    X: Matrix
    D: Matrix
    Y: Matrix
    T: Matrix


def point_equations(p):
    """The chain and closing equations of a point, as (name, lhs - rhs):
    chain[i]: Z_i (1 + X_i D_i) = Z_{i-1} (1 + D_{i-1} X_{i-1}) for i = 2..l,
    closing:  Z_1 (1 + X_1 D_1) T = Z_l (1 + D_l X_l)."""
    I = Matrix.identity(p.N)
    eqs = [(f"chain[{i + 1}]",
            (I + p.X[i] * p.D[i]) * p.Z[i] - (I + p.D[i - 1] * p.X[i - 1]) * p.Z[i - 1])
           for i in range(1, p.l)]
    eqs.append(("closing", (I + p.X[0] * p.D[0]) * p.Z[0] * p.T
                - (I + p.D[p.l - 1] * p.X[p.l - 1]) * p.Z[p.l - 1]))
    return eqs


def residuals(equations):
    """The report of an equations table: whether each lhs - rhs is zero."""
    return [{"equation": name, "zero": r.is_zero()} for name, r in equations]


def check_point(p):
    """Exact residuals of point_equations; also reports whether T lies in
    the special conjugacy class diag(t^-1,..,t^-1,t^(N-1))."""
    res = residuals(point_equations(p))
    I = Matrix.identity(p.N)
    tclass = (p.T - I * (1 / p.t)) * (p.T - I * (p.t ** (p.N - 1)))
    in_class = tclass.is_zero() if p.N > 1 else (p.T == I)
    return {"certified": all(r["zero"] for r in res), "residuals": res,
            "T_in_special_class": in_class}


def psi(p):
    """Collapse a quiver point to the quadruple (X, D, Y, T).

    X = X_1 X_2 ... X_l, D = D_l ... D_1, Y = Z_1 (1 + X_1 D_1); the
    quadruple equations are verified as a postcondition.
    """
    return _collapse(p)[0]


def _collapse(p, point=None):
    """psi(p) and its quadruple_equations, evaluated once for the
    postcondition and for product_formulas.  point is check_point(p) when
    the caller has it, so the point's equations are evaluated once."""
    if not (point or check_point(p))["certified"]:
        raise UncertifiedInput("psi needs a certified point")
    X = Matrix.identity(p.N)
    for m in p.X:
        X = X * m
    # D_l ... D_1 with D_l leftmost
    D = p.D[p.l - 1]
    for i in range(p.l - 2, -1, -1):
        D = D * p.D[i]
    Y = (Matrix.identity(p.N) + p.X[0] * p.D[0]) * p.Z[0]
    quad = Quadruple(p.l, p.N, p.Z, p.t, X, D, Y, p.T)
    eqs = quadruple_equations(quad)
    if not _quadruple_report(quad, eqs)["certified"]:
        raise AssertionError("psi image fails the quadruple equations")
    return quad, eqs


def quadruple_equations(q):
    """The quadruple equations, as (name, lhs - rhs):
    XD: X D = prod_i (Y/Z_i - 1),    DX: D X = prod_i (Y T/Z_i - 1),
    YX=XYT: Y X = X Y T,             YTD=DY: Y T D = D Y."""
    I = Matrix.identity(q.N)
    YT = q.Y * q.T
    prod_plus = prod_minus = I
    for z in q.Z:
        prod_plus = prod_plus * (q.Y * (1 / z) - I)
        prod_minus = prod_minus * (YT * (1 / z) - I)
    return [
        ("XD", q.X * q.D - prod_plus),
        ("DX", q.D * q.X - prod_minus),
        ("YX=XYT", q.Y * q.X - q.X * YT),
        ("YTD=DY", YT * q.D - q.D * q.Y),
    ]


def check_quadruple(q):
    """Exact residuals of quadruple_equations and invertibility of Y."""
    return _quadruple_report(q, quadruple_equations(q))


def _quadruple_report(q, equations):
    """check_quadruple's report from the quadruple's equations table."""
    res = residuals(equations)
    inv = q.Y.is_invertible()
    return {"certified": inv and all(r["zero"] for r in res), "residuals": res,
            "Y_invertible": inv}


def product_formulas(p, point=None):
    """L_+ = Z_1...Z_l X D = prod (Y - Z_i) and
    L_- = Z_1...Z_l D X = prod (Y T - Z_i) on psi(p): the XD and DX
    quadruple equations multiplied through by the nonzero Z_1...Z_l.
    point is check_point(p) when the caller has it (see _collapse)."""
    eqs = dict(_collapse(p, point)[1])
    return {"Lplus_matches": eqs["XD"].is_zero(), "Lminus_matches": eqs["DX"].is_zero()}


def sample_chain(l, N, Z, seed, max_attempts=200):
    """A certified random point at t = 2: draw invertible X_i and D_1,
    solve the chain equations for D_2..D_l, and read T off the closing
    equation.

    T is derived, not necessarily in the special conjugacy class; the
    caller can inspect check_point()['T_in_special_class'].
    """
    Z = tuple(Fraction(z) for z in Z)
    if len(Z) != l or any(z == 0 for z in Z):
        raise ValueError("need l nonzero scalars Z")
    rng = Random(seed)
    I = Matrix.identity(N)
    for _ in range(max_attempts):
        X = [Matrix.random(rng, N, N) for _ in range(l)]
        if any(not m.is_invertible() for m in X):
            continue
        D = [Matrix.random(rng, N, N)]
        for i in range(1, l):
            rhs = (I + D[i - 1] * X[i - 1]) * (Z[i - 1] / Z[i]) - I
            D.append(X[i].inverse() * rhs)
        M = I + X[0] * D[0]
        if not M.is_invertible():
            continue
        T = M.inverse() * (I + D[l - 1] * X[l - 1]) * (Z[l - 1] / Z[0])
        point = QuiverPoint(l, N, Z, Fraction(2), X, D, T)
        if check_point(point)["certified"]:
            return point
    raise SamplingExhausted("could not sample a certified point")


def lift_open_locus(q):
    """Lift a quadruple with invertible X back to a quiver point:
    X_i = 1 for i < l, X_l = X, D_i = Z_i^-1 Y - 1 for i < l and
    D_l = X^-1 (Z_l^-1 Y - 1); the result is re-certified and satisfies
    psi(lift(q)) = q."""
    if not check_quadruple(q)["certified"]:
        raise UncertifiedInput("lift needs a certified quadruple")
    if not q.X.is_invertible():
        raise XNotInvertible("the open-locus lift needs invertible X")
    I = Matrix.identity(q.N)
    X = [I for _ in range(q.l - 1)] + [q.X]
    D = [q.Y * (1 / q.Z[i]) - I for i in range(q.l - 1)]
    D.append(q.X.inverse() * (q.Y * (1 / q.Z[q.l - 1]) - I))
    point = QuiverPoint(q.l, q.N, q.Z, q.t, X, D, q.T)
    if not check_point(point)["certified"]:
        raise AssertionError("open-locus lift fails the chain equations")
    if psi(point) != q:
        raise AssertionError("psi does not round-trip the lift")
    return point


def irreducibility_check(q):
    """Decide whether (X, D, Y, T) act irreducibly on C^N.

    The verdict uses the span closure of the unital matrix algebra
    generated by the quadruple (Burnside: irreducible iff the algebra is
    all of N x N matrices), which is exact and complete over any field of
    characteristic zero.  On a reducible quadruple an invariant-subspace
    witness is searched for through rational eigenvectors of Y; the witness
    may be None when no invariant subspace is defined over Q.
    """
    gens = [q.X, q.D, q.Y, q.T]
    dim = algebra_closure_dim(gens)
    irreducible = dim == q.N * q.N
    witness = None
    if not irreducible:
        for lam in rational_eigenvalues(q.Y):
            for v in (q.Y - Matrix.identity(q.N) * lam).kernel().T.rows:
                closure = span_closure([Matrix.column(v)], gens)
                if 0 < len(closure) < q.N:
                    witness = [c.to_json() for c in closure]
                    break
            if witness:
                break
    return {"irreducible": irreducible, "algebra_dim": dim, "witness": witness}


# ---------------------------------------------------------------------------
# Van den Bergh pairs and fusion

def vdb_moment(X, Y):
    """Group-valued moment map ((1 + YX)^-1, 1 + XY) of a pair
    X: V -> W, Y: W -> V with det(1 + XY) != 0."""
    # X: V -> W is a (dim W x dim V) matrix; YX acts on V, XY on W
    one_plus_yx = Matrix.identity(X.n) + Y * X
    one_plus_xy = Matrix.identity(X.m) + X * Y
    if not one_plus_xy.is_invertible() or not one_plus_yx.is_invertible():
        raise SingularFactor("1 + XY must be invertible")
    return one_plus_yx.inverse(), one_plus_xy


def telescoped_framing(framing_pairs):
    """The re-packaged framing (a~_j, b~_j) with
    a~_j = (1 + a_1 b_1)...(1 + a_{j-1} b_{j-1}) a_j and b~_j = b_j,
    satisfying 1 + sum a~_j b~_j = prod (1 + a_j b_j)."""
    if not framing_pairs:
        raise ValueError("need at least one framing pair")
    n = framing_pairs[0][0].m
    I = Matrix.identity(n)
    prefix = I
    tilded = []
    for a, b in framing_pairs:
        tilded.append((prefix * a, b))
        prefix = prefix * (I + a * b)
    total = I
    for ta, tb in tilded:
        total = total + ta * tb
    identity_holds = total == prefix
    return tilded, identity_holds


def moment_equivariance_check(X, Y, g, h):
    """Conjugating X -> hXg^-1, Y -> gYh^-1 conjugates the two moment
    components by g and h respectively."""
    mu1, mu2 = vdb_moment(X, Y)
    Xc = h * X * g.inverse()
    Yc = g * Y * h.inverse()
    nu1, nu2 = vdb_moment(Xc, Yc)
    return nu1 == g * mu1 * g.inverse() and nu2 == h * mu2 * h.inverse()
