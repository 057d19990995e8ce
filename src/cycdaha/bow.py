"""Bow-variety segments and the Hanany-Witten transition.

A bow segment holds three spaces V1, V2, V3 joined by one two-way pair
(the "circle": C, D) and one framed triangle (the "cross": A, a, b), with a
loop on each space.  Two orientations occur:

* CIRCLE_CROSS:  V1 <--C/D--> V2 --A,a,b--> V3, equations
      B1 = t Z (1 + D C)^-1,   B2 = Z' (1 + C D)^-1,
      B3 A - A B2 + a b = 0,
  stability (S1): no nonzero B2-stable subspace of ker A  cap  ker b,
  stability (S2): no proper B3-stable subspace containing im A + im a.

* CROSS_CIRCLE:  V1 --A,a,b--> V2 <--C/D--> V3, equations
      B2 = t Z (1 + D C)^-1,   B3 = Z' (1 + C D)^-1,
      B2 A - A B1 + a b = 0,
  (S1) on V1 with B1, (S2) on V2 with B2.

bow_equations states the three equations once for both orientations, as an
ordered list of (name, lhs - rhs) matrices; check_bow reads its residuals
from it.

The Hanany-Witten transition maps one orientation to the other through the
cokernel of alpha = [D; A; b], preserving the defining equations, the
stability conditions and the linkage invariants; the inverse reconstructs
the original data from the kernel of the projection, and the round trip is
verified through an explicit intertwiner.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .linalg import Matrix, span_closure
from .quiver import UncertifiedInput, residuals
from .scalars import SamplingExhausted

CIRCLE_CROSS = "circle-cross"
CROSS_CIRCLE = "cross-circle"


@dataclass
class BowData:
    """One bow segment; dims = (dim V1, dim V2, dim V3).

    In CIRCLE_CROSS orientation: C: V1->V2, D: V2->V1, A: V2->V3,
    a: C->V3 (column), b: V2->C (row).
    In CROSS_CIRCLE orientation: A: V1->V2, a: C->V2, b: V1->C,
    C: V2->V3, D: V3->V2.
    """

    orientation: str
    dims: tuple
    t: Fraction
    Z: Fraction
    Zp: Fraction
    C: Matrix
    D: Matrix
    A: Matrix
    a: Matrix
    b: Matrix
    B1: Matrix
    B2: Matrix
    B3: Matrix

    def to_json(self):
        out = {
            "orientation": self.orientation,
            "dims": list(self.dims),
            "t": str(self.t),
            "Z": str(self.Z),
            "Zp": str(self.Zp),
        }
        for name in ("C", "D", "A", "a", "b", "B1", "B2", "B3"):
            out[name] = getattr(self, name).to_json()
        return out

    @classmethod
    def from_json(cls, data):
        """The segment to_json wrote; ValueError when the orientation is
        unknown, t, Z or Zp is zero, or a matrix's shape disagrees with dims
        and orientation."""
        d1, d2, d3 = dims = tuple(data["dims"])
        t, Z, Zp = _nonzero_scalars(data["t"], data["Z"], data["Zp"])
        if data["orientation"] == CIRCLE_CROSS:
            shapes = {"C": (d2, d1), "D": (d1, d2), "A": (d3, d2), "a": (d3, 1), "b": (1, d2)}
        elif data["orientation"] == CROSS_CIRCLE:
            shapes = {"C": (d3, d2), "D": (d2, d3), "A": (d2, d1), "a": (d2, 1), "b": (1, d1)}
        else:
            raise ValueError(f"unknown orientation {data['orientation']!r}")
        shapes.update(B1=(d1, d1), B2=(d2, d2), B3=(d3, d3))
        matrices = {}
        for k, shape in shapes.items():
            try:
                matrices[k] = Matrix.from_json(data[k], shape)
            except ValueError as exc:
                raise ValueError(f"{k} at dims {list(dims)}: {exc}") from None
        return cls(orientation=data["orientation"], dims=dims, t=t, Z=Z, Zp=Zp, **matrices)


def _nonzero_scalars(t, Z, Zp):
    """(t, Z, Zp) as Fractions; ValueError naming the first that is zero."""
    scalars = tuple(Fraction(x) for x in (t, Z, Zp))
    for name, x in zip(("t", "Z", "Zp"), scalars):
        if x == 0:
            raise ValueError(f"{name} must be nonzero")
    return scalars


def _largest_stable_subspace(M, op):
    """Largest op-stable subspace of ker M (decreasing fixed-point
    iteration W -> W cap op^-1(W)), as the matrix whose columns are a
    basis (no columns = zero subspace)."""
    W = M.kernel()
    while W.n:
        # op v in W for v = W c  <=>  c in ker(ann(W) op W)
        ann = W.T.kernel().T
        if ann.m == 0:
            break  # W is the whole space and op-stable
        smaller = W * (ann * (op * W)).kernel()
        if smaller.n == W.n:
            break
        W = smaller
    return W


def _loops(bow):
    """((left, right), (source, target)): the loops at the circle's two ends
    and at the cross's source and target, as the orientation places them."""
    if bow.orientation == CIRCLE_CROSS:
        return (bow.B1, bow.B2), (bow.B2, bow.B3)
    return (bow.B2, bow.B3), (bow.B1, bow.B2)


def bow_equations(bow):
    """The segment equations, as (name, lhs - rhs), with the loops of _loops:
    loop-left: left (1 + D C) = t Z,  loop-right: right (1 + C D) = Z',
    cross: target A - A source + a b = 0."""
    (left, right), (source, target) = _loops(bow)
    IL, IR = Matrix.identity(left.m), Matrix.identity(right.m)
    return [
        ("loop-left", left * (IL + bow.D * bow.C) - IL * (bow.t * bow.Z)),
        ("loop-right", right * (IR + bow.C * bow.D) - IR * bow.Zp),
        ("cross", target * bow.A - bow.A * source + bow.a * bow.b),
    ]


def check_bow(bow):
    """Exact residuals of bow_equations plus the two stability conditions."""
    res = residuals(bow_equations(bow))
    ok = all(r["zero"] for r in res)
    _, (source_loop, target_loop) = _loops(bow)
    s1_space = _largest_stable_subspace(bow.A.vstack(bow.b), source_loop)
    s1_ok = s1_space.n == 0
    seeds = [Matrix.column(c) for c in bow.A.hstack(bow.a).T.rows]
    s2_ok = len(span_closure(seeds, [target_loop])) == target_loop.m
    return {
        "certified": ok and s1_ok and s2_ok,
        "equations_ok": ok,
        "residuals": res,
        "S1": s1_ok,
        "S1_witness": None if s1_ok else [Matrix.column(c).to_json() for c in s1_space.T.rows],
        "S2": s2_ok,
    }


def sample_bow(dims, t, Z, Zp, seed, max_attempts=400):
    """A certified stable CIRCLE_CROSS bow with square A; ValueError unless
    d2 == d3 and t, Z and Zp are nonzero."""
    d1, d2, d3 = dims
    if d2 != d3:
        raise ValueError("sampler requires dim V2 == dim V3")
    t, Z, Zp = _nonzero_scalars(t, Z, Zp)
    rng = Random(seed)
    I1 = Matrix.identity(d1)
    I2 = Matrix.identity(d2)
    for _ in range(max_attempts):
        C = Matrix.random(rng, d2, d1)
        D = Matrix.random(rng, d1, d2)
        if not (I1 + D * C).is_invertible():
            continue
        B1 = (I1 + D * C).inverse() * (t * Z)
        B2 = (I2 + C * D).inverse() * Zp
        A = Matrix.random(rng, d3, d2)
        a = Matrix.random(rng, d3, 1)
        b = Matrix.random(rng, 1, d2)
        if not A.is_invertible():
            continue
        B3 = (A * B2 - a * b) * A.inverse()
        if not B3.is_invertible():
            continue
        bow = BowData(CIRCLE_CROSS, tuple(dims), t, Z, Zp, C, D, A, a, b, B1, B2, B3)
        if check_bow(bow)["certified"]:
            return bow
    raise SamplingExhausted("no stable certified bow found")


def _alpha(bow):
    """alpha = [D; A; b] : V2 -> V1 + V3 + C of a circle-cross bow."""
    return bow.D.vstack(bow.A, bow.b)


def _beta_n(bow):
    """beta_n = [A, D, a] : V1 + V3 + C -> V2 of a cross-circle bow."""
    return bow.A.hstack(bow.D, bow.a)


def _alpha_n(bow):
    """alpha_n = [t Z - B1; -C B2 A; b] : V1 -> V1 + V3 + C of a
    cross-circle bow."""
    return (Matrix.identity(bow.dims[0]) * (bow.t * bow.Z) - bow.B1).vstack(
        bow.C * bow.B2 * bow.A * Fraction(-1), bow.b)


def hw_transition(bow):
    """The Hanany-Witten transition CIRCLE_CROSS -> CROSS_CIRCLE.

    Builds alpha = [D; A; b] : V2 -> V1 + V3 + C, checks injectivity, forms
    the cokernel V2n, and assembles the new maps.  The internal identity
    alpha_n = alpha C B1 is asserted entrywise, as are the new defining
    equations and stability conditions.  UncertifiedInput unless the bow is
    certified and B3 is invertible.
    """
    if bow.orientation != CIRCLE_CROSS:
        raise ValueError("transition starts from the circle-cross orientation")
    if not check_bow(bow)["certified"]:
        raise UncertifiedInput("input bow not certified")
    if not bow.B3.is_invertible():
        raise UncertifiedInput("B3 is singular: the transition needs B3^-1")
    d1, d2, d3 = bow.dims
    alpha = _alpha(bow)
    # alpha is injective on every certified circle-cross bow: for v in
    # ker alpha, Dv = 0, so B2 (1 + C D) = Z' gives B2 v = Z' v, and span{v}
    # is a B2-stable line in ker A cap ker b, which (S1) forbids
    if alpha.rank() < d2:
        raise AssertionError("alpha = [D; A; b] is not injective")
    beta = (bow.A * bow.B2 * bow.C).hstack(bow.B3 - Matrix.identity(d3) * bow.Zp, bow.a)
    if not (beta * alpha).is_zero():
        raise AssertionError("betaALPHA != 0")
    proj = alpha.T.kernel().T  # rows span the cokernel
    d2n = proj.m
    assert d2n == d1 + d3 + 1 - d2
    An = proj.submatrix(range(d2n), range(d1))
    Dn = proj.submatrix(range(d2n), range(d1, d1 + d3))
    an = proj.submatrix(range(d2n), range(d1 + d3, d1 + d3 + 1))
    bn = bow.b * bow.C * bow.B1
    # Cn induced from -B3^-1 beta: Cn . proj = -B3^-1 beta
    B3inv = bow.B3.inverse()
    target = B3inv * beta * Fraction(-1)
    Cn = (proj.T).solve_right(target.T).T
    if Cn * proj != target:
        raise AssertionError("Cn does not descend")
    if Matrix.identity(d3) + Cn * Dn != B3inv * bow.Zp:
        raise AssertionError("1 + Cn Dn != Z' B3^-1")
    B2n = (Matrix.identity(d2n) + Dn * Cn).inverse() * (bow.t * bow.Z)
    new = BowData(CROSS_CIRCLE, (d1, d2n, d3), bow.t, bow.Z, bow.Zp,
                  Cn, Dn, An, an, bn, bow.B1, B2n, bow.B3)
    # internal identity: alpha_n = alpha C B1, entrywise
    if _alpha_n(new) != alpha * bow.C * bow.B1:
        raise AssertionError("alpha_n != alpha C B1")
    if not check_bow(new)["certified"]:
        raise AssertionError("transitioned bow fails certification")
    return new


def hw_inverse(bow):
    """The inverse transition CROSS_CIRCLE -> CIRCLE_CROSS.

    V2 is recovered as ker of beta_n = [A, D, a]; the maps are restrictions
    of the three projections, a = -B3 C a_n, C = alpha_n B1^-1 expressed in
    kernel coordinates, and B2 = Z'(1 + C D)^-1.  UncertifiedInput unless
    the bow is certified and B1 is invertible.
    """
    if bow.orientation != CROSS_CIRCLE:
        raise ValueError("inverse starts from the cross-circle orientation")
    if not check_bow(bow)["certified"]:
        raise UncertifiedInput("input bow not certified")
    if not bow.B1.is_invertible():
        raise UncertifiedInput("B1 is singular: the inverse transition needs B1^-1")
    d1, d2n, d3 = bow.dims
    K = _beta_n(bow).kernel()
    d2 = K.n
    if d2 != d1 + d3 + 1 - d2n:
        raise AssertionError("kernel dimension mismatch")
    D = K.submatrix(range(d1), range(d2))
    A = K.submatrix(range(d1, d1 + d3), range(d2))
    b = K.submatrix(range(d1 + d3, d1 + d3 + 1), range(d2))
    a = bow.B3 * bow.C * bow.a * Fraction(-1)
    C = K.solve_right(_alpha_n(bow) * bow.B1.inverse())
    B2 = (Matrix.identity(d2) + C * D).inverse() * bow.Zp
    out = BowData(CIRCLE_CROSS, (d1, d2, d3), bow.t, bow.Z, bow.Zp,
                  C, D, A, a, b, bow.B1, B2, bow.B3)
    if not check_bow(out)["certified"]:
        raise AssertionError("inverse-transitioned bow fails certification")
    return out


def hw_round_trip_check(bow):
    """transition then inverse, with the identification on V2 made explicit.

    The recovered segment's V2 is ker(beta_n) with basis columns K; the
    intertwiner g solves K g = alpha and must match all five maps and B2.
    hw_inverse takes back's D, A and b as the block rows of K, so K is
    alpha of back.
    """
    new = hw_transition(bow)
    back = hw_inverse(new)
    if back.dims != bow.dims:
        return {"ok": False, "reason": "dimension mismatch"}
    K = _alpha(back)
    try:
        g = K.solve_right(_alpha(bow))
    except ValueError:
        return {"ok": False, "reason": "alpha does not land in ker(beta_n)"}
    checks = {
        "g_invertible": g.is_invertible(),
        "D": back.D * g == bow.D,
        "A": back.A * g == bow.A,
        "b": back.b * g == bow.b,
        "C": back.C == g * bow.C,
        "a": back.a == bow.a,
        "B2": back.B2 * g == g * bow.B2,
        "B1": back.B1 == bow.B1,
        "B3": back.B3 == bow.B3,
    }
    return {"ok": all(checks.values()), "checks": checks, "new": new, "back": back}


# ---------------------------------------------------------------------------
# linkage invariants on whole diagrams

@dataclass
class BowDiagram:
    """Combinatorial skeleton: dims across edges, each edge 'x' or 'o'."""

    dims: list
    edges: list
    circular: bool = False

    def __post_init__(self):
        expected = len(self.edges) + (0 if self.circular else 1)
        if len(self.dims) != expected:
            raise ValueError("dims/edges length mismatch")


def linkage_invariants(diagram):
    """N(x_i, x_{i+1}) = N_{x_i} - N_{x_{i+1}} + #circles between, where
    N_x = dim(left) - dim(right) at the cross.  Invariant under the
    Hanany-Witten transition."""
    crosses = []
    for idx, e in enumerate(diagram.edges):
        if e == "x":
            left = diagram.dims[idx]
            right = diagram.dims[(idx + 1) % len(diagram.dims)]
            crosses.append((idx, left - right))
    out = []
    n_edges = len(diagram.edges)
    pairs = list(zip(crosses, crosses[1:]))
    if diagram.circular and len(crosses) >= 1:
        pairs.append((crosses[-1], (crosses[0][0] + n_edges, crosses[0][1])))
    for (i1, n1), (i2, n2) in pairs:
        circles = 0
        for k in range(i1 + 1, i2):
            if diagram.edges[k % n_edges] == "o":
                circles += 1
        out.append(n1 - n2 + circles)
    return out


def hw_diagram(diagram, cross_edge):
    """The combinatorial effect of one transition: swap the adjacent
    (circle, cross) pair on edges i, i + 1 (i = cross_edge) and replace the
    middle dimension dims[i + 1] by d_left + d_right + 1 - d_mid.  On a
    circular diagram edges are taken mod E and dims mod len(dims); on a
    linear one, ValueError unless 0 <= i <= E - 2."""
    dims, edges = list(diagram.dims), list(diagram.edges)
    i, E, n = cross_edge, len(edges), len(dims)
    if not (diagram.circular or 0 <= i <= E - 2):
        raise ValueError(f"cross_edge must lie in 0..{E - 2}, got {i}")
    first, second, mid = i % E, (i + 1) % E, (i + 1) % n
    if {edges[first], edges[second]} != {"o", "x"}:
        raise ValueError("need an adjacent circle/cross pair")
    edges[first], edges[second] = edges[second], edges[first]
    dims[mid] = dims[i % n] + dims[(i + 2) % n] + 1 - dims[mid]
    return BowDiagram(dims, edges, diagram.circular)


# ---------------------------------------------------------------------------
# cobalanced two-cross segment (reduction toward a multiplicative quiver variety)

def sample_cobalanced_segment(n, seed, max_attempts=300):
    """Random certified data on V1 -o- V2 -x- V3 -x- V4 -o- V5 with
    dim V2 = dim V3 = dim V4 = n, t = 2, Z2 = 3, Z4 = 5/2 and the crosses
    normalized to A = id:

        B2 = Z2 (1 + C1 D1)^-1,   B3 = B2 - a3 b2,
        B4 = B3 - a4 b3,          B4 = t Z4 (1 + D4 C4)^-1.

    Returns the data dict; the last equation is solved for D4 with C4 = id.
    """
    t, Z2, Z4 = Fraction(2), Fraction(3), Fraction(5, 2)
    rng = Random(seed)
    I = Matrix.identity(n)
    for _ in range(max_attempts):
        C1 = Matrix.random(rng, n, n)
        D1 = Matrix.random(rng, n, n)
        if not (I + C1 * D1).is_invertible():
            continue
        B2 = (I + C1 * D1).inverse() * Z2
        a3 = Matrix.random(rng, n, 1)
        b2 = Matrix.random(rng, 1, n)
        a4 = Matrix.random(rng, n, 1)
        b3 = Matrix.random(rng, 1, n)
        B3 = B2 - a3 * b2
        B4 = B3 - a4 * b3
        if not (B3.is_invertible() and B4.is_invertible()):
            continue
        C4 = I
        D4 = B4.inverse() * (t * Z4) - I
        return {
            "n": n,
            "t": t,
            "Z2": Z2,
            "Z4": Z4,
            "C1": C1,
            "D1": D1,
            "B2": B2,
            "B3": B3,
            "B4": B4,
            "a3": a3,
            "b2": b2,
            "a4": a4,
            "b3": b3,
            "C4": C4,
            "D4": D4,
        }
    raise SamplingExhausted("no cobalanced segment sampled")


def cobalanced_reduction_check(data):
    """Verify the factorized chain identity: the segment relations

        1 + C1 D1 = Z2 B2^-1,  B2 = B3 + a3 b2,  B3 = B4 + a4 b3,
        B4^-1 = (t Z4)^-1 (1 + D4 C4)

    combine to
        1 + C1 D1 = t^-1 Z4^-1 Z2 (1 + B3^-1 a3 b2)^-1 (1 + B4^-1 a4 b3)^-1
                    (1 + D4 C4),

    together with the rank-one telescoping repackaging of the two framings.
    """
    # cobalanced stability forces the (normalized) cross maps invertible;
    # here A = id by construction, so check the derived loops instead
    if not (data["B3"].is_invertible() and data["B4"].is_invertible()):
        return {"chain_identity": False, "telescoping": False, "loops_invertible": False}
    I = Matrix.identity(data["n"])
    B3inv, B4inv = data["B3"].inverse(), data["B4"].inverse()
    # the two rank-one factors (1 + B3^-1 a3 b2) and (1 + B4^-1 a4 b3)
    f3 = I + B3inv * data["a3"] * data["b2"]
    f4 = I + B4inv * data["a4"] * data["b3"]
    lhs = I + data["C1"] * data["D1"]
    rhs = (
        f3.inverse()
        * f4.inverse()
        * (I + data["D4"] * data["C4"])
        * (data["Z2"] / (data["t"] * data["Z4"]))
    )
    # framing repackaging: f4 f3 = 1 + [a~3 a~4][b2; b3]
    ta3 = f4 * (B3inv * data["a3"])
    ta4 = B4inv * data["a4"]
    return {
        "chain_identity": lhs == rhs,
        "telescoping": f4 * f3 == I + ta3 * data["b2"] + ta4 * data["b3"],
        "loops_invertible": True,
    }
