"""The three workloads.  Together they run exactly the checks of the
12-criterion acceptance battery (``cycdaha.acceptance.run_all``), with no
overlap, so the battery's time is their sum:

* ``relations-box``    criteria 1, 2, 5, 6: exponent-box sweeps over QQ.
* ``relations-random`` criteria 3, 4: randomized checks on fresh generic
  draws, and Dunkl-Opdam commutators over Q(zeta_l).
* ``quasi-geometry``   criteria 7-12: graded bases, flatness, Kostka/Molien,
  quiver, bow and moment-map identities.  No operator-engine calls.

Every seeded input goes through ``Draws``: seed 0 reproduces the battery's
own draws, any other seed redraws them all (``sample_rep`` seeds, trial
seeds, flatness ``q`` draws, quiver and bow sample seeds) while keeping the
battery's shapes: N, l, B, trials, maxdeg and the weights ``a``.

``build(name, seed)`` constructs the inputs (representations, specs) before
timing starts and returns the list of ``Group``s whose checks are timed.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from harness import Group, op_result

# Relation instances per catalog and rank, as the catalogs expand them
# today.  Frozen here so that a catalog that silently loses instances makes
# the run invalid instead of faster.
INSTANCES = {
    ("daha", 2): 10,
    ("daha", 3): 24,
    ("deg-daha", 2): 22,
    ("deg-daha", 3): 46,
    ("cyc-daha", 2): 19,
    ("cyc-daha", 3): 46,
    ("lastrel", 2): 1,
    ("lastrel", 3): 1,
}

WORKLOADS = ("relations-box", "relations-random", "quasi-geometry")


class Draws:
    """Seeds of one run.  Seed 0 returns the battery's value at each site;
    another seed derives an independent value per site from (seed, site)."""

    def __init__(self, seed):
        self.seed = seed

    def __call__(self, site, default):
        if self.seed == 0:
            return default
        return Random(f"{self.seed}/{site}").randrange(1, 1 << 30)


def _pairs(N):
    return [(i, j) for i in range(1, N + 1) for j in range(i + 1, N + 1)]


def _partition_count(maxdeg, parts):
    """Number of partitions of 0..maxdeg with at most ``parts`` parts."""

    def count(n, largest, k):
        if n == 0:
            return 1
        if k == 0:
            return 0
        return sum(count(n - f, f, k - 1) for f in range(min(n, largest), 0, -1))

    return sum(count(n, n, parts) for n in range(maxdeg + 1))


def _equal(value):
    return value, value


# ---------------------------------------------------------------------------
# relations-box: criteria 1, 2, 5, 6

def _sweep(label, rep, family, mode, monomials, **kw):
    """One ``verify_family`` call; its per-instance checks are timed by the
    harness at the names ``verify_family`` looks up."""
    from cycdaha.algebra import verify_family

    def run(ck):
        ck.inner = (label, monomials)
        failed0 = ck.failed
        try:
            report = verify_family(rep, family, mode, **kw)
        finally:
            ck.inner = None
        if not report["all_pass"] and ck.failed == failed0:
            ck.fail(label, "verify_family reported a failure no check showed")

    return Group(label, INSTANCES[(family, rep.N)], run)


def _commutators(label, rep, tag, B):
    from cycdaha.ops import Gen, OperatorExpr, op_equal_on_box

    pairs = _pairs(rep.N)

    def run(ck):
        for i, j in pairs:
            a = OperatorExpr.word([Gen(tag, i), Gen(tag, j)])
            b = OperatorExpr.word([Gen(tag, j), Gen(tag, i)])
            ck.run(
                f"{label}/[{tag}{i},{tag}{j}]",
                lambda a=a, b=b: op_equal_on_box(rep, a, b, B),
                op_result,
                (2 * B + 1) ** rep.N,
            )

    return Group(label, len(pairs), run)


def relations_box(d):
    from cycdaha.algebra import sample_rep

    groups = []
    # criteria 1 and 2: relation suites, N = 2, 3, B = 3, three draws each
    for family in ("daha", "deg-daha"):
        for N in (2, 3):
            for s in (1, 2, 3):
                rep = sample_rep(family, N, seed=d(f"{family}/N{N}/{s}", s))
                groups.append(
                    _sweep(f"{family} N={N} #{s}", rep, family, "box", 7 ** N,
                           box_radius=3)
                )
    # criterion 2: [D_i, D_j] = [Dtrig_i, Dtrig_j] = 0 for N <= 4
    for N in (2, 3, 4):
        rep = sample_rep("deg-daha", N, seed=d(f"dunkl/N{N}", 5))
        for tag in ("D", "Dtrig"):
            groups.append(_commutators(f"{tag} N={N}", rep, tag, 3 if N <= 3 else 2))
    # criterion 5: (sum Y_i) e = M on symmetric inputs of degree <= 5
    for N in (2, 3):
        rep = sample_rep("daha", N, seed=d(f"macdonald/N{N}", 9))
        groups.append(_macdonald_identity(rep))
    groups.append(_macdonald_symbolic())
    # criterion 6: commuting families, [M1, M2] = 0, level-one Hamiltonian
    for N in (2, 3):
        for l in (1, 2):
            rep = sample_rep("cyc-daha", N, l, seed=d(f"families/N{N}/l{l}", 21))
            groups.append(_commuting_families(rep))
    groups.append(_hamiltonians(sample_rep("cyc-daha", 3, 1, seed=d("hamiltonians", 23))))
    for N in (2, 3):
        rep = sample_rep("l1", N, 1, seed=d(f"level-one/N{N}", 25))
        groups.append(_level_one(rep))
    return groups


def _macdonald_identity(rep):
    from cycdaha.macdonald import hecke_symmetrizer_expr, macdonald_M1, symmetric_basis
    from cycdaha.ops import OperatorExpr

    label = f"(sum Y)e == M N={rep.N}"

    def run(ck):
        e = hecke_symmetrizer_expr(rep)
        ysum = OperatorExpr.zero()
        for i in range(1, rep.N + 1):
            ysum = ysum + OperatorExpr.gen("Y", i)
        op = ysum * e
        for k, p in enumerate(symmetric_basis(rep, 5)):
            ck.run(f"{label}/{k}", lambda p=p: rep.apply(op, p) == macdonald_M1(rep, p),
                   _equal)

    return Group(label, _partition_count(5, rep.N), run)


def _macdonald_symbolic():
    from cycdaha.laurent import LaurentPoly
    from cycdaha.macdonald import apply_macdonald_operator
    from cycdaha.scalars import RatFuncField

    F = RatFuncField("t")
    t = F.gen

    def run(ck):
        for N in (2, 3, 4):
            def check(N=N):
                one = LaurentPoly.one(N, F)
                img = apply_macdonald_operator(N, F.coerce(1), t, one, F)
                return img == LaurentPoly.const(N, (1 - t ** N) / (1 - t), F)

            ck.run(f"M.1 == (1-t^{N})/(1-t)", check, _equal)

    return Group("M.1 symbolic", 3, run)


def _commuting_families(rep):
    from cycdaha.macdonald import poly_from_roots, y_f
    from cycdaha.ops import OperatorExpr, op_equal_on_box

    label = f"families N={rep.N} l={rep.l}"
    pairs = _pairs(rep.N)
    monomials = 5 ** rep.N

    def run(ck):
        f = poly_from_roots(rep.params["Z"])
        for i, j in pairs:
            yi, yj = y_f(rep, i, f), y_f(rep, j, f)
            di, dj = OperatorExpr.gen("Dl", i), OperatorExpr.gen("Dl", j)
            ck.run(f"{label}/[Y{i}(f),Y{j}(f)]",
                   lambda: op_equal_on_box(rep, yi * yj, yj * yi, 2), op_result, monomials)
            ck.run(f"{label}/[Dl{i},Dl{j}]",
                   lambda: op_equal_on_box(rep, di * dj, dj * di, 2), op_result, monomials)

    return Group(label, 2 * len(pairs), run)


def _hamiltonians(rep):
    from cycdaha.macdonald import hamiltonian, poly_from_roots, symmetric_basis

    label = "[M1,M2] N=3 l=1"
    # hamiltonian() first checks that the family commutes on the B = 1 box
    monomials = len(_pairs(rep.N)) * 3 ** rep.N

    def run(ck):
        f = poly_from_roots(rep.params["Z"])
        h1 = ck.run(f"{label}/build M1", lambda: hamiltonian(rep, 1, f, dual=True),
                    lambda h: (True, h.name), monomials)
        h2 = ck.run(f"{label}/build M2", lambda: hamiltonian(rep, 2, f, dual=True),
                    lambda h: (True, h.name), monomials)
        for k, p in enumerate(symmetric_basis(rep, 4)):
            ck.run(f"{label}/{k}",
                   lambda p=p: h1.apply(h2.apply(p)) == h2.apply(h1.apply(p)), _equal)
        ck.run(f"{label}/certify M1", lambda: h1.certify(3), _equal)
        ck.run(f"{label}/certify M2", lambda: h2.certify(3), _equal)

    return Group(label, 4 + _partition_count(4, rep.N), run)


def _level_one(rep):
    from cycdaha.macdonald import M1_l1, symmetric_basis
    from cycdaha.ops import OperatorExpr

    label = f"M1^(1) == sum Dl N={rep.N}"

    def run(ck):
        dsum = OperatorExpr.zero()
        for i in range(1, rep.N + 1):
            dsum = dsum + OperatorExpr.gen("Dl", i)
        for k, p in enumerate(symmetric_basis(rep, 4)):
            ck.run(f"{label}/{k}", lambda p=p: rep.apply(dsum, p) == M1_l1(rep, p), _equal)

    return Group(label, _partition_count(4, rep.N), run)


# ---------------------------------------------------------------------------
# relations-random: criteria 3, 4

def relations_random(d):
    from cycdaha.algebra import sample_rep
    from cycdaha.ops import Rep
    from cycdaha.scalars import sample_generic

    groups = []
    # criterion 3: 30 trials split over three generic draws, N = 2, 3, l = 1, 2
    for N in (2, 3):
        for l in (1, 2):
            for s in (11, 12, 13):
                rep = sample_rep("cyc-daha", N, l, seed=d(f"cyc-daha/N{N}/l{l}/{s}", s))
                groups.append(
                    _sweep(f"cyc-daha N={N} l={l} #{s}", rep, "cyc-daha", "random", 10,
                           trials=10, seed=d(f"cyc-daha/N{N}/l{l}/{s}/trials", s))
                )
        for s in (11, 12, 13):
            rep = sample_rep("l1", N, 1, seed=d(f"lastrel/N{N}/{s}", s))
            groups.append(
                _sweep(f"lastrel N={N} #{s}", rep, "lastrel", "random", 10,
                       trials=10, seed=d(f"lastrel/N{N}/{s}/trials", s))
            )
    # criterion 4: Dunkl-Opdam commutativity over Q(zeta_l), N = 2, 3, l = 2, 3
    for N in (2, 3):
        for l in (2, 3):
            names = ["k", "c0", "c1", "c2"]
            vals = sample_generic(names, [("nonzero", n) for n in names],
                                  seed=d(f"dunkl-opdam/N{N}/l{l}", 40 + N + l))
            rep = Rep.cyclotomic_cherednik(
                N, l, 1, vals["k"], tuple(vals[f"c{i}"] for i in range(l))
            )
            groups.append(_commutators(f"DO N={N} l={l}", rep, "DO", 2))
    return groups


# ---------------------------------------------------------------------------
# quasi-geometry: criteria 7-12

def _basis_check(label, spec, maxdeg, expect):
    from cycdaha.quasiinv import graded_basis

    def run(ck):
        ck.run(label, lambda: graded_basis(spec, maxdeg).dims(),
               lambda dims: (dims == expect, dims))

    return Group(label, 1, run)


def quasi_geometry(d):
    from cycdaha.quasiinv import CYC, PLAIN_Q, TWISTED, TWISTED_Q, QuasiSpec
    from cycdaha.scalars import sample_generic
    from cycdaha.tableaux import invariants_series, series_mul

    F = Fraction
    groups = []
    # criterion 7: closed-form dimension tables
    groups.append(_basis_check(
        "Q_2(1,0) == (t+t^4)/((1-t)(1-t^2))", QuasiSpec(TWISTED, 2, 2, a=(F(1), F(0))), 10,
        series_mul([0, 1, 0, 0, 1], invariants_series(2, 10), 10)))
    for m in (1, 2):
        groups.append(_basis_check(
            f"Q_{m}(1/2,0) == t^{m}/(1-t)^2", QuasiSpec(TWISTED, 2, m, a=(F(1, 2), F(0))),
            10, [max(0, k - m + 1) if k >= m else 0 for k in range(11)]))
    groups.append(_non_free(QuasiSpec(TWISTED, 3, 2, a=(F(1), F(0), F(0)))))
    groups.append(_degree_one(QuasiSpec(TWISTED, 2, 1, a=(F(1, 3), F(0)))))
    # criterion 8: flatness at sampled generic q against q = 1
    configs = [
        (f"plain-q N={N} m={m}", 10, QuasiSpec(PLAIN_Q, N, m, q=1),
         lambda q, N=N, m=m: QuasiSpec(PLAIN_Q, N, m, q=q))
        for N in (2, 3) for m in (1, 2)
    ] + [
        ("cyclotomic N=2 l=2", 8, QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=1),
         lambda q: QuasiSpec(CYC, 2, 1, l=2, mlist=(1,), q=q)),
        ("twisted-q N=2", 8, QuasiSpec(TWISTED, 2, 1, a=(F(1, 2), F(0))),
         lambda q: QuasiSpec(TWISTED_Q, 2, 1, a=(F(1, 2), F(0)), q=q)),
    ]
    for label, maxdeg, base, at_q in configs:
        specs = []
        for s in range(3):
            q = sample_generic(["q"], [("nonzero", "q"), ("not_root_of_unity", "q", 24)],
                               seed=d(f"flatness/{label}/{s}", 1000 + s))["q"]
            specs.append(at_q(q))
        groups.append(_flatness(f"flatness {label}", base, specs, maxdeg))
    # criterion 9: expected twisted series and Kostka/Molien
    groups.append(_twisted_series())
    groups.append(_kostka_molien())
    # criteria 10-12: quiver, bow and moment maps
    groups.append(_product_formulas(d))
    groups.append(_psi_lift(d))
    groups.append(_hanany_witten(d))
    groups.append(_moment_maps(d))
    return groups


def _non_free(spec):
    from cycdaha.quasiinv import freeness_numerator, graded_basis

    label = "Q_2(1,0,0)"
    expect = [0, 0, 1, 1, 2, 3, 5, 7, 10, 15, 20, 26, 33]

    def run(ck):
        dims = ck.run(f"{label} dims", lambda: graded_basis(spec, 12).dims(),
                      lambda dims: (dims == expect, dims))
        ck.run(f"{label} numerator has -1 at t^12", lambda: freeness_numerator(dims, 3),
               lambda r: (r == ([0, 0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 0, -1], True), r))

    return Group(label, 2, run)


def _degree_one(spec):
    from cycdaha.laurent import LaurentPoly
    from cycdaha.quasiinv import graded_basis

    label = "P_{a,1} as the degree-1 null space"
    a = spec.a[0]

    def check():
        deg1 = graded_basis(spec, 1).degrees[1]
        target = (1 - a) * LaurentPoly.variable(2, 1) + (1 + a) * LaurentPoly.variable(2, 2)
        if len(deg1) != 1:
            return False
        (e, c), = list(target.terms.items())[:1]
        scale = deg1[0].terms.get(e, Fraction(0)) / c
        return bool(scale) and deg1[0] == target * scale

    return Group(label, 1, lambda ck: ck.run(label, check, _equal))


def _flatness(label, base, specs, maxdeg):
    from cycdaha.quasiinv import graded_basis

    def run(ck):
        ref = ck.run(f"{label} q=1", lambda: graded_basis(base, maxdeg).dims(),
                     lambda dims: (True, dims))
        for spec in specs:
            ck.run(f"{label} q={spec.q}", lambda spec=spec: graded_basis(spec, maxdeg).dims(),
                   lambda dims: (dims == ref, dims))

    return Group(label, 1 + len(specs), run)


def _twisted_series():
    from cycdaha.quasiinv import (
        TWISTED,
        QuasiSpec,
        expected_twisted_series,
        graded_basis,
        graded_basis_with_symmetry,
    )

    F = Fraction
    spec22 = QuasiSpec(TWISTED, 2, 1, a=(F(1, 3), F(0)))
    spec33 = QuasiSpec(TWISTED, 3, 1, a=(F(1, 3), F(1, 7), F(0)))
    spec32 = QuasiSpec(TWISTED, 3, 1, a=(F(1, 2), F(0), F(0)))
    label = "twisted series"

    def run(ck):
        ck.run(f"{label} (2,2)", lambda: graded_basis(spec22, 10).dims(),
               lambda dims: (dims == expected_twisted_series((1, 1), 1, ((1,), (1,)), 10),
                             dims))
        ck.run(f"{label} (3,3)", lambda: graded_basis(spec33, 10).dims(),
               lambda dims: (dims == expected_twisted_series(
                   (1, 1, 1), 1, ((1,), (1,), (1,)), 10), dims))
        for sign, shape in ((+1, (2,)), (-1, (1, 1))):
            ck.run(f"{label} (3,2) h{'+' if sign > 0 else '-'}",
                   lambda sign=sign: graded_basis_with_symmetry(spec32, 10, 2, 3, sign),
                   lambda dims, shape=shape: (
                       dims == expected_twisted_series((1, 2), 1, ((1,), shape), 10), dims))

    return Group(label, 4, run)


def _every(results):
    """Verdict of a check that runs the battery's loop over several draws."""
    return all(results), results


def _kostka_molien():
    from cycdaha.tableaux import (
        invariants_series,
        kostka_polynomial,
        molien_series,
        partitions,
        series_mul,
    )

    shapes = [shape for n in range(1, 5) for shape in partitions(n)]

    def check():
        return [molien_series(shape, 8) == series_mul(
                    kostka_polynomial(shape), invariants_series(sum(shape), 8), 8)
                for shape in shapes]

    return Group("Kostka == Molien", 1,
                 lambda ck: ck.run("Kostka == Molien for |pi| <= 4", check, _every))


def _product_formulas(d):
    from cycdaha.quiver import check_point, product_formulas, sample_chain

    cases = []
    for l in (1, 2, 3, 4):
        Z = tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(l))
        for N in (1, 2, 3):
            seeds = [d(f"chain/l{l}/N{N}/{k}", 100 * l + 10 * N + k) for k in range(10)]
            cases.append((l, N, Z, seeds))

    def certified(l, N, Z, seed):
        p = sample_chain(l, N, Z, seed=seed)
        pf = product_formulas(p)
        return check_point(p)["certified"] and pf["Lplus_matches"] and pf["Lminus_matches"]

    def run(ck):
        for l, N, Z, seeds in cases:
            ck.run(f"prodfor l={l} N={N} (10 seeds)",
                   lambda l=l, N=N, Z=Z, seeds=seeds: [certified(l, N, Z, s) for s in seeds],
                   _every)

    return Group("product formulas", len(cases), run)


def _psi_lift(d):
    from cycdaha.linalg import Matrix
    from cycdaha.quiver import check_point, check_quadruple, lift_open_locus, psi, sample_chain

    Z = (Fraction(2), Fraction(5, 3))
    seeds = [d(f"psi/{s}", s) for s in (3, 4, 5)]
    perturb_seed = d("perturb", 8)

    def round_trip(seed):
        q = psi(sample_chain(2, 2, Z, seed=seed))
        if not q.X.is_invertible():
            return "skipped: X singular"  # as the battery does
        q2 = psi(lift_open_locus(q))
        return ((q2.X, q2.D, q2.Y, q2.T) == (q.X, q.D, q.Y, q.T)
                and check_quadruple(q2)["certified"])

    def perturbed():
        p = sample_chain(2, 2, Z, seed=perturb_seed)
        rows = [list(r) for r in p.X[0].rows]
        rows[0][0] += 1
        p.X[0] = Matrix(rows)
        return not check_point(p)["certified"]

    def run(ck):
        ck.run("psi/lift round trips", lambda: [round_trip(s) for s in seeds], _every)
        ck.run("perturbed point rejected", perturbed, _equal)

    return Group("psi/lift", 2, run)


def _hanany_witten(d):
    from cycdaha.bow import BowDiagram, hw_diagram, hw_round_trip_check, linkage_invariants
    from cycdaha.bow import sample_bow

    cases = [(dims, [d(f"bow/{dims}/{s}", s) for s in (11, 12, 13, 14, 15)])
             for dims in ((1, 1, 1), (2, 2, 2))]

    def round_trip(dims, seed):
        bow = sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), seed)
        rt = hw_round_trip_check(bow)
        diag = BowDiagram([0, *dims, 0], ["x", "o", "x", "x"])
        diag2 = hw_diagram(diag, 1)
        return (rt["ok"] and linkage_invariants(diag) == linkage_invariants(diag2)
                and diag2.dims[2] == rt["new"].dims[1])

    def run(ck):
        for dims, seeds in cases:
            ck.run(f"HW round trips dims={dims} (5 seeds)",
                   lambda dims=dims, seeds=seeds: [round_trip(dims, s) for s in seeds],
                   _every)

    return Group("Hanany-Witten", len(cases), run)


def _moment_maps(d):
    from cycdaha.linalg import Matrix
    from cycdaha.quiver import SingularFactor, moment_equivariance_check, telescoped_framing

    rng = Random(d("moment", 31))
    draws = []
    for _ in range(5):
        X, Y = Matrix.random(rng, 2, 3), Matrix.random(rng, 3, 2)
        g, h = Matrix.random(rng, 3, 3), Matrix.random(rng, 2, 2)
        draws.append((X, Y, g, h))
    framings = {
        ell: [[(Matrix.random(rng2, 2, 1), Matrix.random(rng2, 1, 2)) for _ in range(ell)]
              for rng2 in (Random(d(f"telescoping/{ell}/{s}", 100 * ell + s))
                           for s in range(5))]
        for ell in (2, 3, 4)
    }

    def equivariant(X, Y, g, h):
        # the battery skips draws with a singular g, h or 1 + XY
        if not (g.is_invertible() and h.is_invertible()):
            return "skipped: singular g or h"
        try:
            return moment_equivariance_check(X, Y, g, h)
        except SingularFactor:
            return "skipped: singular 1 + XY"

    def run(ck):
        ck.run("moment-map equivariance (5 draws)",
               lambda: [equivariant(*draw) for draw in draws], _every)
        for ell, pair_lists in framings.items():
            ck.run(f"telescoping l={ell} (5 seeds)",
                   lambda pair_lists=pair_lists: [telescoped_framing(p)[1] for p in pair_lists],
                   _every)

    return Group("moment maps", 1 + len(framings), run)


_BUILDERS = {
    "relations-box": relations_box,
    "relations-random": relations_random,
    "quasi-geometry": quasi_geometry,
}


def build(name, seed):
    """Construct the inputs of one pass and return its groups."""
    return _BUILDERS[name](Draws(seed))


def modules(name):
    """The cycdaha modules a workload imports; imported before timing."""
    common = ["cycdaha.scalars", "cycdaha.laurent", "cycdaha.linalg", "cycdaha.ops"]
    if name == "quasi-geometry":
        return common + ["cycdaha.quasiinv", "cycdaha.tableaux", "cycdaha.quiver",
                         "cycdaha.bow"]
    return common + ["cycdaha.algebra", "cycdaha.macdonald"]

