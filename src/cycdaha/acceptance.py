"""The acceptance battery: twelve criteria, each an exact check with zero
tolerance.  Every criterion function returns only its details, one True or
False verdict per thing it checked; its report entry passes exactly when
the details are non-empty and every value is True, so a criterion that
checked nothing fails.  A detail over sampled draws, some of which the
sampler skips, names how many draws it checked and is False when it
checked none.

Box radii are configuration: rank-N sweeps use radius 3 for N <= 3 and 2
for N = 4 (the exponent boxes grow as (2B+1)^N).  Randomized checks split
their trial budget over three independent generic-parameter draws.
"""

from __future__ import annotations

import itertools
import os
import time
import traceback
from fractions import Fraction

from .laurent import LaurentPoly
from .linalg import Matrix
from .ops import OperatorExpr, Rep, op_equal_on_box
from .scalars import RatFuncField


def _error_text(exc):
    """'<Type> at <file>:<line>: <message>', placed at the frame that raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    place = f"{os.path.basename(where.filename)}:{where.lineno}"
    return f"{type(exc).__name__} at {place}: {exc}"


def _timed(name, fn):
    """Run fn() -> details as one report entry, which passes exactly when
    details is non-empty and every value is True.  An exception is a
    failure whose details name its type and where it was raised."""
    t0 = time.perf_counter()
    try:
        details = fn()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        details = {"error": _error_text(exc)}
    ok = bool(details) and all(v is True for v in details.values())
    return {
        "name": name,
        "status": "pass" if ok else "fail",
        "details": details,
        "seconds": round(time.perf_counter() - t0, 2),
    }


def _criterion(name):
    def wrap(fn):
        def run():
            return _timed(name, fn)

        run.criterion_name = name
        return run

    return wrap


def _commuting(rep, family, B):
    """Every two operators of the family commute on the box of radius B."""
    return all(op_equal_on_box(rep, a * b, b * a, B)["result"]
               for a, b in itertools.combinations(family, 2))


def _draws(label, verdicts, draws):
    """The detail of a check over `draws` sampled draws of which the sampler
    skipped some: it names how many were checked, and is False when none
    was."""
    return {f"{label} ({len(verdicts)} of {draws} draws)": bool(verdicts) and all(verdicts)}


# ---------------------------------------------------------------------------

@_criterion("1. DAHA relation suite (12 schemas, N=2,3, B=3, 3 seeds)")
def criterion_1():
    from .algebra import sample_rep, verify_family

    details = {}
    for N in (2, 3):
        for seed in (1, 2, 3):
            rep = sample_rep("daha", N, seed=seed)
            details[f"N={N},seed={seed}"] = verify_family(rep, "daha", "box", box_radius=3)["all_pass"]
    return details


@_criterion("2. degenerate suite + Dunkl commutativity (N<=4)")
def criterion_2():
    from .algebra import sample_rep, verify_family

    details = {}
    for N in (2, 3):
        for seed in (1, 2, 3):
            rep = sample_rep("deg-daha", N, seed=seed)
            r = verify_family(rep, "deg-daha", "box", box_radius=3)
            details[f"relations N={N},seed={seed}"] = r["all_pass"]
    for N in (2, 3, 4):
        rep = sample_rep("deg-daha", N, seed=5)
        B = 3 if N <= 3 else 2
        for tag in ("D", "Dtrig"):
            family = [OperatorExpr.gen(tag, i) for i in range(1, N + 1)]
            details[f"[{tag}_i,{tag}_j]=0 N={N}"] = _commuting(rep, family, B)
    return details


@_criterion("3. cyclotomic DAHA presentation, randomized 30 trials, N=2,3 l=1,2")
def criterion_3():
    from .algebra import cd11_instance, sample_rep, verify_family
    from .ops import op_equal_randomized

    details = {}
    for N in (2, 3):
        for l in (1, 2):
            good = cd11 = control = True
            # 30 trials split over 3 generic parameter draws
            for seed in (11, 12, 13):
                rep = sample_rep("cyc-daha", N, l, seed=seed)
                r = verify_family(rep, "cyc-daha", "random", trials=10, seed=seed)
                good &= r["all_pass"]
                # cd11, the phi-image of cd10, holds on the same draws; with
                # its right side scaled by 8/7 it must fail on each of them
                inst = cd11_instance(rep)
                cd11 &= op_equal_randomized(rep, inst.lhs, inst.rhs, 10, seed)["result"]
                wrong = Fraction(8, 7) * inst.rhs
                control &= not op_equal_randomized(rep, inst.lhs, wrong, 10, seed)["result"]
            details[f"N={N},l={l}"] = good
            details[f"cd11 N={N},l={l}"] = cd11
            details[f"cd11 with rhs * 8/7 rejected N={N},l={l}"] = control
        # the Jucys-Murphy relation lives at level one (Z_1 = 1)
        details[f"lastrel N={N}"] = all(
            verify_family(sample_rep("l1", N, 1, seed=seed), "lastrel", "random",
                          trials=10, seed=seed)["all_pass"]
            for seed in (11, 12, 13)
        )
    return details


@_criterion("4. Dunkl-Opdam commutativity over Q(zeta_l), N=2,3 l=2,3")
def criterion_4():
    from .scalars import sample_generic

    details = {}
    for N in (2, 3):
        for l in (2, 3):
            vals = sample_generic(
                ["k", "c0", "c1", "c2"],
                [("nonzero", "k"), ("nonzero", "c0"), ("nonzero", "c1"),
                 ("nonzero", "c2")],
                seed=40 + N + l,
            )
            rep = Rep.cyclotomic_cherednik(
                N, l, 1, vals["k"], tuple(vals[f"c{i}"] for i in range(l))
            )
            family = [OperatorExpr.gen("DO", i) for i in range(1, N + 1)]
            details[f"N={N},l={l}"] = _commuting(rep, family, 2)
    return details


@_criterion("5. Macdonald identity: (sum Y_i)e = M on sym deg<=5; M.1 symbolic N<=4")
def criterion_5():
    from .algebra import sample_rep
    from .macdonald import (
        apply_macdonald_operator,
        hecke_symmetrizer_expr,
        macdonald_M1,
        symmetric_basis,
    )

    details = {}
    for N in (2, 3):
        rep = sample_rep("daha", N, seed=9)
        e = hecke_symmetrizer_expr(rep)
        ysum = OperatorExpr.zero()
        for i in range(1, N + 1):
            ysum = ysum + OperatorExpr.gen("Y", i)
        details[f"(sumY)e == M, N={N}, deg<=5"] = all(
            rep.apply(ysum * e, p) == macdonald_M1(rep, p) for p in symmetric_basis(rep, 5)
        )
    F = RatFuncField("t")
    t = F.gen
    for N in (2, 3, 4):
        one = LaurentPoly.one(N, F)
        img = apply_macdonald_operator(N, F.coerce(1), t, one, F)
        expect = LaurentPoly.const(N, (1 - t ** N) / (1 - t), F)
        details[f"M.1 == (1-t^{N})/(1-t) symbolically"] = img == expect
    return details


@_criterion("6. commuting families, [M1,M2]=0, level-one Hamiltonian formula")
def criterion_6():
    from .algebra import sample_rep
    from .macdonald import (
        M1_l1,
        hamiltonian,
        poly_from_roots,
        symmetric_basis,
        y_f,
    )

    details = {}
    # [Y_i(f), Y_j(f)] = 0 and [Dl_i, Dl_j] = 0, N <= 3, l <= 2
    for N in (2, 3):
        for l in (1, 2):
            rep = sample_rep("cyc-daha", N, l, seed=21)
            f = poly_from_roots(rep.params["Z"])
            ys = [y_f(rep, i, f) for i in range(1, N + 1)]
            dls = [OperatorExpr.gen("Dl", i) for i in range(1, N + 1)]
            details[f"[Y_i(f),Y_j(f)]=[D_i,D_j]=0 N={N} l={l}"] = (
                _commuting(rep, ys, 2) and _commuting(rep, dls, 2)
            )
    # [M_1, M_2] = 0 on symmetric inputs, N=3, l=1
    rep = sample_rep("cyc-daha", 3, 1, seed=23)
    f = poly_from_roots(rep.params["Z"])
    h1 = hamiltonian(rep, 1, f, dual=True)
    h2 = hamiltonian(rep, 2, f, dual=True)
    details["[M1,M2]=0 on symmetric inputs N=3 l=1"] = (
        all(h1.apply(h2.apply(p)) == h2.apply(h1.apply(p)) for p in symmetric_basis(rep, 4))
        and h1.certify(3) and h2.certify(3)
    )
    # level-one displayed formula equals sum of the q-Dunkl operators
    for N in (2, 3):
        rep = sample_rep("l1", N, 1, seed=25)
        dsum = OperatorExpr.zero()
        for i in range(1, N + 1):
            dsum = dsum + OperatorExpr.gen("Dl", i)
        details[f"M1^(1) displayed == sum Dl_i, N={N}"] = all(
            rep.apply(dsum, p) == M1_l1(rep, p) for p in symmetric_basis(rep, 4)
        )
    return details


@_criterion("7. quasiinvariant series: closed-form dimension tables")
def criterion_7():
    from .quasiinv import (
        TWISTED,
        QuasiSpec,
        freeness_numerator,
        graded_basis,
    )
    from .tableaux import invariants_series, series_mul

    details = {}
    # Q_m(a,0), a = 1, m = 2: (t^1 + t^4)/((1-t)(1-t^2)), degrees <= 10
    spec = QuasiSpec(TWISTED, 2, 2, a=(Fraction(1), Fraction(0)))
    dims = graded_basis(spec, 10).dims()
    expect = series_mul([0, 1, 0, 0, 1], invariants_series(2, 10), 10)
    details["Q_2(1,0) dims == (t+t^4)/((1-t)(1-t^2))"] = dims == expect
    # a = 1/2, m = 1, 2: t^m/(1-t)^2
    for m in (1, 2):
        spec = QuasiSpec(TWISTED, 2, m, a=(Fraction(1, 2), Fraction(0)))
        dims = graded_basis(spec, 10).dims()
        expect = [max(0, d - m + 1) if d >= m else 0 for d in range(11)]
        details[f"Q_{m}(1/2,0) dims == t^{m}/(1-t)^2"] = dims == expect
    # Q_2(1,0,0): the non-free example, with the telltale -1 at t^12
    spec = QuasiSpec(TWISTED, 3, 2, a=(Fraction(1), Fraction(0), Fraction(0)))
    dims = graded_basis(spec, 12).dims()
    details["Q_2(1,0,0) dims"] = dims == [0, 0, 1, 1, 2, 3, 5, 7, 10, 15, 20, 26, 33]
    numer, neg = freeness_numerator(dims, 3)
    details["Q_2(1,0,0) numerator has the expected -1 at t^12"] = (
        numer == [0, 0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 0, -1] and neg
    )
    # degree-1 generator of Q_1(a,0).  The defining conditions force the
    # vector ((1-a) X_1 + (1+a) X_2), unique up to scale.
    a = Fraction(1, 3)
    spec = QuasiSpec(TWISTED, 2, 1, a=(a, Fraction(0)))
    deg1 = graded_basis(spec, 1).degrees[1]
    X1 = LaurentPoly.variable(2, 1)
    X2 = LaurentPoly.variable(2, 2)
    target = (1 - a) * X1 + (1 + a) * X2
    good = False
    if len(deg1) == 1:
        f = deg1[0]
        c = next(iter(target.terms.values()))
        e = next(iter(target.terms.keys()))
        scale = f.terms.get(e, Fraction(0)) / c
        good = bool(scale) and f == target * scale
    details["P_{a,1} recovered as the degree-1 null space"] = good
    return details


@_criterion("8. flatness protocols (plain-q, cyclotomic, twisted-q)")
def criterion_8():
    from .quasiinv import CYC, PLAIN_Q, TWISTED_Q, QuasiSpec, flatness_report

    details = {
        f"plain-q N={N} m={m} deg<=10 3 seeds":
            flatness_report(QuasiSpec(PLAIN_Q, N, m), 10, 3)["all_match"]
        for N in (2, 3) for m in (1, 2)
    }
    r = flatness_report(QuasiSpec(CYC, 2, 1, l=2, mlist=(1,)), 8, 3)
    details["cyclotomic N=2 l=2 deg<=8"] = r["all_match"]
    r = flatness_report(QuasiSpec(TWISTED_Q, 2, 1, a=(Fraction(1, 2), Fraction(0))), 8, 3)
    details["twisted-q N=2 generic a deg<=8"] = r["all_match"]
    return details


@_criterion("9. expected twisted series and Kostka/Molien cross-checks")
def criterion_9():
    from .quasiinv import (
        TWISTED,
        QuasiSpec,
        expected_twisted_series,
        graded_basis,
        graded_basis_with_symmetry,
    )
    from .tableaux import (
        invariants_series,
        kostka_polynomial,
        molien_series,
        partitions,
        series_mul,
    )

    details = {}
    m = 1
    # (N, l) = (2, 2): full series of Q_m(a1, a2) with generic a
    spec = QuasiSpec(TWISTED, 2, m, a=(Fraction(1, 3), Fraction(0)))
    expect = expected_twisted_series((1, 1), m, ((1,), (1,)), 10)
    details["(2,2) computed == expected"] = graded_basis(spec, 10).dims() == expect
    # (3, 3): all weights distinct
    spec = QuasiSpec(
        TWISTED, 3, m, a=(Fraction(1, 3), Fraction(1, 7), Fraction(0))
    )
    expect = expected_twisted_series((1, 1, 1), m, ((1,), (1,), (1,)), 10)
    details["(3,3) computed == expected"] = graded_basis(spec, 10).dims() == expect
    # (3, 2): h+/h- split under swapping the two equal weights
    spec = QuasiSpec(TWISTED, 3, m, a=(Fraction(1, 2), Fraction(0), Fraction(0)))
    hp = graded_basis_with_symmetry(spec, 10, 2, 3, +1)
    hm = graded_basis_with_symmetry(spec, 10, 2, 3, -1)
    details["(3,2) h+ matches t^{2m} numerator"] = hp == expected_twisted_series(
        (1, 2), m, ((1,), (2,)), 10
    )
    details["(3,2) h- matches t^{4m+1} numerator"] = hm == expected_twisted_series(
        (1, 2), m, ((1,), (1, 1)), 10
    )
    # Kostka values cross-validated against the Molien sum, |pi| <= 4
    details["Kostka == Molien oracle for |pi| <= 4"] = all(
        molien_series(shape, 8) == series_mul(kostka_polynomial(shape), invariants_series(n, 8), 8)
        for n in range(1, 5) for shape in partitions(n)
    )
    return details


@_criterion("10. quiver identities: product formulas, psi/lift, soundness")
def criterion_10():
    from .quiver import (
        Quadruple,
        check_point,
        check_quadruple,
        irreducibility_check,
        lift_open_locus,
        product_formulas,
        psi,
        sample_chain,
    )

    def prodfor(p):
        # the product formulas read the certification check_point has made
        point = check_point(p)
        return point["certified"] and all(product_formulas(p, point).values())

    details = {}
    for l in (1, 2, 3, 4):
        for N in (1, 2, 3):
            Z = tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(l))
            points = (sample_chain(l, N, Z, seed=100 * l + 10 * N + seed) for seed in range(10))
            details[f"prodfor l={l} N={N} (10 seeds)"] = all(prodfor(p) for p in points)
    # psi / lift round trips on the open locus, where X is invertible; every
    # psi image acts irreducibly on C^N (Burnside)
    round_trips = []
    irreducible = True
    for seed in (3, 4, 5):
        q = psi(sample_chain(2, 2, (Fraction(2), Fraction(5, 3)), seed=seed))
        irreducible &= irreducibility_check(q)["irreducible"]
        if q.X.is_invertible():
            q2 = psi(lift_open_locus(q))
            round_trips.append((q2.X, q2.D, q2.Y, q2.T) == (q.X, q.D, q.Y, q.T)
                               and check_quadruple(q2)["certified"])
    details.update(_draws("psi/lift round trips", round_trips, 3))
    details["psi images irreducible"] = irreducible
    # a diagonal quadruple keeps the coordinate lines: reducible, with a witness
    diagonal = Quadruple(
        1, 2, (Fraction(1),), Fraction(2), Matrix.zero(2, 2), Matrix.zero(2, 2),
        Matrix([[1, 0], [0, 2]]), Matrix.identity(2),
    )
    r = irreducibility_check(diagonal)
    details["diagonal quadruple reducible, with witness"] = (
        not r["irreducible"] and r["witness"] is not None
    )
    # perturbation soundness
    p = sample_chain(2, 2, (Fraction(2), Fraction(5, 3)), seed=8)
    rows = [list(r) for r in p.X[0].rows]
    rows[0][0] += 1
    p.X[0] = Matrix(rows)
    details["perturbed point rejected"] = not check_point(p)["certified"]
    return details


@_criterion("11. Hanany-Witten transition round trips and invariants")
def criterion_11():
    from .bow import (
        BowDiagram,
        cobalanced_reduction_check,
        hw_diagram,
        hw_round_trip_check,
        linkage_invariants,
        sample_bow,
        sample_cobalanced_segment,
    )

    details = {}
    for dims in ((1, 1, 1), (2, 2, 2)):
        diag = BowDiagram([0, *dims, 0], ["x", "o", "x", "x"])
        diag2 = hw_diagram(diag, 1)
        good = linkage_invariants(diag) == linkage_invariants(diag2)
        for seed in (11, 12, 13, 14, 15):
            bow = sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), seed)
            rt = hw_round_trip_check(bow)
            good &= rt["ok"] and diag2.dims[2] == rt["new"].dims[1]
        details[f"dims={dims} (5 seeds)"] = good
    # a cobalanced two-cross segment reduces to the multiplicative quiver
    # relation at its ends; one perturbed entry of D4 must break the chain
    details["cobalanced reduction n=1,2,3 (seeds 5, 7)"] = all(
        all(cobalanced_reduction_check(sample_cobalanced_segment(n, seed)).values())
        for n in (1, 2, 3) for seed in (5, 7)
    )
    data = sample_cobalanced_segment(2, 5)
    rows = [list(r) for r in data["D4"].rows]
    rows[0][0] += 1
    data["D4"] = Matrix(rows)
    details["perturbed D4 breaks the chain identity"] = (
        not cobalanced_reduction_check(data)["chain_identity"]
    )
    return details


@_criterion("12. Van den Bergh moment maps and fusion telescoping")
def criterion_12():
    from random import Random

    from .quiver import SingularFactor, moment_equivariance_check, telescoped_framing

    rng = Random(31)
    checked = []
    for _ in range(5):
        X = Matrix.random(rng, 2, 3)
        Y = Matrix.random(rng, 3, 2)
        g = Matrix.random(rng, 3, 3)
        h = Matrix.random(rng, 2, 2)
        if not (g.is_invertible() and h.is_invertible()):
            continue
        try:
            checked.append(moment_equivariance_check(X, Y, g, h))
        except SingularFactor:  # 1 + XY not invertible: no moment map here
            continue
    details = _draws("moment-map equivariance", checked, 5)
    for ell in (2, 3, 4):
        good = True
        for seed in range(5):
            rng = Random(100 * ell + seed)
            pairs = [(Matrix.random(rng, 2, 1), Matrix.random(rng, 1, 2)) for _ in range(ell)]
            good &= telescoped_framing(pairs)[1]
        details[f"telescoping l={ell} (5 seeds)"] = good
    return details


ALL_CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]


def run_all():
    return [fn() for fn in ALL_CRITERIA]


def run_smoke():
    """A fast battery covering every subsystem (finishes well under a minute);
    each step's details are its one verdict."""
    from .algebra import jucys_murphy_consistency, sample_rep, verify_family
    from .quasiinv import TWISTED, QuasiSpec, graded_basis
    from .quiver import product_formulas, sample_chain
    from .bow import hw_round_trip_check, sample_bow

    steps = [
        (
            "daha relations N=2 box",
            lambda: verify_family(sample_rep("daha", 2, seed=1), "daha", "box", 2)[
                "all_pass"
            ],
        ),
        (
            "deg-cyc relations N=2 l=1",
            lambda: verify_family(
                sample_rep("deg-cyc", 2, 1, seed=1), "deg-cyc", "box", 2
            )["all_pass"],
        ),
        (
            "cyc-daha randomized N=2 l=2",
            lambda: verify_family(
                sample_rep("cyc-daha", 2, 2, seed=1), "cyc-daha", "random", trials=3,
                seed=5,
            )["all_pass"],
        ),
        (
            "Jucys-Murphy word identity N=3",
            lambda: jucys_murphy_consistency(sample_rep("daha", 3, seed=1))["result"],
        ),
        (
            "twisted quasiinvariants N=2",
            lambda: graded_basis(
                QuasiSpec(TWISTED, 2, 1, a=(Fraction(1, 2), Fraction(0))), 5
            ).dims()
            == [0, 1, 2, 3, 4, 5],
        ),
        (
            "quiver product formulas l=2 N=2",
            lambda: all(
                product_formulas(
                    sample_chain(2, 2, (Fraction(2), Fraction(5, 3)), seed=4)
                ).values()
            ),
        ),
        (
            "Hanany-Witten round trip (1,1,1)",
            lambda: hw_round_trip_check(
                sample_bow((1, 1, 1), Fraction(2), Fraction(3), Fraction(5, 2), 11)
            )["ok"],
        ),
    ]
    return [_timed(name, lambda name=name, check=check: {name: check()})
            for name, check in steps]
