"""The acceptance battery: twelve criteria, each an exact check with zero
tolerance.  Every criterion function returns a report dict with a pass/fail
status and enough detail to reproduce the run.

Box radii are configuration: rank-N sweeps use radius 3 for N <= 3 and 2
for N = 4 (the exponent boxes grow as (2B+1)^N).  Randomized checks split
their trial budget over three independent generic-parameter draws.
"""

from __future__ import annotations

import os
import time
import traceback
from fractions import Fraction

from .laurent import LaurentPoly
from .linalg import Matrix
from .ops import Gen, OperatorExpr, Rep, op_equal_on_box
from .scalars import RatFuncField


def _error_text(exc):
    """'<Type> at <file>:<line>: <message>', placed at the frame that raised."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    place = f"{os.path.basename(where.filename)}:{where.lineno}"
    return f"{type(exc).__name__} at {place}: {exc}"


def _timed(name, fn):
    """Run fn() -> (ok, details) as one report entry.  An exception is a
    failure whose details name its type and where it was raised."""
    t0 = time.perf_counter()
    try:
        ok, details = fn()
    except Exception as exc:  # noqa: BLE001 - reported, not raised
        ok, details = False, {"error": _error_text(exc)}
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


# ---------------------------------------------------------------------------

@_criterion("1. DAHA relation suite (12 schemas, N=2,3, B=3, 3 seeds)")
def criterion_1():
    from .algebra import sample_rep, verify_family

    details = {}
    ok = True
    for N in (2, 3):
        for seed in (1, 2, 3):
            rep = sample_rep("daha", N, seed=seed)
            r = verify_family(rep, "daha", "box", box_radius=3)
            details[f"N={N},seed={seed}"] = r["all_pass"]
            ok &= r["all_pass"]
    return ok, details


@_criterion("2. degenerate suite + Dunkl commutativity (N<=4)")
def criterion_2():
    from .algebra import sample_rep, verify_family

    details = {}
    ok = True
    for N in (2, 3):
        for seed in (1, 2, 3):
            rep = sample_rep("deg-daha", N, seed=seed)
            r = verify_family(rep, "deg-daha", "box", box_radius=3)
            details[f"relations N={N},seed={seed}"] = r["all_pass"]
            ok &= r["all_pass"]
    for N in (2, 3, 4):
        rep = sample_rep("deg-daha", N, seed=5)
        B = 3 if N <= 3 else 2
        for tag in ("D", "Dtrig"):
            good = True
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    a = OperatorExpr.word([Gen(tag, i), Gen(tag, j)])
                    b = OperatorExpr.word([Gen(tag, j), Gen(tag, i)])
                    good &= op_equal_on_box(rep, a, b, B)["result"]
            details[f"[{tag}_i,{tag}_j]=0 N={N}"] = good
            ok &= good
    return ok, details


@_criterion("3. cyclotomic DAHA presentation, randomized 30 trials, N=2,3 l=1,2")
def criterion_3():
    from .algebra import sample_rep, verify_family

    details = {}
    ok = True
    for N in (2, 3):
        for l in (1, 2):
            good = True
            # 30 trials split over 3 generic parameter draws
            for seed in (11, 12, 13):
                rep = sample_rep("cyc-daha", N, l, seed=seed)
                r = verify_family(rep, "cyc-daha", "random", trials=10, seed=seed)
                good &= r["all_pass"]
            details[f"N={N},l={l}"] = good
            ok &= good
        # the Jucys-Murphy relation lives at level one (Z_1 = 1)
        good = True
        for seed in (11, 12, 13):
            rep = sample_rep("l1", N, 1, seed=seed)
            r = verify_family(rep, "lastrel", "random", trials=10, seed=seed)
            good &= r["all_pass"]
        details[f"lastrel N={N}"] = good
        ok &= good
    return ok, details


@_criterion("4. Dunkl-Opdam commutativity over Q(zeta_l), N=2,3 l=2,3")
def criterion_4():
    from .scalars import sample_generic

    details = {}
    ok = True
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
            B = 2
            good = True
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    a = OperatorExpr.word([Gen("DO", i), Gen("DO", j)])
                    b = OperatorExpr.word([Gen("DO", j), Gen("DO", i)])
                    good &= op_equal_on_box(rep, a, b, B)["result"]
            details[f"N={N},l={l}"] = good
            ok &= good
    return ok, details


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
    ok = True
    for N in (2, 3):
        rep = sample_rep("daha", N, seed=9)
        e = hecke_symmetrizer_expr(rep)
        ysum = OperatorExpr.zero()
        for i in range(1, N + 1):
            ysum = ysum + OperatorExpr.gen("Y", i)
        good = True
        for p in symmetric_basis(rep, 5):
            lhs = rep.apply(ysum * e, p)
            rhs = macdonald_M1(rep, p)
            good &= lhs == rhs
        details[f"(sumY)e == M, N={N}, deg<=5"] = good
        ok &= good
    F = RatFuncField("t")
    t = F.gen
    for N in (2, 3, 4):
        one = LaurentPoly.one(N, F)
        img = apply_macdonald_operator(N, F.coerce(1), t, one, F)
        expect = LaurentPoly.const(N, (1 - t ** N) / (1 - t), F)
        good = img == expect
        details[f"M.1 == (1-t^{N})/(1-t) symbolically"] = good
        ok &= good
    return ok, details


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
    ok = True
    # [Y_i(f), Y_j(f)] = 0 and [Dl_i, Dl_j] = 0, N <= 3, l <= 2
    for N in (2, 3):
        for l in (1, 2):
            rep = sample_rep("cyc-daha", N, l, seed=21)
            f = poly_from_roots(rep.params["Z"])
            good = True
            for i in range(1, N + 1):
                for j in range(i + 1, N + 1):
                    yi, yj = y_f(rep, i, f), y_f(rep, j, f)
                    good &= op_equal_on_box(rep, yi * yj, yj * yi, 2)["result"]
                    di = OperatorExpr.gen("Dl", i)
                    dj = OperatorExpr.gen("Dl", j)
                    good &= op_equal_on_box(rep, di * dj, dj * di, 2)["result"]
            details[f"[Y_i(f),Y_j(f)]=[D_i,D_j]=0 N={N} l={l}"] = good
            ok &= good
    # [M_1, M_2] = 0 on symmetric inputs, N=3, l=1
    rep = sample_rep("cyc-daha", 3, 1, seed=23)
    f = poly_from_roots(rep.params["Z"])
    h1 = hamiltonian(rep, 1, f, dual=True)
    h2 = hamiltonian(rep, 2, f, dual=True)
    good = True
    for p in symmetric_basis(rep, 4):
        good &= h1.apply(h2.apply(p)) == h2.apply(h1.apply(p))
    good &= h1.certify(3) and h2.certify(3)
    details["[M1,M2]=0 on symmetric inputs N=3 l=1"] = good
    ok &= good
    # level-one displayed formula equals sum of the q-Dunkl operators
    for N in (2, 3):
        rep = sample_rep("l1", N, 1, seed=25)
        dsum = OperatorExpr.zero()
        for i in range(1, N + 1):
            dsum = dsum + OperatorExpr.gen("Dl", i)
        good = True
        for p in symmetric_basis(rep, 4):
            good &= rep.apply(dsum, p) == M1_l1(rep, p)
        details[f"M1^(1) displayed == sum Dl_i, N={N}"] = good
        ok &= good
    return ok, details


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
    ok = True
    # Q_m(a,0), a = 1, m = 2: (t^1 + t^4)/((1-t)(1-t^2)), degrees <= 10
    spec = QuasiSpec(TWISTED, 2, 2, a=(Fraction(1), Fraction(0)))
    dims = graded_basis(spec, 10).dims()
    expect = series_mul([0, 1, 0, 0, 1], invariants_series(2, 10), 10)
    good = dims == expect
    details["Q_2(1,0) dims == (t+t^4)/((1-t)(1-t^2))"] = good
    ok &= good
    # a = 1/2, m = 1, 2: t^m/(1-t)^2
    for m in (1, 2):
        spec = QuasiSpec(TWISTED, 2, m, a=(Fraction(1, 2), Fraction(0)))
        dims = graded_basis(spec, 10).dims()
        expect = [max(0, d - m + 1) if d >= m else 0 for d in range(11)]
        good = dims == expect
        details[f"Q_{m}(1/2,0) dims == t^{m}/(1-t)^2"] = good
        ok &= good
    # Q_2(1,0,0): the non-free example, with the telltale -1 at t^12
    spec = QuasiSpec(TWISTED, 3, 2, a=(Fraction(1), Fraction(0), Fraction(0)))
    dims = graded_basis(spec, 12).dims()
    expect = [0, 0, 1, 1, 2, 3, 5, 7, 10, 15, 20, 26, 33]
    good = dims == expect
    details["Q_2(1,0,0) dims"] = good
    ok &= good
    numer, neg = freeness_numerator(dims, 3)
    good = (
        numer == [0, 0, 1, 0, 0, 0, 1, 1, 0, 2, 1, 0, -1] and neg
    )
    details["Q_2(1,0,0) numerator has the expected -1 at t^12"] = good
    ok &= good
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
    ok &= good
    return ok, details


@_criterion("8. flatness protocols (plain-q, cyclotomic, twisted-q)")
def criterion_8():
    from .quasiinv import CYC, PLAIN_Q, TWISTED_Q, flatness_report

    details = {}
    ok = True
    for N in (2, 3):
        for m in (1, 2):
            r = flatness_report(PLAIN_Q, N, m, 10, 3)
            details[f"plain-q N={N} m={m} deg<=10 3 seeds"] = r["all_match"]
            ok &= r["all_match"]
    r = flatness_report(CYC, 2, 1, 8, 3, l=2, mlist=(1,))
    details["cyclotomic N=2 l=2 deg<=8"] = r["all_match"]
    ok &= r["all_match"]
    r = flatness_report(
        TWISTED_Q, 2, 1, 8, 3, a=(Fraction(1, 2), Fraction(0))
    )
    details["twisted-q N=2 generic a deg<=8"] = r["all_match"]
    ok &= r["all_match"]
    return ok, details


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
    ok = True
    m = 1
    # (N, l) = (2, 2): full series of Q_m(a1, a2) with generic a
    spec = QuasiSpec(TWISTED, 2, m, a=(Fraction(1, 3), Fraction(0)))
    good = graded_basis(spec, 10).dims() == expected_twisted_series(
        (1, 1), m, ((1,), (1,)), 10
    )
    details["(2,2) computed == expected"] = good
    ok &= good
    # (3, 3): all weights distinct
    spec = QuasiSpec(
        TWISTED, 3, m, a=(Fraction(1, 3), Fraction(1, 7), Fraction(0))
    )
    good = graded_basis(spec, 10).dims() == expected_twisted_series(
        (1, 1, 1), m, ((1,), (1,), (1,)), 10
    )
    details["(3,3) computed == expected"] = good
    ok &= good
    # (3, 2): h+/h- split under swapping the two equal weights
    spec = QuasiSpec(TWISTED, 3, m, a=(Fraction(1, 2), Fraction(0), Fraction(0)))
    hp = graded_basis_with_symmetry(spec, 10, 2, 3, +1)
    hm = graded_basis_with_symmetry(spec, 10, 2, 3, -1)
    good_p = hp == expected_twisted_series((1, 2), m, ((1,), (2,)), 10)
    good_m = hm == expected_twisted_series((1, 2), m, ((1,), (1, 1)), 10)
    details["(3,2) h+ matches t^{2m} numerator"] = good_p
    details["(3,2) h- matches t^{4m+1} numerator"] = good_m
    ok &= good_p and good_m
    # Kostka values cross-validated against the Molien sum, |pi| <= 4
    good = True
    for n in range(1, 5):
        for shape in partitions(n):
            lhs = molien_series(shape, 8)
            rhs = series_mul(
                kostka_polynomial(shape), invariants_series(n, 8), 8
            )
            good &= lhs == rhs
    details["Kostka == Molien oracle for |pi| <= 4"] = good
    ok &= good
    return ok, details


@_criterion("10. quiver identities: product formulas, psi/lift, soundness")
def criterion_10():
    from .quiver import (
        check_point,
        check_quadruple,
        lift_open_locus,
        product_formulas,
        psi,
        sample_chain,
    )

    details = {}
    ok = True
    for l in (1, 2, 3, 4):
        for N in (1, 2, 3):
            Z = tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(l))
            good = True
            for seed in range(10):
                p = sample_chain(l, N, Z, seed=100 * l + 10 * N + seed)
                good &= check_point(p)["certified"]
                pf = product_formulas(p)
                good &= pf["Lplus_matches"] and pf["Lminus_matches"]
            details[f"prodfor l={l} N={N} (10 seeds)"] = good
            ok &= good
    # psi / lift round trips on the open locus
    good = True
    for seed in (3, 4, 5):
        p = sample_chain(2, 2, (Fraction(2), Fraction(5, 3)), seed=seed)
        q = psi(p)
        if not q.X.is_invertible():
            continue
        p2 = lift_open_locus(q)
        q2 = psi(p2)
        good &= (q2.X, q2.D, q2.Y, q2.T) == (q.X, q.D, q.Y, q.T)
        good &= check_quadruple(q2)["certified"]
    details["psi/lift round trips"] = good
    ok &= good
    # perturbation soundness
    p = sample_chain(2, 2, (Fraction(2), Fraction(5, 3)), seed=8)
    rows = [list(r) for r in p.X[0].rows]
    rows[0][0] += 1
    p.X[0] = Matrix(rows)
    good = not check_point(p)["certified"]
    details["perturbed point rejected"] = good
    ok &= good
    return ok, details


@_criterion("11. Hanany-Witten transition round trips and invariants")
def criterion_11():
    from .bow import (
        BowDiagram,
        hw_diagram,
        hw_round_trip_check,
        linkage_invariants,
        sample_bow,
    )

    details = {}
    ok = True
    for dims in ((1, 1, 1), (2, 2, 2)):
        good = True
        for seed in (11, 12, 13, 14, 15):
            bow = sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), seed)
            rt = hw_round_trip_check(bow)
            good &= rt["ok"]
            new = rt["new"]
            diag = BowDiagram([0, *dims, 0], ["x", "o", "x", "x"])
            diag2 = hw_diagram(diag, 1)
            good &= linkage_invariants(diag) == linkage_invariants(diag2)
            good &= diag2.dims[2] == new.dims[1]
        details[f"dims={dims} (5 seeds)"] = good
        ok &= good
    return ok, details


@_criterion("12. Van den Bergh moment maps and fusion telescoping")
def criterion_12():
    from random import Random

    from .quiver import SingularFactor, moment_equivariance_check, telescoped_framing

    details = {}
    ok = True
    rng = Random(31)
    good = True
    for seed in range(5):
        X = Matrix.random(rng, 2, 3)
        Y = Matrix.random(rng, 3, 2)
        g = Matrix.random(rng, 3, 3)
        h = Matrix.random(rng, 2, 2)
        if not (g.is_invertible() and h.is_invertible()):
            continue
        try:
            good &= moment_equivariance_check(X, Y, g, h)
        except SingularFactor:  # 1 + XY not invertible: no moment map here
            continue
    details["moment-map equivariance (5 draws)"] = good
    ok &= good
    for ell in (2, 3, 4):
        good = True
        for seed in range(5):
            rng2 = Random(100 * ell + seed)
            pairs = [
                (Matrix.random(rng2, 2, 1), Matrix.random(rng2, 1, 2))
                for _ in range(ell)
            ]
            _, identity_holds = telescoped_framing(pairs)
            good &= identity_holds
        details[f"telescoping l={ell} (5 seeds)"] = good
        ok &= good
    return ok, details


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


def run_all(names=None):
    out = []
    for fn in ALL_CRITERIA:
        if names and not any(n in fn.criterion_name for n in names):
            continue
        out.append(fn())
    return out


def run_smoke():
    """A fast battery covering every subsystem (finishes well under a minute)."""
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
    return [_timed(name, lambda check=check: (check(), {})) for name, check in steps]
