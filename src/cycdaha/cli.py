"""Batch command-line surface.

Subcommands:

  relations verify --family F --N n [--l L] [--mode box|random] [--B r]
                   [--trials k] --seed s [--out report.json]
  relations involution --family F --N n [--l L] --seed s [--out ...]
  quasi series   --variant V --N n --m m [--l L] [--mlist a,b] [--a list]
                 [--q p/q] --maxdeg d [--out ...]
  quasi flatness --variant V --N n --m m --maxdeg d --seeds k [--out ...]
  macdonald apply   --op M1|M1l1 --N n --q p/q --t p/q --poly file.json
  macdonald commute --r1 i --r2 j --N n --l L --maxdeg d --seed s
  quiver sample --l L --N n --seed s [--out point.json]
  quiver check  --file point.json
  bow sample --dims a,b,c --seed s [--out bow.json]
  bow check  --file bow.json
  bow hw     --file bow.json [--out bow2.json]
  suite smoke | suite paper-acceptance [--out report.json]
  expr parse --text "..."    (grammar check for the operator syntax)

Exit codes: 0 all checks pass, 1 a check failed, 2 usage error,
3 internal error.  Reports are canonical JSON; reruns with the same
configuration and seed are byte-identical up to the timing field.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .exprparse import ParseError
from .scalars import parse_rational


def _canonical(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


def _emit(report, out_path):
    text = _canonical(report)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _ints_csv(text):
    return tuple(int(x) for x in text.split(",") if x.strip())


def _wrap_report(config, payload, ok):
    return {
        "engine": {"name": "cycdaha", "version": __version__},
        "config": config,
        "report": payload,
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------

def cmd_relations_verify(args):
    from .algebra import sample_rep, verify_family

    rep = sample_rep(args.family, args.N, args.l, seed=args.seed)
    mode = args.mode
    report = verify_family(
        rep, args.family, mode=mode, box_radius=args.B, trials=args.trials,
        seed=args.seed,
    )
    config = {
        "command": "relations verify",
        "family": args.family,
        "N": args.N,
        "l": args.l,
        "mode": mode,
        "B": args.B,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _wrap_report(config, report, report["all_pass"])


def cmd_relations_involution(args):
    from .algebra import sample_rep, verify_involution

    rep = sample_rep(args.family, args.N, args.l, seed=args.seed)
    report = verify_involution(rep, args.family)
    config = {
        "command": "relations involution",
        "family": args.family,
        "N": args.N,
        "l": args.l,
        "seed": args.seed,
    }
    return _wrap_report(config, report, report["all_pass"])


def cmd_quasi_series(args):
    from .quasiinv import freeness_numerator, graded_basis

    dims = graded_basis(args.spec, args.maxdeg).dims()
    numer, flag = freeness_numerator(dims, args.N)
    payload = {"dims": dims, "numerator": numer, "free_flag": not flag}
    config = {
        "command": "quasi series",
        "variant": args.variant,
        "N": args.N,
        "m": args.m,
        "maxdeg": args.maxdeg,
        "a": args.a,
        "q": args.q,
        "l": args.l,
        "mlist": args.mlist,
    }
    return _wrap_report(config, payload, True)


def cmd_quasi_flatness(args):
    from .quasiinv import flatness_report

    spec = args.spec
    report = flatness_report(spec.variant, spec.N, spec.m, args.maxdeg, args.seeds,
                             l=spec.l, mlist=spec.mlist, a=spec.a)
    config = {
        "command": "quasi flatness",
        "variant": args.variant,
        "N": args.N,
        "m": args.m,
        "maxdeg": args.maxdeg,
        "seeds": args.seeds,
    }
    return _wrap_report(config, report, report["all_match"])


def cmd_macdonald_apply(args):
    from .laurent import LaurentPoly
    from .macdonald import apply_macdonald_operator

    with open(args.poly, encoding="utf-8") as fh:
        p = LaurentPoly.from_json(json.load(fh))
    q = parse_rational(args.q)
    t = parse_rational(args.t)
    img = apply_macdonald_operator(
        args.N, q, t, p, subtract_one=(args.op == "M1l1")
    )
    config = {
        "command": "macdonald apply",
        "op": args.op,
        "N": args.N,
        "q": args.q,
        "t": args.t,
    }
    return _wrap_report(config, {"image": img.to_json()}, True)


def cmd_macdonald_commute(args):
    from .algebra import sample_rep
    from .macdonald import hamiltonian, poly_from_roots, symmetric_basis

    rep = sample_rep("cyc-daha", args.N, args.l, seed=args.seed)
    f = poly_from_roots(rep.params["Z"])
    h1 = hamiltonian(rep, args.r1, f)
    h2 = hamiltonian(rep, args.r2, f)
    ok = True
    for p in symmetric_basis(rep, args.maxdeg):
        if h1.apply(h2.apply(p)) != h2.apply(h1.apply(p)):
            ok = False
            break
    c1 = h1.certify(min(args.maxdeg, 3))
    c2 = h2.certify(min(args.maxdeg, 3))
    payload = {"commute": ok, "certified": [c1, c2]}
    config = {
        "command": "macdonald commute",
        "r1": args.r1,
        "r2": args.r2,
        "N": args.N,
        "l": args.l,
        "maxdeg": args.maxdeg,
        "seed": args.seed,
    }
    return _wrap_report(config, payload, ok and c1 and c2)


def cmd_quiver_sample(args):
    from .quiver import check_point, sample_chain

    Z = tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(args.l))
    p = sample_chain(args.l, args.N, Z, args.seed)
    rep = check_point(p)
    config = {
        "command": "quiver sample",
        "l": args.l,
        "N": args.N,
        "seed": args.seed,
    }
    payload = {"point": p.to_json(), "check": rep}
    report = _wrap_report(config, payload, rep["certified"])
    return report


def cmd_quiver_check(args):
    from .quiver import QuiverPoint, check_point, product_formulas

    with open(args.file, encoding="utf-8") as fh:
        p = QuiverPoint.from_json(json.load(fh))
    rep = check_point(p)
    payload = {"check": rep}
    if rep["certified"]:
        payload["product_formulas"] = product_formulas(p)
    config = {"command": "quiver check", "file": args.file}
    ok = rep["certified"] and all(payload.get("product_formulas", {}).values())
    return _wrap_report(config, payload, ok)


def cmd_bow_sample(args):
    from .bow import sample_bow

    dims = _ints_csv(args.dims)
    bow = sample_bow(dims, Fraction(2), Fraction(3), Fraction(5, 2), args.seed)
    config = {"command": "bow sample", "dims": list(dims), "seed": args.seed}
    return _wrap_report(config, {"bow": bow.to_json()}, True)


def cmd_bow_check(args):
    from .bow import BowData, check_bow

    with open(args.file, encoding="utf-8") as fh:
        bow = BowData.from_json(json.load(fh))
    rep = check_bow(bow)
    config = {"command": "bow check", "file": args.file}
    return _wrap_report(config, rep, rep["certified"])


def cmd_bow_hw(args):
    from .bow import BowData, hw_round_trip_check

    with open(args.file, encoding="utf-8") as fh:
        bow = BowData.from_json(json.load(fh))
    rt = hw_round_trip_check(bow)
    new = rt.pop("new", None)
    rt.pop("back", None)
    out_path = args.out
    if out_path and new is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(_canonical(new.to_json()) + "\n")
    # --out holds the transitioned bow; the report itself goes to stdout
    args.out = None
    config = {"command": "bow hw", "file": args.file, "out": out_path}
    return _wrap_report(config, rt, rt["ok"])


def cmd_expr_parse(args):
    from .exprparse import parse_expr

    expr = parse_expr(args.text)
    config = {"command": "expr parse", "text": args.text}
    return _wrap_report(config, {"parsed": repr(expr)}, True)


def cmd_expr_equal(args):
    from .algebra import sample_rep
    from .exprparse import parse_expr
    from .ops import op_equal_on_box, op_equal_randomized

    rep = sample_rep(args.family, args.N, args.l, seed=args.seed)
    lhs = parse_expr(args.lhs)
    rhs = parse_expr(args.rhs)
    if args.mode == "box":
        report = op_equal_on_box(rep, lhs, rhs, args.B)
    else:
        report = op_equal_randomized(rep, lhs, rhs, args.trials, args.seed)
    config = {
        "command": "expr equal",
        "family": args.family,
        "N": args.N,
        "l": args.l,
        "lhs": args.lhs,
        "rhs": args.rhs,
        "mode": args.mode,
        "B": args.B,
        "trials": args.trials,
        "seed": args.seed,
    }
    return _wrap_report(config, report, report["result"])


def cmd_suite(args):
    from . import acceptance

    if args.name == "smoke":
        results = acceptance.run_smoke()
    elif args.name == "paper-acceptance":
        results = acceptance.run_all()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.name)
    ok = all(r["status"] == "pass" for r in results)
    for r in results:
        print(f"[{r['status'].upper():4}] {r['name']} ({r['seconds']:.1f}s)",
              file=sys.stderr)
    config = {"command": "suite", "name": args.name}
    return _wrap_report(config, {"criteria": results}, ok)


# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="cycdaha",
        description="exact verification engine for cyclotomic DAHA computations",
    )
    sub = ap.add_subparsers(dest="group", required=True)

    rel = sub.add_parser("relations", help="relation catalogs")
    rel_sub = rel.add_subparsers(dest="cmd", required=True)
    rv = rel_sub.add_parser("verify")
    rv.add_argument("--family", required=True,
                    choices=["daha", "deg-daha", "deg-cyc", "cyc-daha", "l1", "lastrel"])
    rv.add_argument("--N", type=int, required=True)
    rv.add_argument("--l", type=int, default=0)
    rv.add_argument("--mode", choices=["box", "random"], default="box")
    rv.add_argument("--B", type=int, default=3)
    rv.add_argument("--trials", type=int, default=30)
    rv.add_argument("--seed", type=int, default=0)
    rv.add_argument("--out")
    rv.set_defaults(fn=cmd_relations_verify, check=lambda a: _check_sweep_args(rv, a))
    ri = rel_sub.add_parser("involution")
    ri.add_argument("--family", required=True, choices=["cyc-daha", "deg-cyc", "l1"])
    ri.add_argument("--N", type=int, required=True)
    ri.add_argument("--l", type=int, default=1)
    ri.add_argument("--seed", type=int, default=0)
    ri.add_argument("--out")
    ri.set_defaults(fn=cmd_relations_involution,
                    check=lambda a: _check_level(ri, a.family, a.l))

    qa = sub.add_parser("quasi", help="quasiinvariant spaces")
    qa_sub = qa.add_subparsers(dest="cmd", required=True)
    qs = qa_sub.add_parser("series")
    qs.add_argument("--variant", required=True,
                    choices=["plain-q", "cyc", "twisted", "twisted-q"])
    qs.add_argument("--N", type=int, required=True)
    qs.add_argument("--m", type=int, required=True)
    qs.add_argument("--l", type=int, default=1)
    qs.add_argument("--mlist", default="")
    qs.add_argument("--a", default="")
    qs.add_argument("--q", default="")
    qs.add_argument("--maxdeg", type=int, default=8)
    qs.add_argument("--out")
    qs.set_defaults(fn=cmd_quasi_series,
                    check=lambda a: _check_quasi(qs, a, _number(qs, "--q", a.q or "1")))
    qf = qa_sub.add_parser("flatness")
    qf.add_argument("--variant", required=True, choices=["plain-q", "cyc", "twisted-q"])
    qf.add_argument("--N", type=int, required=True)
    qf.add_argument("--m", type=int, required=True)
    qf.add_argument("--l", type=int, default=1)
    qf.add_argument("--mlist", default="")
    qf.add_argument("--a", default="")
    qf.add_argument("--maxdeg", type=int, default=8)
    qf.add_argument("--seeds", type=int, default=3)
    qf.add_argument("--out")
    qf.set_defaults(fn=cmd_quasi_flatness, check=lambda a: _check_quasi(qf, a, 1))

    mac = sub.add_parser("macdonald", help="Macdonald operators")
    mac_sub = mac.add_subparsers(dest="cmd", required=True)
    ma = mac_sub.add_parser("apply")
    ma.add_argument("--op", choices=["M1", "M1l1"], default="M1")
    ma.add_argument("--N", type=int, required=True)
    ma.add_argument("--q", required=True)
    ma.add_argument("--t", required=True)
    ma.add_argument("--poly", required=True)
    ma.add_argument("--out")
    ma.set_defaults(fn=cmd_macdonald_apply,
                    check=lambda a: (_number(ma, "--q", a.q), _number(ma, "--t", a.t)))
    mc = mac_sub.add_parser("commute")
    mc.add_argument("--r1", type=int, required=True)
    mc.add_argument("--r2", type=int, required=True)
    mc.add_argument("--N", type=int, required=True)
    mc.add_argument("--l", type=int, default=1)
    mc.add_argument("--maxdeg", type=int, default=4)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out")
    mc.set_defaults(fn=cmd_macdonald_commute,
                    check=lambda a: _check_level(mc, "cyc-daha", a.l))

    qv = sub.add_parser("quiver", help="multiplicative quiver varieties")
    qv_sub = qv.add_subparsers(dest="cmd", required=True)
    qsample = qv_sub.add_parser("sample")
    qsample.add_argument("--l", type=int, required=True)
    qsample.add_argument("--N", type=int, required=True)
    qsample.add_argument("--seed", type=int, default=0)
    qsample.add_argument("--out")
    qsample.set_defaults(fn=cmd_quiver_sample)
    qcheck = qv_sub.add_parser("check")
    qcheck.add_argument("--file", required=True)
    qcheck.add_argument("--out")
    qcheck.set_defaults(fn=cmd_quiver_check)

    bw = sub.add_parser("bow", help="bow varieties and Hanany-Witten")
    bw_sub = bw.add_subparsers(dest="cmd", required=True)
    bsample = bw_sub.add_parser("sample")
    bsample.add_argument("--dims", required=True)
    bsample.add_argument("--seed", type=int, default=0)
    bsample.add_argument("--out")
    bsample.set_defaults(fn=cmd_bow_sample)
    bcheck = bw_sub.add_parser("check")
    bcheck.add_argument("--file", required=True)
    bcheck.add_argument("--out")
    bcheck.set_defaults(fn=cmd_bow_check)
    bhw = bw_sub.add_parser("hw")
    bhw.add_argument("--file", required=True)
    bhw.add_argument("--out")
    bhw.set_defaults(fn=cmd_bow_hw)

    ex = sub.add_parser("expr", help="operator expression grammar")
    ex_sub = ex.add_subparsers(dest="cmd", required=True)
    ep = ex_sub.add_parser("parse")
    ep.add_argument("--text", required=True)
    ep.add_argument("--out")
    ep.set_defaults(fn=cmd_expr_parse)
    ee = ex_sub.add_parser("equal")
    ee.add_argument("--family", default="daha",
                    choices=["daha", "deg-daha", "deg-cyc", "cyc-daha", "l1"])
    ee.add_argument("--N", type=int, required=True)
    ee.add_argument("--l", type=int, default=0)
    ee.add_argument("--lhs", required=True)
    ee.add_argument("--rhs", required=True)
    ee.add_argument("--mode", choices=["box", "random"], default="box")
    ee.add_argument("--B", type=int, default=3)
    ee.add_argument("--trials", type=int, default=30)
    ee.add_argument("--seed", type=int, default=0)
    ee.add_argument("--out")
    ee.set_defaults(fn=cmd_expr_equal, check=lambda a: _check_sweep_args(ee, a))

    st = sub.add_parser("suite", help="named test batteries")
    st.add_argument("name", choices=["smoke", "paper-acceptance"])
    st.add_argument("--out")
    st.set_defaults(fn=cmd_suite)

    return ap


# Argument checks: each rejects a configuration that would check nothing or
# fail inside the library; ap.error exits with code 2.

def _check_level(ap, family, l):
    """The cyclotomic families need l >= 1; at l = 0 they pass vacuously."""
    if family in ("cyc-daha", "deg-cyc") and l < 1:
        ap.error(f"--l must be at least 1 for {family}, got {l}")


def _number(ap, flag, text, parse=parse_rational):
    try:
        return parse(text)
    except (ValueError, ZeroDivisionError):
        kind = "an integer" if parse is int else "a rational p/q"
        ap.error(f"{flag}: {text!r} is not {kind}")


def _check_quasi(ap, args, q):
    """quasi series / flatness: a non-empty degree range and seed count, and
    a space QuasiSpec accepts at q (stored as args.spec).  QuasiSpec names
    the offending parameter first, which is also the flag."""
    from .quasiinv import ParameterDegenerate, QuasiSpec

    if args.maxdeg < 0:
        ap.error(f"--maxdeg must be non-negative, got {args.maxdeg}")
    if getattr(args, "seeds", 1) < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")
    mlist = tuple(_number(ap, "--mlist", x, int) for x in args.mlist.split(",") if x.strip())
    a = tuple(_number(ap, "--a", x) for x in args.a.split(",") if x.strip())
    try:
        args.spec = QuasiSpec(args.variant, args.N, args.m, l=args.l, mlist=mlist, q=q, a=a)
    except (ValueError, ParameterDegenerate) as exc:
        ap.error(f"--{exc}")


def _check_sweep_args(ap, args):
    """Relation and expression checks."""
    if args.N < 1:
        ap.error(f"--N must be at least 1, got {args.N}")
    if args.l < 0:
        ap.error(f"--l must be non-negative, got {args.l}")
    _check_level(ap, args.family, args.l)
    if args.mode == "box" and args.B < 0:
        ap.error(f"--B must be non-negative in box mode, got {args.B}")
    if args.mode == "random" and args.trials < 1:
        ap.error(f"--trials must be at least 1 in random mode, got {args.trials}")


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if getattr(args, "check", None) is not None:
            args.check(args)
        report = args.fn(args)
    except SystemExit:
        raise
    except ParseError as exc:  # malformed operator expression: a usage error
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        from .acceptance import _error_text

        print(f"internal error: {_error_text(exc)}", file=sys.stderr)
        return 3
    report["seconds"] = round(time.perf_counter() - t0, 3)
    _emit(report, getattr(args, "out", None))
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
