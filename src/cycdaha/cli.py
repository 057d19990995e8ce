"""Batch command-line surface.

Subcommands:

  relations verify --family F --N n [--l L] [--mode box|random] [--B r]
                   [--trials k] --seed s [--out report.json]
  relations involution --family F --N n [--l L] --seed s [--out ...]
  quasi series   --variant V --N n --m m [--l L] [--mlist a,b] [--a list]
                 [--q p/q] --maxdeg d [--out ...]
  quasi flatness --variant V --N n --m m [--l L] [--mlist a,b] [--a list]
                 --maxdeg d --seeds k [--out ...]
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
3 internal error.  Reports are canonical JSON whose config echoes every
flag but --out; reruns with the same configuration and seed are
byte-identical up to the timing field.
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


def _wrap_report(args, flags, payload, ok):
    """The report of one command.  Its config is the command name and every
    parsed flag in `flags` (all but --out), with the values the argument
    checks left in args."""
    command = " ".join(getattr(args, k) for k in ("group", "cmd") if hasattr(args, k))
    return {
        "engine": {"name": "cycdaha", "version": __version__},
        "config": {"command": command, **{k: getattr(args, k) for k in flags}},
        "report": payload,
        "status": "pass" if ok else "fail",
    }


# ---------------------------------------------------------------------------

def cmd_relations_verify(args):
    from .algebra import sample_rep, verify_family

    rep = sample_rep(args.family, args.N, args.l, seed=args.seed)
    report = verify_family(
        rep, args.family, mode=args.mode, box_radius=args.B, trials=args.trials,
        seed=args.seed,
    )
    return report, report["all_pass"]


def cmd_relations_involution(args):
    from .algebra import sample_rep, verify_involution

    rep = sample_rep(args.family, args.N, args.l, seed=args.seed)
    report = verify_involution(rep, args.family)
    return report, report["all_pass"]


def cmd_quasi_series(args):
    from .quasiinv import freeness_numerator, graded_basis

    dims = graded_basis(args.spec, args.maxdeg).dims()
    numer, flag = freeness_numerator(dims, args.N)
    return {"dims": dims, "numerator": numer, "free_flag": not flag}, True


def cmd_quasi_flatness(args):
    from .quasiinv import flatness_report

    report = flatness_report(args.spec, args.maxdeg, args.seeds)
    return report, report["all_match"]


def cmd_macdonald_apply(ap, args):
    """The operator's image of --poly; an input it cannot map into the
    Laurent ring is a usage error naming the flag at fault."""
    from .laurent import NonInvertibleScale, NotDivisible
    from .macdonald import apply_macdonald_operator

    q = parse_rational(args.q)
    t = parse_rational(args.t)
    try:
        img = apply_macdonald_operator(
            args.N, q, t, args.data, subtract_one=(args.op == "M1l1")
        )
    except NotDivisible:
        ap.error(f"--poly: {args.op} does not map this polynomial to a Laurent "
                 f"polynomial at q = {args.q}, t = {args.t}")
    except NonInvertibleScale:
        ap.error("--q: q = 0 cannot shift a negative power of a variable")
    return {"image": img.to_json()}, True


def cmd_macdonald_commute(args):
    from .algebra import sample_rep
    from .macdonald import hamiltonian, poly_from_roots, symmetric_basis

    rep = sample_rep("cyc-daha", args.N, args.l, seed=args.seed)
    f = poly_from_roots(rep.params["Z"])
    h1 = hamiltonian(rep, args.r1, f)
    h2 = hamiltonian(rep, args.r2, f)
    commute = all(h1.apply(h2.apply(p)) == h2.apply(h1.apply(p))
                  for p in symmetric_basis(rep, args.maxdeg))
    certified = [h.certify(min(args.maxdeg, 3)) for h in (h1, h2)]
    return {"commute": commute, "certified": certified}, commute and all(certified)


def cmd_quiver_sample(args):
    from .quiver import check_point, sample_chain

    Z = tuple(Fraction(2 + i, 1 + ((3 * i) % 5)) for i in range(args.l))
    p = sample_chain(args.l, args.N, Z, args.seed)
    rep = check_point(p)
    return {"point": p.to_json(), "check": rep}, rep["certified"]


def cmd_quiver_check(args):
    from .quiver import check_point, product_formulas

    p = args.data
    rep = check_point(p)
    payload = {"check": rep}
    if rep["certified"]:
        payload["product_formulas"] = product_formulas(p, rep)
    return payload, rep["certified"] and all(payload.get("product_formulas", {}).values())


def cmd_bow_sample(args):
    from .bow import sample_bow

    bow = sample_bow(args.dims, Fraction(2), Fraction(3), Fraction(5, 2), args.seed)
    return {"bow": bow.to_json()}, True


def cmd_bow_check(args):
    from .bow import check_bow

    rep = check_bow(args.data)
    return rep, rep["certified"]


def cmd_bow_hw(args):
    """The round trip of --file; an input that fails certification is a
    failed check (exit 1), reported as bow check reports it."""
    from .bow import check_bow, hw_round_trip_check
    from .quiver import UncertifiedInput

    # --out holds the transitioned bow; the report itself goes to stdout
    out, args.out = args.out, None
    try:
        rt = hw_round_trip_check(args.data)
    except UncertifiedInput as exc:
        return {"ok": False, "reason": str(exc), "check": check_bow(args.data)}, False
    new = rt.pop("new", None)
    rt.pop("back", None)
    if out and new is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(_canonical(new.to_json()) + "\n")
    return rt, rt["ok"]


def cmd_expr_parse(args):
    from .exprparse import parse_expr

    return {"parsed": repr(parse_expr(args.text))}, True


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
    return report, report["result"]


def cmd_suite(args):
    from . import acceptance

    if args.name == "smoke":
        results = acceptance.run_smoke()
    elif args.name == "paper-acceptance":
        results = acceptance.run_all()
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.name)
    for r in results:
        print(f"[{r['status'].upper():4}] {r['name']} ({r['seconds']:.1f}s)",
              file=sys.stderr)
    return {"criteria": results}, all(r["status"] == "pass" for r in results)


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
    rv.add_argument("--l", type=int)
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
                    check=lambda a: (_at_least_one(ri, a, "N"), _check_level(ri, a, a.family)))

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
    ma.set_defaults(fn=lambda a: cmd_macdonald_apply(ma, a),
                    check=lambda a: (_number(ma, "--q", a.q), _number(ma, "--t", a.t),
                                     _check_poly(ma, a)))
    mc = mac_sub.add_parser("commute")
    mc.add_argument("--r1", type=int, required=True)
    mc.add_argument("--r2", type=int, required=True)
    mc.add_argument("--N", type=int, required=True)
    mc.add_argument("--l", type=int, default=1)
    mc.add_argument("--maxdeg", type=int, default=4)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out")
    mc.set_defaults(fn=cmd_macdonald_commute, check=lambda a: _check_commute(mc, a))

    qv = sub.add_parser("quiver", help="multiplicative quiver varieties")
    qv_sub = qv.add_subparsers(dest="cmd", required=True)
    qsample = qv_sub.add_parser("sample")
    qsample.add_argument("--l", type=int, required=True)
    qsample.add_argument("--N", type=int, required=True)
    qsample.add_argument("--seed", type=int, default=0)
    qsample.add_argument("--out")
    qsample.set_defaults(fn=cmd_quiver_sample, check=lambda a: _at_least_one(qsample, a, "l", "N"))
    qcheck = qv_sub.add_parser("check")
    qcheck.add_argument("--file", required=True)
    qcheck.add_argument("--out")
    qcheck.set_defaults(fn=cmd_quiver_check,
                        check=lambda a: _load_file(qcheck, a, "--file", _quiver_point))

    bw = sub.add_parser("bow", help="bow varieties and Hanany-Witten")
    bw_sub = bw.add_subparsers(dest="cmd", required=True)
    bsample = bw_sub.add_parser("sample")
    bsample.add_argument("--dims", required=True)
    bsample.add_argument("--seed", type=int, default=0)
    bsample.add_argument("--out")
    bsample.set_defaults(fn=cmd_bow_sample, check=lambda a: _check_bow_dims(bsample, a))
    bcheck = bw_sub.add_parser("check")
    bcheck.add_argument("--file", required=True)
    bcheck.add_argument("--out")
    bcheck.set_defaults(fn=cmd_bow_check,
                        check=lambda a: _load_file(bcheck, a, "--file", _bow_data))
    bhw = bw_sub.add_parser("hw")
    bhw.add_argument("--file", required=True)
    bhw.add_argument("--out")
    bhw.set_defaults(fn=cmd_bow_hw, check=lambda a: _check_hw_bow(bhw, a))

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
    ee.add_argument("--l", type=int)
    ee.add_argument("--lhs", required=True)
    ee.add_argument("--rhs", required=True)
    ee.add_argument("--mode", choices=["box", "random"], default="box")
    ee.add_argument("--B", type=int, default=3)
    ee.add_argument("--trials", type=int, default=30)
    ee.add_argument("--seed", type=int, default=0)
    ee.add_argument("--out")
    ee.set_defaults(fn=cmd_expr_equal,
                    check=lambda a: (_check_sweep_args(ee, a), _check_generators(ee, a)))

    st = sub.add_parser("suite", help="named test batteries")
    st.add_argument("name", choices=["smoke", "paper-acceptance"])
    st.add_argument("--out")
    st.set_defaults(fn=cmd_suite)

    return ap


# Argument checks: each rejects a configuration that would check nothing or
# fail inside the library; ap.error exits with code 2.

def _at_least_one(ap, args, *names):
    for name in names:
        if getattr(args, name) < 1:
            ap.error(f"--{name} must be at least 1, got {getattr(args, name)}")


def _check_level(ap, args, family):
    """--l of a family: a fixed-level family takes no other level, and
    args.l becomes that level when --l is not given.  The cyclotomic
    families need l >= 1; at l = 0 they pass vacuously."""
    from .algebra import FAMILIES

    fixed = FAMILIES[family].level
    if fixed is None:
        if args.l is None:
            ap.error(f"--l must be given for {family} (at least 1)")
        if args.l < 1:
            ap.error(f"--l must be at least 1 for {family}, got {args.l}")
    elif args.l is None:
        args.l = fixed
    elif args.l != fixed:
        ap.error(f"--l: {family} has level {fixed}, got {args.l}")


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
    _at_least_one(ap, args, "N")
    _check_level(ap, args, args.family)
    if args.mode == "box" and args.B < 0:
        ap.error(f"--B must be non-negative in box mode, got {args.B}")
    if args.mode == "random" and args.trials < 1:
        ap.error(f"--trials must be at least 1 in random mode, got {args.trials}")


def _check_generators(ap, args):
    """expr equal: every generator token names a tag of the family's table,
    with an index the rank allows (ops.index_ok).  A malformed expression
    raises ParseError (exit 2)."""
    from .algebra import rep_family_for
    from .exprparse import generator_tokens, parse_gen
    from .ops import GENERATORS, index_ok

    table = GENERATORS[rep_family_for(args.family)]
    for flag, text in (("--lhs", args.lhs), ("--rhs", args.rhs)):
        for token in generator_tokens(text):
            g = parse_gen(token)
            if g.tag not in table:
                ap.error(f"{flag}: {token} is not a generator of {args.family}")
            if not index_ok(g, args.N):
                ap.error(f"{flag}: {token} has an index out of range at N = {args.N}")


def _check_commute(ap, args):
    _at_least_one(ap, args, "N")
    if args.maxdeg < 0:
        ap.error(f"--maxdeg must be non-negative, got {args.maxdeg}")
    _check_level(ap, args, "cyc-daha")
    for name in ("r1", "r2"):
        r = getattr(args, name)
        if not 1 <= r <= args.N:
            ap.error(f"--{name} must lie in 1..{args.N}, got {r}")


def _load_file(ap, args, flag, from_json):
    """Read the JSON input file a flag names into args.data; a file that is
    missing, unreadable or not what from_json expects is a usage error."""
    path = getattr(args, flag.lstrip("-"))
    try:
        with open(path, encoding="utf-8") as fh:
            args.data = from_json(json.load(fh))
    except OSError as exc:
        ap.error(f"{flag}: cannot read {path!r}: {exc.strerror}")
    except (ValueError, KeyError, TypeError) as exc:
        ap.error(f"{flag}: {path!r} is not a valid input file: {type(exc).__name__}: {exc}")


def _quiver_point(data):
    """A quiver point: the bare object, or the report `quiver sample --out`
    writes."""
    from .quiver import QuiverPoint

    return QuiverPoint.from_json(data["report"]["point"] if "report" in data else data)


def _bow_data(data):
    """A bow: the bare object (as `bow hw --out` writes it), or the report
    `bow sample --out` writes."""
    from .bow import BowData

    return BowData.from_json(data["report"]["bow"] if "report" in data else data)


def _check_hw_bow(ap, args):
    """bow hw: --file holds a bow in the circle-cross orientation, where the
    transition starts (bow check takes both orientations)."""
    from .bow import CIRCLE_CROSS

    _load_file(ap, args, "--file", _bow_data)
    if args.data.orientation != CIRCLE_CROSS:
        ap.error(f"--file: bow hw starts from a {CIRCLE_CROSS} bow, "
                 f"got a {args.data.orientation} one")


def _check_poly(ap, args):
    """macdonald apply: --poly holds a Laurent polynomial in --N variables."""
    from .laurent import LaurentPoly

    _load_file(ap, args, "--poly", LaurentPoly.from_json)
    if args.data.N != args.N:
        ap.error(f"--poly: the polynomial has N = {args.data.N}, but --N is {args.N}")


def _check_bow_dims(ap, args):
    """bow sample: three positive dimensions d1,d2,d3 with d2 == d3 (stored
    as a tuple in args.dims)."""
    dims = tuple(_number(ap, "--dims", x, int) for x in args.dims.split(",") if x.strip())
    if len(dims) != 3:
        ap.error(f"--dims takes three dimensions d1,d2,d3, got {args.dims!r}")
    if min(dims) < 1:
        ap.error(f"--dims must be positive, got {args.dims!r}")
    if dims[1] != dims[2]:
        ap.error(f"--dims needs d2 == d3 (a square A), got {args.dims!r}")
    args.dims = dims


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    # the flags as parsed: not the dispatch attributes, nor what the checks
    # attach to args (args.data, args.spec)
    flags = [k for k in vars(args) if k not in ("group", "cmd", "fn", "check", "out")]
    t0 = time.perf_counter()
    try:
        if getattr(args, "check", None) is not None:
            args.check(args)
        payload, ok = args.fn(args)
    except SystemExit:
        raise
    except ParseError as exc:  # malformed operator expression: a usage error
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal error
        from .acceptance import _error_text

        print(f"internal error: {_error_text(exc)}", file=sys.stderr)
        return 3
    report = _wrap_report(args, flags, payload, ok)
    report["seconds"] = round(time.perf_counter() - t0, 3)
    _emit(report, getattr(args, "out", None))
    return 0 if report["status"] == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
