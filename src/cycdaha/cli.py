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
  expr equal --lhs "..." --rhs "..." [--family F] --N n [--l L]
             [--mode box|random] [--B r] [--trials k] --seed s [--out ...]

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

def _flags(*declarations):
    """A parent parser declaring each (name, keywords) pair as a flag."""
    p = argparse.ArgumentParser(add_help=False)
    for name, kw in declarations:
        p.add_argument(name, **kw)
    return p


def build_parser():
    ap = argparse.ArgumentParser(
        prog="cycdaha",
        description="exact verification engine for cyclotomic DAHA computations",
    )
    sub = ap.add_subparsers(dest="group", required=True)
    # flags that several commands share, each declared once
    out = _flags(("--out", dict()))
    N = _flags(("--N", dict(type=int, required=True)))
    seed = _flags(("--seed", dict(type=int, default=0)))
    level = _flags(("--l", dict(type=int, default=1)))
    file = _flags(("--file", dict(required=True)))
    sweep = _flags(("--l", dict(type=int)),
                   ("--mode", dict(choices=["box", "random"], default="box")),
                   ("--B", dict(type=int, default=3)),
                   ("--trials", dict(type=int, default=30)))
    space = _flags(("--m", dict(type=int, required=True)), ("--mlist", dict(default="")),
                   ("--a", dict(default="")), ("--maxdeg", dict(type=int, default=8)))

    def command(group, name, parents, fn, check=None, **kw):
        """The command `name` of group, with the parents' flags and --out;
        check(parser, args) runs before fn(args)."""
        p = group.add_parser(name, parents=[*parents, out], **kw)
        p.set_defaults(fn=fn, check=check and (lambda a: check(p, a)))
        return p

    def group(name, help):
        return sub.add_parser(name, help=help).add_subparsers(dest="cmd", required=True)

    rel = group("relations", "relation catalogs")
    rv = command(rel, "verify", [N, sweep, seed], cmd_relations_verify, _check_sweep_args)
    rv.add_argument("--family", required=True,
                    choices=["daha", "deg-daha", "deg-cyc", "cyc-daha", "l1", "lastrel"])
    ri = command(rel, "involution", [N, level, seed], cmd_relations_involution,
                 lambda p, a: (_at_least_one(p, a, "N"), _check_level(p, a, a.family)))
    ri.add_argument("--family", required=True, choices=["cyc-daha", "deg-cyc", "l1"])

    qa = group("quasi", "quasiinvariant spaces")
    qs = command(qa, "series", [N, level, space], cmd_quasi_series,
                 lambda p, a: _check_quasi(p, a, _number(p, "--q", a.q or "1")))
    qs.add_argument("--variant", required=True,
                    choices=["plain-q", "cyc", "twisted", "twisted-q"])
    qs.add_argument("--q", default="")
    qf = command(qa, "flatness", [N, level, space], cmd_quasi_flatness,
                 lambda p, a: _check_quasi(p, a, 1))
    qf.add_argument("--variant", required=True, choices=["plain-q", "cyc", "twisted-q"])
    qf.add_argument("--seeds", type=int, default=3)

    mac = group("macdonald", "Macdonald operators")
    ma = command(mac, "apply", [N], lambda a: cmd_macdonald_apply(ma, a),
                 lambda p, a: (_number(p, "--q", a.q), _number(p, "--t", a.t),
                               _check_poly(p, a)))
    ma.add_argument("--op", choices=["M1", "M1l1"], default="M1")
    ma.add_argument("--q", required=True)
    ma.add_argument("--t", required=True)
    ma.add_argument("--poly", required=True)
    mc = command(mac, "commute", [N, level, seed], cmd_macdonald_commute, _check_commute)
    mc.add_argument("--r1", type=int, required=True)
    mc.add_argument("--r2", type=int, required=True)
    mc.add_argument("--maxdeg", type=int, default=4)

    qv = group("quiver", "multiplicative quiver varieties")
    qsample = command(qv, "sample", [N, seed], cmd_quiver_sample,
                      lambda p, a: _at_least_one(p, a, "l", "N"))
    qsample.add_argument("--l", type=int, required=True)
    command(qv, "check", [file], cmd_quiver_check,
            lambda p, a: _load_file(p, a, "--file", _quiver_point))

    bw = group("bow", "bow varieties and Hanany-Witten")
    bsample = command(bw, "sample", [seed], cmd_bow_sample, _check_bow_dims)
    bsample.add_argument("--dims", required=True)
    command(bw, "check", [file], cmd_bow_check,
            lambda p, a: _load_file(p, a, "--file", _bow_data))
    command(bw, "hw", [file], cmd_bow_hw, _check_hw_bow)

    ex = group("expr", "operator expression grammar")
    command(ex, "parse", [], cmd_expr_parse).add_argument("--text", required=True)
    ee = command(ex, "equal", [N, sweep, seed], cmd_expr_equal,
                 lambda p, a: (_check_sweep_args(p, a), _check_generators(p, a)))
    ee.add_argument("--family", default="daha",
                    choices=["daha", "deg-daha", "deg-cyc", "cyc-daha", "l1"])
    ee.add_argument("--lhs", required=True)
    ee.add_argument("--rhs", required=True)

    st = command(sub, "suite", [], cmd_suite, help="named test batteries")
    st.add_argument("name", choices=["smoke", "paper-acceptance"])
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
