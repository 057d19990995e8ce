import argparse
import json
import shlex
from fractions import Fraction
from pathlib import Path

import pytest

from cycdaha.cli import main
from test_bow import singular_B3_bow


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def strip_timing(report):
    report = dict(report)
    report.pop("seconds", None)
    return report


def test_relations_verify_passes(capsys):
    code, report = run_cli(
        ["relations", "verify", "--family", "daha", "--N", "2", "--seed", "1",
         "--B", "2"],
        capsys,
    )
    assert code == 0
    assert report["status"] == "pass"
    assert report["report"]["all_pass"]
    # without --l, a fixed-level family runs at its own level and says so
    code, report = run_cli(
        ["relations", "verify", "--family", "lastrel", "--N", "2", "--B", "1"], capsys
    )
    assert code == 0 and report["config"]["l"] == 1
    # at N = 1, where s_0 is the identity and s0-yN is no instance
    code, report = run_cli(
        ["relations", "verify", "--family", "deg-daha", "--N", "1", "--B", "1"], capsys
    )
    assert code == 0 and report["status"] == "pass"


def test_report_determinism(capsys, tmp_path):
    args = ["relations", "verify", "--family", "daha", "--N", "2",
            "--seed", "7", "--B", "2"]
    _, r1 = run_cli(args, capsys)
    _, r2 = run_cli(args, capsys)
    assert strip_timing(r1) == strip_timing(r2)


def test_quasi_series_counterexample(capsys):
    code, report = run_cli(
        ["quasi", "series", "--variant", "twisted", "--N", "3", "--m", "2",
         "--a", "1,0,0", "--maxdeg", "12"],
        capsys,
    )
    assert code == 0
    dims = report["report"]["dims"]
    assert dims == [0, 0, 1, 1, 2, 3, 5, 7, 10, 15, 20, 26, 33]
    assert report["report"]["free_flag"] is False  # the -1 at t^12
    assert report["report"]["numerator"][12] == -1


def test_quiver_sample_check_round_trip(capsys, tmp_path):
    out = tmp_path / "point.json"
    code, report = run_cli(
        ["quiver", "sample", "--l", "2", "--N", "2", "--seed", "3",
         "--out", str(out)],
        capsys,
    )
    assert code == 0
    # check reads the report sample wrote, as well as the bare point
    code, report = run_cli(["quiver", "check", "--file", str(out)], capsys)
    assert code == 0
    assert report["report"]["product_formulas"]["Lplus_matches"]
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(json.loads(out.read_text())["report"]["point"]))
    code, bare = run_cli(["quiver", "check", "--file", str(pfile)], capsys)
    assert code == 0 and bare["report"] == report["report"]


def test_quiver_check_evaluates_the_point_equations_once(capsys, tmp_path, monkeypatch):
    # the product formulas read the certification check_point has made
    from cycdaha import quiver

    out = tmp_path / "point.json"
    code, _ = run_cli(["quiver", "sample", "--l", "3", "--N", "3", "--seed", "3",
                       "--out", str(out)], capsys)
    assert code == 0
    calls = []
    point_equations = quiver.point_equations

    def counted(p):
        calls.append(p)
        return point_equations(p)

    monkeypatch.setattr(quiver, "point_equations", counted)
    code, report = run_cli(["quiver", "check", "--file", str(out)], capsys)
    assert code == 0 and report["report"]["check"]["certified"]
    assert report["report"]["product_formulas"] == {"Lplus_matches": True,
                                                    "Lminus_matches": True}
    assert len(calls) == 1


def test_quiver_check_failure_exit_code(capsys, tmp_path):
    code, report = run_cli(
        ["quiver", "sample", "--l", "2", "--N", "1", "--seed", "3"], capsys
    )
    point = report["report"]["point"]
    point["T"][0][0] = "99"  # break the closing relation
    pfile = tmp_path / "bad.json"
    pfile.write_text(json.dumps(point))
    code, report = run_cli(["quiver", "check", "--file", str(pfile)], capsys)
    assert code == 1
    assert report["status"] == "fail"


def test_bow_hw_cli(capsys, tmp_path):
    bfile = tmp_path / "bow.json"
    code, report = run_cli(
        ["bow", "sample", "--dims", "2,2,2", "--seed", "11", "--out", str(bfile)], capsys
    )
    assert code == 0
    # hw reads the report sample wrote, and the bare bow hw --out writes
    b2 = tmp_path / "b2.json"
    code, report = run_cli(["bow", "hw", "--file", str(bfile), "--out", str(b2)], capsys)
    assert code == 0
    assert report["report"]["ok"]
    code, report = run_cli(["bow", "check", "--file", str(b2)], capsys)
    assert code == 0
    # the transitioned bow is cross-circle, where hw cannot start: a usage error
    with pytest.raises(SystemExit) as exc:
        main(["bow", "hw", "--file", str(b2)])
    assert exc.value.code == 2
    assert "error: --file" in capsys.readouterr().err


def test_bow_hw_cli_on_an_uncertified_bow(capsys, tmp_path):
    # a user's bow that fails certification is a failed check, as bow check
    # reports it, not an internal error
    from cycdaha.bow import sample_bow

    bow = sample_bow((2, 2, 2), 2, 3, Fraction(5, 2), 11).to_json()
    bow["A"][0][0] = "7"
    bfile = tmp_path / "bow.json"
    bfile.write_text(json.dumps(bow))
    code, report = run_cli(["bow", "check", "--file", str(bfile)], capsys)
    assert code == 1 and not report["report"]["certified"]
    b2 = tmp_path / "b2.json"
    code, report = run_cli(["bow", "hw", "--file", str(bfile), "--out", str(b2)], capsys)
    assert code == 1
    assert report["status"] == "fail"
    assert report["report"]["ok"] is False
    assert report["report"]["reason"] == "input bow not certified"
    assert not report["report"]["check"]["certified"]
    assert not b2.exists()


def test_bow_hw_cli_on_a_singular_B3(capsys, tmp_path):
    # a certified bow whose B3 is singular: the transition cannot start,
    # a failed check that names B3 (exit 1), not an internal error (exit 3)
    bfile = tmp_path / "bow.json"
    bfile.write_text(json.dumps(singular_B3_bow().to_json()))
    code, report = run_cli(["bow", "check", "--file", str(bfile)], capsys)
    assert code == 0 and report["report"]["certified"]
    b2 = tmp_path / "b2.json"
    code, report = run_cli(["bow", "hw", "--file", str(bfile), "--out", str(b2)], capsys)
    assert code == 1
    assert report["report"]["reason"] == "B3 is singular: the transition needs B3^-1"
    assert report["report"]["check"]["certified"]
    assert not b2.exists()


@pytest.mark.parametrize("name", ["t", "Z", "Zp"])
def test_bow_file_with_a_zero_scalar_is_a_usage_error(capsys, tmp_path, name):
    from cycdaha.bow import sample_bow

    bfile = tmp_path / "bow.json"
    bow = sample_bow((2, 2, 2), 2, 3, Fraction(5, 2), 11).to_json()
    bfile.write_text(json.dumps({**bow, name: "0"}))
    for cmd in ("check", "hw"):
        with pytest.raises(SystemExit) as exc:
            main(["bow", cmd, "--file", str(bfile)])
        assert exc.value.code == 2
        assert f"ValueError: {name} must be nonzero" in capsys.readouterr().err


def test_expr_parse_cli(capsys):
    code, report = run_cli(
        ["expr", "parse", "--text", "(3/2)*[T1 T2] + [X1]"], capsys
    )
    assert code == 0


def test_expr_equal_cli(capsys):
    code, report = run_cli(
        ["expr", "equal", "--family", "daha", "--N", "2",
         "--lhs", "T1 X1 T1", "--rhs", "X2", "--mode", "box", "--B", "2"],
        capsys,
    )
    assert code == 0 and report["report"]["result"] is True
    code, report = run_cli(
        ["expr", "equal", "--family", "daha", "--N", "2",
         "--lhs", "X1 Y2", "--rhs", "Y2 X1", "--mode", "box", "--B", "2"],
        capsys,
    )
    assert code == 1
    assert report["report"]["witness"]["monomial"] is not None
    # the verdict rests on what was typed: a '-' before a number is the
    # operator, and a '*' with no word after it is a usage error
    code, report = run_cli(["expr", "equal", "--N", "2", "--lhs", "[X1]-2*[X2]",
                            "--rhs", "[X1] - 2*[X2]"], capsys)
    assert code == 0 and report["report"]["result"] is True
    assert main(["expr", "equal", "--N", "2", "--lhs", "2*-X1", "--rhs=-2*X1"]) == 2
    assert "usage error: " in capsys.readouterr().err


def test_a_zero_denominator_is_a_usage_error(capsys):
    """A scalar with denominator 0 is the user's mistake: exit 2 with a
    usage error, not an internal error (exit 3)."""
    assert main(["expr", "parse", "--text", "1/0 + X1"]) == 2
    assert "usage error: zero denominator in '1/0'" in capsys.readouterr().err
    assert main(["expr", "equal", "--N", "2", "--lhs", "(3/0)*X1", "--rhs", "X1"]) == 2
    assert "usage error: zero denominator in '(3/0)'" in capsys.readouterr().err


def test_quasi_series_cyclotomic_cli(capsys):
    code, report = run_cli(
        ["quasi", "series", "--variant", "cyc", "--N", "2", "--m", "1",
         "--l", "2", "--mlist", "1", "--q", "7/5", "--maxdeg", "6"],
        capsys,
    )
    assert code == 0
    # degree 6 contains the three symmetric even types plus (x1^2 - x2^2)^3
    assert report["report"]["dims"] == [1, 0, 1, 0, 2, 2, 4]


def test_usage_error_exit_code_two(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["relations", "verify", "--badflag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["suite", "unknown-suite"])
    assert exc.value.code == 2
    # a malformed operator expression is the user's mistake, not an internal error
    assert main(["expr", "parse", "--text", "[T1"]) == 2
    assert main(["expr", "equal", "--N", "2", "--lhs", "[X1", "--rhs", "X1"]) == 2
    # configurations that would check nothing, or silently use l=0
    for bad in (["--N", "0"], ["--N", "2", "--B", "-1"], ["--N", "2", "--l", "-1"],
                ["--N", "2", "--mode", "random", "--trials", "0"]):
        for cmd in (["relations", "verify", "--family", "daha"],
                    ["expr", "equal", "--lhs", "X1", "--rhs", "X1"]):
            with pytest.raises(SystemExit) as exc:
                main(cmd + bad)
            assert exc.value.code == 2, cmd + bad
    # the cyclotomic families need --l of at least 1 (at l = 0 they pass
    # vacuously)
    for cmd in (["relations", "verify", "--family", "cyc-daha", "--N", "2", "--B", "1"],
                ["relations", "verify", "--family", "deg-cyc", "--N", "2"],
                ["relations", "involution", "--family", "cyc-daha", "--N", "2", "--l", "0"],
                ["relations", "involution", "--family", "deg-cyc", "--N", "2", "--l", "0"],
                ["expr", "equal", "--family", "cyc-daha", "--N", "2", "--lhs", "X1",
                 "--rhs", "X1"],
                ["expr", "equal", "--family", "deg-cyc", "--N", "2", "--lhs", "X1",
                 "--rhs", "X1"],
                ["macdonald", "commute", "--r1", "1", "--r2", "2", "--N", "2", "--l", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
    # the twisted variants take exactly N weights
    for cmd in (["quasi", "series", "--variant", "twisted", "--N", "2", "--m", "1",
                 "--a", "1"],
                ["quasi", "series", "--variant", "twisted", "--N", "2", "--m", "1",
                 "--a", "1,0,0"],
                ["quasi", "series", "--variant", "twisted-q", "--N", "2", "--m", "1",
                 "--a", "1/2"],
                ["quasi", "flatness", "--variant", "twisted-q", "--N", "2", "--m", "1",
                 "--a", "1/2,0,0"]):
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
    # malformed numbers, empty sweeps and spaces QuasiSpec rejects; the
    # message names the flag
    series = ["quasi", "series", "--N", "2", "--m", "1"]
    flatness = ["quasi", "flatness", "--N", "2", "--m", "1"]
    apply = ["macdonald", "apply", "--N", "2", "--poly", "p.json"]
    commute = ["macdonald", "commute", "--N", "2"]
    for flag, cmd in (
        ("--a", series + ["--variant", "twisted", "--a", "x,0"]),
        ("--a", flatness + ["--variant", "twisted-q", "--a", "1/0,0"]),
        ("--q", series + ["--variant", "plain-q", "--q", "1/0"]),
        ("--q", series + ["--variant", "cyc", "--l", "2", "--q", "x"]),
        ("--q", series + ["--variant", "plain-q", "--q", "0"]),
        ("--q", series + ["--variant", "cyc", "--l", "2", "--q", "-1"]),
        ("--q", series + ["--variant", "twisted", "--a", "1,0", "--q", "2"]),
        ("--q", apply + ["--q", "1/0", "--t", "1"]),
        ("--t", apply + ["--q", "1", "--t", "t"]),
        ("--maxdeg", series + ["--variant", "plain-q", "--maxdeg", "-1"]),
        ("--maxdeg", flatness + ["--variant", "plain-q", "--maxdeg", "-1"]),
        ("--seeds", flatness + ["--variant", "plain-q", "--seeds", "0"]),
        ("--m", series + ["--variant", "plain-q", "--m", "-1"]),
        ("--N", ["quasi", "series", "--variant", "plain-q", "--N", "0", "--m", "1"]),
        ("--l", series + ["--variant", "cyc", "--l", "0", "--maxdeg", "4"]),
        ("--l", flatness + ["--variant", "cyc", "--l", "0", "--maxdeg", "4"]),
        ("--l", series + ["--variant", "plain-q", "--l", "2"]),
        ("--a", series + ["--variant", "plain-q", "--a", "1,0"]),
        ("--mlist", series + ["--variant", "cyc", "--l", "2", "--mlist", "1,5,7"]),
        ("--mlist", flatness + ["--variant", "cyc", "--l", "2", "--mlist", "1,5"]),
        ("--dims", ["bow", "sample", "--dims", "x,2"]),
        ("--dims", ["bow", "sample", "--dims", "1,1"]),
        ("--dims", ["bow", "sample", "--dims", "1,2,3"]),
        ("--dims", ["bow", "sample", "--dims", "0,1,1"]),
        ("--l", ["quiver", "sample", "--l", "0", "--N", "2"]),
        ("--N", ["quiver", "sample", "--l", "2", "--N", "0"]),
        ("--r1", commute + ["--r1", "0", "--r2", "1"]),
        ("--r2", commute + ["--r1", "1", "--r2", "3"]),
        ("--maxdeg", commute + ["--r1", "1", "--r2", "2", "--maxdeg", "-1"]),
        ("--N", ["relations", "involution", "--family", "l1", "--N", "0"]),
        # --l other than the level of a fixed-level family
        ("--l", ["relations", "involution", "--family", "l1", "--N", "2", "--l", "2"]),
        ("--l", ["relations", "verify", "--family", "lastrel", "--N", "2", "--l", "3",
                 "--B", "0"]),
        ("--l", ["relations", "verify", "--family", "daha", "--N", "2", "--l", "2"]),
        ("--l", ["relations", "verify", "--family", "deg-daha", "--N", "2", "--l", "1"]),
        ("--l", ["expr", "equal", "--family", "daha", "--N", "2", "--l", "2",
                 "--lhs", "X1", "--rhs", "X1"]),
        ("--l", ["expr", "equal", "--family", "l1", "--N", "2", "--l", "0",
                 "--lhs", "X1", "--rhs", "X1"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
        assert f"error: {flag}" in capsys.readouterr().err, cmd
    # a generator the family lacks, or an index past N, names flag and token
    for family, token in (("deg-daha", "T1"), ("daha", "X5"), ("daha", "s2"),
                          ("daha", "T2^-1"), ("daha", "DO1"), ("cyc-daha", "y1"),
                          ("deg-daha", "tau1"), ("deg-cyc", "tau2")):
        level = ["--l", "1"] if family in ("cyc-daha", "deg-cyc") else []
        cmd = ["expr", "equal", "--family", family, "--N", "2", *level,
               "--lhs", "X1", "--rhs", f"[X1 {token}]"]
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
        assert f"error: --rhs: {token} " in capsys.readouterr().err, cmd
    assert main(["expr", "equal", "--N", "2", "--lhs", "X0", "--rhs", "X1"]) == 2
    assert "'X0'" in capsys.readouterr().err
    assert capsys.readouterr().out == ""
    # input files: missing, not JSON, not the expected object, or (for
    # --poly) a polynomial of another rank than --N
    from cycdaha.laurent import LaurentPoly

    missing = str(tmp_path / "missing.json")
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"N": 2}))
    rank2 = tmp_path / "rank2.json"
    rank2.write_text(json.dumps(LaurentPoly.variable(2, 1).to_json()))
    apply3 = ["macdonald", "apply", "--N", "3", "--q", "2", "--t", "3", "--poly"]
    cases = [("--poly", apply3 + [str(rank2)])]
    # every exponent is exactly N ints
    for k, e in enumerate(([1, 0, 0], [1], [1.5, 0])):
        bad = tmp_path / f"exponent{k}.json"
        bad.write_text(json.dumps({"N": 2, "terms": [{"e": e, "c": "1"}]}))
        cases.append(("--poly", ["macdonald", "apply", "--N", "2", "--q", "2", "--t", "3",
                                 "--poly", str(bad)]))
    # inputs the operator cannot map into the Laurent ring: a polynomial whose
    # image keeps a pole on X1 = X2, and q = 0 on a negative exponent
    outside = tmp_path / "outside.json"
    outside.write_text(json.dumps({"N": 2, "terms": [
        {"e": [2, 0], "c": "3/2"}, {"e": [1, 1], "c": "-1"}, {"e": [0, 1], "c": "1"}]}))
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"N": 2, "terms": [{"e": [-1, 0], "c": "1"}]}))
    apply2 = ["macdonald", "apply", "--N", "2", "--t", "9/4", "--poly"]
    cases += [("--poly", ["macdonald", "apply", "--op", "M1", "--N", "2", "--q", "7/5",
                          "--t", "9/4", "--poly", str(outside)]),
              ("--q", apply2 + [str(negative), "--q", "0"]),
              ("--q", apply2 + [str(negative), "--q", "0", "--op", "M1l1"])]
    # matrices whose shapes disagree with the declared dims, or with N; a
    # quiver point at t = 0
    from cycdaha.bow import sample_bow
    from cycdaha.quiver import sample_chain

    bow = sample_bow((2, 2, 2), 2, 3, Fraction(5, 2), 11).to_json()
    point = sample_chain(2, 2, (2, Fraction(5, 3)), 3).to_json()
    malformed = []
    for k, (data, key, value) in enumerate((
        (bow, "dims", [2, 3, 2]),
        (bow, "A", bow["A"][:-1]),
        (point, "X", [point["X"][0][:-1], point["X"][1]]),
        (point, "N", 3),
        (point, "t", "0"),
    )):
        path = tmp_path / f"malformed{k}.json"
        path.write_text(json.dumps({**data, key: value}))
        malformed.append(str(path))
    for path in (missing, str(garbled), str(wrong), *malformed):
        cases += [("--poly", apply3 + [path]),
                  ("--file", ["quiver", "check", "--file", path]),
                  ("--file", ["bow", "check", "--file", path]),
                  ("--file", ["bow", "hw", "--file", path])]
    for flag, cmd in cases:
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
        assert f"error: {flag}: " in capsys.readouterr().err, cmd


def _leaf_parsers(parser, path=()):
    """(argv prefix, subparser) for every command of the parser."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield list(path), parser
    for action in subs:
        for name, sub in action.choices.items():
            yield from _leaf_parsers(sub, (*path, name))


def test_family_choices_follow_the_family_table():
    # the parser lists the families literally (importing algebra at parse
    # time would slow every command), so they must match algebra.FAMILIES
    from cycdaha.algebra import FAMILIES
    from cycdaha.cli import build_parser

    leaves = {" ".join(path): sub for path, sub in _leaf_parsers(build_parser())}

    def choices(command):
        (action,) = [a for a in leaves[command]._actions if a.dest == "family"]
        return list(action.choices)

    assert choices("relations verify") == list(FAMILIES)
    assert sorted(choices("relations involution")) == sorted(
        name for name, family in FAMILIES.items() if family.phi)


def test_shared_flags_are_declared_once():
    # a flag that several commands declare alike (option strings, type,
    # default, required-ness and choices) is one argparse action, declared
    # once in a parent parser
    from cycdaha.cli import build_parser

    declared = {}
    for path, sub in _leaf_parsers(build_parser()):
        for a in sub._actions:
            if a.option_strings and not isinstance(a, argparse._HelpAction):
                key = (tuple(a.option_strings), a.type, a.default, a.required,
                       None if a.choices is None else tuple(a.choices))
                declared.setdefault(key, {})[id(a)] = " ".join(path)
    repeated = {key[0]: sorted(cmds.values()) for key, cmds in declared.items()
                if len(cmds) > 1}
    assert not repeated, repeated


def test_config_echoes_every_flag_but_out(capsys, monkeypatch):
    # config is derived from the parser: command plus every flag but --out,
    # so a new flag cannot be left out of it
    from cycdaha import cli

    ap = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: ap)
    for path, sub in _leaf_parsers(ap):
        sub.set_defaults(fn=lambda args: ({}, True), check=None)
        argv = list(path)
        for action in sub._actions:
            value = "1" if action.choices is None else next(iter(action.choices))
            if not action.option_strings:
                argv.append(value)
            elif action.required:
                argv += [action.option_strings[0], value]
        code, report = run_cli(argv, capsys)
        assert code == 0, argv
        dests = {a.dest for a in sub._actions if a.dest != "help"}
        assert set(report["config"]) == {"command"} | dests - {"out"}, argv
        assert report["config"]["command"] == " ".join(path)


def test_readme_cli_examples(capsys, tmp_path, monkeypatch):
    # every command in the README's "CLI examples" block, in order (later
    # ones read the files earlier ones write), exits 0
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI examples", 1)[1].split("```", 2)[1]
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert len(commands) == 12 and all(c[0] == "cycdaha" for c in commands)
    monkeypatch.chdir(tmp_path)
    for cmd in commands:
        assert main(cmd[1:]) == 0, " ".join(cmd)
        capsys.readouterr()


def test_internal_error_exit_code_three(capsys, monkeypatch):
    def broken_check(point):
        raise RuntimeError("broken check")

    # a fault inside the library, not a user mistake
    monkeypatch.setattr("cycdaha.quiver.check_point", broken_check)
    code = main(["quiver", "sample", "--l", "2", "--N", "1"])
    assert code == 3
    # the message names the exception type and where it was raised
    assert "internal error: RuntimeError at test_cli.py:" in capsys.readouterr().err


def test_macdonald_apply_cli(capsys, tmp_path):
    from cycdaha.laurent import LaurentPoly

    p = LaurentPoly.variable(2, 1) + LaurentPoly.variable(2, 2)
    pfile = tmp_path / "poly.json"
    pfile.write_text(json.dumps(p.to_json()))
    code, report = run_cli(
        ["macdonald", "apply", "--op", "M1", "--N", "2", "--q", "7/5",
         "--t", "9/4", "--poly", str(pfile)],
        capsys,
    )
    assert code == 0
    img = LaurentPoly.from_json(report["report"]["image"])
    assert img.is_symmetric()
    # the input file is echoed; the polynomial read from it is not
    assert report["config"] == {"command": "macdonald apply", "op": "M1", "N": 2,
                                "q": "7/5", "t": "9/4", "poly": str(pfile)}


def test_macdonald_commute_cli(capsys):
    code, report = run_cli(
        ["macdonald", "commute", "--r1", "1", "--r2", "2", "--N", "2",
         "--l", "1", "--maxdeg", "3", "--seed", "1"],
        capsys,
    )
    assert code == 0
    assert report["report"]["commute"]


def test_smoke_suite(capsys):
    code, report = run_cli(["suite", "smoke"], capsys)
    assert code == 0
    assert all(c["status"] == "pass" for c in report["report"]["criteria"])
