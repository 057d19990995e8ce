import json

import pytest

from cycdaha.cli import main


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
    point = json.loads(out.read_text())["report"]["point"]
    pfile = tmp_path / "p.json"
    pfile.write_text(json.dumps(point))
    code, report = run_cli(["quiver", "check", "--file", str(pfile)], capsys)
    assert code == 0
    assert report["report"]["product_formulas"]["Lplus_matches"]


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
    code, report = run_cli(
        ["bow", "sample", "--dims", "2,2,2", "--seed", "11"], capsys
    )
    assert code == 0
    bfile = tmp_path / "bow.json"
    bfile.write_text(json.dumps(report["report"]["bow"]))
    code, report = run_cli(
        ["bow", "hw", "--file", str(bfile), "--out", str(tmp_path / "b2.json")],
        capsys,
    )
    assert code == 0
    assert report["report"]["ok"]


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


def test_quasi_series_cyclotomic_cli(capsys):
    code, report = run_cli(
        ["quasi", "series", "--variant", "cyc", "--N", "2", "--m", "1",
         "--l", "2", "--mlist", "1", "--q", "7/5", "--maxdeg", "6"],
        capsys,
    )
    assert code == 0
    # degree 6 contains the three symmetric even types plus (x1^2 - x2^2)^3
    assert report["report"]["dims"] == [1, 0, 1, 0, 2, 2, 4]


def test_usage_error_exit_code_two(capsys):
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
    # the cyclotomic families at the default --l 0 would pass vacuously
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
    ):
        with pytest.raises(SystemExit) as exc:
            main(cmd)
        assert exc.value.code == 2, cmd
        assert f"error: {flag}" in capsys.readouterr().err, cmd
    assert capsys.readouterr().out == ""


def test_internal_error_exit_code_three(capsys):
    code = main(["quiver", "check", "--file", "/nonexistent/file.json"])
    assert code == 3
    # the message names the exception type and where it was raised
    assert "internal error: FileNotFoundError at cli.py:" in capsys.readouterr().err


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
