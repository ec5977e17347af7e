import ast
import dataclasses
import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rigorkit
from rigorkit import cli, errors
from rigorkit import expr as ex
from rigorkit import interval as iv
from rigorkit import lp as lpmod
from rigorkit.errors import NoProgress, ParseError
from rigorkit.interval import Interval

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"


def run(argv, capsys):
    code = cli.dispatch(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def strip_wall_time(text: str) -> str:
    return re.sub(r"wall_time_s: [^\n]*\n", "", text)


def test_prove_six_squares_exits_zero(capsys):
    code, out, _ = run(["prove", "--task", str(PROBLEMS / "six_squares.ineq")], capsys)
    assert code == 0
    header, body = cli.parse_report(out)
    assert header["subcommand"] == "prove"
    assert ("status", "proven") in body


def test_prove_body_counts_cells_by_certifying_bound(capsys):
    code, out, _ = run(["prove", "--task", str(PROBLEMS / "six_squares.ineq")], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    assert ("cells_processed", "1") in body
    assert ("cells_certified_by_germ", "1") in body
    assert ("cells_certified_by_taylor", "0") in body


def test_sqrt_of_a_negative_constant_is_not_proven(tmp_path, capsys):
    # The sqrt argument is exactly -1e-22, so f is defined nowhere; its
    # enclosure straddles zero, and a clamped sqrt once made it proven.
    task = tmp_path / "neg.ineq"
    task.write_text("arity 1\nexpr sqrt(0.1 - 0.1000000000000000000001) + x0 - 2\n"
                    "domain x0 0..1\n")
    code, out, _ = run(["prove", "--task", str(task), "--max-cells", "50"], capsys)
    assert code == 1
    _, body = cli.parse_report(out)
    assert ("status", "evaluation_failure") in body


def test_failure_that_depends_on_no_variable_stops_at_the_first_cell(tmp_path, capsys):
    # The failing sqrt and atan read constants only, so they fail on every
    # cell alike: subdividing cannot help, and once ran the whole
    # 20,000-cell budget.  A pole that reads x0 runs to the budget.
    task = tmp_path / "neg.ineq"
    for text, domain, budget, cells, failed in (
            ("sqrt(0.1 - 0.1000000000000000000001) + x0 - 2", "0..1", [], "1", "0.0..1.0"),
            ("x0 + atan(1, 0)", "0..1", [], "1", "0.0..1.0"),
            ("1/x0 - 100", "-1..1", ["--max-cells", "50"], "50", "-9.5367431640625e-07..0.0")):
        task.write_text(one_variable_task(text, domain))
        code, out, _ = run(["prove", "--task", str(task), *budget], capsys)
        assert code == 1
        _, body = cli.parse_report(out)
        assert ("status", "evaluation_failure") in body
        assert ("cells_processed", cells) in body
        assert [v for k, v in body if k == "failed_cell"] == [failed]


def test_prove_false_inequality_exits_one(tmp_path, capsys):
    task = tmp_path / "false.ineq"
    task.write_text("arity 1\nexpr x0*x0 - 1\ndomain x0 0..2\nmargin 0\n")
    report_path = tmp_path / "report.txt"
    code, out, _ = run(["--report", str(report_path), "prove", "--task", str(task),
                        "--max-cells", "500"], capsys)
    assert code == 1
    # report written even on exit 1, and it re-parses
    text = report_path.read_text()
    header, body = cli.parse_report(text)
    assert ("status", "undecided") in body
    assert any(k == "undecided_cell" for k, _ in body)


def test_malformed_problem_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.lp"
    bad.write_text("vars nonsense\n")
    code, _, err = run(["lp-certify", "--problem", str(bad), "--solve"], capsys)
    assert code == 2
    assert "line 1" in err


def test_unknown_subcommand_exits_two(capsys):
    assert cli.dispatch(["frobnicate"]) == 2


def test_missing_file_exits_two(capsys):
    code, _, err = run(["prove", "--task", "/nonexistent/x.ineq"], capsys)
    assert code == 2


def test_internal_error_exits_three(tmp_path, capsys, monkeypatch):
    # an uncaught exception would exit 1, which reads as "undecided"
    def broken(task, cfg):
        raise RuntimeError("broken prover")

    monkeypatch.setattr(cli, "prove_negative", broken)
    code, _, err = run(["prove", "--task", str(PROBLEMS / "six_squares.ineq")], capsys)
    assert code == 3
    assert err.startswith("error: internal: RuntimeError: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("k", [200, 499])
def test_deep_product_proves_with_a_linear_plan(tmp_path, capsys, k):
    # x0*...*x0 - 2 with k factors has depth k + 1
    text = "*".join(["x0"] * k) + " - 2"
    task = tmp_path / "deep.ineq"
    task.write_text(f"arity 1\nexpr {text}\ndomain x0 0..1\n")
    assert run(["prove", "--task", str(task)], capsys)[0] == 0
    ev = ex.Evaluator(ex.parse(text, 1), 1)
    box = [Interval(0.0, 1.0)]
    ev.germ(box)
    ev.hessian_entry(box, 0, 0)
    assert len(ev.plan) <= 8 * k


def test_long_sum_compiles_past_any_depth(tmp_path, capsys):
    # a left-deep sum of 600 terms is over 600 plan levels deep
    text = " + ".join(["0.001*x0*x1"] * 600) + " - 1"
    task = tmp_path / "long.ineq"
    task.write_text(f"arity 2\nexpr {text}\ndomain x0 0..1\ndomain x1 0..1\n")
    code, out, err = run(["prove", "--task", str(task)], capsys)
    assert code == 0, err
    _, body = cli.parse_report(out)
    assert ("status", "proven") in body


def test_far_exponent_literal_proves_promptly(tmp_path):
    # 1e-999999999 reads as [0, 5e-324]; folding constants in the
    # derivatives must not build 10**999999999 either
    import subprocess
    import sys
    task = tmp_path / "far.ineq"
    task.write_text("arity 1\nexpr x0*1e-999999999 - 1\ndomain x0 0..1\n")
    proc = subprocess.run(
        [sys.executable, "-m", "rigorkit.cli", "prove", "--task", str(task)],
        capture_output=True, text=True, cwd=str(ROOT), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "status: proven" in proc.stdout


@pytest.mark.parametrize("text", ["1e300*x0*1e300 - 1", "x0 + pow(2, 100000000) - 1"])
def test_constants_past_binary64_fail_as_intervals(tmp_path, capsys, text):
    # derivatives fold these into integers past binary64; the folds must not
    # become constants the plan cannot read (exit 2) or cannot print
    task = tmp_path / "big.ineq"
    task.write_text(f"arity 1\nexpr {text}\ndomain x0 0..1\n")
    code, out, _ = run(["prove", "--task", str(task)], capsys)
    assert code == 1
    assert "status: evaluation_failure" in out


def test_reports_reproducible(tmp_path, capsys):
    task = tmp_path / "t.ineq"
    task.write_text("arity 2\nexpr x0*x0 + x1 - 3\ndomain x0 -1..1\ndomain x1 0..1\nmargin 0\n")
    r1 = tmp_path / "r1.txt"
    r2 = tmp_path / "r2.txt"
    assert run(["--report", str(r1), "prove", "--task", str(task)], capsys)[0] == 0
    assert run(["--report", str(r2), "prove", "--task", str(task)], capsys)[0] == 0
    assert strip_wall_time(r1.read_text()) == strip_wall_time(r2.read_text())


def test_lp_certify_with_dual_file(tmp_path, capsys):
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    dual = tmp_path / "d.dual"
    dual.write_text("\n1.0 0 0\n")
    code, out, _ = run(["lp-certify", "--problem", str(problem),
                        "--dual", str(dual)], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    bound = float(dict(body)["bound"])
    assert abs(bound - 1.0) < 1e-9


def test_lp_certify_overflowing_product_is_an_input_error(tmp_path, capsys):
    # (-1e308) * 10 overflows: the product's enclosure is [-inf, -max float],
    # and adding it to the residual is arithmetic on a non-finite interval.
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 10\nineq_rhs 0 1\nbound 0 0..2\n")
    dual = tmp_path / "d.dual"
    dual.write_text("\n1e308 0 0\n")
    code, out, err = run(["lp-certify", "--problem", str(problem), "--dual", str(dual)], capsys)
    assert code == 2 and out == ""
    assert err == ("error: NonFiniteOperand: arithmetic on non-finite interval "
                   "[-inf, -1.7976931348623157e+308]; infinite endpoints are bookkeeping-only\n")


def test_dual_clamped_reports_zeroed_multipliers(tmp_path, capsys):
    # a negative multiplier certifies as its zeroed twin, and says so
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    bodies = []
    for name, text in (("neg.dual", "\n1.0 0.0 -0.5\n"), ("zero.dual", "\n1.0 0.0 0.0\n")):
        (tmp_path / name).write_text(text)
        code, out, err = run(["lp-certify", "--problem", str(problem),
                              "--dual", str(tmp_path / name)], capsys)
        assert (code, err) == (0, "")
        bodies.append(dict(cli.parse_report(out)[1]))
    neg, zero = bodies
    assert neg["bound"] == zero["bound"] == "1.0"
    assert neg["inputs_digest"] == zero["inputs_digest"]
    assert (neg["dual_clamped"], zero["dual_clamped"]) == ("True", "False")


def test_solve_on_a_problem_with_no_variables_falls_back_to_the_dual(tmp_path, capsys):
    # the solver cannot take an empty objective; NoProgress hands over to --dual
    problem = tmp_path / "empty.lp"
    problem.write_text("lp-problem v1\nvars 0\n")
    dual = tmp_path / "empty.dual"
    dual.write_text("")
    code, out, err = run(["lp-certify", "--problem", str(problem), "--solve",
                          "--dual", str(dual)], capsys)
    assert (code, err) == (0, "")
    assert dict(cli.parse_report(out)[1])["bound"] == "0.0"
    code, out, err = run(["lp-certify", "--problem", str(problem), "--solve"], capsys)
    assert (code, out) == (2, "")
    assert err == ("error: NoProgress: approximate LP solve failed: "
                   "the problem has no variables\n")


def test_lp_certify_solve_flag(tmp_path, capsys):
    problem = tmp_path / "p.lp"
    problem.write_text("vars 2\nobj 0 1\nobj 1 1\nineq 0 0 1\nineq 0 1 1\n"
                       "ineq_rhs 0 1\nbound 0 0..1\nbound 1 0..1\n")
    code, out, _ = run(["lp-certify", "--problem", str(problem), "--solve"], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    assert 1.0 <= float(dict(body)["bound"]) <= 1.0 + 1e-6


def test_assemble_fit_verify_round_trip(tmp_path, capsys):
    cert_path = tmp_path / "toy.cert"
    code, out, _ = run(["assemble", "fit",
                        "--problem", str(PROBLEMS / "toy_duality.asm"),
                        "--bound", "1.0", "--guess", "1.0",
                        "--certificate", str(cert_path)], capsys)
    assert code == 0 and cert_path.exists()
    code2, out2, _ = run(["assemble", "verify",
                          "--problem", str(PROBLEMS / "toy_duality.asm"),
                          "--certificate", str(cert_path)], capsys)
    assert code2 == 0
    _, body = cli.parse_report(out2)
    assert ("certified", "True") in body
    _, body = cli.parse_report(out)
    assert dict(body)["candidate"] == "written"


def test_fit_certificate_records_its_test_point_count(tmp_path, capsys):
    # the seed alone does not name the points: the count is written beside it
    from rigorkit import assembly as asm

    problem = asm.problem_from_text((PROBLEMS / "toy_duality.asm").read_text())
    texts = {}
    for n, flag in ((3, ["--test-points", "3"]), (40, ["--test-points", "40"]), (16, [])):
        cert_path = tmp_path / f"n{n}.cert"
        code, _, _ = run(["--seed", "7", "assemble", "fit",
                          "--problem", str(PROBLEMS / "toy_duality.asm"),
                          "--bound", "1.0", "--guess", "1.0", *flag,
                          "--certificate", str(cert_path)], capsys)
        assert code == 0
        texts[n] = cert_path.read_text()
        assert {"seed 7", f"test_points {n}"} <= set(texts[n].splitlines())
        cert = asm.certificate_from_text(problem, texts[n])
        assert (cert.test_seed, cert.test_points) == (7, n)
    assert texts[3] != texts[40]
    # a certificate written before the count was kept reads as it did
    voronoi = asm.problem_from_text((PROBLEMS / "voronoi2d.asm").read_text())
    old = asm.certificate_from_text(voronoi, (PROBLEMS / "voronoi2d.cert").read_text())
    assert (old.test_seed, old.test_points) == (20260808, None)


def test_assemble_fit_without_certificate_reports_found(tmp_path, capsys, monkeypatch):
    # with no --certificate path nothing is written, so nothing is reported written
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"),
                        "--bound", "1.0", "--guess", "1.0"], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    assert dict(body)["candidate"] == "found"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("phi, code, candidate", [
    ("sqrt(x0 - 0.5)", 0, "found"),   # the corner x0 = 0 is skipped; the others fit
    ("sqrt(-1 - x0)", 1, "none"),     # every point is skipped: no row to fit
])
def test_fit_skips_test_points_outside_a_phi_domain(tmp_path, capsys, phi, code, candidate):
    problem = tmp_path / "toy.asm"
    problem.write_text((PROBLEMS / "toy_duality.asm").read_text().replace(
        "  phi x0 - x0*x0\n", f"  phi x0 - x0*x0\n  phi {phi}\n"))
    got, out, err = run(["assemble", "fit", "--problem", str(problem),
                         "--bound", "1.0", "--guess", "1.0"], capsys)
    assert (got, err) == (code, "")
    assert dict(cli.parse_report(out)[1])["candidate"] == candidate


def test_assemble_verify_refutes_bad_bound(tmp_path, capsys):
    cert_path = tmp_path / "bad.cert"
    cert_path.write_text(
        "duality-certificate v1\nM 0.9\nt0 0.1\nx_star 0 1.0\n"
        "r d0 0 0.0\nw 0 0.0\nretained 0\n")
    code, out, _ = run(["assemble", "verify",
                        "--problem", str(PROBLEMS / "toy_duality.asm"),
                        "--certificate", str(cert_path),
                        "--max-cells", "300"], capsys)
    assert code == 1
    _, body = cli.parse_report(out)
    assert ("certified", "False") in body


def test_assemble_branch_writes_children(tmp_path, capsys):
    prefix = str(tmp_path / "child")
    code, _, _ = run(["assemble", "branch",
                      "--problem", str(PROBLEMS / "toy_duality.asm"),
                      "--domain", "d0", "--slot", "0",
                      "--out-prefix", prefix], capsys)
    assert code == 0
    assert Path(prefix + ".lo.asm").exists() and Path(prefix + ".hi.asm").exists()
    from rigorkit import assembly as asm
    lo = asm.problem_from_text(Path(prefix + ".lo.asm").read_text())
    assert lo.domains[0].box[0].hi == 0.5


@pytest.mark.parametrize("domain, slot", [("nope", "0"), ("d0", "99"), ("d0", "-1")])
def test_assemble_branch_rejects_unknown_domain_or_slot(tmp_path, capsys, domain, slot):
    # a negative slot once indexed from the end and bisected the last slot
    code, out, err = run(["assemble", "branch",
                          "--problem", str(PROBLEMS / "toy_duality.asm"),
                          "--domain", domain, "--slot", slot,
                          "--out-prefix", str(tmp_path / "child")], capsys)
    assert code == 2
    # a bad argument, not a failed computation: no class name after "error: "
    assert err.startswith(("error: no domain ", "error: domain d0 has no slot ")) and not out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("subcommand", ["fit", "verify", "branch"])
@pytest.mark.parametrize("phi", [
    "x0 - x0*x0 + 0*1e999",
    # the walk that read constants at test points stopped at the pole first,
    # so fit ended `candidate: none`, exit 1
    "1/(x0-x0) + 1e999",
])
def test_phi_constant_past_binary64_is_an_input_error(tmp_path, capsys, phi, subcommand):
    problem = tmp_path / "big.asm"
    problem.write_text((PROBLEMS / "toy_duality.asm").read_text().replace("x0 - x0*x0", phi))
    cert = tmp_path / "toy.cert"
    cert.write_text("duality-certificate v1\nM 1.0\nt0 0.0\nx_star 0 1.0\nr d0 0 1.0\n")
    extra = {"fit": ["--bound", "1.0", "--guess", "1.0"],
             "verify": ["--certificate", str(cert)],
             "branch": ["--domain", "d0", "--slot", "0",
                        "--out-prefix", str(tmp_path / "child")]}[subcommand]
    code, out, err = run(["assemble", subcommand, "--problem", str(problem), *extra], capsys)
    assert code == 2 and not out
    offset = phi.index("1e999")   # 15 and 12
    assert err == f"error: line 6: decimal numeral '1e999' overflows binary64 at offset {offset}\n"
    assert sorted(f.name for f in tmp_path.iterdir()) == ["big.asm", "toy.cert"]


@pytest.mark.parametrize("argv", [
    ["prove", "--task", "{dir}"],
    ["lp-certify", "--problem", "{dir}", "--solve"],
    ["graphs", "--max-vertices", "4", "--out", "{file}"],
])
def test_unusable_paths_exit_two(tmp_path, capsys, argv):
    (tmp_path / "taken").write_text("")
    code, _, err = run([a.format(dir=tmp_path, file=tmp_path / "taken") for a in argv],
                       capsys)
    assert code == 2
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("argv, message", [
    (["prove", "--task", str(PROBLEMS / "six_squares.ineq"), "--max-depth", "-1"],
     "max_depth must be >= 0"),
    (["graphs", "--max-vertices", "5", "--max-states", "0"], "max_states must be >= 1"),
    (["graphs", "--max-vertices", "5", "--max-states", "-1"], "max_states must be >= 1"),
    (["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"),
      "--bound", "1.0", "--guess", "1.0", "--test-points", "-3"],
     "n_random must be >= 0"),
    (["plan-dump", "--expr", "1", "--arity", "-1"], "arity must be >= 0, got -1"),
    # a task file names its own arity
    (["plan-dump", "--task", str(PROBLEMS / "six_squares.ineq"), "--arity", "9"],
     "plan-dump takes --task alone, or --expr with --arity"),
    (["prove", "--task", str(PROBLEMS / "six_squares.ineq"), "--max-cells", "0"],
     "max_cells must be >= 1"),
    (["prove", "--task", str(PROBLEMS / "six_squares.ineq"), "--min-width", "0"],
     "min_width must be > 0"),
    (["graphs", "--max-vertices", "2"], "N must be >= 3"),
    (["graphs", "--max-vertices", "5", "--prune", "wat"], "unknown prune clause 'wat'"),
    # int() read these caps: -1 ran to `complete: True, classes: 0`, exit 0
    (["graphs", "--max-vertices", "5", "--prune", "max-degree=-1"],
     "prune clause 'max-degree=-1': expected a non-negative index, got '-1'"),
    (["graphs", "--max-vertices", "5", "--prune", "max-degree=+3"],
     "prune clause 'max-degree=+3': expected a non-negative index, got '+3'"),
    (["graphs", "--max-vertices", "5", "--prune", "max-face-size=1_0"],
     "prune clause 'max-face-size=1_0': expected a non-negative index, got '1_0'"),
    (["graphs", "--max-vertices", "5", "--prune", "max-degree= 3"],
     "prune clause 'max-degree= 3': expected a non-negative index, got ' 3'"),
])
def test_out_of_range_budgets_exit_two(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("width, message", [
    ("inf", "invalid decimal numeral 'inf'"),  # float() read it; the run stopped at its root
    ("nan", "invalid decimal numeral 'nan'"),
    ("1_0", "invalid decimal numeral '1_0'"),
    ("1e999", "decimal numeral '1e999' overflows binary64"),
])
def test_min_width_is_read_as_an_exact_decimal(capsys, width, message):
    six = str(PROBLEMS / "six_squares.ineq")
    code, out, err = run(["prove", "--task", six, "--min-width", width], capsys)
    assert code == 2 and not out
    assert err.endswith(f"rigorkit prove: error: argument --min-width: {message}\n")
    code, out, _ = run(["prove", "--task", six, "--min-width", "1e-6"], capsys)
    assert code == 0 and "config: min_width 1e-06\n" in out


@pytest.mark.parametrize("n, prune", [(4, "all-triangles"), (8, "all-triangles"),
                                      (7, "max-faces=8,max-degree=5")])
def test_graphs_all_triangles_single_file(tmp_path, capsys, n, prune):
    # one class file per class, each named in the body
    outdir = tmp_path / "classes"
    code, out, _ = run(["graphs", "--max-vertices", str(n),
                        "--prune", prune, "--out", str(outdir)], capsys)
    assert code == 0
    header, body = cli.parse_report(out)
    assert header["subcommand"] == "graphs" and ("complete", "True") in body
    files = sorted(outdir.glob("graph_*.txt"))
    assert len(files) == int(dict(body)["classes"]) == sum(k == "class_file" for k, _ in body)
    if n == 4:
        content = files[0].read_text()
        assert len(files) == 1 and content.startswith("vertices 4")
        assert "derivation 3" in content


def test_geom_modes(tmp_path, capsys):
    s8 = "2.8284271247461903"
    code, out, _ = run(["geom", "simplex", "--edges", s8, s8, s8, s8, s8, s8,
                        "--r", "2"], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    assert ("verdict", "no_such_configuration") in body

    code1, _, _ = run(["geom", "simplex", "--edges", "10", "10", "10", "10",
                       "10", "10", "--r", "2"], capsys)
    assert code1 == 1

    code2, out2, _ = run(["geom", "segment", "--r1", "1", "--r2", "2",
                          "--r3", "2"], capsys)
    assert code2 == 0

    code3, out3, _ = run(["geom", "linked", "--spec",
                          str(PROBLEMS / "linked_line_refuted.dspec")], capsys)
    assert code3 == 0
    _, body3 = cli.parse_report(out3)
    # stage 1 decides this spec, so the sweep tests no cell
    assert ("verdict", "no_such_configuration") in body3 and ("sweep_cells", "0") in body3
    assert not any(key == "sweep_cells" for key, _ in body)   # simplex sweeps nothing


@pytest.mark.parametrize("argv", [
    ["simplex", "--edges", *["1e308"] * 6, "--r", "1"],
    ["segment", "--r1", "1e200", "--r2", "1", "--r3", "1e300"],
    ["linked", "0 q"],
    ["linked", "0 p1"],
], ids=["simplex", "segment", "linked-q-cap", "linked-frame-cap"])
def test_geom_overflow_is_inconclusive(tmp_path, capsys, argv):
    if argv[0] == "linked":
        # every frame pair and (0, q) capped at 2, but the named pair at 1e200
        pairs = ("0 p1", "0 p2", "0 p3", "p1 p2", "p1 p3", "p2 p3", "0 q")
        spec = tmp_path / "big.dspec"
        spec.write_text("points 0 p1 p2 p3 q\ndmin p1 q 1\n" + "".join(
            f"dmax {pair} {'1e200' if pair == argv[1] else 2}\n" for pair in pairs))
        argv = ["linked", "--spec", str(spec)]
    code, out, err = run(["geom", *argv], capsys)
    assert code == 1 and not err
    _, body = cli.parse_report(out)
    assert ("verdict", "inconclusive") in body
    assert dict(body)["reason"].startswith("arithmetic on non-finite interval")


CAPPED = "".join(f"dmax {pair} 2\n" for pair in
                 ("0 p1", "0 p2", "0 p3", "p1 p2", "p1 p3", "p2 p3", "0 q"))


@pytest.mark.parametrize("argv, verdict, reason", [
    (["simplex", "--edges", *["2.8284271247461903"] * 6, "--r", "0"],
     "inconclusive", "r must be positive"),
    (["segment", "--r1", "1", "--r2", "5", "--r3", "0.9..1.1"],
     "inconclusive", "axis height straddles zero"),
    (["linked", "dmin p1 q 3\ndmax p1 q 2\n"],
     "no_such_configuration", "dmin(1,4) exceeds dmax(1,4)"),
    (["linked", CAPPED], "inconclusive", "dmin(p1,q) must be positive to bind the strut"),
    (["simplex", "--edges", *["1..2"] * 6, "--r", "1"],
     "inconclusive", "realizability undecided (Cayley-Menger straddles zero)"),
], ids=["simplex-r-zero", "segment-straddles", "linked-dmin-above-dmax", "linked-no-strut",
        "simplex-cm-straddles"])
def test_geom_verdict_names_its_reason(tmp_path, capsys, argv, verdict, reason):
    if argv[0] == "linked":
        spec = tmp_path / "s.dspec"
        spec.write_text("points 0 p1 p2 p3 q\n" + argv[1])
        argv = ["linked", "--spec", str(spec)]
    code, out, err = run(["geom", *argv], capsys)
    assert code == (0 if verdict == "no_such_configuration" else 1) and not err
    _, body = cli.parse_report(out)
    assert ("verdict", verdict) in body and ("reason", reason) in body


def test_simplex_past_every_stage_reports_its_witness(capsys):
    # the pivoted point's distance to the fourth vertex is not below r: the
    # verdict gives no reason, only that distance's enclosure
    code, out, err = run(["geom", "simplex", "--edges", "2.56", "2.42", "2.52", "2.46",
                          "2.49", "2.46", "--r", "1.49"], capsys)
    assert code == 1 and not err
    _, body = cli.parse_report(out)
    fields = dict(body)
    assert fields["verdict"] == "inconclusive" and "reason" not in fields
    witness = iv.parse_interval_literal(fields["witness"])
    assert 1.6298 < witness.lo <= witness.hi < 1.6300


def test_plan_dump(capsys):
    code, out, _ = run(["plan-dump", "--expr", "atan(x0, 1)", "--arity", "1"], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    instructions = [v for k, v in body if k == "instruction"]
    assert instructions == ["t0 = load x0", "t1 = const 1", "t2 = atan t0, t1"]
    # every node kind, and x0*x1 shared by sqrt and atan: one slot each
    code, out, _ = run(["plan-dump", "--expr", "sqrt(x0*x1 + 2) - atan(x0*x1, pow(x1, 3)) / 0.5",
                        "--arity", "2"], capsys)
    assert code == 0
    _, body = cli.parse_report(out)
    assert [v for k, v in body if k == "instruction"] == [
        "t0 = load x0", "t1 = load x1", "t2 = mul t0, t1", "t3 = const 2",
        "t4 = add t2, t3", "t5 = sqrt t4", "t6 = pow t1, 3", "t7 = atan t2, t6",
        "t8 = const 0.5", "t9 = div t7, t8", "t10 = sub t5, t9"]


def digest_line(path: Path) -> str:
    return f"{path.name} {hashlib.sha256(path.read_bytes()).hexdigest()}"


def test_plan_dump_task_is_digested(capsys):
    task = PROBLEMS / "six_squares.ineq"
    code, out, _ = run(["plan-dump", "--task", str(task)], capsys)
    assert code == 0
    header, _ = cli.parse_report(out)
    assert header["input_digest"] == [digest_line(task)]


def test_plan_dump_takes_a_task_or_an_expression_not_both(capsys):
    code, out, _ = run(["plan-dump", "--task", str(PROBLEMS / "six_squares.ineq"),
                        "--expr", "x0", "--arity", "1"], capsys)
    assert code == 2 and not out


@pytest.mark.parametrize("argv, config", [
    (["--seed", "3", "prove", "--max-cells", "50", "--max-depth", "9", "--min-width", "0.001",
      "--task", str(PROBLEMS / "six_squares.ineq")],
     ["seed 3", "max_cells 50", "max_depth 9", "min_width 0.001"]),
    (["lp-certify", "--problem", "{tmp}/toy.lp", "--solve"], ["seed 0", "solve True"]),
    (["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"), "--bound", "1.0",
      "--guess", "1.0", "--test-points", "4", "--certificate", "{tmp}/toy.cert"],
     ["seed 0", "mode fit", "bound 1.0", "guess 1.0", "test_points 4"]),
    (["assemble", "verify", "--problem", str(PROBLEMS / "voronoi2d.asm"),
      "--certificate", str(PROBLEMS / "voronoi2d.cert"), "--max-cells", "5"],
     ["seed 0", "mode verify", "max_cells 5"]),
    (["assemble", "branch", "--problem", str(PROBLEMS / "toy_duality.asm"),
      "--domain", "d0", "--slot", "0", "--out-prefix", "{tmp}/child"],
     ["seed 0", "mode branch", "domain d0", "slot 0"]),
    (["graphs", "--max-vertices", "5", "--prune", "max-degree=4", "--max-states", "100",
      "--out", "{tmp}/classes"],
     ["seed 0", "max_vertices 5", "prune max-degree=4", "max_states 100"]),
    (["geom", "simplex", "--edges", *["2.8284"] * 6, "--r", "2"],
     ["seed 0", "mode simplex", "edges" + " 2.8284" * 6, "r 2"]),
    (["geom", "segment", "--r1", "1", "--r2", "2", "--r3", "-inf..3"],
     ["seed 0", "mode segment", "r1 1", "r2 2", "r3 -inf..3"]),
    (["geom", "linked", "--spec", str(PROBLEMS / "linked_line_refuted.dspec")],
     ["seed 0", "mode linked"]),
    (["plan-dump", "--expr", "x0", "--arity", "1"], ["seed 0", "expr x0", "arity 1"]),
    (["plan-dump", "--task", str(PROBLEMS / "six_squares.ineq")], ["seed 0"]),
], ids=["prove", "lp-certify", "fit", "verify", "branch", "graphs", "simplex", "segment",
        "linked", "plan-dump-expr", "plan-dump-task"])
def test_reports_echo_every_setting_but_paths(tmp_path, capsys, argv, config):
    # a setting that can change the result is in the header; the files a
    # run reads or writes are not, as their digests or bodies name them
    (tmp_path / "toy.lp").write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    report = tmp_path / "report.txt"
    code, out, err = run(["--report", str(report), *argv], capsys)
    assert code in (0, 1) and not err
    assert cli.parse_report(out)[0]["config"] == config
    assert report.read_text() == out


def test_crlf_input_digest_is_the_sha256_of_its_bytes(tmp_path, capsys):
    # the CRLF twin reads as the same task but is a different file
    lf = tmp_path / "lf.ineq"
    lf.write_bytes((PROBLEMS / "six_squares.ineq").read_bytes())
    crlf = tmp_path / "crlf.ineq"
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    assert b"\r\n" in crlf.read_bytes()
    reports = []
    for task in (lf, crlf):
        code, out, _ = run(["plan-dump", "--task", str(task)], capsys)
        assert code == 0
        header, body = cli.parse_report(out)
        assert header["input_digest"] == [digest_line(task)]
        reports.append(body)
    assert reports[0] == reports[1]
    assert digest_line(lf).split()[1] != digest_line(crlf).split()[1]


def test_byte_order_mark_is_not_part_of_the_first_keyword(tmp_path, capsys):
    # a UTF-8 BOM reads as nothing; the digest is of the bytes, BOM included
    plain = PROBLEMS / "six_squares.ineq"
    marked = tmp_path / "six_squares.ineq"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    bodies = []
    for task in (plain, marked):
        code, out, err = run(["prove", "--task", str(task)], capsys)
        assert (code, err) == (0, "")
        header, body = cli.parse_report(out)
        assert header["input_digest"] == [digest_line(task)]
        bodies.append(body)
    assert bodies[0] == bodies[1]
    lp_file = tmp_path / "p.lp"
    lp_file.write_bytes(b"\xef\xbb\xbflp-problem v1\nvars 1\nobj 0 1\nbound 0 0..2\n")
    code, out, err = run(["lp-certify", "--problem", str(lp_file), "--solve"], capsys)
    assert (code, err) == (0, "")
    assert dict(cli.parse_report(out)[1])["bound"] == "2.0"


def test_wall_time_spans_the_handler_run(tmp_path, capsys, monkeypatch):
    # lp-certify --solve's wall time includes the solve, not only the check
    solve = lpmod.solve_approx

    def slow(problem):
        time.sleep(0.05)
        return solve(problem)

    monkeypatch.setattr(lpmod, "solve_approx", slow)
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    code, out, _ = run(["lp-certify", "--problem", str(problem), "--solve"], capsys)
    assert code == 0
    assert float(cli.parse_report(out)[0]["wall_time_s"]) >= 0.05


def test_dual_read_after_no_progress_is_digested(tmp_path, capsys, monkeypatch):
    def stalled(problem):
        raise NoProgress("solver stalled")

    monkeypatch.setattr(lpmod, "solve_approx", stalled)
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    dual = tmp_path / "d.dual"
    dual.write_text("\n1.0 0 0\n")
    code, out, _ = run(["lp-certify", "--problem", str(problem), "--solve",
                        "--dual", str(dual)], capsys)
    assert code == 0
    header, body = cli.parse_report(out)
    assert header["input_digest"] == [digest_line(problem), digest_line(dual)]
    assert abs(float(dict(body)["bound"]) - 1.0) < 1e-9


def test_dual_file_with_a_third_vector_exits_two(tmp_path, capsys):
    problem = tmp_path / "p.lp"
    problem.write_text("vars 1\nobj 0 1\nineq 0 0 1\nineq_rhs 0 1\nbound 0 0..2\n")
    dual = tmp_path / "d.dual"
    dual.write_text("\n1 0 0\n99 99\n")
    code, out, err = run(["lp-certify", "--problem", str(problem), "--dual", str(dual)], capsys)
    assert code == 2 and out == ""
    assert "line 3: " in err


@pytest.mark.parametrize("argv", [
    ["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"), "--guess", "1.0"],
    ["assemble", "verify", "--problem", str(PROBLEMS / "toy_duality.asm")],
    ["geom", "simplex", "--edges", "2", "2", "2", "2", "2", "2"],
    ["assemble", "verify", "--problem", str(PROBLEMS / "toy_duality.asm"),
     "--certificate", str(PROBLEMS / "voronoi2d.cert"), "--bound", "1"],
    ["lp-certify", "--problem", "p.lp", "--solve", "--certificate", "out.txt"],
    ["geom", "segment", "--r1", "1", "--r2", "2", "--r3", "-infinity"],
], ids=["fit-without-bound", "verify-without-certificate", "simplex-without-r",
        "verify-with-bound", "lp-certify-certificate", "minus-infinity-word"])
def test_missing_or_misplaced_options_are_usage_errors(capsys, argv):
    code, out, err = run(argv, capsys)
    assert code == 2 and not out
    assert err.startswith("usage: rigorkit ")


@pytest.mark.parametrize("argv, code, line", [
    (["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"),
      "--bound", "-1e-3", "--guess", "1.0"], 1, ("candidate", "none")),
    (["assemble", "fit", "--problem", str(PROBLEMS / "toy_duality.asm"),
      "--bound", "1.0", "--guess", "-0e0"], 0, ("candidate", "found")),
    (["geom", "segment", "--r1", "1", "--r2", "2", "--r3", "-0.5..3"], 1,
     ("reason", "r3 must be positive")),
    (["geom", "segment", "--r1", "1", "--r2", "2", "--r3", "-inf..3"], 1,
     ("verdict", "inconclusive")),
], ids=["bound-exponent", "guess-exponent", "interval-literal", "infinite-literal"])
def test_negative_numerals_are_values_not_options(capsys, argv, code, line):
    # '-' or '-.' then a digit is a value, exponent and '..' included, and
    # so is the word '-inf'
    got, out, err = run(argv, capsys)
    assert (got, err) == (code, "")
    assert line in cli.parse_report(out)[1]


def long_flat_phi_problem(tmp_path) -> tuple[Path, str]:
    phi = "1" + " - 0.001*x0 + 0.001*x0" * 750
    path = tmp_path / "flat.asm"
    path.write_text((PROBLEMS / "toy_duality.asm").read_text().replace("x0 - x0*x0", phi))
    return path, phi


def test_long_flat_phi_fits(tmp_path, capsys):
    problem, _ = long_flat_phi_problem(tmp_path)
    code, _, err = run(["assemble", "fit", "--problem", str(problem),
                        "--bound", "1.0", "--guess", "1.0"], capsys)
    assert code in (0, 1), err


def test_long_flat_phi_branches(tmp_path, capsys):
    problem, phi = long_flat_phi_problem(tmp_path)
    prefix = str(tmp_path / "child")
    code, _, err = run(["assemble", "branch", "--problem", str(problem),
                        "--domain", "d0", "--slot", "0", "--out-prefix", prefix], capsys)
    assert code == 0, err
    assert f"  phi {phi}\n" in Path(prefix + ".lo.asm").read_text()


def test_task_file_round_trip():
    from rigorkit import expr as ex
    from rigorkit.prover import ProofTask
    from rigorkit.taylor import Box
    from rigorkit.interval import Interval
    task = ProofTask(ex.parse("x0*x1 - 2", 2),
                     Box((Interval(0, 1), Interval(-1, 2))), 0.125)
    text = "arity 2\nexpr x0*x1 - 2\ndomain x0 0..1\ndomain x1 -1..2\nmargin 0.125\n"
    parsed = cli.parse_task_file(text)
    assert parsed == task


def test_voronoi_shipped_certificate_verifies(capsys):
    # the default budget suffices, and so do 23 cells a domain (its domains
    # need 5, 23, 5 and 23); five cells do not
    for budget, code in ((["--max-cells", "60000"], 0), ([], 0), (["--max-cells", "23"], 0),
                         (["--max-cells", "5"], 1)):
        assert run(["assemble", "verify",
                    "--problem", str(PROBLEMS / "voronoi2d.asm"),
                    "--certificate", str(PROBLEMS / "voronoi2d.cert"), *budget],
                   capsys)[0] == code


def test_voronoi_fits_and_verifies_near_its_optimum(tmp_path, capsys):
    # -3.88 is a true bound (the optimum is about -3.88686); there the side
    # condition's rounding is wider than 128 ulps of t0, so the fit needs
    # the t0 search's doubling steps
    x_star = " ".join(["0.9717141478190061 2.0 2.0 1.5707963267948966"] * 4)
    cert = tmp_path / "tight.cert"
    problem = str(PROBLEMS / "voronoi2d.asm")
    code, out, err = run(["assemble", "fit", "--problem", problem, "--bound", "-3.88",
                          "--guess", x_star, "--certificate", str(cert)], capsys)
    assert code == 0, err
    assert ("candidate", "written") in cli.parse_report(out)[1]
    code, out, err = run(["assemble", "verify", "--problem", problem,
                          "--certificate", str(cert)], capsys)
    assert code == 0, err
    assert ("certified", "True") in cli.parse_report(out)[1]


def test_shipped_problem_files_round_trip():
    from rigorkit import assembly as asm
    text = (PROBLEMS / "voronoi2d.asm").read_text()
    problem = asm.problem_from_text(text)
    assert asm.problem_from_text(asm.problem_to_text(problem)) == problem
    cert_text = (PROBLEMS / "voronoi2d.cert").read_text()
    cert = asm.certificate_from_text(problem, cert_text)
    assert asm.certificate_from_text(
        problem, asm.certificate_to_text(problem, cert)) == cert


def test_cli_import_loads_neither_numpy_nor_scipy():
    # Every CLI invocation pays for what `import rigorkit.cli` loads; only
    # the LP solver needs scipy, and it imports it when called.  decimal
    # loads only where an endpoint is written as its exact expansion.
    probe = ("import sys, rigorkit.cli; "
             "print(sorted({'decimal', 'numpy', 'scipy'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
    # and a single layer loads only what it imports, not the package's others
    probe = ("import sys, rigorkit.interval; "
             "print(sorted(m for m in sys.modules if m.startswith('rigorkit.')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "['rigorkit.errors', 'rigorkit.interval']\n"


def test_every_exported_name_exists():
    # the benchmark's tracer looks up each name in a module's __all__
    names = [m.name for m in pkgutil.iter_modules(rigorkit.__path__)]
    assert len(names) >= 11
    for name in names:
        mod = importlib.import_module(f"rigorkit.{name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (name, missing)
        # and every public function or class the module defines is exported
        unlisted = [n for n, v in vars(mod).items()
                    if not n.startswith("_") and (inspect.isfunction(v) or inspect.isclass(v))
                    and v.__module__ == mod.__name__ and n not in getattr(mod, "__all__", ())]
        assert not unlisted, (name, unlisted)


def test_only_checked_types_are_dataclasses():
    # A dataclass is kept for a type whose __post_init__ checks its fields, or
    # for an interned expression node, which is held by a weak reference that
    # a tuple cannot take; a record that checks nothing is a NamedTuple.
    unchecked = []
    for info in pkgutil.iter_modules(rigorkit.__path__):
        mod = importlib.import_module(f"rigorkit.{info.name}")
        for name, v in vars(mod).items():
            if (inspect.isclass(v) and v.__module__ == mod.__name__
                    and dataclasses.is_dataclass(v) and "__post_init__" not in vars(v)
                    and not issubclass(v, ex.Expr)):
                unchecked.append(f"{info.name}.{name}")
    assert not unchecked


def test_every_error_class_is_caught_by_name():
    # An error class is kept for a failure some caller branches on; anything
    # else raises ValueError.  IntervalError's three subclasses are the
    # documented ways interval arithmetic fails, caught as IntervalError.
    caught = set()
    for path in Path(rigorkit.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                named = [node.type]
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "suppress"):
                named = node.args
            else:
                continue
            for expr in named:
                caught |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    documented = {"NonFiniteOperand", "DivisionByZeroInterval", "DomainError"}
    assert sorted(set(errors.__all__) - caught - documented) == []


def test_help_exits_zero(capsys):
    for argv in (["--help"], ["assemble", "fit", "--help"]):
        assert cli.dispatch(argv) == 0
        assert capsys.readouterr().out.startswith(" ".join(["usage: rigorkit", *argv[:-1]]))


def test_cross_process_reports_identical(tmp_path):
    # determinism must hold across interpreter processes, not just calls
    import subprocess
    import sys
    task = tmp_path / "t.ineq"
    task.write_text("arity 1\nexpr x0*x0 - 2\ndomain x0 -1..1\nmargin 0\n")
    outs = []
    for i in range(2):
        rpt = tmp_path / f"r{i}.txt"
        proc = subprocess.run(
            [sys.executable, "-m", "rigorkit.cli", "--report", str(rpt),
             "prove", "--task", str(task)],
            capture_output=True, text=True, cwd=str(ROOT))
        assert proc.returncode == 0, proc.stderr
        outs.append(strip_wall_time(rpt.read_text()))
    assert outs[0] == outs[1]


def one_variable_task(expr_text: str, domain: str = "0.5..0.9") -> str:
    return f"arity 1\nexpr {expr_text}\ndomain x0 {domain}\n"


@pytest.mark.parametrize("exponent", ["1" + "0" * 400, "1" + "0" * 5000,
                                      "0" * 5000 + "1" + "0" * 309,
                                      str(int(1.7976931348623157e308) + 1)],
                         ids=["400-zeros", "5000-zeros", "leading-zeros", "max-plus-one"])
def test_pow_exponent_past_binary64_is_rejected_when_read(tmp_path, capsys, exponent):
    text = one_variable_task(f"pow(x0, {exponent}) - 2")
    with pytest.raises(ParseError, match="line 2: pow exponent overflows binary64 at offset 8"):
        cli.parse_task_file(text)
    task = tmp_path / "pow.ineq"
    task.write_text(text)
    code, out, err = run(["prove", "--task", str(task)], capsys)
    assert code == 2 and not out
    assert err.strip() == "error: line 2: pow exponent overflows binary64 at offset 8"


def test_malformed_variable_name_is_an_input_error_at_its_offset(tmp_path, capsys):
    task = tmp_path / "sq.ineq"
    task.write_text(one_variable_task("x²"))
    code, out, err = run(["prove", "--task", str(task)], capsys)
    assert (code, out, err) == (2, "", "error: line 2: unknown identifier 'x²' at offset 0\n")
    code, out, err = run(["plan-dump", "--expr", "x²", "--arity", "1"], capsys)
    assert (code, out, err) == (2, "", "error: unknown identifier 'x²' at offset 0\n")
    code, out, err = run(["plan-dump", "--expr", "x" + "9" * 5000, "--arity", "1"], capsys)
    assert (code, out, err) == (2, "", "error: variable index of 5000 digits is too large "
                                       "at offset 0\n")


def test_pow_exponent_at_binary64_limit_is_read():
    top = int(1.7976931348623157e308)
    task = cli.parse_task_file(one_variable_task(f"pow(x0, -{top}) - 2"))
    assert task.expr.left.exponent == -top


@pytest.mark.parametrize("text", [one_variable_task("x0 - 1" + "0" * 5000),
                                  one_variable_task("x0 - 1e1" + "0" * 5000),
                                  one_variable_task("x0 - 2", "0.5..1" + "0" * 5000)],
                         ids=["constant", "exponent", "domain"])
def test_long_numerals_overflow_binary64(tmp_path, capsys, text):
    task = tmp_path / "long.ineq"
    task.write_text(text)
    code, out, err = run(["prove", "--task", str(task)], capsys)
    assert code == 2 and not out
    assert "overflows binary64" in err and "digits" not in err
    assert len(err) < 200


def test_long_domain_numeral_fails_when_read():
    with pytest.raises(ParseError, match="line 3: decimal numeral .* overflows binary64"):
        cli.parse_task_file(one_variable_task("x0 - 2", "0.5..1" + "0" * 5000))
    with pytest.raises(ParseError, match="line 1: index of 5001 digits is too large"):
        cli.parse_task_file("arity 1" + "0" * 5000 + "\nexpr x0\ndomain x0 0..1\n")
