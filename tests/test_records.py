"""Malformed input in every line-oriented format: each defect raises a
ParseError naming its line, and the CLI exits 2 on it."""

from pathlib import Path

import pytest

from rigorkit import assembly as asm
from rigorkit import cli, geom
from rigorkit import lp
from rigorkit import records as rec
from rigorkit.errors import ParseError

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
TOY = PROBLEMS / "toy_duality.asm"

BASE = {
    "ineq": "arity 2\nexpr x0*x1 - 2\ndomain x0 0..1\ndomain x1 0..1\nmargin 0\n",
    "lp": ("lp-problem v1\nvars 2\nobj 0 1.0\neq 0 0 1.0\neq_rhs 0 0.5\n"
           "ineq 0 1 1.0\nineq_rhs 0 1.0\nbound 0 0..1\nbound 1 0..1\n"),
    "dual": "0.5\n0.25 0 0 0 0\n",
    "asm": ("assembly-problem v1\ndomain d0\n  vars x\n  box 0..1\n  phi x0 - x0*x0\n"
            "end\nrow 0 d0.x 1.0\nrhs 0 1.0\nobj d0.x 1.0\n"),
    "cert": ("duality-certificate v1\nM 1.0\nt0 0.0\nx_star 0 1.0\nr d0 0 1.0\n"
             "w 0 0.0\nretained 0\nseed 3\n"),
    "dspec": "points 0 p1 p2 p3 q\ndmax 0 p1 2.0\ndmin p1 q 1.0\ndmax 0 q 2.0\n",
}

# (format, line, replacement for that line of BASE[format])
CASES = [
    ("ineq", 3, "domain x0"),                      # missing field
    ("ineq", 5, "margin 0 1"),                     # extra field
    ("ineq", 4, "domain x-1 0..1"),                # negative index
    ("ineq", 4, "domain x2 0..1"),                 # index out of range
    ("ineq", 5, "margin 0.1.2"),                   # bad decimal
    ("ineq", 1, "arity two"),
    ("ineq", 2, "expr x0 *"),
    ("ineq", 5, "wat 3"),                          # unknown keyword
    ("lp", 4, "eq 0 1"),
    ("lp", 3, "obj 0 1.0 2.0"),
    ("lp", 6, "ineq -1 0 1.0"),                    # used to overwrite the last row
    ("lp", 4, "eq 0 5 1.0"),                       # used to raise IndexError
    ("lp", 8, "bound 2 0..1"),
    ("lp", 3, "obj 1 1,5"),
    ("lp", 8, "bound 0 1..0"),
    ("lp", 1, "lp-problem v2"),
    ("lp", 5, "objective 0 1"),
    ("dual", 2, "0.25 0 x 0 0"),
    ("dual", 1, "0.5e"),
    ("asm", 8, "rhs 0"),
    ("asm", 7, "row 0 d0.x 1.0 2.0"),
    ("asm", 7, "row -1 d0.x 1.0"),                 # used to overwrite the last row
    ("asm", 9, "obj d0.y 1.0"),
    ("asm", 8, "rhs 0 one"),
    ("asm", 5, "  phi x1"),
    ("asm", 4, "  box 0..1 0..1"),                 # reported at 'end', line 6
    ("asm", 2, "vars x"),                          # 'vars' outside a domain block
    ("asm", 9, "column 0"),
    ("cert", 4, "x_star 0"),
    ("cert", 3, "t0 0.0 1.0"),
    ("cert", 6, "w -1 0.0"),
    ("cert", 4, "x_star 3 1.0"),
    ("cert", 5, "r d1 0 1.0"),
    ("cert", 2, "M 1.0e"),
    ("cert", 8, "seed x"),
    ("cert", 7, "z 0 1.0"),
    ("dspec", 3, "dmin 0 p1"),                     # used to raise IndexError
    ("dspec", 2, "dmax 0 p1 2.0 3.0"),
    ("dspec", 4, "dmax 0 p9 2.0"),
    ("dspec", 3, "dmin p1 q 2.x"),
    ("dspec", 1, "points"),
    ("dspec", 4, "dmid 0 q 1"),
    ("dspec", 1, "points 0 p1 p1 p3 q"),           # repeated label
    ("dspec", 3, "points 0 p1 p2 p3 q"),           # used to re-label earlier bounds
    ("dspec", 3, "dmin p1 p1 5"),                  # a pair of one point
    # a row index past the rows named used to size the matrix
    ("lp", 7, "ineq_rhs 100000 1.0"),
    ("lp", 4, "eq 100000 0 1.0"),
    ("asm", 8, "rhs 100000 1.0"),
]

# A defect found when its domain block closes is reported there.
REPORTED_AT = {("asm", 4, "  box 0..1 0..1"): 6}


def _parse(fmt: str, text: str):
    if fmt == "ineq":
        return cli.parse_task_file(text)
    if fmt == "lp":
        return lp.problem_from_text(text)
    if fmt == "dual":
        return lp.dual_from_text(text)
    if fmt == "asm":
        return asm.problem_from_text(text)
    if fmt == "cert":
        return asm.certificate_from_text(asm.problem_from_text(TOY.read_text()), text)
    return geom.parse_distance_spec(text)


def _argv(fmt: str, path: Path, tmp_path: Path) -> list[str]:
    if fmt == "ineq":
        return ["prove", "--task", str(path)]
    if fmt == "lp":
        return ["lp-certify", "--problem", str(path), "--solve"]
    if fmt == "dual":
        good = tmp_path / "good.lp"
        good.write_text(BASE["lp"])
        return ["lp-certify", "--problem", str(good), "--dual", str(path)]
    if fmt == "asm":
        return ["assemble", "verify", "--problem", str(path), "--certificate", str(path)]
    if fmt == "cert":
        return ["assemble", "verify", "--problem", str(TOY), "--certificate", str(path)]
    return ["geom", "linked", "--spec", str(path)]


@pytest.mark.parametrize("fmt", sorted(BASE))
def test_base_texts_parse(fmt):
    _parse(fmt, BASE[fmt])


@pytest.mark.parametrize("fmt, line, replacement", CASES,
                         ids=[f"{f}:{n}:{r.strip()}" for f, n, r in CASES])
def test_malformed_line_is_a_numbered_input_error(fmt, line, replacement, tmp_path, capsys):
    lines = BASE[fmt].splitlines()
    lines[line - 1] = replacement
    text = "\n".join(lines) + "\n"
    where = REPORTED_AT.get((fmt, line, replacement), line)

    with pytest.raises(ParseError) as err:
        _parse(fmt, text)
    assert err.value.position == where
    assert str(err.value).startswith(f"line {where}: ")

    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    assert cli.dispatch(_argv(fmt, path, tmp_path)) == 2
    assert f"line {where}: " in capsys.readouterr().err



@pytest.mark.parametrize("earlier, later", [("obj 0 one", "ineq 0 1 two"),
                                            ("ineq 0 1 two", "obj 0 one")])
def test_first_of_two_malformed_lines_is_reported(earlier, later):
    # Two bad lines under different keywords: the one earlier in the file is
    # named, whichever keyword it has.
    lines = BASE["lp"].splitlines()
    lines[2], lines[5] = earlier, later
    with pytest.raises(ParseError, match="^line 3: "):
        lp.problem_from_text("\n".join(lines) + "\n")


def test_every_row_up_to_the_largest_is_named():
    text = BASE["lp"].replace("ineq_rhs 0 1.0", "ineq_rhs 0 1.0\nineq_rhs 2 1.0")
    with pytest.raises(ParseError, match="line 8: row 2 is given but row 1 is not"):
        lp.problem_from_text(text)
    # a row named only by its right-hand side is a zero row
    text = BASE["lp"].replace("ineq_rhs 0 1.0", "ineq_rhs 0 1.0\nineq_rhs 1 2.0")
    p = lp.problem_from_text(text)
    assert p.n_core_ineq == 2 and p.aineq[1] == (0.0, 0.0) and p.bineq[1] == 2.0


def _long_lp(bad_line=None, bad_text=""):
    """An LP file with more ineq records than one conversion batch, with
    numerals off the short path among them, and optionally one line
    replaced."""
    n, rows = 40, 60
    lines = ["lp-problem v1", f"vars {n}"]
    lines += [f"bound {j} -1..1.5" for j in range(n)]
    coefs = ["0.25", "-1e-5", "3.000000000000000000000001", "-0.1", "17", "1.5E2", ".5"]
    lines += [f"ineq {r} {j} {coefs[(r + j) % len(coefs)]}" for r in range(rows) for j in range(n)]
    lines += [f"ineq_rhs {r} 1" for r in range(rows)] + ["obj 3 2.5", "obj 3 -2.5"]
    if bad_line is not None:
        lines[bad_line - 1] = bad_text
    return "\n".join(lines) + "\n"


def test_columns_hold_what_records_hold():
    text = _long_lp()
    records = rec.read_records(text, lp._PROBLEM_FIELDS, header="lp-problem")
    cols = rec.read_columns(text, lp._PROBLEM_FIELDS, header="lp-problem")
    for kw, c in cols.items():
        mine = [r for r in records if r.keyword == kw]
        assert c.lines == [r.line for r in mine]
        assert [tuple(v) for v in zip(*c.fields)] == [r.values for r in mine]
        if len(c.fields) > 1:
            assert c.table() == rec.table(records, kw)
    assert sorted(cols) == sorted({r.keyword for r in records})


@pytest.mark.parametrize("line, bad", [(1500, "ineq 3 4 0x10"), (2000, "ineq 3 4"),
                                       (1500, "ineq 3 -4 1"), (2000, "ineqs 3 4 1"),
                                       (2000, "lp-problem v1"), (2424, "ineq_rhs 2 1_0")])
def test_column_reader_names_the_first_bad_line(line, bad):
    text = _long_lp(line, bad)
    with pytest.raises(ParseError) as want:
        rec.read_records(text, lp._PROBLEM_FIELDS, header="lp-problem")
    with pytest.raises(ParseError) as got:
        lp.problem_from_text(text)
    assert str(got.value) == str(want.value) and str(got.value).startswith(f"line {line}: ")
