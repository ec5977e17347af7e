"""Malformed input in every line-oriented format: each defect raises a
ParseError naming its line, and the CLI exits 2 on it."""

import re
from pathlib import Path

import pytest

from oracles import reference_lp_from_records, reference_read_records
from rigorkit import assembly as asm
from rigorkit import cli, geom
from rigorkit import expr as ex
from rigorkit import graphgen as gg
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
    ("ineq", 4, "domain y0 0..1"),                 # not a variable
    ("ineq", 5, "margin -1"),                      # used to name no line
    ("ineq", 2, "expr x0*x1 - 1e400"),             # a numeral past binary64
    ("ineq", 2, "expr x0*x1 + .e5"),               # a numeral with no digit
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
    ("asm", 3, "domain d1"),                       # a block opened inside another
    ("asm", 9, "column 0"),
    ("cert", 4, "x_star 0"),
    ("cert", 3, "t0 0.0 1.0"),
    ("cert", 6, "w -1 0.0"),
    ("cert", 4, "x_star 3 1.0"),
    ("cert", 5, "r d1 0 1.0"),
    ("cert", 2, "M 1.0e"),
    ("cert", 8, "seed x"),
    ("cert", 7, "z 0 1.0"),
    ("cert", 6, "w 7 3.0"),                        # a row not retained; used to be ignored
    ("cert", 7, "# retained 0"),                   # w 0 then names no retained row
    ("cert", 7, "retained 0 0"),                   # a row retained twice
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
    # an infinite endpoint
    ("ineq", 3, "domain x0 -inf..1"),
    ("asm", 4, "  box 0..inf"),                    # reported at 'end', line 6
    ("lp", 8, "bound 0 -inf..1"),
]

# A defect found when its domain block closes is reported there.
REPORTED_AT = {("asm", 4, "  box 0..1 0..1"): 6, ("asm", 4, "  box 0..inf"): 6,
               ("cert", 7, "# retained 0"): 6}


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
    if fmt == "lp-certify":
        return ["lp-certify", "--problem", str(path)]  # neither --dual nor --solve
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


def _wide_lp(n):
    """A valid LP of n variables and n rows in 2n + 3 short lines: row r's
    right-hand side is line n + 2 + r."""
    return "\n".join([f"vars {n}", *(f"bound {j} 0..1" for j in range(n)),
                      *(f"ineq_rhs {r} 1" for r in range(n)), "ineq 0 0 1", "obj 0 1"]) + "\n"


def _wide_asm(n, m):
    """A valid assembly problem of one n-variable domain and m zero rows:
    row r's right-hand side is line 6 + r."""
    return "\n".join(["assembly-problem v1", "domain d0",
                      "  vars " + " ".join(f"v{j}" for j in range(n)),
                      "  box " + " ".join(["0..1"] * n), "end",
                      *(f"rhs {r} 1" for r in range(m))]) + "\n"


# (format, whole file, message): defects no one-line change of BASE makes
WHOLE_FILE_CASES = [
    # 167 rows of 6,000 columns pass the cap of 10**6 cells; its dense
    # matrix would take 288 MB
    ("lp", _wide_lp(6000),
     "line 6168: row 166 of 6000 variables passes the cap of 1000000 dense matrix cells"),
    # .asm rows are dense over every domain's variables: 501 rows of 2,000
    ("asm", _wide_asm(2000, 501),
     "line 506: row 500 of 2000 variables passes the cap of 1000000 dense matrix cells"),
    ("ineq", "arity 1\ndomain x0 0..1\n", "task file needs 'arity' and 'expr'"),
    ("ineq", "arity 2\nexpr x0*x1 - 2\ndomain x0 0..1\n",
     "task file must give a domain for every variable"),
    ("lp", "lp-problem v1\nbound 0 0..1\n", "missing 'vars N' declaration"),
    ("lp-certify", BASE["lp"], "need --dual FILE or --solve"),
    ("asm", "assembly-problem v1\ndomain d0\nend\n", "line 3: domain 'd0' has no vars"),
    ("asm", "assembly-problem v1\n" + "domain d0\n  vars x\n  box 0..1\nend\n" * 2,
     "line 9: variable d0.x defined twice"),
    ("asm", "assembly-problem v1\ndomain d0\n  vars x\n  box 0..1\n",
     "unterminated domain block"),
    ("cert", "duality-certificate v1\nM 1.0\n", "certificate missing M or t0"),
    ("dspec", "# no points\n", "missing 'points' declaration"),
    ("dspec", "points 0 p1 p2 q\n", "spec must cover exactly 5 points: 0 p1 p2 p3 q"),
]


@pytest.mark.parametrize("fmt, text, message", WHOLE_FILE_CASES,
                         ids=[f"{f}:{m}" for f, _, m in WHOLE_FILE_CASES])
def test_whole_file_defect_is_an_input_error(fmt, text, message, tmp_path, capsys):
    path = tmp_path / f"bad.{fmt}"
    path.write_text(text)
    assert cli.dispatch(_argv(fmt, path, tmp_path)) == 2
    out = capsys.readouterr()
    assert out.err == f"error: {message}\n" and not out.out


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
    assert len(p.aineq) == 2 and p.aineq[1] == (0.0, 0.0) and p.bineq[1] == 2.0


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
    records = reference_read_records(text, lp._PROBLEM_FIELDS, header="lp-problem")
    cols = rec.read_columns(text, lp._PROBLEM_FIELDS, header="lp-problem")
    for kw, c in cols.items():
        mine = [r for r in records if r.keyword == kw]
        assert c.lines == [r.line for r in mine]
        assert [tuple(v) for v in zip(*c.fields)] == [r.values for r in mine]
        if len(c.fields) == 2:
            assert dict(zip(*c.fields)) == rec.table(records, kw)
    assert sorted(cols) == sorted({r.keyword for r in records})


def _messy(text):
    """The same records with CRLF line ends, tabs, upper-case keywords,
    comments, repeated cells and a row named only by its right-hand side."""
    lines = text.splitlines()
    out = ["# an LP written by hand"]
    for k, line in enumerate(lines):
        kw, _, rest = line.partition(" ")
        line = (kw.upper() if k % 3 else kw) + ("\t" if k % 2 else " ") + rest
        out.append(line + ("  # note" if k % 5 == 0 else ""))
        if kw == "ineq" and k % 7 == 0:
            out.append(f"{line[:-1]}9  # a later value for the same cell wins")
    out += ["ineq_rhs 60 2.5", "INEQ 3 4 -0.0", "eq_rhs 0 0", "Eq 0 5 +.5", "eq 0 5 5."]
    return "\r\n".join(out) + "\r\n"


@pytest.mark.parametrize("variant", ["plain", "messy", "repeated"])
def test_lp_reader_agrees_with_the_record_reader(variant):
    text = {"plain": _long_lp(), "messy": _messy(_long_lp()),
            "repeated": _long_lp() + _long_lp().split("\n", 1)[1]}[variant]
    got, want = lp.problem_from_text(text), reference_lp_from_records(text)
    assert got == want and repr(got) == repr(want)  # repr tells -0.0 from 0.0
    assert len(got.aineq) == (61 if variant == "messy" else 60)


@pytest.mark.parametrize("line, bad", [(1500, "ineq 3 4 0x10"), (2000, "ineq 3 4"),
                                       (1500, "ineq 3 -4 1"), (2000, "ineqs 3 4 1"),
                                       (2000, "lp-problem v1"), (2424, "ineq_rhs 2 1_0")])
def test_column_reader_names_the_first_bad_line(line, bad):
    text = _long_lp(line, bad)
    with pytest.raises(ParseError) as want:
        reference_read_records(text, lp._PROBLEM_FIELDS, header="lp-problem")
    with pytest.raises(ParseError) as got:
        lp.problem_from_text(text)
    assert str(got.value) == str(want.value) and str(got.value).startswith(f"line {line}: ")


# Every keyword set the consumers read, with the header its files may open with.
FORMATS = {"ineq": (cli._TASK_FIELDS, None), "lp": (lp._PROBLEM_FIELDS, "lp-problem"),
           "asm": (asm._PROBLEM_FIELDS, "assembly-problem"),
           "cert": (asm._CERTIFICATE_FIELDS, "duality-certificate"),
           "dspec": (geom._SPEC_FIELDS, None)}


def _long_asm(box="box 0..1", phi="phi x0 - 1", row="row 0 d0.x 1.0", count=1100,
              bad_at=None, bad="", tail=()):
    """An assembly problem with `count` phi and row records (more than one
    conversion batch), the box on line 4, record `bad_at` of each replaced
    by `bad`, and `tail` lines appended."""
    phis = [phi] * count
    rows = [row] * count
    if bad_at is not None:
        phis[bad_at] = rows[bad_at] = bad
    lines = ["assembly-problem v1", "domain d0", "vars x", box, *phis, "end", *rows,
             "rhs 0 1.0", *tail]
    return "\n".join(lines) + "\n"


def _long_cert(m="M 1.0", count=1100, bad_at=None, bad=""):
    """A certificate with `count` retained records (more than one
    conversion batch), M on line 2 and retained record `bad_at` replaced."""
    retained = [f"retained {k} {k + 1}" for k in range(count)]
    if bad_at is not None:
        retained[bad_at] = bad
    return "\n".join(["duality-certificate v1", m, "t0 0.0", *retained]) + "\n"


def _first_error(fmt, text):
    fields, header = FORMATS[fmt]
    with pytest.raises(ParseError) as want:
        reference_read_records(text, fields, header)
    with pytest.raises(ParseError) as got:
        rec.read_records(text, fields, header)
    assert str(got.value) == str(want.value)
    return str(got.value)


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_records_in_file_order_are_the_reference_records(fmt):
    fields, header = FORMATS[fmt]
    texts = [BASE[fmt]] + [p.read_text() for p in sorted(PROBLEMS.glob(f"*.{fmt}"))]
    texts += {"lp": [_long_lp(), _messy(_long_lp())], "asm": [_long_asm()],
              "cert": [_long_cert()]}.get(fmt, [])
    for text in texts:
        assert rec.read_records(text, fields, header) == reference_read_records(text, fields,
                                                                                header)


def test_a_pending_batch_is_named_before_a_later_full_batch_fails():
    # line 3's bound batch is still pending when the second full batch of
    # ineq records, holding line 1500, fails to convert
    lines = _long_lp(1500, "ineq 3 4 0x10").splitlines()
    lines[2] = "bound 0 x..1"
    text = "\n".join(lines) + "\n"
    assert _first_error("lp", text).startswith("line 3: ")
    with pytest.raises(ParseError, match="^line 3: "):
        lp.problem_from_text(text)


@pytest.mark.parametrize("text, line", [
    (_long_cert("M 1.0e", bad_at=500, bad="retained 0 x"), 2),  # the full retained batch fails
    (_long_cert(bad_at=500, bad="retained 0 x"), 504),
    (_long_cert(bad_at=1090, bad="retained 0 1 -2"), 1094),      # in the last, short batch
    (_long_cert("M 1.0e", bad_at=1090, bad="retained"), 2),      # a later field count
], ids=["pending", "alone", "short-batch", "count"])
def test_variadic_fields_past_one_batch(text, line):
    assert _first_error("cert", text).startswith(f"line {line}: ")
    p = asm.problem_from_text(TOY.read_text())
    with pytest.raises(ParseError, match=f"^line {line}: "):
        asm.certificate_from_text(p, text)


@pytest.mark.parametrize("text, line", [
    (_long_asm("box x..1", tail=["phi"]), 4),              # a later field count
    (_long_asm("box x..1", bad_at=600, bad="row 0 d0.x one"), 4),
    (_long_asm("box 0..1 2..x", bad_at=600, bad="phi"), 4),
    (_long_asm(bad_at=600, bad="phi"), 605),
    (_long_asm(tail=["phi"]), 2207),
], ids=["count", "row", "phi", "phi-alone", "tail"])
def test_text_fields_past_one_batch(text, line):
    assert _first_error("asm", text).startswith(f"line {line}: ")
    with pytest.raises(ParseError, match=f"^line {line}: "):
        asm.problem_from_text(text)


def test_text_fields_keep_the_rest_of_the_line():
    text = _long_asm(phi="phi  x0 -\t1   # spacing kept", count=1500)
    phis = [r.values for r in rec.read_records(text, *FORMATS["asm"]) if r.keyword == "phi"]
    assert phis == [("x0 -\t1",)] * 1500


@pytest.mark.parametrize("line", [3, 1500])
def test_the_first_of_two_bad_fields_is_named(line):
    text = _long_lp(line, "ineq 3 x 0x10")
    message = _first_error("lp", text)
    assert message == f"line {line}: expected a non-negative index, got 'x'"
    with pytest.raises(ParseError, match=f"^{message}$"):
        lp.problem_from_text(text)


@pytest.mark.parametrize("token, value", [
    ("١", 1), ("٠٧", 7), ("१२", 12), ("7١", 71),
    ("٠" * 30 + "5", 5), ("0" * 30 + "5", 5), ("٠" * 30, 0),
    ("٩" * 18, 10**18 - 1),
])
def test_index_reads_unicode_decimal_digits(token, value):
    # as numerals and x{i} subscripts do; leading zeros of any script are zeros
    assert rec.index(token) == value


@pytest.mark.parametrize("token", ["²", "x", "-1", "+1", " 1", "1_000", "1 2", "", "١.٠"])
def test_index_rejects_what_is_not_decimal_digits(token):
    with pytest.raises(ValueError, match=re.escape(f"expected a non-negative index, got {token!r}")):
        rec.index(token)


@pytest.mark.parametrize("token", ["١" * 19, "1" + "٠" * 18])
def test_unicode_digit_index_is_bounded_as_ascii(token):
    with pytest.raises(ValueError, match="^index of 19 digits is too large$"):
        rec.index(token)


def test_task_with_unicode_digit_indices_reads_as_its_ascii_twin():
    ascii_task = "arity 2\nexpr x0 + x1 - 3\ndomain x0 0..1\ndomain x1 0..1\n"
    unicode_task = "arity ٢\nexpr x0 + x١ - 3\ndomain x٠ 0..1\ndomain x١ 0..1\n"
    assert cli.parse_task_file(unicode_task) == cli.parse_task_file(ascii_task)


def _field_value(fmt: str, line: str):
    """The first field of a one-record file of `fmt`, as its reader reads it."""
    fields, header = FORMATS[fmt]
    return rec.read_records(line + "\n", fields, header)[0].values[0]


def _prune_cap(digits: str) -> int:
    """The cap that `max-face-size=<digits>` compiles to, found from its
    step test, which admits a step committing an n-gon exactly when n <= cap."""
    admits = gg.compile_prune_spec(f"max-face-size={digits}").admits_step
    lo, hi = 0, 10 ** 19   # admitted, and past every cap an index can hold
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if admits(gg.RefinementStep((), (mid,))) else (lo, mid)
    return lo


# Every integer field of the input, as a function of its digit string.
INTEGER_FIELDS = {
    "ineq-arity": lambda d: _field_value("ineq", f"arity {d}"),
    "ineq-domain": lambda d: _field_value("ineq", f"domain x{d} 0..1"),
    "expr-variable": lambda d: ex.parse(f"x{d}").index,
    "pow-exponent": lambda d: ex.parse(f"pow(x0, {d})").exponent,
    "lp-vars": lambda d: _field_value("lp", f"vars {d}"),
    "cert-test_points": lambda d: _field_value("cert", f"test_points {d}"),
    "cert-seed": lambda d: _field_value("cert", f"seed {d}"),
    "prune-cap": _prune_cap,
}

TOO_LARGE = "index of 19 digits is too large"

# (digit string, the value every field reads, or None where every field
# rejects it, or TOO_LARGE where every index field rejects it by its count)
DIGIT_STRINGS = [
    ("7", 7),
    ("\u0667", 7),                                  # Arabic-Indic
    ("\uff17", 7),                                  # fullwidth
    ("1\u0662\uff13", 123),                         # three scripts in one string
    ("0\u0660\uff10" * 10 + "42", 42),              # leading zeros of three scripts
    ("9" * 18, 10**18 - 1),
    ("\u0660" * 30 + "9" * 18, 10**18 - 1),         # leading zeros are not counted
    ("1" + "0" * 18, TOO_LARGE),
    ("1_0", None),
    ("+3", None),
]


@pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
@pytest.mark.parametrize("digits, want", DIGIT_STRINGS, ids=[
    "ascii", "arabic-indic", "fullwidth", "mixed", "leading-zeros", "18-digits",
    "18-after-zeros", "19-digits", "underscore", "plus"])
def test_every_integer_field_reads_digits_by_one_rule(field, digits, want):
    read = INTEGER_FIELDS[field]
    if want == TOO_LARGE and field == "pow-exponent":
        want = int(digits)   # an exponent is bounded by binary64, not by its digit count
    if isinstance(want, int):
        assert read(digits) == want
        return
    with pytest.raises((ParseError, ValueError)) as err:
        read(digits)
    assert want is None or want in str(err.value)


@pytest.mark.parametrize("seed, message", [
    ("9" * 5000, "index of 5000 digits is too large"),   # once int()'s own limit message
    ("-1_0", "expected a non-negative index, got '1_0'"),
    ("--3", "expected a non-negative index, got '-3'"),
], ids=["5000-digits", "underscore", "two-signs"])
def test_certificate_seed_is_a_sign_then_an_index(seed, message):
    assert _field_value("cert", "seed -" + "٠" * 20 + "42") == -42
    with pytest.raises(ParseError, match=f"^line 1: {re.escape(message)}$"):
        _field_value("cert", f"seed {seed}")
