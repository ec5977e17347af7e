"""One reader for the line-oriented input files (`.ineq`, `.lp`, `.asm`,
`.cert`, `.dspec`): the only code that knows their record syntax.

`#` starts a comment and blank lines are skipped.  A record is a keyword,
matched case-insensitively, then whitespace-separated fields; a format may
open with a `<kind> v1` header line.  Each keyword takes a tuple of field
converters, `[converter]` for one or more fields of one type, or `TEXT` for
the rest of the line.  Malformed records raise `ParseError("line N: ...")`,
naming the first bad line of the file.

`read_records` returns the records in file order.  `read_columns` reads a
format whose keywords all take fixed field tuples (`.lp`) a whole field
column at a time, which costs a fraction of the per-record loop; a file with
any defect goes back through `read_records` for its error.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional

from . import interval as iv
from .errors import ParseError

__all__ = ["Record", "Columns", "TEXT", "read_records", "read_columns", "strip_comment",
           "line_error", "convert", "table", "decimal", "interval", "index", "dense_rows"]

TEXT = "rest of line"


class Record(NamedTuple):
    line: int
    keyword: str
    values: tuple

    def error(self, message: str) -> ParseError:
        return line_error(self.line, message)


class Columns(NamedTuple):
    """One keyword's records in file order: their line numbers, and
    fields[k][i], the k-th field of the i-th record."""
    lines: list[int]
    fields: list[list]

    def table(self) -> dict:
        """{key: last field} as `table` builds it for records of two or more
        fields, later records winning."""
        keys = self.fields[0] if len(self.fields) == 2 else zip(*self.fields[:-1])
        return dict(zip(keys, self.fields[-1]))


def line_error(line: int, message: str) -> ParseError:
    return ParseError(f"line {line}: {message}", position=line)


def strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0]


def convert(line: int, fn: Callable[[str], Any], token: str) -> Any:
    """`fn(token)`, with a failure reported as a ParseError naming the line."""
    try:
        return fn(token)
    except (ParseError, ValueError) as exc:
        raise line_error(line, str(exc)) from None


def read_records(text: str, fields: Mapping[str, Any],
                 header: Optional[str] = None) -> list[Record]:
    """Records in file order.  `fields` maps each keyword to its field spec;
    `header` is the kind named by an optional `<kind> v1` first line."""
    out: list[Record] = []
    for line, raw in enumerate(text.splitlines(), 1):
        content = strip_comment(raw).strip()
        if not content:
            continue
        words = content.split()
        kw, args = words[0].lower(), words[1:]
        if kw == header and not out:
            if args != ["v1"]:
                raise line_error(line, f"expected the header '{header} v1'")
            continue
        spec = fields.get(kw)
        if spec is None:
            raise line_error(line, f"unknown keyword {kw!r}")
        variadic = not isinstance(spec, tuple)
        if (not args) if variadic else len(args) != len(spec):
            raise line_error(line, f"malformed entry {content!r}: wrong number of fields")
        if spec is TEXT:
            values = (content.split(None, 1)[1],)
        else:
            fns = spec * len(args) if variadic else spec
            try:
                values = tuple([fn(tok) for fn, tok in zip(fns, args)])
            except (ParseError, ValueError) as exc:
                raise line_error(line, str(exc)) from None
        out.append(Record(line, kw, values))
    return out


# Records whose fields are converted in one batch: enough to make the
# per-batch cost vanish, few enough that their token strings stay small.
_BATCH = 1024


def read_columns(text: str, fields: Mapping[str, tuple],
                 header: Optional[str] = None) -> dict[str, Columns]:
    """What `read_records` reads, as one Columns per keyword present, for a
    format whose keywords each take a fixed tuple of field converters.  The
    fields are converted a column of records at a time; on any defect the
    file is read again by `read_records`, which raises at its first bad
    line."""
    out: dict[str, Columns] = {}
    pending: dict[str, list[list[str]]] = {}  # words of records not yet converted
    try:
        for line, raw in enumerate(text.splitlines(), 1):
            words = (strip_comment(raw) if "#" in raw else raw).split()
            if not words:
                continue
            kw = words[0].lower()
            if kw == header and not out and words[1:] == ["v1"]:
                continue
            batch = pending.get(kw)
            if batch is None:
                if kw not in fields:
                    raise ValueError(f"unknown keyword {kw!r}")
                batch = pending[kw] = []
                out[kw] = Columns([], [[] for _ in fields[kw]])
            out[kw].lines.append(line)
            batch.append(words)
            if len(batch) == _BATCH:
                _convert_batch(fields[kw], batch, out[kw].fields)
        for kw, batch in pending.items():
            _convert_batch(fields[kw], batch, out[kw].fields)
        return out
    except (ParseError, ValueError):
        read_records(text, fields, header)  # raises at the first bad line
        raise


def _convert_batch(spec: tuple, batch: list[list[str]], columns: list[list]) -> None:
    """Append the converted fields of a batch of records to their columns,
    and empty the batch."""
    if not batch:
        return
    if set(map(len, batch)) != {1 + len(spec)}:
        raise ValueError("wrong number of fields")
    for k, (fn, column) in enumerate(zip(spec, columns), 1):
        column += _convert_column(fn, list(map(itemgetter(k), batch)))
    batch.clear()


def _convert_column(fn: Callable[[str], Any], tokens: list[str]) -> list:
    if fn is decimal:
        return iv._nearest_floats(tokens)
    if fn is index:
        joined = "".join(tokens)
        if joined.isdigit() and joined.isascii() and max(map(len, tokens)) <= 18:
            return list(map(int, tokens))
    return list(map(fn, tokens))


def table(records: list[Record], keyword: str) -> dict:
    """{key: last field} over one keyword's records, later ones winning; the
    key is the first field, or the tuple of all but the last if more."""
    return {(v[0] if len(v) == 2 else v[:-1]): v[-1]
            for _, kw, v in records if kw == keyword}


def decimal(token: str) -> float:
    """A decimal numeral, correctly rounded to binary64."""
    return iv.decimal_to_nearest_float(token)


def interval(token: str) -> iv.Interval:
    """An interval literal `lo..hi`, or a bare numeral's tight enclosure."""
    return iv.parse_interval_literal(token)


def index(token: str) -> int:
    """A non-negative integer in plain digits."""
    if len(token) <= 18 and token.isdigit() and token.isascii():
        return int(token)
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"expected a non-negative index, got {token!r}")
    digits = token.lstrip("0") or "0"
    if len(digits) > 18:  # decided before int() reads the text
        raise ValueError(f"index of {len(digits)} digits is too large")
    return int(digits)


def dense_rows(entries: Mapping[tuple[int, int], float], rhs: Mapping[int, float],
               n: int, named: Iterable[tuple[int, int]]) -> tuple[list[list[float]], list[float]]:
    """n-column matrix and right-hand side from sparse (row, column) entries
    and row values, zero where absent.  Every row up to the largest must be
    named by some record, so the file's length, not one index in it, sizes
    the matrix.  `named` yields (line, row) for each record that names a
    row; it is read only to place the error when a row is missing."""
    rows = {r for r, _ in entries}
    rows.update(rhs)
    m = len(rows)
    if rows and max(rows) >= m:
        gap = next(r for r in range(m) if r not in rows)
        line, r = min((line, r) for line, r in named if r > gap)
        raise line_error(line, f"row {r} is given but row {gap} is not")
    a = [[0.0] * n for _ in range(m)]
    for (r, j), v in entries.items():
        a[r][j] = v
    return a, [rhs.get(r, 0.0) for r in range(m)]
