"""One reader for the line-oriented input files (`.ineq`, `.lp`, `.asm`,
`.cert`, `.dspec`): the only code that knows their record syntax.

`#` starts a comment and blank lines are skipped.  A record is a keyword,
matched case-insensitively, then whitespace-separated fields; a format may
open with a `<kind> v1` header line.  Each keyword takes a tuple of field
converters, `[converter]` for one or more fields of one type, or `TEXT` for
the rest of the line.

One loop, `read_columns`, reads every format: it checks each line's keyword
and field count there, and converts each keyword's fields a column of up to
1,024 records at a time.  A batch that fails is converted again a token at
a time, with every other pending batch, so the `ParseError("line N: ...")`
names the first bad line of the file.  `read_records` lists the records in
file order.
"""

from __future__ import annotations

from itertools import islice
from operator import attrgetter, itemgetter
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

from . import interval as iv
from .errors import ParseError

__all__ = ["Record", "Columns", "TEXT", "read_records", "read_columns", "strip_comment",
           "line_error", "convert", "table", "decimal", "interval", "index", "integer",
           "dense_rows", "MAX_DENSE_CELLS"]

TEXT = "rest of line"


class Record(NamedTuple):
    line: int
    keyword: str
    values: tuple

    def error(self, message: str) -> ParseError:
        return line_error(self.line, message)


class Columns(NamedTuple):
    """One keyword's records in file order: their line numbers, and
    fields[k][i], the k-th field of the i-th record (a tuple for `[conv]`)."""
    lines: list[int]
    fields: list[list]


def line_error(line: int, message: str) -> ParseError:
    return ParseError(f"line {line}: {message}", position=line)


def strip_comment(raw: str) -> str:
    return raw.split("#", 1)[0]


def convert(line: int, fn: Callable[[Any], Any], arg: Any) -> Any:
    """`fn(arg)`, with a failure reported as a ParseError naming the line."""
    try:
        return fn(arg)
    except (ParseError, ValueError) as exc:
        raise line_error(line, str(exc)) from None


def read_records(text: str, fields: Mapping[str, Any],
                 header: Optional[str] = None) -> list[Record]:
    """The records `read_columns` reads, in file order."""
    records: list[Record] = []
    for kw, c in read_columns(text, fields, header).items():
        one = isinstance(fields[kw], list)  # one column, of value tuples
        records += [Record(t[0], kw, t[1] if one else t[1:]) for t in zip(c.lines, *c.fields)]
    return sorted(records, key=itemgetter(0))


# Records whose fields are converted in one batch: enough to make the
# per-batch cost vanish, few enough that their token strings stay small.
_BATCH = 1024


def read_columns(text: str, fields: Mapping[str, Any],
                 header: Optional[str] = None) -> dict[str, Columns]:
    """One Columns per keyword present: `fields` maps each keyword to its
    field spec, `header` names the kind of an optional `<kind> v1` line."""
    out: dict[str, Columns] = {}
    # keyword -> (words per record or 0 for any, its lines, unconverted words)
    pending: dict[str, tuple[int, list[int], list[list[str]]]] = {}

    def fail(*errors: ParseError) -> None:
        """Raise the first of `errors` and of the pending batches' errors."""
        for kw, (_, lines, batch) in pending.items():
            try:
                _convert_each(fields[kw], batch, lines[-len(batch):])
            except ParseError as exc:
                errors += (exc,)
        raise min(errors, key=attrgetter("position"))

    def flush(kw: str) -> None:
        try:
            _convert_batch(fields[kw], pending[kw][2], out[kw].fields)
        except (ParseError, ValueError):
            fail()

    for line, raw in enumerate(text.splitlines(), 1):
        words = (strip_comment(raw) if "#" in raw else raw).split()
        if not words:
            continue
        kw = words[0].lower()
        state = pending.get(kw)
        if state is None:
            if kw == header and not out:
                if words[1:] != ["v1"]:
                    fail(line_error(line, f"expected the header '{header} v1'"))
                continue
            spec = fields.get(kw)
            if spec is None:
                fail(line_error(line, f"unknown keyword {kw!r}"))
            fixed = isinstance(spec, tuple)
            out[kw] = c = Columns([], [[] for _ in spec] if fixed else [[]])
            state = pending[kw] = (1 + len(spec) if fixed else 0, c.lines, [])
        n, lines, batch = state
        if len(words) != n:  # a wrong count, or n == 0: one field or more
            if n or len(words) == 1:
                content = strip_comment(raw).strip()
                fail(line_error(line, f"malformed entry {content!r}: wrong number of fields"))
            if fields[kw] is TEXT:
                lines.append(line)
                out[kw].fields[0].append(strip_comment(raw).strip()[len(words[0]):].lstrip())
                continue
        lines.append(line)
        batch.append(words)
        if len(batch) == _BATCH:
            flush(kw)
    for kw in pending:
        flush(kw)
    return out


def _convert_batch(spec: Any, batch: list[list[str]], columns: list[list]) -> None:
    """Append a batch's converted fields to their columns; empty the batch."""
    if isinstance(spec, tuple):
        for k, (fn, column) in enumerate(zip(spec, columns), 1):
            column += _convert_column(fn, list(map(itemgetter(k), batch)))
    elif batch:
        values = iter(_convert_column(spec[0], [tok for words in batch for tok in words[1:]]))
        columns[0] += [tuple(islice(values, len(words) - 1)) for words in batch]
    batch.clear()


def _convert_each(spec: Any, batch: list[list[str]], lines: list[int]) -> None:
    """Convert a batch one token at a time, so a failure names its line."""
    for line, (_, *tokens) in zip(lines, batch):
        for fn, token in zip(spec if isinstance(spec, tuple) else spec * len(tokens), tokens):
            convert(line, fn, token)


def _convert_column(fn: Callable[[str], Any], tokens: list[str]) -> list:
    """fn over a column: decimals through _nearest_floats, any other
    converter once per distinct token."""
    if fn is decimal:
        return iv._nearest_floats(tokens)
    table = {t: fn(t) for t in dict.fromkeys(tokens)}
    return list(map(table.__getitem__, tokens))


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


# The interval layer's digit reader, the one rule for every integer field.
index = iv._read_index


def integer(token: str) -> int:
    """An integer: an optional "-", then digits as `index` reads them."""
    return -index(token[1:]) if token.startswith("-") else index(token)


# The most cells (rows x columns) a dense matrix may have.  A row exists as
# soon as a record names it, and a column as soon as the file declares it,
# so a short file could otherwise ask for memory quadratic in its length.
MAX_DENSE_CELLS = 10 ** 6


def dense_rows(entries: Sequence[Sequence], rhs: Mapping[int, float],
               n: int, named: Iterable[tuple[int, int]]) -> tuple[list[list[float]], list[float]]:
    """n-column matrix and right-hand side from sparse entries, the columns
    (rows, columns, values), written in order so a later entry for a cell
    wins, and row values, zero where absent.  Every row up to the largest
    must be named by some record, so the file's length, not one index in
    it, sizes the matrix, and the matrix has at most MAX_DENSE_CELLS cells.
    `named` yields (line, row) for each record that names a row; it is read
    only to place the error when a row is missing or past the cap."""
    rows = set(entries[0])
    rows.update(rhs)
    m = len(rows)
    if rows and max(rows) >= m:
        gap = next(r for r in range(m) if r not in rows)
        line, r = min((line, r) for line, r in named if r > gap)
        raise line_error(line, f"row {r} is given but row {gap} is not")
    if m * n > MAX_DENSE_CELLS:
        first = MAX_DENSE_CELLS // n  # rows 0..first-1 fit under the cap
        line, r = min((line, r) for line, r in named if r >= first)
        raise line_error(line, f"row {r} of {n} variables passes the cap of "
                               f"{MAX_DENSE_CELLS} dense matrix cells")
    a = [[0.0] * n for _ in range(m)]
    for r, j, v in zip(*entries):
        a[r][j] = v
    return a, [rhs.get(r, 0.0) for r in range(m)]
