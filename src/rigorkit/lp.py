"""Rigorous certification of linear-program upper bounds.

The primal form is

    max c.x   subject to   Aeq x = beq,  Aineq x <= bineq,  lo <= x <= hi,

with finite bounds (this keeps both the primal and the dual feasible and
bounded for the problems we care about), kept only in `var_bounds`.  z
lists the Aineq rows' multipliers, then those of x_j <= hi_j and
-x_j <= -lo_j for each j: A and b below are Aineq and bineq with these
2n bound rows appended.

`certify_upper_bound` turns *any* approximate dual vector (y free,
z's negative entries zeroed first and reported) into a rigorous bound:
the residual row vector

    delta = c - y Aeq - z A

is computed a column at a time by interval.add_products, |delta . x| is
bounded over the variable box by D, and

    c.x <= D + y.beq + z.b

holds for every feasible x no matter how bad the dual approximation was.
A bad dual just yields a loose bound.

`solve_approx` is a stand-in for an industrial solver: a dense
floating-point solve with no rigor claim, used only to produce candidate
duals for certification.  HiGHS (through scipy's `linprog`) gets the
explicit rows as rows and the variable bounds as bounds; the bound
multipliers in z are its upper- and lower-bound marginals.  External
duals can be supplied through the dual-file interface instead.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from itertools import chain, compress
from typing import NamedTuple, Sequence

from . import interval as iv
from . import records as rec
from .errors import NoProgress, ParseError
from .interval import Interval

__all__ = [
    "LpProblem",
    "BoundCertificate",
    "make_problem",
    "certify_upper_bound",
    "augment_with_t",
    "solve_approx",
    "problem_to_text",
    "problem_from_text",
    "dual_from_text",
]

Matrix = tuple[tuple[float, ...], ...]
Vector = tuple[float, ...]


class LpProblem(NamedTuple):
    """Immutable LP data.  `aineq` holds the explicit rows only; the
    variable bounds are `var_bounds`.  `m_ineq` is the length of z: the
    rows plus two bound multipliers per variable."""

    aeq: Matrix
    beq: Vector
    aineq: Matrix
    bineq: Vector
    c: Vector
    var_bounds: tuple[Interval, ...]

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m_eq(self) -> int:
        return len(self.beq)

    @property
    def m_ineq(self) -> int:
        return len(self.bineq) + 2 * self.n


def _bound_rhs(p: LpProblem) -> Vector:
    """hi_j, -lo_j for each j: the bound rows' right-hand sides."""
    return tuple(chain.from_iterable((b.hi, -b.lo) for b in p.var_bounds))


def make_problem(c: Sequence[float],
                 var_bounds: Sequence[Interval],
                 aineq: Sequence[Sequence[float]] = (),
                 bineq: Sequence[float] = (),
                 aeq: Sequence[Sequence[float]] = (),
                 beq: Sequence[float] = ()) -> LpProblem:
    """Build an LpProblem from float-convertible data, checking shapes
    and that every bound is finite."""
    n = len(c)
    bounds = tuple(var_bounds)
    if len(bounds) != n:
        raise ValueError("var_bounds length must match objective length")
    for b in bounds:
        if not b.is_finite:
            raise ValueError("every variable must have finite bounds")
    rows = [tuple(map(float, row)) for row in aineq]
    rhs = [float(v) for v in bineq]
    if len(rows) != len(rhs):
        raise ValueError("aineq/bineq length mismatch")
    erows = [tuple(map(float, row)) for row in aeq]
    erhs = [float(v) for v in beq]
    if len(erows) != len(erhs):
        raise ValueError("aeq/beq length mismatch")
    for row in rows + erows:
        if len(row) != n:
            raise ValueError("constraint row length must match objective length")
    return LpProblem(aeq=tuple(erows), beq=tuple(erhs), aineq=tuple(rows), bineq=tuple(rhs),
                     c=tuple(float(v) for v in c), var_bounds=bounds)


class BoundCertificate(NamedTuple):
    bound: float
    delta_bound: float
    residual: tuple[Interval, ...]
    inputs_digest: str
    clamped: bool  # some negative z entry was zeroed


def certify_upper_bound(p: LpProblem, y: Sequence[float],
                        z: Sequence[float]) -> BoundCertificate:
    """Rigorous upper bound on max c.x from an approximate dual (y, z).

    Negative z entries are zeroed first (NaN and -0.0 pass unchanged) and
    reported in `clamped`.  The bound is sound for any y and the zeroed z:
    the residual bound D absorbs every approximation error.
    """
    y, z = tuple(map(float, y)), tuple(map(float, z))
    if len(y) != p.m_eq or len(z) != p.m_ineq:
        raise ValueError(f"dual dimensions ({len(y)}, {len(z)}) do not match problem "
                         f"({p.m_eq}, {p.m_ineq})")
    clamped = any(v < 0.0 for v in z)
    z = tuple(0.0 if v < 0.0 else v for v in z)

    # delta = c - y Aeq - z A, a column at a time: A stacks Aeq above Aineq
    # and m runs over y, then z.  delta_j adds to c_j the products
    # (-m_i) * A_ij over nonzero m_i and A_ij in row order, then x_j's bound
    # rows, 1 and -1 in column j alone: (-z_hi, 1.0) and (-z_lo, -1.0), each
    # where its multiplier is nonzero.  Each step rounds as add(delta_j,
    # mul(point(-m_i), point(A_ij))), to the bits of sub(delta_j,
    # mul(point(m_i), point(A_ij))).
    live = [(m, row) for m, row in zip(chain(y, z), chain(p.aeq, p.aineq)) if m != 0.0]
    neg_m = [-m for m, _ in live]
    cols = list(zip(*(row for _, row in live))) or [()] * p.n
    first = len(p.bineq)
    delta = []
    for c_j, col, z_hi, z_lo in zip(p.c, cols, z[first::2], z[first + 1::2]):
        xs, ys = list(compress(neg_m, col)), list(compress(col, col))
        for m, a in ((z_hi, 1.0), (z_lo, -1.0)):
            if m != 0.0:
                xs.append(-m)
                ys.append(a)
        delta.append(Interval(*iv.add_products(xs, ys, c_j, c_j)))
    delta = tuple(delta)

    # D = sum_j sup(|delta_j| * max(|lo_j|, |hi_j|)), then D + y.beq + z.b,
    # each term rounded as add(total, mul(point, point))
    d_lo, d_hi = iv.add_products([dj.mag for dj in delta], [b.mag for b in p.var_bounds])
    _, bound = iv.add_products(y + z, p.beq + p.bineq + _bound_rhs(p), d_lo, d_hi)
    return BoundCertificate(bound=bound, delta_bound=d_hi, residual=delta,
                            inputs_digest=_inputs_digest(p, y, z), clamped=clamped)


def _inputs_digest(p: LpProblem, y: Vector, z: Vector) -> str:
    """SHA-256 of the dimensions (n, m_eq, Aineq rows, m_ineq) as
    little-endian int64, then as little-endian binary64 c, Aeq, beq, Aineq,
    bineq, each variable's bound endpoints, y and z."""
    values = array("d", chain(p.c, *p.aeq, p.beq, *p.aineq, p.bineq,
                              chain.from_iterable((b.lo, b.hi) for b in p.var_bounds),
                              y, z))
    dims = array("q", (p.n, p.m_eq, len(p.bineq), p.m_ineq))
    if sys.byteorder == "big":
        dims.byteswap()
        values.byteswap()
    return hashlib.sha256(dims.tobytes() + values.tobytes()).hexdigest()


def augment_with_t(p: LpProblem, k: float) -> LpProblem:
    """K-t augmentation: add a variable t with objective weight K, column
    bineq on the inequality block (and beq on the equality block), and
    bounds 0 <= t <= 1.  x's bounds, scaled by 1 - t, become rows after
    the given ones; its box stays, redundant as 0 lies in it, so z grows
    by 2n + 2.  The result is feasible at (x=0, t=1) provided 0 lies
    within every variable's bounds, which is validated here.

    If the original optimum M exceeds K, the augmented optimum is still M
    and is attained with t = 0."""
    for i, b in enumerate(p.var_bounds):
        if not b.contains(0.0):
            raise ValueError(
                f"variable x{i} bounds [{b.lo}, {b.hi}] exclude 0; translate "
                "variables before augmenting"
            )
    bound_rows = (tuple(s if i == j else 0.0 for i in range(p.n))
                  for j in range(p.n) for s in (1.0, -1.0))
    rhs = p.bineq + tuple(v + 0.0 for v in _bound_rhs(p))  # -lo of 0 reads back as +0.0
    return LpProblem(
        aeq=tuple(row + (b,) for row, b in zip(p.aeq, p.beq)), beq=p.beq,
        aineq=tuple(row + (b,) for row, b in zip(chain(p.aineq, bound_rows), rhs)),
        bineq=rhs,
        c=p.c + (float(k),),
        var_bounds=p.var_bounds + (Interval(0.0, 1.0),),
    )


def solve_approx(p: LpProblem) -> tuple[Vector, tuple[Vector, Vector], float]:
    """Floating-point primal/dual solve (no rigor claim) intended only as
    input to certify_upper_bound.  Dense; a problem read from a file has
    at most records.MAX_DENSE_CELLS matrix cells in each of its eq and
    ineq blocks.

    Returns (primal x, (raw y, raw z), reported objective).  Raises
    NoProgress if the solver fails or p has no variables; the certification
    path then falls back to externally supplied duals."""
    if not p.n:
        raise NoProgress("approximate LP solve failed: the problem has no variables")
    import numpy as np
    from scipy.optimize import linprog

    # HiGHS gets the bounds as bounds; z takes their multipliers from
    # res.upper and res.lower, x_j <= hi_j's then -x_j <= -lo_j's, and
    # `+ 0.0` writes each zero as +0.0
    a_ub = np.array(p.aineq, dtype=float) if p.aineq else None
    b_ub = np.array(p.bineq, dtype=float) if p.aineq else None
    a_eq = np.array(p.aeq, dtype=float) if p.m_eq else None
    b_eq = np.array(p.beq, dtype=float) if p.m_eq else None
    res = linprog(
        -np.array(p.c, dtype=float),
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(b.lo, b.hi) for b in p.var_bounds],
        method="highs",
    )
    if res.status != 0 or res.x is None:
        raise NoProgress(f"approximate LP solve failed: {res.message}")
    y = tuple(float(-v) for v in res.eqlin.marginals) if p.m_eq else ()
    pairs = np.column_stack([-res.upper.marginals, res.lower.marginals])
    z = tuple(map(float, np.concatenate([-res.ineqlin.marginals, pairs.ravel()]) + 0.0))
    return tuple(float(v) for v in res.x), (y, z), float(-res.fun)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Problem file, in the record syntax of records.py: `vars N`, then sparse
# entries `obj j v`, `eq r j v` / `ineq r j v` (row r, column j),
# `eq_rhs r v` / `ineq_rhs r v`, and one `bound j lo..hi` per variable.
# Bounds stay bounds, so a problem read back equals the one written.

def problem_to_text(p: LpProblem) -> str:
    lines = ["lp-problem v1", f"vars {p.n}"]
    for j, v in enumerate(p.c):
        if v != 0.0:
            lines.append(f"obj {j} {v!r}")
    for r, row in enumerate(p.aeq):
        for j, v in enumerate(row):
            if v != 0.0:
                lines.append(f"eq {r} {j} {v!r}")
    for r, v in enumerate(p.beq):
        lines.append(f"eq_rhs {r} {v!r}")
    for r, row in enumerate(p.aineq):
        for j, v in enumerate(row):
            if v != 0.0:
                lines.append(f"ineq {r} {j} {v!r}")
    for r, v in enumerate(p.bineq):
        lines.append(f"ineq_rhs {r} {v!r}")
    for j, b in enumerate(p.var_bounds):
        lines.append(f"bound {j} {iv.format_interval_literal(b)}")
    return "\n".join(lines) + "\n"


_PROBLEM_FIELDS = {
    "vars": (rec.index,), "bound": (rec.index, rec.interval), "obj": (rec.index, rec.decimal),
    "eq": (rec.index, rec.index, rec.decimal), "eq_rhs": (rec.index, rec.decimal),
    "ineq": (rec.index, rec.index, rec.decimal), "ineq_rhs": (rec.index, rec.decimal),
}


def problem_from_text(text: str) -> LpProblem:
    cols = rec.read_columns(text, _PROBLEM_FIELDS, header="lp-problem")
    if "vars" not in cols:
        raise ParseError("missing 'vars N' declaration")
    n = cols["vars"].fields[0][-1]  # the last declaration wins
    # obj, bound, eq and ineq name their variable in the next-to-last field
    named = [cols[kw] for kw in ("obj", "bound", "eq", "ineq") if kw in cols]
    if any(max(c.fields[-2]) >= n for c in named):
        line, j = min((line, j) for c in named for line, j in zip(c.lines, c.fields[-2])
                      if j >= n)
        raise rec.line_error(line, f"variable {j} out of range for 'vars {n}'")
    t = {kw: dict(zip(*cols[kw].fields)) if kw in cols else {}  # later records win
         for kw in ("obj", "bound", "eq_rhs", "ineq_rhs")}
    if len(t["bound"]) != n:
        raise ParseError("every variable needs a bound entry")
    if n:  # each variable's last bound record, the one that wins
        last = dict(zip(cols["bound"].fields[0], cols["bound"].lines))
        infinite = [(last[j], j) for j, b in t["bound"].items() if not b.is_finite]
        if infinite:
            line, j = min(infinite)
            raise rec.line_error(line, f"variable {j} needs finite bounds")

    def dense(kw):  # kw's rows; named yields (line, row) for each of its records
        named = ((line, r) for k in (kw, kw + "_rhs") if k in cols
                 for line, r in zip(cols[k].lines, cols[k].fields[0]))
        entries = cols[kw].fields if kw in cols else ((), (), ())
        return rec.dense_rows(entries, t[kw + "_rhs"], n, named)

    aeq, beq = dense("eq")
    aineq, bineq = dense("ineq")
    return make_problem([t["obj"].get(j, 0.0) for j in range(n)],
                        [t["bound"][j] for j in range(n)],
                        aineq=aineq, bineq=bineq, aeq=aeq, beq=beq)


def dual_from_text(text: str) -> tuple[Vector, Vector]:
    """The y line, then the z line; an empty line is an empty vector.  Any
    later line must be blank or a comment."""
    lines = [rec.strip_comment(raw).split() for raw in text.splitlines()] + [[], []]
    for line, tokens in enumerate(lines[2:], start=3):
        if tokens:
            raise rec.line_error(line, "unexpected text after the z line")
    return tuple(tuple(rec.convert(i + 1, iv._nearest_floats, lines[i])) for i in (0, 1))
