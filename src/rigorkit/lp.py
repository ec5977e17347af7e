"""Rigorous certification of linear-program upper bounds.

The primal form is

    max c.x   subject to   Aeq x = beq,  Aineq x <= bineq,  x free,

where every variable additionally has finite lower/upper bounds whose
rows are part of Aineq (this keeps both the primal and the dual feasible
and bounded for the problems we care about).

`certify_upper_bound` turns *any* approximate dual vector (y free,
z >= 0) into a rigorous bound: the residual row vector

    delta = c - y Aeq - z Aineq

is computed in interval arithmetic, |delta . x| is bounded over the
variable box by D, and

    c.x <= D + y.beq + z.bineq

holds for every feasible x no matter how bad the dual approximation was.
A bad dual just yields a loose bound.

`solve_approx` is a stand-in for an industrial solver: a dense
floating-point solve with no rigor claim, used only to produce candidate
duals for certification.  External duals can be supplied through the
dual-file interface instead.
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from . import interval as iv
from . import records as rec
from .errors import AugmentationError, NoProgress, ParseError
from .interval import Interval

__all__ = [
    "LpProblem",
    "DualSolution",
    "BoundCertificate",
    "make_problem",
    "clamp_dual",
    "certify_upper_bound",
    "augment_with_t",
    "solve_approx",
    "problem_to_text",
    "problem_from_text",
    "dual_to_text",
    "dual_from_text",
]

Matrix = tuple[tuple[float, ...], ...]
Vector = tuple[float, ...]


@dataclass(frozen=True, slots=True)
class LpProblem:
    """Immutable LP data.  `aineq` includes the 2n variable-bound rows;
    `n_core_ineq` is the number of rows that precede them (used only by
    the serializer so files do not duplicate bound rows)."""

    aeq: Matrix
    beq: Vector
    aineq: Matrix
    bineq: Vector
    c: Vector
    var_bounds: tuple[Interval, ...]
    n_core_ineq: int

    @property
    def n(self) -> int:
        return len(self.c)

    @property
    def m_eq(self) -> int:
        return len(self.beq)

    @property
    def m_ineq(self) -> int:
        return len(self.bineq)


def make_problem(c: Sequence[float],
                 var_bounds: Sequence[Interval],
                 aineq: Sequence[Sequence[float]] = (),
                 bineq: Sequence[float] = (),
                 aeq: Sequence[Sequence[float]] = (),
                 beq: Sequence[float] = ()) -> LpProblem:
    """Build an LpProblem, appending the variable-bound rows
    x_i <= ub_i and -x_i <= -lb_i to the inequality block."""
    n = len(c)
    bounds = tuple(var_bounds)
    if len(bounds) != n:
        raise ValueError("var_bounds length must match objective length")
    for b in bounds:
        if not b.is_finite:
            raise ValueError("every variable must have finite bounds")
    rows = [tuple(float(v) for v in row) for row in aineq]
    rhs = [float(v) for v in bineq]
    if len(rows) != len(rhs):
        raise ValueError("aineq/bineq length mismatch")
    erows = [tuple(float(v) for v in row) for row in aeq]
    erhs = [float(v) for v in beq]
    if len(erows) != len(erhs):
        raise ValueError("aeq/beq length mismatch")
    for row in rows + erows:
        if len(row) != n:
            raise ValueError("constraint row length must match objective length")
    n_core = len(rows)
    for i, b in enumerate(bounds):
        upper = [0.0] * n
        upper[i] = 1.0
        rows.append(tuple(upper))
        rhs.append(b.hi)
        lower = [0.0] * n
        lower[i] = -1.0
        rows.append(tuple(lower))
        rhs.append(-b.lo)
    return LpProblem(
        aeq=tuple(erows), beq=tuple(erhs),
        aineq=tuple(rows), bineq=tuple(rhs),
        c=tuple(float(v) for v in c),
        var_bounds=bounds,
        n_core_ineq=n_core,
    )


@dataclass(frozen=True, slots=True)
class DualSolution:
    y: Vector
    z: Vector
    clamped: bool = False


def clamp_dual(y: Sequence[float], z: Sequence[float]) -> DualSolution:
    """Zero out negative inequality multipliers; y stays free."""
    clamped = False
    cleaned = []
    for v in z:
        v = float(v)
        if v < 0.0:
            cleaned.append(0.0)
            clamped = True
        else:
            cleaned.append(v)
    return DualSolution(tuple(float(v) for v in y), tuple(cleaned), clamped)


@dataclass(frozen=True, slots=True)
class BoundCertificate:
    bound: float
    delta_bound: float
    residual: tuple[Interval, ...]
    inputs_digest: str


def certify_upper_bound(p: LpProblem, d: DualSolution) -> BoundCertificate:
    """Rigorous upper bound on max c.x from an approximate dual.

    Sound for any y and any z >= 0: the residual bound D absorbs every
    approximation error.
    """
    if len(d.y) != p.m_eq or len(d.z) != p.m_ineq:
        raise ValueError(
            f"dual dimensions ({len(d.y)}, {len(d.z)}) do not match problem "
            f"({p.m_eq}, {p.m_ineq})"
        )
    for v in d.z:
        if v < 0.0:
            raise ValueError("z must be componentwise nonnegative; clamp_dual first")

    # delta = c - y Aeq - z Aineq, on endpoint lists, each nonzero rounded
    # as the sub(delta_j, mul(point, point)) of interval arithmetic.
    lo = [Interval.point(v).lo for v in p.c]  # a NaN raises here, as before
    hi = list(lo)
    iv.subtract_products(lo, hi, d.y, p.aeq)
    iv.subtract_products(lo, hi, d.z, p.aineq)
    delta = [Interval(a, b) for a, b in zip(lo, hi)]

    # D = sum_j sup(|delta_j| * max(|lo_j|, |hi_j|))
    d_total = Interval.point(0.0)
    for dj, b in zip(delta, p.var_bounds):
        d_total = iv.add(d_total, iv.mul(Interval.point(dj.mag), Interval.point(b.mag)))

    bound_total = d_total
    for i, yi in enumerate(d.y):
        bound_total = iv.add(bound_total, iv.mul(Interval.point(yi), Interval.point(p.beq[i])))
    for i, zi in enumerate(d.z):
        bound_total = iv.add(bound_total, iv.mul(Interval.point(zi), Interval.point(p.bineq[i])))

    digest = _inputs_digest(p, d)
    return BoundCertificate(
        bound=bound_total.hi,
        delta_bound=d_total.hi,
        residual=tuple(delta),
        inputs_digest=digest,
    )


def _inputs_digest(p: LpProblem, d: DualSolution) -> str:
    """SHA-256 of the dimensions (n, m_eq, core inequality rows, m_ineq) as
    little-endian int64, then as little-endian binary64 c, Aeq, beq, the
    core Aineq rows and bineq, each variable's bound endpoints, y and z."""
    core = p.n_core_ineq
    values = array("d", chain(p.c, *p.aeq, p.beq, *p.aineq[:core], p.bineq[:core],
                              chain.from_iterable((b.lo, b.hi) for b in p.var_bounds),
                              d.y, d.z))
    dims = array("q", (p.n, p.m_eq, core, p.m_ineq))
    if sys.byteorder == "big":
        dims.byteswap()
        values.byteswap()
    return hashlib.sha256(dims.tobytes() + values.tobytes()).hexdigest()


def augment_with_t(p: LpProblem, k: float) -> LpProblem:
    """K-t augmentation: add a variable t with objective weight K, column
    bineq on the inequality block (and beq on the equality block), and
    bounds 0 <= t <= 1.  The result is feasible at (x=0, t=1) provided 0
    lies within every variable's bounds, which is validated here.

    If the original optimum M exceeds K, the augmented optimum is still M
    and is attained with t = 0."""
    for i, b in enumerate(p.var_bounds):
        if not b.contains(0.0):
            raise AugmentationError(
                f"variable x{i} bounds [{b.lo}, {b.hi}] exclude 0; translate "
                "variables before augmenting"
            )
    rows = [row + (p.bineq[i],) for i, row in enumerate(p.aineq)]
    rhs = list(p.bineq)
    n_core = len(rows)
    t_col = p.n
    upper = [0.0] * (p.n + 1)
    upper[t_col] = 1.0
    rows.append(tuple(upper))
    rhs.append(1.0)
    lower = [0.0] * (p.n + 1)
    lower[t_col] = -1.0
    rows.append(tuple(lower))
    rhs.append(0.0)
    erows = tuple(row + (p.beq[i],) for i, row in enumerate(p.aeq))
    return LpProblem(
        aeq=erows, beq=p.beq,
        aineq=tuple(rows), bineq=tuple(rhs),
        c=p.c + (float(k),),
        var_bounds=p.var_bounds + (Interval(0.0, 1.0),),
        n_core_ineq=n_core,
    )


def solve_approx(p: LpProblem) -> tuple[Vector, tuple[Vector, Vector], float]:
    """Floating-point primal/dual solve (no rigor claim) intended only as
    input to certify_upper_bound.  Dense; adequate to n, m <= 500.

    Returns (primal x, (raw y, raw z), reported objective).  Raises
    NoProgress if the underlying solver fails; the certification path then
    falls back to externally supplied duals."""
    import numpy as np
    from scipy.optimize import linprog

    a_ub = np.array(p.aineq, dtype=float) if p.m_ineq else None
    b_ub = np.array(p.bineq, dtype=float) if p.m_ineq else None
    a_eq = np.array(p.aeq, dtype=float) if p.m_eq else None
    b_eq = np.array(p.beq, dtype=float) if p.m_eq else None
    res = linprog(
        -np.array(p.c, dtype=float),
        A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq,
        bounds=[(None, None)] * p.n,
        method="highs",
    )
    if res.status != 0 or res.x is None:
        raise NoProgress(f"approximate LP solve failed: {res.message}")
    y = tuple(float(-v) for v in res.eqlin.marginals) if p.m_eq else ()
    z = tuple(float(-v) for v in res.ineqlin.marginals) if p.m_ineq else ()
    return tuple(float(v) for v in res.x), (y, z), float(-res.fun)


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------
#
# Problem file, in the record syntax of records.py: `vars N`, then sparse
# entries `obj j v`, `eq r j v` / `ineq r j v` (row r, column j; core
# inequality rows only), `eq_rhs r v` / `ineq_rhs r v`, and one `bound j
# lo..hi` per variable.  Bound rows are appended on load.

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
    for r in range(p.n_core_ineq):
        for j, v in enumerate(p.aineq[r]):
            if v != 0.0:
                lines.append(f"ineq {r} {j} {v!r}")
    for r in range(p.n_core_ineq):
        lines.append(f"ineq_rhs {r} {p.bineq[r]!r}")
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
    t = {kw: cols[kw].table() if kw in cols else {}
         for kw in ("obj", "bound", "eq", "eq_rhs", "ineq", "ineq_rhs")}
    if len(t["bound"]) != n:
        raise ParseError("every variable needs a bound entry")

    def named(*kws):  # (line, row) of each record of these keywords
        return ((line, r) for kw in kws if kw in cols
                for line, r in zip(cols[kw].lines, cols[kw].fields[0]))

    aeq, beq = rec.dense_rows(t["eq"], t["eq_rhs"], n, named("eq", "eq_rhs"))
    aineq, bineq = rec.dense_rows(t["ineq"], t["ineq_rhs"], n, named("ineq", "ineq_rhs"))
    return make_problem([t["obj"].get(j, 0.0) for j in range(n)],
                        [t["bound"][j] for j in range(n)],
                        aineq=aineq, bineq=bineq, aeq=aeq, beq=beq)


def dual_to_text(y: Sequence[float], z: Sequence[float]) -> str:
    y_line = " ".join(repr(float(v)) for v in y)
    z_line = " ".join(repr(float(v)) for v in z)
    return f"{y_line}\n{z_line}\n"


def dual_from_text(text: str) -> tuple[Vector, Vector]:
    """The y line, then the z line; an empty line is an empty vector."""
    lines = [rec.strip_comment(raw).split() for raw in text.splitlines()] + [[], []]
    return tuple(tuple(rec.convert(i + 1, rec.decimal, tok) for tok in lines[i]) for i in (0, 1))
