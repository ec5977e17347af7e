"""Adaptive-subdivision proof engine for f < 0 (or f <= 0) over a box.

Each cell is evaluated once as a whole, value first: f's enclosure over
the cell is computed from f's instructions alone, and a cell whose f.hi
certifies is done, with no partial differentiated or evaluated.  Only
then does the cell get its germ, the first partials over it, resumed from
the value's slots.  An enclosure or germ that fails means f may not be
smooth on the cell (an evaluation failure).  Otherwise the cell is
*reduced*: every variable whose partial derivative has a certified strict
sign is collapsed to the extremal facet (sup f over the cell equals sup f
over the facet), which removes that dimension from further subdivision.
f.hi bounds f over the whole cell, so it bounds the reduced cell too; the
reduced cell is bounded by the Taylor form as well, and the smaller of
the two bounds is used.  Cells whose bound does not certify are bisected
along their widest non-degenerate component.  A failed cell is split like
any other, unless the failure is in an instruction of f that reads no
variable: that fails on every cell, the evaluator records it as it
compiles f (`fails_everywhere`), and the run stops at its first cell.

Each processed cell leaves one `Cell` record, and the report is folded
from them.  A split pushes its halves as "unvisited" records; what the
budget leaves is appended in pop order, so `ProofReport.cells` is one
depth-first preorder, lower half first.  Reported cells are footprints,
the cells before any collapse, so the leaves tile the domain; undecided
and failed ones are listed in ascending box order (as tuples of (lo, hi)
pairs).  No clock and no unordered iteration enters a run.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import IntervalError
from .expr import Evaluator, Expr, TaylorGerm
from .interval import Interval
from .taylor import Box, taylor_upper_bound

__all__ = [
    "ProofTask",
    "ProverConfig",
    "ProofStatus",
    "ProofReport",
    "Cell",
    "prove_negative",
    "prove_nonpositive",
    "reduce_cell",
]


@dataclass(frozen=True, slots=True)
class ProofTask:
    """Prove f <= -margin on the domain (strictly, for prove_negative)."""

    expr: Expr
    domain: Box
    margin: float = 0.0

    def __post_init__(self):
        if not (self.margin >= 0.0):
            raise ValueError("margin must be >= 0")


@dataclass(frozen=True, slots=True)
class ProverConfig:
    max_cells: int = 20000
    max_depth: int = 64
    min_width: float = 1e-6

    def __post_init__(self):
        if self.max_cells < 1:
            raise ValueError("max_cells must be >= 1")
        if self.max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if not (self.min_width > 0.0):
            raise ValueError("min_width must be > 0")


class ProofStatus(enum.Enum):
    PROVEN = "proven"
    UNDECIDED = "undecided"
    EVALUATION_FAILURE = "evaluation_failure"


class Cell(NamedTuple):
    footprint: Box
    cell: Box  # as bounded (reduced), or as split if unvisited
    depth: int
    upper: float  # an unvisited cell carries its parent's
    outcome: str  # value, taylor, split, undecided, failed or unvisited


class ProofReport(NamedTuple):
    status: ProofStatus
    cells_processed: int
    max_depth_reached: int
    best_upper_bound_seen: float
    # certified cells, by the bound that certified them
    cells_certified_by_germ: int = 0
    cells_certified_by_taylor: int = 0
    undecided_cells: tuple[Box, ...] = ()
    failed_cells: tuple[Box, ...] = ()
    cells: tuple[Cell, ...] = ()

    @property
    def proven(self) -> bool:
        return self.status is ProofStatus.PROVEN


def reduce_cell(germ: Optional[TaylorGerm], cell: Box) -> Box:
    """Collapse every component whose partial in the cell's germ has a
    certified strict sign to its extremal endpoint (no collapse without a
    germ).  sup f over the result equals sup f over the input cell."""
    if germ is None:
        return cell
    dims = tuple(d if d.lo == d.hi
                 else Interval.point(d.hi) if df.lo > 0.0
                 else Interval.point(d.lo) if df.hi < 0.0
                 else d
                 for d, df in zip(cell, germ.df))
    return cell if dims == cell else Box(dims)


def _run(ev: Evaluator, domain: Box, margin: float, strict: bool,
         cfg: ProverConfig) -> ProofReport:
    limit = -margin
    certifies = (lambda u: u < limit) if strict else (lambda u: u <= limit)
    stack = [Cell(domain, domain, 0, math.inf, "unvisited")]
    cells: list[Cell] = []

    while stack and len(cells) < cfg.max_cells:
        footprint, cell, depth, _, _ = stack.pop()

        # f's enclosure first; the gradient only for a cell it leaves open
        try:
            f, vals = ev.value_pass(cell)
            upper = f.hi
            germ = None if certifies(upper) else ev.resume_germ(vals)
            eval_failed = False
        except IntervalError:
            # Without a whole-cell germ, f may have a pole the Taylor bound misses.
            upper, germ, eval_failed = math.inf, None, True
        cell = reduce_cell(germ, cell)
        by_value = certifies(upper)
        if not (by_value or eval_failed):
            try:
                upper = min(taylor_upper_bound(ev, cell), upper)
            except IntervalError:
                eval_failed = True

        if certifies(upper):
            outcome = "value" if by_value else "taylor"
        else:
            # split the first widest component, if it is wider than min_width;
            # no cell of f whose constants fail is worth splitting
            k = max(range(len(cell)), key=lambda i: cell[i].width, default=None)
            if (k is None or cell[k].width <= cfg.min_width or depth >= cfg.max_depth
                    or ev.fails_everywhere):
                outcome = "failed" if eval_failed else "undecided"
            else:
                outcome = "split"  # the upper half goes on the stack first
                stack += [Cell(footprint.replace(k, half[k]), half, depth + 1, upper, "unvisited")
                          for half in reversed(cell.split(k))]
        cells.append(Cell(footprint, cell, depth, upper, outcome))
    # what the budget leaves is undecided, in pop order
    visited = len(cells)
    cells += reversed(stack)

    def footprints(*outcomes):
        return tuple(sorted(c.footprint for c in cells if c.outcome in outcomes))

    failed, undecided = footprints("failed"), footprints("undecided", "unvisited")
    return ProofReport(
        status=(ProofStatus.EVALUATION_FAILURE if failed else
                ProofStatus.UNDECIDED if undecided else ProofStatus.PROVEN),
        cells_processed=visited,
        max_depth_reached=max(c.depth for c in cells[:visited]),
        best_upper_bound_seen=max(c.upper for c in cells if c.outcome != "split"),
        cells_certified_by_germ=sum(c.outcome == "value" for c in cells),
        cells_certified_by_taylor=sum(c.outcome == "taylor" for c in cells),
        undecided_cells=undecided,
        failed_cells=failed,
        cells=tuple(cells),
    )


def prove_negative(task: ProofTask, cfg: ProverConfig = ProverConfig()) -> ProofReport:
    """Prove f < -margin on the domain by adaptive subdivision.

    PROVEN means the certified leaf cells cover the whole domain with a
    strict certified upper bound below -margin on each.  Equality-touching
    inequalities come back UNDECIDED, never PROVEN.
    """
    ev = Evaluator(task.expr, len(task.domain))
    return _run(ev, task.domain, task.margin, strict=True, cfg=cfg)


def prove_nonpositive(task: ProofTask, cfg: ProverConfig = ProverConfig()) -> ProofReport:
    """Prove f <= -margin on the domain (non-strict variant of
    prove_negative; certified upper bounds may touch the limit).

    This is the check used for duality certificate verification, where
    the inequality may bind at the optimum."""
    ev = Evaluator(task.expr, len(task.domain))
    return _run(ev, task.domain, task.margin, strict=False, cfg=cfg)
