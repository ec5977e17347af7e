"""Adaptive-subdivision proof engine for f < 0 (or f <= 0) over a box.

Each cell is evaluated once as a whole: the whole-cell germ encloses f and
every first partial over it.  A germ that fails means f may not be smooth
on the cell (an evaluation failure).  Otherwise the cell is *reduced*:
every variable whose partial derivative has a certified strict sign is
collapsed to the extremal facet (sup f over the cell equals sup f over the
facet), which removes that dimension from further subdivision.  The
germ's f.hi bounds f over the whole cell, so it bounds the reduced cell
too; only when it does not certify is the reduced cell bounded by the
Taylor form as well, and the smaller of the two bounds is used.  Cells
whose bound does not certify are bisected along their widest
non-degenerate component.

Reported cells are always *footprints*: collapsed cells re-inflated to
their pre-reduction parents, so the leaves of a run exactly tile the
original domain.

The engine is deterministic: depth-first, lower half first, no clocks,
no unordered iteration.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from .errors import IntervalError
from .expr import Evaluator, Expr, TaylorGerm
from .interval import Interval
from .taylor import Box, taylor_upper_bound

__all__ = [
    "ProofTask",
    "ProverConfig",
    "ProofStatus",
    "ProofReport",
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
    track_cells: bool = False

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


@dataclass(frozen=True, slots=True)
class ProofReport:
    status: ProofStatus
    cells_processed: int
    max_depth_reached: int
    best_upper_bound_seen: float
    # certified cells, by the bound that certified them
    cells_certified_by_germ: int = 0
    cells_certified_by_taylor: int = 0
    undecided_cells: tuple[Box, ...] = ()
    failed_cells: tuple[Box, ...] = ()
    certified_cells: tuple[Box, ...] = ()

    @property
    def proven(self) -> bool:
        return self.status is ProofStatus.PROVEN


# `ev` is unused; it keeps the cell second, where the benchmark's tracer reads it.
def reduce_cell(ev: Evaluator, cell: Box, germ: Optional[TaylorGerm]) -> Box:
    """Collapse every component whose partial in the cell's germ has a
    certified strict sign to its extremal endpoint (no collapse without a
    germ).  sup f over the result equals sup f over the input cell."""
    if germ is None:
        return cell
    dims = list(cell.dims)
    changed = False
    for i, df in enumerate(germ.df):
        d = dims[i]
        if d.lo == d.hi:
            continue
        if df.lo > 0.0:
            dims[i] = Interval.point(d.hi)
            changed = True
        elif df.hi < 0.0:
            dims[i] = Interval.point(d.lo)
            changed = True
    return Box(tuple(dims)) if changed else cell


def _pick_split_dim(cell: Box, min_width: float) -> int:
    best = -1
    best_w = min_width
    for i, d in enumerate(cell.dims):
        w = d.width
        if w > best_w:
            best = i
            best_w = w
    return best


def _run(ev: Evaluator, domain: Box, margin: float, strict: bool,
         cfg: ProverConfig) -> ProofReport:
    limit = -margin
    certifies = (lambda u: u < limit) if strict else (lambda u: u <= limit)
    # Work items: (footprint, reduced-or-original cell, depth, parent_upper)
    stack = [(domain, domain, 0, math.inf)]
    processed = 0
    max_depth_seen = 0
    best_upper = -math.inf
    undecided: list[Box] = []
    failed: list[Box] = []
    certified: list[Box] = []
    by_germ_count = by_taylor_count = 0
    exhausted = False
    # Decided at the first cell whose germ fails: whether the failure is in
    # an instruction that reads no variable, and so recurs on every cell.
    hopeless = None

    while stack:
        if processed >= cfg.max_cells:
            exhausted = True
            break
        footprint, cell, depth, _parent_upper = stack.pop()
        processed += 1
        max_depth_seen = max(max_depth_seen, depth)

        try:
            germ = ev.germ(cell.dims)
        except IntervalError:
            germ = None
        cell = reduce_cell(ev, cell, germ)
        # Without a whole-cell germ, f may have a pole the Taylor bound misses.
        eval_failed = germ is None
        if eval_failed and hopeless is None:
            try:
                ev.germ_constants()
                hopeless = False
            except IntervalError:
                hopeless = True  # ends the run at this, the first cell
        upper = math.inf if eval_failed else germ.f.hi
        by_germ = certifies(upper)
        if not (by_germ or eval_failed):
            try:
                upper = min(taylor_upper_bound(ev, cell), upper)
            except IntervalError:
                eval_failed = True

        if certifies(upper):
            best_upper = max(best_upper, upper)
            by_germ_count += by_germ
            by_taylor_count += not by_germ
            if cfg.track_cells:
                certified.append(footprint)
            continue

        k = _pick_split_dim(cell, cfg.min_width)
        if k < 0 or depth >= cfg.max_depth or hopeless:
            best_upper = max(best_upper, upper)
            (failed if eval_failed else undecided).append(footprint)
            if hopeless:
                break
            continue

        lo_cell, hi_cell = cell.split(k)
        lo_fp, hi_fp = footprint.replace(k, lo_cell[k]), footprint.replace(k, hi_cell[k])
        stack.append((hi_fp, hi_cell, depth + 1, upper))
        stack.append((lo_fp, lo_cell, depth + 1, upper))

    if exhausted:
        for footprint, _cell, _depth, parent_upper in stack:
            undecided.append(footprint)
            best_upper = max(best_upper, parent_upper)

    if failed:
        status = ProofStatus.EVALUATION_FAILURE
    elif undecided:
        status = ProofStatus.UNDECIDED
    else:
        status = ProofStatus.PROVEN

    def cell_key(b: Box):
        return tuple((d.lo, d.hi) for d in b.dims)

    return ProofReport(
        status=status,
        cells_processed=processed,
        max_depth_reached=max_depth_seen,
        best_upper_bound_seen=best_upper,
        cells_certified_by_germ=by_germ_count,
        cells_certified_by_taylor=by_taylor_count,
        undecided_cells=tuple(sorted(undecided, key=cell_key)),
        failed_cells=tuple(sorted(failed, key=cell_key)),
        certified_cells=tuple(certified),
    )


def prove_negative(task: ProofTask, cfg: ProverConfig = ProverConfig()) -> ProofReport:
    """Prove f < -margin on the domain by adaptive subdivision.

    PROVEN means the certified leaf cells cover the whole domain with a
    strict certified upper bound below -margin on each.  Equality-touching
    inequalities come back UNDECIDED, never PROVEN.
    """
    ev = Evaluator(task.expr, task.domain.n)
    return _run(ev, task.domain, task.margin, strict=True, cfg=cfg)


def prove_nonpositive(task: ProofTask, cfg: ProverConfig = ProverConfig()) -> ProofReport:
    """Prove f <= -margin on the domain (non-strict variant of
    prove_negative; certified upper bounds may touch the limit).

    This is the check used for duality certificate verification, where
    the inequality may bind at the optimum."""
    ev = Evaluator(task.expr, task.domain.n)
    return _run(ev, task.domain, task.margin, strict=False, cfg=cfg)
