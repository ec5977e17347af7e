"""Rigorous upper bounds over boxes via degree-1 Taylor expansion with an
interval second-derivative remainder, and the whole-cell germ whose
partials give the prover its derivative signs.

The bound for a box with center c and half-widths w is

    upper = sup f(c) + sum_i sup|df_i(c)| * w_i
          + 1/2 * sum_ij sup|H_ij(box)| * w_i * w_j

computed entirely in outward-rounded interval arithmetic.  The accuracy
improves quadratically as the box shrinks, which is what drives the
adaptive subdivision in the prover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import interval as iv
from .errors import (
    BoundUnavailable,
    DivisionByZeroInterval,
    DomainError,
    NonFiniteOperand,
)
from .expr import Evaluator, TaylorGerm
from .interval import Interval

__all__ = ["Box", "taylor_upper_bound", "cell_germ", "germ_fails_everywhere"]

_EVAL_ERRORS = (DivisionByZeroInterval, DomainError, NonFiniteOperand, OverflowError)


@dataclass(frozen=True, slots=True)
class Box:
    """Axis-aligned box: a tuple of finite intervals, one per variable."""

    dims: tuple[Interval, ...]

    def __post_init__(self):
        dims = tuple(self.dims)
        object.__setattr__(self, "dims", dims)
        for d in dims:
            if not d.is_finite:
                raise NonFiniteOperand("box components must be finite")

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[float, float]]) -> "Box":
        return cls(tuple(Interval(lo, hi) for lo, hi in bounds))

    @property
    def n(self) -> int:
        return len(self.dims)

    def __len__(self) -> int:
        return len(self.dims)

    def __getitem__(self, i: int) -> Interval:
        return self.dims[i]

    def midpoint(self) -> tuple[float, ...]:
        return tuple(d.mid for d in self.dims)

    def volume(self) -> float:
        v = 1.0
        for d in self.dims:
            v *= d.width
        return v

    def replace(self, i: int, component: Interval) -> "Box":
        dims = list(self.dims)
        dims[i] = component
        return Box(tuple(dims))

    def split(self, i: int) -> tuple["Box", "Box"]:
        d = self.dims[i]
        m = d.mid
        return self.replace(i, Interval(d.lo, m)), self.replace(i, Interval(m, d.hi))

    def contains_point(self, point: Sequence[float]) -> bool:
        return all(d.contains(x) for d, x in zip(self.dims, point))


def _half_widths(box: Box, center: tuple[float, ...]) -> tuple[float, ...]:
    # Upward-rounded radius around the (possibly off-center) midpoint, so
    # |x_i - c_i| <= w_i holds for every x in the box.
    out = []
    for d, c in zip(box.dims, center):
        left = iv.sub(Interval.point(c), Interval.point(d.lo)).hi
        right = iv.sub(Interval.point(d.hi), Interval.point(c)).hi
        out.append(max(left, right, 0.0))
    return tuple(out)


def taylor_upper_bound(ev: Evaluator, box: Box) -> float:
    """Certified upper bound of the compiled function over the box.

    Raises BoundUnavailable if interval evaluation fails anywhere in the
    chain (callers treat that as bound = +inf).
    """
    if ev.arity != box.n:
        raise ValueError(f"evaluator arity {ev.arity} != box dimension {box.n}")
    try:
        center = box.midpoint()
        w = _half_widths(box, center)
        center_box = tuple(Interval.point(c) for c in center)
        germ = ev.germ(center_box)
        live = [i for i in range(box.n) if w[i] != 0.0]
        total = germ.f
        for i in live:
            total = iv.add(total, iv.mul(
                Interval.point(germ.df[i].mag), Interval.point(w[i])))
        entries = [(i, j) for i in live for j in live if i <= j]
        half = Interval(0.5, 0.5)
        for (i, j), h in zip(entries, ev.hessian(box.dims, entries)):
            term = iv.mul(Interval.point(h.mag),
                          iv.mul(Interval.point(w[i]), Interval.point(w[j])))
            total = iv.add(total, term if i != j else iv.mul(half, term))
        return total.hi
    except _EVAL_ERRORS as exc:
        raise BoundUnavailable(str(exc)) from exc


def cell_germ(ev: Evaluator, box: Box) -> Optional[TaylorGerm]:
    """The whole-cell germ: f and every first partial over the box, or None
    if interval evaluation fails.  A germ that succeeds has evaluated f and
    every first partial over the box, so each denominator they contain
    (atan's too) excludes zero, and its f.hi bounds f over the box."""
    try:
        return ev.germ(box.dims)
    except _EVAL_ERRORS:
        return None


def germ_fails_everywhere(ev: Evaluator) -> bool:
    """Whether the germ fails in an instruction that reads no variable, and
    so fails over every box alike."""
    try:
        ev.germ_constants()
    except _EVAL_ERRORS:
        return True
    return False
