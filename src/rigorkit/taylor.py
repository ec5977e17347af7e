"""Rigorous upper bounds over boxes via degree-1 Taylor expansion with an
interval second-derivative remainder.

The bound for a box with center c and half-widths w is

    upper = sup f(c) + sum_i sup|df_i(c)| * w_i
          + 1/2 * sum_ij sup|H_ij(box)| * w_i * w_j

computed entirely in outward-rounded interval arithmetic.  The accuracy
improves quadratically as the box shrinks, which is what drives the
adaptive subdivision in the prover.  Where interval arithmetic cannot
enclose a term, the bound raises that operation's IntervalError; the
prover, not this module, turns it into a verdict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import interval as iv
from .errors import NonFiniteOperand
from .expr import Evaluator
from .interval import Interval

__all__ = ["Box", "taylor_upper_bound"]


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


def taylor_upper_bound(ev: Evaluator, box: Box) -> float:
    """Certified upper bound of the compiled function over the box.

    Raises the failing operation's IntervalError if interval evaluation
    fails anywhere in the chain.
    """
    if ev.arity != box.n:
        raise ValueError(f"evaluator arity {ev.arity} != box dimension {box.n}")
    # The sum runs on plain (lo, hi) pairs.
    center_box = [(c, c) for c in box.midpoint()]
    # Upward-rounded radius around the (possibly off-center) midpoint, so
    # |x_i - c_i| <= w_i holds for every x in the box.
    w = []
    for d, c in zip(box.dims, center_box):
        lo, hi = iv.sub(d, c)
        w.append(max(abs(lo), abs(hi)))
    germ = ev.germ(center_box)
    live = [i for i in range(box.n) if w[i] != 0.0]
    total = iv.add_products([germ.df[i].mag for i in live],
                            [w[i] for i in live], germ.f.lo, germ.f.hi)
    entries = [(i, j) for i in live for j in live if i <= j]
    half = (0.5, 0.5)
    for (i, j), h in zip(entries, ev.hessian(box.dims, entries)):
        m, wi, wj = h.mag, w[i], w[j]
        term = iv.mul((m, m), iv.mul((wi, wi), (wj, wj)))
        total = iv.add(total, term if i != j else iv.mul(half, term))
    return total[1]
