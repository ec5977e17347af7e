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

A `Box` is the checked tuple of its `Interval`s, as an `Interval` is the
checked (lo, hi) pair.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import interval as iv
from .errors import NonFiniteOperand
from .expr import Evaluator
from .interval import Interval

__all__ = ["Box", "taylor_upper_bound"]


class Box(tuple):
    """Axis-aligned box: the immutable tuple of its finite intervals, one per
    variable, which indexes, compares, hashes and orders as that tuple does;
    len(box) is its dimension."""

    __slots__ = ()

    def __new__(cls, dims: Iterable[Interval]) -> "Box":
        self = tuple.__new__(cls, dims)
        for d in self:
            if not d.is_finite:
                raise NonFiniteOperand("box components must be finite")
        return self

    @classmethod
    def from_bounds(cls, bounds: Sequence[tuple[float, float]]) -> "Box":
        return cls(Interval(lo, hi) for lo, hi in bounds)

    def midpoint(self) -> tuple[float, ...]:
        return tuple(d.mid for d in self)

    def replace(self, i: int, component: Interval) -> "Box":
        return Box(self[:i] + (component,) + self[i + 1:])

    def split(self, i: int) -> tuple["Box", "Box"]:
        d = self[i]
        m = d.mid
        return self.replace(i, Interval(d.lo, m)), self.replace(i, Interval(m, d.hi))


def taylor_upper_bound(ev: Evaluator, box: Box) -> float:
    """Certified upper bound of the compiled function over the box.

    Raises the failing operation's IntervalError if interval evaluation
    fails anywhere in the chain.
    """
    if ev.arity != len(box):
        raise ValueError(f"evaluator arity {ev.arity} != box dimension {len(box)}")
    # The sum runs on plain (lo, hi) pairs.
    center_box = [(c, c) for c in box.midpoint()]
    # Upward-rounded radius around the (possibly off-center) midpoint, so
    # |x_i - c_i| <= w_i holds for every x in the box.
    w = []
    for d, c in zip(box, center_box):
        lo, hi = iv.sub(d, c)
        w.append(max(abs(lo), abs(hi)))
    germ = ev.germ(center_box)
    live = [i for i in range(len(box)) if w[i] != 0.0]
    total = iv.add_products([germ.df[i].mag for i in live],
                            [w[i] for i in live], germ.f.lo, germ.f.hi)
    entries = [(i, j) for i in live for j in live if i <= j]
    half = (0.5, 0.5)
    for (i, j), h in zip(entries, ev.hessian(box, entries)):
        m, wi, wj = h.mag, w[i], w[j]
        term = iv.mul((m, m), iv.mul((wi, wi), (wj, wj)))
        total = iv.add(total, term if i != j else iv.mul(half, term))
    return total[1]
