"""Rigorous upper bounds over boxes via degree-1 Taylor expansion with an
interval second-derivative remainder.

For a box with center c and half-widths w, let a_i = mag df_i(c) and
h_i = sup H_ii(box).  The bound is

    upper = sup f(c) + sum_i T_i + sum_{i<j} mag H_ij(box) * w_i * w_j

where T_i bounds the first- and second-order terms of coordinate i
together, over the distance e = |x_i - c_i| in [0, w_i]:

    T_i = a_i * w_i + 1/2 * h_i * w_i**2          if h_i >= 0
    T_i = max_e  a_i * e - 1/2 * |h_i| * e**2       if h_i < 0
        = a_i * w_i - 1/2 * |h_i| * w_i**2          if a_i >= |h_i| * w_i
        = a_i**2 / (2 * |h_i|)                      otherwise

so a direction in which f is concave costs at most its linear term, and
less where the curvature turns the slope within the box.  Everything is
computed in outward-rounded interval arithmetic.  The accuracy improves
quadratically as the box shrinks, which is what drives the adaptive
subdivision in the prover.  Where interval arithmetic cannot enclose a
term, the bound raises that operation's IntervalError; the prover, not
this module, turns it into a verdict.

A `Box` is the checked tuple of its `Interval`s, as an `Interval` is the
checked (lo, hi) pair.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from . import interval as iv
from .errors import NonFiniteOperand
from .expr import Evaluator
from .interval import Interval, _add_up, _div_up, _mul_down, _mul_up

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

    After the germ at c and the Hessian over the box, `_concave_term` gives
    T_i for each coordinate with h_i < 0 whose a_i, |h_i| and w_i are all
    below 2**340; any other coordinate with h_i < 0 takes a_i * w_i, which
    is never below it.  Then the sum is accumulated by iv.add on point
    intervals in this order: f(c); for each coordinate i with w_i > 0,
    that T_i or a_i * w_i; then each Hessian entry (i, j), i <= j, row by
    row: mag H_ij * (w_i * w_j) off the diagonal, and 1/2 * (h_i * (w_i *
    w_i)) on it where h_i >= 0.  Raises the failing operation's
    IntervalError if interval evaluation fails anywhere in the chain.
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
    entries = [(i, j) for i in live for j in live if i <= j]
    hessian = ev.hessian(box, entries)
    # a concave coordinate's whole term enters the dot product times 1
    slopes, widths = [], []
    for (i, j), h in zip(entries, hessian):
        if i == j:
            a, hi, wi = germ.df[i].mag, h.hi, w[i]
            if -_MODERATE < hi < 0.0 and a < _MODERATE and wi < _MODERATE:
                slopes.append(_concave_term(a, hi, wi))
                widths.append(1.0)
            else:
                slopes.append(a)
                widths.append(wi)
    total = iv.add_products(slopes, widths, germ.f.lo, germ.f.hi)
    half = (0.5, 0.5)
    for (i, j), h in zip(entries, hessian):
        if i != j:
            m = h.mag
        elif h.hi >= 0.0:
            m = abs(h.hi)  # a -0.0 adds as 0.0
        else:
            continue  # in T_i
        wi, wj = w[i], w[j]
        term = iv.mul((m, m), iv.mul((wi, wi), (wj, wj)))
        total = iv.add(total, term if i != j else iv.mul(half, term))
    return total[1]


# Below this, a_i, |h_i| and w_i make no step of _concave_term overflow.
_MODERATE = 2.0 ** 340


def _concave_term(a: float, h: float, w: float) -> float:
    """Upper bound of max(a*e + h*e*e/2 for 0 <= e <= w), for a >= 0,
    h <= 0 and w >= 0: a*w - k*w*w/2 where a >= k*w, the vertex's value
    a*a/(2k) otherwise, with k = -h.  It is the upper end of the chain

        iv.sub(a*w, 1/2 * (k * (w*w)))  if a >= (k*w).hi
        iv.div(a*a, 2*k)                otherwise

    on point intervals, or of a*w if that is lower, computed by the
    directed-rounding kernels that chain would call.  The branch test
    rounds k*w up: the first formula bounds the maximum only if a >= k*w
    holds exactly, while the second bounds it always."""
    k = -h
    linear = _mul_up(a, w)
    if a >= _mul_up(k, w):
        t = _add_up(linear, -_mul_down(0.5, _mul_down(k, _mul_down(w, w))))
    else:
        t = _div_up(_mul_up(a, a), _mul_down(2.0, k))
    return min(t, linear)
