"""Rigorous coordinate checks for point configurations with distance
constraints, by the pivot argument: each check binds the constraints at
their extremes and decides only the resulting extremal configuration.
`check_linked_line` binds one fixed pattern: every frame pair and (0, q)
at its cap, and (p1, q) at its floor.

Points are plain (x, y, z) tuples of (lo, hi) pairs, as the interval
operations return them, so every derived quantity is an enclosure.  Four
points' six distances are passed in one order, d01 d02 d03 d12 d13 d23,
the order `geom simplex --edges` takes them in.
The module certifies only what interval arithmetic proves about the
extremal configuration of each check: a verdict of NoSuchConfiguration
means the extremal configuration rigorously violates a constraint;
everything else is Inconclusive, including a check whose interval
arithmetic raises an IntervalError (an overflow, a zero divisor, a
domain violation), with the error as its reason.  Whether the pivot
argument applies in a given parameter regime is the caller's
responsibility.

The coordinate gauge is fixed throughout: first point at the origin,
second on the positive x axis, third in the upper half of the xy plane,
fourth with z >= 0.
"""

from __future__ import annotations

import enum
import math
from functools import cache
from itertools import permutations
from typing import Callable, NamedTuple, Optional, Sequence

from . import interval as iv
from . import records as rec
from .errors import IntervalError, ParseError, PivotInfeasible
from .interval import Interval, Pair

__all__ = [
    "Vec3",
    "DistanceSpec",
    "Verdict",
    "CheckResult",
    "LinkStatus",
    "rigid_realization",
    "cayley_menger_det",
    "line_links_triangle",
    "check_simplex_interior_point",
    "check_segment_through_triangle",
    "check_linked_line",
    "parse_distance_spec",
]

Vec3 = tuple[Pair, Pair, Pair]

_ZERO = Interval(0.0, 0.0)
_ONE = Interval(1.0, 1.0)
_TWO = Interval(2.0, 2.0)


def _v_add(a: Vec3, b: Vec3) -> Vec3:
    return (iv.add(a[0], b[0]), iv.add(a[1], b[1]), iv.add(a[2], b[2]))


def _v_sub(a: Vec3, b: Vec3) -> Vec3:
    return (iv.sub(a[0], b[0]), iv.sub(a[1], b[1]), iv.sub(a[2], b[2]))


def _v_scale(s: Pair, a: Vec3) -> Vec3:
    return (iv.mul(s, a[0]), iv.mul(s, a[1]), iv.mul(s, a[2]))


def _v_dot(a: Vec3, b: Vec3) -> Pair:
    return iv.add(iv.add(iv.mul(a[0], b[0]), iv.mul(a[1], b[1])), iv.mul(a[2], b[2]))


def _v_cross(a: Vec3, b: Vec3) -> Vec3:
    return (
        iv.sub(iv.mul(a[1], b[2]), iv.mul(a[2], b[1])),
        iv.sub(iv.mul(a[2], b[0]), iv.mul(a[0], b[2])),
        iv.sub(iv.mul(a[0], b[1]), iv.mul(a[1], b[0])),
    )


def _dist(a: Vec3, b: Vec3) -> Pair:
    d = _v_sub(a, b)
    return iv.sqrt_interval(_v_dot(d, d))


def _sqrt_nonneg(x: Pair, what: str) -> Pair:
    """sqrt of a quantity that must be >= 0 for the configuration to
    exist: certainly negative raises PivotInfeasible, straddling zero
    clamps (sound: real solutions, if any, are inside)."""
    lo, hi = x
    if hi < 0.0:
        raise PivotInfeasible(f"{what} is certainly negative ({lo}, {hi})")
    return iv.sqrt_interval(x)


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

class DistanceSpec(NamedTuple):
    """Pairwise lower/upper distance thresholds; +inf upper caps allowed."""

    labels: tuple[str, ...]
    dmin: dict
    dmax: dict

    def lower(self, i: int, j: int) -> Interval:
        return self.dmin.get((min(i, j), max(i, j)), _ZERO)

    def upper(self, i: int, j: int) -> Interval:
        return self.dmax.get((min(i, j), max(i, j)), Interval(math.inf, math.inf))


class Verdict(enum.Enum):
    NO_SUCH_CONFIGURATION = "no_such_configuration"
    INCONCLUSIVE = "inconclusive"


class CheckResult(NamedTuple):
    verdict: Verdict
    reason: str = ""
    witness: Optional[Interval] = None
    # Sweep cells tested; None for the checks that sweep nothing.
    sweep_cells: Optional[int] = None

    @property
    def refuted(self) -> bool:
        return self.verdict is Verdict.NO_SUCH_CONFIGURATION


class LinkStatus(enum.Enum):
    LINKED = "linked"
    NOT_LINKED = "not_linked"
    UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# Coordinate realization
# ---------------------------------------------------------------------------

# The pairs of four points, in the order their six distances are passed.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def _sq(d: Pair) -> Pair:
    return iv.pow_int(d, 2)


def _place_third(d01: Pair, d02: Pair, d12: Pair) -> tuple[Vec3, Vec3, Vec3]:
    """p0 at origin, p1 on +x at distance d01, p2 in the upper xy plane."""
    p0 = (_ZERO, _ZERO, _ZERO)
    p1 = (d01, _ZERO, _ZERO)
    x2 = iv.div(iv.sub(iv.add(_sq(d01), _sq(d02)), _sq(d12)),
                iv.mul(_TWO, d01))
    y2sq = iv.sub(_sq(d02), _sq(x2))
    y2 = _sqrt_nonneg(y2sq, "triangle height squared")
    p2 = (x2, y2, _ZERO)
    return p0, p1, p2


def _place_apex(p2: Vec3, d01: Pair, r0: Pair, r1: Pair, r2: Pair) -> Vec3:
    """Point at distances r0, r1, r2 from the base triangle's vertices
    p0, p1, p2, on the z >= 0 side.  The base is in the gauge position, so
    p0 is the origin and p1 is (d01, 0, 0): only p2 and d01 are read."""
    x2, y2 = p2[0], p2[1]
    x = iv.div(iv.sub(iv.add(_sq(d01), _sq(r0)), _sq(r1)),
               iv.mul(_TWO, d01))
    num = iv.sub(iv.sub(iv.add(iv.add(_sq(x2), _sq(y2)), _sq(r0)), _sq(r2)),
                 iv.mul(iv.mul(_TWO, x2), x))
    y = iv.div(num, iv.mul(_TWO, y2))
    z_sq = iv.sub(iv.sub(_sq(r0), _sq(x)), _sq(y))
    z = _sqrt_nonneg(z_sq, "apex height squared")
    return (x, y, z)


def rigid_realization(d: Sequence[Interval]) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Coordinates for 4 points with the six pairwise distance enclosures
    d01 d02 d03 d12 d13 d23, in the fixed gauge, each coordinate a (lo, hi)
    pair.  Raises PivotInfeasible when a height is certainly negative
    (unrealizable)."""
    d01, d02, d03, d12, d13, d23 = d
    p0, p1, p2 = _place_third(d01, d02, d12)
    return p0, p1, p2, _place_apex(p2, d01, d03, d13, d23)


def cayley_menger_det(d: Sequence[Interval]) -> Interval:
    """Bordered Cayley-Menger determinant of 4 points with the six pairwise
    distance enclosures d01 d02 d03 d12 d13 d23.  It equals 288 V^2, so a
    certainly negative enclosure certifies non-realizability in R^3."""
    rows = [[_ZERO] + [_ONE] * 4] + [[_ONE] + [_ZERO] * 4 for _ in range(4)]
    for (i, j), dij in zip(_PAIRS, d, strict=True):
        rows[i + 1][j + 1] = rows[j + 1][i + 1] = _sq(dij)
    return Interval(*_det(rows))


def _det(rows: list[list[Pair]]) -> Pair:
    """Laplace expansion along the first row, each minor (the last k rows,
    k kept columns) computed once (75 interval products for the 5x5): the
    operations, operands and order of the plain recursion, less its
    repeats, so the same result and errors."""

    @cache
    def minor(cols: tuple[int, ...]) -> Pair:
        if len(cols) == 1:
            return rows[-1][cols[0]]
        total = _ZERO
        for i, j in enumerate(cols):
            term = iv.mul(rows[-len(cols)][j], minor(cols[:i] + cols[i + 1:]))
            total = iv.add(total, term) if i % 2 == 0 else iv.sub(total, term)
        return total

    return minor(tuple(range(len(rows))))


# ---------------------------------------------------------------------------
# Linking
# ---------------------------------------------------------------------------

def line_links_triangle(q: Vec3, p1: Vec3, p2: Vec3, p3: Vec3) -> LinkStatus:
    """Does the line through the origin and q pass through the interior
    of triangle (p1, p2, p3)?  Certified by the signs of the three triple
    products det[p_i, p_{i+1}, q]: all strictly positive or all strictly
    negative means linked; certainly mixed strict signs means not linked;
    anything straddling zero is Unknown."""
    dets = [
        _v_dot(_v_cross(p1, p2), q),
        _v_dot(_v_cross(p2, p3), q),
        _v_dot(_v_cross(p3, p1), q),
    ]
    if all(lo > 0.0 for lo, _ in dets) or all(hi < 0.0 for _, hi in dets):
        return LinkStatus.LINKED
    pos = any(lo > 0.0 for lo, _ in dets)
    neg = any(hi < 0.0 for _, hi in dets)
    if pos and neg:
        return LinkStatus.NOT_LINKED
    return LinkStatus.UNKNOWN


# ---------------------------------------------------------------------------
# Problem 1: no interior point far from all simplex vertices
# ---------------------------------------------------------------------------

def check_simplex_interior_point(edge_bounds: Sequence[Interval],
                                 r: Interval) -> CheckResult:
    """Edges of the simplex are capped by edge_bounds (order: d01, d02,
    d03, d12, d13, d23); is there an interior point at distance >= r from
    every vertex?

    Pivot preprocessing binds all edges at their caps and moves the
    candidate point to distance exactly r from three vertices (on the
    interior side); the verdict then hinges on the rigorously computed
    distance to the fourth vertex."""
    if len(edge_bounds) != 6:
        raise ValueError("need 6 edge bounds: d01 d02 d03 d12 d13 d23")
    if not (r.lo > 0.0):
        return CheckResult(Verdict.INCONCLUSIVE, reason="r must be positive")
    try:
        cm = cayley_menger_det(edge_bounds)
        if cm.hi < 0.0:
            return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                               reason="unrealizable simplex (Cayley-Menger negative)",
                               witness=cm)
        if cm.lo < 0.0:
            return CheckResult(Verdict.INCONCLUSIVE,
                               reason="realizability undecided (Cayley-Menger straddles zero)")
        _, _, p2, p3 = rigid_realization(edge_bounds)
        q = _place_apex(p2, edge_bounds[0], r, r, r)
        fourth = Interval(*_dist(q, p3))
    except PivotInfeasible as exc:
        return CheckResult(Verdict.INCONCLUSIVE,
                           reason=f"extremal configuration not constructible: {exc}")
    except IntervalError as exc:
        return CheckResult(Verdict.INCONCLUSIVE, reason=str(exc))
    if fourth.hi < r.lo:
        return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                           reason="distance from the pivoted interior point to the "
                                  "fourth vertex is rigorously below r",
                           witness=fourth)
    return CheckResult(Verdict.INCONCLUSIVE, witness=fourth)


# ---------------------------------------------------------------------------
# Problem 2: segment through a triangle, endpoints far from vertices
# ---------------------------------------------------------------------------

def check_segment_through_triangle(r1: Interval, r2: Interval,
                                   r3: Interval) -> CheckResult:
    """Triangle of circumradius at most r1, segment of length at most r2
    through its interior, both endpoints at distance >= r3 from every
    vertex.

    The pivot-extremal model puts both endpoints on the circumaxis at
    distance exactly r3 from all vertices of a circumradius-r1 triangle,
    giving the minimal achievable length 2 sqrt(r3^2 - r1^2) for that
    family (any triangle shape: on the axis all vertex distances
    coincide, and shrinking the circumradius only raises the required
    height).  The verdict compares that enclosure with r2; as everywhere
    in this module, transferring the extremal refutation to the full
    problem is the pivot argument's job and should be confirmed per
    instance (the shipped instance is brute-force checked in the tests)."""
    for name, val in (("r1", r1), ("r3", r3)):
        if not (val.lo > 0.0):
            return CheckResult(Verdict.INCONCLUSIVE, reason=f"{name} must be positive")
    try:
        h_sq = iv.sub(_sq(r3), _sq(r1))
        h_lo, h_hi = h_sq
        if h_hi <= 0.0:
            return CheckResult(Verdict.INCONCLUSIVE,
                               reason="endpoints may reach the triangle plane (r3 <= r1)")
        if h_lo < 0.0:
            return CheckResult(Verdict.INCONCLUSIVE,
                               reason="axis height straddles zero")
        min_len = Interval(*iv.mul(_TWO, iv.sqrt_interval(h_sq)))
    except IntervalError as exc:
        return CheckResult(Verdict.INCONCLUSIVE, reason=str(exc))
    if min_len.lo > r2.hi:
        return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                           reason="minimal achievable segment length rigorously "
                                  "exceeds r2",
                           witness=min_len)
    return CheckResult(Verdict.INCONCLUSIVE, witness=min_len)


# ---------------------------------------------------------------------------
# Problem 3: five points with a linking condition
# ---------------------------------------------------------------------------

# Bisections from [-1, 1] down to the finest sweep cell, of width 2**-7:
# 256 cells per half of the circle that check_linked_line sweeps for q.
_SWEEP_DEPTH = 8
# The pairs check_linked_line binds at their caps, in the order their caps
# are checked: every frame pair and (0, q).  (q, p1) is bound at its floor.
_CABLES = ((0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (2, 3))


def check_linked_line(spec: DistanceSpec) -> CheckResult:
    """Five points 0, p1, p2, p3, q with pairwise distance bounds; the
    line (0, q) must link the triangle (p1, p2, p3).

    Stage 1 refutes by pure distance accounting (triangle inequality on
    the caps).  Stage 2 binds the cable/strut model (0-p_i and p_i-p_j at
    their caps, |0 q| at its cap, |q p1| at its floor), which pins the
    configuration down to one circle for q, and sweeps that circle by
    interval subdivision: NoSuchConfiguration only if every cell
    rigorously violates a distance bound or the linking sign test.

    The sweep is dyadic and depth first: for each sign of s it tests the
    whole of c in [-1, 1] and bisects a cell only while it is not refuted,
    down to cells of width 2**-7.  A cell's enclosure covers every
    configuration in it, so refuting a coarse cell refutes all of its
    sub-cells.  `sweep_cells` counts the cells tested, over both signs."""
    tested = 0
    try:
        refuted = _bind_linked_line(spec)
        if isinstance(refuted, CheckResult):
            return refuted._replace(sweep_cells=0)
        for s_sign in (1, -1):
            stack = [(Interval(-1.0, 1.0), 0)]
            while stack:
                cell, depth = stack.pop()
                tested += 1
                if refuted(cell, s_sign):
                    continue
                if depth == _SWEEP_DEPTH:
                    return CheckResult(Verdict.INCONCLUSIVE,
                                       reason="a sweep cell could not be refuted",
                                       sweep_cells=tested)
                mid = 0.5 * (cell.lo + cell.hi)
                stack += [(Interval(mid, cell.hi), depth + 1),
                          (Interval(cell.lo, mid), depth + 1)]
    except IntervalError as exc:
        return CheckResult(Verdict.INCONCLUSIVE, reason=str(exc), sweep_cells=tested)
    return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                       reason="every cell of the cable/strut-bound sweep violates "
                              "a distance bound or the linking test (verdict is "
                              "relative to the pivot binding)",
                       sweep_cells=tested)


def _bind_linked_line(spec: DistanceSpec) -> CheckResult | Callable[[Interval, int], bool]:
    """Stage 1 and the binding of check_linked_line: the verdict when they
    decide it, else the test `refuted(c, s_sign)` of one sweep cell, c an
    interval in [-1, 1] and s = s_sign sqrt(1 - c^2).  Errors of the
    interval arithmetic, here or in the test, reach the caller."""
    if len(spec.labels) != 5:
        raise ValueError("spec must cover exactly 5 points: 0 p1 p2 p3 q")

    # Stage 1: pair and triangle-inequality accounting on the caps.
    for i in range(5):
        for j in range(i + 1, 5):
            lo = spec.lower(i, j)
            hi = spec.upper(i, j)
            if lo.lo > hi.hi:
                return CheckResult(
                    Verdict.NO_SUCH_CONFIGURATION,
                    reason=f"dmin({i},{j}) exceeds dmax({i},{j})")
    for i, j, k in permutations(range(5), 3):
        cap_ij, cap_jk = spec.upper(i, j), spec.upper(j, k)
        if (cap_ij.is_finite and cap_jk.is_finite
                and spec.lower(i, k).lo > iv.add(cap_ij, cap_jk)[1]):
            return CheckResult(
                Verdict.NO_SUCH_CONFIGURATION,
                reason=f"triangle inequality: dmin({i},{k}) > "
                       f"dmax({i},{j}) + dmax({j},{k})")

    # Stage 2 binds the cables at their caps, which must be finite, and the
    # strut at its floor, which must be positive.
    caps = {}
    for (i, j) in _CABLES:
        cap = spec.upper(i, j)
        if not cap.is_finite:
            return CheckResult(Verdict.INCONCLUSIVE,
                               reason=f"no finite cap on ({i},{j}); cannot bind model")
        caps[(i, j)] = cap
    q_floor = spec.lower(1, 4)
    if not (q_floor.lo > 0.0):
        return CheckResult(Verdict.INCONCLUSIVE,
                           reason="dmin(p1,q) must be positive to bind the strut")

    try:
        origin, p1, p2, p3 = rigid_realization([caps[pair] for pair in _PAIRS])
    except PivotInfeasible:
        return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                           reason="bound frame is unrealizable")

    # q lives on the circle |q| = cap(0,q), |q - p1| = floor(q,p1):
    # q = alpha u + h (c w_hat + s c_hat),  c^2 + s^2 = 1.
    big_r = caps[(0, 4)]
    u = _v_sub(p1, origin)
    l2 = _v_dot(u, u)
    alpha = iv.div(iv.sub(iv.add(_sq(big_r), l2), _sq(q_floor)),
                   iv.mul(_TWO, l2))
    h_sq = iv.sub(_sq(big_r), iv.mul(_sq(alpha), l2))
    h_lo, h_hi = h_sq
    if h_hi < 0.0:
        return CheckResult(Verdict.NO_SUCH_CONFIGURATION,
                           reason="bound circle for q is empty")
    if h_lo <= 0.0:
        return CheckResult(Verdict.INCONCLUSIVE,
                           reason="bound circle for q degenerates")
    h = iv.sqrt_interval(h_sq)

    # orthonormal-ish frame perpendicular to u (built from p2's offset)
    v = _v_sub(p2, origin)
    beta = iv.div(_v_dot(v, u), l2)
    w = _v_sub(v, _v_scale(beta, u))
    w2 = _v_dot(w, w)
    w2_lo, _ = w2
    if not (w2_lo > 0.0):
        return CheckResult(Verdict.INCONCLUSIVE, reason="degenerate sweep frame")
    w_unit = _v_scale(iv.div(_ONE, iv.sqrt_interval(w2)), w)
    cvec = _v_cross(u, w)
    c2 = _v_dot(cvec, cvec)
    c_unit = _v_scale(iv.div(_ONE, iv.sqrt_interval(c2)), cvec)
    base = _v_scale(alpha, u)

    pairs_to_check = [(2, p2), (3, p3)]

    def cell_refuted(c_iv: Interval, s_sign: int) -> bool:
        s_iv = iv.sqrt_interval(iv.sub(_ONE, _sq(c_iv)))
        if s_sign < 0:
            s_iv = iv.neg(s_iv)
        q = _v_add(base, _v_add(_v_scale(iv.mul(h, c_iv), w_unit),
                                _v_scale(iv.mul(h, s_iv), c_unit)))
        for idx, pt in pairs_to_check:
            d_lo, d_hi = _dist(q, pt)
            lo_req = spec.lower(idx, 4)
            hi_req = spec.upper(idx, 4)
            if d_hi < lo_req.lo:
                return True
            if hi_req.is_finite and d_lo > hi_req.hi:
                return True
        status = line_links_triangle(q, p1, p2, p3)
        return status is LinkStatus.NOT_LINKED

    return cell_refuted


# ---------------------------------------------------------------------------
# Distance-spec files
# ---------------------------------------------------------------------------

_SPEC_FIELDS = {"points": [str], "dmin": (str, str, rec.interval),
                "dmax": (str, str, rec.interval)}


def parse_distance_spec(text: str) -> DistanceSpec:
    """Labeled dmin/dmax tables:

        points 0 p1 p2 p3 q
        dmin p1 q 2.0
        dmax 0 q 2.51        # 'inf' allowed
    """
    labels: Optional[tuple[str, ...]] = None
    bounds: dict = {"dmin": {}, "dmax": {}}
    for r in rec.read_records(text, _SPEC_FIELDS):
        if r.keyword == "points":
            if labels is not None:
                raise r.error("second 'points' declaration")
            if len(set(r.values)) != len(r.values):
                raise r.error("repeated point label")
            labels = r.values
            continue
        if labels is None:
            raise r.error("'points' must come first")
        a, b, val = r.values
        for name in (a, b):
            if name not in labels:
                raise r.error(f"unknown point label {name!r}")
        if a == b:
            raise r.error(f"pair names {a!r} twice")
        i, j = labels.index(a), labels.index(b)
        bounds[r.keyword][(min(i, j), max(i, j))] = val
    if labels is None:
        raise ParseError("missing 'points' declaration")
    return DistanceSpec(labels, bounds["dmin"], bounds["dmax"])
