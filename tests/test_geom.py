import math
import random

import pytest

from oracles import mp_sqrt, reference_cayley_menger_det, reference_linked_sweep
from rigorkit import geom
from rigorkit import interval as iv
from rigorkit.errors import NonFiniteOperand, ParseError, PivotInfeasible
from rigorkit.interval import Interval

I = Interval
SQRT8 = I(*iv.sqrt_interval(I(8, 8)))


def test_simplex_example_sqrt8():
    res = geom.check_simplex_interior_point([SQRT8] * 6, I(2, 2))
    assert res.refuted
    ref = float(mp_sqrt(16.0 / 3.0, dps=60) - mp_sqrt(4.0 / 3.0, dps=60))
    assert res.witness.lo <= ref <= res.witness.hi
    assert res.witness.hi - res.witness.lo <= 1e-10
    assert res.witness.hi < 2.0


def test_simplex_example_edges_two():
    res = geom.check_simplex_interior_point([I(2, 2)] * 6, I(2, 2))
    assert res.refuted


def test_simplex_inconclusive_for_large_caps():
    res = geom.check_simplex_interior_point([I(10, 10)] * 6, I(2, 2))
    assert not res.refuted


def test_simplex_unrealizable():
    # one edge far longer than the triangle inequality permits
    edges = [I(1, 1), I(1, 1), I(1, 1), I(1, 1), I(1, 1), I(10, 10)]
    res = geom.check_simplex_interior_point(edges, I(0.5, 0.5))
    assert res.refuted and "unrealizable" in res.reason.lower()


def test_simplex_soundness_vs_random_search():
    # NoSuchConfiguration: no random interior point of any random simplex
    # with edges <= sqrt(8) is at distance >= 2 from all four vertices
    import numpy as np
    res = geom.check_simplex_interior_point([SQRT8] * 6, I(2, 2))
    assert res.refuted
    rng = np.random.default_rng(4)
    cap = math.sqrt(8)
    pts = rng.uniform(-2.2, 2.2, (200000, 4, 3))
    keep = np.ones(len(pts), dtype=bool)
    for a in range(4):
        for b in range(a + 1, 4):
            keep &= np.linalg.norm(pts[:, a] - pts[:, b], axis=1) <= cap
    pts = pts[keep]
    assert len(pts) > 1000
    weights = rng.dirichlet(np.ones(4), size=len(pts))
    interior = np.einsum("nk,nkd->nd", weights, pts)
    dists = np.linalg.norm(pts - interior[:, None, :], axis=2)
    assert float(dists.min(axis=1).max()) < 2.0


def test_segment_examples():
    res = geom.check_segment_through_triangle(I(1, 1), I(2, 2), I(2, 2))
    assert res.refuted
    assert res.witness.lo <= 2 * math.sqrt(3) <= res.witness.hi

    assert not geom.check_segment_through_triangle(I(1, 1), I(100, 100), I(2, 2)).refuted
    assert not geom.check_segment_through_triangle(I(1, 1), I(2, 2), I(1e-12, 1e-12)).refuted


def test_segment_soundness_vs_random_search():
    # the refuted instance: triangle circumradius <= 1, endpoints >= 2 from
    # all vertices, segment through the interior: sampled feasible
    # configurations never beat the certified minimal length
    res = geom.check_segment_through_triangle(I(1, 1), I(2, 2), I(2, 2))
    assert res.refuted
    min_len = res.witness.lo
    rng = random.Random(77)
    tri = [(math.cos(2 * math.pi * k / 3), math.sin(2 * math.pi * k / 3), 0.0)
           for k in range(3)]
    found_any = False
    for _ in range(50000):
        e1 = tuple(rng.uniform(-3, 3) for _ in range(3))
        e2 = tuple(rng.uniform(-3, 3) for _ in range(3))
        if any(math.dist(e1, v) < 2.0 for v in tri):
            continue
        if any(math.dist(e2, v) < 2.0 for v in tri):
            continue
        if e1[2] * e2[2] >= 0:  # must cross the triangle plane
            continue
        t = e1[2] / (e1[2] - e2[2])
        hit = tuple(e1[i] + t * (e2[i] - e1[i]) for i in range(2))
        # inside the triangle?
        def sign(p, a, b):
            return (p[0] - b[0]) * (a[1] - b[1]) - (a[0] - b[0]) * (p[1] - b[1])
        s1 = sign(hit, tri[0][:2], tri[1][:2])
        s2 = sign(hit, tri[1][:2], tri[2][:2])
        s3 = sign(hit, tri[2][:2], tri[0][:2])
        if not ((s1 > 0) == (s2 > 0) == (s3 > 0)):
            continue
        found_any = True
        assert math.dist(e1, e2) >= min_len - 1e-9
    assert found_any
    # and the axis configuration attains the bound
    axis_len = math.dist((0, 0, math.sqrt(3)), (0, 0, -math.sqrt(3)))
    assert abs(axis_len - 2 * math.sqrt(3)) < 1e-9


def test_linked_line_examples():
    refuted_spec = geom.parse_distance_spec("""
points 0 p1 p2 p3 q
dmax 0 p1 2.0
dmax 0 p2 2.0
dmax 0 p3 2.0
dmin p1 p2 5.0
dmin p1 p3 5.0
dmin p2 p3 5.0
dmax 0 q 2.0
dmin p1 q 1.0
""")
    res = geom.check_linked_line(refuted_spec)
    assert res.refuted
    assert res.sweep_cells == 0   # decided by the triangle inequality

    free_spec = geom.parse_distance_spec("points 0 p1 p2 p3 q")
    assert not geom.check_linked_line(free_spec).refuted


def test_linked_line_refutation_sound_vs_random_search():
    # no random 5-point configuration satisfies the refuted spec's bounds
    rng = random.Random(123)
    for _ in range(20000):
        pts = [tuple(rng.uniform(-3, 3) for _ in range(3)) for _ in range(3)]
        ok = all(math.dist((0, 0, 0), p) <= 2.0 for p in pts)
        if not ok:
            continue
        if all(math.dist(pts[i], pts[j]) >= 5.0
               for i in range(3) for j in range(i + 1, 3)):
            pytest.fail("oracle found a configuration the check refuted")


def test_linked_line_sweep_refutes_bound_family():
    # q's cable/strut circle lies opposite the triangle's cone: every
    # sweep cell fails the linking sign test.  The verdict is explicitly
    # relative to the pivot binding (the unbound problem here is feasible
    # at smaller |p_i|, which is why the reason says so).
    spec = geom.parse_distance_spec("""
points 0 p1 p2 p3 q
dmax 0 p1 2.0
dmax 0 p2 2.0
dmax 0 p3 2.0
dmax p1 p2 1.0
dmax p1 p3 1.0
dmax p2 p3 1.0
dmax 0 q 2.0
dmin p1 q 3.8
""")
    res = geom.check_linked_line(spec)
    assert res.refuted
    assert "pivot binding" in res.reason
    # 14 cells per sign of s, where the fixed grid tested 2 x 256
    assert res.sweep_cells == 28

    # loosening the strut so the circle reaches the cone stays inconclusive
    feasible = geom.parse_distance_spec("""
points 0 p1 p2 p3 q
dmax 0 p1 2.0
dmax 0 p2 2.0
dmax 0 p3 2.0
dmax p1 p2 1.0
dmax p1 p3 1.0
dmax p2 p3 1.0
dmax 0 q 2.0
dmin p1 q 0.5
""")
    assert not geom.check_linked_line(feasible).refuted


_FRAME_CAPS = "points 0 p1 p2 p3 q\n" + "".join(
    f"dmax {a} {b} 2\n" for a, b in (("0", "p1"), ("0", "p2"), ("0", "p3"),
                                     ("p1", "p2"), ("p1", "p3"), ("p2", "p3")))


@pytest.mark.parametrize("check", [
    lambda: geom.check_simplex_interior_point([I(1e308, 1e308)] * 6, I(1, 1)),
    lambda: geom.check_segment_through_triangle(I(1e200, 1e200), I(1, 1), I(1e300, 1e300)),
    lambda: geom.check_linked_line(geom.parse_distance_spec(
        _FRAME_CAPS + "dmax 0 q 1e200\ndmin p1 q 1\n")),
    lambda: geom.check_linked_line(geom.parse_distance_spec(
        _FRAME_CAPS.replace("dmax 0 p1 2", "dmax 0 p1 1e200") + "dmax 0 q 2\ndmin p1 q 1\n")),
], ids=["simplex-cayley-menger", "segment", "linked-binding", "linked-realization"])
def test_overflow_anywhere_in_a_check_is_inconclusive(check):
    res = check()
    assert res.verdict is geom.Verdict.INCONCLUSIVE
    assert res.reason.startswith("arithmetic on non-finite interval")
    assert res.sweep_cells in (None, 0)


def test_arithmetic_error_in_the_sweep_is_inconclusive(monkeypatch):
    # the bound family above: every cell reaches the linking test, so its
    # error in the first cell ends the check there
    def overflow(*points):
        raise NonFiniteOperand("overflow in the linking test")

    monkeypatch.setattr(geom, "line_links_triangle", overflow)
    res = geom.check_linked_line(geom.parse_distance_spec("""
points 0 p1 p2 p3 q
dmax 0 p1 2.0
dmax 0 p2 2.0
dmax 0 p3 2.0
dmax p1 p2 1.0
dmax p1 p3 1.0
dmax p2 p3 1.0
dmax 0 q 2.0
dmin p1 q 3.8
"""))
    assert (res.verdict, res.reason, res.sweep_cells) == (
        geom.Verdict.INCONCLUSIVE, "overflow in the linking test", 1)


def random_linked_spec(rng) -> geom.DistanceSpec:
    """Caps and floors around the bound family above: about 40% of these
    are refuted by the sweep and 40% stay inconclusive there; the rest are
    decided by stage 1 or the binding."""
    def d(lo, hi):
        return f"{rng.uniform(lo, hi):.3f}"

    lines = ["points 0 p1 p2 p3 q"]
    lines += [f"dmax 0 {p} {d(1.5, 2.5)}" for p in ("p1", "p2", "p3")]
    lines += [f"dmax {a} {b} {d(0.8, 2.5)}" for a, b in (("p1", "p2"), ("p1", "p3"), ("p2", "p3"))]
    lines += [f"dmax 0 q {d(1.5, 2.5)}", f"dmin p1 q {d(0.3, 4.0)}"]
    if rng.random() < 0.5:
        lines.append(f"dmax p2 q {d(0.5, 4.0)}")
    if rng.random() < 0.3:
        lines.append(f"dmin p3 q {d(0.5, 3.0)}")
    return geom.parse_distance_spec("\n".join(lines))


def test_linked_line_cell_refutation_is_inclusion_isotone():
    # The dyadic sweep stops bisecting at a refuted cell; it returns the
    # fixed grid's verdict only if every sub-cell of a refuted cell, down to
    # the finest, is refuted too.
    rng = random.Random(611)
    swept = 0
    while swept < 12:
        refuted = geom._bind_linked_line(random_linked_spec(rng))
        if isinstance(refuted, geom.CheckResult):
            continue
        swept += 1
        for s_sign in (1, -1):
            level = [I(-1.0, 1.0)]
            for _ in range(geom._SWEEP_DEPTH):
                children = []
                for cell in level:
                    mid = 0.5 * (cell.lo + cell.hi)
                    halves = [I(cell.lo, mid), I(mid, cell.hi)]
                    if refuted(cell, s_sign):
                        assert all(refuted(h, s_sign) for h in halves), (cell, s_sign)
                    children += halves
                level = children
            assert len(level) == 256


def test_linked_line_sweep_matches_fixed_grid():
    rng = random.Random(612)
    outcomes = set()
    for _ in range(60):
        spec = random_linked_spec(rng)
        res, ref = geom.check_linked_line(spec), reference_linked_sweep(spec)
        assert (res.verdict, res.reason) == (ref.verdict, ref.reason)
        if res.sweep_cells:
            outcomes.add(res.verdict)
    assert outcomes == set(geom.Verdict)   # both verdicts reached by a sweep


def test_linking_sign_test_on_symmetric_example():
    p1 = (I(1, 1), I(1, 1), I(1, 1))
    p2 = (I(-1, -1), I(1, 1), I(1, 1))
    p3 = (I(0, 0), I(-1, -1), I(1, 1))
    q_axis = (I(0, 0), I(0.25, 0.25), I(1, 1))
    assert geom.line_links_triangle(q_axis, p1, p2, p3) is geom.LinkStatus.LINKED
    q_out = (I(5, 5), I(5, 5), I(1, 1))
    assert geom.line_links_triangle(q_out, p1, p2, p3) is geom.LinkStatus.NOT_LINKED


def test_rigid_realization_contains_specified_distances():
    rng = random.Random(31)
    for _ in range(50):
        # realizable spec: distances of a random embedded 4-point set
        pts = [tuple(rng.uniform(-2, 2) for _ in range(3)) for _ in range(4)]
        d = [I.point(math.dist(pts[i], pts[j])) for i, j in geom._PAIRS]
        if any(dij.lo < 0.2 for dij in d):
            continue
        try:
            cfg = geom.rigid_realization(d)
        except PivotInfeasible:
            continue
        for (i, j), dij in zip(geom._PAIRS, d):
            enc = I(*geom._dist(cfg[i], cfg[j]))
            assert enc.lo <= dij.lo + 1e-9 and enc.hi >= dij.hi - 1e-9


def test_cayley_menger_sign():
    # regular tetrahedron side 1: positive volume
    # six distances in the order d01 d02 d03 d12 d13 d23
    d = [I(1, 1)] * 6
    cm = geom.cayley_menger_det(d)
    # det = 288 V^2, V = 1/(6 sqrt(2))
    assert cm.lo <= 288 / 72 <= cm.hi
    # impossible distances: negative
    d[2] = I(10, 10)  # d03
    d[4] = I(1, 1)    # d13
    cm2 = geom.cayley_menger_det(d)
    assert cm2.hi < 0


def _cm_outcome(det, d):
    try:
        cm = det(d)
    except NonFiniteOperand as exc:
        return str(exc)
    return cm.lo.hex(), cm.hi.hex()


def _edge(rng):
    """A distance enclosure: random, a point, straddling zero, or near the
    factors (2**995) and squares (2**511) past which products overflow."""
    kind = rng.randrange(5)
    if kind == 0:
        lo = rng.uniform(0.1, 3.0)
        return I(lo, lo + rng.uniform(0.0, 1.0))
    if kind == 1:
        return I.point(rng.choice([1.0, 2.0, 0.1, rng.uniform(0.0, 5.0)]))
    if kind == 2:
        return I(-rng.uniform(0.0, 1.0), rng.uniform(0.0, 2.0))
    big = 2.0 ** rng.choice([995, 511, 510])
    return I(big * rng.uniform(0.5, 1.0), big * rng.uniform(1.0, 1.5))


def test_cayley_menger_det_matches_the_plain_recursion():
    rng = random.Random(1990)
    outcomes = set()
    for trial in range(300):
        d = [_edge(rng) if rng.random() < 0.4 else I.point(rng.uniform(0.5, 2.0))
             for _ in range(6)]
        got = _cm_outcome(geom.cayley_menger_det, d)
        assert got == _cm_outcome(reference_cayley_menger_det, d), (trial, d)
        outcomes.add(type(got))
    assert outcomes == {tuple, str}  # both results and errors were compared


def test_cayley_menger_det_computes_each_minor_once(monkeypatch):
    calls = {"mul": 0, "add": 0, "sub": 0}
    for name in calls:
        def counted(a, b, _op=getattr(iv, name), _name=name):
            calls[_name] += 1
            return _op(a, b)
        monkeypatch.setattr(iv, name, counted)
    d = [I(1.0, 1.25)] * 6
    geom.cayley_menger_det(d)
    assert calls == {"mul": 75, "add": 43, "sub": 32}
    calls.update(mul=0, add=0, sub=0)
    reference_cayley_menger_det(d)
    assert calls == {"mul": 205, "add": 113, "sub": 92}


def test_parse_distance_spec_errors():
    with pytest.raises(ParseError):
        geom.parse_distance_spec("dmin a b 1\n")
    spec = geom.parse_distance_spec("points a b\ndmax a b inf\n")
    assert not spec.upper(0, 1).is_finite
