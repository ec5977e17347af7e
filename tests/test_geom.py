import math
import random

import pytest

from oracles import mp_sqrt
from rigorkit import geom
from rigorkit import interval as iv
from rigorkit.errors import PivotInfeasible
from rigorkit.interval import Interval

I = Interval
SQRT8 = iv.sqrt_interval(I(8, 8))


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
        d = [[None] * 4 for _ in range(4)]
        degenerate = False
        for i in range(4):
            for j in range(i + 1, 4):
                val = math.dist(pts[i], pts[j])
                if val < 0.2:
                    degenerate = True
                d[i][j] = I.point(val)
        if degenerate:
            continue
        try:
            cfg = geom.rigid_realization(d)
        except PivotInfeasible:
            continue
        for i in range(4):
            for j in range(i + 1, 4):
                enc = cfg.distance(i, j)
                assert enc.lo <= d[i][j].lo + 1e-9 and enc.hi >= d[i][j].hi - 1e-9


def test_cayley_menger_sign():
    # regular tetrahedron side 1: positive volume
    d = [[None, I(1, 1), I(1, 1), I(1, 1)],
         [I(1, 1), None, I(1, 1), I(1, 1)],
         [I(1, 1), I(1, 1), None, I(1, 1)],
         [I(1, 1), I(1, 1), I(1, 1), None]]
    cm = geom.cayley_menger_det(d)
    # det = 288 V^2, V = 1/(6 sqrt(2))
    assert cm.lo <= 288 / 72 <= cm.hi
    # impossible distances: negative
    d[0][3] = d[3][0] = I(10, 10)
    d[1][3] = d[3][1] = I(1, 1)
    cm2 = geom.cayley_menger_det(d)
    assert cm2.hi < 0


def test_linked_line_model_marks():
    model = geom.linked_line_model()
    assert model.mark(0, 4) is geom.EdgeMark.CABLE
    assert model.mark(4, 1) is geom.EdgeMark.STRUT
    assert model.mark(2, 4) is geom.EdgeMark.UNMARKED


def test_parse_distance_spec_errors():
    with pytest.raises(Exception):
        geom.parse_distance_spec("dmin a b 1\n")
    spec = geom.parse_distance_spec("points a b\ndmax a b inf\n")
    assert not spec.upper(0, 1).is_finite
