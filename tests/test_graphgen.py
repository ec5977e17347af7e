import functools
import random
from itertools import combinations

import pytest

from oracles import (_oracle_encode, brute_force_sphere_classes,
                     reference_canonical_form, reference_enumerate_steps)
from rigorkit import graphgen as gg

# Frozen 13-step derivation from the square seed to the graph dual to the
# rhombic dodecahedron, the one scripts/find_dual_derivation.py prints: ten
# insertions complete the 12-vertex skeleton, the last three commit faces.
CUBOCTA_STEPS = (
    gg.RefinementStep((0, 1), (1,)),
    gg.RefinementStep((0, 1), (2,)),
    gg.RefinementStep((0, 1, 6), (0, 0)),
    gg.RefinementStep((0, 1), (1,)),
    gg.RefinementStep((0, 1, 6), (1, 0)),
    gg.RefinementStep((0, 1), (1,)),
    gg.RefinementStep((0, 1, 7), (1, 0)),
    gg.RefinementStep((0, 1, 7), (1, 0)),
    gg.RefinementStep((0, 1, 7), (0, 0)),
    gg.RefinementStep((0, 1, 3, 5), (0, 0, 0)),
    gg.RefinementStep((0, 1, 2), (0, 0)),
    gg.RefinementStep((0, 1, 2), (0, 0)),
    gg.RefinementStep((0, 1, 2), (0, 0)),
)


def cuboctahedron_target() -> gg.DecoratedGraph:
    """Rotation system of the cuboctahedron built from coordinates."""
    verts = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0.0, 0.0, 0.0]
                v[i] = si
                v[j] = sj
                verts.append(tuple(v))
    return polyhedron(verts)


def octahedron() -> gg.DecoratedGraph:
    verts = []
    for i in range(3):
        for si in (1, -1):
            v = [0.0, 0.0, 0.0]
            v[i] = si
            verts.append(tuple(v))
    return polyhedron(verts)


def polyhedron(verts) -> gg.DecoratedGraph:
    """Undecorated rotation system of a convex polyhedron centred at the
    origin whose edges are the vertex pairs at squared distance 2."""
    import math

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    rot = []
    for u in range(len(verts)):
        nbrs = [v for v in range(len(verts))
                if abs(dot(sub(verts[u], verts[v]), sub(verts[u], verts[v])) - 2.0) < 1e-9]
        axis = verts[u]
        nrm = math.sqrt(dot(axis, axis))
        axis = tuple(x / nrm for x in axis)
        ref = sub(verts[nbrs[0]], verts[u])
        ref = tuple(r - dot(ref, axis) * a for r, a in zip(ref, axis))
        ref2 = cross(axis, ref)

        def angle(v):
            d = sub(verts[v], verts[u])
            return math.atan2(dot(d, ref2), dot(d, ref))

        rot.append(tuple(sorted(nbrs, key=angle)))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def test_seed_graphs():
    for k in range(3, 6):
        s = gg.seed_graph(k)
        assert s.n_vertices == k and sum(s.degrees()) // 2 == k
        assert len(s.faces()) == 2
        assert len(s.modifiable_faces) == 1


def test_triangle_flip_is_terminal():
    s3 = gg.seed_graph(3)
    terminals = [c for _, c in gg.refinements_with_steps(s3, 3) if c.is_terminal]
    assert len(terminals) == 1
    assert terminals[0].face_sizes() == [3, 3]


def test_square_triangle_cut_shape():
    # inserting a triangle through the fixed edge with one new interior
    # vertex cuts the square region into a triangle + the rest
    s4 = gg.seed_graph(4)
    children = [c for st, c in gg.refinements_with_steps(s4, 5)
                if st == gg.RefinementStep((0, 1), (1,))]
    assert len(children) == 1
    child = children[0]
    assert child.n_vertices == 5
    assert sorted(len(f) for f in child.unmodifiable_faces()) == [3, 4]
    assert child.face_sizes() == [3, 4, 5]


def test_refinement_requires_modifiable_face():
    terminal = gg.DecoratedGraph(gg.seed_graph(3).rot, frozenset())
    with pytest.raises(ValueError):
        gg.refinements_with_steps(terminal, 5)


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        gg.DecoratedGraph(((1, 1), (0, 0)), frozenset())  # multi-join
    with pytest.raises(ValueError):
        gg.DecoratedGraph(((0,),), frozenset())  # loop
    # K4 with the all-ascending rotation embeds on the torus, not the sphere
    with pytest.raises(ValueError):
        gg.DecoratedGraph(((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)),
                          frozenset())


def test_canonical_form_examples():
    rot_a = ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1))
    rot_b = ((2, 3, 1), (2, 0, 3), (3, 0, 1), (2, 1, 0))  # relabeled copy
    g_a = gg.DecoratedGraph(rot_a, frozenset())
    g_b = gg.DecoratedGraph(rot_b, frozenset())
    assert gg.canonical_form(g_a) == gg.canonical_form(g_b)

    t3 = gg.DecoratedGraph(gg.seed_graph(3).rot, frozenset())
    t4 = gg.DecoratedGraph(gg.seed_graph(4).rot, frozenset())
    assert gg.canonical_form(t3) != gg.canonical_form(t4)
    # attributes are part of the class
    assert gg.canonical_form(gg.seed_graph(3)) != gg.canonical_form(t3)


def test_canonical_form_reflection_invariance():
    g = cuboctahedron_target()
    mirrored = gg.DecoratedGraph(tuple(tuple(reversed(n)) for n in g.rot),
                                 frozenset())
    assert gg.canonical_form(g) == gg.canonical_form(mirrored)


def test_dedup_soundness_by_isomorphism_search():
    # random relabelings/reflections of N<=5 terminals: canonical equality
    # must coincide with brute-force embedding isomorphism
    result = gg.generate(gg.GeneratorConfig(n_max=5))
    graphs = [t.graph for t in result.terminals]
    rng = random.Random(17)

    def relabel(g):
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        mirror = rng.random() < 0.5  # reflection applies to every vertex
        rot = [None] * g.n_vertices
        for u, nbrs in enumerate(g.rot):
            lst = [perm[v] for v in nbrs]
            if mirror:
                lst = lst[::-1]
            rot[perm[u]] = tuple(lst)
        return gg.DecoratedGraph(tuple(rot), frozenset())

    def brute_isomorphic(g1, g2):
        # rooted-map matching over all anchor darts and orientations
        if g1.n_vertices != g2.n_vertices or sum(g1.degrees()) // 2 != sum(g2.degrees()) // 2:
            return False
        enc1 = {_oracle_encode(g1.rot, (u, v), m)[0]
                for u in range(g1.n_vertices) for v in g1.rot[u]
                for m in (False, True)}
        enc2 = {_oracle_encode(g2.rot, (u, v), m)[0]
                for u in range(g2.n_vertices) for v in g2.rot[u]
                for m in (False, True)}
        return bool(enc1 & enc2)

    pool = [gg.DecoratedGraph(t.rot, frozenset()) for t in graphs]
    variants = pool + [relabel(g) for g in pool for _ in range(3)]
    checked = 0
    for _ in range(10000):
        g1 = rng.choice(variants)
        g2 = rng.choice(variants)
        same_canon = gg.canonical_form(g1) == gg.canonical_form(g2)
        if same_canon:
            assert brute_isomorphic(g1, g2)
            checked += 1
    assert checked > 100


def test_generate_n3():
    r = gg.generate(gg.GeneratorConfig(n_max=3))
    assert len(r.terminals) == 1 and r.complete
    assert r.terminals[0].graph.face_sizes() == [3, 3]


def test_generate_n4_all_triangles():
    r = gg.generate(gg.GeneratorConfig(
        n_max=4, prune=gg.compile_prune_spec("all-triangles")))
    assert len(r.terminals) == 1
    g = r.terminals[0].graph
    assert g.n_vertices == 4 and g.face_sizes() == [3, 3, 3, 3]
    assert sorted(g.degrees()) == [3, 3, 3, 3]


def test_full_enumeration_matches_brute_force():
    for n in (3, 4, 5):
        generated = {t.canonical for t in gg.generate(gg.GeneratorConfig(n_max=n)).terminals}
        oracle = brute_force_sphere_classes(n)
        assert generated == oracle, (n, len(generated), len(oracle))


def test_replay_reachability():
    r = gg.generate(gg.GeneratorConfig(n_max=5))
    for t in r.terminals:
        replayed = gg.replay_path(t.path)
        assert gg.canonical_form(replayed) == t.canonical


def test_monotone_pruning():
    strong = gg.compile_prune_spec("max-face-size=3")
    weak = gg.compile_prune_spec("max-face-size=4")
    t_strong = {t.canonical for t in gg.generate(gg.GeneratorConfig(n_max=5, prune=strong)).terminals}
    t_weak = {t.canonical for t in gg.generate(gg.GeneratorConfig(n_max=5, prune=weak)).terminals}
    assert t_strong <= t_weak


def test_budget_flags_incomplete():
    r = gg.generate(gg.GeneratorConfig(n_max=6, max_states=5))
    assert not r.complete


@pytest.mark.parametrize("spec, total, first", [
    ("", 68, (12, 28, 31, 38, 41, 44, 46, 48, 50, 53, 57, 62, 64, 67)),
    # all-triangles prunes every seed but the triangle, so a budget that
    # stops the triangle's search leaves generation incomplete
    ("all-triangles", 9, (4, 7)),
])
def test_budget_stops_generation_at_the_same_state(spec, total, first):
    # N = 5 explores `total` states; the k-th class is found within the
    # first first[k - 1] of them (triangle seed first, each seed's search
    # run to the end before the next)
    prune = gg.compile_prune_spec(spec)
    for m in range(1, total + 2):
        r = gg.generate(gg.GeneratorConfig(n_max=5, prune=prune, max_states=m))
        assert (r.complete, r.states_explored, len(r.terminals)) == (
            m >= total, min(m, total), sum(k <= m for k in first)), m


def test_euler_holds_for_every_enqueued_graph():
    # the DecoratedGraph constructor enforces the sphere relation; a prune
    # hook observing every candidate proves each one passed construction
    seen = []

    def observer(g):
        assert g.n_vertices - sum(g.degrees()) // 2 + len(g.faces()) == 2
        seen.append(g)
        return True

    gg.generate(gg.GeneratorConfig(n_max=4, prune=observer))
    assert len(seen) > 5


def test_prune_spec_errors():
    for spec, message in [
            ("max-degree", "unknown prune clause 'max-degree'"),
            ("all-triangles=3", "unknown prune clause 'all-triangles=3'"),
            ("max-face-size=x",
             "prune clause 'max-face-size=x': expected a non-negative index, got 'x'"),
            ("frobnicate=3", "unknown prune clause 'frobnicate=3'")]:
        with pytest.raises(ValueError) as info:
            gg.compile_prune_spec(spec)
        assert str(info.value) == message


def wheel(spokes: int) -> gg.DecoratedGraph:
    """Hub 0 joined to the rim cycle 1..spokes: the hub has degree spokes."""
    rot = [tuple(range(1, spokes + 1))]
    for i in range(1, spokes + 1):
        rot.append((0, i - 1 if i > 1 else spokes, i % spokes + 1))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def test_prune_spec_combining_rules():
    # seed_graph(k) commits its outer k-gon and leaves the inner one open
    def accepts(spec, *graphs):
        predicate = gg.compile_prune_spec(spec)
        return [predicate(g) for g in graphs]

    seeds = [gg.seed_graph(k) for k in (3, 4, 5)]
    # face-size caps combine by min, in either order
    assert accepts("all-triangles,max-face-size=5", *seeds) == [True, False, False]
    assert accepts("max-face-size=5,all-triangles", *seeds) == [True, False, False]
    assert accepts("max-face-size=5,max-face-size=4", *seeds) == [True, True, False]
    assert accepts("max-face-size=4,max-face-size=5", *seeds) == [True, True, False]
    # a later max-degree or max-faces replaces an earlier one
    assert accepts("max-degree=3,max-degree=5", wheel(5), wheel(6)) == [True, False]
    assert accepts("max-degree=5,max-degree=3", wheel(5)) == [False]
    assert accepts("max-faces=5,max-faces=6", wheel(5), wheel(6)) == [True, False]
    assert accepts("max-faces=6,max-faces=5", wheel(5)) == [False]
    # empty clauses are skipped; the empty spec accepts everything
    assert accepts(" ,max-face-size=4,, ", *seeds) == [True, True, False]
    assert accepts("", *seeds, wheel(6)) == [True] * 4
    # all-triangles also asks terminal graphs for minimum degree 3
    flat = gg.DecoratedGraph(seeds[0].rot, frozenset())
    assert accepts("all-triangles", flat, wheel(3)) == [False, True]
    assert accepts("max-face-size=3", flat) == [True]


@functools.lru_cache(maxsize=None)
def enumerated_steps(n_max: int, prune_spec: str = "") -> tuple:
    """Every (graph, steps) pair of a _enumerate_steps call during
    generate(), in call order: each state's full list of steps, before the
    step test skips any."""
    seen = []
    original = gg._enumerate_steps

    def recording(g, budget):
        steps = original(g, budget)
        seen.append((g, tuple(steps)))
        return steps

    gg._enumerate_steps = recording
    try:
        gg.generate(gg.GeneratorConfig(n_max=n_max, prune=gg.compile_prune_spec(prune_spec)))
    finally:
        gg._enumerate_steps = original
    return tuple(seen)


def step_pairs(n_max: int, prune_spec: str = "") -> list:
    """Every (graph, step) that generate() enumerates."""
    return [(g, step) for g, steps in enumerated_steps(n_max, prune_spec) for step in steps]


GENERATED_RUNS = [(6, ""), (7, "max-faces=8,max-degree=5"), (8, "all-triangles")]


@pytest.mark.parametrize("n_max, spec", GENERATED_RUNS)
def test_steps_match_reference_order(n_max, spec):
    # every state generate() refines gets the reference's steps, in order
    refined = enumerated_steps(n_max, spec)
    assert refined
    for g, steps in refined:
        assert list(steps) == reference_enumerate_steps(g, n_max - g.n_vertices)


@pytest.mark.parametrize("n_max, spec, skipped", [
    (*run, skipped) for run, skipped in zip(GENERATED_RUNS, (0, 0, 1579))])
def test_step_test_rejects_only_what_the_predicate_rejects(n_max, spec, skipped):
    # a step the step test rejects is never built by generate(); built
    # here, its child fails the predicate
    predicate = gg.compile_prune_spec(spec)
    admits = getattr(predicate, "admits_step", lambda _step: True)
    rejected = 0
    for g, step in step_pairs(n_max, spec):
        if not admits(step):
            assert not predicate(gg.apply_step(g, step))
            rejected += 1
    assert rejected == skipped


def test_wrapped_predicate_builds_every_child_with_the_same_result():
    # a wrapper hides the step test, so every child is built and pruned
    # after construction, to the same classes, paths and state count
    predicate = gg.compile_prune_spec("all-triangles")
    original = gg.apply_step
    runs = []
    for prune in (predicate, lambda g: predicate(g)):
        built = []

        def counting(g, step):
            built.append(step)
            return original(g, step)

        gg.apply_step = counting
        try:
            r = gg.generate(gg.GeneratorConfig(n_max=8, prune=prune))
        finally:
            gg.apply_step = original
        runs.append(([(t.canonical, t.path) for t in r.terminals], r.states_explored, len(built)))
    (found, states, n_built), (wrapped_found, wrapped_states, n_wrapped) = runs
    assert (found, states) == (wrapped_found, wrapped_states)
    assert n_built < n_wrapped


def test_children_match_full_construction():
    # apply_step traces only the fixed face's darts and the new ones; the
    # full constructor re-traces and re-checks everything.  Steps the step
    # test skips in generate() are applied here too.
    pairs = step_pairs(6) + step_pairs(8, "all-triangles")
    assert len(pairs) == 3214
    for g, step in pairs:
        child = gg.apply_step(g, step)
        assert gg.DecoratedGraph(child.rot, child.modifiable_faces) == child
        assert sorted(child._faces) == sorted(gg._faces_of_rotation(child.rot))


def test_steps_through_an_existing_chord_are_rejected():
    # A zero-news step that crosses a gap by a chord the graph already has
    # is left out by _enumerate_steps; applied anyway, it joins the chord's
    # ends twice, and the least such end is named.
    rejected = 0
    for g in {g for g, _steps in enumerated_steps(6)}:
        face = min(g.modifiable_faces)
        k = len(face)
        bverts = [d[0] for d in face]
        admissible = set(gg._enumerate_steps(g, 0))
        for size in range(1, k - 1):
            for rest in combinations(range(2, k), size):
                keep = (0, 1, *rest)
                step = gg.RefinementStep(keep, (0,) * (len(keep) - 1))
                if step in admissible:
                    continue
                gaps = zip(keep[1:], keep[2:] + (0,))
                u = min(min(bverts[a], bverts[b]) for a, b in gaps
                        if (a + 1) % k != b and g.has_edge(bverts[a], bverts[b]))
                with pytest.raises(ValueError) as info:
                    gg.apply_step(g, step)
                assert str(info.value) == f"vertex {u}: repeated neighbour (multi-join)"
                rejected += 1
    assert rejected == 110


def test_cuboctahedron_thirteen_step_derivation():
    assert len(CUBOCTA_STEPS) == 13
    g = gg.seed_graph(4)
    for step in CUBOCTA_STEPS[:11]:
        g = gg.apply_step(g, step)
    target = cuboctahedron_target()
    blind = gg.DecoratedGraph(g.rot, frozenset())
    assert gg.canonical_form(blind) == gg.canonical_form(target)
    assert blind.n_vertices == 12
    assert blind.face_sizes() == [3] * 8 + [4] * 6
    for step in CUBOCTA_STEPS[11:]:
        g = gg.apply_step(g, step)
    assert g.is_terminal
    assert gg.canonical_form(g) == gg.canonical_form(target)


# ---------------------------------------------------------------------------
# Canonical form against the reference that re-traces faces per start
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def canonicalised_graphs(n_max: int, prune_spec: str = "") -> tuple:
    """Every graph generate() passes to canonical_form, in call order."""
    seen = []
    original = gg.canonical_form

    def recording(g):
        seen.append(g)
        return original(g)

    gg.canonical_form = recording
    try:
        gg.generate(gg.GeneratorConfig(n_max=n_max, prune=gg.compile_prune_spec(prune_spec)))
    finally:
        gg.canonical_form = original
    return tuple(seen)


def relabel(g: gg.DecoratedGraph, perm, mirror: bool) -> gg.DecoratedGraph:
    """Image of g under a vertex relabelling, optionally reflected; a
    reflection reverses every face, so modifiable faces map through the
    reversed darts."""
    rot = [None] * g.n_vertices
    for u, nbrs in enumerate(g.rot):
        row = tuple(perm[v] for v in nbrs)
        rot[perm[u]] = row[::-1] if mirror else row

    def image(face):
        if mirror:
            return gg._canon_cycle([(perm[b], perm[a]) for a, b in reversed(face)])
        return gg._canon_cycle([(perm[a], perm[b]) for a, b in face])

    return gg.DecoratedGraph(tuple(rot), frozenset(image(f) for f in g.modifiable_faces))


def reflect(g: gg.DecoratedGraph) -> gg.DecoratedGraph:
    return relabel(g, range(g.n_vertices), True)


def wheel_with_subdivided_rim(spokes: int) -> gg.DecoratedGraph:
    """Hub 0 joined to rim vertices 1..spokes, with the rim edge from
    `spokes` back to 1 subdivided by vertex spokes + 1 (degree 2)."""
    mid = spokes + 1
    rot = [tuple(range(1, spokes + 1))]
    for i in range(1, spokes + 1):
        rot.append((0, i - 1 if i > 1 else mid, i + 1 if i < spokes else mid))
    rot.append((spokes, 1))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def wheel_with_subdivided_spoke(spokes: int) -> gg.DecoratedGraph:
    """Hub 0 joined to rim cycle 1..spokes, with the spoke from 0 to 1
    subdivided by vertex spokes + 1 (degree 2)."""
    mid = spokes + 1
    rot = [(mid, *range(2, spokes + 1))]
    for i in range(1, spokes + 1):
        rot.append((0 if i > 1 else mid, i - 1 if i > 1 else spokes, i % spokes + 1))
    rot.append((0, 1))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def wheel_with_ear(spokes: int) -> gg.DecoratedGraph:
    """Hub 0 joined to rim cycle 1..spokes, and to vertex spokes + 1 (degree
    2), which sits in the triangle (0, 1, 2) and is joined to rim vertex 1."""
    ear = spokes + 1
    rot = [(1, ear, *range(2, spokes + 1))]
    for i in range(1, spokes + 1):
        rot.append((0, i - 1 if i > 1 else spokes, i % spokes + 1))
    rot[1] = (0, spokes, 2, ear)
    rot.append((0, 1))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def test_canonical_form_matches_reference_on_generated_graphs():
    graphs = (canonicalised_graphs(6)
              + canonicalised_graphs(8, "all-triangles"))
    assert len(graphs) == 1718
    rng = random.Random(4)
    for g in graphs:
        assert gg.canonical_form(g) == reference_canonical_form(g)
        perm = list(range(g.n_vertices))
        rng.shuffle(perm)
        h = relabel(g, perm, rng.random() < 0.5)
        assert gg.canonical_form(h) == reference_canonical_form(h)


@pytest.mark.parametrize("build, spokes, root_rows", [
    *(pytest.param(wheel_with_subdivided_rim, spokes, prefix, id=str(spokes))
      for spokes, prefix in ((3, "2:1,2;3:"), (9, "2:1,2;3:"), (10, "10:1,2,"),
                             (12, "12:1,2,"), (20, "20:1,2,"))),
    pytest.param(wheel_with_subdivided_spoke, 30, "2:1,2;30:", id="spoke30"),
    *(pytest.param(wheel_with_ear, spokes,
                   f"{spokes + 1}:{','.join(map(str, range(1, spokes + 2)))};2:0,{spokes + 1};",
                   id=f"ear{spokes}") for spokes in (19, 28)),
])
def test_canonical_form_matches_reference_across_degree_digits(build, spokes, root_rows):
    # Rows compare as strings: "20:1,..." sorts before "2:1,2" and "3:...",
    # so from 10 spokes on the winning root is the hub, not the vertex of
    # least degree.  With
    # a subdivided spoke the degree-2 vertex is the root, and its neighbour
    # of degree 30 is labelled 1 before the one of degree 3, since "30:"
    # sorts before "3:".  With an ear the hub is the root and the ear is
    # labelled 1; the ear's row reads "2:0,2;" in one orientation and
    # "2:0,20;" (say) in the other, which is least only because ";" sorts
    # after every digit, though "2:0,2" is a prefix of "2:0,20".
    g = build(spokes)
    quad = next(f for f in g.faces() if len(f) == 4)
    rim = max(g.faces(), key=len)
    rng = random.Random(spokes)
    for mod in (frozenset(), frozenset([quad]), frozenset([rim]), frozenset([quad, rim])):
        dg = gg.DecoratedGraph(g.rot, mod)
        perm = list(range(dg.n_vertices))
        rng.shuffle(perm)
        for h in (dg, relabel(dg, perm, False), relabel(dg, perm, True)):
            assert gg.canonical_form(h) == reference_canonical_form(h)
    assert gg.canonical_form(g).startswith(root_rows)


def prism(k: int) -> gg.DecoratedGraph:
    """Two k-gons joined vertex to vertex, built from coordinates."""
    import math
    r = 1 / (math.sqrt(2) * math.sin(math.pi / k))
    h = 1 / math.sqrt(2)
    return polyhedron([(r * math.cos(2 * math.pi * i / k), r * math.sin(2 * math.pi * i / k), z)
                       for z in (h, -h) for i in range(k)])


@pytest.mark.parametrize("build", [
    pytest.param(octahedron, id="octahedron"),
    pytest.param(cuboctahedron_target, id="cuboctahedron"),
    *(pytest.param(functools.partial(wheel, k), id=f"wheel{k}") for k in (3, 4, 6)),
    *(pytest.param(functools.partial(prism, k), id=f"prism{k}") for k in (3, 4, 5)),
])
def test_canonical_form_breaks_ties_among_equal_encodings(build):
    # On a symmetric map several roots give the least encoding, and their
    # face flags decide between them.  Decorated, relabelled and reflected
    # copies must get the reference's string.
    g = build()
    encodings = [_oracle_encode(g.rot, (u, v), m)[0]
                 for u in range(g.n_vertices) for v in g.rot[u] for m in (False, True)]
    assert encodings.count(min(encodings)) > 1
    faces = g.faces()
    rng = random.Random(len(faces))
    decorations = [frozenset(), frozenset(faces[:1]), frozenset(faces[::2]), frozenset(faces[1:]),
                   frozenset(faces), frozenset(rng.sample(faces, len(faces) // 2))]
    for mod in decorations:
        dg = gg.DecoratedGraph(g.rot, mod)
        assert gg.canonical_form(dg) == reference_canonical_form(dg)
        for _ in range(3):
            perm = list(range(dg.n_vertices))
            rng.shuffle(perm)
            h = relabel(dg, perm, rng.random() < 0.5)
            assert gg.canonical_form(h) == reference_canonical_form(h)


@pytest.mark.xfail(strict=True, reason=(
    "decorated-reflection defect: under reflection canonical_form reads the "
    "flag of the face across the least dart's edge, not of the face itself"))
def test_decorated_reflection_invariance():
    states = [g for g in set(canonicalised_graphs(6)) if g.modifiable_faces]
    assert states
    for g in states:
        assert gg.canonical_form(g) == gg.canonical_form(reflect(g))


@pytest.mark.xfail(strict=True, reason=(
    "decorated-reflection defect: the wrong reflected face flag merges "
    "non-isomorphic states, and the octahedron's derivations are dropped"))
def test_octahedron_among_n6_classes():
    classes = {t.canonical for t in gg.generate(gg.GeneratorConfig(n_max=6)).terminals}
    assert gg.canonical_form(octahedron()) in classes
