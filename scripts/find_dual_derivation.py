#!/usr/bin/env python3
"""Search for a shortest scripted derivation from the square seed to the
graph dual to the rhombic dodecahedron (the cuboctahedron map: 12
vertices, 8 triangular + 6 square faces).

The refinement step at each graph is taken through the canonical face and
edge, so a derivation is just the sequence of RefinementStep descriptors.
The search matches the target's skeleton, decorations stripped: it finds
the ten insertions that open the 11-step sequence frozen into
tests/test_graphgen.py.  The eleventh step, which commits the last face,
is not found by the search.

Usage: python scripts/find_dual_derivation.py [max_depth]
Exits 1 when no derivation is found within max_depth steps.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rigorkit import graphgen as gg


def cuboctahedron() -> gg.DecoratedGraph:
    """Rotation system of the cuboctahedron from its coordinates (edge
    midpoints of a cube), neighbours ordered by angle around the radial
    direction (counterclockwise seen from outside)."""
    verts = []
    for i, j in ((0, 1), (0, 2), (1, 2)):
        for si in (1, -1):
            for sj in (1, -1):
                v = [0.0, 0.0, 0.0]
                v[i] = si
                v[j] = sj
                verts.append(tuple(v))
    n = len(verts)

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def cross(a, b):
        return (a[1] * b[2] - a[2] * b[1],
                a[2] * b[0] - a[0] * b[2],
                a[0] * b[1] - a[1] * b[0])

    rot = []
    for u in range(n):
        nbrs = [v for v in range(n)
                if abs(dot(sub(verts[u], verts[v]), sub(verts[u], verts[v])) - 2.0) < 1e-9]
        axis = verts[u]
        norm = math.sqrt(dot(axis, axis))
        axis = tuple(x / norm for x in axis)
        ref = sub(verts[nbrs[0]], verts[u])
        ref = tuple(r - dot(ref, axis) * a for r, a in zip(ref, axis))
        ref2 = cross(axis, ref)

        def angle(v):
            d = sub(verts[v], verts[u])
            x = dot(d, ref)
            y = dot(d, ref2)
            return math.atan2(y, x)

        rot.append(tuple(sorted(nbrs, key=angle)))
    return gg.DecoratedGraph(tuple(rot), frozenset())


def strip_attrs(g: gg.DecoratedGraph) -> gg.DecoratedGraph:
    return gg.DecoratedGraph(g.rot, frozenset())


def main(max_depth: int = 11) -> int:
    target = cuboctahedron()
    assert target.n_vertices == 12 and target.face_sizes() == [3] * 8 + [4] * 6
    target_canon = gg.canonical_form(target)
    print("target canonical:", target_canon[:60], "...")

    prune = gg.compile_prune_spec("max-face-size=4,max-degree=4")
    seed = gg.seed_graph(4)
    # DFS with global dedup; paths recorded as step tuples.  A step whose
    # inserted face has more than 4 sides is skipped before its child is
    # built (the predicate's step test).
    stack = [(seed, ())]
    seen = {gg.canonical_form(seed)}
    found = None
    explored = 0
    while stack:
        g, path = stack.pop()
        explored += 1
        if explored % 2000 == 0:
            print(f"explored {explored}, frontier {len(stack)}, depth {len(path)}")
        if gg.canonical_form(strip_attrs(g)) == target_canon:
            found = path
            break
        if len(path) >= max_depth or g.is_terminal:
            continue
        for step, child in gg.refinements_with_steps(g, 12, prune.admits_step):
            if not prune(child):
                continue
            canon = gg.canonical_form(child)
            if canon in seen:
                continue
            seen.add(canon)
            stack.append((child, path + (step,)))
    if found is None:
        print(f"no derivation within {max_depth} steps ({explored} states)")
        return 1
    print(f"found {len(found)}-step derivation ({explored} states explored):")
    for st in found:
        print(f"    gg.RefinementStep({st.keep}, {st.news}),")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 11))
