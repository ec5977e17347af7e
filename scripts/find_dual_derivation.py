#!/usr/bin/env python3
"""Print the derivation of the graph dual to the rhombic dodecahedron (the
cuboctahedron map: 12 vertices, 8 triangular + 6 square faces).

One `generate` run with N = 12 under max-face-size=4,max-degree=4 records
each terminal class's path: its seed size, then the RefinementStep taken
at each graph.  The cuboctahedron's path, from the square seed, is frozen
as CUBOCTA_STEPS in tests/test_graphgen.py.

Usage: python scripts/find_dual_derivation.py
Exits 1 when the cuboctahedron is not among the terminal classes.
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


def main() -> int:
    target = gg.canonical_form(cuboctahedron())
    result = gg.generate(gg.GeneratorConfig(
        12, gg.compile_prune_spec("max-face-size=4,max-degree=4")))
    found = next((t for t in result.terminals if t.canonical == target), None)
    if found is None:
        print(f"cuboctahedron not found ({result.states_explored} states)")
        return 1
    seed_k, *steps = found.path
    print(f"{len(steps)}-step derivation from the {seed_k}-gon seed "
          f"({result.states_explored} states explored):")
    for st in steps:
        print(f"    gg.RefinementStep({st.keep}, {st.news}),")
    return 0


if __name__ == "__main__":
    sys.exit(main())
