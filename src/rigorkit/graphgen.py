"""Enumeration of decorated sphere graphs by admissible face refinement.

A sphere graph is stored as a rotation system: for each vertex, the
cyclic order of its neighbours.  Faces are the orbits of the face-tracing
map next(u,v) = (v, w) where w immediately precedes u in the rotation at
v.  Graphs are simple (no loops, no multiple joins) and every face is a
simple polygon of size >= 3; the Euler relation V - E + F = 2 is checked
on every constructed graph.  A refinement's child is built from its
parent's faces: only the refined face changes, so only its darts and the
new ones are traced, and only what the step can break is checked.

Each face carries an attribute: Modifiable (still under construction) or
Unmodifiable (committed).  A refinement step fixes, per graph, the
lexicographically least modifiable face P and its least edge, then
inserts every admissible polygon Q through that edge.  Q keeps the
edge's two ends and any further vertices of P, and puts a run of new
interior vertices (perhaps none) in each gap after a kept vertex; a gap
crossed directly reuses P's edge or adds a chord not there yet.  In the
child, Q is the face that holds P's least dart; it becomes Unmodifiable
and the remaining pieces of P become Modifiable.  The P = Q case just
flips the attribute.  Fixing the face and edge loses no terminal
classes, and every graph whose largest face has k edges is reached from
the k-gon seed, so seeds honour the largest-initial-polygon rule via a
cheap terminal filter.  A prune predicate (compile_prune_spec) sees each
candidate: face-size caps combine by min, a later max-degree or
max-faces replaces an earlier one.  Under a face-size cap the step alone
decides the cap, so a step that breaks it is skipped before its child is
built.

Generation runs the seeds in increasing size, each depth first to the
end, and deduplicates each seed's states with a canonical form that is
invariant under embedding-preserving isomorphism and includes the face
attributes.  Reflection is included for undecorated graphs only: under
reflection the form reads the attribute of the face across an edge, so a
decorated state and its mirror image can get different forms and states
that are not isomorphic can share one (see _face_flags).  The form is
encoded from the root darts whose first two rows can begin the least
string, all in lockstep, one row at a time, dropping each root whose row
is not least; face flags are built only for the roots tied at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from typing import Callable, NamedTuple, Optional, Sequence

__all__ = [
    "DecoratedGraph",
    "GeneratorConfig",
    "GenerationResult",
    "TerminalRecord",
    "RefinementStep",
    "seed_graph",
    "refinements_with_steps",
    "apply_step",
    "replay_path",
    "canonical_form",
    "generate",
    "compile_prune_spec",
]

Dart = tuple[int, int]
FaceKey = tuple[Dart, ...]


def _canon_cycle(cycle: list[Dart]) -> FaceKey:
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _faces_of_rotation(rot: Sequence[Sequence[int]],
                       starts: Optional[Sequence[Dart]] = None) -> list[FaceKey]:
    """The faces through the darts `starts` (every dart by default), in
    trace order.  Each face must close inside `starts`: a trace that
    reaches a dart outside them raises ValueError."""
    if starts is None:
        starts = [(u, v) for u, nbrs in enumerate(rot) for v in nbrs]
    left = set(starts)
    faces = []
    for start in starts:
        cur = start
        cycle = []
        while cur in left:  # a traced dart leaves `left`
            left.remove(cur)
            cycle.append(cur)
            # next(a, b) = (b, w), w immediately preceding a in the rotation at b
            a, b = cur
            nbrs = rot[b]
            cur = (b, nbrs[nbrs.index(a) - 1])
        if cycle:
            if cur != start:
                raise ValueError(f"face through {start} leaves the traced darts")
            faces.append(_canon_cycle(cycle))
    return faces


def _check_rows(rot: Sequence[Sequence[int]], vertices: Sequence[int]) -> None:
    nv = len(rot)
    for u in vertices:
        nbrs = rot[u]
        if len(set(nbrs)) != len(nbrs):
            raise ValueError(f"vertex {u}: repeated neighbour (multi-join)")
        for v in nbrs:
            if v == u:
                raise ValueError(f"vertex {u}: loop")
            if not (0 <= v < nv):
                raise ValueError(f"vertex {u}: neighbour {v} out of range")


def _check_euler(nv: int, ne: int, nf: int) -> None:
    if nv - ne + nf != 2:
        raise ValueError(f"not a sphere embedding: V-E+F = {nv}-{ne}+{nf}")


def _check_faces(faces: Sequence[FaceKey]) -> None:
    for f in faces:
        if len(f) < 3:
            raise ValueError(f"face {f} has fewer than 3 sides")
        if len({a for a, _b in f}) != len(f):
            raise ValueError(f"face {f} is not a simple polygon")


def _check_modifiable(faces: Sequence[FaceKey], modifiable: frozenset) -> None:
    face_set = set(faces)
    for key in modifiable:
        if key not in face_set:
            raise ValueError(f"modifiable face {key} is not a face")


@dataclass(frozen=True, slots=True)
class DecoratedGraph:
    """Immutable decorated sphere graph.

    rot[v] is the cyclic neighbour order at vertex v; modifiable_faces is
    the set of face keys (canonical dart cycles) still open to
    refinement.  All derived structure (faces, Euler check, simplicity)
    is validated at construction; the faces are traced once, there, and
    kept in _faces (trace order) outside equality, hashing and repr."""

    rot: tuple[tuple[int, ...], ...]
    modifiable_faces: frozenset
    _faces: tuple[FaceKey, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rot = self.rot
        nv = len(rot)
        if nv == 0:
            raise ValueError("graph must be nonempty")
        _check_rows(rot, range(nv))
        darts = {(u, v) for u, nbrs in enumerate(rot) for v in nbrs}
        for (u, v) in darts:
            if (v, u) not in darts:
                raise ValueError(f"dart ({u},{v}) lacks its reverse")
        faces = tuple(_faces_of_rotation(rot))
        _check_euler(nv, len(darts) // 2, len(faces))
        _check_faces(faces)
        _check_modifiable(faces, self.modifiable_faces)
        object.__setattr__(self, "_faces", faces)

    def _with_modifiable(self, modifiable: frozenset) -> DecoratedGraph:
        """The same rotation with another set of modifiable faces, checked
        against this graph's traced faces instead of tracing them again."""
        _check_modifiable(self._faces, modifiable)
        return _checked_graph(self.rot, modifiable, self._faces)

    # -- derived structure ------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return len(self.rot)

    def faces(self) -> list[FaceKey]:
        return sorted(self._faces)

    def face_sizes(self) -> list[int]:
        return sorted(len(f) for f in self._faces)

    def degrees(self) -> list[int]:
        return [len(nbrs) for nbrs in self.rot]

    def unmodifiable_faces(self) -> list[FaceKey]:
        return sorted(set(self._faces) - self.modifiable_faces)

    @property
    def is_terminal(self) -> bool:
        return not self.modifiable_faces

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rot[u]


def _checked_graph(rot, modifiable: frozenset, faces: tuple) -> DecoratedGraph:
    """A graph from parts its caller has already checked, without
    __post_init__'s checks and face trace."""
    g = object.__new__(DecoratedGraph)
    object.__setattr__(g, "rot", rot)
    object.__setattr__(g, "modifiable_faces", modifiable)
    object.__setattr__(g, "_faces", faces)
    return g


# ---------------------------------------------------------------------------
# Seeds
# ---------------------------------------------------------------------------

def seed_graph(k: int) -> DecoratedGraph:
    """k-cycle with the face through dart (0,1) modifiable and the other
    side unmodifiable."""
    if k < 3:
        raise ValueError("polygon seeds need k >= 3")
    rot = tuple(((i - 1) % k, (i + 1) % k) for i in range(k))
    inner = _canon_cycle([(i, (i + 1) % k) for i in range(k)])
    return DecoratedGraph(rot, frozenset([inner]))


# ---------------------------------------------------------------------------
# Refinement
# ---------------------------------------------------------------------------

class RefinementStep(NamedTuple):
    """Replayable descriptor of one refinement: indices (into the fixed
    face's boundary) of the polygon vertices kept from P, and the number
    of new interior vertices inserted in each gap after them.  The fixed
    face and edge are canonical per graph, so the step is self-contained.
    The P = Q attribute flip is keep=all, news=zeros."""

    keep: tuple[int, ...]
    news: tuple[int, ...]


def _fixed_face_and_edge(g: DecoratedGraph) -> FaceKey:
    """The canonical modifiable face; its fixed edge is the face key's
    first dart (the least dart of the cycle)."""
    if not g.modifiable_faces:
        raise ValueError("graph has no modifiable face")
    return min(g.modifiable_faces)


def _enumerate_steps(g: DecoratedGraph, budget: int) -> list[RefinementStep]:
    """All admissible steps through the fixed face/edge, newest-vertex
    budget respected, simplicity enforced combinatorially."""
    face = _fixed_face_and_edge(g)
    k = len(face)
    bverts = [d[0] for d in face]
    steps = []
    for size in range(k - 1):
        for rest in combinations(range(2, k), size):
            keep = (0, 1, *rest)
            # the gap after keep[t], t >= 1, ends at the next kept vertex
            gaps = list(zip(keep[1:], keep[2:] + (0,)))
            for news in product(range(budget + 1), repeat=len(gaps)):
                # Q has >= 3 vertices, and a gap crossed directly reuses P's
                # edge or adds a chord not there yet; the P = Q flip passes
                if sum(news) <= budget and len(keep) + sum(news) >= 3 and all(
                        j or (a + 1) % k == b or not g.has_edge(bverts[a], bverts[b])
                        for (a, b), j in zip(gaps, news)):
                    steps.append(RefinementStep(keep, news))
    return steps


def apply_step(g: DecoratedGraph, step: RefinementStep) -> DecoratedGraph:
    """Insert the polygon Q described by the step into the fixed face P.

    At each kept vertex, Q's new neighbours go in between P's succ and
    pred, so no face but P changes: the child keeps g's other faces, and
    only P's darts and the new ones are traced.  Only what the step can
    break is checked: the touched rows (loop, repeated neighbour), that
    each new face closes inside P and is a simple polygon of at least 3
    sides, and Euler from the counts.  The child equals
    DecoratedGraph(child.rot, child.modifiable_faces), which re-checks
    everything."""
    face = _fixed_face_and_edge(g)
    k = len(face)
    bverts = [d[0] for d in face]
    keep = step.keep
    if keep[:2] != (0, 1) or list(keep) != sorted(keep) or keep[-1] >= k:
        raise ValueError(f"malformed step {step}")
    if len(step.news) != len(keep) - 1:
        raise ValueError(f"step has {len(step.news)} gaps, expected {len(keep) - 1}")
    if len(keep) == k and sum(step.news) == 0:
        # attribute flip
        return g._with_modifiable(g.modifiable_faces - {face})

    # Q's vertex cycle in P's orientation: each kept vertex, then its gap's
    # run of new vertices
    nv = next_id = g.n_vertices
    qcycle = [bverts[0]]
    for i, j in zip(keep[1:], step.news):
        qcycle += [bverts[i], *range(next_id, next_id + j)]
        next_id += j
    m = len(qcycle)
    rot = list(g.rot)
    rows = {}  # the rows of kept vertices, as they are edited

    succ = {bverts[i]: bverts[(i + 1) % k] for i in range(k)}
    pred = {bverts[i]: bverts[(i - 1) % k] for i in range(k)}

    new_darts = []
    for t, vert in enumerate(qcycle):
        qprev = qcycle[t - 1]
        qnext = qcycle[(t + 1) % m]
        if succ.get(vert) != qnext:  # Q's edge to qnext is not P's
            new_darts += [(vert, qnext), (qnext, vert)]
        if vert >= nv:  # new vertices come in id order
            rot.append((qprev, qnext))
            continue
        # Q's edges that are not P's go in just after P's pred at vert
        row = rows.setdefault(vert, list(rot[vert]))
        at = row.index(pred[vert])
        row[at:at] = [w for w, p_nbr in ((qnext, succ[vert]), (qprev, pred[vert]))
                      if w != p_nbr]
    for vert, row in rows.items():
        rot[vert] = tuple(row)
    rot = tuple(rot)
    _check_rows(rot, [*sorted(rows), *range(nv, len(rot))])

    new_faces = _faces_of_rotation(rot, [*face, *new_darts])
    faces = tuple(f for f in g._faces if f != face) + tuple(new_faces)
    # g's edge count from Euler, which g satisfies
    _check_euler(len(rot), nv - 2 + len(g._faces) + len(new_darts) // 2, len(faces))
    _check_faces(new_faces)
    # Q is the face traced first, from the fixed edge's dart
    q_key = new_faces[0]
    if q_key != _canon_cycle(list(zip(qcycle, qcycle[1:] + qcycle[:1]))):
        raise AssertionError(f"inserted polygon is not the face on the fixed edge ({step})")
    survivors = set(faces)
    kept_unmod = set(g._faces) - g.modifiable_faces
    if not kept_unmod <= survivors:
        raise AssertionError("refinement disturbed an unmodifiable face")
    return _checked_graph(rot, frozenset(survivors - kept_unmod - {q_key}), faces)


def refinements_with_steps(g: DecoratedGraph, n_max: int,
                           admits: Optional[Callable[[RefinementStep], bool]] = None
                           ) -> list[tuple[RefinementStep, DecoratedGraph]]:
    """Each admissible step and its child.  With `admits`, a step it
    rejects is skipped before its child is built."""
    steps = _enumerate_steps(g, n_max - g.n_vertices)
    if admits is not None:
        steps = filter(admits, steps)
    return [(step, apply_step(g, step)) for step in steps]


def replay_path(path: Sequence) -> DecoratedGraph:
    """Rebuild a graph from its recorded derivation: (seed_k, step, step, ...)."""
    g = seed_graph(path[0])
    for step in path[1:]:
        g = apply_step(g, step)
    return g


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------

def _face_flags(g: DecoratedGraph, flag_of: dict, label: Sequence[int], mirror: bool) -> str:
    """Attribute flags of the relabelled faces in order of their least
    relabelled dart, read from the cached trace.  A reflection reverses
    every face, so a dart (a, b) becomes (label[b], label[a])."""
    keyed = []
    for f in g._faces:
        if mirror:
            key, a, b = min(((label[b], label[a]), a, b) for a, b in f)
            # Known defect, kept so canonical strings stay as they are: this is
            # the flag of the face across edge ab, not of f, so a decorated
            # graph and its mirror image can get different forms
            # (test_decorated_reflection_invariance).
            keyed.append((key, flag_of[b, a]))
        else:
            keyed.append((min((label[a], label[b]) for a, b in f), flag_of[f[0]]))
    keyed.sort()
    return "".join(flag for _key, flag in keyed)


def canonical_form(g: DecoratedGraph) -> str:
    """Label string invariant under embedding-preserving isomorphism and
    sensitive to face attributes: the lexicographic minimum over all
    starting darts and both orientations of a rotation-order traversal
    encoding plus the attribute flags.  Reflection is included for
    undecorated graphs only (see _face_flags).

    The encoding from a root dart labels the vertices breadth first and
    writes one row per vertex, "<deg>:<its neighbours' labels>", each
    followed by ";", or by "|" after the last.  All candidate roots
    advance in lockstep, one row at a time, and after each row only the
    roots whose row is least go on: a terminated row is never a proper
    prefix of another, so the first row in which two roots differ decides
    between them.  A row is compared as its list of tokens, "<deg>:" and
    each label with the separator after it.  No token is a proper prefix
    of another, so the lists sort as the rows do ("2;" sorts after "23;",
    though "2" sorts before "23"), and only the least row is joined.  ";"
    and "|" sort alike against digits, so the last row compares with ";".

    The encoding from root dart (u, v) begins "<deg u>:1,...,<deg u>;<deg
    v>:", so only roots whose two degree tokens are least ("30:" sorts
    before "3:") start.  Face flags are built only for the roots still
    tied after the last row, from the faces traced at construction, and
    not at all when no face is modifiable."""
    rot = g.rot
    n = len(rot)
    deg_key = [str(len(nbrs)) + ":" for nbrs in rot]
    least = min(deg_key)
    roots = [u for u, key in enumerate(deg_key) if key == least]
    second = min(deg_key[v] for u in roots for v in rot[u])
    comma = [f"{j}," for j in range(n)]
    semi = [f"{j};" for j in range(n)]
    # per candidate root: its orientation, the old -> new labels, the
    # vertices in label order, and per labelled vertex the neighbour its
    # row starts at (the last two grow while they are walked)
    walks = [(mirror, [None] * n, [u], [v]) for u in roots for v in rot[u]
             if deg_key[v] == second for mirror in (False, True)]
    for _mirror, label, order, _anchors in walks:
        label[order[0]] = 0
    rows = []
    for i in range(n):
        best = None
        for walk in walks:
            mirror, label, order, anchors = walk
            if i == len(order):
                raise ValueError("graph is not connected")
            u = order[i]
            nbrs = rot[u]
            ai = nbrs.index(anchors[i])
            seq = nbrs[ai::-1] + nbrs[:ai:-1] if mirror else nbrs[ai:] + nbrs[:ai]
            row = [deg_key[u]]
            for v in seq:
                lv = label[v]
                if lv is None:
                    lv = label[v] = len(order)
                    order.append(v)
                    anchors.append(u)
                row.append(comma[lv])
            row[-1] = semi[lv]
            if best is None or row < best:
                best = row
                tied = [walk]
            elif row == best:
                tied.append(walk)
        walks = tied
        rows.append("".join(best))
    enc = "".join(rows)[:-1] + "|"
    if not g.modifiable_faces:  # every flag is "U", whatever the root
        return enc + "U" * len(g._faces)
    flag_of = {}
    for f in g._faces:
        flag = "M" if f in g.modifiable_faces else "U"
        for d in f:
            flag_of[d] = flag
    return enc + min(_face_flags(g, flag_of, label, mirror)
                     for mirror, label, _order, _anchors in walks)


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

def _accept_all(_g: DecoratedGraph) -> bool:
    return True


@dataclass(frozen=True, slots=True)
class GeneratorConfig:
    n_max: int
    prune: Callable[[DecoratedGraph], bool] = _accept_all
    max_states: int = 500_000

    def __post_init__(self):
        if self.n_max < 3:
            raise ValueError("N must be >= 3")
        if self.max_states < 1:
            raise ValueError("max_states must be >= 1")


class TerminalRecord(NamedTuple):
    graph: DecoratedGraph
    canonical: str
    path: tuple


class GenerationResult(NamedTuple):
    terminals: tuple[TerminalRecord, ...]
    complete: bool
    states_explored: int


def generate(cfg: GeneratorConfig) -> GenerationResult:
    """Exhaustive set of terminal isomorphism classes with <= N vertices
    surviving pruning.  Seeds run in increasing size, each depth first to
    the end.  Deterministic: output sorted by canonical string.

    A predicate from compile_prune_spec carries a step test, `admits_step`,
    that rejects a step before its child is built where the step alone
    decides the predicate; every child built still meets the predicate.  A
    predicate without one (any other callable, or a wrapper around a
    compiled one) sees every child."""
    admits = getattr(cfg.prune, "admits_step", None)
    terminals: dict[str, TerminalRecord] = {}
    states = 0
    for seed_k in range(3, cfg.n_max + 1):
        g = seed_graph(seed_k)
        stack = [(g, (seed_k,))] if cfg.prune(g) else []
        seen: set[str] = set()
        while stack and states < cfg.max_states:
            g, path = stack.pop()
            states += 1
            if g.is_terminal:
                if max(len(f) for f in g._faces) > seed_k:
                    continue
                canon = canonical_form(g)
                if canon not in terminals:
                    terminals[canon] = TerminalRecord(g, canon, path)
                continue
            for step, child in refinements_with_steps(g, cfg.n_max, admits):
                if not cfg.prune(child):
                    continue
                canon = canonical_form(child)
                if canon in seen:
                    continue
                seen.add(canon)
                stack.append((child, path + (step,)))
        if stack:  # the budget ran out
            break
    ordered = tuple(terminals[k] for k in sorted(terminals))
    return GenerationResult(ordered, not stack, states)


# ---------------------------------------------------------------------------
# Prune-spec mini-language
# ---------------------------------------------------------------------------

def compile_prune_spec(spec: str) -> Callable[[DecoratedGraph], bool]:
    """Compile a prune specification into a predicate.

    Comma-separated clauses:
      all-triangles      committed faces are triangles; terminal graphs
                         must additionally be honest triangulations
                         (minimum degree 3)
      max-face-size=K    committed (unmodifiable) faces have <= K sides
      max-degree=K       vertex degrees stay <= K
      max-faces=K        total face count stays <= K

    Empty clauses are skipped, so the empty spec accepts every graph.
    Face-size caps combine by min (all-triangles counts as
    max-face-size=3); a later max-degree or max-faces replaces an earlier
    one.  An unknown clause, or a K that `records.index` refuses (a sign, an
    underscore, a space), raises ValueError naming the clause.

    All clauses are monotone along refinement paths (a violating graph
    has no clean descendants), so pruning mid-generation is safe.

    Under a face-size cap the predicate carries a step test,
    `admits_step(step)`: a refinement commits its inserted polygon Q at
    once, and Q has len(step.keep) + sum(step.news) sides, so a step whose
    Q exceeds the cap yields a child the predicate rejects.
    """
    from .records import index   # loaded on first use, not by `import rigorkit.graphgen`
    caps: dict[str, int] = {}
    triangulation = False
    for clause in spec.split(","):
        clause = clause.strip()
        name, eq, value = clause.partition("=")
        if clause == "all-triangles":
            triangulation = True
            name, value = "max-face-size", "3"
        elif not clause:
            continue
        elif not eq or name not in ("max-face-size", "max-degree", "max-faces"):
            raise ValueError(f"unknown prune clause {clause!r}")
        try:
            cap = index(value)
        except ValueError as exc:
            raise ValueError(f"prune clause {clause!r}: {exc}") from None
        caps[name] = min(cap, caps.get(name, cap)) if name == "max-face-size" else cap
    max_face = caps.get("max-face-size")
    max_degree = caps.get("max-degree")
    max_faces = caps.get("max-faces")

    def predicate(g: DecoratedGraph) -> bool:
        if max_face is not None:
            for f in g.unmodifiable_faces():
                if len(f) > max_face:
                    return False
        if max_degree is not None and any(d > max_degree for d in g.degrees()):
            return False
        if max_faces is not None and len(g._faces) > max_faces:
            return False
        if triangulation and g.is_terminal and any(d < 3 for d in g.degrees()):
            return False
        return True

    if max_face is not None:
        predicate.admits_step = lambda step: len(step.keep) + sum(step.news) <= max_face
    return predicate
