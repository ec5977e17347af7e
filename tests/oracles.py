"""Independent test oracles.

Everything here is deliberately separate from the library's own code
paths: an exact rational simplex for LP optima, dense numpy grid search
for function maxima and assembly feasibility, a rotation-system brute
force for small sphere graphs, mpmath for high-precision scalar
references, and directed-rounding kernels that decide every rounding by
exact integer ratios.  None of it is shipped.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from rigorkit import expr as ex
from rigorkit import interval as iv
from rigorkit.interval import Interval
from rigorkit.lp import DualSolution, LpProblem


class OracleInfeasible(Exception):
    pass


class OracleUnbounded(Exception):
    pass


def simplex_max(aineq: Sequence[Sequence[Fraction]],
                bineq: Sequence[Fraction],
                aeq: Sequence[Sequence[Fraction]],
                beq: Sequence[Fraction],
                c: Sequence[Fraction]) -> tuple[Fraction, list[Fraction]]:
    """Exact rational simplex: max c.x s.t. Aineq x <= bineq, Aeq x = beq,
    x >= 0.  Two-phase dense tableau with Bland's rule (no cycling).

    Returns (optimum, primal solution).
    """
    m1, m2 = len(aineq), len(aeq)
    n = len(c)
    rows = m1 + m2

    # Normalize to nonnegative rhs; inequality rows keep a slack column,
    # rows that were flipped (or are equalities) get an artificial.
    tab_rows = []
    rhs = []
    slack_info = []  # per original ineq row: +1 slack or -1 surplus
    for i in range(m1):
        row = [Fraction(v) for v in aineq[i]]
        b = Fraction(bineq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
            slack_info.append(-1)
        else:
            slack_info.append(1)
        tab_rows.append(row)
        rhs.append(b)
    for i in range(m2):
        row = [Fraction(v) for v in aeq[i]]
        b = Fraction(beq[i])
        if b < 0:
            row = [-v for v in row]
            b = -b
        tab_rows.append(row)
        rhs.append(b)

    n_slack = m1
    needs_artificial = [slack_info[i] == -1 for i in range(m1)] + [True] * m2
    art_cols = {}
    total = n + n_slack + sum(needs_artificial)
    T = [[Fraction(0)] * (total + 1) for _ in range(rows)]
    for i in range(rows):
        for j in range(n):
            T[i][j] = tab_rows[i][j]
        T[i][total] = rhs[i]
    for i in range(m1):
        T[i][n + i] = Fraction(slack_info[i])
    k = n + n_slack
    basis = [None] * rows
    for i in range(rows):
        if needs_artificial[i]:
            T[i][k] = Fraction(1)
            art_cols[i] = k
            basis[i] = k
            k += 1
        else:
            basis[i] = n + i

    def pivot(T, basis, pr, pc):
        piv = T[pr][pc]
        T[pr] = [v / piv for v in T[pr]]
        for r in range(len(T)):
            if r != pr and T[r][pc] != 0:
                f = T[r][pc]
                T[r] = [a - f * b for a, b in zip(T[r], T[pr])]
        basis[pr] = pc

    def run_simplex(T, basis, obj, allowed_cols):
        # obj: cost row (maximize), reduced costs recomputed each iteration
        while True:
            # reduced costs: c_j - c_B . B^{-1} A_j over the tableau
            red = list(obj)
            for r, bv in enumerate(basis):
                if obj[bv] != 0:
                    f = obj[bv]
                    red = [rc - f * tv for rc, tv in zip(red, T[r][:-1])]
            pc = None
            for j in allowed_cols:
                if red[j] > 0:
                    pc = j  # Bland: smallest index
                    break
            if pc is None:
                return
            pr = None
            best = None
            for r in range(len(T)):
                if T[r][pc] > 0:
                    ratio = T[r][-1] / T[r][pc]
                    if best is None or ratio < best or (ratio == best and basis[r] < basis[pr]):
                        best = ratio
                        pr = r
            if pr is None:
                raise OracleUnbounded()
            pivot(T, basis, pr, pc)

    # Phase 1: maximize -(sum of artificials)
    if art_cols:
        obj1 = [Fraction(0)] * total
        for col in art_cols.values():
            obj1[col] = Fraction(-1)
        allowed = list(range(total))
        run_simplex(T, basis, obj1, allowed)
        val = sum(T[r][-1] for r in range(rows) if basis[r] in art_cols.values())
        if val != 0:
            raise OracleInfeasible()
        # drive artificials out of the basis where possible
        for r in range(rows):
            if basis[r] in art_cols.values():
                for j in range(n + n_slack):
                    if T[r][j] != 0:
                        pivot(T, basis, r, j)
                        break

    # Phase 2: maximize c over structural + slack columns
    obj2 = [Fraction(0)] * total
    for j in range(n):
        obj2[j] = Fraction(c[j])
    art_set = set(art_cols.values())
    allowed = [j for j in range(total) if j not in art_set]
    run_simplex(T, basis, obj2, allowed)

    x = [Fraction(0)] * n
    for r, bv in enumerate(basis):
        if bv < n:
            x[bv] = T[r][-1]
    opt = sum(Fraction(c[j]) * x[j] for j in range(n))
    return opt, x


def exact_lp_optimum(p: LpProblem) -> tuple[Fraction, list[Fraction]]:
    """Exact optimum of an LpProblem whose variables all have lower bound
    exactly 0 (the form our random generators produce).  Redundant
    -x_i <= 0 rows are dropped; everything else is passed through."""
    n = p.n
    for b in p.var_bounds:
        if b.lo != 0.0:
            raise ValueError("oracle expects variables with lower bound 0")
    aineq = []
    bineq = []
    for row, rhs in zip(p.aineq, p.bineq):
        nz = [(j, v) for j, v in enumerate(row) if v != 0.0]
        if len(nz) == 1 and nz[0][1] == -1.0 and rhs == 0.0:
            continue  # -x_j <= 0, implied by the x >= 0 domain
        aineq.append([Fraction(v) for v in row])
        bineq.append(Fraction(rhs))
    aeq = [[Fraction(v) for v in row] for row in p.aeq]
    beq = [Fraction(v) for v in p.beq]
    c = [Fraction(v) for v in p.c]
    return simplex_max(aineq, bineq, aeq, beq, c)


def reference_certify(p: LpProblem, d: DualSolution
                      ) -> tuple[float, float, tuple[Interval, ...]]:
    """(bound, delta_bound, residual) of lp.certify_upper_bound, computed
    one interval object at a time: delta = c - y Aeq - z Aineq by iv.sub
    and iv.mul on point intervals, in row order, then D and the bound.  Any
    NonFiniteOperand is raised where that sequence first meets a
    non-finite operand."""
    delta = [Interval.point(v) for v in p.c]
    for mult, rows in ((d.y, p.aeq), (d.z, p.aineq)):
        for yi, row in zip(mult, rows):
            if yi == 0.0:
                continue
            yi_iv = Interval.point(yi)
            for j, a in enumerate(row):
                if a != 0.0:
                    delta[j] = iv.sub(delta[j], iv.mul(yi_iv, Interval.point(a)))
    d_total = Interval.point(0.0)
    for dj, b in zip(delta, p.var_bounds):
        d_total = iv.add(d_total, iv.mul(Interval.point(dj.mag), Interval.point(b.mag)))
    total = d_total
    for mult, rhs in ((d.y, p.beq), (d.z, p.bineq)):
        for yi, b in zip(mult, rhs):
            total = iv.add(total, iv.mul(Interval.point(yi), Interval.point(b)))
    return total.hi, d_total.hi, tuple(delta)


# ---------------------------------------------------------------------------
# Dense numeric evaluation of Expr over numpy grids
# ---------------------------------------------------------------------------

def evaluate_on_arrays(e: ex.Expr, values: Sequence[np.ndarray]) -> np.ndarray:
    """Vectorized float64 evaluation; no rigor claim, oracle use only."""
    match e:
        case ex.Const(text=t):
            return np.full_like(values[0], float(Fraction(t)), dtype=float)
        case ex.Var(index=i):
            return values[i]
        case ex.Add(left=a, right=b):
            return evaluate_on_arrays(a, values) + evaluate_on_arrays(b, values)
        case ex.Sub(left=a, right=b):
            return evaluate_on_arrays(a, values) - evaluate_on_arrays(b, values)
        case ex.Mul(left=a, right=b):
            return evaluate_on_arrays(a, values) * evaluate_on_arrays(b, values)
        case ex.Div(left=a, right=b):
            return evaluate_on_arrays(a, values) / evaluate_on_arrays(b, values)
        case ex.Pow(base=a, exponent=k):
            return evaluate_on_arrays(a, values) ** k
        case ex.Sqrt(arg=a):
            return np.sqrt(evaluate_on_arrays(a, values))
        case ex.Atan(num=a, den=b):
            return np.arctan(evaluate_on_arrays(a, values) / evaluate_on_arrays(b, values))
    raise TypeError(f"not an Expr node: {e!r}")


def grid_max(e: ex.Expr, bounds: Sequence[tuple[float, float]],
             total_points: int = 10**6) -> float:
    """Dense-grid maximum of an expression over a box (numpy, float64)."""
    n = len(bounds)
    per_dim = max(2, int(round(total_points ** (1.0 / n))))
    axes = [np.linspace(lo, hi, per_dim) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    flat = [m.ravel() for m in mesh]
    return float(np.max(evaluate_on_arrays(e, flat)))


# ---------------------------------------------------------------------------
# High-precision scalar references
# ---------------------------------------------------------------------------

def mp_atan(x: float, dps: int = 50):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.atan(x)


def mp_sqrt(x: float, dps: int = 50):
    import mpmath
    with mpmath.workdps(dps):
        return mpmath.sqrt(x)


# ---------------------------------------------------------------------------
# Directed-rounding reference kernels: every error sign decided by exact
# integer-ratio products (the library's kernels before TwoProduct).
# ---------------------------------------------------------------------------

def _mul_err_sign(x: float, y: float, p: float) -> int:
    # sign of exact(x*y) - p, all arguments finite
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    np_, dp = p.as_integer_ratio()
    lhs = nx * ny * dp
    rhs = np_ * dx * dy
    return (lhs > rhs) - (lhs < rhs)


def _div_err_sign(x: float, y: float, q: float) -> int:
    # sign of exact(x/y) - q; y != 0, all finite
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    nq, dq = q.as_integer_ratio()
    num = nx * dy * dq - nq * dx * ny
    if ny < 0:
        num = -num
    return (num > 0) - (num < 0)


def _sqrt_err_sign(x: float, s: float) -> int:
    # sign of sqrt(x) - s for x >= 0, s >= 0: same as sign of x - s*s
    nx, dx = x.as_integer_ratio()
    ns, ds = s.as_integer_ratio()
    lhs = nx * ds * ds
    rhs = ns * ns * dx
    return (lhs > rhs) - (lhs < rhs)


def _next_up(x: float) -> float:
    return math.nextafter(x, math.inf)


def _next_down(x: float) -> float:
    return math.nextafter(x, -math.inf)


def reference_mul_down(x: float, y: float) -> float:
    p = x * y
    if math.isinf(p):
        return _next_down(p) if p > 0 else p
    return _next_down(p) if _mul_err_sign(x, y, p) < 0 else p


def reference_mul_up(x: float, y: float) -> float:
    p = x * y
    if math.isinf(p):
        return _next_up(p) if p < 0 else p
    return _next_up(p) if _mul_err_sign(x, y, p) > 0 else p


def reference_div_down(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return _next_down(q) if q > 0 else q
    return _next_down(q) if _div_err_sign(x, y, q) < 0 else q


def reference_div_up(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return _next_up(q) if q < 0 else q
    return _next_up(q) if _div_err_sign(x, y, q) > 0 else q


def reference_sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    return _next_down(s) if _sqrt_err_sign(x, s) < 0 else s


def reference_sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    return _next_up(s) if _sqrt_err_sign(x, s) > 0 else s


# ---------------------------------------------------------------------------
# Random expression generation
# ---------------------------------------------------------------------------

_CONST_POOL = ["0.5", "1", "2", "0.25", "3", "1.5", "0.125", "4", "0.75"]


def random_expr(rng, arity: int, depth: int, polynomial: bool = False) -> ex.Expr:
    """Random well-formed expression of bounded depth.  With
    polynomial=True only +, -, *, pow are used (plus leaves)."""
    if depth <= 1 or rng.random() < 0.2:
        if rng.random() < 0.3:
            return ex.Const(rng.choice(_CONST_POOL))
        return ex.Var(rng.randrange(arity))
    ops = ["add", "sub", "mul", "mul", "pow"]
    if not polynomial:
        ops += ["div", "sqrt", "atan"]
    op = rng.choice(ops)
    if op == "add":
        return ex.Add(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "sub":
        return ex.Sub(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "mul":
        return ex.Mul(random_expr(rng, arity, depth - 1, polynomial),
                      random_expr(rng, arity, depth - 1, polynomial))
    if op == "pow":
        return ex.Pow(random_expr(rng, arity, depth - 1, polynomial),
                      rng.choice([2, 2, 3, 4]))
    if op == "div":
        # keep denominators away from zero: 1 + (...)^2 style
        den = ex.Add(ex.Const(rng.choice(["1", "2"])),
                     ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
        return ex.Div(random_expr(rng, arity, depth - 1, polynomial), den)
    if op == "sqrt":
        arg = ex.Add(ex.Const(rng.choice(["1", "0.5"])),
                     ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
        return ex.Sqrt(arg)
    den = ex.Add(ex.Const("1"),
                 ex.Pow(random_expr(rng, arity, depth - 2 or 1, polynomial), 2))
    return ex.Atan(random_expr(rng, arity, depth - 1, polynomial), den)


# ---------------------------------------------------------------------------
# Rotation-system brute force for small sphere graphs
# ---------------------------------------------------------------------------

def _oracle_faces(rot):
    index = {}
    for u, nbrs in enumerate(rot):
        for pos, v in enumerate(nbrs):
            index[(u, v)] = pos
    seen = set()
    faces = []
    for u in range(len(rot)):
        for v in rot[u]:
            d = (u, v)
            if d in seen:
                continue
            cyc = []
            cur = d
            while cur not in seen:
                seen.add(cur)
                cyc.append(cur)
                a, b = cur
                nbrs = rot[b]
                cur = (b, nbrs[(index[(b, a)] - 1) % len(nbrs)])
            faces.append(cyc)
    return faces


def _oracle_canon_cycle(cycle):
    i = cycle.index(min(cycle))
    return tuple(cycle[i:] + cycle[:i])


def _oracle_encode(rot, start, mirror):
    label = {start[0]: 0}
    order = [start[0]]
    first_nbr = {start[0]: start[1]}
    rows = []
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        nbrs = rot[u]
        deg = len(nbrs)
        ai = nbrs.index(first_nbr[u])
        row = []
        for t in range(deg):
            v = nbrs[(ai - t if mirror else ai + t) % deg]
            if v not in label:
                label[v] = len(order)
                order.append(v)
                first_nbr[v] = u
            row.append(label[v])
        rows.append(str(deg) + ":" + ",".join(map(str, row)))
    return ";".join(rows), label


def reference_canonical_form(g) -> str:
    """graphgen.canonical_form as it was first written: for every start dart
    and orientation, relabel the rotation system, re-trace all of its faces
    and read each face's attribute at the original dart behind the face's
    least relabelled dart.  Slow (every face traced 4E times), kept as the
    exactness reference for the library's incremental version."""
    faces = [_oracle_canon_cycle(f) for f in _oracle_faces(g.rot)]
    dart_face = {d: fi for fi, f in enumerate(faces) for d in f}
    flags = ["M" if f in g.modifiable_faces else "U" for f in faces]
    best = None
    for u in range(len(g.rot)):
        for v in g.rot[u]:
            for mirror in (False, True):
                enc, label = _oracle_encode(g.rot, (u, v), mirror)
                inv = {new: old for old, new in label.items()}
                relabeled = []
                for new in range(len(g.rot)):
                    nbrs = [label[w] for w in g.rot[inv[new]]]
                    relabeled.append(nbrs[::-1] if mirror else nbrs)
                rel_faces = sorted(_oracle_canon_cycle(f) for f in _oracle_faces(relabeled))
                attr = "".join(flags[dart_face[(inv[f[0][0]], inv[f[0][1]])]]
                               for f in rel_faces)
                cand = enc + "|" + attr
                if best is None or cand < best:
                    best = cand
    return best


def _connected(adj, v):
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == v


def brute_force_sphere_classes(n_max: int) -> set[str]:
    """All isomorphism classes of simple sphere embeddings with <= n_max
    vertices whose faces are all simple polygons (>= 3 sides), built by
    direct enumeration of edge subsets and rotation systems.  Classes are
    keyed by graphgen.canonical_form on the all-unmodifiable decoration."""
    from itertools import combinations, permutations

    from rigorkit import graphgen as gg

    classes: set[str] = set()
    for v in range(3, n_max + 1):
        all_edges = list(combinations(range(v), 2))
        for ne in range(v, min(3 * v - 6, len(all_edges)) + 1):
            for edges in combinations(all_edges, ne):
                adj = [[] for _ in range(v)]
                for a, b in edges:
                    adj[a].append(b)
                    adj[b].append(a)
                if any(len(nbrs) < 2 for nbrs in adj):
                    continue
                if not _connected(adj, v):
                    continue
                # all cyclic orders: fix each vertex's first neighbour
                choice_lists = [
                    [(nbrs[0],) + p for p in permutations(nbrs[1:])]
                    for nbrs in adj
                ]

                def rec(i, rot):
                    if i == v:
                        faces = _oracle_faces(rot)
                        if v - ne + len(faces) != 2:
                            return
                        for f in faces:
                            if len(f) < 3:
                                return
                            verts = [d[0] for d in f]
                            if len(set(verts)) != len(verts):
                                return
                        g = gg.DecoratedGraph(tuple(rot), frozenset())
                        classes.add(gg.canonical_form(g))
                        return
                    for choice in choice_lists[i]:
                        rec(i + 1, rot + [choice])

                rec(0, [])
    return classes


# ---------------------------------------------------------------------------
# Assembly brute force
# ---------------------------------------------------------------------------

def assembly_grid_max(problem, points_per_domain: int = 10**6,
                      seed: int = 0) -> Optional[float]:
    """Best feasible objective found by dense random sampling (uniform in
    the domain boxes), feasibility-filtered by the nonlinear constraints
    and the global rows.  Returns None when no feasible sample exists."""
    rng = np.random.default_rng(seed)
    cols = []
    for d_idx, dom in enumerate(problem.domains):
        samples = np.empty((points_per_domain, dom.n))
        for s in range(dom.n):
            lo, hi = dom.box[s].lo, dom.box[s].hi
            samples[:, s] = rng.uniform(lo, hi, points_per_domain)
        keep = np.ones(points_per_domain, dtype=bool)
        for phi in dom.constraints:
            vals = evaluate_on_arrays(phi, [samples[:, s] for s in range(dom.n)])
            keep &= vals >= 0.0
        cols.append((dom, samples[keep]))
    # assemble global samples: independent per-domain draws, truncated to a
    # common count
    count = min(len(s) for _, s in cols)
    if count == 0:
        return None
    x = np.empty((count, problem.n))
    for d_idx, (_, samples) in enumerate(cols):
        x[:, problem.globals_of_domain(d_idx)] = samples[:count]
    keep = np.ones(count, dtype=bool)
    a = np.array(problem.a, dtype=float)
    b = np.array(problem.b, dtype=float)
    if len(a):
        keep &= (x @ a.T <= b + 1e-12).all(axis=1)
    if not keep.any():
        return None
    c = np.array(problem.c, dtype=float)
    return float((x[keep] @ c).max())
