"""Seeded input files for the benchmark workloads.

Everything here is the benchmark's own code: it imports nothing from
rigorkit or from the test suite, so a change to either cannot change the
workload.  The same seed always yields byte-identical files.

Each generator returns a list of job dicts:

    {"name": str, "argv": [...], "check": {...}}

`argv` is what `rigorkit.cli.dispatch` receives; `check` holds what the
output checker needs (expected verdicts, reference values, sample points).

The shape of every workload (arities, expression depths, matrix sizes,
parameter families) is fixed by the slot index; the seed only draws
coefficients, domains and points within each slot.  That keeps the work
per run close across seeds, so run-to-run spread measures the program
rather than the draw.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

import numpy as np

# ---------------------------------------------------------------------------
# Expressions: nested tuples rendered in rigorkit's grammar and evaluated in
# float64 with numpy over many points at once.
# ---------------------------------------------------------------------------

_CONSTS = ("0.25", "0.5", "0.75", "1.25", "1.5", "2", "3")
_POSITIVE = ("0.5", "1", "2")


def _shape(rng: random.Random, n: int, depth: int, polynomial: bool):
    """Operator skeleton of a random tree over x0..x{n-1}; constants are
    left open."""
    if depth <= 1:
        return ("const", None) if rng.random() < 0.25 else ("var", rng.randrange(n))
    ops = ["add", "sub", "mul", "mul", "pow"]
    if not polynomial:
        ops += ["div", "sqrt", "atan"]
    op = rng.choice(ops)
    if op in ("add", "sub", "mul"):
        return (op, _shape(rng, n, depth - 1, polynomial),
                _shape(rng, n, depth - 1, polynomial))
    if op == "pow":
        return ("pow", _shape(rng, n, depth - 1, polynomial), rng.choice((2, 3)))
    # Denominators and sqrt arguments are c + g^2 with c > 0, so they stay
    # away from zero on every box.
    guard = ("add", ("pos", None), ("pow", _shape(rng, n, max(depth - 2, 1), polynomial), 2))
    if op == "sqrt":
        return ("sqrt", guard)
    return (op, _shape(rng, n, depth - 1, polynomial), guard)


def _fill(shape, rng: random.Random):
    """Draw the constants of a skeleton."""
    kind = shape[0]
    if kind == "var":
        return shape
    if kind == "const":
        return ("const", rng.choice(_CONSTS))
    if kind == "pos":
        return ("const", rng.choice(_POSITIVE))
    return (kind,) + tuple(_fill(c, rng) if isinstance(c, tuple) else c
                           for c in shape[1:])


def _size(e) -> int:
    if e[0] in ("var", "const"):
        return 1
    return 1 + sum(_size(c) for c in e[1:] if isinstance(c, tuple))


# Accepted tree sizes per depth.  Random trees of one depth range from a
# path to a full tree; a band keeps the per-cell cost of a slot close across
# seeds.
_SIZE_BAND = {3: (5, 9), 4: (9, 15), 5: (13, 21)}


def render(e) -> str:
    kind = e[0]
    if kind == "var":
        return f"x{e[1]}"
    if kind == "const":
        return e[1]
    if kind == "add":
        return f"({render(e[1])} + {render(e[2])})"
    if kind == "sub":
        return f"({render(e[1])} - {render(e[2])})"
    if kind == "mul":
        return f"({render(e[1])} * {render(e[2])})"
    if kind == "div":
        return f"({render(e[1])} / {render(e[2])})"
    if kind == "pow":
        return f"pow({render(e[1])}, {e[2]})"
    if kind == "sqrt":
        return f"sqrt({render(e[1])})"
    return f"atan({render(e[1])}, {render(e[2])})"


def evaluate(e, pts: np.ndarray) -> np.ndarray:
    """Float64 value of the expression at each column of pts (n x P)."""
    kind = e[0]
    if kind == "var":
        return pts[e[1]]
    if kind == "const":
        return np.full(pts.shape[1], float(e[1]))
    if kind == "pow":
        return evaluate(e[1], pts) ** e[2]
    if kind == "sqrt":
        return np.sqrt(evaluate(e[1], pts))
    a = evaluate(e[1], pts)
    b = evaluate(e[2], pts)
    if kind == "add":
        return a + b
    if kind == "sub":
        return a - b
    if kind == "mul":
        return a * b
    if kind == "div":
        return a / b
    return np.arctan(a / b)


def _dec(x: float) -> str:
    """Short decimal text (6 significant digits) for a float."""
    return f"{x:.6g}"


# ---------------------------------------------------------------------------
# prove: generated .ineq tasks
# ---------------------------------------------------------------------------

_LOWS = (-1.0, -0.5, 0.0, 0.25, 0.5)
_WIDTHS = (0.5, 1.0, 1.5)


def _box_points(lo: np.ndarray, hi: np.ndarray, rng: np.random.Generator,
                count: int) -> np.ndarray:
    n = lo.size
    pts = [lo[:, None] + (hi - lo)[:, None] * rng.random((n, count))]
    corners = np.array([[hi[i] if (m >> i) & 1 else lo[i] for i in range(n)]
                        for m in range(1 << n)]).T
    pts.append(corners)
    pts.append(((lo + hi) / 2)[:, None])
    return np.concatenate(pts, axis=1)


def _estimate_max(e, lo, hi, rng):
    """Float estimate of (max, min) over the box: random and corner samples,
    then a shrinking random search around the best point."""
    pts = _box_points(lo, hi, rng, 4096)
    vals = evaluate(e, pts)
    k = int(np.argmax(vals))
    best, best_x, low = float(vals[k]), pts[:, k].copy(), float(np.min(vals))
    radius = (hi - lo) / 4
    for _ in range(12):
        cand = best_x[:, None] + radius[:, None] * (2 * rng.random((lo.size, 256)) - 1)
        cand = np.clip(cand, lo[:, None], hi[:, None])
        cv = evaluate(e, cand)
        j = int(np.argmax(cv))
        if cv[j] > best:
            best, best_x = float(cv[j]), cand[:, j].copy()
        else:
            radius = radius / 2
    return best, low


def _max_curvature(e, lo, hi, rng) -> float:
    """Largest |second difference| along any axis at random points."""
    pts = _box_points(lo, hi, rng, 256)
    h = 1e-3 * (hi - lo)
    mid = evaluate(e, pts)
    worst = 0.0
    for i in range(lo.size):
        step = np.zeros((lo.size, 1))
        step[i, 0] = h[i]
        up = evaluate(e, np.clip(pts + step, lo[:, None], hi[:, None]))
        down = evaluate(e, np.clip(pts - step, lo[:, None], hi[:, None]))
        worst = max(worst, float(np.max(np.abs(up - 2 * mid + down))) / h[i] ** 2)
    return worst


def _ineq_text(arity: int, body: str, lo, hi, margin: str, note: str) -> str:
    lines = [f"# {note}", f"arity {arity}", f"expr {body}"]
    for i in range(arity):
        lines.append(f"domain x{i} {_dec(lo[i])}..{_dec(hi[i])}")
    lines.append(f"margin {margin}")
    return "\n".join(lines) + "\n"


# Gap between the estimated maximum and the proven bound, as a share of the
# function's range over the box, per arity: tight enough that most tasks need
# tens to a few thousand cells, loose enough that arity 6 stays tractable.
_GAP = {2: 0.03, 3: 0.1, 4: 0.3, 5: 0.5, 6: 0.7}

PROVE_TASKS = 100
_WOBBLE = 0.05
PLANTED_TASKS = 16
PROVE_MAX_CELLS = 6000
PLANTED_MAX_CELLS = 150


def _one_task(shape, centres, rng: random.Random, nrng: np.random.Generator,
              planted: bool):
    """A random tree plus a concave quadratic bowl centred inside the box,
    so the maximum is interior and the prover has to subdivide around it
    rather than collapse the cell onto a corner.  Returns None when no draw
    of leaves gives the skeleton a usable range."""
    arity = len(centres)
    for _ in range(20):
        lo = np.array([rng.choice(_LOWS) for _ in range(arity)])
        hi = lo + np.array([rng.choice(_WIDTHS) for _ in range(arity)])
        t = _fill(shape, rng)
        t_top, t_low = _estimate_max(t, lo, hi, nrng)
        t_span = t_top - t_low
        # A near-constant tree (say x1 - x1) would get a huge scale and
        # make interval overestimation, not the task, set the cell count.
        if not (math.isfinite(t_span) and 0.1 < t_span < 1e6):
            continue
        # Bowl curvature scales with 1/width^2 and its centre sits at a
        # fixed share of each width, so a slot sees the same bowl in
        # box-relative coordinates for every seed; the tree is a wobble.
        bowl = None
        for i in range(arity):
            w = hi[i] - lo[i]
            centre = lo[i] + w * centres[i]
            term = ("mul", ("const", _dec(4.0 / (w * w))),
                    ("pow", ("sub", ("var", i), ("const", _dec(centre))), 2))
            bowl = term if bowl is None else ("add", bowl, term)
        # The wobble stays small in value and in curvature, so the bowl,
        # whose shape is the same for every seed, sets the cell count.
        curv = _max_curvature(t, lo, hi, nrng)
        scale = _dec(min(_WOBBLE * arity / t_span,
                         0.25 * 8.0 / float(np.max(hi - lo)) ** 2 / max(curv, 1e-9)))
        e = ("sub", ("mul", ("const", scale), t), bowl)
        top, low = _estimate_max(e, lo, hi, nrng)
        span = top - low
        if math.isfinite(span) and 1e-3 < span < 1e6:
            break
    else:
        return None
    if planted:
        # f > 0 around the sampled maximiser: the task is false.
        shift = float(_dec(top - 0.05 * span))
        margin = "0"
    else:
        gap = _GAP[arity] * span
        margin_v = float(_dec(0.01 * span))
        shift = float(_dec(top + gap + margin_v))
        margin = _dec(margin_v)
    f = ("sub", e, ("const", _dec(shift))) if shift >= 0 else \
        ("add", e, ("const", _dec(-shift)))
    return f, lo, hi, margin


def prove_jobs(seed: int, outdir: Path, problems: Path) -> list[dict]:
    rng = random.Random(f"prove:{seed}")
    nrng = np.random.default_rng([seed, 1])
    jobs = []
    for slot in range(PROVE_TASKS + PLANTED_TASKS):
        planted = slot >= PROVE_TASKS
        if planted:
            k = slot - PROVE_TASKS
            arity, depth, poly = 2 + k % 2, 3, k % 4 == 0
        else:
            arity, depth, poly = 2 + slot % 5, 3 + (slot // 5) % 3, slot % 3 == 0
        shape_rng = random.Random(f"shape:{slot}")
        centres = [shape_rng.choice((0.35, 0.45, 0.55, 0.65)) for _ in range(arity)]
        drawn = None
        while drawn is None:
            shape = _shape(shape_rng, arity, depth, poly)
            if _SIZE_BAND[depth][0] <= _size(shape) <= _SIZE_BAND[depth][1]:
                drawn = _one_task(shape, centres, rng, nrng, planted)
        e, lo, hi, margin = drawn
        name = f"{'planted' if planted else 'task'}{slot:03d}"
        path = outdir / f"{name}.ineq"
        path.write_text(_ineq_text(arity, render(e), lo, hi, margin,
                                   "planted false" if planted else "generated"))
        check_pts = _box_points(lo, hi, np.random.default_rng([seed, 2, slot]), 64)
        jobs.append({
            "name": name,
            "argv": ["--seed", str(seed), "prove", "--task", str(path),
                     "--max-cells", str(PLANTED_MAX_CELLS if planted else PROVE_MAX_CELLS)],
            "check": {"kind": "prove", "planted": planted, "expr": e,
                      "margin": float(margin), "points": check_pts},
        })
    six = problems / "six_squares.ineq"
    jobs.append({
        "name": "six_squares",
        "argv": ["--seed", str(seed), "prove", "--task", str(six)],
        "check": six_squares_check(),
    })
    return jobs


def six_squares_check() -> dict:
    """Check data for the shipped problems/six_squares.ineq."""
    e = ("sub", ("const", "0"), ("const", "7"))
    for i in range(6):
        e = ("add", e, ("mul", ("var", i), ("var", i)))
    lo, hi = np.zeros(6), np.ones(6)
    return {"kind": "prove", "planted": False, "expr": e, "margin": 0.0,
            "points": _box_points(lo, hi, np.random.default_rng([0, 6]), 64)}


# ---------------------------------------------------------------------------
# certify: LPs, assembly problems and geometry parameter sets
# ---------------------------------------------------------------------------

# Variables per LP slot run evenly from 15 to 120, so LP latencies spread
# without steps; core inequality rows are 4/5 of that.  Forty slots give
# about 180k matrix entries, counting the two bound rows per variable.
LP_COUNT = 40


def _coef(rng: random.Random, lo: float, hi: float) -> str:
    return _dec(float(f"{rng.uniform(lo, hi):.3g}"))


def lp_problem(rng: random.Random, n: int, with_eq: bool):
    """Dense LP: max c.x, A x <= b (b > 0), optional A_eq x = 0, bounds around
    0, so x = 0 is feasible and the bounds keep it bounded."""
    m = (4 * n) // 5
    c = [_coef(rng, -1, 1) for _ in range(n)]
    a = [[_coef(rng, -1, 1) for _ in range(n)] for _ in range(m)]
    b = [_coef(rng, 1, 5) for _ in range(m)]
    aeq = [[_coef(rng, -1, 1) for _ in range(n)] for _ in range(2 if with_eq else 0)]
    bounds = [(-float(_coef(rng, 0.5, 2)), float(_coef(rng, 0.5, 2))) for _ in range(n)]
    lines = ["lp-problem v1", f"vars {n}"]
    lines += [f"obj {j} {v}" for j, v in enumerate(c)]
    for r, row in enumerate(aeq):
        lines += [f"eq {r} {j} {v}" for j, v in enumerate(row)]
        lines.append(f"eq_rhs {r} 0")
    for r, row in enumerate(a):
        lines += [f"ineq {r} {j} {v}" for j, v in enumerate(row)]
        lines.append(f"ineq_rhs {r} {b[r]}")
    lines += [f"bound {j} {_dec(lo)}..{_dec(hi)}" for j, (lo, hi) in enumerate(bounds)]
    arrays = {
        "c": np.array([float(v) for v in c]),
        "a": np.array([[float(v) for v in row] for row in a]),
        "b": np.array([float(v) for v in b]),
        "aeq": np.array([[float(v) for v in row] for row in aeq]).reshape(len(aeq), n),
        "bounds": bounds,
    }
    return "\n".join(lines) + "\n", arrays


def _lp_reference(arrays) -> float:
    """c.x at scipy's primal optimum, the value each certified bound must
    dominate."""
    from scipy.optimize import linprog

    res = linprog(-arrays["c"], A_ub=arrays["a"], b_ub=arrays["b"],
                  A_eq=arrays["aeq"] if arrays["aeq"].size else None,
                  b_eq=np.zeros(arrays["aeq"].shape[0]) if arrays["aeq"].size else None,
                  bounds=arrays["bounds"], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP solve failed: {res.message}")
    return float(arrays["c"] @ res.x)


def lp_jobs(seed: int, outdir: Path) -> list[dict]:
    rng = random.Random(f"lp:{seed}")
    jobs = []
    for slot in range(LP_COUNT):
        n = 15 + round(105 * slot / (LP_COUNT - 1))
        text, arrays = lp_problem(rng, n, with_eq=slot % 3 == 0)
        path = outdir / f"lp{slot:02d}.lp"
        path.write_text(text)
        jobs.append({
            "name": f"lp{slot:02d}",
            "argv": ["--seed", str(seed), "lp-certify", "--problem", str(path), "--solve"],
            "check": {"kind": "lp", "reference": _lp_reference(arrays)},
        })
    return jobs


# Assembly problems: each domain is a disc (or ball) phi = rho^2 - |x|^2 >= 0
# inside a box, the objective is linear with positive weights and the one
# linear row does not bind, so the optimum is sum_D rho_D |c_D| at
# x*_D = rho_D c_D / |c_D|.  The bound M sits 10% above it.
ASSEMBLY_COUNT = 30
# The default 16 random test points leave some fitted multipliers far from
# the Lagrange value, and verification then runs to its cell budget.
ASSEMBLY_TEST_POINTS = 128


def _assembly(rng: random.Random, slot: int):
    n_domains = 1 + slot % 2
    dims = 2 + (slot // 2) % 2
    blocks, rows, objs, x_star = [], [], [], []
    opt = 0.0
    names = []
    for d in range(n_domains):
        rho = float(_coef(rng, 0.6, 1.2))
        c = [float(_coef(rng, 0.3, 1.5)) for _ in range(dims)]
        norm = math.sqrt(sum(v * v for v in c))
        opt += rho * norm
        x_star += [rho * v / norm for v in c]
        var_names = [f"v{k}" for k in range(dims)]
        phi = f"{_dec(rho * rho)}" + "".join(f" - x{k}*x{k}" for k in range(dims))
        blocks += [f"domain d{d}", "  vars " + " ".join(var_names),
                   "  box " + " ".join("0..1.5" for _ in range(dims)),
                   f"  phi {phi}", "end"]
        for k in range(dims):
            names.append(f"d{d}.v{k}")
            objs.append(f"obj d{d}.v{k} {_dec(c[k])}")
    rows += [f"row 0 {nm} 1" for nm in names]
    rows.append(f"rhs 0 {_dec(2.0 * len(names))}")
    text = "\n".join(["assembly-problem v1"] + blocks + rows + objs) + "\n"
    bound = float(_dec(opt + 0.1 * (1 + opt)))
    return text, opt, bound, x_star


def assembly_jobs(seed: int, outdir: Path, problems: Path) -> list[dict]:
    rng = random.Random(f"assembly:{seed}")
    jobs = []
    for slot in range(ASSEMBLY_COUNT):
        text, opt, bound, x_star = _assembly(rng, slot)
        prob = outdir / f"asm{slot:02d}.asm"
        cert = outdir / f"asm{slot:02d}.cert"
        prob.write_text(text)
        jobs.append({
            "name": f"asm{slot:02d}.fit",
            "argv": ["--seed", str(seed), "assemble", "fit", "--problem", str(prob),
                     "--bound", _dec(bound), "--guess", " ".join(repr(v) for v in x_star),
                     "--test-points", str(ASSEMBLY_TEST_POINTS), "--certificate", str(cert)],
            "check": {"kind": "fit", "certificate": str(cert)},
        })
        jobs.append({
            "name": f"asm{slot:02d}.verify",
            "argv": ["--seed", str(seed), "assemble", "verify", "--problem", str(prob),
                     "--certificate", str(cert), "--max-cells", "1500"],
            "check": {"kind": "verify", "optimum": opt, "bound": bound},
        })
    # The shipped toy problem (optimum 1): M = 1 certifies; the hand-made
    # certificate for M = 0.9 claims a false bound and must not certify.
    toy = problems / "toy_duality.asm"
    cert = outdir / "toy_m1.cert"
    forced = outdir / "toy_m09.cert"
    forced.write_text("duality-certificate v1\nM 0.9\nt0 0.1\nx_star 0 1.0\n"
                      "r d0 0 0.0\nw 0 1.0\nretained 0\n")
    jobs += [
        {"name": "toy_m1.fit",
         "argv": ["--seed", str(seed), "assemble", "fit", "--problem", str(toy),
                  "--bound", "1.0", "--guess", "1.0", "--certificate", str(cert)],
         "check": {"kind": "fit", "certificate": str(cert)}},
        {"name": "toy_m1.verify",
         "argv": ["--seed", str(seed), "assemble", "verify", "--problem", str(toy),
                  "--certificate", str(cert)],
         "check": {"kind": "verify", "optimum": 1.0, "bound": 1.0, "expect": True}},
        {"name": "toy_m09.verify",
         "argv": ["--seed", str(seed), "assemble", "verify", "--problem", str(toy),
                  "--certificate", str(forced), "--max-cells", "400"],
         "check": {"kind": "verify", "optimum": 1.0, "bound": 0.9}},
    ]
    jobs.append({
        "name": "voronoi2d.verify",
        "argv": ["--seed", str(seed), "assemble", "verify",
                 "--problem", str(problems / "voronoi2d.asm"),
                 "--certificate", str(problems / "voronoi2d.cert"), "--max-cells", "60000"],
        "check": {"kind": "verify", "optimum": None, "bound": -3.7, "expect": True},
    })
    return jobs


# Geometry.  Expected verdicts come from a float64 replica of each check's
# extremal construction; parameters within a few percent of a decision
# boundary are redrawn, so the expectation never rests on rounding.

def _place_base(d01, d02, d12):
    x2 = (d01 * d01 + d02 * d02 - d12 * d12) / (2 * d01)
    y2sq = d02 * d02 - x2 * x2
    return x2, y2sq


def _apex(d01, x2, y2, r0, r1, r2):
    x = (d01 * d01 + r0 * r0 - r1 * r1) / (2 * d01)
    y = (x2 * x2 + y2 * y2 + r0 * r0 - r2 * r2 - 2 * x2 * x) / (2 * y2)
    return np.array([x, y, 0.0]), r0 * r0 - x * x - y * y


def _cayley_menger(d: dict) -> float:
    m = np.ones((5, 5))
    m[0, 0] = 0.0
    for i in range(4):
        m[i + 1, i + 1] = 0.0
        for j in range(i + 1, 4):
            m[i + 1, j + 1] = m[j + 1, i + 1] = d[(i, j)] ** 2
    return float(np.linalg.det(m))


def _simplex_case(rng: random.Random, kind: int):
    """Edge caps near a regular simplex and a radius r.  kind 0: one cap
    stretched so the caps are unrealizable (Cayley-Menger negative); kind 1:
    the pivoted point lands closer than r to the fourth vertex (refuted);
    kind 2: it stays farther (inconclusive).  Returns (caps, r, refuted)."""
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    while True:
        edge = float(_coef(rng, 1.5, 3.0))
        caps = [float(_coef(rng, edge * 0.95, edge * 1.05)) for _ in pairs]
        if kind == 0:
            caps[5] = float(_coef(rng, edge * 2.2, edge * 2.5))
        d = dict(zip(pairs, caps))
        r = float(_coef(rng, edge * 0.6, edge * 1.0))
        cm = _cayley_menger(d)
        if abs(cm) < 0.05 * edge ** 6 or (cm < 0) != (kind == 0):
            continue
        if kind == 0:
            return [_dec(v) for v in caps], _dec(r), True
        x2, y2sq = _place_base(d[(0, 1)], d[(0, 2)], d[(1, 2)])
        y2 = math.sqrt(y2sq)
        p3, z3sq = _apex(d[(0, 1)], x2, y2, d[(0, 3)], d[(1, 3)], d[(2, 3)])
        q, zqsq = _apex(d[(0, 1)], x2, y2, r, r, r)
        if min(z3sq, zqsq) < 0.02 * edge * edge:
            continue  # apex (nearly) unconstructible: no clean expectation
        p3[2], q[2] = math.sqrt(z3sq), math.sqrt(zqsq)
        fourth = float(np.linalg.norm(q - p3))
        if abs(fourth - r) < 0.03 * r or (fourth < r) != (kind == 1):
            continue
        return [_dec(v) for v in caps], _dec(r), kind == 1


def _segment_case(rng: random.Random, want_refuted: bool):
    r1 = float(_coef(rng, 0.5, 2.0))
    r3 = float(_coef(rng, r1 * 1.05, r1 * 2.0))
    min_len = 2 * math.sqrt(r3 * r3 - r1 * r1)
    factor = rng.uniform(0.7, 0.95) if want_refuted else rng.uniform(1.05, 1.3)
    r2 = float(_coef(rng, min_len * factor, min_len * factor))
    return _dec(r1), _dec(r2), _dec(r3), want_refuted


_FRAME = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_LABELS = ("0", "p1", "p2", "p3", "q")


def _circle(caps: dict, big_r: float, floor: float):
    """Float replica of check_linked_line's frame and the circle q sweeps:
    returns (p1, p2, p3, q samples) or None when the construction fails."""
    d01, d02, d12 = caps[(0, 1)], caps[(0, 2)], caps[(1, 2)]
    x2, y2sq = _place_base(d01, d02, d12)
    if y2sq <= 0:
        return None
    y2 = math.sqrt(y2sq)
    p3, z3sq = _apex(d01, x2, y2, caps[(0, 3)], caps[(1, 3)], caps[(2, 3)])
    if z3sq <= 0.05:
        return None
    p3[2] = math.sqrt(z3sq)
    p1, p2 = np.array([d01, 0.0, 0.0]), np.array([x2, y2, 0.0])
    l2 = d01 * d01
    alpha = (big_r * big_r + l2 - floor * floor) / (2 * l2)
    h_sq = big_r * big_r - alpha * alpha * l2
    if h_sq <= 0.05:
        return None
    h = math.sqrt(h_sq)
    beta = float(p2 @ p1) / l2
    w = p2 - beta * p1
    w_unit = w / np.linalg.norm(w)
    c_vec = np.cross(p1, w)
    c_unit = c_vec / np.linalg.norm(c_vec)
    cs = np.linspace(-1.0, 1.0, 4001)
    qs = []
    for sign in (1.0, -1.0):
        s = sign * np.sqrt(np.clip(1.0 - cs * cs, 0.0, None))
        qs.append(alpha * p1[:, None] + h * (np.outer(w_unit, cs) + np.outer(c_unit, s)))
    return p1, p2, p3, np.concatenate(qs, axis=1)


def _linked_case(rng: random.Random, family: int):
    """family 0: refuted by triangle-inequality accounting on the caps;
    family 1: refuted cell by cell over the whole sweep (dmax(p2,q) below
    every distance the circle reaches); family 2: a linked point satisfying
    every bound exists, so the sweep must stay inconclusive."""
    while True:
        spread = float(_coef(rng, 3.0, 4.0))
        caps = {pair: float(_coef(rng, spread * 0.95, spread * 1.05)) for pair in _FRAME}
        caps.update({(0, 1): float(_coef(rng, 2.0, 2.5)),
                     (0, 2): float(_coef(rng, 2.0, 2.5)),
                     (0, 3): float(_coef(rng, 2.0, 2.5))})
        big_r = float(_coef(rng, 1.0, 2.0))
        floor = float(_coef(rng, 1.0, 2.5))
        lines = ["points " + " ".join(_LABELS)]
        lines += [f"dmax {_LABELS[i]} {_LABELS[j]} {_dec(v)}" for (i, j), v in caps.items()]
        lines += [f"dmax 0 q {_dec(big_r)}", f"dmin p1 q {_dec(floor)}"]
        if family == 0:
            # p1 and q at least (0,p1) + (0,q) caps + 0.5 apart
            lines[-1] = f"dmin p1 q {_dec(caps[(0, 1)] + big_r + 0.5)}"
            return "\n".join(lines) + "\n", True
        geo = _circle(caps, big_r, floor)
        if geo is None:
            continue
        p1, p2, p3, qs = geo
        dist2 = np.linalg.norm(qs - p2[:, None], axis=0)
        if family == 1:
            cap = float(dist2.min()) - 0.4
            if cap < 0.3:
                continue
            lines.append(f"dmax p2 q {_dec(cap)}")
            return "\n".join(lines) + "\n", True
        dets = np.stack([np.cross(a, b) @ qs for a, b in ((p1, p2), (p2, p3), (p3, p1))])
        scale = float(np.abs(dets).max())
        linked = np.all(dets > 0.02 * scale, axis=0) | np.all(dets < -0.02 * scale, axis=0)
        if linked.any():
            return "\n".join(lines) + "\n", False


# Counts put the median certify job inside the block of simplex checks,
# whose latencies are alike, rather than on a step between job kinds.
GEOM_SEGMENT = 100
GEOM_SIMPLEX = 150
GEOM_LINKED = 45


def geom_jobs(seed: int, outdir: Path, problems: Path) -> list[dict]:
    rng = random.Random(f"geom:{seed}")
    jobs = []
    for k in range(GEOM_SEGMENT):
        r1, r2, r3, refuted = _segment_case(rng, want_refuted=k % 2 == 0)
        jobs.append({"name": f"segment{k:03d}",
                     "argv": ["--seed", str(seed), "geom", "segment",
                              "--r1", r1, "--r2", r2, "--r3", r3],
                     "check": {"kind": "geom", "refuted": refuted}})
    for k in range(GEOM_SIMPLEX):
        caps, r, refuted = _simplex_case(rng, kind=k % 3)
        jobs.append({"name": f"simplex{k:03d}",
                     "argv": ["--seed", str(seed), "geom", "simplex",
                              "--edges", *caps, "--r", r],
                     "check": {"kind": "geom", "refuted": refuted}})
    for k in range(GEOM_LINKED):
        text, refuted = _linked_case(rng, family=k % 3)
        path = outdir / f"linked{k:02d}.dspec"
        path.write_text(text)
        jobs.append({"name": f"linked{k:02d}",
                     "argv": ["--seed", str(seed), "geom", "linked", "--spec", str(path)],
                     "check": {"kind": "geom", "refuted": refuted}})
    jobs.append({"name": "linked_line_refuted",
                 "argv": ["--seed", str(seed), "geom", "linked",
                          "--spec", str(problems / "linked_line_refuted.dspec")],
                 "check": {"kind": "geom", "refuted": True}})
    return jobs


def certify_jobs(seed: int, outdir: Path, problems: Path) -> list[dict]:
    return (lp_jobs(seed, outdir) + assembly_jobs(seed, outdir, problems)
            + geom_jobs(seed, outdir, problems))


def graphs_jobs(seed: int, outdir: Path, problems: Path) -> list[dict]:
    """The enumeration has no random input; the seed is only echoed."""
    return [
        {"name": "graphs_n6",
         "argv": ["--seed", str(seed), "graphs", "--max-vertices", "6"],
         "check": {"kind": "graphs", "classes": 62}},
        {"name": "graphs_n8_triangles",
         "argv": ["--seed", str(seed), "graphs", "--max-vertices", "8",
                  "--prune", "all-triangles"],
         "check": {"kind": "graphs", "classes": 22}},
    ]
