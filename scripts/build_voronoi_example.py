#!/usr/bin/env python3
"""Build the shipped 2D truncated-Voronoi-cell assembly instance and fit
its lower-bound duality certificate.

Setup: disks of radius 1 in the plane, truncation radius t = 1.25.  The
cell at the origin is split into n = 4 sectors between consecutive
neighbour directions.  Each sector carries variables

    A      area contribution of the sector
    y_a    distance to the neighbour bounding the sector on one side
    y_b    distance to the neighbour on the other side
    alpha  sector angle

with boxes A in [0.5, 1.75], y in [2, 2.375], alpha in [1.375, 1.875]
(all dyadic, so file literals are short and exact).  On
those boxes each neighbour's bisector cuts the truncation circle and the
two cuts do not overlap (2*atan(sqrt(t^2-1)) = 1.287 < 1.375 <= alpha), so
the sector area has the single closed form

    F(y_a, y_b, alpha) = T(y_a) + T(y_b) + (t^2/2)(alpha - th(y_a) - th(y_b))
    T(y)  = (y/2) sqrt(t^2 - (y/2)^2) / 2
    th(y) = atan( sqrt(t^2 - (y/2)^2), y/2 )

The implicit relation A = F is encoded as the constraint pair A - F >= 0,
F - A >= 0.  Linking rows: the four angles sum to 2*pi (a two-sided
window a hair wide so binary64 data can sit inside), and y_b of each
sector equals y_a of the next.

The objective is -sum A (an upper bound M on it is a lower bound -M on
the cell area).  We fit and verify M = -3.7; the true minimum is about
3.8869 (all y at 2), so the certificate has a healthy margin.  The fit
starts from that symmetric cell, each A evaluated from F's text above.

Writes problems/voronoi2d.asm and problems/voronoi2d.cert.
"""

import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from rigorkit import assembly as asm
from rigorkit.expr import FloatPlan, parse
from rigorkit.prover import ProverConfig
from rigorkit.taylor import Box

N_SECTORS = 4
TAU_LO = 6.2831853071795
TAU_HI = 6.2831853071797

A_BOX = (0.5, 1.75)
Y_BOX = (2.0, 2.375)
ALPHA_BOX = (1.375, 1.875)


def area_formula_text() -> str:
    ell = "sqrt(1.5625 - ({y}/2)*({y}/2))"
    tri = "({y}/2)*" + ell + "/2"
    theta = "atan(" + ell + ", {y}/2)"
    t_a = tri.format(y="x1")
    t_b = tri.format(y="x2")
    th_a = theta.format(y="x1")
    th_b = theta.format(y="x2")
    return f"{t_a} + {t_b} + 0.78125*(x3 - {th_a} - {th_b})"


def build_problem() -> asm.AssemblyProblem:
    f_text = area_formula_text()
    phi1 = parse(f"x0 - ({f_text})", 4)
    phi2 = parse(f"({f_text}) - x0", 4)
    box = Box.from_bounds([A_BOX, Y_BOX, Y_BOX, ALPHA_BOX])
    domains = tuple(
        asm.LocalDomain(f"sector{i}", ("A", "y_a", "y_b", "alpha"), box, (phi1, phi2))
        for i in range(N_SECTORS))

    def g(i, name):
        return 4 * i + {"A": 0, "y_a": 1, "y_b": 2, "alpha": 3}[name]

    n = 4 * N_SECTORS
    rows = []
    rhs = []
    # angle sum window: sum alpha <= TAU_HI, -sum alpha <= -TAU_LO
    row = [0.0] * n
    for i in range(N_SECTORS):
        row[g(i, "alpha")] = 1.0
    rows.append(tuple(row))
    rhs.append(TAU_HI)
    rows.append(tuple(-v for v in row))
    rhs.append(-TAU_LO)
    # y-matching: y_b(i) = y_a(i+1), as two inequalities each
    for i in range(N_SECTORS):
        j = (i + 1) % N_SECTORS
        row = [0.0] * n
        row[g(i, "y_b")] = 1.0
        row[g(j, "y_a")] = -1.0
        rows.append(tuple(row))
        rhs.append(0.0)
        rows.append(tuple(-v for v in row))
        rhs.append(0.0)
    c = [0.0] * n
    for i in range(N_SECTORS):
        c[g(i, "A")] = -1.0
    return asm.AssemblyProblem(domains, tuple(rows), tuple(rhs), tuple(c))


def main():
    problem = build_problem()
    out_problem = ROOT / "problems" / "voronoi2d.asm"
    out_problem.write_text(asm.problem_to_text(problem))
    print("wrote", out_problem)

    alpha_star = math.pi / 2
    a_star = FloatPlan([parse(area_formula_text(), 4)])((0.0, 2.0, 2.0, alpha_star))[0]
    print(f"symmetric sector area: {a_star!r}; total {4 * a_star!r}")
    x_star = []
    for _ in range(N_SECTORS):
        x_star += [a_star, 2.0, 2.0, alpha_star]
    m_bound = -3.7

    cert = asm.fit_dual(problem, x_star, m_bound, seed=20260808, n_random=24)
    if cert is None:
        print("fit produced no candidate")
        return 1
    print("candidate: t0 =", cert.t0, "w =", cert.w, "retained =", cert.retained_rows)
    outcome = asm.verify_duality(problem, cert, ProverConfig(max_cells=60000))
    print("verify:", outcome.certified, outcome.reason)
    if outcome.certified:
        out_cert = ROOT / "problems" / "voronoi2d.cert"
        out_cert.write_text(asm.certificate_to_text(problem, cert))
        print("wrote", out_cert, " (certified cell area lower bound %.6f)" % -m_bound)
        return 0
    return 1


if __name__ == "__main__":
    sys.exit(main())
