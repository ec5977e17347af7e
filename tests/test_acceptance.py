"""Acceptance suite: one test per criterion, each printing a pass line
and enforcing its stated runtime budget.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  Criteria 3, 7 and 9 are factored into rerunnable functions whose
serialized reports criterion 11 compares byte-for-byte.
"""

import math
import random
import time
from fractions import Fraction

import oracles
from oracles import (assembly_grid_max, exact_lp_optimum, fd_gradient, fd_hessian,
                     grid_max, random_expr)
from rigorkit import assembly as asm
from rigorkit import expr as ex
from rigorkit import geom
from rigorkit import graphgen as gg
from rigorkit import interval as iv
from rigorkit import lp
from rigorkit.errors import IntervalError
from rigorkit.interval import Interval
from rigorkit.prover import (ProofStatus, ProofTask, ProverConfig,
                             prove_negative)
from rigorkit.taylor import Box

I = Interval


def _report_line(n, name, t0):
    print(f"ACCEPTANCE {n} ({name}): PASS in {time.perf_counter() - t0:.1f}s")


# ---------------------------------------------------------------------------
# 1. Interval containment fuzz
# ---------------------------------------------------------------------------

def test_criterion_01_interval_containment_fuzz():
    t0 = time.perf_counter()
    rng = random.Random(10001)
    violations = 0
    n_samples = 100_000
    for k in range(n_samples):
        op = k % 6
        al = rng.uniform(-100, 100)
        ah = al + abs(rng.gauss(0, 10))
        a = I(al, ah)
        x = rng.uniform(al, ah)
        if op < 4:
            bl = rng.uniform(-100, 100)
            bh = bl + abs(rng.gauss(0, 10))
            b = I(bl, bh)
            y = rng.uniform(bl, bh)
            if op == 0:
                ok = I(*iv.add(a, b)).contains(x + y)
            elif op == 1:
                ok = I(*iv.sub(a, b)).contains(x - y)
            elif op == 2:
                ok = I(*iv.mul(a, b)).contains(x * y)
            else:
                if b.contains(0.0):
                    continue
                ok = I(*iv.div(a, b)).contains(x / y)
        elif op == 4:
            ok = I(*iv.atan_interval(a)).contains(math.atan(x))
        else:
            if a.hi < 0:
                continue
            xs = max(x, 0.0)
            ok = I(*iv.sqrt_interval(a)).contains(math.sqrt(xs))
        if not ok:
            violations += 1
    elapsed = time.perf_counter() - t0
    assert violations == 0
    assert elapsed < 10.0, f"criterion 1 exceeded budget: {elapsed:.1f}s"
    _report_line(1, "interval containment fuzz", t0)


# ---------------------------------------------------------------------------
# 2. Gradient/Hessian soundness
# ---------------------------------------------------------------------------

def test_criterion_02_gradient_hessian_soundness():
    t0 = time.perf_counter()
    rng = random.Random(10002)
    accepted = 0
    while accepted < 1000:
        arity = rng.randint(1, 6)
        e = random_expr(rng, arity, rng.randint(2, 6))
        if "x" not in ex.to_text(e):
            continue
        pt = [rng.uniform(-1.5, 1.5) for _ in range(arity)]
        box = [I.point(v) for v in pt]
        try:
            ev = ex.Evaluator(e, arity)
            germ = ev.germ(box)
        except IntervalError:
            continue
        if germ.f.mag > 1e5 or any(d.mag > 1e5 for d in germ.df):
            continue
        plan = ex.FloatPlan((e,))
        for i in range(arity):
            fd = fd_gradient(plan, pt, i)
            tol = 1e-6 * (1.0 + germ.df[i].mag) + 1e-9
            assert germ.df[i].lo - tol <= fd <= germ.df[i].hi + tol, \
                (ex.to_text(e), pt, i)
        pairs = [(i, j) for i in range(arity) for j in range(i, arity)]
        if len(pairs) > 4:
            pairs = [pairs[rng.randrange(len(pairs))] for _ in range(4)]
        bad = False
        for i, j in pairs:
            try:
                h_enc = ev.hessian_entry(box, i, j)
            except IntervalError:
                bad = True
                break
            if h_enc.mag > 1e5:
                bad = True
                break
            fd2 = fd_hessian(plan, pt, i, j)
            tol = 1e-4 * (1.0 + h_enc.mag) + 1e-6
            assert h_enc.lo - tol <= fd2 <= h_enc.hi + tol, \
                (ex.to_text(e), pt, i, j)
        if bad:
            continue
        accepted += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 2 exceeded budget: {elapsed:.1f}s"
    _report_line(2, "gradient/Hessian soundness", t0)


# ---------------------------------------------------------------------------
# 3. Prover soundness vs oracle (rerunnable for criterion 11)
# ---------------------------------------------------------------------------

def run_criterion_3(seed=10003):
    rng = random.Random(seed)
    lines = []
    proven_tasks = []
    for trial in range(200):
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, rng.randint(2, 4), polynomial=True)
        bounds = [(rng.uniform(-1.5, 0), rng.uniform(0.1, 1.5))
                  for _ in range(arity)]
        rough = grid_max(e, bounds, total_points=2000)
        offset = [0.4, 0.02, -0.1][trial % 3] * (1 + abs(rough))
        task_expr = ex.Sub(e, ex.const_from_float(rough + offset))
        report = prove_negative(ProofTask(task_expr, Box.from_bounds(bounds)),
                                ProverConfig(max_cells=400, min_width=1e-4))
        lines.append(f"task {trial}: {report.status.value} "
                     f"cells={report.cells_processed} "
                     f"bound={report.best_upper_bound_seen!r}")
        for cell in report.undecided_cells:
            lines.append("  undecided " + " ".join(
                iv.format_interval_literal(d) for d in cell))
        if report.status is ProofStatus.PROVEN:
            proven_tasks.append((task_expr, bounds))
    return "\n".join(lines) + "\n", proven_tasks


def test_criterion_03_prover_soundness_vs_oracle():
    t0 = time.perf_counter()
    text, proven = run_criterion_3()
    assert len(proven) >= 30, "ensemble produced too few Proven verdicts to be meaningful"
    for task_expr, bounds in proven:
        dense_max = grid_max(task_expr, bounds, total_points=10**6)
        assert dense_max < 0.0, ex.to_text(task_expr)
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 3 exceeded budget: {elapsed:.1f}s"
    _report_line(3, f"prover soundness ({len(proven)} proven, 10^6-point grid)", t0)


# ---------------------------------------------------------------------------
# 4. Prover capability
# ---------------------------------------------------------------------------

def test_criterion_04_prover_capability():
    t0 = time.perf_counter()
    e6 = ex.parse("x0*x0 + x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 - 7", 6)
    r1 = prove_negative(ProofTask(e6, Box(tuple(I(0, 1) for _ in range(6)))))
    assert r1.status is ProofStatus.PROVEN

    r2 = prove_negative(ProofTask(ex.parse("x0*x0 - 2"), Box((I(-1, 1),))))
    assert r2.status is ProofStatus.PROVEN

    diag = ex.parse("x0*x0 - 2*x0*x1 + x1*x1", 2)
    r3 = prove_negative(ProofTask(diag, Box((I(0, 1), I(0, 1)))),
                        ProverConfig(max_cells=4000))
    assert r3.status is ProofStatus.UNDECIDED

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"criterion 4 exceeded budget: {elapsed:.1f}s"
    _report_line(4, "prover capability", t0)


# ---------------------------------------------------------------------------
# 5. LP certificate soundness
# ---------------------------------------------------------------------------

def test_criterion_05_lp_certificate_soundness():
    from test_lp import random_problem

    t0 = time.perf_counter()
    rng = random.Random(10005)
    gaps = []
    for trial in range(500):
        p = random_problem(rng, with_eq=(trial % 3 == 0))
        opt, _ = exact_lp_optimum(p)
        x, (y, z), _ = lp.solve_approx(p)
        cert = lp.certify_upper_bound(p, y, z)
        assert Fraction(cert.bound) >= opt, trial
        gaps.append(float(Fraction(cert.bound) - opt) / (1 + abs(float(opt))))
        fy = [v + rng.uniform(-0.1, 0.1) for v in y]
        fz = [v + rng.uniform(-0.1, 0.1) for v in z]
        fuzzed = lp.certify_upper_bound(p, fy, fz)
        assert Fraction(fuzzed.bound) >= opt, trial
    gaps.sort()
    median = gaps[len(gaps) // 2]
    assert median <= 1e-6, median
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 5 exceeded budget: {elapsed:.1f}s"
    _report_line(5, f"LP certificate soundness (median rel gap {median:.1e})", t0)


# ---------------------------------------------------------------------------
# 6. K-t augmentation lemma
# ---------------------------------------------------------------------------

def test_criterion_06_augmentation_lemma():
    from test_lp import random_problem

    t0 = time.perf_counter()
    rng = random.Random(10006)
    checked = 0
    while checked < 100:
        p = random_problem(rng, n_max=10, m_max=10, with_eq=(checked % 4 == 0))
        m_opt, _ = exact_lp_optimum(p)
        k = float(m_opt) - 1.0 - rng.random()
        augmented = lp.augment_with_t(p, k)
        opt_aug, x_aug = exact_lp_optimum(augmented)
        assert opt_aug == m_opt, (float(opt_aug), float(m_opt))
        assert x_aug[-1] == 0, float(x_aug[-1])
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 6 exceeded budget: {elapsed:.1f}s"
    _report_line(6, "K-t augmentation lemma (100 rational-oracle checks)", t0)


# ---------------------------------------------------------------------------
# 7. Nonlinear duality end-to-end (rerunnable for criterion 11)
# ---------------------------------------------------------------------------

def run_criterion_7(seed=10007):
    from test_assembly import pick_guess_and_bound, random_assembly, toy_problem

    lines = []
    toy = toy_problem()
    cert1 = asm.fit_dual(toy, [1.0], 1.0, seed=seed)
    ok1 = cert1 is not None and asm.verify_duality(toy, cert1).certified
    lines.append(f"toy M=1.0 certified={ok1}")

    forced = asm.DualityCertificate(0.9, (1.0,), ((0.0,),), (1.0,), 0.1, (0,))
    out9 = asm.verify_duality(toy, forced, ProverConfig(max_cells=400))
    cert9 = asm.fit_dual(toy, [1.0], 0.9, seed=seed)
    refuted9 = (cert9 is None or
                not asm.verify_duality(toy, cert9, ProverConfig(max_cells=400)).certified)
    refuted9 = refuted9 and not out9.certified
    lines.append(f"toy M=0.9 refuted={refuted9}")

    rng = random.Random(seed)
    certified_instances = []
    for trial in range(50):
        p, _ = random_assembly(rng)
        x_star, m_bound = pick_guess_and_bound(p, rng, samples=3000)
        if x_star is None:
            lines.append(f"instance {trial}: infeasible-sampling")
            continue
        cand = asm.fit_dual(p, x_star, m_bound, seed=seed + trial, n_random=12)
        if cand is None:
            lines.append(f"instance {trial}: no-candidate")
            continue
        out = asm.verify_duality(p, cand, ProverConfig(max_cells=4000))
        lines.append(f"instance {trial}: certified={out.certified} M={m_bound!r}")
        if out.certified:
            certified_instances.append((p, m_bound, trial))
    return "\n".join(lines) + "\n", ok1, refuted9, certified_instances


def test_criterion_07_nonlinear_duality_end_to_end():
    t0 = time.perf_counter()
    text, ok1, refuted9, certified = run_criterion_7()
    assert ok1, "toy M=1 must certify"
    assert refuted9, "toy M=0.9 must be refuted"
    assert len(certified) >= 15, f"only {len(certified)} certified instances"
    for p, m_bound, trial in certified:
        brute = assembly_grid_max(p, points_per_domain=10**6, seed=trial)
        if brute is not None:
            assert brute <= m_bound + 1e-9 * (1 + abs(m_bound)), trial
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 7 exceeded budget: {elapsed:.1f}s"
    _report_line(7, f"nonlinear duality ({len(certified)} certified, "
                    "10^6-point brute force)", t0)


# ---------------------------------------------------------------------------
# 8. 2D Voronoi worked example
# ---------------------------------------------------------------------------

def test_criterion_08_voronoi_example():
    import mpmath
    from pathlib import Path

    t0 = time.perf_counter()
    root = Path(__file__).resolve().parent.parent
    problem = asm.problem_from_text((root / "problems" / "voronoi2d.asm").read_text())
    cert = asm.certificate_from_text(
        problem, (root / "problems" / "voronoi2d.cert").read_text())
    out = asm.verify_duality(problem, cert, ProverConfig(max_cells=60000))
    assert out.certified, out.reason
    area_bound = -cert.m_bound  # certified lower bound on the cell area

    # grid-sample feasible sector assemblies and evaluate the exact area
    with mpmath.workdps(40):
        t_sq = mpmath.mpf("1.5625")

        def sector_area(y_a, y_b, alpha):
            def tri(y):
                return (y / 2) * mpmath.sqrt(t_sq - (y / 2) ** 2) / 2

            def theta(y):
                return mpmath.atan2(mpmath.sqrt(t_sq - (y / 2) ** 2), y / 2)

            return tri(y_a) + tri(y_b) + t_sq / 2 * (alpha - theta(y_a) - theta(y_b))

        tau = 2 * mpmath.pi
        worst = None
        for y_choice in range(5):
            ys = [mpmath.mpf(2) + mpmath.mpf(y_choice) / 10] * 4
            for a1 in (1.4, 1.5707963267948966, 1.7):
                for a2 in (1.4, 1.5707963267948966, 1.7):
                    for a3 in (1.4, 1.5707963267948966, 1.7):
                        a4 = tau - a1 - a2 - a3
                        if not (1.375 <= a4 <= 1.875):
                            continue
                        alphas = [mpmath.mpf(a1), mpmath.mpf(a2), mpmath.mpf(a3), a4]
                        total = sum(
                            sector_area(ys[i], ys[(i + 1) % 4], alphas[i])
                            for i in range(4))
                        assert total >= area_bound, float(total)
                        worst = total if worst is None else min(worst, total)
        # random feasible samples too
        rng = random.Random(10008)
        for _ in range(500):
            ys = [mpmath.mpf(rng.uniform(2.0, 2.375)) for _ in range(4)]
            a = [mpmath.mpf(rng.uniform(1.4, 1.8)) for _ in range(3)]
            a4 = tau - a[0] - a[1] - a[2]
            if not (1.375 <= a4 <= 1.875):
                continue
            total = sum(sector_area(ys[i], ys[(i + 1) % 4], a[i] if i < 3 else a4)
                        for i in range(4))
            assert total >= area_bound, float(total)
            worst = total if worst is None else min(worst, total)

    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 8 exceeded budget: {elapsed:.1f}s"
    _report_line(8, f"2D Voronoi example (bound {area_bound}, "
                    f"sampled min {float(worst):.4f})", t0)


# ---------------------------------------------------------------------------
# 9. Graph enumeration (rerunnable for criterion 11)
# ---------------------------------------------------------------------------

def run_criterion_9():
    from test_graphgen import CUBOCTA_STEPS, cuboctahedron_target

    lines = []
    r3 = gg.generate(gg.GeneratorConfig(n_max=3))
    lines.append(f"N=3 classes={len(r3.terminals)}")
    r4 = gg.generate(gg.GeneratorConfig(
        n_max=4, prune=gg.compile_prune_spec("all-triangles")))
    lines.append(f"N=4 all-triangles classes={len(r4.terminals)}")
    for rec in r4.terminals:
        lines.append("  class " + rec.canonical)
    results = {}
    for n in (3, 4, 5):
        rn = gg.generate(gg.GeneratorConfig(n_max=n))
        results[n] = {t.canonical for t in rn.terminals}
        lines.append(f"N={n} classes={len(rn.terminals)}")
        for canon in sorted(results[n]):
            lines.append("  class " + canon)
    g = gg.seed_graph(4)
    for step in CUBOCTA_STEPS:
        g = gg.apply_step(g, step)
    blind = gg.DecoratedGraph(g.rot, frozenset())
    iso = gg.canonical_form(blind) == gg.canonical_form(cuboctahedron_target())
    lines.append(f"cuboctahedron {len(CUBOCTA_STEPS)}-step isomorphic={iso}")
    return "\n".join(lines) + "\n", r3, r4, results, iso


def test_criterion_09_graph_enumeration():
    t0 = time.perf_counter()
    text, r3, r4, results, iso = run_criterion_9()
    assert len(r3.terminals) == 1
    assert len(r4.terminals) == 1
    tet = r4.terminals[0].graph
    assert tet.n_vertices == 4 and tet.face_sizes() == [3, 3, 3, 3]
    for n in (3, 4, 5):
        oracle = oracles.brute_force_sphere_classes(n)
        assert results[n] == oracle, f"N={n}: {len(results[n])} vs {len(oracle)}"
    assert iso
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"criterion 9 exceeded budget: {elapsed:.1f}s"
    _report_line(9, f"graph enumeration (N<=5 matches oracle, "
                    f"{len(results[5])} classes at N=5)", t0)


# ---------------------------------------------------------------------------
# 10. Geometry Example 2.1
# ---------------------------------------------------------------------------

def test_criterion_10_geometry_example():
    import mpmath

    t0 = time.perf_counter()
    sqrt8 = I(*iv.sqrt_interval(I(8, 8)))
    res = geom.check_simplex_interior_point([sqrt8] * 6, I(2, 2))
    assert res.refuted
    with mpmath.workdps(50):
        exact = 2 / mpmath.sqrt(3)
        assert res.witness.lo <= float(exact) <= res.witness.hi
    assert res.witness.hi - res.witness.lo <= 1e-10
    assert res.witness.hi < 2.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"criterion 10 exceeded budget: {elapsed:.1f}s"
    _report_line(10, "geometry Example 2.1 (fourth distance ~ 2/sqrt(3))", t0)


# ---------------------------------------------------------------------------
# 11. Determinism of criteria 3, 7, 9
# ---------------------------------------------------------------------------

def test_criterion_11_determinism():
    t0 = time.perf_counter()
    text3a, _ = run_criterion_3()
    text3b, _ = run_criterion_3()
    assert text3a == text3b, "criterion 3 reports differ between reruns"

    text7a, *_ = run_criterion_7()
    text7b, *_ = run_criterion_7()
    assert text7a == text7b, "criterion 7 reports differ between reruns"

    text9a, *_ = run_criterion_9()
    text9b, *_ = run_criterion_9()
    assert text9a == text9b, "criterion 9 reports differ between reruns"
    _report_line(11, "determinism of criteria 3, 7, 9 reports", t0)
