import math
import random

import pytest

from oracles import assembly_grid_max
from rigorkit import assembly as asm
from rigorkit.errors import BranchError
from rigorkit.expr import parse
from rigorkit.interval import Interval
from rigorkit.prover import ProverConfig
from rigorkit.taylor import Box

I = Interval


def toy_problem():
    dom = asm.LocalDomain("d0", ("x",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    return asm.AssemblyProblem((dom,), ((0, 0),), ((1.0,),), (1.0,), (1.0,))


def two_domain_problem():
    # maximize x + y with x on d1, y on d2, phi: x(1-x) >= 0, y(1-y) >= 0,
    # linking equality x = y encoded as two inequality rows, plus x + y <= 1.2
    d1 = asm.LocalDomain("d1", ("x",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    d2 = asm.LocalDomain("d2", ("y",), Box((I(0, 1),)), (parse("x0 - x0*x0", 1),))
    a = ((1.0, -1.0), (-1.0, 1.0), (1.0, 1.0))
    b = (0.0, 0.0, 1.2)
    return asm.AssemblyProblem((d1, d2), ((0, 0), (1, 0)), a, b, (1.0, 1.0))


def test_toy_certifies_m1_and_refutes_m09():
    p = toy_problem()
    tps = asm.default_test_points(p, seed=3)
    cert = asm.fit_dual(p, [1.0], 1.0, tps, test_seed=3)
    assert cert is not None
    out = asm.verify_duality(p, cert)
    assert out.certified

    # hand-checkable certificate: r = 0, w from the row x <= 1
    hand = asm.DualityCertificate(1.0, (1.0,), ((0.0,),), (1.0,), 0.0, (0,))
    assert asm.verify_duality(p, hand).certified

    # M = 0.9 < sup: either no candidate or a refuted one
    cert9 = asm.fit_dual(p, [1.0], 0.9, tps, test_seed=3)
    if cert9 is not None:
        assert not asm.verify_duality(p, cert9, ProverConfig(max_cells=500)).certified
    forced = asm.DualityCertificate(0.9, (1.0,), ((0.0,),), (1.0,), 0.1, (0,))
    out9 = asm.verify_duality(p, forced, ProverConfig(max_cells=500))
    assert not out9.certified


def test_side_condition_guards_low_t0():
    p = toy_problem()
    # t0 too low: the side condition fails even though domains verify
    bad = asm.DualityCertificate(1.0, (1.0,), ((0.0,),), (1.0,), -0.5, (0,))
    out = asm.verify_duality(p, bad)
    assert not out.certified and "side condition" in out.reason


def test_negative_multiplier_rejected():
    p = toy_problem()
    bad = asm.DualityCertificate(1.0, (1.0,), ((-0.1,),), (1.0,), 0.0, (0,))
    assert not asm.verify_duality(p, bad).certified


def test_not_binding_rows_rejected():
    p = toy_problem()
    bad = asm.DualityCertificate(1.5, (0.5,), ((0.0,),), (1.0,), 0.0, (0,))
    out = asm.verify_duality(p, bad)
    assert not out.certified and "not binding" in out.reason
    # a residual that is NaN (inf - inf) binds no row
    p2 = two_domain_problem()
    nan_resid = asm.DualityCertificate(1.2, (math.inf, math.inf), ((0.0,), (0.0,)),
                                       (1.0,), 0.0, (0,))
    assert asm.binding_rows(p2, nan_resid.x_star) == []
    out = asm.verify_duality(p2, nan_resid)
    assert not out.certified and "not binding" in out.reason


def test_two_domain_linking():
    p = two_domain_problem()
    # true optimum: x = y, x + y <= 1.2 -> x = 0.6, objective 1.2.
    # M sits a margin above it; exactly-touching certificates are for
    # branching, not single-shot verification.
    x_star = [0.6, 0.6]
    m_bound = 1.25
    tps = asm.default_test_points(p, seed=5)
    cert = asm.fit_dual(p, x_star, m_bound, tps, test_seed=5)
    assert cert is not None
    out = asm.verify_duality(p, cert)
    assert out.certified, out.reason
    # the feasible set is the diagonal x = y; scan it densely
    brute = max(2 * (0.6 * k / 20000) for k in range(20001)
                if 2 * (0.6 * k / 20000) <= 1.2)
    assert brute <= m_bound + 1e-9

    # w applied with the correct sign verifies; the same mass moved to the
    # opposite-signed matching row is refuted
    good = asm.DualityCertificate(m_bound, (0.6, 0.6), ((0.0,), (0.0,)),
                                  (0.0, 0.0, 1.0), -0.025, (0, 1, 2))
    assert asm.verify_duality(p, good).certified
    flipped = asm.DualityCertificate(m_bound, (0.6, 0.6), ((0.0,), (0.0,)),
                                     (1.0, 0.0, 1.0), -0.025, (0, 1, 2))
    out_flip = asm.verify_duality(p, flipped, ProverConfig(max_cells=500))
    assert not out_flip.certified


def test_branch_examples():
    p = toy_problem()
    lo, hi = asm.branch(p, "d0", 0)
    assert lo.domains[0].box[0] == I(0, 0.5)
    assert hi.domains[0].box[0] == I(0.5, 1)

    degenerate = asm.AssemblyProblem(
        (asm.LocalDomain("d", ("x",), Box((I(1, 1),)), ()),),
        ((0, 0),), (), (), (1.0,))
    with pytest.raises(BranchError):
        asm.branch(degenerate, "d", 0)

    # 10-level recursion tiles the box exactly
    leaves = [p]
    for _ in range(10):
        leaves = [child for q in leaves for child in asm.branch(q, "d0", 0)]
    assert len(leaves) == 1024
    total = sum(q.domains[0].box.volume() for q in leaves)
    assert abs(total - 1.0) < 1e-12

    # certifying both children certifies the parent (sup of a union)
    l_res, h_res = asm.branch(p, "d0", 0)
    for child in (l_res, h_res):
        tps = asm.default_test_points(child, seed=9)
        cert = asm.fit_dual(child, [child.domains[0].box[0].hi], 1.0, tps)
        assert cert is not None and asm.verify_duality(child, cert).certified


def test_fit_empty_test_points():
    p = toy_problem()
    assert asm.fit_dual(p, [1.0], 1.0, [[]]) is None


def test_assembly_without_linking_rows():
    # pure nonlinear case: no global rows at all, bound from phi alone
    dom = asm.LocalDomain("solo", ("x",), Box((I(0, 2),)),
                          (parse("1 - x0*x0", 1),))  # feasible set [0, 1]
    p = asm.AssemblyProblem((dom,), ((0, 0),), (), (), (1.0,))
    tps = asm.default_test_points(p, seed=4)
    cert = asm.fit_dual(p, [1.0], 1.25, tps, test_seed=4)
    assert cert is not None and cert.retained_rows == ()
    assert asm.verify_duality(p, cert).certified
    brute = assembly_grid_max(p, points_per_domain=20000, seed=2)
    assert brute is not None and brute <= 1.25


def test_fit_linear_domain_recovers_dual_structure():
    # single domain, linear objective, no nonlinear constraints: the fit
    # at the true argmax needs no phi multipliers, and the hand-built
    # certificate with w = 1 on the binding row (the LP dual) verifies
    dom = asm.LocalDomain("lin", ("x",), Box((I(0, 1),)), ())
    p = asm.AssemblyProblem((dom,), ((0, 0),), ((1.0,),), (1.0,), (1.0,))
    tps = asm.default_test_points(p, seed=2)
    cand = asm.fit_dual(p, [1.0], 1.0, tps, test_seed=2)
    assert cand is not None
    assert all(not rd for rd in cand.r) or all(v == 0.0 for rd in cand.r for v in rd)
    assert asm.verify_duality(p, cand).certified
    lp_dual_style = asm.DualityCertificate(1.0, (1.0,), ((),), (1.0,), 0.0, (0,))
    assert asm.verify_duality(p, lp_dual_style).certified


def test_binding_rows():
    p = two_domain_problem()
    rows = asm.binding_rows(p, [0.6, 0.6])
    assert rows == [0, 1, 2]
    rows2 = asm.binding_rows(p, [0.3, 0.3])
    assert rows2 == [0, 1]


def test_file_round_trips():
    p = two_domain_problem()
    text = asm.problem_to_text(p)
    assert asm.problem_from_text(text) == p
    tps = asm.default_test_points(p, seed=5)
    cert = asm.fit_dual(p, [0.6, 0.6], 1.2, tps, test_seed=5)
    ct = asm.certificate_to_text(p, cert)
    assert asm.certificate_from_text(p, ct) == cert


def test_random_ensemble_soundness_small():
    rng = random.Random(2026)
    certified = 0
    for trial in range(12):
        p, _ = random_assembly(rng)
        x_star, m_bound = pick_guess_and_bound(p, rng)
        if x_star is None:
            continue
        tps = asm.default_test_points(p, seed=trial, n_random=12)
        cert = asm.fit_dual(p, x_star, m_bound, tps, test_seed=trial)
        if cert is None:
            continue
        out = asm.verify_duality(p, cert, ProverConfig(max_cells=4000))
        if not out.certified:
            continue
        certified += 1
        brute = assembly_grid_max(p, points_per_domain=50000, seed=trial)
        if brute is not None:
            assert brute <= m_bound + 1e-9 * (1 + abs(m_bound))
    assert certified >= 4


def random_assembly(rng):
    """Small random assembly: 1-2 domains, 1-3 vars each, polynomial
    constraints with phi(x) >= 0 somewhere on the box."""
    from oracles import random_expr
    from rigorkit import expr as ex

    n_domains = rng.randint(1, 2)
    domains = []
    var_map = []
    for d_idx in range(n_domains):
        nv = rng.randint(1, 3)
        box = Box(tuple(I(0.0, rng.choice([0.5, 1.0])) for _ in range(nv)))
        phis = []
        for _ in range(rng.randint(0, 2)):
            e = random_expr(rng, nv, 3, polynomial=True)
            # shift so the box center satisfies phi >= 0
            center = [box[i].mid for i in range(nv)]
            val = ex.evaluate_numeric(e, center)
            phis.append(ex.make_sub(e, ex.const_from_float(val - 0.25)))
        domains.append(asm.LocalDomain(f"d{d_idx}", tuple(f"v{k}" for k in range(nv)),
                                       box, tuple(phis)))
        var_map += [(d_idx, s) for s in range(nv)]
    n = len(var_map)
    rows = []
    rhs = []
    for _ in range(rng.randint(1, 3)):
        row = [rng.choice([0.0, 0.5, 1.0, -0.5]) for _ in range(n)]
        rows.append(tuple(row))
        rhs.append(rng.choice([0.5, 1.0, 1.5]))
    c = [rng.choice([1.0, 0.5, -0.5]) for _ in range(n)]
    p = asm.AssemblyProblem(tuple(domains), tuple(var_map), tuple(rows),
                            tuple(rhs), tuple(c))
    return p, None


def pick_guess_and_bound(p, rng, samples=4000):
    """Feasible sample with the best objective plus a generous margin."""
    from rigorkit import expr as ex

    best = None
    best_x = None
    for _ in range(samples):
        x = []
        for d_idx, dom in enumerate(p.domains):
            x += [rng.uniform(dom.box[s].lo, dom.box[s].hi) for s in range(dom.n)]
        ok = True
        for d_idx, dom in enumerate(p.domains):
            pt = p.project(x, d_idx)
            for phi in dom.constraints:
                if ex.evaluate_numeric(phi, pt) < 0.0:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        if any(sum(r * v for r, v in zip(row, x)) > b
               for row, b in zip(p.a, p.b)):
            continue
        obj = sum(cv * v for cv, v in zip(p.c, x))
        if best is None or obj > best:
            best = obj
            best_x = x
    if best is None:
        return None, None
    return best_x, best + 0.1 * (1 + abs(best))
