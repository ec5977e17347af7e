import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import grid_max, random_expr
from rigorkit import expr as ex
from rigorkit import prover
from rigorkit.interval import Interval
from rigorkit.prover import (ProofStatus, ProofTask, ProverConfig,
                             prove_negative, prove_nonpositive, reduce_cell)
from rigorkit.taylor import Box

I = Interval


def test_prove_examples():
    r = prove_negative(ProofTask(ex.parse("x0*x0 - 2"), Box((I(-1, 1),))))
    assert r.status is ProofStatus.PROVEN

    r2 = prove_negative(ProofTask(ex.parse("x0*x0 - 1"), Box((I(0, 2),))),
                        ProverConfig(max_cells=2000))
    assert r2.status is ProofStatus.UNDECIDED
    assert r2.undecided_cells
    # uncertified cells cluster toward the violating end x0 = 2
    assert all(cell[0].hi >= 0.99 for cell in r2.undecided_cells)
    assert any(cell[0].hi == 2.0 for cell in r2.undecided_cells)

    e6 = ex.parse("x0*x0 + x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 - 7", 6)
    r3 = prove_negative(ProofTask(e6, Box(tuple(I(0, 1) for _ in range(6)))))
    assert r3.status is ProofStatus.PROVEN


def test_equality_touching_is_undecided_not_proven():
    diag = ex.parse("x0*x0 - 2*x0*x1 + x1*x1", 2)
    r = prove_negative(ProofTask(diag, Box((I(0, 1), I(0, 1)))),
                       ProverConfig(max_cells=3000))
    assert r.status is ProofStatus.UNDECIDED


def test_nonstrict_variant_allows_touching():
    r = prove_nonpositive(ProofTask(ex.parse("x0 - 1"), Box((I(-1, 1),))))
    assert r.status is ProofStatus.PROVEN
    r2 = prove_negative(ProofTask(ex.parse("x0 - 1"), Box((I(-1, 1),))),
                        ProverConfig(max_cells=300))
    assert r2.status is ProofStatus.UNDECIDED


def test_margin():
    r = prove_negative(ProofTask(ex.parse("x0 - 2"), Box((I(0, 1),)), margin=0.5))
    assert r.status is ProofStatus.PROVEN
    r2 = prove_negative(ProofTask(ex.parse("x0 - 2"), Box((I(0, 1),)), margin=1.5),
                        ProverConfig(max_cells=300))
    assert r2.status is ProofStatus.UNDECIDED
    with pytest.raises(ValueError):
        ProofTask(ex.parse("x0"), Box((I(0, 1),)), margin=-1.0)


def test_reduce_cell_examples():
    def reduced(ev, cell):
        return reduce_cell(ev, cell, ev.germ(cell.dims)).dims

    bi = ex.Evaluator(ex.parse("x0*x1", 2), 2)
    assert reduced(bi, Box((I(1, 2), I(3, 4)))) == (I(2, 2), I(4, 4))

    sq = ex.Evaluator(ex.parse("x0*x0"), 1)
    assert reduced(sq, Box((I(-1, 1),))) == (I(-1, 1),)

    neg = ex.Evaluator(ex.parse("0 - x0"), 1)
    assert reduced(neg, Box((I(0, 1),))) == (I(0, 0),)

    # no germ: nothing collapses
    cell = Box((I(-1, 1),))
    assert reduce_cell(neg, cell, None) is cell


def test_evaluation_failure_reported():
    r = prove_negative(ProofTask(ex.parse("1/x0 - 100"), Box((I(-1, 1),))),
                       ProverConfig(max_cells=200, min_width=1e-2))
    assert r.status is ProofStatus.EVALUATION_FAILURE
    assert r.failed_cells


@pytest.mark.parametrize("text, lo, hi, counts, first_failed", [
    # a pole that moves with x0: every germ fails, and the budget runs out
    ("atan(1, x0 - x0)", 0, 1, (20000, 20, 0, 0, 15, 9993), (0.0, 2.0**-20)),
    # a pole at 0, where the cells shrink to min_width
    ("1/x0 - 100", -1, 1, (83, 21, 26, 0, 14, 2), (-(2.0**-20), 0.0)),
])
def test_failed_germs_ask_once_whether_they_fail_everywhere(monkeypatch, text, lo, hi,
                                                            counts, first_failed):
    # whether a failure reads no variable does not depend on the cell, so
    # one run evaluates the germ's constants at most once
    calls = []
    germ_constants = ex.Evaluator.germ_constants
    monkeypatch.setattr(ex.Evaluator, "germ_constants",
                        lambda ev: calls.append(1) or germ_constants(ev))
    r = prove_negative(ProofTask(ex.parse(text, 1), Box((I(lo, hi),))))
    assert len(calls) == 1
    assert r.status is ProofStatus.EVALUATION_FAILURE
    assert r.best_upper_bound_seen == math.inf
    assert (r.cells_processed, r.max_depth_reached, r.cells_certified_by_germ,
            r.cells_certified_by_taylor, len(r.undecided_cells), len(r.failed_cells)) == counts
    assert r.failed_cells[0].dims == (I(*first_failed),)


def test_no_taylor_bound_across_a_pole():
    # atan(10, x0) jumps by pi at x0 = 0 while its derivatives stay finite,
    # so only the whole-cell germ sees the pole; f(1) = atan(10) > 0.
    r = prove_negative(ProofTask(ex.parse("atan(10, x0)"), Box((I(-2, 1),))),
                       ProverConfig(max_cells=200))
    assert r.status is not ProofStatus.PROVEN


def test_budget_exhaustion_yields_frontier():
    # false inequality, tiny budget: the frontier is reported undecided
    r = prove_negative(ProofTask(ex.parse("x0*x0 - 1"), Box((I(0, 2),))),
                       ProverConfig(max_cells=3))
    assert r.status is ProofStatus.UNDECIDED
    assert r.cells_processed == 3


def test_coverage_volume_accounting():
    cfg = ProverConfig(max_cells=5000, track_cells=True)
    task = ProofTask(ex.parse("x0*x0 + x1 - 3", 2), Box((I(-1, 1), I(0, 1))))
    r = prove_negative(task, cfg)
    assert r.status is ProofStatus.PROVEN
    vol = sum(c.volume() for c in r.certified_cells)
    vol += sum(c.volume() for c in r.undecided_cells)
    vol += sum(c.volume() for c in r.failed_cells)
    assert abs(vol - task.domain.volume()) <= 1e-12 * task.domain.volume()


def test_determinism():
    task = ProofTask(ex.parse("x0*x0*x1 - x1 + x0 - 1", 2), Box((I(-1, 1), I(0, 1))))
    cfg = ProverConfig(max_cells=800)
    r1 = prove_negative(task, cfg)
    r2 = prove_negative(task, cfg)
    assert r1 == r2


def test_soundness_small_batch_vs_grid():
    rng = random.Random(314)
    proven = 0
    trials = 0
    while trials < 30:
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, rng.randint(2, 4), polynomial=True)
        bounds = [(rng.uniform(-1.5, 0), rng.uniform(0.1, 1.5)) for _ in range(arity)]
        box = Box.from_bounds(bounds)
        rough = grid_max(e, bounds, total_points=3000)
        offset = rng.choice([0.4, 0.02, -0.1]) * (1 + abs(rough))
        task_expr = ex.Sub(e, ex.const_from_float(rough + offset))
        report = prove_negative(ProofTask(task_expr, box),
                                ProverConfig(max_cells=300, min_width=1e-4))
        trials += 1
        if report.status is ProofStatus.PROVEN:
            proven += 1
            dense = grid_max(task_expr, bounds, total_points=10**5)
            assert dense < 0.0, (ex.to_text(task_expr), bounds)
    assert proven >= 5


def test_completeness_on_margin():
    # Lipschitz-bounded tasks with true max <= -margin, margin >= 1e-3
    rng = random.Random(271)
    for _ in range(10):
        arity = rng.randint(1, 2)
        e = random_expr(rng, arity, 3, polynomial=True)
        bounds = [(-1.0, 1.0)] * arity
        rough = grid_max(e, bounds, total_points=10**4)
        task_expr = ex.Sub(e, ex.const_from_float(rough + 0.05))
        report = prove_negative(
            ProofTask(task_expr, Box.from_bounds(bounds), margin=1e-3),
            ProverConfig(max_cells=20000, max_depth=40, min_width=1e-5))
        assert report.status is ProofStatus.PROVEN, ex.to_text(task_expr)


def test_root_germ_certifies_without_a_taylor_bound(monkeypatch):
    calls = []
    original = prover.taylor_upper_bound
    monkeypatch.setattr(prover, "taylor_upper_bound",
                        lambda ev, box: calls.append(box) or original(ev, box))
    e6 = ex.parse("x0*x0 + x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 - 7", 6)
    r = prove_negative(ProofTask(e6, Box(tuple(I(0, 1) for _ in range(6)))))
    assert r.status is ProofStatus.PROVEN
    assert r.cells_processed == 1
    assert r.cells_certified_by_germ == 1 and r.cells_certified_by_taylor == 0
    assert r.best_upper_bound_seen == -1.0
    assert calls == []


def test_only_the_taylor_bound_certifies():
    # the germ evaluates x0 - x0 over [0, 1] as [-1, 1]; the Taylor form
    # sees a zero gradient and the exact centre value
    r = prove_negative(ProofTask(ex.parse("x0 - x0 - 0.5"), Box((I(0, 1),))))
    assert r.status is ProofStatus.PROVEN
    assert r.cells_processed == 1
    assert r.cells_certified_by_germ == 0 and r.cells_certified_by_taylor == 1
    assert r.best_upper_bound_seen == -0.5


def test_certified_counters_add_up():
    cfg = ProverConfig(max_cells=400, track_cells=True)
    for text, bounds in [("x0*(1 - x0) - 0.3", [(0, 1)]),
                         ("x0*x0*x1 - x1 + x0 - 1", [(-1, 1), (0, 1)]),
                         ("x0*x0 - 1", [(0, 2)])]:
        r = prove_negative(ProofTask(ex.parse(text), Box.from_bounds(bounds)), cfg)
        assert (r.cells_certified_by_germ + r.cells_certified_by_taylor
                == len(r.certified_cells)), text


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_proven_reports_hold_at_corners_and_sampled_points(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    e = random_expr(rng, arity, rng.randint(2, 4))
    bounds = [(rng.uniform(-1.5, 0.0), rng.uniform(0.1, 1.5)) for _ in range(arity)]
    corners = list(itertools.product(*bounds))
    samples = [tuple(rng.uniform(lo, hi) for lo, hi in bounds) for _ in range(200)]
    rough = max(ex.evaluate_numeric(e, p) for p in corners + samples[:20])
    margin = rng.choice([0.0, 1e-3])
    shift = rough + rng.choice([0.5, 0.05, 0.0, -0.1]) * (1 + abs(rough))
    task_expr = ex.Sub(e, ex.const_from_float(shift))
    report = prove_negative(ProofTask(task_expr, Box.from_bounds(bounds), margin),
                            ProverConfig(max_cells=200, min_width=1e-4))
    if report.status is ProofStatus.PROVEN:
        assert report.cells_certified_by_germ + report.cells_certified_by_taylor > 0
        for p in corners + samples:
            assert ex.evaluate_numeric(task_expr, p) < -margin, (ex.to_text(task_expr), p)
