import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from oracles import grid_max, random_expr
from rigorkit import expr as ex
from rigorkit import prover
from rigorkit.errors import DivisionByZeroInterval, IntervalError
from rigorkit.interval import Interval
from rigorkit.prover import (ProofStatus, ProofTask, ProverConfig,
                             prove_negative, prove_nonpositive, reduce_cell)
from rigorkit.taylor import Box, taylor_upper_bound

I = Interval


def certified_footprints(report):
    return [c.footprint for c in report.cells if c.outcome in ("value", "taylor")]


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
        return reduce_cell(ev.germ(cell), cell)

    bi = ex.Evaluator(ex.parse("x0*x1", 2), 2)
    assert reduced(bi, Box((I(1, 2), I(3, 4)))) == (I(2, 2), I(4, 4))

    sq = ex.Evaluator(ex.parse("x0*x0"), 1)
    assert reduced(sq, Box((I(-1, 1),))) == (I(-1, 1),)
    # nothing collapses: the cell itself comes back, which is how a
    # collapse is told apart from none
    cell = Box((I(-1, 1),))
    assert reduce_cell(sq.germ(cell), cell) is cell
    assert type(reduced(bi, Box((I(1, 2), I(3, 4))))) is Box

    neg = ex.Evaluator(ex.parse("0 - x0"), 1)
    assert reduced(neg, Box((I(0, 1),))) == (I(0, 0),)

    # no germ: nothing collapses
    cell = Box((I(-1, 1),))
    assert reduce_cell(None, cell) is cell


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
def test_failed_germs_ask_once_whether_they_fail_everywhere(text, lo, hi, counts,
                                                            first_failed):
    # whether a failure reads no variable is decided once, as f compiles;
    # these failures read x0, so the run goes on splitting
    e = ex.parse(text, 1)
    assert not ex.Evaluator(e, 1).fails_everywhere
    r = prove_negative(ProofTask(e, Box((I(lo, hi),))))
    assert r.status is ProofStatus.EVALUATION_FAILURE
    assert r.best_upper_bound_seen == math.inf
    assert (r.cells_processed, r.max_depth_reached, r.cells_certified_by_germ,
            r.cells_certified_by_taylor, len(r.undecided_cells), len(r.failed_cells)) == counts
    assert r.failed_cells[0] == (I(*first_failed),)


@pytest.mark.parametrize("text, arity, fails", [
    ("x0 + atan(1, 0)", 1, True),
    ("x0/1e-200 + 1e200*x1*(1 - x1) - 1.3e200", 2, False),
    ("atan(1, x0 - x0)", 1, False),
])
def test_fails_everywhere_is_decided_by_the_constants_of_f(text, arity, fails):
    assert ex.Evaluator(ex.parse(text, arity), arity).fails_everywhere is fails


def test_constants_of_a_partial_do_not_stop_the_run():
    # d/dx0 holds the constant 1e-200/(1e-200*1e-200), whose square
    # underflows to hold 0, so every germ fails; f's value never does, and
    # f's enclosure certifies the cells the germ cannot
    e = ex.parse("x0/1e-200 + 1e200*x1*(1 - x1) - 1.3e200", 2)
    with pytest.raises(IntervalError):
        ex.Evaluator(e, 2).germ([I(0, 1), I(0, 1)])
    r = prove_negative(ProofTask(e, Box((I(0, 1), I(0, 1)))))
    assert r.status is ProofStatus.PROVEN
    assert r.cells_processed == 31 and r.cells_certified_by_germ == 16
    # a false member runs to the budget, as a pole that reads x0 does
    r = prove_negative(ProofTask(ex.parse("x0/1e-200 - 0.5e200", 1), Box((I(0, 1),))),
                       ProverConfig(max_cells=500))
    assert r.status is ProofStatus.EVALUATION_FAILURE
    assert r.cells_processed == 500


def test_no_taylor_bound_across_a_pole():
    # atan(10, x0) jumps by pi at x0 = 0 while its derivatives stay finite,
    # so only the whole-cell germ sees the pole; f(1) = atan(10) > 0.
    r = prove_negative(ProofTask(ex.parse("atan(10, x0)"), Box((I(-2, 1),))),
                       ProverConfig(max_cells=200))
    assert r.status is not ProofStatus.PROVEN


def test_taylor_bound_failure_fails_the_cell():
    # f and its gradient evaluate, but the Hessian's x0**4 underflows, so a
    # divisor holds 0 and only the Taylor bound raises
    e, cell = ex.parse("x1*x1/x0 - 5", 2), Box((I(1e-120, 1), I(-1, 1)))
    ev = ex.Evaluator(e, 2)
    ev.germ(cell)
    with pytest.raises(DivisionByZeroInterval):
        taylor_upper_bound(ev, cell)
    r = prove_negative(ProofTask(e, cell), ProverConfig(max_depth=0))
    assert r.status is ProofStatus.EVALUATION_FAILURE
    assert [c.outcome for c in r.cells] == ["failed"]
    assert r.failed_cells == (cell,)
    assert r.best_upper_bound_seen == ev.germ(cell).f.hi


def test_budget_exhaustion_yields_frontier():
    # false inequality, tiny budget: the frontier is reported undecided
    r = prove_negative(ProofTask(ex.parse("x0*x0 - 1"), Box((I(0, 2),))),
                       ProverConfig(max_cells=3))
    assert r.status is ProofStatus.UNDECIDED
    assert r.cells_processed == 3
    # the cells the budget leaves bring their parents' bounds into the report
    assert (r.best_upper_bound_seen, r.max_depth_reached) == (3.0, 2)


def test_arity_zero_task_is_undecided_or_proven():
    # a constant has no component to split: its one cell is decided as it is
    r = prove_negative(ProofTask(ex.parse("1", 0), Box(())))
    assert r.status is ProofStatus.UNDECIDED and r.undecided_cells == ((),)
    assert prove_negative(ProofTask(ex.parse("-1", 0), Box(()))).proven


def test_undecided_cells_in_ascending_box_order():
    # the stack leaves (0.75..1, 0..1) before (0.5..0.75, 0..1); the report
    # lists the cells as boxes order, component by component
    r = prove_negative(ProofTask(ex.parse("x0*x1 - 0.5", 2), Box((I(0, 1), I(0, 1)))),
                       ProverConfig(max_cells=7))
    assert r.status is ProofStatus.UNDECIDED and r.cells_processed == 7
    assert r.undecided_cells == ((I(0, 0.5), I(0.75, 1)),
                                 (I(0.5, 0.75), I(0, 1)),
                                 (I(0.75, 1), I(0, 1)))
    assert (r.best_upper_bound_seen, r.max_depth_reached, r.cells_certified_by_germ) == (
        0.5, 3, 2)
    # on a box twice as tall as wide the root splits x1 and its lower half
    # x0, so the preorder leaves (0.5..1, 0..1) before (0..1, 1..2)
    r = prove_negative(ProofTask(ex.parse("x0*x1 - 0.5", 2), Box((I(0, 1), I(0, 2)))),
                       ProverConfig(max_cells=2))
    assert r.undecided_cells == ((I(0, 0.5), I(0, 1)), (I(0, 1), I(1, 2)), (I(0.5, 1), I(0, 1)))


def test_subdividing_task_report_is_pinned():
    # sqrt, TwoSum and TwoProduct are exactly specified, so no libm enters
    # these figures
    e = ex.parse("sqrt(1 + 16*x0*(1 - x0)*x1*(1 - x1)) - 1.42", 2)
    r = prove_negative(ProofTask(e, Box((I(0, 1), I(0, 1)))))
    assert r.status is ProofStatus.PROVEN
    assert (r.cells_processed, r.max_depth_reached, r.cells_certified_by_germ,
            r.cells_certified_by_taylor) == (63, 7, 4, 28)
    assert r.best_upper_bound_seen == -0.0020018191349945196
    # one record per processed cell, none left unvisited
    assert Counter(c.outcome for c in r.cells) == {"value": 4, "taylor": 28, "split": 31}


# Each factor of `prod` and each term of `ring` is concave along one
# coordinate, where the Taylor bound charges the linear term at most: 687
# and 1,487 cells when the bound charged every diagonal entry by its
# magnitude.
@pytest.mark.parametrize("text, n, cells", [
    ("*".join(f"4*x{i}*(1 - x{i})" for i in range(3)) + " - 1.01", 3, 367),
    (" + ".join(f"x{i}*x{(i + 1) % 4}*(1 - x{i})*(1 - x{(i + 1) % 4})" for i in range(4))
     + " - 0.26", 4, 713),
], ids=["prod-3", "ring-4"])
def test_concave_directions_cost_their_linear_term_at_most(text, n, cells):
    r = prove_negative(ProofTask(ex.parse(text, n), Box((I(0, 1),) * n)),
                       ProverConfig(max_cells=cells))
    assert r.status is ProofStatus.PROVEN


def test_coverage_volume_accounting():
    cfg = ProverConfig(max_cells=5000)
    task = ProofTask(ex.parse("x0*x0 + x1 - 3", 2), Box((I(-1, 1), I(0, 1))))
    r = prove_negative(task, cfg)
    assert r.status is ProofStatus.PROVEN
    vol = sum(math.prod(d.width for d in c) for c in certified_footprints(r))
    vol += sum(math.prod(d.width for d in c) for c in r.undecided_cells)
    vol += sum(math.prod(d.width for d in c) for c in r.failed_cells)
    domain_vol = math.prod(d.width for d in task.domain)
    assert abs(vol - domain_vol) <= 1e-12 * domain_vol


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


def test_root_value_certifies_without_differentiating(monkeypatch):
    # f's enclosure decides the cell, so no partial is lowered
    calls = []
    original = ex.differentiate
    monkeypatch.setattr(ex, "differentiate", lambda e, i: calls.append(i) or original(e, i))
    e6 = ex.parse("x0*x0 + x1*x1 + x2*x2 + x3*x3 + x4*x4 + x5*x5 - 7", 6)
    assert prove_negative(ProofTask(e6, Box(tuple(I(0, 1) for _ in range(6))))).proven
    assert calls == []


def test_value_certifies_where_the_gradient_has_a_pole():
    # sqrt is defined on [0, 1], so f's enclosure holds over the cell, but
    # its derivative divides by sqrt(x0), which holds 0
    r = prove_negative(ProofTask(ex.parse("0.001*sqrt(x0) - 1", 1), Box((I(0, 1),))))
    assert r.status is ProofStatus.PROVEN
    assert r.cells_processed == 1
    assert r.cells_certified_by_germ == 1 and r.cells_certified_by_taylor == 0
    assert r.best_upper_bound_seen == -0.999
    with pytest.raises(IntervalError):
        ex.Evaluator(ex.parse("0.001*sqrt(x0) - 1", 1), 1).germ([I(0, 1)])


def test_only_the_taylor_bound_certifies():
    # the germ evaluates x0 - x0 over [0, 1] as [-1, 1]; the Taylor form
    # sees a zero gradient and the exact centre value
    r = prove_negative(ProofTask(ex.parse("x0 - x0 - 0.5"), Box((I(0, 1),))))
    assert r.status is ProofStatus.PROVEN
    assert r.cells_processed == 1
    assert r.cells_certified_by_germ == 0 and r.cells_certified_by_taylor == 1
    assert r.best_upper_bound_seen == -0.5


def test_certified_counters_add_up():
    cfg = ProverConfig(max_cells=400)
    for text, bounds in [("x0*(1 - x0) - 0.3", [(0, 1)]),
                         ("x0*x0*x1 - x1 + x0 - 1", [(-1, 1), (0, 1)]),
                         ("x0*x0 - 1", [(0, 2)]),
                         ("sqrt(1 + 16*x0*(1 - x0)*x1*(1 - x1)) - 1.42", [(0, 1), (0, 1)]),
                         ("x0 + atan(1, 0)", [(0, 1)]),
                         ("1/x0 - 100", [(-1, 1)])]:
        r = prove_negative(ProofTask(ex.parse(text), Box.from_bounds(bounds)), cfg)
        certified = r.cells_certified_by_germ + r.cells_certified_by_taylor
        assert certified == len(certified_footprints(r)), text
        if r.cells_processed < cfg.max_cells:
            # every processed cell is a leaf or splits in two
            leaves = certified + len(r.undecided_cells) + len(r.failed_cells)
            assert r.cells_processed == 2 * leaves - 1, text


def collapses(cell, parent):
    """Each component of cell is parent's, or a point at one of its ends."""
    return len(cell) == len(parent) and all(
        d == p or (d.lo == d.hi and d.lo in (p.lo, p.hi)) for d, p in zip(cell, parent))


def exact_volume(box):
    return math.prod(Fraction(d.hi) - Fraction(d.lo) for d in box)


# a proven run, a budget-bound one and one with failed cells
RECORDED_RUNS = [
    ("sqrt(1 + 16*x0*(1 - x0)*x1*(1 - x1)) - 1.42", [(0, 1), (0, 1)], ProverConfig(),
     ProofStatus.PROVEN),
    ("x0*x0*x1 - x1 + x0 - 1", [(-1, 1), (0, 1)], ProverConfig(max_cells=800),
     ProofStatus.UNDECIDED),
    ("1/x0 - 100", [(-1, 1)], ProverConfig(), ProofStatus.EVALUATION_FAILURE),
]


@pytest.mark.parametrize("text, bounds, cfg, status", RECORDED_RUNS)
def test_cell_records_recheck_against_the_oracles(text, bounds, cfg, status):
    domain = Box.from_bounds(bounds)
    e = ex.parse(text, len(domain))
    r = prove_negative(ProofTask(e, domain), cfg)
    assert r.status is status
    cells = r.cells
    # each certified cell's bound, recomputed bit for bit by the reference walks
    checked = 0
    for c in cells:
        if c.outcome == "value":
            ref = oracles._reference_interval_walk([e], [e], c.cell)[0].hi
        elif c.outcome == "taylor":
            ref = oracles.reference_taylor_upper_bound(ex.Evaluator(e, len(domain)), c.cell)
        else:
            continue
        assert c.upper.hex() == ref.hex(), c
        checked += 1
    assert checked == r.cells_certified_by_germ + r.cells_certified_by_taylor > 0
    # the footprints of the records that did not split tile the domain
    leaves = [c.footprint for c in cells if c.outcome != "split"]
    assert sum(map(exact_volume, leaves)) == exact_volume(domain)
    for a, b in itertools.combinations(leaves, 2):
        assert any(x.hi <= y.lo or y.hi <= x.lo for x, y in zip(a, b)), (a, b)
    # one preorder, unvisited cells included: a split is followed by its
    # lower half, which starts from the lower half of the cell as bounded
    assert cells[-1].outcome != "split"
    expected = [(domain, 0)]
    for c, nxt in zip(cells, cells[1:] + (None,)):
        assert (c.footprint, c.depth) == expected.pop(), c
        assert collapses(c.cell, c.footprint), c
        if c.outcome == "split":
            ks = [k for k, (a, b) in enumerate(zip(c.footprint, nxt.footprint)) if a != b]
            assert len(ks) == 1, (c, nxt)
            lo, hi = c.footprint.split(ks[0])
            expected += [(hi, c.depth + 1), (lo, c.depth + 1)]
            assert collapses(nxt.cell, c.cell.split(ks[0])[0]), (c, nxt)
    assert expected == []


@pytest.mark.parametrize("text, bounds, cfg, status", RECORDED_RUNS)
def test_reduce_cell_is_called_once_per_processed_cell(monkeypatch, text, bounds, cfg,
                                                      status):
    # the benchmark's tracer counts cells by wrapping prover.reduce_cell and
    # reading the popped cell, its second argument
    popped = []
    original = prover.reduce_cell
    monkeypatch.setattr(prover, "reduce_cell",
                        lambda germ, cell: popped.append(cell) or original(germ, cell))
    r = prove_negative(ProofTask(ex.parse(text, len(bounds)), Box.from_bounds(bounds)), cfg)
    assert r.status is status
    assert len(popped) == r.cells_processed
    assert all(collapses(c.cell, cell) for c, cell in zip(r.cells, popped))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_proven_reports_hold_at_corners_and_sampled_points(seed):
    rng = random.Random(seed)
    arity = rng.randint(1, 3)
    e = random_expr(rng, arity, rng.randint(2, 4))
    bounds = [(rng.uniform(-1.5, 0.0), rng.uniform(0.1, 1.5)) for _ in range(arity)]
    corners = list(itertools.product(*bounds))
    samples = [tuple(rng.uniform(lo, hi) for lo, hi in bounds) for _ in range(200)]
    f = ex.FloatPlan((e,))
    rough = max(f(p)[0] for p in corners + samples[:20])
    margin = rng.choice([0.0, 1e-3])
    shift = rough + rng.choice([0.5, 0.05, 0.0, -0.1]) * (1 + abs(rough))
    task_expr = ex.Sub(e, ex.const_from_float(shift))
    report = prove_negative(ProofTask(task_expr, Box.from_bounds(bounds), margin),
                            ProverConfig(max_cells=200, min_width=1e-4))
    if report.status is ProofStatus.PROVEN:
        assert report.cells_certified_by_germ + report.cells_certified_by_taylor > 0
        task_f = ex.FloatPlan((task_expr,))
        for p in corners + samples:
            assert task_f(p)[0] < -margin, (ex.to_text(task_expr), p)
