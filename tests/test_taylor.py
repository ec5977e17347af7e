import copy
import math
import pickle
import random
from fractions import Fraction

import pytest

from oracles import (evaluate_on_arrays, random_expr, reference_concave_term,
                     reference_taylor_upper_bound)
from rigorkit import expr as ex
from rigorkit import interval as iv
from rigorkit.errors import DivisionByZeroInterval, IntervalError, NonFiniteOperand
from rigorkit.interval import Interval
from rigorkit.taylor import Box, _concave_term, taylor_upper_bound

I = Interval


def test_upper_bound_examples():
    ev = ex.Evaluator(ex.parse("x0*x0"), 1)
    tb = taylor_upper_bound(ev, Box((I(1, 2),)))
    assert abs(tb - 4.0) <= 4 * math.ulp(4.0)

    const = ex.Evaluator(ex.parse("1"), 1)
    tb1 = taylor_upper_bound(const, Box((I(-3, 9),)))
    assert abs(tb1 - 1.0) <= 2 * math.ulp(1.0)

    lin = ex.Evaluator(ex.parse("x0"), 1)
    tb2 = taylor_upper_bound(lin, Box((I(0, 1),)))
    assert abs(tb2 - 1.0) <= 4 * math.ulp(1.0)


def test_bound_unavailable_is_a_value():
    ev = ex.Evaluator(ex.parse("1/x0"), 1)
    with pytest.raises(IntervalError):
        taylor_upper_bound(ev, Box((I(-1, 1),)))
    # and after subdivision it becomes available again
    assert taylor_upper_bound(ev, Box((I(0.5, 1),))) >= 2.0


def test_partial_sign_examples():
    # the prover collapses a variable whose germ partial has a strict sign
    sq = ex.Evaluator(ex.parse("x0*x0"), 1)
    assert sq.germ(Box((I(1, 2),))).df[0].lo > 0.0
    d = sq.germ(Box((I(-1, 1),))).df[0]
    assert d.lo < 0.0 < d.hi
    bi = ex.Evaluator(ex.parse("x0*x1", 2), 2)
    assert bi.germ(Box((I(1, 2), I(3, 4)))).df[0].lo > 0.0
    inv = ex.Evaluator(ex.parse("1/x0"), 1)
    with pytest.raises(DivisionByZeroInterval):
        inv.germ(Box((I(-1, 1),)))


def test_partial_sign_soundness_via_finite_differences():
    rng = random.Random(11)
    claims = 0
    while claims < 30:
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, 4, polynomial=True)
        if "x" not in ex.to_text(e):
            continue
        box = Box(tuple(I(rng.uniform(-2, 0), rng.uniform(0.1, 2)) for _ in range(arity)))
        ev = ex.Evaluator(e, arity)
        f = ex.FloatPlan((e,))
        # a strict sign of a whole-cell germ's partial is what the prover
        # collapses on; polynomials never fail to give a germ
        for i, d in enumerate(ev.germ(box).df):
            if not (d.lo > 0.0 or d.hi < 0.0):
                continue
            claims += 1
            for _ in range(100):
                pt = [rng.uniform(box[j].lo, box[j].hi) for j in range(arity)]
                h = 1e-6
                up = list(pt)
                dn = list(pt)
                up[i] = min(up[i] + h, box[i].hi)
                dn[i] = max(dn[i] - h, box[i].lo)
                if up[i] == dn[i]:
                    continue
                slope = (f(up)[0] - f(dn)[0]) / (up[i] - dn[i])
                if d.lo > 0.0:
                    assert slope > -1e-9, (ex.to_text(e), box, i)
                else:
                    assert slope < 1e-9, (ex.to_text(e), box, i)


def test_domination_random_polynomials():
    import numpy as np
    rng = random.Random(41)
    trials = 0
    while trials < 300:
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, rng.randint(2, 5), polynomial=True)
        box = Box(tuple(I(rng.uniform(-2, 0.5), rng.uniform(0.6, 2)) for _ in range(arity)))
        ev = ex.Evaluator(e, arity)
        try:
            tb = taylor_upper_bound(ev, box)
        except IntervalError:
            continue
        pts = [np.random.default_rng(trials).uniform(box[j].lo, box[j].hi, 40)
               for j in range(arity)]
        vals = evaluate_on_arrays(e, pts)
        assert float(vals.max()) <= tb + 1e-9 * (1 + abs(tb)), ex.to_text(e)
        trials += 1


def test_monotone_refinement():
    rng = random.Random(99)
    checked = 0
    while checked < 200:
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, rng.randint(2, 5), polynomial=True)
        box = Box(tuple(I(rng.uniform(-1.5, 0), rng.uniform(0.1, 1.5)) for _ in range(arity)))
        ev = ex.Evaluator(e, arity)
        try:
            parent = taylor_upper_bound(ev, box)
            k = max(range(arity), key=lambda i: box[i].width)
            lo_child, hi_child = box.split(k)
            child = max(taylor_upper_bound(ev, lo_child), taylor_upper_bound(ev, hi_child))
        except IntervalError:
            continue
        slack = 8 * math.ulp(max(abs(parent), 1.0))
        assert child <= parent + slack, (ex.to_text(e), box, parent, child)
        checked += 1


def _concave_triples():
    """(a, h, w) with h <= 0: a on either side of |h|*w by an ulp, tiny and
    huge magnitudes, a = 0, h = -0.0, and log-uniform draws."""
    rng = random.Random(7)
    pairs = [(3.0, 0.5), (1.0, 0.1), (0.1, 0.3), (7.0, 1 / 3), (1e-300, 1e-10), (1e300, 1e-300),
             (5e-324, 3.0), (1e-320, 0.75), (2.0, 5e-324), (1e150, 1e150), (1e-160, 1e-160)]
    pairs += [(10.0 ** rng.uniform(-300, 300), 10.0 ** rng.uniform(-300, 300))
              for _ in range(300)]
    for k, w in pairs:
        for kw in (iv._mul_down(k, w), iv._mul_up(k, w)):
            for a in (iv.next_down(kw), kw, iv.next_up(kw)):
                if 0.0 <= a < math.inf:
                    yield a, -k, w
        yield 0.0, -k, w
        yield rng.uniform(0, 2) * k * w, -k, w
        yield 10.0 ** rng.uniform(-300, 300), -k, w
    for a, w in ((0.0, 1.0), (1.0, 0.5), (5e-324, 1e300), (1e300, 1e-300)):
        yield a, -0.0, w
        yield a, -5e-324, w


def test_concave_term_bounds_the_exact_maximum():
    endpoint = finite = 0
    for a, h, w in _concave_triples():
        t = _concave_term(a, h, w)
        step1 = iv._mul_up(a, w)
        assert t <= step1, (a, h, w)
        if t == math.inf:  # an overflow: no bound, never a wrong one
            continue
        assert Fraction(t) >= reference_concave_term(a, h, w), (a, h, w)
        finite += 1
        # The vertex's value bounds the maximum in any case, a*w - |h|*w*w/2
        # only where a >= |h|*w holds exactly.
        vertex = min(iv._div_up(iv._mul_up(a, a), iv._mul_down(2.0, -h)), step1) if h else None
        if t != vertex:
            assert Fraction(a) >= -Fraction(h) * Fraction(w), (a, h, w)
            endpoint += 1
    assert finite > 2000 and endpoint > 400 and finite - endpoint > 1000


def test_box_type():
    b = Box.from_bounds([(0, 1), (2, 3)])
    assert len(b) == 2 and math.prod(d.width for d in b) == 1.0
    assert isinstance(b, tuple) and b == (I(0, 1), I(2, 3))
    lo, hi = b.split(0)
    assert type(lo) is Box and type(hi) is Box
    assert lo[0] == I(0, 0.5) and hi[0] == I(0.5, 1)
    assert type(b.replace(1, I(2, 2))) is Box and b.replace(1, I(2, 2)) == (I(0, 1), I(2, 2))
    assert all(d.contains(x) for d, x in zip(b, [0.5, 2.5]))
    boxes = [Box.from_bounds(bounds) for bounds in
             ([(0.5, 1), (0, 1)], [(0, 0.5), (0.5, 1)], [(0, 0.5), (0, 1)], [(0, 1), (0, 1)])]
    assert sorted(boxes) == sorted(boxes, key=lambda c: tuple((d.lo, d.hi) for d in c))
    for twin in (copy.copy(b), pickle.loads(pickle.dumps(b))):
        assert type(twin) is Box and twin == b
    with pytest.raises(NonFiniteOperand):
        Box((I(0, math.inf),))


def _bound_or_error(f, ev, box):
    try:
        return f(ev, box).hex()  # tells -0.0 from 0.0
    except IntervalError as exc:
        return type(exc), str(exc)


def test_bound_matches_the_interval_chain_bit_for_bit():
    # the bound's float, or its error's class and message, is the reference's
    rng = random.Random(29)
    outcomes = []
    for _ in range(400):
        arity = rng.randint(1, 4)
        e = random_expr(rng, arity, rng.randint(2, 4))
        ev = ex.Evaluator(e, arity)
        dims = []
        for _ in range(arity):
            scale = 10.0 ** rng.choice([0, 0, 1, 50, 150, 300])
            lo = rng.uniform(-1.5, 1.5) * scale
            hi = lo if rng.random() < 0.25 else lo + rng.uniform(0, 2) * scale
            dims.append(I(lo, min(hi, 1.7e308)))
        box = Box(tuple(dims))
        got = _bound_or_error(taylor_upper_bound, ev, box)
        assert got == _bound_or_error(reference_taylor_upper_bound, ev, box), (ex.to_text(e), box)
        outcomes.append(got)
    # gradient terms that overflow as a product and as a sum, and a
    # Hessian w_i * w_j that overflows; concave terms by either formula, and
    # concave coordinates too large for them (a*w, a*a or 2*|h| would overflow)
    for text, box in (("x0*x1", Box((I(-1e300, 1e300), I(1e10, 1e10)))),
                      ("x0 + x1", Box((I(-1.7e308, 1.7e308), I(-1.7e308, 1.7e308)))),
                      ("x0 - x1", Box((I(0, 0), I(-1e308, 1e308)))),
                      ("x0 - x0*x0 + x1*x1", Box((I(0, 2), I(0, 1)))),
                      ("3*x0 - x0*x0 - x1*x1", Box((I(0, 1), I(-1, 1)))),
                      ("1e300*x0 - x0*x0 + x1", Box((I(-1e10, 1e10), I(0, 1)))),
                      ("1e200*x0 - 1e300*x0*x0 + x1", Box((I(-1, 1), I(0, 1)))),
                      ("x0 - 1e308*x0*x0 + x1", Box((I(-1, 1), I(0, 1))))):
        ev = ex.Evaluator(ex.parse(text, 2), 2)
        got = _bound_or_error(taylor_upper_bound, ev, box)
        assert got == _bound_or_error(reference_taylor_upper_bound, ev, box), text
        outcomes.append(got)
    bounds = [o for o in outcomes if isinstance(o, str)]
    assert len(bounds) > 100 and len(outcomes) - len(bounds) > 50
