import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_expr
from rigorkit import expr as ex
from rigorkit.errors import CompileError, ParseError, RigorError
from rigorkit.interval import Interval

I = Interval


def test_parse_examples():
    e = ex.parse("x0*x0 - 2", arity=1)
    assert e == ex.Sub(ex.Mul(ex.Var(0), ex.Var(0)), ex.Const("2"))
    assert ex.parse("atan(x1, x2)", arity=3) == ex.Atan(ex.Var(1), ex.Var(2))
    with pytest.raises(ParseError) as err:
        ex.parse("x0 +", arity=1)
    assert err.value.position == 4
    with pytest.raises(ParseError):
        ex.parse("x5", arity=2)
    with pytest.raises(ParseError):
        ex.parse("frob(x0)", arity=1)


def test_parse_misc_grammar():
    assert ex.parse("pow(x0, 3)", 1) == ex.Pow(ex.Var(0), 3)
    assert ex.parse("pow(x0, -2)", 1) == ex.Pow(ex.Var(0), -2)
    assert ex.parse("sqrt(x0)", 1) == ex.Sqrt(ex.Var(0))
    assert ex.parse(" - 2", 1) == ex.Const("-2")
    assert ex.parse("(x0 + 1)*x0", 1) == ex.Mul(ex.Add(ex.Var(0), ex.Const("1")), ex.Var(0))


def test_differentiate_atan_rule_structure():
    d = ex.differentiate(ex.parse("atan(x0, 1)"), 0)
    assert d == ex.Div(ex.Const("1"),
                       ex.Add(ex.Mul(ex.Var(0), ex.Var(0)), ex.Const("1")))


def test_differentiate_basics():
    assert ex.differentiate(ex.parse("x0*x0", arity=2), 1) == ex.ZERO
    prod = ex.differentiate(ex.parse("x0*x1", arity=2), 0)
    assert ex.evaluate_numeric(prod, [2.0, 3.0]) == 3.0


def test_compile_examples():
    ev = ex.compile_expr(ex.parse("x0"), 1)
    g = ev.germ([I(0, 1)])
    assert g.f == I(0, 1) and g.df[0] == I(1, 1)

    ev2 = ex.compile_expr(ex.parse("x0*x0"), 1)
    h = ev2.hessian_entry([I(-7, 3)], 0, 0)
    assert h.contains_interval(I(2, 2))

    ev3 = ex.compile_expr(ex.parse("atan(x0, 1)"), 1)
    g3 = ev3.germ([I(1, 1)])
    assert g3.df[0].contains(0.5)


def test_compile_depth_limit():
    deep = ex.Var(0)
    for _ in range(ex.MAX_DEPTH - 1):
        deep = ex.Add(deep, ex.Const("1"))
    ex.compile_expr(deep, 1)  # depth MAX_DEPTH compiles
    with pytest.raises(CompileError):
        ex.compile_expr(ex.Add(deep, ex.Const("1")), 1)
    with pytest.raises(CompileError):
        ex.compile_expr(ex.Var(3), arity=2)


def test_plan_shares_subexpressions():
    e = ex.parse("sqrt(x0 + 1) * sqrt(x0 + 1)", 1)
    ev = ex.compile_expr(e, 1)
    assert sum("sqrt" in line for line in ev.plan_lines()) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**9))
def test_random_expr_text_round_trip(seed):
    rng = random.Random(seed)
    e = random_expr(rng, arity=3, depth=5)
    assert ex.parse(ex.to_text(e), 3) == e


def test_long_flat_sum_renders_and_evaluates():
    # the parser builds the chain iteratively; rendering and evaluation
    # must not recurse along it either
    text = "1" + " - 0.001*x0 + 0.001*x0" * 750
    e = ex.parse(text, 1)
    assert ex.to_text(e) == text
    expected = 1.0
    for _ in range(750):
        expected = expected - 0.001 * 0.5 + 0.001 * 0.5
    assert ex.evaluate_numeric(e, [0.5]) == expected


def test_hessian_entries_in_one_pass_equal_single_entries():
    rng = random.Random(20261018)
    for _ in range(150):
        arity = rng.randint(1, 4)
        e = random_expr(rng, arity, rng.randint(2, 5))
        box = []
        for _ in range(arity):
            lo = rng.uniform(-2.0, 1.0)
            box.append(I(lo, lo + rng.uniform(0.0, 2.0)))
        entries = [(rng.randrange(arity), rng.randrange(arity))
                   for _ in range(rng.randint(0, 6))]
        try:
            single = [ex.compile_expr(e, arity).hessian_entry(box, i, j) for i, j in entries]
        except (RigorError, OverflowError):
            with pytest.raises((RigorError, OverflowError)):
                ex.compile_expr(e, arity).hessian(box, entries)
            continue
        assert ex.compile_expr(e, arity).hessian(box, entries) == single


def _fd_gradient(e, pt, i, h=1e-5):
    up = list(pt)
    dn = list(pt)
    up[i] += h
    dn[i] -= h
    return (ex.evaluate_numeric(e, up) - ex.evaluate_numeric(e, dn)) / (2 * h)


def _fd_hessian(e, pt, i, j, h=1e-4):
    def f(delta_i, delta_j):
        q = list(pt)
        q[i] += delta_i
        q[j] += delta_j
        return ex.evaluate_numeric(e, q)

    if i == j:
        return (f(h, 0) - 2 * f(0, 0) + f(-h, 0)) / (h * h)
    return (f(h, h) - f(h, -h) - f(-h, h) + f(-h, -h)) / (4 * h * h)


def test_gradient_and_hessian_soundness_sample():
    rng = random.Random(20260808)
    checked = 0
    while checked < 60:
        arity = rng.randint(1, 4)
        e = random_expr(rng, arity, rng.randint(2, 6))
        if ex.arity_of(e) == 0:
            continue
        pt = [rng.uniform(-1.5, 1.5) for _ in range(arity)]
        box = [I.point(v) for v in pt]
        ev = ex.compile_expr(e, arity)
        try:
            germ = ev.germ(box)
        except Exception:
            continue
        if germ.f.mag > 1e6 or any(d.mag > 1e6 for d in germ.df):
            continue
        ok = True
        for i in range(arity):
            fd = _fd_gradient(e, pt, i)
            tol = 1e-6 * (1.0 + germ.df[i].mag) + 1e-9
            if not (germ.df[i].lo - tol <= fd <= germ.df[i].hi + tol):
                ok = False
            # commutation: symbolic derivative agrees with the germ
            sym = ex.evaluate_numeric(ex.differentiate(e, i), pt)
            assert germ.df[i].lo - 1e-9 <= sym <= germ.df[i].hi + 1e-9
        assert ok, (ex.to_text(e), pt)
        i = rng.randrange(arity)
        j = rng.randrange(arity)
        try:
            h_val = ev.hessian_entry(box, i, j)
        except Exception:
            continue
        if h_val.mag > 1e6:
            continue
        fd2 = _fd_hessian(e, pt, i, j)
        tol = 1e-4 * (1.0 + h_val.mag) + 1e-6
        assert h_val.lo - tol <= fd2 <= h_val.hi + tol, (ex.to_text(e), pt, i, j)
        checked += 1


def test_commutation_over_boxes():
    rng = random.Random(5)
    for _ in range(40):
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, 4)
        box = []
        for _ in range(arity):
            lo = rng.uniform(-1.0, 0.5)
            box.append(I(lo, lo + rng.uniform(0.01, 0.8)))
        ev = ex.compile_expr(e, arity)
        for i in range(arity):
            try:
                germ_component = ev.germ(box).df[i]
                symbolic = ex.compile_expr(ex.differentiate(e, i), arity).value(box)
            except Exception:
                continue
            # both enclose the same function: intersection nonempty
            assert germ_component.lo <= symbolic.hi and symbolic.lo <= germ_component.hi


def test_germ_over_box_contains_pointwise_derivatives():
    # gradient enclosures over a wide box must contain the derivative at
    # every point inside; this is what the prover's facet collapse trusts
    rng = random.Random(88)
    checked = 0
    while checked < 40:
        arity = rng.randint(1, 3)
        e = random_expr(rng, arity, 4)
        box = []
        for _ in range(arity):
            lo = rng.uniform(-1.0, 0.3)
            box.append(I(lo, lo + rng.uniform(0.05, 1.0)))
        ev = ex.compile_expr(e, arity)
        try:
            germ = ev.germ(box)
        except Exception:
            continue
        if any(d.mag > 1e8 for d in germ.df):
            continue
        inside = True
        for _ in range(20):
            pt = [rng.uniform(box[j].lo, box[j].hi) for j in range(arity)]
            for i in range(arity):
                try:
                    fd = _fd_gradient(e, pt, i, h=1e-6)
                except (ArithmeticError, ValueError):
                    inside = False
                    break
                tol = 1e-5 * (1.0 + germ.df[i].mag) + 1e-8
                assert germ.df[i].lo - tol <= fd <= germ.df[i].hi + tol, \
                    (ex.to_text(e), box, pt, i)
            if not inside:
                break
        checked += 1


def test_constant_deferred_to_interval_layer():
    e = ex.parse("0.1", 1)
    assert e == ex.Const("0.1")
    v = ex.compile_expr(e, 1).value([I(0, 1)])
    from fractions import Fraction
    assert Fraction(v.lo) <= Fraction(1, 10) <= Fraction(v.hi)
