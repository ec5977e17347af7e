import math
import random
import struct
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (fd_gradient, fd_hessian, random_expr, reference_evaluate_numeric,
                     reference_germ, reference_hessian)
from rigorkit import assembly as asm
from rigorkit import expr as ex
from rigorkit import geom
from rigorkit import interval as iv
from rigorkit.errors import IntervalError, ParseError
from rigorkit.interval import Interval
from rigorkit.taylor import Box, taylor_upper_bound

I = Interval
PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


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


@pytest.mark.parametrize("text, message, position", [
    ("x0 x0", "unexpected trailing input at offset 3", 3),
    ("x0 + .", "malformed number at offset 6", 6),
    ("x0 + x2", "undeclared variable x2 (arity 2) at offset 5", 5),
    ("foo(x0)", "unknown identifier 'foo' at offset 0", 0),
    ("x0 *\t)", "expected operand at offset 5", 5),
    ("pow(x0, 2.5)", "pow exponent must be an integer literal at offset 8", 8),
    ("pow(x0, - 2)", "pow exponent must be an integer literal at offset 9", 9),
    ("pow(x0, 1" + "0" * 400 + ")", "pow exponent overflows binary64 at offset 8", 8),
    ("sqrt x0", "expected '(' at offset 5", 5),
    ("(x0 ", "expected ')' at offset 4", 4),
    ("atan(x0)", "expected ',' at offset 7", 7),
    ("(" * 2000 + "x0" + ")" * 2000, "expression too deeply nested", None),
], ids=["trailing", "number", "undeclared", "unknown", "operand", "pow-integer",
        "pow-sign", "pow-overflow", "open", "close", "comma", "nesting"])
def test_parse_error_messages_and_positions(text, message, position):
    with pytest.raises(ParseError) as err:
        ex.parse(text, arity=2)
    assert str(err.value) == message and err.value.position == position


@pytest.mark.parametrize("name", ["x²", "x" + "9" * 5000], ids=["superscript", "5000-digits"])
def test_malformed_variable_name_is_a_parse_error(name):
    # a superscript digit is a digit but not a decimal one, and int() reads
    # neither it nor more than a few thousand digits
    with pytest.raises(ParseError) as err:
        ex.parse(f"1 + {name}")
    assert err.value.position == 4 and str(err.value).endswith("at offset 4")


def test_variable_index_in_unicode_decimal_digits():
    assert ex.parse("x٣ + x0٣") == ex.Add(ex.Var(3), ex.Var(3))


@pytest.mark.parametrize("zero", ["0", "٠", "０"], ids=["ascii", "arabic-indic", "fullwidth"])
def test_pow_exponent_leading_zeros_in_any_script(zero):
    # the bound on the exponent's digit count must not count leading zeros,
    # whatever script they are written in
    assert ex.parse(f"pow(x0, {zero * 400}2)", 1) == ex.Pow(ex.Var(0), 2)
    assert ex.parse(f"pow(x0, -{zero * 400}٣)", 1) == ex.Pow(ex.Var(0), -3)
    with pytest.raises(ParseError, match="^pow exponent overflows binary64 at offset 8$"):
        ex.parse(f"pow(x0, 1{zero * 400})", 1)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("-", ""), ("sqrt(", ")")],
                         ids=["parentheses", "minus", "sqrt"])
def test_nesting_depth(opening, closing):
    assert ex.parse(opening * 150 + "x0" + closing * 150, 1)
    with pytest.raises(ParseError, match="too deeply nested"):
        ex.parse(opening * 2000 + "x0" + closing * 2000, 1)


def test_differentiate_atan_rule_structure():
    d = ex.differentiate(ex.parse("atan(x0, 1)"), 0)
    assert d == ex.Div(ex.Const("1"),
                       ex.Add(ex.Mul(ex.Var(0), ex.Var(0)), ex.Const("1")))


def test_differentiate_basics():
    assert ex.differentiate(ex.parse("x0*x0", arity=2), 1) == ex.ZERO
    prod = ex.differentiate(ex.parse("x0*x1", arity=2), 0)
    assert ex.FloatPlan((prod,))([2.0, 3.0])[0] == 3.0


@pytest.mark.parametrize("text, derivative, df, d2f", [
    ("x0/1", "1", I(1, 1), I(0, 0)),
    ("pow(x0, 1)", "1", I(1, 1), I(0, 0)),
    ("x0*x0/1", "x0 + x0", I(-4, 6), I(2, 2)),
    ("pow(x0, 1)*x0", "x0 + pow(x0, 1)", I(-4, 6), I(2, 2)),
])
def test_identities_of_one_keep_derivatives_exact(text, derivative, df, d2f):
    # d(a/1) meets make_div(a, 1) -> a, and d(pow(a, 1)) meets
    # make_pow(a, 0) -> ONE; df and d2f are the exact ranges on the box
    e = ex.parse(text, 1)
    assert ex.to_text(ex.differentiate(e, 0)) == derivative
    ev = ex.Evaluator(e, 1)
    box = [I(-2, 3)]
    (got,) = ev.germ(box).df
    (h,) = ev.hessian(box, [(0, 0)])
    assert got.lo <= df.lo and df.hi <= got.hi
    assert h.lo <= d2f.lo and d2f.hi <= h.hi


def test_compile_examples():
    ev = ex.Evaluator(ex.parse("x0"), 1)
    g = ev.germ([I(0, 1)])
    assert g.f == I(0, 1) and g.df[0] == I(1, 1)

    ev2 = ex.Evaluator(ex.parse("x0*x0"), 1)
    h = ev2.hessian_entry([I(-7, 3)], 0, 0)
    assert h.contains(2.0)

    ev3 = ex.Evaluator(ex.parse("atan(x0, 1)"), 1)
    g3 = ev3.germ([I(1, 1)])
    assert g3.df[0].contains(0.5)


def test_compile_takes_any_depth():
    # every compiler pass is iterative, so depth is limited by memory only
    deep = ex.Var(0)
    for _ in range(4999):
        deep = ex.Add(deep, ex.Const("1"))
    germ = ex.Evaluator(deep, 1).germ([I(0, 1)])
    assert germ == ex.TaylorGerm(I(4999, 5000), (I(1, 1),))
    # an undeclared variable is the one compile error
    with pytest.raises(ValueError, match="^expression uses x3 but arity is 2$"):
        ex.Evaluator(ex.Var(3), arity=2)


def test_plan_shares_subexpressions():
    e = ex.parse("sqrt(x0 + 1) * sqrt(x0 + 1)", 1)
    ev = ex.Evaluator(e, 1)
    assert sum("sqrt" in line for line in ev.plan_lines()) == 1


def _plan_compiled_after_the_patch():
    return lambda: ex.Evaluator(ex.parse("x0*x1", 2), 2).germ([I(1, 2), I(3, 4)])


def _taylor_sum():
    # compiled before the patch: only the Taylor sum's own products count
    ev = ex.Evaluator(ex.parse("x0*x1", 2), 2)
    box = Box.from_bounds([(1, 2), (3, 4)])
    return lambda: taylor_upper_bound(ev, box)


def _geom_check():
    edges = [I(*iv.sqrt_interval(I(8, 8)))] * 6
    return lambda: geom.check_simplex_interior_point(edges, I(2, 2))


def _assembly_side_condition():
    p = asm.problem_from_text((PROBLEMS / "voronoi2d.asm").read_text())
    cert = asm.certificate_from_text(p, (PROBLEMS / "voronoi2d.cert").read_text())
    return lambda: asm.mx_check_interval(p, cert)


def test_plan_calls_the_kernels_bound_when_it_compiles(monkeypatch):
    # perfbench/trace.py counts interval operations by rebinding the
    # functions of rigorkit.interval after import; a plan that held the
    # operations bound at import, or a caller that used another name for
    # them, would bypass the counting wrappers.
    callers = [_plan_compiled_after_the_patch, _taylor_sum, _geom_check,
               _assembly_side_condition]
    runs = [(caller.__name__, caller()) for caller in callers]
    calls = []
    mul = iv.mul

    def counting_mul(a, b):
        calls.append((a, b))
        return mul(a, b)

    monkeypatch.setattr(iv, "mul", counting_mul)
    for name, run in runs:
        calls.clear()
        run()
        assert calls, name


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
    assert ex.FloatPlan((e,))([0.5])[0] == expected


def test_rendering_a_long_sum_holds_memory_linear_in_its_text():
    # each subtree's text used to be kept whole, O(k^2) characters for a
    # sum of k terms: 4,800 times this text's length at its peak
    text = " + ".join(["0.001*x0*x1"] * 9600) + " - 1"
    e = ex.parse(text, 2)
    tracemalloc.start()
    try:
        assert ex.to_text(e) == text
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * len(text)


def _float_or_error(fn, *args):
    """fn's value, or list of values, as binary64 bytes, or the class of
    what it raised."""
    try:
        v = fn(*args)
    except Exception as exc:   # compared, not swallowed
        return type(exc)
    return struct.pack(f"<{len(v)}d", *v) if isinstance(v, list) else struct.pack("<d", v)


# Coordinates that reach zero denominators, negative square roots and
# overflowing powers in the random expressions below.
_POINT_COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, -2.5, 3.0, 1e-300, 1e155, -1e200)


@pytest.mark.parametrize("seed", range(4))
def test_float_plan_matches_the_walker_bit_for_bit(seed):
    rng = random.Random(7100 + seed)
    for _ in range(60):
        arity = rng.randint(1, 3)
        a, b = random_expr(rng, arity, 5), random_expr(rng, arity, 4)
        # random_expr keeps denominators and sqrt arguments safe; these
        # wrappers make them fail at some points
        e = rng.choice([a, ex.Div(a, b), ex.Sqrt(b), ex.Atan(a, b), ex.Pow(b, -1)])
        plan = ex.FloatPlan((e, a, b))
        single = ex.FloatPlan((e,))
        for _ in range(8):
            point = [rng.choice(_POINT_COORDS) for _ in range(arity)]
            want = [_float_or_error(reference_evaluate_numeric, r, point) for r in (e, a, b)]
            assert _float_or_error(single, point) == want[0], (ex.to_text(e), point)
            got = _float_or_error(plan, point)
            if all(isinstance(w, bytes) for w in want):
                assert got == b"".join(want)
            else:   # the first root to raise in walk order decides the class
                assert got == next(w for w in want if not isinstance(w, bytes))


def _intervals_or_error(fn, *args):
    """The endpoints of the Intervals fn returns, as binary64 bytes (so
    the sign of zero counts), or the class and message of what it raised."""
    try:
        vs = fn(*args)
    except Exception as exc:   # compared, not swallowed
        return type(exc), str(exc)
    assert all(type(v) is Interval for v in vs)
    return b"".join(struct.pack("<2d", *v) for v in vs)


def _germ(e, arity, box):
    g = ex.Evaluator(e, arity).germ(box)
    return [g.f, *g.df]


def _germ_resumed(e, arity, box):
    # the first query is the value pass, so the partials are lowered after
    # it and their slots are missing from its array
    ev = ex.Evaluator(e, arity)
    f, vals = ev.value_pass(box)
    g = ev.resume_germ(vals)
    assert g.f == f
    return [g.f, *g.df]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4), st.booleans())
def test_plan_matches_an_independent_interval_walk(seed, arity, point):
    # The plan runs on plain pairs through the interval operations; the
    # reference walks each expression from ex.differentiate with the same
    # operations, keeping each value as an Interval.  Boxes straddle zero,
    # or are points at coordinates that reach zero denominators, negative
    # square roots and overflows.
    rng = random.Random(seed)
    a, b = random_expr(rng, arity, 4), random_expr(rng, arity, 3)
    e = rng.choice([a, ex.Div(a, b), ex.Sqrt(b), ex.Atan(a, b), ex.Pow(b, -1)])
    if point:
        box = [I.point(rng.choice(_POINT_COORDS)) for _ in range(arity)]
    else:
        box = [I(-rng.choice((0.0, rng.uniform(0.0, 2.0))), rng.uniform(0.0, 2.0))
               for _ in range(arity)]
    entries = [(rng.randrange(arity), rng.randrange(arity)) for _ in range(rng.randint(1, 4))]
    text = ex.to_text(e)
    want = _intervals_or_error(reference_germ, e, arity, box)
    assert _intervals_or_error(_germ, e, arity, box) == want, (text, box)
    assert _intervals_or_error(_germ_resumed, e, arity, box) == want, (text, box)
    assert (_intervals_or_error(ex.Evaluator(e, arity).hessian, box, entries)
            == _intervals_or_error(reference_hessian, e, box, entries)), (text, box, entries)


def test_float_plan_reads_constants_when_it_compiles():
    # a constant the points never reach still fails, as its node is made
    with pytest.raises(ParseError, match="'1e999' overflows binary64 at offset 14"):
        ex.parse("1/(x0 - x0) + 1e999", 1)
    with pytest.raises(ParseError, match="'1e999' overflows binary64$"):
        ex.Const("1e999")
    e = ex.parse("1/(x0 - x0) + 1e99", 1)
    with pytest.raises(ZeroDivisionError):
        reference_evaluate_numeric(e, [0.5])
    plan = ex.FloatPlan((e,))   # the constant's slot preloads the value its node read
    assert plan._preload[plan._slots[ex.Const("1e99")]] == 1e99
    plan = ex.FloatPlan((ex.parse("x0 - x1"), ex.parse("x1*x1")))
    assert plan([3.0, 2.0, 99.0]) == [1.0, 4.0]   # coordinates past the arity ignored
    with pytest.raises(IndexError):
        plan([3.0])
    assert ex.FloatPlan(())([]) == []


def test_constant_instructions_run_once_as_the_plan_compiles(monkeypatch):
    calls = []
    for name in ("add", "mul", "sqrt_interval"):
        kernel = getattr(iv, name)
        monkeypatch.setattr(iv, name, lambda *args, kernel=kernel, name=name:
                            calls.append(name) or kernel(*args))
    e = ex.parse("x0 + sqrt(2)*3", 1)
    ev = ex.Evaluator(e, 1)
    assert calls == ["sqrt_interval", "mul"] and not ev.fails_everywhere
    box = [I(0, 1)]
    for _ in range(2):
        calls.clear()
        got = _intervals_or_error(lambda b: [ev.value(b)], box)
        assert calls == ["add"]
    assert got == _intervals_or_error(lambda b: reference_germ(e, 1, b)[:1], box)


def test_a_constant_that_fails_raises_at_each_point():
    # folding it raised, so it stays an instruction and raises as it did unfolded
    plan = ex.FloatPlan((ex.parse("x0 + 1/0", 1),))
    with pytest.raises(ZeroDivisionError):
        plan([1.0])
    with pytest.raises(IntervalError, match="contains zero"):
        ex.Evaluator(ex.parse("x0 + atan(1, 0)", 1), 1).value([I(0, 1)])


def test_long_expressions_compare_and_hash_without_recursion():
    # structural equality and hashing used to recurse along the chain
    text = "1" + " - 0.001*x0 + 0.001*x0" * 750
    assert ex.parse(text, 1) == ex.parse(text, 1)
    assert hash(ex.parse(text, 1)) == hash(ex.parse(text, 1))
    assert ex.parse(text, 1) != ex.parse(text + " + x0", 1)


def test_equal_structure_is_one_node():
    assert ex.parse("x0*x0 + atan(x1, 2)", 2) is ex.parse("(x0*x0) + atan(x1, 2)", 2)
    assert ex.Const("1") is ex.ONE and ex.Pow(ex.Var(0), 2) is ex.Pow(ex.Var(0), 2)
    assert ex.Const("1") is not ex.Const("1.0")
    assert {ex.Var(0): 1}[ex.Var(0)] == 1


@pytest.mark.parametrize("text, value", [("15", 15), ("1.50e1", 15), ("-0", 0), ("1e-1", None),
                                         ("12e2", 1200), ("1e999999999", ParseError)])
def test_integer_constants_are_read_once_per_node(text, value):
    if value is ParseError:   # past binary64: no node is made
        with pytest.raises(ParseError, match="overflows binary64"):
            ex.Const(text)
        return
    const = ex.Const(text)
    assert ex._as_int(const) == value
    assert repr(const) == f"Const(text={text!r})"
    match const:
        case ex.Const(t):
            assert t == text


def test_node_table_drops_unused_nodes():
    import gc

    gc.collect()
    before = len(ex._NODES)
    e = ex.parse("1" + " - 0.25*x0*x1 + sqrt(x1)" * 200, 2)
    d = ex.differentiate(ex.differentiate(e, 0), 1)
    assert len(ex._NODES) > before
    del e, d
    gc.collect()
    assert len(ex._NODES) == before


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
            single = [ex.Evaluator(e, arity).hessian_entry(box, i, j) for i, j in entries]
        except IntervalError:
            with pytest.raises(IntervalError):
                ex.Evaluator(e, arity).hessian(box, entries)
            continue
        assert ex.Evaluator(e, arity).hessian(box, entries) == single


def test_gradient_and_hessian_soundness_sample():
    rng = random.Random(20260808)
    checked = 0
    while checked < 60:
        arity = rng.randint(1, 4)
        e = random_expr(rng, arity, rng.randint(2, 6))
        if "x" not in ex.to_text(e):
            continue
        pt = [rng.uniform(-1.5, 1.5) for _ in range(arity)]
        box = [I.point(v) for v in pt]
        ev = ex.Evaluator(e, arity)
        try:
            germ = ev.germ(box)
        except IntervalError:
            continue
        if germ.f.mag > 1e6 or any(d.mag > 1e6 for d in germ.df):
            continue
        plan = ex.FloatPlan((e,))
        ok = True
        for i in range(arity):
            fd = fd_gradient(plan, pt, i)
            tol = 1e-6 * (1.0 + germ.df[i].mag) + 1e-9
            if not (germ.df[i].lo - tol <= fd <= germ.df[i].hi + tol):
                ok = False
            # commutation: symbolic derivative agrees with the germ
            sym = ex.FloatPlan((ex.differentiate(e, i),))(pt)[0]
            assert germ.df[i].lo - 1e-9 <= sym <= germ.df[i].hi + 1e-9
        assert ok, (ex.to_text(e), pt)
        i = rng.randrange(arity)
        j = rng.randrange(arity)
        try:
            h_val = ev.hessian_entry(box, i, j)
        except IntervalError:
            continue
        if h_val.mag > 1e6:
            continue
        fd2 = fd_hessian(plan, pt, i, j)
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
        ev = ex.Evaluator(e, arity)
        for i in range(arity):
            try:
                germ_component = ev.germ(box).df[i]
                symbolic = ex.Evaluator(ex.differentiate(e, i), arity).value(box)
            except IntervalError:
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
        ev = ex.Evaluator(e, arity)
        try:
            germ = ev.germ(box)
        except IntervalError:
            continue
        if any(d.mag > 1e8 for d in germ.df):
            continue
        plan = ex.FloatPlan((e,))
        inside = True
        for _ in range(20):
            pt = [rng.uniform(box[j].lo, box[j].hi) for j in range(arity)]
            for i in range(arity):
                try:
                    fd = fd_gradient(plan, pt, i, h=1e-6)
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
    v = ex.Evaluator(e, 1).value([I(0, 1)])
    from fractions import Fraction
    assert Fraction(v.lo) <= Fraction(1, 10) <= Fraction(v.hi)


def test_const_from_float_embeds_its_float_exactly():
    # the text is the float's exact decimal, so the interval plan reads the
    # point itself, where repr's shortest text (0.1) would be widened
    from fractions import Fraction
    for v in (0.1, -2.5e-7, 1 / 3, 5e-324, 1.7976931348623157e308, 3.0, -0.0):
        c = ex.const_from_float(v)
        assert Fraction(c.text) == Fraction(v)
        assert ex.Evaluator(c, 0).value(()) == I(v, v)
    assert ex.const_from_float(2.5).text == "2.5"
    with pytest.raises(ValueError, match="non-finite"):
        ex.const_from_float(math.inf)
