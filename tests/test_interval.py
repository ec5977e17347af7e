import math
import os
import random
import struct
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import random_expr, reference_round_decimal, short_decimal
from rigorkit import expr as ex
from rigorkit import interval as iv
from rigorkit.errors import (DivisionByZeroInterval, DomainError, IntervalError,
                             NonFiniteOperand, ParseError)
from rigorkit.interval import Interval

I = Interval

finite_floats = st.floats(min_value=-1e12, max_value=1e12,
                          allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(finite_floats)
    b = draw(finite_floats)
    return I(min(a, b), max(a, b))


@st.composite
def interval_with_member(draw):
    box = draw(intervals())
    t = draw(st.floats(min_value=0.0, max_value=1.0))
    x = box.lo + t * (box.hi - box.lo)
    x = min(max(x, box.lo), box.hi)
    return box, x


def test_add_examples():
    assert iv.add(I(1, 2), I(3, 4)) == I(4, 6)
    a = I(-3.5, 7.25)
    assert iv.add(I(0, 0), a) == a


def test_decimal_sum_encloses_three_tenths():
    s = I(*iv.add(iv.from_decimal_string("0.1"), iv.from_decimal_string("0.2")))
    exact = Fraction(3, 10)
    assert Fraction(s.lo) <= exact <= Fraction(s.hi)
    assert s.hi - s.lo <= 4 * math.ulp(0.3)


def test_mul_div_examples():
    assert iv.mul(I(-1, 2), I(3, 3)) == I(-3, 6)
    assert iv.div(I(1, 1), I(2, 2)) == I(0.5, 0.5)
    with pytest.raises(DivisionByZeroInterval):
        iv.div(I(1, 2), I(-1, 1))


def test_add_inf_combination_rejected():
    with pytest.raises(NonFiniteOperand):
        iv.add(I(-math.inf, -math.inf), I(math.inf, math.inf))
    with pytest.raises(NonFiniteOperand):
        iv.mul(I(0, math.inf), I(1, 2))


def test_atan_examples():
    r = I(*iv.atan_interval(I(1, 1)))
    assert r.lo <= math.pi / 4 <= r.hi
    assert r.hi - r.lo <= 4 * math.ulp(math.pi / 4)
    r0 = I(*iv.atan_interval(I(0, 0)))
    assert r0.lo <= 0.0 <= r0.hi and r0.hi - r0.lo <= 2 * math.ulp(1.0)
    rs_lo, rs_hi = iv.atan_interval(I(-5, 5))
    assert rs_lo == -rs_hi


def test_atan_endpoint_ordering_against_high_precision():
    from oracles import mp_atan
    import random
    rng = random.Random(7)
    for _ in range(300):
        lo = rng.uniform(-50, 50)
        hi = lo + abs(rng.gauss(0, 5))
        r = I(*iv.atan_interval(I(lo, hi)))
        mid_ref = float(mp_atan(I(lo, hi).mid))
        assert r.lo <= mid_ref <= r.hi
        assert float(mp_atan(lo)) >= r.lo and float(mp_atan(hi)) <= r.hi


def test_atan_within_one_ulp_against_mpmath():
    # atan_interval trusts libm math.atan to within 1 ulp and widens each
    # endpoint by 2 ulps; this pins that platform assumption.
    import mpmath
    tiny = 5e-324
    xs = [0.0, tiny, 2 * tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
          1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
          sys.float_info.max] + [2.0**k for k in range(-1074, 1001)]
    with mpmath.workdps(60):
        for x in xs + [-x for x in xs]:
            exact = mpmath.atan(mpmath.mpf(x))
            y = math.atan(x)
            assert abs(mpmath.mpf(y) - exact) <= math.ulp(y), x
            r = I(*iv.atan_interval(I.point(x)))
            assert mpmath.mpf(r.lo) <= exact <= mpmath.mpf(r.hi), x


def test_sqrt_examples():
    r = iv.sqrt_interval(I(4, 4))
    assert r == I(2, 2)
    from oracles import mp_sqrt
    r8 = I(*iv.sqrt_interval(I(8, 8)))
    ref = mp_sqrt(8.0, dps=60)
    assert r8.lo <= float(ref) <= r8.hi
    with pytest.raises(DomainError):
        iv.sqrt_interval(I(-1, -0.5))
    # a negative lower end is clamped to zero
    assert iv.sqrt_interval(I(-0.5, 4)) == I(0, 2)


def test_from_decimal_string_examples():
    assert iv.from_decimal_string("1") == I(1, 1)
    d = iv.from_decimal_string("0.1")
    assert Fraction(d.lo) <= Fraction(1, 10) <= Fraction(d.hi)
    assert d.hi - d.lo <= 2 * math.ulp(0.1)
    long = iv.from_decimal_string("1.000000000000000000001")
    assert long.hi > 1.0
    assert Fraction(long.lo) <= Fraction("1.000000000000000000001") <= Fraction(long.hi)
    with pytest.raises(ParseError):
        iv.from_decimal_string("not-a-number")
    with pytest.raises(ParseError):
        iv.from_decimal_string("3/7")


def test_decimal_rounding_ties_to_even():
    # 2**53 + 3 lies halfway between two binary64 values
    assert iv.decimal_to_nearest_float("9007199254740995") == 9007199254740996.0
    assert iv.from_decimal_string("9007199254740995") == I(2.0**53 + 2, 2.0**53 + 4)


def test_decimal_exponents_far_outside_binary64():
    with pytest.raises(ParseError, match="overflows binary64"):
        iv.from_decimal_string("1e999999999")
    assert iv.from_decimal_string("1e-999999999") == I(0.0, 5e-324)
    assert iv.from_decimal_string("-1e-999999999") == I(-5e-324, 0.0)


def test_long_decimal_numerals_are_decided_from_their_digit_count():
    # Past 4300 digits int() refuses the text; the magnitude is decided first.
    with pytest.raises(ParseError, match="overflows binary64"):
        iv.from_decimal_string("1" + "0" * 5000)
    with pytest.raises(ParseError, match="overflows binary64"):
        iv.from_decimal_string("1e1" + "0" * 5000)
    assert iv.from_decimal_string("1e-1" + "0" * 5000) == I(0.0, 5e-324)
    assert iv.from_decimal_string("-0." + "0" * 5000 + "1") == I(-5e-324, 0.0)
    assert iv.from_decimal_string("0" * 5000 + "2.5e0" + "0" * 5000) == I(2.5, 2.5)


def test_long_decimal_numerals_round_correctly():
    from decimal import Decimal
    rng = random.Random(8)
    tie = "9007199254740993"  # halfway between two binary64 integers
    cases = [tie + "." + "0" * 5000, tie + "." + "0" * 5000 + "1",
             "-" + tie + "0" * 4990 + "e-4990", "0.5" + "0" * 5000 + "1"]
    for _ in range(40):
        digits = "".join(rng.choice("0123456789") for _ in range(rng.randrange(700, 6000)))
        cases.append(f"{digits[:1]}.{digits[1:]}e{rng.randrange(-320, 300)}")
    for s in cases:
        assert iv.decimal_to_nearest_float(s) == float(s), s[:40]
        enc = iv.from_decimal_string(s)
        assert Decimal(enc.lo) <= Decimal(s) <= Decimal(enc.hi)
        assert enc.lo == enc.hi or iv.next_up(enc.lo) == enc.hi


@given(st.from_regex(r"\A[+-]?([0-9]{1,25}(\.[0-9]{0,25})?|\.[0-9]{1,25})"
                     r"([eE][+-]?[0-9]{1,3})?\Z"))
def test_decimal_reader_rounds_correctly(s):
    if math.isinf(float(s)):
        with pytest.raises(ParseError):
            iv.from_decimal_string(s)
        return
    assert iv.decimal_to_nearest_float(s) == float(s)
    enc = iv.from_decimal_string(s)
    assert Fraction(enc.lo) <= Fraction(s) <= Fraction(enc.hi)
    assert enc.lo == enc.hi or iv.next_up(enc.lo) == enc.hi


def _reference(s):
    """The reference reader's float for s and the sign of its error, or its
    ParseError message."""
    try:
        f, num, den = reference_round_decimal(s)
    except ParseError as exc:
        return str(exc)
    fn, fd = f.as_integer_ratio()
    err = num * fd - fn * den
    return f.hex(), (err > 0) - (err < 0)


def _read(s):
    """decimal_to_nearest_float and from_decimal_string on s, as the float
    and the sign of the error the enclosure records, or the ParseError
    message, which both must give alike."""
    try:
        f = iv.decimal_to_nearest_float(s)
    except ParseError as exc:
        with pytest.raises(ParseError) as again:
            iv.from_decimal_string(s)
        assert str(again.value) == str(exc)
        return str(exc)
    enc = iv.from_decimal_string(s)
    sign = 0 if enc.lo == enc.hi else (1 if enc.lo.hex() == f.hex() else -1)
    assert (enc.lo if sign >= 0 else enc.hi).hex() == f.hex()
    assert sign == 0 or iv.next_up(enc.lo) == enc.hi
    return f.hex(), sign


def _column(tokens):
    try:
        return [f.hex() for f in iv._nearest_floats(tokens)]
    except ParseError as exc:
        return str(exc)


def _one_at_a_time(tokens):
    try:
        return [iv.decimal_to_nearest_float(t).hex() for t in tokens]
    except ParseError as exc:
        return str(exc)


def _reference_column(tokens):
    """The reference's floats for a column, or the first token's error."""
    out = []
    for t in tokens:
        r = _reference(t)
        if isinstance(r, str):
            return r
        out.append(r[0])
    return out


# (text, in Clinger's exact case): signs, empty parts, non-ASCII digits and
# underscores (which int() accepts), 15 and 16 significant digits, 22 and
# 23 fraction digits, and an exponent.
DECIMAL_EDGES = [
    ("-0", True), ("-0.000", True), ("+0", True), ("0", True), ("+1.5", True),
    (".5", False), ("5.", False), ("-.5", False), (".", False), ("-", False),
    ("+", False), ("", False), ("1_0", False), ("1.0_0", False), ("\u0663", False),
    ("\u00b2", False), ("1\u0663", False), ("+-1", False), ("--1", False), (" 1", False),
    ("123456789012345", True), ("-0.123456789012345", True),
    ("000000000000000000000000123456789012345", True),
    ("1234567890123456", False), ("9007199254740993", False), ("0.1234567890123456", False),
    ("0." + "0" * 21 + "7", True), ("-0." + "0" * 19 + "123", True),
    ("0." + "0" * 22 + "7", False), ("1." + "0" * 22, False),
    ("1e5", False), ("1E-5", False), ("0.1", True), ("0.3", True), ("2.5", True),
    ("-999999999999999", True), ("999999999999999e0", False),
    # 17 digits: float(N) / 10**k would round twice and miss
    ("6.5778491027943236", False), ("-393822778.01338157", False),
]
EDGE_TEXTS = [s for s, _ in DECIMAL_EDGES]
# Signed zeros, underflow to a signed zero, and the least subnormal, the
# least normal and the largest finite value by their rounding boundaries.
NUMERAL_EDGES = [
    "-0", "+0.0e5", "-0.000e-999", "0e99999999999999999999", "-.0", "0.",
    "1e-400", "-1e-400", "-2e-999999999999", "2.4703282292062327e-324",
    "2.4703282292062328e-324", "-4.9406564584124654e-324", "2.2250738585072011e-308",
    "1.7976931348623157e308", "1.7976931348623158e308",
]
OVERFLOWS = ["-1.7976931348623159e308", "1e309", "-1e400", "9" * 320, "1e99999999999999999999"]
MORE_EDGES = ["1e-5", "-2.5E3", "0." + "0" * 30 + "1", "1" * 400, "12.5.", "1-2", "1e",
              "1" * 900 + "e-900"]


def _check_edge(s):
    assert _read(s) == _reference(s)
    for tokens in ([s], ["0.5", s, "-2"], [s, "1e400"]):
        assert _column(tokens) == _reference_column(tokens)


@pytest.mark.parametrize("s, short", DECIMAL_EDGES)
def test_short_decimal_path_agrees_with_exact_path_on_edges(s, short):
    # Clinger's float division and the exact reference are two oracles;
    # where the first applies, both must give the reader's value
    value = short_decimal(s)
    assert (value is not None) == short
    _check_edge(s)
    if short:
        assert _read(s)[0] == value.hex()


@pytest.mark.parametrize("s", [s for s in dict.fromkeys(NUMERAL_EDGES + OVERFLOWS + MORE_EDGES)
                               if s not in EDGE_TEXTS])
def test_decimal_reader_matches_the_reference_on_edges(s):
    _check_edge(s)


def test_zero_numerals_read_as_positive_zero():
    for s in ("-0", "-0.0", "-0.000", "+0", "0.0"):
        assert iv.decimal_to_nearest_float(s).hex() == "0x0.0p+0"
        enc = iv.from_decimal_string(s)
        assert enc.lo.hex() == enc.hi.hex() == "0x0.0p+0"


def test_unicode_digits_read_as_their_ascii_twins():
    # Unicode decimal digits are read by their values, zeros included
    for s, twin in [("-\u0660", "-0"), ("\u0660.\u0660", "0.0"), ("-\u0660e-400", "-0e-400"),
                    ("\u0660" * 400 + "1", "1"), ("1e" + "\u0660" * 20 + "5", "1e5"),
                    ("\u0661\u0660", "10"), ("1" + "\u0660" * 900 + "e-900", "1")]:
        assert _read(s) == _read(twin)
        assert iv.read_constant(s) == iv.read_constant(twin)


@st.composite
def long_numerals(draw):
    """Numerals of 790 to 1,200 digits, past the 800 the reader keeps, with
    any sign and an exponent that may push them out of range."""
    digits = draw(st.text("0123456789", min_size=790, max_size=1200))
    cut = draw(st.integers(0, len(digits)))
    exp = draw(st.one_of(st.just(""), st.integers(-1600, 400).map(lambda e: f"e{e}")))
    return draw(st.sampled_from(["", "+", "-"])) + digits[:cut] + "." + digits[cut:] + exp


numerals = st.one_of(
    st.from_regex(r"\A[+-]?0{0,3}[0-9]{1,17}(\.[0-9]{0,24})?\Z"),
    st.from_regex(r"\A[+-]?[0-9]{0,20}(\.[0-9]{0,20})?([eE][+-]?[0-9]{1,4})?\Z"),
    st.builds("{}e{}".format, st.floats(allow_nan=False, allow_infinity=False),
              st.integers(-345, 345)),
    st.text("+-.0123456789eE", max_size=12),
    long_numerals(),
    st.sampled_from(EDGE_TEXTS + NUMERAL_EDGES + OVERFLOWS + MORE_EDGES))


@settings(max_examples=500)
@given(numerals)
def test_decimal_reader_matches_the_reference(s):
    assert _read(s) == _reference(s)


@settings(max_examples=500)
@given(st.from_regex(r"\A[+-]?0{0,3}[0-9]{1,17}(\.[0-9]{0,24})?\Z"))
def test_short_decimal_path_agrees_with_exact_path(s):
    value = short_decimal(s)
    assert _read(s) == _reference(s)
    assert value is None or _read(s)[0] == value.hex()


@settings(max_examples=300)
@given(st.lists(numerals))
def test_decimal_list_agrees_with_one_at_a_time(tokens):
    assert _column(tokens) == _one_at_a_time(tokens) == _reference_column(tokens)


@pytest.mark.parametrize("odd", ["\u0663", "1\u0663", "\u00b2", "1_0", "1.0_0", "inf", "-inf",
                                 "Infinity", "nan", "-NaN", " 1", "1\t", "1\n", "\u20001",
                                 "0x10", "1e5j"])
def test_decimal_list_outside_the_numeral_alphabet(odd):
    for tokens in ([odd], ["0.5", odd, "-2"], ["1e400", odd], [odd, "-0"]):
        assert _column(tokens) == _one_at_a_time(tokens) == _reference_column(tokens)


def test_import_needs_binary64_rounded_to_nearest():
    # CPython's float_repr_style is "legacy" only where doubles are not IEEE
    # 754 or x87 double rounding cannot be switched off
    probe = "import sys; sys.float_repr_style = 'legacy'; import rigorkit.interval"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        "ImportError: rigorkit.interval needs IEEE 754 binary64 arithmetic rounded "
        "to nearest (sys.float_repr_style == 'short')")


@given(st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1))
def test_integer_decimals_exact(k):
    e = iv.from_decimal_string(str(k))
    assert e.lo == e.hi == float(k)


@settings(max_examples=200)
@given(interval_with_member(), interval_with_member())
def test_containment_binary_ops(am, bm):
    a, x = am
    b, y = bm
    assert I(*iv.add(a, b)).contains(x + y)
    assert I(*iv.sub(a, b)).contains(x - y)
    assert I(*iv.mul(a, b)).contains(x * y)
    if not b.contains(0.0):
        assert I(*iv.div(a, b)).contains(x / y)


@settings(max_examples=200)
@given(intervals(), intervals(), st.floats(0, 1), st.floats(0, 1),
       st.floats(0, 1), st.floats(0, 1))
def test_inclusion_monotonicity(a, b, s1, s2, t1, t2):
    def shrink(box, u, v):
        lo = box.lo + 0.5 * u * (box.hi - box.lo)
        hi = box.hi - 0.5 * v * (box.hi - box.lo)
        if lo > hi:
            lo = hi = 0.5 * (lo + hi)
        return I(min(max(lo, box.lo), box.hi), min(max(hi, box.lo), box.hi))

    a_small = shrink(a, s1, s2)
    b_small = shrink(b, t1, t2)
    ops = (iv.add, iv.sub, iv.mul) if b.contains(0.0) else (iv.add, iv.sub, iv.mul, iv.div)
    for op in ops:
        big, small = I(*op(a, b)), I(*op(a_small, b_small))
        assert big.lo <= small.lo and small.hi <= big.hi


def test_pow_int():
    assert iv.pow_int(I(-2, 2), 2) == I(0, 4)
    assert iv.pow_int(I(-2, 3), 3) == I(-8, 27)
    assert iv.pow_int(I(2, 3), 0) == I(1, 1)
    inv = I(*iv.pow_int(I(2, 4), -1))
    assert inv.contains(0.25) and inv.contains(0.5)
    with pytest.raises(DivisionByZeroInterval):
        iv.pow_int(I(-1, 1), -2)


def _reference_pow(x, k, mul):
    # plain square-and-multiply, squaring until the exponent runs out
    acc, base = None, x
    while k:
        if k & 1:
            acc = base if acc is None else mul(acc, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return acc


def test_pow_kernels_match_plain_square_and_multiply():
    # bases at or near the fixed points of rounded squaring, subnormals and
    # bases whose powers overflow
    top = sys.float_info.max
    bases = [0.0, 5e-324, 1e-323, 2.2250738585072014e-308, 1e-160, 0.5, 0.9,
             1 - 2**-53, 1 - 2**-52, 1.0, 1 + 2**-52, 2.0, 1e154, 1e155,
             math.nextafter(top, 0.0), top]
    rng = random.Random(20261018)
    bases += [rng.uniform(0.0, 2.0) for _ in range(20)]
    bases += [10.0 ** rng.uniform(-320, 308) for _ in range(20)]
    ks = list(range(1, 40)) + [2**j + d for j in range(6, 80, 9) for d in (-1, 0, 1)]
    ks += [rng.randrange(1, 2**80) for _ in range(30)]
    for x in bases:
        for k in ks:
            for mul in (iv._mul_down, iv._mul_up):
                assert iv._pow_nonneg(x, k, mul) == _reference_pow(x, k, mul), (x, k, mul)


def test_pow_with_a_huge_exponent_stops_at_a_fixed_point(monkeypatch):
    calls = []
    for name in ("_mul_down", "_mul_up"):
        kernel = getattr(iv, name)
        monkeypatch.setattr(iv, name, lambda x, y, kernel=kernel: calls.append(1) or kernel(x, y))
    assert iv.pow_int(I(0.5, 0.9), 10**300) == I(0.0, 5e-324)
    # the exponent has 997 bits; the bases reach 0 and 5e-324 within 14 squarings
    assert len(calls) < 60


def test_interval_invariants():
    # Interval is the immutable pair (lo, hi), checked as it is built
    for lo, hi in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(NonFiniteOperand) as err:
            I(lo, hi)
        assert str(err.value) == "interval endpoints may not be NaN"
    with pytest.raises(ValueError) as err:
        I(2, 1)
    assert str(err.value) == "interval lower endpoint 2.0 exceeds upper 1.0"
    # namedtuple's other constructors check as __new__ does
    with pytest.raises(ValueError):
        I(1, 2)._replace(lo=3)
    with pytest.raises(NonFiniteOperand):
        I._make([math.nan, 1.0])
    assert I(1, 2)._replace(hi=True) == I(1.0, 1.0) and I._make((0, 1)) == I(0.0, 1.0)
    # int and bool endpoints become floats
    a = I(1, True)
    assert type(a.lo) is float and type(a.hi) is float and a == I(1.0, 1.0)
    assert type(I(False, 2).lo) is float
    with pytest.raises(AttributeError):
        a.lo = 0.0
    assert a == I(1.0, 1.0)
    assert repr(I(-0.5, 2)) == "Interval(-0.5, 2.0)"
    assert I(1, 2) == I(1.0, 2.0) and hash(I(1, 2)) == hash(I(1.0, 2.0))
    assert I(-0.0, 0.0) == I(0.0, 0.0) and hash(I(-0.0, 0.0)) == hash(I(0.0, 0.0))
    lo, hi = I(1, 2)
    assert (lo, hi) == (1.0, 2.0)
    # infinite endpoints allowed for bookkeeping
    cap = I(math.inf, math.inf)
    assert not cap.is_finite


def test_literal_round_trips():
    for text, expected in [("1", I(1, 1)), ("0..1", I(0, 1)),
                           ("-1.5..2", I(-1.5, 2)), ("inf", I(math.inf, math.inf))]:
        got = iv.parse_interval_literal(text)
        assert got == expected or (got.lo <= expected.lo and got.hi >= expected.hi)
    for box in [I(0, 1), I(-2.5, 3.75), I(0.1, 0.2), I(5, 5)]:
        lit = iv.format_interval_literal(box)
        back = iv.parse_interval_literal(lit)
        assert back.lo <= box.lo and box.hi <= back.hi


def test_infinite_endpoints_format_as_inf_and_read_back():
    for a, text in [(I(-math.inf, 1), "-inf..1.0"), (I(0.5, math.inf), "0.5..inf"),
                    (I(-math.inf, math.inf), "-inf..inf"), (I(math.inf, math.inf), "inf..inf"),
                    (I(-math.inf, -math.inf), "-inf..-inf")]:
        assert iv.format_interval_literal(a) == text
        assert iv.parse_interval_literal(text) == a


def test_midpoint_of_endpoints_whose_sum_overflows():
    # lo + hi rounds to an infinity, so the midpoint halves each endpoint
    # first; it stays finite and inside the interval
    big = sys.float_info.max
    for a in [I(1e308, 1.7e308), I(-1.7e308, -1e308), I(0.9 * big, big), I(-big, -0.5 * big)]:
        assert math.isinf(a.lo + a.hi)
        assert a.mid == 0.5 * a.lo + 0.5 * a.hi and a.lo < a.mid < a.hi
    assert I(1e308, 1.7e308).mid == 1.35e308


def test_directed_rounding_on_adversarial_bit_patterns():
    # random 64-bit patterns: subnormals, extreme exponents, signed zeros
    import random
    from rigorkit.interval import (_add_down, _add_up, _div_down, _div_up,
                                   _mul_down, _mul_up, _sqrt_down, _sqrt_up)

    rng = random.Random(8088)

    def rand_float():
        while True:
            x = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]
            if math.isfinite(x):
                return x

    for _ in range(20000):
        x, y = rand_float(), rand_float()
        fx, fy = Fraction(x), Fraction(y)
        lo, hi = _add_down(x, y), _add_up(x, y)
        if math.isfinite(lo):
            assert Fraction(lo) <= fx + fy
        if math.isfinite(hi):
            assert Fraction(hi) >= fx + fy
        lo, hi = _mul_down(x, y), _mul_up(x, y)
        if math.isfinite(lo):
            assert Fraction(lo) <= fx * fy
        if math.isfinite(hi):
            assert Fraction(hi) >= fx * fy
        if y != 0.0:
            lo, hi = _div_down(x, y), _div_up(x, y)
            if math.isfinite(lo):
                assert Fraction(lo) <= fx / fy
            if math.isfinite(hi):
                assert Fraction(hi) >= fx / fy
        if x >= 0.0:
            lo, hi = _sqrt_down(x), _sqrt_up(x)
            assert Fraction(lo) ** 2 <= fx <= Fraction(hi) ** 2


# ---------------------------------------------------------------------------
# TwoProduct kernels against the integer-ratio reference kernels
# ---------------------------------------------------------------------------

def _same_bits(a: float, b: float) -> bool:
    # float.hex tells -0.0 from 0.0
    return a.hex() == b.hex()


def _assert_kernels_match_reference(x: float, y: float) -> None:
    import oracles
    pairs = [(iv._mul_down, oracles.reference_mul_down),
             (iv._mul_up, oracles.reference_mul_up)]
    if y != 0.0:
        pairs += [(iv._div_down, oracles.reference_div_down),
                  (iv._div_up, oracles.reference_div_up)]
    for kernel, reference in pairs:
        got, want = kernel(x, y), reference(x, y)
        assert _same_bits(got, want), (kernel.__name__, x, y, got, want)
    if x >= 0.0:
        for kernel, reference in ((iv._sqrt_down, oracles.reference_sqrt_down),
                                  (iv._sqrt_up, oracles.reference_sqrt_up)):
            got, want = kernel(x), reference(x)
            assert _same_bits(got, want), (kernel.__name__, x, got, want)


def _adversarial_floats() -> list[float]:
    top = sys.float_info.max
    tiny = 5e-324
    mags = [tiny, 2 * tiny, 3 * tiny, 2.2250738585072009e-308,
            1.0, math.nextafter(1.0, 2.0), math.nextafter(1.0, 0.0),
            top, math.nextafter(top, 0.0)]
    # Both edges of TwoProduct's safe range (factors near 2**995, products
    # near 2**-968 and 2**1023, quotients near the least normal) and
    # operands whose products and quotients overflow or underflow.
    rng = random.Random(20261018)
    for k in (-1074, -1073, -1060, -1022, -1021, -1014, -1000, -969, -968, -967,
              -485, -484, -483, -100, 100, 483, 484, 511, 512, 994, 995, 996,
              1022, 1023):
        base = 2.0 ** k
        mags += [base, math.nextafter(base, 0.0), math.nextafter(base, math.inf),
                 1.5 * base, (4 / 3) * base, (2 - 2**-52) * base,
                 rng.randrange(2**52, 2**53) * 2.0 ** -52 * base]
    mags = sorted({m for m in mags if m > 0.0 and math.isfinite(m)})
    return [0.0, -0.0] + mags + [-m for m in mags]


def _pair_outcome(fn, args):
    """The endpoints fn returns on args, as binary64 bytes (so the sign of
    zero counts), or the class and message of the IntervalError it raises;
    any other exception escapes.  A result must be exactly a tuple."""
    try:
        r = fn(*args)
    except IntervalError as exc:
        return type(exc), str(exc)
    assert type(r) is tuple, (fn, args, r)
    return struct.pack("<2d", *r)


# add_products reads two pairs as two-element vectors, from the first as
# its accumulator: a.lo + a.lo*b.lo + a.hi*b.hi
_BINARY_OPERATIONS = [iv.add, iv.sub, iv.mul, iv.div,
                      lambda a, b: iv.add_products(a, b, *a)]
_UNARY_OPERATIONS = [iv.neg, iv.sqrt_interval, iv.atan_interval,
                     *((lambda a, k=k: iv.pow_int(a, k))
                       for k in (1, 2, 3, -1, 10**300, -10**300))]


def _assert_operation_takes_either_pair(fn, *operands: Interval) -> None:
    # the operation on plain tuples and on Intervals: the same tuple
    got = _pair_outcome(fn, [tuple(a) for a in operands])
    want = _pair_outcome(fn, operands)
    assert got == want, (fn, operands, got, want)


def _assert_operations_take_either_pair(x: float, y: float) -> None:
    """Each operation on plain tuples and on Intervals, on the points x and
    y and on the interval between them: every sign case of mul and div,
    with y = 0 for a denominator that contains zero."""
    p, q, r = I(x, x), I(y, y), I(min(x, y), max(x, y))
    for a, b in ((p, q), (r, q), (r, r)):
        for fn in _BINARY_OPERATIONS:
            _assert_operation_takes_either_pair(fn, a, b)
    for fn in _UNARY_OPERATIONS:
        _assert_operation_takes_either_pair(fn, r)


def _assert_square_matches_reference(x: float, y: float) -> None:
    """pow_int of the interval between x and y, squared: one product per
    endpoint, rounded as the reference kernels round it, bit for bit."""
    import oracles
    lo, hi = min(x, y), max(x, y)
    mig = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
    mag = max(abs(lo), abs(hi))
    want = struct.pack("<2d", oracles.reference_mul_down(mig, mig),
                       oracles.reference_mul_up(mag, mag))
    got = _pair_outcome(iv.pow_int, (I(lo, hi), 2))
    assert got == want, (x, y, got, want)


def test_kernels_match_reference_on_adversarial_operands():
    values = _adversarial_floats()
    for x in values:
        for y in values:
            _assert_kernels_match_reference(x, y)
        # the operations' case analysis over the scalar kernels checked
        # above, on every fourth y
        for y in values[::4]:
            _assert_operations_take_either_pair(x, y)
            _assert_square_matches_reference(x, y)


_any_finite = st.floats(allow_nan=False, allow_infinity=False)
# full 53-bit significands at every binary exponent, subnormal results included
_full_significand = st.builds(
    lambda m, k, negative: -math.ldexp(m, k) if negative else math.ldexp(m, k),
    st.integers(2**52, 2**53 - 1), st.integers(-1130, 970), st.booleans())
_kernel_operands = st.one_of(_any_finite, _full_significand)


@settings(max_examples=1000, deadline=None)
@given(_kernel_operands, _kernel_operands)
def test_kernels_match_reference(x, y):
    _assert_kernels_match_reference(x, y)
    _assert_kernels_match_reference(x, x)  # squares, as in pow_int
    _assert_operations_take_either_pair(x, y)
    _assert_square_matches_reference(x, y)


_adversarial_endpoints = st.sampled_from(_adversarial_floats() + [math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.tuples(_adversarial_endpoints, _adversarial_endpoints),
                min_size=1, max_size=3))
def test_plans_raise_only_interval_errors(seed, ends):
    # the plans run the operations and nothing else, so a germ or Hessian
    # over a box with adversarial endpoints returns or raises an
    # IntervalError, the one class the prover catches
    rng = random.Random(seed)
    arity = len(ends)
    ev = ex.Evaluator(random_expr(rng, arity, rng.randint(2, 5)), arity)
    box = [I(min(a, b), max(a, b)) for a, b in ends]
    entries = [(i, j) for i in range(arity) for j in range(i, arity)]
    for query in (lambda: ev.germ(box), lambda: ev.hessian(box, entries)):
        try:
            query()
        except IntervalError:
            pass


# ---------------------------------------------------------------------------
# The fused product-sum kernels against the scalar kernels they replace
# ---------------------------------------------------------------------------

def _outcome(fn):
    """The floats fn() returns, or the NonFiniteOperand message it raises."""
    try:
        return list(fn())
    except NonFiniteOperand as exc:
        return str(exc)


def _same_outcome(got, want) -> bool:
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return len(got) == len(want) and all(map(_same_bits, got, want))


def _check_add(xs, ys, lo=0.0, hi=0.0):
    import oracles
    got = _outcome(lambda: iv.add_products(xs, ys, lo, hi))
    want = _outcome(lambda: oracles.reference_add_products(xs, ys, lo, hi))
    assert _same_outcome(got, want), (xs, ys, lo, hi, got, want)


def _check_columns(start, mult, rows):
    # start - mult A a column at a time, as the LP residual accumulates it:
    # from the point start_j, the pairs (-m_i, A_ij) over nonzero m_i, A_ij
    for j, s in enumerate(start):
        pairs = [(-m, row[j]) for m, row in zip(mult, rows) if m != 0.0 and row[j] != 0.0]
        _check_add([m for m, _ in pairs], [a for _, a in pairs], s, s)


_NON_FINITE = [math.inf, -math.inf, math.nan]


def test_product_sum_kernels_match_scalar_kernels_on_adversarial_operands():
    # every pair of adversarial operands, from accumulators that are
    # adversarial too: subnormal and overflowing products, both edges of
    # TwoProduct's safe range, sums that overflow; from a point, as the LP
    # residual starts each column at c_j, and from a box
    values = _adversarial_floats()
    starts = values[len(values) // 3:] + values[:len(values) // 3]
    for m in values:
        for y, start in zip(values, starts):
            _check_add([m], [y], start, start)
            _check_add([m], [y], -abs(start), abs(start))
    # infinite and NaN factors and accumulators
    for special in _NON_FINITE:
        for v in values[::7]:
            _check_add([special, v], [v, 1.0])
            _check_add([v, 1.0], [1.0, special])
            if special == special:
                _check_add([v], [1.0], min(special, 0.0), max(special, 0.0))


def test_product_sum_kernels_accumulate_as_scalar_kernels_do():
    # many rows on one residual column: a step may meet an earlier step's
    # overflow
    rng = random.Random(1804)
    values = _adversarial_floats() + _NON_FINITE
    for trial in range(300):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        pick = (lambda: rng.choice(values)) if trial % 2 else (lambda: rng.uniform(-4, 4))
        start = [pick() for _ in range(n)]
        start = [v if v == v else 0.0 for v in start]
        mult = [rng.choice((0.0, pick())) for _ in range(m)]
        rows = [[rng.choice((0.0, pick(), pick())) for _ in range(n)] for _ in range(m)]
        _check_columns(start, mult, rows)
        _check_add(mult, [pick() for _ in range(m)])


_sum_operands = st.one_of(_kernel_operands, st.sampled_from(_NON_FINITE),
                          st.just(0.0), st.just(-0.0))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(_sum_operands, st.lists(_sum_operands, min_size=3, max_size=3)),
                max_size=4),
       st.lists(_kernel_operands, min_size=3, max_size=3))
def test_product_sum_kernels_match_scalar_kernels(rows, start):
    mult = [m for m, _ in rows]
    _check_columns(start, mult, [row for _, row in rows])
    _check_add(mult, [row[0] for _, row in rows], min(start[:2]), max(start[:2]))


@pytest.mark.parametrize("bad", [I(-math.inf, 1.0), I(0.0, math.inf),
                                 I(math.inf, math.inf), I(-math.inf, math.inf)])
def test_operations_reject_an_infinite_endpoint(bad):
    ok = I(1.0, 2.0)
    calls = [lambda: iv.add(bad, ok), lambda: iv.add(ok, bad),
             lambda: iv.sub(bad, ok), lambda: iv.sub(ok, bad),
             lambda: iv.mul(bad, ok), lambda: iv.mul(ok, bad),
             lambda: iv.div(bad, ok), lambda: iv.div(ok, bad),
             lambda: iv.pow_int(bad, 2), lambda: iv.pow_int(bad, 3),
             lambda: iv.pow_int(bad, -1),
             lambda: iv.sqrt_interval(bad), lambda: iv.atan_interval(bad)]
    for call in calls:
        with pytest.raises(NonFiniteOperand, match="non-finite interval"):
            call()
    # each operation raises alike on plain tuples and on Intervals, on
    # either operand
    for fn in _BINARY_OPERATIONS:
        _assert_operation_takes_either_pair(fn, bad, ok)
        _assert_operation_takes_either_pair(fn, ok, bad)
    for fn in _UNARY_OPERATIONS:
        _assert_operation_takes_either_pair(fn, bad)
