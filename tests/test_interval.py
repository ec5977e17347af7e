import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigorkit import interval as iv
from rigorkit.errors import DivisionByZeroInterval, DomainError, NonFiniteOperand, ParseError
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
    s = iv.add(iv.from_decimal_string("0.1"), iv.from_decimal_string("0.2"))
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
    r = iv.atan_interval(I(1, 1))
    assert r.lo <= math.pi / 4 <= r.hi
    assert r.hi - r.lo <= 4 * math.ulp(math.pi / 4)
    r0 = iv.atan_interval(I(0, 0))
    assert r0.lo <= 0.0 <= r0.hi and r0.hi - r0.lo <= 2 * math.ulp(1.0)
    rs = iv.atan_interval(I(-5, 5))
    assert rs.lo == -rs.hi


def test_atan_endpoint_ordering_against_high_precision():
    from oracles import mp_atan
    import random
    rng = random.Random(7)
    for _ in range(300):
        lo = rng.uniform(-50, 50)
        hi = lo + abs(rng.gauss(0, 5))
        r = iv.atan_interval(I(lo, hi))
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
            r = iv.atan_interval(I.point(x))
            assert mpmath.mpf(r.lo) <= exact <= mpmath.mpf(r.hi), x


def test_sqrt_examples():
    r = iv.sqrt_interval(I(4, 4))
    assert r == I(2, 2)
    from oracles import mp_sqrt
    r8 = iv.sqrt_interval(I(8, 8))
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
        assert enc.is_point or iv.next_up(enc.lo) == enc.hi


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
    assert enc.is_point or iv.next_up(enc.lo) == enc.hi


def _exact_decimal(s):
    """The exact path's float and error sign for s, or ParseError."""
    try:
        f, num, den = iv._round_decimal(s)
    except ParseError:
        return ParseError
    err = Fraction(num, den) - Fraction(f)
    return f.hex(), (err > 0) - (err < 0)


def _read_decimal(s):
    """decimal_to_nearest_float and from_decimal_string on s, as the float
    and the sign of the error that the enclosure records, or ParseError."""
    try:
        f = iv.decimal_to_nearest_float(s)
        enc = iv.from_decimal_string(s)
    except ParseError:
        return ParseError
    assert f in (enc.lo, enc.hi)
    sign = 0 if enc.is_point else (1 if enc.lo == f else -1)
    assert sign == 0 or iv.next_up(enc.lo) == enc.hi
    return (enc.lo if sign >= 0 else enc.hi).hex(), sign


# (text, takes the short path): signs, empty parts, non-ASCII digits and
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


@pytest.mark.parametrize("s, short", DECIMAL_EDGES)
def test_short_decimal_path_agrees_with_exact_path_on_edges(s, short):
    assert (iv._short_decimal(s) is not None) == short
    assert _read_decimal(s) == _exact_decimal(s)
    assert _whole_list([s, "0.5"]) == _one_at_a_time([s, "0.5"])


def test_zero_numerals_read_as_positive_zero():
    for s in ("-0", "-0.0", "-0.000", "+0", "0.0"):
        assert iv.decimal_to_nearest_float(s).hex() == "0x0.0p+0"
        enc = iv.from_decimal_string(s)
        assert enc.lo.hex() == enc.hi.hex() == "0x0.0p+0"


@settings(max_examples=500)
@given(st.from_regex(r"\A[+-]?0{0,3}[0-9]{1,17}(\.[0-9]{0,24})?\Z"))
def test_short_decimal_path_agrees_with_exact_path(s):
    assert _read_decimal(s) == _exact_decimal(s)


def _one_at_a_time(tokens):
    try:
        return [iv.decimal_to_nearest_float(t).hex() for t in tokens]
    except ParseError:
        return ParseError


def _whole_list(tokens):
    try:
        return [f.hex() for f in iv._nearest_floats(tokens)]
    except ParseError:
        return ParseError


@settings(max_examples=300)
@given(st.lists(st.one_of(
    st.from_regex(r"\A[+-]?0{0,3}[0-9]{1,17}(\.[0-9]{0,24})?\Z"),
    st.sampled_from([s for s, _ in DECIMAL_EDGES] + ["1e-5", "-2.5E3", "0." + "0" * 30 + "1",
                                                    "1" * 400, "12.5.", "1-2"]))))
def test_decimal_list_agrees_with_one_at_a_time(tokens):
    assert _whole_list(tokens) == _one_at_a_time(tokens)


@given(st.integers(min_value=-(2**53) + 1, max_value=2**53 - 1))
def test_integer_decimals_exact(k):
    e = iv.from_decimal_string(str(k))
    assert e.lo == e.hi == float(k)


@settings(max_examples=200)
@given(interval_with_member(), interval_with_member())
def test_containment_binary_ops(am, bm):
    a, x = am
    b, y = bm
    assert iv.add(a, b).contains(x + y)
    assert iv.sub(a, b).contains(x - y)
    assert iv.mul(a, b).contains(x * y)
    if not b.contains_zero():
        assert iv.div(a, b).contains(x / y)


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
    for op in (iv.add, iv.sub, iv.mul):
        assert op(a, b).contains_interval(op(a_small, b_small))
    if not b.contains_zero():
        assert iv.div(a, b).contains_interval(iv.div(a_small, b_small))


def test_pow_int():
    assert iv.pow_int(I(-2, 2), 2) == I(0, 4)
    assert iv.pow_int(I(-2, 3), 3) == I(-8, 27)
    assert iv.pow_int(I(2, 3), 0) == I(1, 1)
    inv = iv.pow_int(I(2, 4), -1)
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
    with pytest.raises(ValueError):
        I(2, 1)
    with pytest.raises(NonFiniteOperand):
        I(math.nan, 1)
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
        assert back.contains_interval(box)


def test_operator_sugar():
    assert (I(1, 2) + I(3, 4)) == I(4, 6)
    assert (I(1, 2) * 2) == I(2, 4)
    assert (-I(1, 2)) == I(-2, -1)
    assert (1 / I(2, 4)) == I(0.25, 0.5)


def test_directed_rounding_on_adversarial_bit_patterns():
    # random 64-bit patterns: subnormals, extreme exponents, signed zeros
    import random
    import struct
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


def test_kernels_match_reference_on_adversarial_operands():
    values = _adversarial_floats()
    for x in values:
        for y in values:
            _assert_kernels_match_reference(x, y)


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
