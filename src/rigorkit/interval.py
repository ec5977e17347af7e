"""Directed-rounding interval arithmetic on binary64 endpoints.

Every rigorous claim in the toolkit bottoms out here: each operation
returns an interval that provably contains the exact real-arithmetic
image of its operand sets.

Outward rounding is implemented by computing endpoints in the default
round-to-nearest mode and then nudging them outward *only when the
computed endpoint is provably inexact*.  The sign of the rounding error is
decided exactly in float arithmetic: by TwoSum for addition, and by
Dekker's TwoProduct for multiplication, division (the residual x - q*y)
and square root (x - s*s).  Operands outside TwoProduct's safe range
(factors near 2**995, products near underflow) fall back to exact
integer-ratio comparisons.  Exactly representable results keep exact
endpoints ([1,2]+[3,4] is [4,6], not a widened box).  No hardware rounding
mode is ever switched: all operations are pure functions and freely
shareable between threads.

One rule: operations return pairs.  Each operation (`add` ...
`atan_interval`) takes (lo, hi) operands, a plain tuple or an Interval,
and returns a plain (lo, hi) tuple, so a loop over many operations (the
expression plans, the Taylor sum) builds no Interval per step.  `Interval`
is the checked pair, an immutable (lo, hi) tuple, that stored values hold:
parsed input, records and reports.  A caller wraps a result once, with
`Interval(*r)`, where it stores it.

Infinite endpoints are permitted for constraint-bound bookkeeping only
(a distance cap of +inf); arithmetic on non-finite intervals raises
NonFiniteOperand.  An operation that cannot enclose its result raises an
IntervalError (NonFiniteOperand, DivisionByZeroInterval or DomainError)
and nothing else; the callers that decide verdicts catch that one class.
"""

from __future__ import annotations

import math
import re
import sys
from collections import namedtuple
from typing import Sequence

from .errors import (
    DivisionByZeroInterval,
    DomainError,
    NonFiniteOperand,
    ParseError,
)

__all__ = [
    "Interval",
    "add",
    "sub",
    "mul",
    "div",
    "neg",
    "pow_int",
    "sqrt_interval",
    "atan_interval",
    "add_products",
    "from_decimal_string",
    "parse_interval_literal",
    "format_interval_literal",
    "next_up",
    "next_down",
]

# TwoSum, TwoProduct and the decimal reader assume binary64 rounded to nearest;
# CPython's float_repr_style is "short" exactly where that holds.
if sys.float_repr_style != "short":
    raise ImportError("rigorkit.interval needs IEEE 754 binary64 arithmetic rounded "
                      "to nearest (sys.float_repr_style == 'short')")

_INF = math.inf

# An interval as the operations take and return it: (lo, hi), a plain
# tuple or an Interval.
Pair = tuple[float, float]


def next_up(x: float) -> float:
    return math.nextafter(x, _INF)


def next_down(x: float) -> float:
    return math.nextafter(x, -_INF)


# The kernels call nextafter directly, saving a Python call per step.
_nextafter = math.nextafter


# ---------------------------------------------------------------------------
# Directed-rounding scalar kernels.
#
# Each computes in round-to-nearest, decides the sign of the rounding
# error exactly, and nudges one step outward only if needed.
# ---------------------------------------------------------------------------

def _add_down(x: float, y: float) -> float:
    s = x + y
    if math.isinf(s):
        # Positive overflow: largest finite float is a valid lower bound.
        return next_down(s) if s > 0 else s
    bb = s - x
    err = (x - (s - bb)) + (y - bb)
    return _nextafter(s, -_INF) if err < 0.0 else s


def _add_up(x: float, y: float) -> float:
    s = x + y
    if math.isinf(s):
        return next_up(s) if s < 0 else s
    bb = s - x
    err = (x - (s - bb)) + (y - bb)
    return _nextafter(s, _INF) if err > 0.0 else s


# Multiplication, division and square root decide the sign of their
# rounding error with Dekker's TwoProduct: Veltkamp's split cuts each factor
# into two halves of at most 26 bits whose partial products are exact, so
# x*y = p + err exactly, with p = fl(x*y) and err a float (Dekker, Numer.
# Math. 18, 1971; Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005).
# That holds while no step overflows (factors below _SPLIT_MAX, |p| below
# _PROD_MAX) and no partial product underflows (|p| at least _PROD_MIN, so
# that ulp(x)*ulp(y) >= 2**-1074).  Outside that range the sign comes from
# exact integer ratios.  Python 3.11 has no math.fma to do this in one step.
# _mul_down and _mul_up, the most frequent kernels, inline the split: a
# function call would cost about a fifth of the kernel.

_SPLIT = 134217729.0      # 2**27 + 1
_SPLIT_MAX = 2.0 ** 995   # |x| below this: _SPLIT * x does not overflow
_PROD_MIN = 2.0 ** -968
_PROD_MAX = 2.0 ** 1023
# x in [_RESIDUAL_MIN, _RESIDUAL_MAX) keeps fl(q*y), within a factor two of
# x in _residual_sign, in [_PROD_MIN, _PROD_MAX).
_RESIDUAL_MIN = 2.0 ** -967
_RESIDUAL_MAX = 2.0 ** 1022


def _exact_product_sign(x: float, y: float, t: float) -> int:
    # sign of exact(x*y) - t, all arguments finite
    nx, dx = x.as_integer_ratio()
    ny, dy = y.as_integer_ratio()
    nt, dt = t.as_integer_ratio()
    lhs = nx * ny * dt
    rhs = nt * dx * dy
    return (lhs > rhs) - (lhs < rhs)


def _mul_down(x: float, y: float) -> float:
    p = x * y
    if (-_SPLIT_MAX < x < _SPLIT_MAX and -_SPLIT_MAX < y < _SPLIT_MAX
            and _PROD_MIN <= abs(p) < _PROD_MAX):
        c = _SPLIT * x
        xh = c - (c - x)
        xl = x - xh
        c = _SPLIT * y
        yh = c - (c - y)
        yl = y - yh
        if ((xh * yh - p) + xh * yl + xl * yh) + xl * yl < 0.0:
            return _nextafter(p, -_INF)
        return p
    if math.isinf(p):
        return next_down(p) if p > 0 else p
    if x == 0.0 or y == 0.0:
        return p
    return next_down(p) if _exact_product_sign(x, y, p) < 0 else p


def _mul_up(x: float, y: float) -> float:
    p = x * y
    if (-_SPLIT_MAX < x < _SPLIT_MAX and -_SPLIT_MAX < y < _SPLIT_MAX
            and _PROD_MIN <= abs(p) < _PROD_MAX):
        c = _SPLIT * x
        xh = c - (c - x)
        xl = x - xh
        c = _SPLIT * y
        yh = c - (c - y)
        yl = y - yh
        if ((xh * yh - p) + xh * yl + xl * yh) + xl * yl > 0.0:
            return _nextafter(p, _INF)
        return p
    if math.isinf(p):
        return next_up(p) if p < 0 else p
    if x == 0.0 or y == 0.0:
        return p
    return next_up(p) if _exact_product_sign(x, y, p) > 0 else p


def _residual_sign(x: float, q: float, y: float) -> int:
    """Sign of exact(x - q*y) for x != 0, where q = x/y or q = y = sqrt(x),
    rounded to nearest.  Then q*y is within a factor two of x (a subnormal
    q is the multiple of 2**-1074 nearest x/y, so q*y is between 2x/3 and
    2x, or q = 0), so x - fl(q*y) is exact (Sterbenz).  With
    q*y = p + e by TwoProduct, x - q*y has the sign of (x - p) - e."""
    if (_RESIDUAL_MIN <= abs(x) < _RESIDUAL_MAX and -_SPLIT_MAX < q < _SPLIT_MAX
            and -_SPLIT_MAX < y < _SPLIT_MAX):
        p = q * y
        c = _SPLIT * q
        qh = c - (c - q)
        ql = q - qh
        c = _SPLIT * y
        yh = c - (c - y)
        yl = y - yh
        e = ((qh * yh - p) + qh * yl + ql * yh) + ql * yl
        r = x - p
        return (r > e) - (r < e)
    return -_exact_product_sign(q, y, x)


def _div_err_sign(x: float, y: float, q: float) -> int:
    # sign of exact(x/y) - q for q = x/y, y != 0, all finite: the sign of
    # x - q*y, times the sign of y
    if x == 0.0:
        return 0
    s = _residual_sign(x, q, y)
    return s if y > 0.0 else -s


def _div_down(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return next_down(q) if q > 0 else q
    return _nextafter(q, -_INF) if _div_err_sign(x, y, q) < 0 else q


def _div_up(x: float, y: float) -> float:
    q = x / y
    if math.isinf(q):
        return next_up(q) if q < 0 else q
    return _nextafter(q, _INF) if _div_err_sign(x, y, q) > 0 else q


def _sqrt_err_sign(x: float, s: float) -> int:
    # sign of sqrt(x) - s for x >= 0, s = sqrt(x): the sign of x - s*s
    return _residual_sign(x, s, s) if x != 0.0 else 0


def _sqrt_down(x: float) -> float:
    s = math.sqrt(x)
    return _nextafter(s, -_INF) if _sqrt_err_sign(x, s) < 0 else s


def _sqrt_up(x: float) -> float:
    s = math.sqrt(x)
    return _nextafter(s, _INF) if _sqrt_err_sign(x, s) > 0 else s


# atan clamps: the result must stay inside (-pi/2, pi/2) widened outward.
_HALF_PI_UP = next_up(math.pi / 2)


def _atan_down(x: float) -> float:
    # math.atan is within 1 ulp on every libm we target; widening the
    # endpoint by two steps makes the enclosure unconditional.
    t = next_down(next_down(math.atan(x)))
    return max(t, -_HALF_PI_UP)


def _atan_up(x: float) -> float:
    t = next_up(next_up(math.atan(x)))
    return min(t, _HALF_PI_UP)


# ---------------------------------------------------------------------------
# The Interval type
# ---------------------------------------------------------------------------

class Interval(namedtuple("_Endpoints", ("lo", "hi"))):
    """Closed interval [lo, hi] of binary64 values, lo <= hi, never NaN:
    the immutable pair (lo, hi), which compares, hashes, orders and unpacks
    as that tuple does."""

    __slots__ = ()

    def __new__(cls, lo: float, hi: float) -> "Interval":
        if not isinstance(lo, float):
            lo = float(lo)
        if not isinstance(hi, float):
            hi = float(hi)
        if math.isnan(lo) or math.isnan(hi):
            raise NonFiniteOperand("interval endpoints may not be NaN")
        if lo > hi:
            raise ValueError(f"interval lower endpoint {lo!r} exceeds upper {hi!r}")
        return _new(cls, (lo, hi))

    # -- constructors --------------------------------------------------

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

    # namedtuple's own versions of these would skip __new__'s checks
    @classmethod
    def _make(cls, iterable) -> "Interval":
        return cls(*iterable)

    def _replace(self, **fields) -> "Interval":
        return type(self)(fields.pop("lo", self.lo), fields.pop("hi", self.hi), **fields)

    # -- queries -------------------------------------------------------

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        if self.lo == self.hi:
            return self.lo
        m = 0.5 * (self.lo + self.hi)
        if math.isinf(m):
            m = 0.5 * self.lo + 0.5 * self.hi
        # Guard against rounding drifting outside the interval.
        return min(max(m, self.lo), self.hi)

    @property
    def mag(self) -> float:
        """max |x| over the interval."""
        return max(abs(self.lo), abs(self.hi))

    @property
    def mig(self) -> float:
        """min |x| over the interval."""
        if self.lo <= 0.0 <= self.hi:
            return 0.0
        return min(abs(self.lo), abs(self.hi))

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def contains_zero(self) -> bool:
        return self.lo <= 0.0 <= self.hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"


_new = tuple.__new__


def _make(lo: float, hi: float) -> Interval:
    """Interval from float endpoints already known to satisfy its invariant
    (no NaN, lo <= hi), without __new__'s checks."""
    return _new(Interval, (lo, hi))


# Each operation but neg tests its operands' endpoints inline: an interval is
# finite exactly when -inf < lo and hi < inf, since lo <= hi.  On failure it
# raises the error _non_finite builds for the first non-finite operand.

def _non_finite(*pairs: Pair) -> NonFiniteOperand:
    lo, hi = next((lo, hi) for lo, hi in pairs
                  if not (math.isfinite(lo) and math.isfinite(hi)))
    return NonFiniteOperand(
        f"arithmetic on non-finite interval [{lo}, {hi}]; "
        "infinite endpoints are bookkeeping-only"
    )


# ---------------------------------------------------------------------------
# The operations: the one home of the case analysis and the rounding
# ---------------------------------------------------------------------------

def add(a: Pair, b: Pair) -> Pair:
    al, ah = a
    bl, bh = b
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    return _add_down(al, bl), _add_up(ah, bh)


def sub(a: Pair, b: Pair) -> Pair:
    al, ah = a
    bl, bh = b
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    return _add_down(al, -bh), _add_up(ah, -bl)


def neg(a: Pair) -> Pair:
    # Exact; permitted even on semi-infinite bookkeeping pairs.
    lo, hi = a
    return -hi, -lo


def mul(a: Pair, b: Pair) -> Pair:
    al, ah = a
    bl, bh = b
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    # Sign-case analysis keeps the number of directed roundings at two
    # except in the mixed*mixed case.
    if al >= 0.0:
        if bl >= 0.0:
            return _mul_down(al, bl), _mul_up(ah, bh)
        if bh <= 0.0:
            return _mul_down(ah, bl), _mul_up(al, bh)
        return _mul_down(ah, bl), _mul_up(ah, bh)
    if ah <= 0.0:
        if bl >= 0.0:
            return _mul_down(al, bh), _mul_up(ah, bl)
        if bh <= 0.0:
            return _mul_down(ah, bh), _mul_up(al, bl)
        return _mul_down(al, bh), _mul_up(al, bl)
    if bl >= 0.0:
        return _mul_down(al, bh), _mul_up(ah, bh)
    if bh <= 0.0:
        return _mul_down(ah, bl), _mul_up(al, bl)
    return (min(_mul_down(al, bh), _mul_down(ah, bl)),
            max(_mul_up(al, bl), _mul_up(ah, bh)))


def div(a: Pair, b: Pair) -> Pair:
    al, ah = a
    bl, bh = b
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    if bl <= 0.0 <= bh:
        raise DivisionByZeroInterval(
            f"denominator [{bl}, {bh}] contains zero"
        )
    if bl > 0.0:
        if al >= 0.0:
            return _div_down(al, bh), _div_up(ah, bl)
        if ah <= 0.0:
            return _div_down(al, bl), _div_up(ah, bh)
        return _div_down(al, bl), _div_up(ah, bl)
    # bh < 0
    if al >= 0.0:
        return _div_down(ah, bh), _div_up(al, bl)
    if ah <= 0.0:
        return _div_down(ah, bl), _div_up(al, bh)
    return _div_down(ah, bh), _div_up(al, bh)


def _pow_nonneg(x: float, k: int, times) -> float:
    # x >= 0, k >= 1: square-and-multiply, every step rounded by times
    # (_mul_down or _mul_up).
    acc = None
    base = x
    while k:
        if k & 1:
            acc = base if acc is None else times(acc, base)
        k >>= 1
        if k:
            square = times(base, base)
            if square == base:
                # A fixed point of rounded squaring (0 or 1; rounding up, the
                # least subnormal, 1 - 2**-53 or inf; rounding down, the
                # largest float): every later base equals it, and products
                # by it after the first change nothing.
                return base if acc is None else times(acc, base)
            base = square
    return acc


_ONE = (1.0, 1.0)


def pow_int(a: Pair, k: int) -> Pair:
    """a**k with integer exponent; handles even/odd monotonicity so the
    dependency problem of repeated multiplication is avoided."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return _ONE
    if k < 0:
        return div(_ONE, pow_int(a, -k))
    al, ah = a
    if not (-_INF < al and ah < _INF):
        raise _non_finite(a)
    if k == 1:
        return al, ah
    if k % 2 == 1:
        return (-_pow_nonneg(-al, k, _mul_up) if al < 0 else _pow_nonneg(al, k, _mul_down),
                -_pow_nonneg(-ah, k, _mul_down) if ah < 0 else _pow_nonneg(ah, k, _mul_up))
    mig = 0.0 if al <= 0.0 <= ah else min(abs(al), abs(ah))
    mag = max(abs(al), abs(ah))
    if k == 2:
        return _mul_down(mig, mig), _mul_up(mag, mag)
    return _pow_nonneg(mig, k, _mul_down), _pow_nonneg(mag, k, _mul_up)


def sqrt_interval(a: Pair) -> Pair:
    """sqrt enclosure.  A negative lower endpoint is clamped to zero: the
    result encloses sqrt over the nonnegative part of a only, so callers
    for whom a negative argument means an undefined value must reject it
    first."""
    lo, hi = a
    if not (-_INF < lo and hi < _INF):
        raise _non_finite(a)
    if hi < 0.0:
        raise DomainError(f"sqrt of certainly-negative interval [{lo}, {hi}]")
    return (0.0 if lo < 0.0 else _sqrt_down(lo)), _sqrt_up(hi)


def atan_interval(a: Pair) -> Pair:
    """Enclosure of arctangent; monotone, so endpoint evaluation suffices."""
    lo, hi = a
    if not (-_INF < lo and hi < _INF):
        raise _non_finite(a)
    return _atan_down(lo), _atan_up(hi)


def add_products(xs: Sequence[float], ys: Sequence[float],
                 lo: float = 0.0, hi: float = 0.0) -> tuple[float, float]:
    """[lo, hi] + sum x_i * y_i, accumulated in order on endpoint floats:
    the one dot-product kernel on endpoint lists.  Each step rounds as
    add([lo, hi], mul(point(x_i), point(y_i))) rounds, fused: one
    TwoProduct error term gives both rounded products, and the two TwoSums
    run inline.  A step on a factor outside TwoProduct's safe range (a NaN
    or infinite one included), or whose sum is not finite, is replayed by
    add and mul on Interval operands, which raise NonFiniteOperand exactly
    where those operations would, with a NaN's own message."""
    for x, y in zip(xs, ys):
        if -_SPLIT_MAX < x < _SPLIT_MAX and -_SPLIT_MAX < y < _SPLIT_MAX:
            p = x * y
            if _PROD_MIN <= abs(p) < _PROD_MAX:
                c = _SPLIT * x
                xh = c - (c - x)
                xl = x - xh
                c = _SPLIT * y
                yh = c - (c - y)
                yl = y - yh
                e = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
                pl = _nextafter(p, -_INF) if e < 0.0 else p
                ph = _nextafter(p, _INF) if e > 0.0 else p
            elif x == 0.0 or y == 0.0:
                pl = ph = p  # exact
            else:  # an underflow or an overflow
                pl, ph = _mul_down(x, y), _mul_up(x, y)
            s, t = lo + pl, hi + ph
            if -_INF < s < _INF and -_INF < t < _INF:
                bb = s - lo
                if (lo - (s - bb)) + (pl - bb) < 0.0:
                    s = _nextafter(s, -_INF)
                bb = t - hi
                if (hi - (t - bb)) + (ph - bb) > 0.0:
                    t = _nextafter(t, _INF)
                lo, hi = s, t
                continue
        lo, hi = add(Interval(lo, hi), mul(Interval.point(x), Interval.point(y)))
    return lo, hi


# ---------------------------------------------------------------------------
# Decimal text conversion
# ---------------------------------------------------------------------------

_DECIMAL_RE = re.compile(r"^([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?$")

# Correct rounding needs at most 768 significant digits (binary64 values and
# the midpoints between them have no more); the digits past these are
# replaced by one sticky digit that is nonzero when any of them is.
_KEPT_DIGITS = 800


def _split_decimal(s: str) -> tuple[str, str, int]:
    """A decimal numeral as (sign, digits, k), its value being
    int(sign + digits) * 10**k: digits are ASCII with no leading zero ("" for
    a zero numeral), cut to _KEPT_DIGITS and one sticky digit.  k is clamped
    to +-10**18, past which the exponent's sign alone decides the magnitude
    of any numeral short enough to hold in memory (and int() refuses strings
    of more than 4300 digits).  Other text is a ParseError."""
    t = s.strip()
    if not t.isascii():
        # \d, like float() and int(), accepts every Unicode decimal digit
        t = "".join(str(int(c)) if c.isdecimal() else c for c in t)
    m = _DECIMAL_RE.match(t)
    if not m:
        raise ParseError(f"invalid decimal numeral {_excerpt(s)!r}")
    sign, whole, frac, exp = m.groups("")
    digits = (whole + frac).lstrip("0")
    k = -len(frac)
    if exp:
        e = exp.lstrip("+-").lstrip("0")
        k += (10**18 if len(e) > 18 else int(e or "0")) * (-1 if exp[0] == "-" else 1)
    if len(digits) > _KEPT_DIGITS:
        sticky = "1" if digits[_KEPT_DIGITS:].strip("0") else "0"
        k += len(digits) - _KEPT_DIGITS - 1
        digits = digits[:_KEPT_DIGITS] + sticky
    return sign, digits, k


def _read_decimal(s: str) -> tuple[float, str, str, int]:
    """(f, sign, digits, k): the split of the numeral s and f, its nearest
    binary64 value, ties to even, from float(): CPython's correctly rounded
    converter (Gay's algorithm in its dtoa.c, never the C library's strtod).
    A zero numeral reads as +0.0, an underflow keeps its sign, and an
    overflow is a ParseError."""
    sign, digits, k = _split_decimal(s)
    f = float(f"{sign}{digits}e{k}") if digits else 0.0
    if -_INF < f < _INF:
        return f, sign, digits, k
    raise ParseError(f"decimal numeral {_excerpt(s)!r} overflows binary64")


_NOT_NUMERAL = str.maketrans("", "", "+-.0123456789eE")


def _nearest_floats(tokens: list[str]) -> list[float]:
    """decimal_to_nearest_float of each token, as a column.  Over signs,
    digits, dots and exponent letters float() accepts what the reader
    accepts, so such a column is read by float() in one pass and only its
    zeros and infinities again one token at a time.  A column with other
    characters, or one float() rejects, is read one token at a time."""
    if "".join(tokens).translate(_NOT_NUMERAL):
        return list(map(decimal_to_nearest_float, tokens))
    try:
        out = list(map(float, tokens))
    except ValueError:
        return list(map(decimal_to_nearest_float, tokens))
    # all() finds a zero; the sum is not finite when an entry is not (or
    # when it overflows, which costs only this pass)
    if all(out) and math.isfinite(sum(out)):
        return out
    return [f if f and -_INF < f < _INF else decimal_to_nearest_float(t)
            for f, t in zip(out, tokens)]


def _excerpt(s: str) -> str:
    return s if len(s) <= 60 else f"{s[:40]}...({len(s)} characters)"


def from_decimal_string(s: str) -> Interval:
    """Tight enclosure (width <= 1 ulp, exact when representable) of the
    exact value of a signed decimal numeral: its nearest binary64 value f,
    widened by one step toward the value when the value is not f."""
    f, sign, digits, k = _read_decimal(s)
    if f:
        # sign of int(sign + digits) * 10**k - n/d, by one integer comparison
        n, d = f.as_integer_ratio()
        v = int(sign + digits)
        err = v * 10**k * d - n if k >= 0 else v * d - n * 10**-k
    else:
        # a zero numeral is exact; an underflow lies on its sign's side of f
        err = 0 if not digits else -1 if sign == "-" else 1
    return _make(_nextafter(f, -_INF) if err < 0 else f, _nextafter(f, _INF) if err > 0 else f)


def decimal_to_nearest_float(s: str) -> float:
    """Correctly rounded (to nearest, ties to even) binary64 value of a
    decimal numeral; a zero numeral reads as +0.0."""
    return _read_decimal(s)[0]


def parse_interval_literal(s: str) -> Interval:
    """Parse the toolkit's textual interval form.

    "lo..hi" is an explicit interval; a bare numeral is a tight enclosure
    of that decimal; "inf"/"-inf" endpoints are allowed for bookkeeping.
    Each endpoint is rounded outward, so the literal's exact value stays inside.
    """
    lo_text, dots, hi_text = s.strip().partition("..")
    lo = _parse_endpoint(lo_text)
    hi = _parse_endpoint(hi_text) if dots else lo
    if lo.lo > hi.hi:
        raise ParseError(f"interval literal {s!r} has lo > hi")
    return Interval(lo.lo, hi.hi)


def _parse_endpoint(text: str) -> Interval:
    t = text.strip()
    if t in ("inf", "+inf", "-inf"):
        return Interval.point(-_INF if t == "-inf" else _INF)
    return from_decimal_string(t)


def format_interval_literal(a: Interval) -> str:
    """Literal whose outward re-parse reproduces the interval exactly:
    endpoints are written as value-exact decimals (repr when its decimal
    value already equals the float, else the finite exact expansion)."""

    def fmt(x: float) -> str:
        if x == _INF:
            return "inf"
        if x == -_INF:
            return "-inf"
        from decimal import Decimal   # loaded on first use, not by `import rigorkit.cli`
        r, exact = repr(x), Decimal(x)
        return r if Decimal(r) == exact else format(exact, "f")

    if a.lo == a.hi and a.is_finite:
        return fmt(a.lo)
    return f"{fmt(a.lo)}..{fmt(a.hi)}"
