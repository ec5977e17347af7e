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

Infinite endpoints are permitted for constraint-bound bookkeeping only
(a distance cap of +inf); arithmetic on non-finite intervals raises
NonFiniteOperand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter, truediv
from typing import Optional

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
    "from_decimal_string",
    "parse_interval_literal",
    "format_interval_literal",
    "next_up",
    "next_down",
]

_INF = math.inf


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

@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] of binary64 values, lo <= hi, never NaN."""

    lo: float
    hi: float

    def __post_init__(self):
        lo = self.lo
        hi = self.hi
        if not isinstance(lo, float):
            lo = float(lo)
            object.__setattr__(self, "lo", lo)
        if not isinstance(hi, float):
            hi = float(hi)
            object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise NonFiniteOperand("interval endpoints may not be NaN")
        if lo > hi:
            raise ValueError(f"interval lower endpoint {lo!r} exceeds upper {hi!r}")

    # -- constructors --------------------------------------------------

    @classmethod
    def point(cls, v: float) -> "Interval":
        return cls(v, v)

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

    # -- operators (delegate to the module-level ops) -------------------

    def __add__(self, other):
        return add(self, _coerce(other))

    def __radd__(self, other):
        return add(_coerce(other), self)

    def __sub__(self, other):
        return sub(self, _coerce(other))

    def __rsub__(self, other):
        return sub(_coerce(other), self)

    def __mul__(self, other):
        return mul(self, _coerce(other))

    def __rmul__(self, other):
        return mul(_coerce(other), self)

    def __truediv__(self, other):
        return div(self, _coerce(other))

    def __rtruediv__(self, other):
        return div(_coerce(other), self)

    def __neg__(self):
        return neg(self)


def _coerce(v) -> Interval:
    if isinstance(v, Interval):
        return v
    if isinstance(v, (int, float)):
        return Interval(float(v), float(v))
    raise TypeError(f"cannot use {type(v).__name__} as an interval operand")


_new = object.__new__
_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def _make(lo: float, hi: float) -> Interval:
    """Interval from float endpoints already known to satisfy its invariant
    (no NaN, lo <= hi), without __post_init__'s checks: every kernel result
    on finite operands does."""
    r = _new(Interval)
    _set_lo(r, lo)
    _set_hi(r, hi)
    return r


# Each operation tests its operands' endpoints inline: an interval is finite
# exactly when -inf < lo and hi < inf, since lo <= hi.  On failure it raises
# the error _non_finite builds for the first non-finite operand.

def _non_finite(*intervals: Interval) -> NonFiniteOperand:
    a = next(a for a in intervals if not a.is_finite)
    return NonFiniteOperand(
        f"arithmetic on non-finite interval [{a.lo}, {a.hi}]; "
        "infinite endpoints are bookkeeping-only"
    )


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------

def add(a: Interval, b: Interval) -> Interval:
    if not (-_INF < a.lo and a.hi < _INF and -_INF < b.lo and b.hi < _INF):
        raise _non_finite(a, b)
    return _make(_add_down(a.lo, b.lo), _add_up(a.hi, b.hi))


def sub(a: Interval, b: Interval) -> Interval:
    if not (-_INF < a.lo and a.hi < _INF and -_INF < b.lo and b.hi < _INF):
        raise _non_finite(a, b)
    return _make(_add_down(a.lo, -b.hi), _add_up(a.hi, -b.lo))


def neg(a: Interval) -> Interval:
    # Exact; permitted even on semi-infinite bookkeeping intervals.
    return _make(-a.hi, -a.lo)


def mul(a: Interval, b: Interval) -> Interval:
    al, ah, bl, bh = a.lo, a.hi, b.lo, b.hi
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    # Sign-case analysis keeps the number of directed roundings at two
    # except in the mixed*mixed case.
    if al >= 0.0:
        if bl >= 0.0:
            return _make(_mul_down(al, bl), _mul_up(ah, bh))
        if bh <= 0.0:
            return _make(_mul_down(ah, bl), _mul_up(al, bh))
        return _make(_mul_down(ah, bl), _mul_up(ah, bh))
    if ah <= 0.0:
        if bl >= 0.0:
            return _make(_mul_down(al, bh), _mul_up(ah, bl))
        if bh <= 0.0:
            return _make(_mul_down(ah, bh), _mul_up(al, bl))
        return _make(_mul_down(al, bh), _mul_up(al, bl))
    if bl >= 0.0:
        return _make(_mul_down(al, bh), _mul_up(ah, bh))
    if bh <= 0.0:
        return _make(_mul_down(ah, bl), _mul_up(al, bl))
    return _make(
        min(_mul_down(al, bh), _mul_down(ah, bl)),
        max(_mul_up(al, bl), _mul_up(ah, bh)),
    )


def div(a: Interval, b: Interval) -> Interval:
    al, ah, bl, bh = a.lo, a.hi, b.lo, b.hi
    if not (-_INF < al and ah < _INF and -_INF < bl and bh < _INF):
        raise _non_finite(a, b)
    if bl <= 0.0 <= bh:
        raise DivisionByZeroInterval(
            f"denominator [{bl}, {bh}] contains zero"
        )
    if bl > 0.0:
        if al >= 0.0:
            return _make(_div_down(al, bh), _div_up(ah, bl))
        if ah <= 0.0:
            return _make(_div_down(al, bl), _div_up(ah, bh))
        return _make(_div_down(al, bl), _div_up(ah, bl))
    # bh < 0
    if al >= 0.0:
        return _make(_div_down(ah, bh), _div_up(al, bl))
    if ah <= 0.0:
        return _make(_div_down(ah, bl), _div_up(al, bh))
    return _make(_div_down(ah, bh), _div_up(al, bh))


def _pow_nonneg(x: float, k: int, mul) -> float:
    # x >= 0, k >= 1: square-and-multiply, every step rounded by mul
    # (_mul_down or _mul_up).
    acc = None
    base = x
    while k:
        if k & 1:
            acc = base if acc is None else mul(acc, base)
        k >>= 1
        if k:
            square = mul(base, base)
            if square == base:
                # A fixed point of rounded squaring (0 or 1; rounding up, the
                # least subnormal, 1 - 2**-53 or inf; rounding down, the
                # largest float): every later base equals it, and products
                # by it after the first change nothing.
                return base if acc is None else mul(acc, base)
            base = square
    return acc


def pow_int(a: Interval, k: int) -> Interval:
    """a**k with integer exponent; handles even/odd monotonicity so the
    dependency problem of repeated multiplication is avoided."""
    if not isinstance(k, int):
        raise TypeError("exponent must be an integer")
    if k == 0:
        return _make(1.0, 1.0)
    if k < 0:
        return div(_make(1.0, 1.0), pow_int(a, -k))
    if not (-_INF < a.lo and a.hi < _INF):
        raise _non_finite(a)
    if k == 1:
        return a
    if k % 2 == 1:
        lo = -_pow_nonneg(-a.lo, k, _mul_up) if a.lo < 0 else _pow_nonneg(a.lo, k, _mul_down)
        hi = -_pow_nonneg(-a.hi, k, _mul_down) if a.hi < 0 else _pow_nonneg(a.hi, k, _mul_up)
        return _make(lo, hi)
    return _make(_pow_nonneg(a.mig, k, _mul_down), _pow_nonneg(a.mag, k, _mul_up))


def sqrt_interval(a: Interval) -> Interval:
    """sqrt enclosure.  A negative lower endpoint is clamped to zero: the
    result encloses sqrt over the nonnegative part of a only, so callers
    for whom a negative argument means an undefined value must reject it
    first."""
    lo, hi = a.lo, a.hi
    if not (-_INF < lo and hi < _INF):
        raise _non_finite(a)
    if hi < 0.0:
        raise DomainError(f"sqrt of certainly-negative interval [{lo}, {hi}]")
    return _make(0.0 if lo < 0.0 else _sqrt_down(lo), _sqrt_up(hi))


def atan_interval(a: Interval) -> Interval:
    """Enclosure of arctangent; monotone, so endpoint evaluation suffices."""
    if not (-_INF < a.lo and a.hi < _INF):
        raise _non_finite(a)
    return _make(_atan_down(a.lo), _atan_up(a.hi))


# ---------------------------------------------------------------------------
# Decimal text conversion
# ---------------------------------------------------------------------------

_DECIMAL_RE = re.compile(r"^([+-]?)(?=\.?\d)(\d*)(?:\.(\d*))?(?:[eE]([+-]?\d+))?$")


def _decimal_exponent(exp: str) -> int:
    """The exponent field of a decimal numeral ("" reads as 0), clamped to
    +-10**18.  Past that bound the exponent's sign alone decides the
    magnitude of any numeral short enough to hold in memory, and int()
    refuses strings of more than 4300 digits."""
    sign = -1 if exp.startswith("-") else 1
    digits = exp.lstrip("+-").lstrip("0") or "0"
    return sign * (10**18 if len(digits) > 18 else int(digits))


# Correct rounding needs at most 768 significant digits (binary64 values and
# the midpoints between them have no more); the digits past these are
# replaced by one sticky digit that is nonzero when any of them is.
_KEPT_DIGITS = 800


def _round_decimal(s: str) -> tuple[float, int, int]:
    """A decimal numeral rounded to the nearest binary64 value f (ties to
    even) by one exact integer division, with integers num and den > 0
    such that num/den - f has the sign of (exact value - f): num/den is the
    value itself, or a stand-in of the same sign when the value rounds to
    zero from below half the smallest subnormal.  The magnitude is decided
    from the digit count and the exponent before any integer is built, so
    far exponents and long numerals cost no more than short ones."""
    m = _DECIMAL_RE.match(s.strip())
    if not m:
        raise ParseError(f"invalid decimal numeral {_excerpt(s)!r}")
    sign, whole, frac, exp = m.groups(default="")
    body = (whole + frac).lstrip("0")
    if not body:
        return 0.0, 0, 1
    scale = _decimal_exponent(exp) - len(frac)
    # 10**(mag - 1) <= |value| < 10**mag
    mag = scale + len(body)
    if mag > 310:
        raise ParseError(f"decimal numeral {_excerpt(s)!r} overflows binary64")
    if mag < -330:
        # Below half the smallest subnormal: rounds to a signed zero.
        return (-0.0, -1, 1) if sign == "-" else (0.0, 1, 1)
    if len(body) > _KEPT_DIGITS:
        sticky = "1" if body[_KEPT_DIGITS:].strip("0") else "0"
        scale += len(body) - _KEPT_DIGITS - 1
        body = body[:_KEPT_DIGITS] + sticky
    digits = int(sign + body)
    num, den = (digits * 10 ** scale, 1) if scale >= 0 else (digits, 10 ** -scale)
    try:
        return num / den, num, den
    except OverflowError:
        raise ParseError(f"decimal numeral {_excerpt(s)!r} overflows binary64") from None


# Clinger's fast path ("How to read floating point numbers accurately", PLDI
# 1990): a numeral of at most 15 significant digits is an integer N below
# 2**53, exact as a float, and 10**k is exact for k <= 22, so N / 10**k is
# one correctly rounded division.
_POW10 = tuple(10.0 ** k for k in range(23))


def _short_decimal(s: str) -> Optional[tuple[float, float]]:
    """(N, 10**k) as floats, the numeral's value being N / 10**k, when s is
    a plain ASCII numeral [+-]digits[.digits] of at most 15 significant
    digits and k <= 22 fraction digits; None for any other text."""
    body = s[1:] if s[:1] in ("+", "-") else s
    whole, dot, frac = body.partition(".")
    if not (whole.isdigit() and whole.isascii() and len(frac) <= 22
            and (not dot or (frac.isdigit() and frac.isascii()))):
        return None
    digits = (whole + frac).lstrip("0")
    if not digits:
        return 0.0, 1.0  # every zero numeral reads as +0.0
    if len(digits) > 15:
        return None
    n = float(int(digits))
    return (-n if s[0] == "-" else n), _POW10[len(frac)]


_NOT_NUMERAL = str.maketrans("", "", "+-.0123456789")
_after = itemgetter(2)


def _nearest_floats(tokens: list[str]) -> list[float]:
    """decimal_to_nearest_float of each token.  Clinger's fast path runs
    over the whole list at once; the tokens it cannot take (other
    characters than signs, dots and digits, more than 15 significant digits
    or 22 fraction digits) are then read one at a time."""
    slow = set()
    if "".join(tokens).translate(_NOT_NUMERAL):
        slow.update(i for i, rest in enumerate(map(str.translate, tokens, repeat(_NOT_NUMERAL)))
                    if rest)
    plain = [("0" if i in slow else t) for i, t in enumerate(tokens)] if slow else tokens
    try:
        # int() checks that the one dot and the sign are in place
        n = list(map(int, map(str.replace, plain, repeat("."), repeat(""), repeat(1))))
    except ValueError:
        return list(map(decimal_to_nearest_float, tokens))
    k = list(map(len, map(_after, map(str.partition, plain, repeat(".")))))
    if max(k, default=0) > 22 or max(map(abs, n), default=0) >= 10 ** 15:
        slow.update(i for i, (ni, ki) in enumerate(zip(n, k)) if ki > 22 or abs(ni) >= 10 ** 15)
    for i in slow:
        n[i] = k[i] = 0
    out = list(map(truediv, map(float, n), map(_POW10.__getitem__, k)))
    for i in slow:
        out[i] = decimal_to_nearest_float(tokens[i])
    return out


def _excerpt(s: str) -> str:
    return s if len(s) <= 60 else f"{s[:40]}...({len(s)} characters)"


def from_decimal_string(s: str) -> Interval:
    """Tight enclosure (width <= 1 ulp, exact when representable) of the
    exact value of a signed decimal numeral."""
    short = _short_decimal(s)
    if short is not None:
        n, p = short
        f = n / p
        # N/10**k - f has the sign of N - f*10**k
        err = _residual_sign(n, f, p) if n else 0
    else:
        f, num, den = _round_decimal(s)
        fn, fd = f.as_integer_ratio()
        err = num * fd - fn * den
    return _make(_nextafter(f, -_INF) if err < 0 else f, _nextafter(f, _INF) if err > 0 else f)


def decimal_to_nearest_float(s: str) -> float:
    """Correctly rounded (to nearest, ties to even) binary64 value of a
    decimal numeral."""
    short = _short_decimal(s)
    if short is not None:
        return short[0] / short[1]
    return _round_decimal(s)[0]


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
        r = repr(x)
        if from_decimal_string(r).is_point:
            return r
        from decimal import Decimal
        return format(Decimal(x), "f")

    if a.lo == a.hi and a.is_finite:
        return fmt(a.lo)
    return f"{fmt(a.lo)}..{fmt(a.hi)}"
