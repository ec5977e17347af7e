"""Expression trees, symbolic differentiation, and compiled interval
evaluators.

An `Expr` is a small immutable AST over variables x0..x{n-1} with the
operations + - * /, integer powers, sqrt, and a binary arctangent
`atan(num, den)` meaning atan(num/den).  Keeping arctangent binary
confines the den=0 hazard to a single operation with one error path.

`compile_expr` turns an Expr into an `Evaluator`: a flat evaluation plan
(one instruction per distinct subexpression) that answers three queries
over a box of intervals:

* interval value,
* interval value-and-gradient germ (forward-mode recurrences),
* interval Hessian entries (interval evaluation of the symbolic second
  partials, derived by differentiating twice).

Constants are stored as decimal text; conversion to binary64 enclosures
is deferred to the interval layer so no precision is lost before the
rigorous arithmetic sees them.

No simplification is performed beyond folding integer constants and
eliminating 0/1 identities: simplification bugs are rigor bugs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import interval as iv
from .errors import CompileError, ParseError
from .interval import Interval

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Sqrt",
    "Atan",
    "ZERO",
    "ONE",
    "make_add",
    "make_sub",
    "make_mul",
    "make_div",
    "make_pow",
    "const_from_float",
    "arity_of",
    "depth_of",
    "parse",
    "differentiate",
    "to_text",
    "evaluate_numeric",
    "TaylorGerm",
    "Evaluator",
    "compile_expr",
]


class Expr:
    """Base class; concrete nodes are the frozen dataclasses below."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class Const(Expr):
    text: str


@dataclass(frozen=True, slots=True)
class Var(Expr):
    index: int


@dataclass(frozen=True, slots=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True)
class Atan(Expr):
    num: Expr
    den: Expr


ZERO = Const("0")
ONE = Const("1")


def _as_int(e: Expr) -> Optional[int]:
    if isinstance(e, Const):
        f = Fraction(e.text)
        if f.denominator == 1:
            return f.numerator
    return None


def make_add(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return Const(str(ia + ib))
    if ia == 0:
        return b
    if ib == 0:
        return a
    return Add(a, b)


def make_sub(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return Const(str(ia - ib))
    if ib == 0:
        return a
    return Sub(a, b)


def make_mul(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return Const(str(ia * ib))
    if ia == 0 or ib == 0:
        return ZERO
    if ia == 1:
        return b
    if ib == 1:
        return a
    return Mul(a, b)


def make_div(a: Expr, b: Expr) -> Expr:
    # 0/e -> 0 agrees with the true derivative everywhere the parent
    # function is defined, and avoids spurious error paths.
    if _as_int(a) == 0:
        return ZERO
    if _as_int(b) == 1:
        return a
    return Div(a, b)


def make_pow(a: Expr, k: int) -> Expr:
    if k == 0:
        return ONE
    if k == 1:
        return a
    ia = _as_int(a)
    if ia is not None and k > 0:
        return Const(str(ia**k))
    return Pow(a, k)


def const_from_float(v: float) -> Const:
    """Exact decimal text of a binary64 value (repr round-trips)."""
    if not math.isfinite(v):
        raise ValueError(f"cannot embed non-finite constant {v!r}")
    return Const(repr(v))


def arity_of(e: Expr) -> int:
    """1 + highest variable index used (0 for constant expressions)."""
    match e:
        case Var(index=i):
            return i + 1
        case Const():
            return 0
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) \
                | Div(left=a, right=b) | Atan(num=a, den=b):
            return max(arity_of(a), arity_of(b))
        case Pow(base=a) | Sqrt(arg=a):
            return arity_of(a)
    raise TypeError(f"not an Expr node: {e!r}")


def depth_of(e: Expr) -> int:
    match e:
        case Var() | Const():
            return 1
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) \
                | Div(left=a, right=b) | Atan(num=a, den=b):
            return 1 + max(depth_of(a), depth_of(b))
        case Pow(base=a) | Sqrt(arg=a):
            return 1 + depth_of(a)
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sqrt", "atan", "pow")
_NUMBER_RE = re.compile(r"\d*(?:\.\d*)?(?:[eE][+-]?\d+)?")


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ParseError:
        self.skip_ws()
        return ParseError(f"{message} at offset {self.pos}", position=self.pos)

    def take_number(self) -> str:
        # An exponent is taken only when digits follow it.
        m = _NUMBER_RE.match(self.text, self.pos)
        self.pos = m.end()
        return m.group()

    def take_ident(self) -> str:
        start = self.pos
        t = self.text
        while self.pos < len(t) and (t[self.pos].isalnum() or t[self.pos] == "_"):
            self.pos += 1
        return t[start:self.pos]


class _Parser:
    def __init__(self, text: str, arity: Optional[int]):
        self.tz = _Tokenizer(text)
        self.arity = arity

    def parse(self) -> Expr:
        e = self.expr()
        self.tz.skip_ws()
        if self.tz.pos != len(self.tz.text):
            raise self.tz.error("unexpected trailing input")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            c = self.tz.peek()
            if c == "+":
                self.tz.pos += 1
                e = Add(e, self.term())
            elif c == "-":
                self.tz.pos += 1
                e = Sub(e, self.term())
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            c = self.tz.peek()
            if c == "*":
                self.tz.pos += 1
                e = Mul(e, self.unary())
            elif c == "/":
                self.tz.pos += 1
                e = Div(e, self.unary())
            else:
                return e

    def unary(self) -> Expr:
        if self.tz.peek() == "-":
            self.tz.pos += 1
            inner = self.unary()
            if isinstance(inner, Const):
                text = inner.text
                return Const(text[1:]) if text.startswith("-") else Const("-" + text)
            return Sub(ZERO, inner)
        return self.atom()

    def atom(self) -> Expr:
        c = self.tz.peek()
        if c == "(":
            self.tz.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            num = self.tz.take_number()
            if not num or num == ".":
                raise self.tz.error("malformed number")
            return Const(num)
        if c.isalpha():
            start = self.tz.pos
            name = self.tz.take_ident()
            if name in _FUNCTIONS:
                return self.call(name)
            if name.startswith("x") and name[1:].isdigit():
                idx = int(name[1:])
                if self.arity is not None and idx >= self.arity:
                    raise ParseError(
                        f"undeclared variable {name} (arity {self.arity}) at offset {start}",
                        position=start,
                    )
                return Var(idx)
            raise ParseError(f"unknown identifier {name!r} at offset {start}", position=start)
        raise self.tz.error("expected operand")

    def call(self, name: str) -> Expr:
        self.expect("(")
        first = self.expr()
        if name == "sqrt":
            self.expect(")")
            return Sqrt(first)
        self.expect(",")
        if name == "atan":
            second = self.expr()
            self.expect(")")
            return Atan(first, second)
        # pow(e, k): k must be an integer literal, optionally negated
        self.tz.skip_ws()
        sign = 1
        if self.tz.peek() == "-":
            self.tz.pos += 1
            sign = -1
        kpos = self.tz.pos
        num = self.tz.take_number()
        if not num or any(ch in num for ch in ".eE"):
            raise ParseError(
                f"pow exponent must be an integer literal at offset {kpos}", position=kpos
            )
        self.expect(")")
        return Pow(first, sign * int(num))

    def expect(self, ch: str):
        if self.tz.peek() != ch:
            raise self.tz.error(f"expected {ch!r}")
        self.tz.pos += 1


def parse(text: str, arity: Optional[int] = None) -> Expr:
    """Parse an expression; variable indices are validated against the
    declared arity when one is given."""
    try:
        return _Parser(text, arity).parse()
    except RecursionError:
        raise ParseError("expression too deeply nested") from None


def to_text(e: Expr) -> str:
    """Render an Expr in the same grammar `parse` accepts."""

    def prec(node: Expr) -> int:
        if isinstance(node, (Add, Sub)):
            return 1
        if isinstance(node, (Mul, Div)):
            return 2
        return 3

    def render(node: Expr, parent_prec: int) -> str:
        match node:
            case Const(text=t):
                s = t
                return f"({s})" if s.startswith("-") and parent_prec >= 2 else s
            case Var(index=i):
                return f"x{i}"
            case Add(left=a, right=b):
                s = f"{render(a, 1)} + {render(b, 2)}"
            case Sub(left=a, right=b):
                s = f"{render(a, 1)} - {render(b, 2)}"
            case Mul(left=a, right=b):
                s = f"{render(a, 2)}*{render(b, 3)}"
            case Div(left=a, right=b):
                s = f"{render(a, 2)}/{render(b, 3)}"
            case Pow(base=a, exponent=k):
                return f"pow({render(a, 0)}, {k})"
            case Sqrt(arg=a):
                return f"sqrt({render(a, 0)})"
            case Atan(num=a, den=b):
                return f"atan({render(a, 0)}, {render(b, 0)})"
            case _:
                raise TypeError(f"not an Expr node: {node!r}")
        return f"({s})" if prec(node) < parent_prec else s

    return render(e, 0)


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, i: int) -> Expr:
    """Symbolic partial derivative with respect to x_i.

    The arctangent rule is d atan(a/b) = (a'b - b'a)/(a^2 + b^2).
    """
    d = lambda sub: differentiate(sub, i)
    match e:
        case Const():
            return ZERO
        case Var(index=j):
            return ONE if j == i else ZERO
        case Add(left=a, right=b):
            return make_add(d(a), d(b))
        case Sub(left=a, right=b):
            return make_sub(d(a), d(b))
        case Mul(left=a, right=b):
            return make_add(make_mul(d(a), b), make_mul(a, d(b)))
        case Div(left=a, right=b):
            return make_div(
                make_sub(make_mul(d(a), b), make_mul(d(b), a)),
                make_mul(b, b),
            )
        case Pow(base=u, exponent=k):
            return make_mul(make_mul(Const(str(k)), make_pow(u, k - 1)), d(u))
        case Sqrt(arg=u):
            return make_div(d(u), make_mul(Const("2"), Sqrt(u)))
        case Atan(num=a, den=b):
            return make_div(
                make_sub(make_mul(d(a), b), make_mul(d(b), a)),
                make_add(make_mul(a, a), make_mul(b, b)),
            )
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Numeric (non-rigorous) evaluation, used for test points and oracles
# ---------------------------------------------------------------------------

def evaluate_numeric(e: Expr, point: Sequence[float]) -> float:
    """Plain binary64 evaluation at a point.  No rigor claim; raises
    ArithmeticError subclasses on domain violations."""
    match e:
        case Const(text=t):
            return float(Fraction(t))
        case Var(index=i):
            return point[i]
        case Add(left=a, right=b):
            return evaluate_numeric(a, point) + evaluate_numeric(b, point)
        case Sub(left=a, right=b):
            return evaluate_numeric(a, point) - evaluate_numeric(b, point)
        case Mul(left=a, right=b):
            return evaluate_numeric(a, point) * evaluate_numeric(b, point)
        case Div(left=a, right=b):
            return evaluate_numeric(a, point) / evaluate_numeric(b, point)
        case Pow(base=a, exponent=k):
            return evaluate_numeric(a, point) ** k
        case Sqrt(arg=a):
            return math.sqrt(evaluate_numeric(a, point))
        case Atan(num=a, den=b):
            return math.atan(evaluate_numeric(a, point) / evaluate_numeric(b, point))
    raise TypeError(f"not an Expr node: {e!r}")


# ---------------------------------------------------------------------------
# Compiled evaluation plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TaylorGerm:
    """Interval value and gradient of a function over a box: the interval
    version of a linear approximation f + Df[0] x0 + ... + Df[n-1] x{n-1}."""

    f: Interval
    df: tuple[Interval, ...]


# opcode constants for the evaluation plan
_CONST, _VAR, _ADD, _SUB, _MUL, _DIV, _POW, _SQRT, _ATAN = range(9)

_OP_NAMES = {
    _CONST: "const",
    _VAR: "load",
    _ADD: "add",
    _SUB: "sub",
    _MUL: "mul",
    _DIV: "div",
    _POW: "pow",
    _SQRT: "sqrt",
    _ATAN: "atan",
}

DEFAULT_MAX_DEPTH = 500


class Evaluator:
    """Flat evaluation plan for one expression at a fixed arity.

    Immutable after construction apart from internal memo tables for the
    symbolic second partials (filled deterministically on first use).
    """

    def __init__(self, expr: Expr, arity: Optional[int] = None,
                 max_depth: int = DEFAULT_MAX_DEPTH):
        if arity is None:
            arity = arity_of(expr)
        if arity_of(expr) > arity:
            raise CompileError(
                f"expression uses x{arity_of(expr) - 1} but arity is {arity}"
            )
        if depth_of(expr) > max_depth:
            raise CompileError(f"expression depth exceeds limit {max_depth}")
        self.expr = expr
        self.arity = arity
        self._max_depth = max_depth
        self.plan: list[tuple] = []
        self._slots: dict[Expr, int] = {}
        self._emit(expr)
        self._first: dict[int, Expr] = {}
        self._second: dict[tuple[int, int], "Evaluator"] = {}

    # -- plan construction ----------------------------------------------

    def _emit(self, e: Expr) -> int:
        slot = self._slots.get(e)
        if slot is not None:
            return slot
        match e:
            case Const(text=t):
                ins = (_CONST, iv.from_decimal_string(t), t)
            case Var(index=i):
                ins = (_VAR, i)
            case Add(left=a, right=b):
                ins = (_ADD, self._emit(a), self._emit(b))
            case Sub(left=a, right=b):
                ins = (_SUB, self._emit(a), self._emit(b))
            case Mul(left=a, right=b):
                ins = (_MUL, self._emit(a), self._emit(b))
            case Div(left=a, right=b):
                ins = (_DIV, self._emit(a), self._emit(b))
            case Pow(base=a, exponent=k):
                ins = (_POW, self._emit(a), k)
            case Sqrt(arg=a):
                ins = (_SQRT, self._emit(a))
            case Atan(num=a, den=b):
                ins = (_ATAN, self._emit(a), self._emit(b))
            case _:
                raise TypeError(f"not an Expr node: {e!r}")
        self.plan.append(ins)
        slot = len(self.plan) - 1
        self._slots[e] = slot
        return slot

    def plan_lines(self) -> list[str]:
        """Human-readable rendering of the evaluation plan."""
        lines = []
        for idx, ins in enumerate(self.plan):
            op = _OP_NAMES[ins[0]]
            if ins[0] == _CONST:
                lines.append(f"t{idx} = const {ins[2]}")
            elif ins[0] == _VAR:
                lines.append(f"t{idx} = load x{ins[1]}")
            elif ins[0] == _POW:
                lines.append(f"t{idx} = pow t{ins[1]}, {ins[2]}")
            elif ins[0] == _SQRT:
                lines.append(f"t{idx} = sqrt t{ins[1]}")
            else:
                lines.append(f"t{idx} = {op} t{ins[1]}, t{ins[2]}")
        return lines

    # -- interval queries -------------------------------------------------

    def value(self, box: Sequence[Interval]) -> Interval:
        """Containment-sound interval enclosure of the range over the box."""
        vals: list[Interval] = []
        for ins in self.plan:
            op = ins[0]
            if op == _CONST:
                vals.append(ins[1])
            elif op == _VAR:
                vals.append(box[ins[1]])
            elif op == _ADD:
                vals.append(iv.add(vals[ins[1]], vals[ins[2]]))
            elif op == _SUB:
                vals.append(iv.sub(vals[ins[1]], vals[ins[2]]))
            elif op == _MUL:
                vals.append(iv.mul(vals[ins[1]], vals[ins[2]]))
            elif op == _DIV:
                vals.append(iv.div(vals[ins[1]], vals[ins[2]]))
            elif op == _POW:
                vals.append(iv.pow_int(vals[ins[1]], ins[2]))
            elif op == _SQRT:
                vals.append(iv.sqrt_interval(vals[ins[1]]).interval)
            else:
                vals.append(iv.atan_interval(iv.div(vals[ins[1]], vals[ins[2]])))
        return vals[-1]

    def germ(self, box: Sequence[Interval]) -> TaylorGerm:
        """Forward-mode interval value-and-gradient over the box."""
        n = self.arity
        zeros = tuple(Interval(0.0, 0.0) for _ in range(n))
        one = Interval(1.0, 1.0)
        two = Interval(2.0, 2.0)
        fs: list[Interval] = []
        dfs: list[tuple[Interval, ...]] = []
        for ins in self.plan:
            op = ins[0]
            if op == _CONST:
                fs.append(ins[1])
                dfs.append(zeros)
            elif op == _VAR:
                i = ins[1]
                fs.append(box[i])
                dfs.append(tuple(one if j == i else zeros[j] for j in range(n)))
            elif op == _ADD:
                a, b = ins[1], ins[2]
                fs.append(iv.add(fs[a], fs[b]))
                dfs.append(tuple(iv.add(dfs[a][j], dfs[b][j]) for j in range(n)))
            elif op == _SUB:
                a, b = ins[1], ins[2]
                fs.append(iv.sub(fs[a], fs[b]))
                dfs.append(tuple(iv.sub(dfs[a][j], dfs[b][j]) for j in range(n)))
            elif op == _MUL:
                a, b = ins[1], ins[2]
                fa, fb = fs[a], fs[b]
                fs.append(iv.mul(fa, fb))
                dfs.append(tuple(
                    iv.add(iv.mul(dfs[a][j], fb), iv.mul(dfs[b][j], fa))
                    for j in range(n)
                ))
            elif op == _DIV:
                a, b = ins[1], ins[2]
                fa, fb = fs[a], fs[b]
                fs.append(iv.div(fa, fb))
                den = iv.mul(fb, fb)
                dfs.append(tuple(
                    iv.div(iv.sub(iv.mul(dfs[a][j], fb), iv.mul(dfs[b][j], fa)), den)
                    for j in range(n)
                ))
            elif op == _POW:
                a, k = ins[1], ins[2]
                fa = fs[a]
                fs.append(iv.pow_int(fa, k))
                kfac = iv.mul(Interval(float(k), float(k)), iv.pow_int(fa, k - 1))
                dfs.append(tuple(iv.mul(kfac, dfs[a][j]) for j in range(n)))
            elif op == _SQRT:
                a = ins[1]
                root = iv.sqrt_interval(fs[a]).interval
                fs.append(root)
                den = iv.mul(two, root)
                dfs.append(tuple(iv.div(dfs[a][j], den) for j in range(n)))
            else:  # _ATAN: f = atan(a/b); Df = rden*(a.Df*b.f - b.Df*a.f)
                a, b = ins[1], ins[2]
                fa, fb = fs[a], fs[b]
                fs.append(iv.atan_interval(iv.div(fa, fb)))
                rden = iv.div(one, iv.add(iv.mul(fa, fa), iv.mul(fb, fb)))
                dfs.append(tuple(
                    iv.mul(rden, iv.sub(iv.mul(dfs[a][j], fb), iv.mul(dfs[b][j], fa)))
                    for j in range(n)
                ))
        return TaylorGerm(fs[-1], dfs[-1])

    # -- symbolic second partials ----------------------------------------

    def _first_partial(self, i: int) -> Expr:
        got = self._first.get(i)
        if got is None:
            got = differentiate(self.expr, i)
            self._first[i] = got
        return got

    def _second_evaluator(self, i: int, j: int) -> "Evaluator":
        key = (min(i, j), max(i, j))
        got = self._second.get(key)
        if got is None:
            second = differentiate(self._first_partial(key[0]), key[1])
            got = Evaluator(second, self.arity, max_depth=4 * self._max_depth + 16)
            self._second[key] = got
        return got

    def hessian_entry(self, box: Sequence[Interval], i: int, j: int) -> Interval:
        """Enclosure of the (i,j) second partial over the whole box."""
        return self._second_evaluator(i, j).value(box)

    def hessian(self, box: Sequence[Interval]) -> list[list[Interval]]:
        n = self.arity
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h = self.hessian_entry(box, i, j)
                rows[i][j] = h
                rows[j][i] = h
        return rows


def compile_expr(e: Expr, arity: Optional[int] = None,
                 max_depth: int = DEFAULT_MAX_DEPTH) -> Evaluator:
    """Generate the evaluation plan for an expression."""
    return Evaluator(e, arity, max_depth=max_depth)
