"""Expression trees, symbolic differentiation, and compiled interval
evaluators.

An `Expr` is a small immutable AST over variables x0..x{n-1} with the
operations + - * /, integer powers, sqrt, and a binary arctangent
`atan(num, den)` meaning atan(num/den).  Keeping arctangent binary
confines the den=0 hazard to a single operation with one error path.

Nodes are hash-consed: constructing a node returns the one live node with
the same class and fields, kept in a weak-valued table, so structurally
equal expressions are the same object and `==` and `hash` are O(1)
identity checks.

`differentiate`, `to_text` and the plan lowering walk the expression
iteratively and memoise on nodes, so a long expression does not reach the
recursion limit and the derivative of a DAG is a DAG of linear size.
`differentiate` holds the only derivative rules, and one table the binary
operators' symbols and precedences, which `parse` and `to_text` share.
`parse` recurses once per nesting level: too deep a text is a ParseError.

One lowering compiles expressions into a flat plan with one slot per node:
a leaf (a constant, read as the plan compiles, or a variable) or one
`(op, a, b)` instruction.  One loop runs the instructions.  The two plans
differ only in their table of ops and their constant reader:

* `FloatPlan(exprs)` does plain binary64 operations, for fitting at test
  points; `evaluate_numeric` runs a one-expression plan at one point.
* `Evaluator(e, arity)` calls the interval operations on plain (lo, hi)
  tuples, and types only its outputs as Interval.  Its plan starts with
  f's slots, followed by those of the first partials and the second
  partials (each the `differentiate` of the one before) as queries first
  need them, so a subexpression shared by f, its gradient and its Hessian
  is evaluated once.  Each query -- interval value, value-and-gradient
  germ, the listed Hessian entries -- evaluates exactly the instructions
  its outputs depend on, in one pass.

Constants are stored as decimal text; conversion to binary64 enclosures
is deferred to the interval layer so no precision is lost before the
rigorous arithmetic sees them.

No simplification is performed beyond folding integer constants and
eliminating 0/1 identities: simplification bugs are rigor bugs.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterator, Optional, Sequence

from . import interval as iv
from .errors import CompileError, DomainError, ParseError
from .interval import Interval, Pair

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
    "parse",
    "differentiate",
    "to_text",
    "FloatPlan",
    "evaluate_numeric",
    "TaylorGerm",
    "Evaluator",
]

# (node class, *fields) -> weak reference to the live node with those
# fields.  The reference's callback, the C-level dict.pop, drops the entry
# as the node dies (before any new node can take the key), for less than a
# WeakValueDictionary's Python-level bookkeeping costs.
_NODES: dict[tuple, weakref.ref] = {}


class _Interned(type):
    def __call__(cls, *fields):
        key = (cls, *fields)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = super().__call__(*fields)
            _NODES[key] = weakref.ref(node, partial(_NODES.pop, key))
        return node


class Expr(metaclass=_Interned):
    """Base class; concrete nodes are the frozen dataclasses below, built
    positionally and interned, so node identity is structural equality."""

    __slots__ = ("__weakref__",)


@dataclass(frozen=True, slots=True, eq=False)
class Const(Expr):
    text: str
    # The integer the text denotes, else None; read once, as nodes are immutable.
    _int_value: Optional[int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_int_value", _read_int(self.text))


@dataclass(frozen=True, slots=True, eq=False)
class Var(Expr):
    index: int


@dataclass(frozen=True, slots=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True, slots=True, eq=False)
class Sqrt(Expr):
    arg: Expr


@dataclass(frozen=True, slots=True, eq=False)
class Atan(Expr):
    num: Expr
    den: Expr


def _read_int(text: str) -> Optional[int]:
    """The value of a decimal numeral if it is an integer, else None.
    Decided from interval's split of the numeral into digits and a power of
    ten, so no power of ten is built for a far exponent."""
    try:
        sign, body, k = iv._split_decimal(text)
    except ParseError:
        return None
    digits = body.rstrip("0")
    if not digits:
        return 0
    k += len(body) - len(digits)
    # |value| >= 10**(len(digits) + k - 1): past 310, past binary64 too
    if k < 0 or len(digits) + k > 310:
        return None
    return int(sign + digits) * 10**k


ZERO = Const("0")
ONE = Const("1")


def _as_int(e: Expr) -> Optional[int]:
    """The value of an integer Const, else None."""
    return e._int_value if isinstance(e, Const) else None


def _folded(v: int, op: type, a: Expr, b: Expr) -> Expr:
    # A constant past binary64's range would fail to read in the plan; the
    # unfolded operation op(a, b) overflows as an interval instead.
    return Const(str(v)) if v.bit_length() < 1024 else op(a, b)


def make_add(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return _folded(ia + ib, Add, a, b)
    if ia == 0:
        return b
    if ib == 0:
        return a
    return Add(a, b)


def make_sub(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return _folded(ia - ib, Sub, a, b)
    if ib == 0:
        return a
    return Sub(a, b)


def make_mul(a: Expr, b: Expr) -> Expr:
    ia, ib = _as_int(a), _as_int(b)
    if ia is not None and ib is not None:
        return _folded(ia * ib, Mul, a, b)
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
    # |ia**k| < 2**(bit_length * k): the bound keeps the power in range
    # before it is built.
    if ia is not None and k > 0 and abs(ia).bit_length() * k < 1024:
        return Const(str(ia**k))
    return Pow(a, k)


def const_from_float(v: float) -> Const:
    """Exact decimal text of a binary64 value (repr round-trips)."""
    if not math.isfinite(v):
        raise ValueError(f"cannot embed non-finite constant {v!r}")
    return Const(repr(v))


def _children(e: Expr) -> tuple[Expr, ...]:
    match e:
        case Add(left=a, right=b) | Sub(left=a, right=b) | Mul(left=a, right=b) \
                | Div(left=a, right=b) | Atan(num=a, den=b):
            return (a, b)
        case Pow(base=a) | Sqrt(arg=a):
            return (a,)
    return ()


def _post_order(root: Expr, done: dict) -> Iterator[Expr]:
    """Yield each node under root that is not in `done`, children first
    and left before right, without recursion.  The caller enters each
    yielded node in `done` before the walk resumes."""
    stack = [root]
    while stack:
        node = stack[-1]
        if node in done:
            stack.pop()
            continue
        todo = [k for k in reversed(_children(node)) if k not in done]
        if todo:
            stack.extend(todo)
        else:
            stack.pop()
            yield node


# ---------------------------------------------------------------------------
# Parsing and printing
# ---------------------------------------------------------------------------

# Binary operator node -> (printed symbol, precedence).  `parse` groups by
# these precedences and `to_text` brackets by them; every other node binds
# tightest, at 3.
_BINARY = {Add: (" + ", 1), Sub: (" - ", 1), Mul: ("*", 2), Div: ("/", 2)}
_BY_SYMBOL = {sym.strip(): (cls, prec) for cls, (sym, prec) in _BINARY.items()}

_FUNCTIONS = {"sqrt": Sqrt, "atan": Atan, "pow": Pow}
_FLOAT_MAX = int(1.7976931348623157e308)
_IDENT_RE = re.compile(r"\w*")
_NUMBER_RE = re.compile(r"\d*(?:\.\d*)?(?:[eE][+-]?\d+)?")   # an exponent only with digits


class _Parser:
    """Recursive descent over one text from the cursor `pos`; `peek` skips
    the whitespace before a token."""

    def __init__(self, text: str, arity: Optional[int]):
        self.text, self.pos, self.arity = text, 0, arity

    def peek(self) -> str:
        """Skip whitespace; the next character, or "" at the end."""
        text, pos = self.text, self.pos
        while text[pos:pos + 1].isspace():
            pos += 1
        self.pos = pos
        return text[pos:pos + 1]

    def take(self, pattern: re.Pattern) -> str:
        m = pattern.match(self.text, self.pos)
        self.pos = m.end()
        return m.group()

    def error(self, message: str, at: Optional[int] = None) -> ParseError:
        """ParseError at offset `at`, by default that of the next token."""
        if at is None:
            self.peek()
            at = self.pos
        return ParseError(f"{message} at offset {at}", position=at)

    def expect(self, ch: str):
        if self.peek() != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def expr(self) -> Expr:
        """Operands joined by binary operators: a tighter precedence binds
        first, and equal ones group left to right."""
        operands, pending = [self.operand()], []
        while True:
            op = _BY_SYMBOL.get(self.peek())
            while pending and (op is None or pending[-1][1] >= op[1]):
                operands[-2:] = [pending.pop()[0](*operands[-2:])]
            if op is None:
                return operands[0]
            self.pos += 1
            pending.append(op)
            operands.append(self.operand())

    def operand(self) -> Expr:
        c = self.peek()
        if c == "-":
            self.pos += 1
            inner = self.operand()
            if isinstance(inner, Const):
                t = inner.text
                return Const(t[1:] if t.startswith("-") else "-" + t)
            return Sub(ZERO, inner)
        if c == "(":
            self.pos += 1
            e = self.expr()
            self.expect(")")
            return e
        if c.isdigit() or c == ".":
            num = self.take(_NUMBER_RE)
            if not num or num == ".":
                raise self.error("malformed number")
            return Const(num)
        if not c.isalpha():
            raise self.error("expected operand")
        start = self.pos
        name = self.take(_IDENT_RE)
        call = _FUNCTIONS.get(name)
        if call is not None:
            self.expect("(")
            args = [self.expr()]
            if call is not Sqrt:
                self.expect(",")
                args.append(self.expr() if call is Atan else self.pow_exponent())
            self.expect(")")
            return call(*args)
        index = name[1:]
        if name[0] != "x" or not index.isdecimal():
            raise self.error(f"unknown identifier {name!r}", start)
        if len(index) > 4300:   # int() refuses longer decimal text by default
            raise self.error(f"variable index of {len(index)} digits is too large", start)
        i = int(index)
        if self.arity is not None and i >= self.arity:
            raise self.error(f"undeclared variable {name} (arity {self.arity})", start)
        return Var(i)

    def pow_exponent(self) -> int:
        """pow's second argument: an integer literal, optionally negated."""
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        kpos = self.pos
        num = self.take(_NUMBER_RE)
        if not num or any(ch in num for ch in ".eE"):
            raise self.error("pow exponent must be an integer literal", kpos)
        # The digit count bounds the magnitude before int() reads the text;
        # a leading zero may be any Unicode zero digit, as int() reads it.
        if not num.isascii():
            num = "".join(str(int(ch)) for ch in num)
        digits = num.lstrip("0") or "0"
        if len(digits) > 309 or int(digits) > _FLOAT_MAX:
            raise self.error("pow exponent overflows binary64", kpos)
        return sign * int(digits)


def parse(text: str, arity: Optional[int] = None) -> Expr:
    """Parse an expression; a variable's index, x{i} with i in decimal
    digits, is validated against the declared arity when one is given."""
    p = _Parser(text, arity)
    try:
        e = p.expr()
    except RecursionError:
        raise ParseError("expression too deeply nested") from None
    if p.peek():
        raise p.error("unexpected trailing input")
    return e


def to_text(e: Expr) -> str:
    """Render an Expr in the same grammar `parse` accepts.  A stack of
    pending pieces, each a string or a (node, floor) pair, emits the text
    left to right into one list, so no subtree's text is built apart."""
    out: list[str] = []
    stack: list = [(e, 0)]
    while stack:
        piece = stack.pop()
        if isinstance(piece, str):
            out.append(piece)
            continue
        node, floor = piece  # parenthesised if it binds looser than floor
        match node:
            case Const(text=t):
                pieces = ["(", t, ")"] if t.startswith("-") and floor >= 2 else [t]
            case Var(index=i):
                pieces = [f"x{i}"]
            case Add() | Sub() | Mul() | Div():
                sym, prec = _BINARY[type(node)]
                pieces = [(node.left, prec), sym, (node.right, prec + 1)]
                pieces = ["(", *pieces, ")"] if prec < floor else pieces
            case Pow(base=a, exponent=k):
                pieces = ["pow(", (a, 0), f", {k})"]
            case Sqrt(arg=a):
                pieces = ["sqrt(", (a, 0), ")"]
            case Atan(num=a, den=b):
                pieces = ["atan(", (a, 0), ", ", (b, 0), ")"]
            case _:
                raise TypeError(f"not an Expr node: {node!r}")
        stack += reversed(pieces)
    return "".join(out)


# ---------------------------------------------------------------------------
# Symbolic differentiation
# ---------------------------------------------------------------------------

def differentiate(e: Expr, i: int) -> Expr:
    """Symbolic partial derivative with respect to x_i.

    The walk is iterative and memoised on nodes, so a DAG's derivative is a
    DAG of linear size.  The arctangent rule is
    d atan(a/b) = (a'b - b'a)/(a^2 + b^2).
    """
    memo: dict[Expr, Expr] = {}
    d = memo.__getitem__
    for node in _post_order(e, memo):
        match node:
            case Const():
                r = ZERO
            case Var(index=j):
                r = ONE if j == i else ZERO
            case Add(left=a, right=b):
                r = make_add(d(a), d(b))
            case Sub(left=a, right=b):
                r = make_sub(d(a), d(b))
            case Mul(left=a, right=b):
                r = make_add(make_mul(d(a), b), make_mul(a, d(b)))
            case Div(left=a, right=b):
                r = make_div(
                    make_sub(make_mul(d(a), b), make_mul(d(b), a)),
                    make_mul(b, b),
                )
            case Pow(base=u, exponent=k):
                r = make_mul(make_mul(Const(str(k)), make_pow(u, k - 1)), d(u))
            case Sqrt(arg=u):
                r = make_div(d(u), make_mul(Const("2"), node))
            case Atan(num=a, den=b):
                r = make_div(
                    make_sub(make_mul(d(a), b), make_mul(d(b), a)),
                    make_add(make_mul(a, a), make_mul(b, b)),
                )
            case _:
                raise TypeError(f"not an Expr node: {node!r}")
        memo[node] = r
    return d(e)


# ---------------------------------------------------------------------------
# Evaluation plans
# ---------------------------------------------------------------------------

class _Plan:
    """Expressions lowered to one slot per node, in the iterative
    post-order of each root as it is added (children left to right, a
    shared node once).  A constant's slot is preloaded with `read(text)`
    as the plan compiles, a variable's is loaded from the point at each
    run, and every other slot holds one instruction `(op, a, b)`, run as
    `vals[s] = op(vals[a], vals[b])` with `op = ops[type(node)]`.  A unary
    op ignores b, which is a; a power's slot is preloaded with its integer
    exponent, so its b is the slot itself."""

    def __init__(self, ops: dict[type, Callable], read: Callable[[str], object]):
        self.plan: list[Expr] = []                # slot -> node
        self._code: list[Optional[tuple]] = []    # slot -> (op, a, b); None for a leaf
        self._preload: list = []                  # slot -> constant, exponent or None
        self._loads: list[tuple[int, int]] = []   # (slot, index) per variable
        self._slots: dict[Expr, int] = {}         # node -> slot
        self._ops, self._read = ops, read

    def _lower(self, root: Expr) -> int:
        """Append the slots root needs that the plan lacks; return root's
        slot."""
        slots = self._slots
        for node in _post_order(root, slots):
            s = len(self.plan)
            ins, pre = None, None
            match node:
                case Const(text=t):
                    # Read before the slot is taken: a failed read leaves none.
                    pre = self._read(t)
                case Var(index=i):
                    self._loads.append((s, i))
                case Pow(base=a, exponent=k):
                    ins, pre = (self._ops[Pow], slots[a], s), k
                case Add() | Sub() | Mul() | Div() | Sqrt() | Atan():
                    kids = _children(node)
                    ins = (self._ops[type(node)], slots[kids[0]], slots[kids[-1]])
                case _:
                    raise TypeError(f"not an Expr node: {node!r}")
            slots[node] = s
            self.plan.append(node)
            self._code.append(ins)
            self._preload.append(pre)
        return slots[root]

    def _execute(self, point: Sequence, order: Sequence[int],
                 outputs: Sequence[int]) -> list:
        """Run the instructions of the slots in order, with the variables
        read from point; return the outputs' values."""
        vals = self._preload.copy()
        for s, i in self._loads:
            vals[s] = point[i]
        code = self._code
        for s in order:
            op, a, b = code[s]
            vals[s] = op(vals[a], vals[b])
        return [vals[s] for s in outputs]


# Numeric (non-rigorous) evaluation, used for test points and oracles.

def _float_sqrt(a: float, _: float) -> float:
    return math.sqrt(a)


def _float_atan(a: float, b: float) -> float:
    return math.atan(a / b)


_FLOAT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv, Pow: operator.pow, Sqrt: _float_sqrt,
              Atan: _float_atan}


class FloatPlan(_Plan):
    """Plain binary64 evaluation of several expressions, compiled once and
    run at any number of points.  No rigor claim; a run raises
    ArithmeticError or ValueError subclasses on domain violations.

    The ops are `x + y`, `x - y`, `x * y`, `x / y`, `x ** k`,
    `math.sqrt(x)` and `math.atan(x / y)`.  Constants are read by
    `decimal_to_nearest_float` as the plan compiles, so one past binary64
    raises ParseError here, not at a point."""

    def __init__(self, roots: Sequence[Expr]):
        super().__init__(_FLOAT_OPS, iv.decimal_to_nearest_float)
        self._outputs = [self._lower(root) for root in roots]
        self._order = [s for s, ins in enumerate(self._code) if ins is not None]

    def __call__(self, point: Sequence[float]) -> list:
        """The roots' values at the point.  Coordinates past the highest
        variable are ignored; a point without it raises IndexError."""
        return self._execute(point, self._order, self._outputs)


def evaluate_numeric(e: Expr, point: Sequence[float]) -> float:
    """Plain binary64 evaluation of one expression at one point, by its
    FloatPlan."""
    return FloatPlan((e,))(point)[0]


# Rigorous interval evaluation.

@dataclass(frozen=True, slots=True)
class TaylorGerm:
    """Interval value and gradient of a function over a box: the interval
    version of a linear approximation f + Df[0] x0 + ... + Df[n-1] x{n-1}."""

    f: Interval
    df: tuple[Interval, ...]


def _interval_ops() -> dict:
    """The interval ops on (lo, hi) pairs, with the operations
    rigorkit.interval binds now: an operation rebound after import (as
    perfbench/trace.py does to count calls) is the one a plan compiled
    later calls."""
    div, sqrt, atan = iv.div, iv.sqrt_interval, iv.atan_interval

    def checked_sqrt(a: Pair, _: Pair) -> Pair:
        # sqrt_interval clamps a negative lower end; here it would bound a
        # value that is undefined for part of the box.
        lo, hi = a
        if lo < 0.0:
            raise DomainError(f"sqrt of possibly-negative interval [{lo}, {hi}]")
        return sqrt(a)

    def atan_of_ratio(a: Pair, b: Pair) -> Pair:
        return atan(div(a, b))

    return {Add: iv.add, Sub: iv.sub, Mul: iv.mul, Div: div,
            Pow: iv.pow_int, Sqrt: checked_sqrt, Atan: atan_of_ratio}


def _decimal_pair(text: str) -> Pair:
    """A constant's enclosure as a plain (lo, hi) tuple."""
    return tuple(iv.from_decimal_string(text))


_new = tuple.__new__


class Evaluator(_Plan):
    """One flat interval evaluation plan for an expression at a fixed
    arity, and for the partial derivatives the queries ask for.

    The plan starts with f's slots.  A first partial df/dx_i, or a second
    partial d/dx_j(df/dx_i) with i <= j, is differentiated and its missing
    slots appended on first use; apart from that growth (deterministic)
    the evaluator is immutable.  Constants are read by
    `interval.from_decimal_string`.

    The plan runs on plain (lo, hi) tuples through the interval
    operations: the constants are preloaded as pairs, the box is loaded as
    pairs, and only the outputs of a query are typed as Interval.  A box is
    a sequence of (lo, hi) pairs, Intervals or plain tuples that would make
    valid Intervals.
    """

    def __init__(self, expr: Expr, arity: Optional[int] = None):
        if arity is not None and arity < 0:
            raise ValueError(f"arity must be >= 0, got {arity}")
        super().__init__(_interval_ops(), _decimal_pair)
        root = self._lower(expr)
        used = 1 + max((i for _, i in self._loads), default=-1)
        if arity is None:
            arity = used
        if used > arity:
            raise CompileError(f"expression uses x{used - 1} but arity is {arity}")
        self.arity = arity
        # derivative index: () is f, (i,) is df/dx_i, (i, j) is d/dx_j(df/dx_i)
        self._partials: dict[tuple[int, ...], tuple[Expr, int]] = {(): (expr, root)}
        self._schedules: dict[tuple[int, ...], list[int]] = {}

    def _slot(self, index: tuple[int, ...]) -> int:
        """Slot of the partial named by index, lowered on first use."""
        got = self._partials.get(index)
        if got is None:
            self._slot(index[:-1])
            e = differentiate(self._partials[index[:-1]][0], index[-1])
            got = self._partials[index] = (e, self._lower(e))
        return got[1]

    def plan_lines(self) -> list[str]:
        """Human-readable rendering of f's evaluation plan."""
        lines = []
        for s, node in enumerate(self.plan[:self._partials[()][1] + 1]):
            match node:
                case Const(text=t):
                    rhs = f"const {t}"
                case Var(index=i):
                    rhs = f"load x{i}"
                case Pow(base=a, exponent=k):
                    rhs = f"pow t{self._slots[a]}, {k}"
                case _:
                    args = ", ".join(f"t{self._slots[k]}" for k in _children(node))
                    rhs = f"{type(node).__name__.lower()} {args}"
            lines.append(f"t{s} = {rhs}")
        return lines

    # -- interval queries -------------------------------------------------

    def _schedule(self, outputs: tuple[int, ...]) -> list[int]:
        """The instruction slots the outputs depend on, in plan order."""
        order = self._schedules.get(outputs)
        if order is None:
            code, needed = self._code, set(outputs)
            for s in range(max(outputs, default=-1), -1, -1):
                if s in needed and code[s] is not None:
                    needed.update(code[s][1:])
            order = self._schedules[outputs] = [s for s in sorted(needed)
                                                if code[s] is not None]
        return order

    def _run(self, box: Sequence[Pair], outputs: tuple[int, ...]) -> list[Interval]:
        """Evaluate over the box exactly the instructions the output slots
        depend on, and no other; return the outputs' values."""
        vals = self._execute([(lo, hi) for lo, hi in box], self._schedule(outputs), outputs)
        return [_new(Interval, v) for v in vals]

    def value(self, box: Sequence[Pair]) -> Interval:
        """Containment-sound interval enclosure of the range over the box."""
        return self._run(box, (self._slot(()),))[0]

    def germ(self, box: Sequence[Pair]) -> TaylorGerm:
        """Interval value and gradient over the box: f and every first
        partial, evaluated together."""
        partials = [self._slot((i,)) for i in range(self.arity)]
        f, *df = self._run(box, (self._slot(()), *partials))
        return TaylorGerm(f, tuple(df))

    def germ_constants(self) -> None:
        """Evaluate the germ's instructions that read no variable.  They
        give the same values over every box, so an error raised here is
        raised by germ over every box."""
        outputs = (self._slot(()), *(self._slot((i,)) for i in range(self.arity)))
        varying = {s for s, _ in self._loads}
        for s, ins in enumerate(self._code):
            if ins is not None and (ins[1] in varying or ins[2] in varying):
                varying.add(s)
        order = [s for s in self._schedule(outputs) if s not in varying]
        self._execute([None] * self.arity, order, ())

    def hessian(self, box: Sequence[Pair],
                entries: Sequence[tuple[int, int]]) -> list[Interval]:
        """Enclosures of the listed second partials (i, j) over the whole
        box, from one pass over the instructions they need."""
        return self._run(box, tuple(self._slot((min(i, j), max(i, j))) for i, j in entries))

    def hessian_entry(self, box: Sequence[Pair], i: int, j: int) -> Interval:
        """Enclosure of the (i,j) second partial over the whole box."""
        return self.hessian(box, ((i, j),))[0]
