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

`differentiate`, `to_text` and `FloatPlan` walk the expression
iteratively and memoise on nodes, so a long expression does not reach the
recursion limit and the derivative of a DAG is a DAG of linear size.
`differentiate` holds the only derivative rules.

`FloatPlan(exprs)` compiles expressions once into a flat plan of plain
binary64 operations, for fitting at test points; `evaluate_numeric` runs
a one-expression plan at one point.

`Evaluator(e, arity)` compiles an Expr into one flat evaluation plan that
starts with f's instructions, followed by those of the first partials and
the second partials (each the `differentiate` of the one before) as
queries first need them.  Each node occupies one slot, so a subexpression
shared by f, its gradient and its Hessian is evaluated once.  Each query --
interval value, value-and-gradient germ, the listed Hessian entries --
evaluates exactly the instructions its outputs depend on, in one pass.

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
from typing import Iterator, Optional, Sequence

from . import interval as iv
from .errors import CompileError, DomainError, ParseError
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
    Decided from the digits and the exponent, so no power of ten is built
    for a far exponent."""
    m = iv._DECIMAL_RE.match(text)
    if not m:
        return None
    sign, whole, frac, exp = m.groups(default="")
    body = (whole + frac).lstrip("0")
    digits = body.rstrip("0")
    if not digits:
        return 0
    scale = iv._decimal_exponent(exp) - len(frac) + len(body) - len(digits)
    # |value| >= 10**(len(digits) + scale - 1), as in interval._round_decimal
    if scale < 0 or len(digits) + scale > 310:
        return None
    return int(sign + digits) * 10**scale


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
# Parsing
# ---------------------------------------------------------------------------

_FUNCTIONS = ("sqrt", "atan", "pow")
_FLOAT_MAX = int(1.7976931348623157e308)
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
        # The digit count bounds the magnitude before int() reads the text.
        digits = num.lstrip("0") or "0"
        if len(digits) > 309 or int(digits) > _FLOAT_MAX:
            raise ParseError(
                f"pow exponent overflows binary64 at offset {kpos}", position=kpos
            )
        self.expect(")")
        return Pow(first, sign * int(digits))

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


_PREC = {Add: 1, Sub: 1, Mul: 2, Div: 2}   # every other node binds tightest (3)


def to_text(e: Expr) -> str:
    """Render an Expr in the same grammar `parse` accepts.  The walk is
    iterative and memoised on nodes, as in `differentiate`."""
    memo: dict[Expr, str] = {}

    def sub(node: Expr, parent_prec: int) -> str:
        s = memo[node]
        if isinstance(node, Const):
            wrap = s.startswith("-") and parent_prec >= 2
        else:
            wrap = _PREC.get(type(node), 3) < parent_prec
        return f"({s})" if wrap else s

    for node in _post_order(e, memo):
        match node:
            case Const(text=t):
                s = t
            case Var(index=i):
                s = f"x{i}"
            case Add(left=a, right=b):
                s = f"{sub(a, 1)} + {sub(b, 2)}"
            case Sub(left=a, right=b):
                s = f"{sub(a, 1)} - {sub(b, 2)}"
            case Mul(left=a, right=b):
                s = f"{sub(a, 2)}*{sub(b, 3)}"
            case Div(left=a, right=b):
                s = f"{sub(a, 2)}/{sub(b, 3)}"
            case Pow(base=a, exponent=k):
                s = f"pow({sub(a, 0)}, {k})"
            case Sqrt(arg=a):
                s = f"sqrt({sub(a, 0)})"
            case Atan(num=a, den=b):
                s = f"atan({sub(a, 0)}, {sub(b, 0)})"
            case _:
                raise TypeError(f"not an Expr node: {node!r}")
        memo[node] = s
    return sub(e, 0)


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
# Numeric (non-rigorous) evaluation, used for test points and oracles
# ---------------------------------------------------------------------------

def _sqrt(a: float, _: float) -> float:
    return math.sqrt(a)


def _atan(a: float, b: float) -> float:
    return math.atan(a / b)


_FLOAT_OPS = {Add: operator.add, Sub: operator.sub, Mul: operator.mul,
              Div: operator.truediv, Pow: operator.pow, Sqrt: _sqrt, Atan: _atan}


class FloatPlan:
    """Plain binary64 evaluation of several expressions, compiled once and
    run at any number of points.  No rigor claim; a run raises
    ArithmeticError or ValueError subclasses on domain violations.

    Slots hold the variables x0.. first, then the constants, then one
    value per operation, computed in the iterative post-order of the roots
    (children left to right, a shared node once), as `op(slot a, slot b)`:
    `x + y`, `x - y`, `x * y`, `x / y`, `x ** k` with the integer k in a
    constant slot, `math.sqrt(x)` and `math.atan(x / y)`.  Constants are
    read by `decimal_to_nearest_float` as the plan compiles, so one past
    binary64 raises ParseError here, not at a point."""

    def __init__(self, roots: Sequence[Expr]):
        order: dict[Expr, None] = {}   # every node, in post-order
        for root in roots:
            for node in _post_order(root, order):
                order[node] = None
        self.arity = 1 + max((n.index for n in order if isinstance(n, Var)), default=-1)
        slot: dict = {n: n.index for n in order if isinstance(n, Var)}
        self._consts: list = []
        for leaf in [n for n in order if isinstance(n, Const)] + sorted(
                {n.exponent for n in order if isinstance(n, Pow)}):
            slot[leaf] = self.arity + len(self._consts)
            self._consts.append(iv.decimal_to_nearest_float(leaf.text)
                                if isinstance(leaf, Const) else leaf)
        self._code: list[tuple] = []
        for node in order:
            kids = _children(node)
            if kids:
                b = node.exponent if isinstance(node, Pow) else kids[-1]
                slot[node] = self.arity + len(self._consts) + len(self._code)
                self._code.append((_FLOAT_OPS[type(node)], slot[kids[0]], slot[b]))
        self._outputs = [slot[root] for root in roots]

    def __call__(self, point: Sequence[float]) -> list:
        """The roots' values at the point (coordinates past the arity are
        ignored)."""
        if len(point) < self.arity:
            raise IndexError(f"point has {len(point)} coordinates, the plan reads {self.arity}")
        vals = [*point[:self.arity], *self._consts]
        append = vals.append
        for op, a, b in self._code:
            append(op(vals[a], vals[b]))
        return [vals[s] for s in self._outputs]


def evaluate_numeric(e: Expr, point: Sequence[float]) -> float:
    """Plain binary64 evaluation of one expression at one point, by its
    FloatPlan."""
    return FloatPlan((e,))(point)[0]


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

_OPCODES = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV, Sqrt: _SQRT, Atan: _ATAN}

# Deepest expression (in plan instructions) that compiles.
MAX_DEPTH = 500


class Evaluator:
    """One flat evaluation plan for an expression at a fixed arity, and for
    the partial derivatives the queries ask for.

    The plan starts with f's instructions.  A first partial df/dx_i, or a
    second partial d/dx_j(df/dx_i) with i <= j, is differentiated and its
    missing instructions appended on first use; apart from that growth
    (deterministic) the evaluator is immutable.
    """

    def __init__(self, expr: Expr, arity: Optional[int] = None):
        self.plan: list[tuple] = []
        self._args: list[tuple[int, ...]] = []   # operand slots per instruction
        self._varying: list[bool] = []           # per slot: reads some variable
        self._seen: dict[Expr, int] = {}         # node -> slot
        root = self._emit(expr)
        used = 1 + max((ins[1] for ins in self.plan if ins[0] == _VAR), default=-1)
        if arity is None:
            arity = used
        if used > arity:
            raise CompileError(f"expression uses x{used - 1} but arity is {arity}")
        depth: list[int] = []
        for args in self._args:
            depth.append(1 + max((depth[a] for a in args), default=0))
        if depth[root] > MAX_DEPTH:
            raise CompileError(f"expression depth exceeds limit {MAX_DEPTH}")
        self.arity = arity
        # derivative index: () is f, (i,) is df/dx_i, (i, j) is d/dx_j(df/dx_i)
        self._partials: dict[tuple[int, ...], tuple[Expr, int]] = {(): (expr, root)}
        self._schedules: dict[tuple[int, ...], list[int]] = {}

    # -- plan construction ----------------------------------------------

    def _emit(self, root: Expr) -> int:
        """Append the instructions root needs that the plan lacks; return
        root's slot."""
        seen = self._seen
        for node in _post_order(root, seen):
            args = tuple(seen[k] for k in _children(node))
            match node:
                case Const(text=t):
                    # Read before the slot is taken: a failed read leaves none.
                    ins = (_CONST, iv.from_decimal_string(t), t)
                case Var(index=i):
                    ins = (_VAR, i)
                case Pow(exponent=k):
                    ins = (_POW, args[0], k)
                case Add() | Sub() | Mul() | Div() | Sqrt() | Atan():
                    ins = (_OPCODES[type(node)], *args)
                case _:
                    raise TypeError(f"not an Expr node: {node!r}")
            seen[node] = len(self.plan)
            self.plan.append(ins)
            self._args.append(args)
            self._varying.append(ins[0] == _VAR or any(self._varying[a] for a in args))
        return seen[root]

    def _slot(self, index: tuple[int, ...]) -> int:
        """Slot of the partial named by index, emitted on first use."""
        got = self._partials.get(index)
        if got is None:
            self._slot(index[:-1])
            e = differentiate(self._partials[index[:-1]][0], index[-1])
            got = self._partials[index] = (e, self._emit(e))
        return got[1]

    def plan_lines(self) -> list[str]:
        """Human-readable rendering of f's evaluation plan."""
        lines = []
        for idx, ins in enumerate(self.plan[:self._partials[()][1] + 1]):
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

    def _schedule(self, outputs: tuple[int, ...]) -> list[int]:
        """The slots the outputs depend on, in plan order."""
        order = self._schedules.get(outputs)
        if order is None:
            needed = set(outputs)
            for s in range(max(outputs, default=-1), -1, -1):
                if s in needed:
                    needed.update(self._args[s])
            order = self._schedules[outputs] = sorted(needed)
        return order

    def _run(self, box: Sequence[Interval], outputs: tuple[int, ...]) -> list[Interval]:
        """Evaluate over the box exactly the instructions the output slots
        depend on, and no other; return the outputs' values."""
        order = self._schedules.get(outputs) or self._schedule(outputs)
        plan = self.plan
        vals: list = [None] * len(plan)
        for s in order:
            ins = plan[s]
            op = ins[0]
            if op == _CONST:
                vals[s] = ins[1]
            elif op == _VAR:
                vals[s] = box[ins[1]]
            elif op == _ADD:
                vals[s] = iv.add(vals[ins[1]], vals[ins[2]])
            elif op == _SUB:
                vals[s] = iv.sub(vals[ins[1]], vals[ins[2]])
            elif op == _MUL:
                vals[s] = iv.mul(vals[ins[1]], vals[ins[2]])
            elif op == _DIV:
                vals[s] = iv.div(vals[ins[1]], vals[ins[2]])
            elif op == _POW:
                vals[s] = iv.pow_int(vals[ins[1]], ins[2])
            elif op == _SQRT:
                # sqrt_interval clamps a negative lower end; here it would
                # bound a value that is undefined for part of the box.
                arg = vals[ins[1]]
                if arg.lo < 0.0:
                    raise DomainError(
                        f"sqrt of possibly-negative interval [{arg.lo}, {arg.hi}]")
                vals[s] = iv.sqrt_interval(arg)
            else:
                vals[s] = iv.atan_interval(iv.div(vals[ins[1]], vals[ins[2]]))
        return [vals[s] for s in outputs]

    def value(self, box: Sequence[Interval]) -> Interval:
        """Containment-sound interval enclosure of the range over the box."""
        return self._run(box, (self._slot(()),))[0]

    def germ(self, box: Sequence[Interval]) -> TaylorGerm:
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
        self._run((), tuple(s for s in self._schedule(outputs) if not self._varying[s]))

    def hessian(self, box: Sequence[Interval],
                entries: Sequence[tuple[int, int]]) -> list[Interval]:
        """Enclosures of the listed second partials (i, j) over the whole
        box, from one pass over the instructions they need."""
        return self._run(box, tuple(self._slot((min(i, j), max(i, j))) for i, j in entries))

    def hessian_entry(self, box: Sequence[Interval], i: int, j: int) -> Interval:
        """Enclosure of the (i,j) second partial over the whole box."""
        return self.hessian(box, ((i, j),))[0]
