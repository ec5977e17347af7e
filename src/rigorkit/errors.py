"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError/TypeError programming error.
Interval arithmetic fails in one way, an IntervalError; the places that
turn such a failure into a verdict (the prover's cell step and the geom
checks) catch that one class.
"""


class RigorError(Exception):
    """Base class for all toolkit-specific errors."""


class IntervalError(RigorError):
    """Interval arithmetic could not enclose a result, so no claim is made.

    The interval operations, and the evaluation plans built on them, raise
    only its three subclasses: NonFiniteOperand, DivisionByZeroInterval and
    DomainError.
    """


class NonFiniteOperand(IntervalError):
    """Arithmetic was attempted on an interval with an infinite endpoint.

    Infinite endpoints are allowed only for constraint-bound bookkeeping;
    full arithmetic on them is a construction error.
    """


class DivisionByZeroInterval(IntervalError):
    """The denominator interval contains zero."""


class DomainError(IntervalError):
    """Operand lies outside the mathematical domain (e.g. sqrt of a
    certainly-negative interval)."""


class ParseError(RigorError):
    """Malformed textual input.  `position` is a character offset when the
    input is a single expression/numeral, or a line number for files."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CompileError(RigorError):
    """Expression uses a variable past the evaluator's arity."""


class AugmentationError(RigorError):
    """K-t augmentation precondition violated (0 outside a variable's
    bounds, so x=0 would not be feasible-compatible)."""


class BranchError(RigorError):
    """Branching was requested on an unknown domain, a slot out of range,
    or a degenerate box component."""


class NoProgress(RigorError):
    """The approximate LP solver stalled or reported failure; certify with
    externally supplied duals instead."""


class PivotInfeasible(RigorError):
    """An extremal configuration cannot be built: a squared distance or
    height it needs is certainly negative."""
