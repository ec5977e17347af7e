"""Exception types shared across the toolkit.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError/TypeError programming error.
"""


class RigorError(Exception):
    """Base class for all toolkit-specific errors."""


class NonFiniteOperand(RigorError):
    """Arithmetic was attempted on an interval with an infinite endpoint.

    Infinite endpoints are allowed only for constraint-bound bookkeeping;
    full arithmetic on them is a construction error.
    """


class DivisionByZeroInterval(RigorError):
    """The denominator interval contains zero."""


class DomainError(RigorError):
    """Operand lies outside the mathematical domain (e.g. sqrt of a
    certainly-negative interval)."""


class ParseError(RigorError):
    """Malformed textual input.  `position` is a character offset when the
    input is a single expression/numeral, or a line number for files."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


class CompileError(RigorError):
    """Expression cannot be compiled (e.g. depth limit exceeded)."""


class BoundUnavailable(RigorError):
    """Interval evaluation failed over this box (e.g. a denominator
    straddles zero).  Callers treat the bound as +inf."""


class AugmentationError(RigorError):
    """K-t augmentation precondition violated (0 outside a variable's
    bounds, so x=0 would not be feasible-compatible)."""


class BranchError(RigorError):
    """Branching was requested on a degenerate box component."""


class NoProgress(RigorError):
    """The approximate LP solver stalled or reported failure; certify with
    externally supplied duals instead."""


class PivotInfeasible(RigorError):
    """An extremal configuration cannot be built: a squared distance or
    height it needs is certainly negative."""
