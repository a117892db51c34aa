"""Exception types shared across the package."""


class DvlgError(Exception):
    """Base class for all library errors."""


class LengthMismatch(DvlgError):
    pass


class WidthMismatch(DvlgError):
    pass


class PatchPreconditionViolated(DvlgError):
    pass


class SplitPreconditionViolated(DvlgError):
    pass


class NegativeInput(DvlgError):
    pass


class BadLength(DvlgError):
    pass


class EmptyInput(DvlgError):
    pass


class PreconditionViolated(DvlgError):
    pass


class FormulaSyntaxError(DvlgError):
    """Raised by the parser; carries the offending position."""

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class SortError(DvlgError):
    """Ill-sorted term or formula; names the offending subterm."""


class UnboundVariable(DvlgError):
    pass


class BadArgument(DvlgError):
    """A command-line value that does not fit: an --env assignment with a
    vector of the wrong length or an index out of range, a -n below 1, a
    --limits value that is not an integer, or malformed --args operands."""


class ResourceLimit(DvlgError):
    pass


class NotLatticeSorted(DvlgError):
    pass


class NotSentence(DvlgError):
    pass


class DepthExceeded(DvlgError):
    pass


class NotPrimitive(DvlgError):
    pass


class UnsupportedFragment(DvlgError):
    """tplus-mode reduction met a group quantifier over a lattice-quantified
    scope that mentions the group variable."""
