"""Exception types shared across the library.

Everything raised on a violated mathematical precondition derives from
:class:`PreconditionError`, so callers (and the CLI) can distinguish
"you asked for something impossible" from programming errors.  A
:class:`VerificationError` means the library's own check of a result it
computed failed: a defect, not a bad request.
"""


class GroupfftError(Exception):
    """Base class for all library errors."""


class PreconditionError(GroupfftError):
    """A documented precondition of an operation does not hold."""


class RingMismatch(PreconditionError):
    """Operands belong to different coefficient rings."""


class NotInvertible(PreconditionError):
    """Attempted to invert a non-unit (usually zero, or p | denominator)."""


class NoRootOfUnity(PreconditionError):
    """The field does not contain a primitive root of unity of the requested order."""


class VerificationError(GroupfftError):
    """A computed result failed the library's own check of its identity."""
