"""Exception hierarchy shared across the package.

``ValidationError`` and its subclasses signal bad user input (CLI exit
code 2). ``InternalInvariantError`` signals a broken algorithm invariant
and should never surface on valid input (CLI exit code 1).
"""


class BifairError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(BifairError):
    """Raised when user-supplied input fails validation."""


class MalformedMatroidError(ValidationError):
    """Raised when an explicit rank table is incomplete or inconsistent."""


class SizeLimitError(ValidationError):
    """Raised when an exhaustive computation would exceed its size cap."""


class UnsupportedCriterionError(ValidationError):
    """Raised for criterion parameters outside the supported range."""


class PreconditionError(BifairError):
    """Raised when an operation is called on state that violates its contract."""


class InternalInvariantError(BifairError):
    """Raised when a runtime invariant check fails; indicates a bug."""


class FrozenInstanceError(BifairError, AttributeError):
    """Raised on assigning or deleting an attribute of a frozen record."""
