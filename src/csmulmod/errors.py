"""Exception types shared across the package."""


class ContractViolation(ValueError):
    """Raised when a caller-supplied value breaks a documented precondition.

    The message names the violated condition, e.g. ``"A < R violated"``.
    """


class InvariantViolation(RuntimeError):
    """Raised when an internal algorithm invariant fails.

    Reaching this exception means the implementation (or a deliberately
    tampered parameter set) broke a property the algorithm guarantees,
    not that the caller passed bad input.
    """
