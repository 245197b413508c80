"""Exceptions shared across the package."""


class DomainError(ValueError):
    """A mathematically invalid request: bad ring parameters, reducible
    modulus, non-semisimple ambient, zero-divisor inversion, and so on."""


class BudgetExceeded(RuntimeError):
    """An exact enumeration would exceed the configured work budget."""


class InternalError(RuntimeError):
    """A broken internal invariant: a bug in this library, not in the request."""
