"""Exceptions shared across the package."""


class NonzeroRemainder(ArithmeticError):
    """Polynomial division left a nonzero remainder."""


class NotSeparable(ValueError):
    """Operation requires a separable permutation."""


class Not231Avoiding(ValueError):
    """Operation requires a 231-avoiding permutation."""


class IncomparableEndpoints(ValueError):
    """Interval endpoints are not comparable in the weak order."""


class InternalInversionFailure(RuntimeError):
    """The pair reconstruction produced a pair that fails verification."""


class GuardExceeded(ValueError):
    """A resource guard refused the requested size or word count; every
    guarded entry point accepts force=True (--force) to override it."""


class CheckpointError(ValueError):
    """A survey checkpoint does not match the data on disk."""


class UsageError(ValueError):
    """An argument lies outside the range its command accepts; the CLI
    reports it as a usage error (exit code 2)."""
