"""Exception types shared across the package."""


class BellprocError(Exception):
    """Base class for all bellproc errors."""


class ParameterError(BellprocError, ValueError):
    """A parameter violates its domain (nonpositive rate, lambda outside
    (0, 1], argument outside the principal branch, ...)."""


class RangeError(ParameterError, OverflowError):
    """A closed form's finite value lies past the largest double, so it
    cannot be returned; an OverflowError too, as that is what such a
    value raises in plain float arithmetic."""


class IncompatibleParametersError(BellprocError, ValueError):
    """Two laws or paths cannot be combined: the family is closed under
    sums only when the scale parameter theta and the order lambda agree."""


class ConvergenceError(BellprocError, RuntimeError):
    """A series or table expansion hit its cap before the requested
    tolerance could be certified."""


class TailSliverError(BellprocError):
    """A quantile request fell beyond the certified coverage of a
    truncated table (probability at most the table's tail mass)."""
