"""Exception types raised by the library, and the sweep failure policy.

CLI maps EpqedError subclasses to exit code 3 (numerical failure) and
ConfigError to exit code 2.
"""


class EpqedError(Exception):
    """Base class for all library errors."""


class ConfigError(EpqedError, ValueError):
    """Invalid experiment configuration."""


class InvalidCutoffError(EpqedError, ValueError):
    """Fock cutoff below the minimum of 2."""


class EmbedError(EpqedError, ValueError):
    """Operator dimension does not match the target slot."""


class BuildError(EpqedError, ValueError):
    """Layout and parameters are inconsistent."""


class AccuracyError(EpqedError, RuntimeError):
    """A result failed its accuracy check (trace drift, steady-state residual)."""


class DegenerateSteadyStateError(EpqedError, RuntimeError):
    """Liouvillian kernel is more than one-dimensional."""


class UndefinedPurcellError(EpqedError, ValueError):
    """Purcell factor requested with zero free-space rate."""


class DivergenceError(EpqedError, ValueError):
    """Closed-form expression diverges at the requested phase."""


class NoBicError(EpqedError, ValueError):
    """No bound state exists for the given coupling and decay rates."""


class FitError(EpqedError, RuntimeError):
    """Lineshape fit failed (no peak, bad data)."""


class RateUndefinedError(EpqedError, ValueError):
    """Decay-rate extraction impossible on the given window."""


class StatisticsUndefinedError(EpqedError, RuntimeError):
    """Photon statistics undefined because the mode population vanishes."""


class MemoryLimitError(EpqedError, MemoryError):
    """A dense array the request needs would not fit in physical memory."""


def each_point(values, fn) -> tuple[list, list]:
    """fn(float(v)) for each v, one sweep point at a time.

    A point that raises EpqedError or ValueError gives None in the returned
    list and an entry [v, "TypeName: message"] in the error list, and the
    sweep continues; any other exception propagates.
    """
    rows, errors = [], []
    for v in values:
        try:
            rows.append(fn(float(v)))
        except (EpqedError, ValueError) as exc:
            rows.append(None)
            errors.append([float(v), f"{type(exc).__name__}: {exc}"])
    return rows, errors
