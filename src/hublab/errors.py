"""Exception types raised by the library.

Everything derives from :class:`HubLabError` so callers can catch
one base class; most are also ValueErrors because they signal bad
inputs rather than internal failures.
"""


class HubLabError(Exception):
    pass


class ZeroVector(HubLabError, ValueError):
    """A row that should be normalizable has (near-)zero norm."""

    def __init__(self, row: int):
        self.row = row
        super().__init__(f"row {row} has near-zero norm and cannot be normalized")


class DimensionMismatch(HubLabError, ValueError):
    pass


class ShapeMismatch(HubLabError, ValueError):
    pass


class LengthMismatch(HubLabError, ValueError):
    pass


class BatchTooLarge(HubLabError, ValueError):
    pass


class NotUnitNorm(HubLabError, ValueError):
    """Rows that must be unit-normalized are not."""


class EmptyBank(HubLabError, ValueError):
    pass


class NonPositiveKappa(HubLabError, ValueError):
    pass


class NonSquareBatch(HubLabError, ValueError):
    pass


class NonSquarePlan(HubLabError, ValueError):
    pass


class InconsistentTargets(HubLabError, ValueError):
    pass


class MissingPart(HubLabError, ValueError):
    pass


class NotConverged(HubLabError, RuntimeError):
    """Sinkhorn residual stayed far above tolerance at the iteration cap."""

    def __init__(self, residual: float, tol: float):
        self.residual = residual
        self.tol = tol
        super().__init__(f"marginal residual {residual:.3e} exceeds 100x tol {tol:.3e}")


class KTooLarge(HubLabError, ValueError):
    pass


class MissingLabels(HubLabError, ValueError):
    pass


class AllZero(HubLabError, ValueError):
    pass


class ZeroMean(HubLabError, ValueError):
    pass


class ZeroTotal(HubLabError, ValueError):
    pass


class InvalidClusterCount(HubLabError, ValueError):
    pass


class InvalidFraction(HubLabError, ValueError):
    pass


class NoRelevant(HubLabError, ValueError):
    pass


class DivergenceDetected(HubLabError, RuntimeError):
    pass


class FormatError(HubLabError, ValueError):
    pass


class ConfigError(HubLabError, ValueError):
    pass


class DegenerateDistribution(UserWarning):
    """Warning flag: a statistic was forced to 0 because the spread vanished."""
