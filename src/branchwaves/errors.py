"""Exception types shared across the library.

Grouped here so the command-line layer can map each failure mode to a
stable exit status in one table, `branchwaves.cli._EXIT_TABLE`.
"""

__all__ = ["DomainError", "OscillatoryRegimeError", "InvalidSegmentError", "NonConvergenceError",
           "NegativityError", "BudgetError", "BlowUpError", "PositivityError",
           "ContaminatedMeasurementError", "SplittingError", "ContourResolutionError"]


class DomainError(ValueError):
    """An argument lies outside the operation's mathematical domain."""


class OscillatoryRegimeError(DomainError):
    """The discriminant c^2/4 + i - 1 is negative: a decay-rate formula
    evaluated there, or a shot that settles there (no non-negative wave)."""


class InvalidSegmentError(ValueError):
    """Profile segment endpoints violate the b = 0 requirement."""


class NonConvergenceError(RuntimeError):
    """Integration stopped early (step underflow or step-count cap), or a
    shot cannot be made or measured: its seed lands at i <= 1, it settles at
    i >= 1, or a tail holds too few samples to fit its rate.

    Carries the trajectory: the partial one, the whole shot, or none.
    """

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class NegativityError(RuntimeError):
    """Active density dipped below the negativity threshold while shooting.

    Expected behavior in the oscillatory regime, where no non-negative
    wave exists. Carries the offending abscissa and value, plus the
    trajectory up to detection.
    """

    def __init__(self, message, z=None, value=None, trajectory=None):
        super().__init__(message)
        self.z = z
        self.value = value
        self.trajectory = trajectory


class BudgetError(RuntimeError):
    """No first maximum (or no convergence) within the z budget."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class BlowUpError(RuntimeError):
    """Non-finite fields or a broken mass balance in a simulation; carries the last good series."""

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class PositivityError(RuntimeError):
    """A simulation snapshot's A is negative past round-off; carries the last good series."""

    def __init__(self, message, series=None):
        super().__init__(message)
        self.series = series


class ContaminatedMeasurementError(RuntimeError):
    """Front came too close to the domain boundary during measurement."""


class SplittingError(RuntimeError):
    """Eigenvalue splitting margin violated at a spectral parameter."""


class ContourResolutionError(RuntimeError):
    """Winding-number refinement exhausted its subdivision levels."""
