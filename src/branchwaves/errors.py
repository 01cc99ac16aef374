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


class _Partial(RuntimeError):
    """A failure that carries what was computed up to it: a trajectory or a series, or None."""

    def __init__(self, message, trajectory=None, series=None):
        super().__init__(message)
        self.trajectory, self.series = trajectory, series


class NonConvergenceError(_Partial):
    """Integration stopped early (step underflow or step-count cap), or a
    shot cannot be made or measured: its seed lands at i <= 1, it settles at
    i >= 1, or a tail holds too few samples to fit its rate.

    Carries the trajectory: the partial one, the whole shot, or none.
    """


class NegativityError(_Partial):
    """Active density dipped below the negativity threshold while shooting.

    Expected behavior in the oscillatory regime, where no non-negative
    wave exists. Carries the offending abscissa and value, plus the
    trajectory up to detection.
    """

    def __init__(self, message, z=None, value=None, trajectory=None):
        super().__init__(message, trajectory)
        self.z, self.value = z, value


class BudgetError(_Partial):
    """No first maximum (or no convergence) within the z budget; carries the trajectory."""


class BlowUpError(_Partial):
    """Non-finite fields or a broken mass balance in a simulation; carries the last good series."""


class PositivityError(_Partial):
    """A simulation snapshot's A is negative past round-off; carries the last good series."""


class ContaminatedMeasurementError(RuntimeError):
    """Front came too close to the domain boundary during measurement."""


class SplittingError(RuntimeError):
    """Eigenvalue splitting margin violated at a spectral parameter."""


class ContourResolutionError(RuntimeError):
    """Winding-number refinement exhausted its subdivision levels."""
