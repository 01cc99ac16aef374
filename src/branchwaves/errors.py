"""Exception types shared across the library.

Each class has one kind for its base, `RegimeError`, `ResolutionError` or
`BlowUpError`; `branchwaves.cli._EXIT_TABLE` maps each kind to an exit status.
"""

__all__ = ["RegimeError", "ResolutionError", "DomainError", "OscillatoryRegimeError",
           "InvalidSegmentError", "NonConvergenceError", "NegativityError", "BudgetError",
           "BlowUpError", "PositivityError", "ContaminatedMeasurementError", "SplittingError",
           "ContourResolutionError"]


class RegimeError(Exception):
    """The parameters lie outside the regime where the operation is defined."""


class ResolutionError(Exception):
    """An admissible problem that the solver could not resolve."""


class DomainError(RegimeError, ValueError):
    """An argument lies outside the operation's mathematical domain."""


class OscillatoryRegimeError(DomainError):
    """The discriminant c^2/4 + i - 1 is negative: a decay-rate formula
    evaluated there, or a shot that settles there (no non-negative wave)."""


class InvalidSegmentError(ResolutionError, ValueError):
    """Profile segment endpoints violate the b = 0 requirement."""


class _Partial(RuntimeError):
    """A failure that carries what was computed up to it: a trajectory or a series, or None."""

    def __init__(self, message, trajectory=None, series=None):
        super().__init__(message)
        self.trajectory, self.series = trajectory, series


class NonConvergenceError(ResolutionError, _Partial):
    """Integration stopped early (step underflow or step-count cap), or a
    shot cannot be made or measured: its seed lands at i <= 1, it settles at
    i >= 1, or a tail holds too few samples to fit its rate.

    Carries the trajectory: the partial one, the whole shot, or none.
    """


class NegativityError(RegimeError, _Partial):
    """Active density dipped below the negativity threshold while shooting.

    Expected behavior in the oscillatory regime, where no non-negative
    wave exists. Carries the offending abscissa and value, plus the
    trajectory up to detection.
    """

    def __init__(self, message, z=None, value=None, trajectory=None):
        super().__init__(message, trajectory)
        self.z, self.value = z, value


class BudgetError(ResolutionError, _Partial):
    """No first maximum (or no convergence) within the z budget; carries the trajectory."""


class BlowUpError(_Partial):
    """Non-finite fields or a broken mass balance in a simulation; carries the last good series."""


class PositivityError(ResolutionError, _Partial):
    """A simulation snapshot's A is negative past round-off; carries the last good series."""


class ContaminatedMeasurementError(ResolutionError, RuntimeError):
    """Front came too close to the domain boundary during measurement."""


class SplittingError(RegimeError, RuntimeError):
    """Eigenvalue splitting margin violated at a spectral parameter."""


class ContourResolutionError(ResolutionError, RuntimeError):
    """Winding-number refinement exhausted its subdivision levels."""
