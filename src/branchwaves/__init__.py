"""Numerical laboratory for traveling waves of a branching-growth
reaction-diffusion system: construction by shooting, verification against
closed-form identities, time-dependent simulation, and Evans-function
spectral analysis."""

from .acceptance import CRITERION_NAMES, CriterionResult, run_all
from .analysis import (
    MassResiduals,
    Triangle,
    a_at_first_max,
    a_star,
    alpha_threshold,
    decay_rate,
    i_plus_infinity,
    limit_symmetry,
    mass_residuals,
    minimal_inactive_limit,
    triangle,
    triangle_contains,
)
from .errors import (
    BlowUpError,
    BudgetError,
    ContaminatedMeasurementError,
    ContourResolutionError,
    DomainError,
    InvalidSegmentError,
    NegativityError,
    NonConvergenceError,
    OscillatoryRegimeError,
    SplittingError,
)
from .model import (
    GeneralParams,
    Params,
    Scaling,
    WaveState,
    denormalize,
    general_wave_predictions,
    normalize,
    pde_rhs,
    wave_rhs,
)
from .odeint import Trajectory, integrate
from .pde import (
    FieldSeries,
    Grid,
    SpeedMeasurement,
    front_position,
    measure_speed,
    plateau,
    shape_misfit,
    simulate,
)
from .spectral import (
    SpectralSetup,
    Winding,
    contour_of_S,
    evans,
    evans_winding,
    limit_rates,
    make_setup,
    winding_number,
)
from .wave import (
    VerificationReport,
    WaveProfile,
    shoot_from_max,
    shoot_wave,
    verify_profile,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Params",
    "GeneralParams",
    "Scaling",
    "WaveState",
    "wave_rhs",
    "pde_rhs",
    "normalize",
    "denormalize",
    "general_wave_predictions",
    # analysis
    "Triangle",
    "MassResiduals",
    "minimal_inactive_limit",
    "decay_rate",
    "triangle",
    "triangle_contains",
    "i_plus_infinity",
    "alpha_threshold",
    "a_star",
    "a_at_first_max",
    "mass_residuals",
    "limit_symmetry",
    # integration
    "Trajectory",
    "integrate",
    # waves
    "WaveProfile",
    "VerificationReport",
    "shoot_wave",
    "shoot_from_max",
    "verify_profile",
    # pde
    "Grid",
    "FieldSeries",
    "SpeedMeasurement",
    "simulate",
    "front_position",
    "measure_speed",
    "plateau",
    "shape_misfit",
    # spectral
    "SpectralSetup",
    "Winding",
    "make_setup",
    "limit_rates",
    "evans",
    "evans_winding",
    "contour_of_S",
    "winding_number",
    # acceptance
    "CRITERION_NAMES",
    "CriterionResult",
    "run_all",
    # errors
    "DomainError",
    "OscillatoryRegimeError",
    "InvalidSegmentError",
    "NonConvergenceError",
    "NegativityError",
    "BudgetError",
    "BlowUpError",
    "ContaminatedMeasurementError",
    "SplittingError",
    "ContourResolutionError",
]
