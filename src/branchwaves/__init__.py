"""Numerical laboratory for traveling waves of a branching-growth
reaction-diffusion system: construction by shooting, verification against
closed-form identities, time-dependent simulation, and Evans-function
spectral analysis.

The package root exports exactly what each library module lists in its
`__all__`; the command-line layer, `branchwaves.cli`, is not imported here.
"""

from .model import *
from .analysis import *
from .odeint import *
from .wave import *
from .pde import *
from .spectral import *
from .acceptance import *
from .errors import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *model.__all__,
    *analysis.__all__,
    *odeint.__all__,
    *wave.__all__,
    *pde.__all__,
    *spectral.__all__,
    *acceptance.__all__,
    *errors.__all__,
]
