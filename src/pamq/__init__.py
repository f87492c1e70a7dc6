"""Symbol error probability of PAM receivers with low-resolution ADCs
over Nakagami-m fading: exact analysis, Monte Carlo validation, design
optimization, and decay-exponent asymptotics. Each module's ``__all__``
is its public API, and the package re-exports all of them.
"""
__version__ = "1.0.0"

from . import asymptotics, detector, montecarlo, optimizer, sep, specfun, system
from .asymptotics import *  # noqa: F401,F403
from .detector import *  # noqa: F401,F403
from .montecarlo import *  # noqa: F401,F403
from .optimizer import *  # noqa: F401,F403
from .sep import *  # noqa: F401,F403
from .specfun import *  # noqa: F401,F403
from .system import *  # noqa: F401,F403

__all__ = ["__version__", *system.__all__, *specfun.__all__, *detector.__all__, *sep.__all__,
           *montecarlo.__all__, *optimizer.__all__, *asymptotics.__all__]
