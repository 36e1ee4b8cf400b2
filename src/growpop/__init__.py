"""Mean-interaction opinion dynamics with a growing population.

A simulation and numerical-analysis toolkit for symmetric averaging dynamics
in which new agents arrive on a deterministic schedule: exact integrators
between arrivals, closed-form arrival jump laws, condition sums and integral
transforms that decide consensus, envelope bounds for decayed recursions, and
reproducible parallel Monte Carlo.

The package republishes the public names of its modules: each module's
``__all__`` is the one list of what it makes public.
"""

from . import analysis, dynamics, kernels, montecarlo, observables, schedules, sources
from .kernels import *
from .schedules import *
from .sources import *
from .observables import *
from .dynamics import *
from .analysis import *
from .montecarlo import *

__version__ = "0.1.0"

__all__ = [name for module in (kernels, schedules, sources, observables, dynamics, analysis,
                               montecarlo) for name in module.__all__]
