"""Intensity estimation for substationary spatial point processes.

A point process is substationary in a 1-D subspace when its distribution
is invariant under shifts along that subspace; the first-order intensity
then depends only on the orthogonal coordinate.  This package estimates
the invariance direction by profile composite likelihood, estimates the
intensity by a boundary-corrected 1-D kernel smoother on the orthogonal
coordinate, and ships seeded Poisson and cluster-process simulators plus
a Monte Carlo harness for the accompanying replication tables.
"""

from . import estimate, experiments, geometry, io, kernels, simulate
from .estimate import *  # noqa: F403
from .experiments import *  # noqa: F403
from .geometry import *  # noqa: F403
from .io import *  # noqa: F403
from .kernels import *  # noqa: F403
from .simulate import *  # noqa: F403

# each module's own __all__, once each: a name is public where it is defined
_MODULES = (estimate, experiments, geometry, io, kernels, simulate)
__all__ = list(dict.fromkeys(name for module in _MODULES for name in module.__all__))
__version__ = "0.1.0"
