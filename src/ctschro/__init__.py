"""Numerical laboratory for dispersive evolution with complex-time damping
sampled along Hölder curves: propagation, maximal fields, scaling-exponent
measurements, kernel bounds, and the sharp-exponent atlas."""

__version__ = "0.1.0"

# the public names are each module's __all__, listed there alone
from . import atlas, domain, evolve, kernel, maximal
from .atlas import *  # noqa: F401,F403
from .domain import *  # noqa: F401,F403
from .evolve import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .maximal import *  # noqa: F401,F403

__all__ = [*atlas.__all__, *domain.__all__, *evolve.__all__,
           *kernel.__all__, *maximal.__all__]
