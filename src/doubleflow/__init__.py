"""Numerics for flows on the double group SL(2,C) = SU(2)·SB(2,C).

Quadratic Poisson bracket tables, Iwasawa factorizations, Legendre maps, and
closed-form quadrature flows, each cross-checked against an independent
fixed-step RK4 oracle, except momenta_su2's, whose field takes the flow's own
generator L and so does not check L's off-diagonal term.  The package exports
the `__all__` of each module below; `cli` stays out, so importing the package
loads neither it nor scipy.
"""

from . import dynamics, groups, poisson, quadrature, verify
from .dynamics import *  # noqa: F403
from .groups import *  # noqa: F403
from .poisson import *  # noqa: F403
from .quadrature import *  # noqa: F403
from .verify import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [*dynamics.__all__, *groups.__all__, *poisson.__all__, *quadrature.__all__,
           *verify.__all__, "__version__"]
