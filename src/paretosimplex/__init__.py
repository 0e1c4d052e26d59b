"""Pareto efficiency analysis for linear criteria on the probability simplex.

Given a matrix whose rows score the columns under several criteria, this
package decides whether a mixed strategy (a point of the probability
simplex) is Pareto efficient, produces strictly positive weight vectors
as certificates, enumerates the efficient vertices and open faces, and
cross-checks verdicts with an independent dominance program.
"""

from . import core, efficiency, enumeration, lp, oracle, scalarize
from .core import *
from .efficiency import *
from .enumeration import *
from .lp import *
from .oracle import *
from .scalarize import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *efficiency.__all__, *enumeration.__all__, *lp.__all__, *oracle.__all__, *scalarize.__all__
]
