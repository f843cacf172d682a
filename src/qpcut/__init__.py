"""Exact edge-weighted graph bisection via convex quadratic bounds.

The graph partitioning problem (split the vertices into two sets with one
side's size in [l, u], minimizing the total weight of crossing edges) is
solved exactly through a continuous quadratic program whose binary optima
coincide with minimum cuts.  Lower bounds come from DC decompositions with
certified diagonal shifts and best affine underestimates; the search is a
best-first branch and bound with constructive rounding for upper bounds.
"""

from . import bnb, bounds, graph, optimality, oracle, projgrad, qp, rounding
from .bnb import *  # noqa: F401,F403
from .bounds import *  # noqa: F401,F403
from .graph import *  # noqa: F401,F403
from .optimality import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .projgrad import *  # noqa: F401,F403
from .qp import *  # noqa: F401,F403
from .rounding import *  # noqa: F401,F403

__version__ = "0.1.0"

# each submodule's __all__ is the one list of its public names
__all__ = [
    name
    for module in (bnb, bounds, graph, optimality, oracle, projgrad, qp, rounding)
    for name in module.__all__
]
