"""Exact pure Nash equilibria for congestion games on integral polymatroids.

Players split integer demands over shared resources subject to player-
specific submodular capacity constraints; each unit on a resource pays a
player-specific, load-dependent price. The solver inserts demand units one
at a time and settles after each insertion through single-unit best-response
moves, always in exact integer arithmetic. A brute-force oracle, instance
generators, JSON serialization, and a CLI round out the package.
"""

from .bestresponse import *
from .errors import *
from .game import *
from .generators import *
from .oracle import *
from .rank import *
from .serialize import *
from .solver import *
from . import bestresponse, errors, game, generators, oracle, rank, serialize, solver

__version__ = "0.1.0"

# each module's __all__ declares its public names; the package is their union
__all__ = sorted(
    name
    for module in (bestresponse, errors, game, generators, oracle, rank, serialize, solver)
    for name in module.__all__
)
