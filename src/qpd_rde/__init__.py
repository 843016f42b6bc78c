"""Risk-dominant equilibrium selection for 2x2 dilemmas and the EWL quantum PD.

Each library module's ``__all__`` is its public surface; the package re-exports them.
"""

from .game_core import *
from .risk_dominance import *
from .ewl import *
from .quantum_rde import *
from . import errors

__version__ = "0.5.23"
