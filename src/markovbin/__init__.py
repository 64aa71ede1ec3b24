"""Markov binomial distributions: exact laws, moment-matched negative
binomial / binomial approximations, fully explicit total-variation error
bounds, and numerical verification of the inequalities behind them.

Each layer module's ``__all__`` is its public API; the package re-exports
them, in pipeline order."""

from . import bounds, core, coupling, fit, stein
from .core import *
from .fit import *
from .bounds import *
from .stein import *
from .coupling import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *fit.__all__, *bounds.__all__, *stein.__all__, *coupling.__all__, "__version__"
]
