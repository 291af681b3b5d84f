"""Rank-based mutual information and entropy estimation under the
Gaussian copula (nonparanormal) model.

Every name in a module's ``__all__`` is importable from the package.
"""

__version__ = "0.1.0"

from . import errors, matrix_core, rank_stats, estimators, simulation
from .errors import *
from .matrix_core import *
from .rank_stats import *
from .estimators import *
from .simulation import *

__all__ = ["__version__"] + [
    name
    for module in (errors, matrix_core, rank_stats, estimators, simulation)
    for name in module.__all__
]
