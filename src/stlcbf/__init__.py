"""Temporal-task control barrier functions for multi-agent systems.

Compiles a fragment of signal temporal logic into time-varying control
barrier functions, tunes the barrier parameters offline, runs a decentralized
min-norm control law under bounded disturbances, and checks the resulting
trajectories with an independent robustness monitor.

Each module's __all__ is the one list of its public names; the package
exports their union.  The star import from .robustness rebinds the attribute
stlcbf.robustness from the submodule to the function.
"""

import sys

from .predicates import *
from .formula import *
from .parsing import *
from .robustness import *
from .barrier import *
from .param_search import *
from .controller import *
from .sim import *
from .config import *
from .demo import *

_MODULES = ("predicates", "formula", "parsing", "robustness", "barrier",
            "param_search", "controller", "sim", "config", "demo")

__all__ = [name for mod in _MODULES for name in sys.modules[f"{__name__}.{mod}"].__all__]

__version__ = "0.1.0"
