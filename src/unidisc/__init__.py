"""Perfect discrimination of bipartite product unitaries.

Decides whether finite sets of product unitaries U_i = A_i (x) B_i can be
told apart perfectly under four strategy classes (global/local probes,
restricted/adaptive orderings), produces verifiable protocol witnesses and
infeasibility certificates, and bundles the concrete families and see-saw
searches used by the acceptance suite.
"""

from . import checker, eigdist, families, jsonio, probefeas, protocols, qcore, seesaw, separable
from .qcore import *
from .checker import *
from .eigdist import *
from .probefeas import *
from .protocols import *
from .separable import *
from .seesaw import *

__version__ = "0.1.0"

_MODULES = (qcore, checker, eigdist, probefeas, protocols, separable, seesaw)
__all__ = [name for module in _MODULES for name in module.__all__] + ["families", "jsonio"]
