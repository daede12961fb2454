"""Exact SU(2) Yang-Mills plane waves: construction, residuals, verification."""

from .su2 import *
from .fields import *
from .residuals import *
from .constraints import *
from .observables import *
from . import constraints, fields, observables, residuals, su2

__version__ = "0.1.0"

# each module's __all__ in import order, a re-exported name once
__all__ = [*dict.fromkeys(name for module in (su2, fields, residuals, constraints, observables)
                          for name in module.__all__), "__version__"]
