"""Codes over paired binary words under the asymmetric Lee distance.

The package bundles the metric itself, exact sphere and ball counting,
exact rational linear programming, two upper-bound frameworks (a
covering LP over distance balls and a character-sum LP), several code
constructions with decoders, and brute-force search utilities used to
sandwich the optimal code sizes at small lengths.
"""

from .core import *
from .balls import *
from .lp import *
from .hyperbound import *
from .delsarte import *
from .codes import *
from .search_verify import *
from . import balls, codes, core, delsarte, hyperbound, lp, search_verify

__all__ = (core.__all__ + balls.__all__ + lp.__all__ + hyperbound.__all__
           + delsarte.__all__ + codes.__all__ + search_verify.__all__)
