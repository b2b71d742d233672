"""Exact rational preimages of the combinatorial Laplacian on growing balls.

A graph is given lazily through a neighbor oracle; targets and diagonal
weights are rational-valued.  Two constructions are provided: a direct
per-ball solve of the truncated operator, and a coherent family obtained by
stabilizing chains of solution-set images.  All arithmetic is exact.

Each module below declares its public names in ``__all__``; the package
republishes exactly those.
"""

from .errors import *
from .chain import *
from .direct import *
from .families import *
from .finite import *
from .functions import *
from .graphs import *
from .linalg import *
from .matrix import *
from .operators import *
from .oracle import *
from .solver import *
from .subspace import *

__version__ = "0.1.0"

__all__ = (
    errors.__all__ + chain.__all__ + direct.__all__ + families.__all__ + finite.__all__
    + functions.__all__ + graphs.__all__ + linalg.__all__ + matrix.__all__ + operators.__all__
    + oracle.__all__ + solver.__all__ + subspace.__all__
)
