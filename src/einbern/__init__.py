"""Einstein-product tensor algebra with Bernstein-type concentration
bounds for random tensor sums, plus a Monte Carlo certification lab."""

import os
import sys

# OpenBLAS starts one worker thread per extra CPU when numpy loads.  At
# the matrix sizes einbern solves those workers do no einbern work, yet
# their start-up spin bills CPU to every run; where OpenBLAS does thread,
# one thread was faster (five 400x400 GEMMs on 2 CPUs: 17-24 ms of wall
# time with one thread, 120-140 ms with two).  So numpy loads with one
# BLAS thread, unless the caller set the count or loaded numpy first;
# the variable is removed again, so the environment (and every child
# process) is left as the caller had it.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# each module's __all__ is its public API, and the package's is their union
from . import algebra, bounds, config, errors, montecarlo, spectral, tensor
from .algebra import *
from .bounds import *
from .config import *
from .errors import *
from .montecarlo import *
from .spectral import *
from .tensor import *

__all__ = list(dict.fromkeys(
    name for module in (algebra, bounds, config, errors, montecarlo, spectral, tensor)
    for name in module.__all__))

__version__ = "0.1.0"
