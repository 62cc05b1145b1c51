"""Fault-tolerant coded distributed matrix multiplication.

Polynomial-coded matmul tasks are distributed to N workers; the stacked
worker outputs form an interleaved generalized Reed-Solomon word whose
layers share error locations (faulty workers corrupt whole columns).  Two
collaborative decoders recover the product from up to
t_max = floor(L (N-K) / (L+1)) faulty workers - well beyond half the
minimum distance for L > 1 - and a Monte Carlo harness measures failure
rates, the analytic failure bound, and numerical conditioning.
"""

from . import decoder, errmodel, errors, field, grs, harness, polycode
from .decoder import *
from .errmodel import *
from .errors import *
from .field import *
from .grs import *
from .harness import *
from .polycode import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names.
__all__ = [name for module in (decoder, errmodel, errors, field, grs, harness, polycode)
           for name in module.__all__]
