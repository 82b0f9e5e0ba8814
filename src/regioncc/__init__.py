"""Region crossing changes on link diagrams over closed surfaces."""

from .gf2 import *
from .scheme import *
from .homology import *
from .rcc import *
from .bicolor import *
from .moves import *
from . import bicolor, gf2, homology, moves, rcc, scheme

__version__ = "0.1.0"

__all__ = [name for module in (gf2, scheme, homology, rcc, bicolor, moves)
           for name in module.__all__] + ["__version__"]
