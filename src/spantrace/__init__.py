"""Exact trace and duality calculus for complexes on finite sets over a base."""

from .chainalg import Ring, Matrix, Complex, ChainMap
from .finspan import FinOver, OverMap, Span
from .sheafops import Sheaf, OmegaClass
from .corrcat import CCMorphism, CCCell, CCRelabel
from .dualtrace import DualityData, PairingResult, PushRectangles

__all__ = [
    "Ring", "Matrix", "Complex", "ChainMap",
    "FinOver", "OverMap", "Span",
    "Sheaf", "OmegaClass",
    "CCMorphism", "CCCell", "CCRelabel",
    "DualityData", "PairingResult", "PushRectangles",
]
