"""Exact trace and duality calculus for complexes on finite sets over a base."""

from .chainalg import Ring, Matrix, Complex, ChainMap
from .finspan import FinOver, OverMap, Span, SpanCell
from .sheafops import Sheaf, OmegaClass
from .corrcat import CCObject, CCMorphism, CCCell
from .dualtrace import DualityData, PairingResult, PushRectangles

__all__ = [
    "Ring", "Matrix", "Complex", "ChainMap",
    "FinOver", "OverMap", "Span", "SpanCell",
    "Sheaf", "OmegaClass",
    "CCObject", "CCMorphism", "CCCell",
    "DualityData", "PairingResult", "PushRectangles",
]
