"""Exact trace and duality calculus for complexes on finite sets over a base.

Collector policy: importing the package sets the cyclic garbage
collector's thresholds to (50 000, 20, 100), once.  The computation makes
no reference cycles: every value it builds is freed by reference counting
(tests/test_layout.py::test_the_computation_makes_no_reference_cycles
pins this), so a collector pass finds nothing and only rescans the live
heap, chiefly the kernel caches.  At the default (700, 10, 10) a
`fuzz_all` benchmark worker (seed 3) made 79 gen-0 and 8 gen-1 passes
after its imports, 27 of its 507 ms; at these thresholds it makes one
gen-0 pass, and the `dual_wide` and `pair_deep` workers, which made 11-14
gen-0 and 1-2 gen-1 passes, make none.  The collector stays on, so the few
cycles that the standard library makes around the computation (argparse's
parser, 210 objects; json's indenting encoder, 33 objects a call) and
those of a test runner are still reclaimed, later.
"""

import gc

from .chainalg import Ring, Matrix, Complex, ChainMap
from .finspan import FinOver, OverMap, Span
from .sheafops import Sheaf, OmegaClass
from .corrcat import CCMorphism, CCCell, CCRelabel
from .dualtrace import DualityData, PairingResult, PushRectangles

# see the module docstring: a heap without cycles, scanned less often
gc.set_threshold(50_000, 20, 100)

__all__ = [
    "Ring", "Matrix", "Complex", "ChainMap",
    "FinOver", "OverMap", "Span",
    "Sheaf", "OmegaClass",
    "CCMorphism", "CCCell", "CCRelabel",
    "DualityData", "PairingResult", "PushRectangles",
]
