#!/usr/bin/env python3
"""Worked example: traces on a two-point space and their behaviour under a
collapse map.

Builds the space X = {a, b} over a point with stalks of ranks (1) and (2, )
-- a free rank-2 stalk at b -- plus a correspondence looping at a that
scales by 3.  Prints the pointwise trace data and then verifies that
collapsing X to a point adds up the local terms.
"""

from spantrace.chainalg import ZZ, make_complex, map_identity, map_scale, unit_complex
from spantrace.corrcat import cc_identity, make_cc_morphism
from spantrace.dualtrace import char_class, make_dual, pairing_functorial, trace
from spantrace.dualtrace import PushRectangles
from spantrace.finspan import Span, identity_span, make_fin_over, make_over_map
from spantrace.instances import omega_doc
from spantrace.sheafops import make_sheaf

base = ("z",)
x = make_fin_over(base, ("a", "b"), {"a": "z", "b": "z"})
pt = make_fin_over(base, ("p",), {"p": "z"})
collapse = make_over_map(x, pt, {"a": "p", "b": "p"})

obj = make_sheaf(ZZ, x, {"a": unit_complex(ZZ), "b": make_complex(ZZ, {0: 2})})

print("characteristic class (pointwise Euler numbers):")
print(" ", omega_doc(char_class(obj)))

loop = make_fin_over(base, ("g",), {"g": "z"})
to_a = make_over_map(loop, x, {"g": "a"})
u = make_cc_morphism(
    obj, obj, Span(to_a, to_a), {"g": map_scale(3, map_identity(unit_complex(ZZ)))}
)
print("trace of the scaling loop at a:")
print(" ", omega_doc(trace(u, make_dual(obj)).omega))

ident = cc_identity(obj)
rect = PushRectangles(
    f=collapse, p=collapse, g=collapse, q=collapse,
    u=ident, v=ident, cp=identity_span(pt), dp=identity_span(pt),
)
res = pairing_functorial(rect)
print("pushed local terms vs trace of the collapsed object:")
print(" ", omega_doc(res.pushed))
print(" ", omega_doc(res.rhs))
print("equal:", res.equal)
