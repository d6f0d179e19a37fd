"""Base change between correspondence categories over different bases.

A map of base sets induces a symmetric monoidal functor pulling every
space back along the chosen fiber product, copying stalks and span
components along the fiber coordinates.  Duals commute with it on the
nose; pairings commute after the evident recoordination of fixed-point
sets; pushing a morphism down a rectangle commutes with it literally.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corrcat import CCMorphism, CCRelabel, make_cc_morphism, obj_tensor, shriek_push
from .dualtrace import DualityData, PushRectangles, make_dual, pairing
from .finspan import FinOver, Label, OverMap, Span, base_space, fiber_product
from .sheafops import OmegaClass, Sheaf, pull, verdier


@dataclass(frozen=True)
class BaseChange:
    """A map of base sets, source base -> target base."""

    g: OverMap

    def __post_init__(self):
        t = self.g.target
        if t != base_space(t.base) or self.g.source != base_space(self.g.source.base):
            raise ValueError("base change must map base spaces")


def make_base_change(
    new_base: tuple[Label, ...], graph: dict[Label, Label], old_base: tuple[Label, ...]
) -> BaseChange:
    s = base_space(tuple(new_base))
    t = base_space(tuple(old_base))
    for x in s.elements:
        if x not in graph:
            raise ValueError(f"base change not total at {x!r}")
        if graph[x] not in t:
            raise ValueError(f"base change image {graph[x]!r} not in target base")
    return BaseChange(OverMap(s, t, tuple(graph[x] for x in s.elements)))


def pull_space(bc: BaseChange, x: FinOver) -> tuple[FinOver, OverMap]:
    """Chosen pullback of a space: pairs (element, new base point)."""
    if x.base != bc.g.target.base:
        raise ValueError("anchor mismatch")
    over_t = OverMap(x, bc.g.target, x.anchor)
    pulled, pr1, _ = fiber_product(over_t, bc.g)
    # reanchor over the new base: the anchor of (e, s) is s
    space = FinOver(bc.g.source.base, pulled.elements, tuple(e[1] for e in pulled.elements))
    proj = OverMap(space, x, tuple(e[0] for e in pulled.elements))
    return space, proj


def pull_object(bc: BaseChange, a: Sheaf) -> Sheaf:
    space, proj = pull_space(bc, a.space)
    return pull(proj, a)


def pull_over_map(bc: BaseChange, f: OverMap) -> OverMap:
    src, _ = pull_space(bc, f.source)
    tgt, _ = pull_space(bc, f.target)
    return OverMap(src, tgt, tuple((f(e), s) for e, s in src.elements))


def pull_span(bc: BaseChange, c: Span) -> Span:
    return Span(pull_over_map(bc, c.left), pull_over_map(bc, c.right))


def pull_morphism(bc: BaseChange, m: CCMorphism) -> CCMorphism:
    src = pull_object(bc, m.source)
    tgt = pull_object(bc, m.target)
    span = pull_span(bc, m.span)
    maps = {e: m.map_at(e[0]) for e in span.apex.elements}
    return make_cc_morphism(src, tgt, span, maps)


def pull_omega(bc: BaseChange, a: OmegaClass) -> OmegaClass:
    space, proj = pull_space(bc, a.carrier)
    return OmegaClass(a.ring, space, tuple(a.value(proj(e)) for e in space.elements))


def monoidal_structure(bc: BaseChange, a: Sheaf, b: Sheaf) -> CCRelabel:
    """The structure isomorphism pull(a) (x) pull(b) -> pull(a (x) b): a
    coordinate relabeling with literally equal stalks."""
    src = obj_tensor(pull_object(bc, a), pull_object(bc, b))
    tgt = pull_object(bc, obj_tensor(a, b))
    return CCRelabel(src, tgt, lambda e: ((e[0][0], e[1][0]), e[0][1]),
                     lambda e: ((e[0][0], e[1]), (e[0][1], e[1])))


@dataclass(frozen=True)
class PreservationReport:
    dual_strict: bool
    pairing_strict: bool
    lhs: OmegaClass
    rhs: OmegaClass


def functor_preserves(
    bc: BaseChange, da: DualityData, u: CCMorphism, v: CCMorphism
) -> PreservationReport:
    """Pull of dual equals dual of pull (strict); pull of the pairing
    equals the pairing of the pulls through the fixed-point recoordination."""
    pulled_obj = pull_object(bc, da.obj)
    dual_strict = pull_object(bc, da.dual) == verdier(pulled_obj)

    before = pairing(u, v, da).omega
    lhs = pull_omega(bc, before)
    du = pull_morphism(bc, u)
    dv = pull_morphism(bc, v)
    after = pairing(du, dv, make_dual(du.source)).omega
    # recoordinate ((gamma, s), (delta, s)) -> ((gamma, delta), s)
    recoord = OverMap(
        after.carrier,
        lhs.carrier,
        tuple(((g, d), s) for (g, s), (d, _s) in after.carrier.elements),
    )
    pairing_strict = all(
        after.value(e) == lhs.value(recoord(e)) for e in after.carrier.elements
    ) and after.carrier.size == lhs.carrier.size
    return PreservationReport(dual_strict, pairing_strict, lhs, after)


def push2_strict(bc: BaseChange, rect: PushRectangles) -> bool:
    """Pulling back the pushed morphism equals pushing the pulled data;
    a literal equality of morphisms in this model."""
    pushed = shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp)
    lhs = pull_morphism(bc, pushed)
    rhs = shriek_push(
        pull_morphism(bc, rect.u),
        pull_over_map(bc, rect.f),
        pull_over_map(bc, rect.p),
        pull_over_map(bc, rect.g),
        pull_span(bc, rect.cp),
    )
    return lhs == rhs
