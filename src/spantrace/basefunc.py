"""Base change between correspondence categories over different bases.

A map of base sets induces a symmetric monoidal functor pulling every
space back along the chosen fiber product, copying stalks and span
components along the fiber coordinates.  Duals commute with it on the
nose; pairings commute after the evident recoordination of fixed-point
sets; pushing a morphism down a rectangle commutes with it literally.
pull_space keeps each pullback in chainalg.memo, so the pulled objects,
maps and spans over one space share one pullback rather than rebuild it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .chainalg import memo
from .corrcat import CCMorphism, make_cc_morphism, shriek_push
from .dualtrace import DualityData, PushRectangles, make_dual, pairing
from .finspan import FinOver, Label, OverMap, Span, base_space, fiber_product
from .sheafops import OmegaClass, Sheaf, pull


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
    return memo(_pull_space, bc, x)


def _pull_space(bc: BaseChange, x: FinOver) -> tuple[FinOver, OverMap]:
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


def functor_preserves(
    bc: BaseChange, da: DualityData, u: CCMorphism, v: CCMorphism
) -> tuple[OmegaClass, OmegaClass, OverMap]:
    """The pull of the pairing, the pairing of the pulls, and the
    recoordination of fixed-point sets from the second's carrier onto the
    first's, through which their values should agree; the caller compares
    them."""
    lhs = pull_omega(bc, pairing(u, v, da).omega)
    du = pull_morphism(bc, u)
    dv = pull_morphism(bc, v)
    rhs = pairing(du, dv, make_dual(du.source)).omega
    # recoordinate ((gamma, s), (delta, s)) -> ((gamma, delta), s)
    recoord = OverMap(rhs.carrier, lhs.carrier,
                      tuple(((g, d), s) for (g, s), (d, _s) in rhs.carrier.elements))
    return lhs, rhs, recoord


def push2_strict(bc: BaseChange, rect: PushRectangles) -> tuple[CCMorphism, CCMorphism]:
    """The pull of the pushed morphism and the push of the pulled data,
    which should be literally equal in this model; the caller compares
    them."""
    lhs = pull_morphism(bc, shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp))
    rhs = shriek_push(
        pull_morphism(bc, rect.u),
        pull_over_map(bc, rect.f),
        pull_over_map(bc, rect.p),
        pull_over_map(bc, rect.g),
        pull_span(bc, rect.cp),
    )
    return lhs, rhs
