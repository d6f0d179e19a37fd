"""The symmetric monoidal 2-category of coefficiented correspondences.

An object is a sheaf of complexes on a finite set over the base (sheafops);
a morphism is a span together with one chain map per apex element; a
2-cell is a map of apexes under which the components sum up.  Pushing a
morphism down a commuting rectangle of vertical maps assembles the
components into block matrices over the fiberwise direct sums, and is
the unique such lift through which the rectangle becomes a 2-cell.

Tensor objects are products computed from their factors (finspan,
sheafops), so building one costs nothing until its elements are walked.
The structural isomorphisms (unitors, associators, the symmetry) are
relabelings: a bijection of spaces with a stalk isomorphism per element.
They are fixed only up to a unique invertible 2-cell, so they are never
built as spans: a composite with one keeps the other morphism's apex and
carries the leg facing the relabeling across the bijection, touching only
the elements that leg hits and checking the relabeling once at each
distinct one.  A check asks membership of the space's member lookup, which
finspan composes from anchor tables (one dict lookup per leaf set, no
__contains__ frame), and reads that side's stalk without asking again.

The components of a tensor or a composite are computed when first read:
a certificate or a trace composes away all but a diagonal of a tensor's
apex, so only the diagonal's are built.  Those of make_cc_morphism (and
so shriek_push) are built at once, as it checks their stalks.  cc_tensor
and cc_compose build components by map_tensor and map_compose_shared,
which keep each tensor and composite in chainalg.memo per pair of map
objects: points with one stalk share them, so each is built once.  The
matrix products inside a composite are not kept.  The pointwise oracle's
path reads no memo.

CCMorphism, CCCell and CCRelabel are plain dataclasses, read-only by
convention, as in chainalg: built per instance, they skip a frozen
dataclass's object.__setattr__ per field.  CCMorphism and CCCell hash as
the tuple of their compared fields; a CCRelabel hashes and equals by
identity.  The components they hold are read by degree through
ChainMap.component, which finds each degree by a position map kept per
pair of rank profiles, and each memo key is one function and two operands.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, reduce

from .chainalg import (
    ChainMap,
    OnDemand,
    Ring,
    assoc_map,
    assoc_map_inv,
    map_add,
    map_compose_shared,
    map_direct_sum,
    map_identity,
    map_tensor,
    mat_zero,
    swap_map,
)
from .finspan import (
    FinOver,
    Label,
    OverMap,
    Span,
    base_space,
    cell_check,
    identity_span,
    om_compose,
    span_compose,
    span_tensor,
)
from .sheafops import Sheaf, box, push, unit_sheaf


def CCObject(space: FinOver, sheaf: Sheaf) -> Sheaf:
    """The object (space, sheaf), which is the sheaf, checked to live on space."""
    if sheaf.space != space:
        raise ValueError("sheaf carrier must be the underlying space")
    return sheaf


@lru_cache(maxsize=4096)
def unit_object(ring: Ring, base: tuple[Label, ...]) -> Sheaf:
    return unit_sheaf(ring, base_space(base))


def obj_tensor(a: Sheaf, b: Sheaf) -> Sheaf:
    return box(a, b)


@dataclass(unsafe_hash=True)
class CCMorphism:
    """Span plus one chain map per apex element (stalkwise coefficients);
    a tensor's or composite's are OnDemand, the rest built when it is made."""

    source: Sheaf
    target: Sheaf
    span: Span
    maps: Sequence[ChainMap]

    def map_at(self, g: Label) -> ChainMap:
        return self.maps[self.span.apex.index(g)]


def make_cc_morphism(
    source: Sheaf, target: Sheaf, span: Span, maps: Mapping[Label, ChainMap]
) -> CCMorphism:
    if span.left.target != source.space or span.right.target != target.space:
        raise ValueError("span boundary mismatch")
    out = []
    for g in span.apex.elements:
        if g not in maps:
            raise ValueError(f"missing component at {g!r}")
        u = maps[g]
        if u.source != source.stalk(span.left(g)):
            raise ValueError(f"component at {g!r} has the wrong source stalk")
        if u.target != target.stalk(span.right(g)):
            raise ValueError(f"component at {g!r} has the wrong target stalk")
        out.append(u)
    if len(maps) != len(out):
        raise ValueError(f"component at {next(g for g in maps if g not in span.apex)!r}, which is not in the apex")
    return CCMorphism(source, target, span, tuple(out))


def cc_identity(a: Sheaf) -> CCMorphism:
    span = identity_span(a.space)
    return CCMorphism(a, a, span, tuple(map_identity(c) for c in a.stalks))


def cc_compose(a: CCMorphism | CCRelabel, b: CCMorphism | CCRelabel) -> CCMorphism:
    """a then b; the composite span, components composed pairwise when read.

    A relabeling on either side is not built: the composite keeps the other
    morphism's apex, the leg facing the relabeling carried across it and
    the components composed with its stalk maps.  This is the composite
    with the built relabeling up to the unique 2-cell g -> (g, right(g))
    (relabeling on the right) or g -> (backward(left(g)), g) (on the left).
    """
    if a.target != b.source:
        raise ValueError("composition boundary mismatch")
    if isinstance(a, CCRelabel) and isinstance(b, CCRelabel):
        raise ValueError("two relabelings compose only through a morphism")
    if isinstance(b, CCRelabel):
        c, hits = a.span, a.span.right.graph
        keys = dict.fromkeys(hits)
        image_of = dict(zip(keys, map(b.forward, keys)))
        for y, z in image_of.items():
            b.check(y, z, image=True)
        span = Span(c.left, OverMap(c.apex, b.target.space, tuple(map(image_of.get, hits))))
        k, us = b.stalk_map, a.maps
        maps = us if k is None else OnDemand(len(hits), lambda i: map_compose_shared(k(hits[i]), us[i]))
        return CCMorphism(a.source, b.target, span, maps)
    if isinstance(a, CCRelabel):
        c, hits = b.span, b.span.left.graph
        keys = dict.fromkeys(hits)
        back = dict(zip(keys, map(a.backward, keys)))
        for y, x in back.items():
            a.check(x, y, image=False)
        xs = tuple(map(back.get, hits))
        span = Span(OverMap(c.apex, a.source.space, xs), c.right)
        k, vs = a.stalk_map, b.maps
        maps = vs if k is None else OnDemand(len(xs), lambda i: map_compose_shared(vs[i], k(xs[i])))
        return CCMorphism(a.source, b.target, span, maps)
    span = span_compose(a.span, b.span)
    pairs = span.apex.elements
    maps = OnDemand(len(pairs), lambda i: map_compose_shared(b.map_at(pairs[i][1]), a.map_at(pairs[i][0])))
    return CCMorphism(a.source, b.target, span, maps)


def cc_compose_many(*ms: CCMorphism | CCRelabel) -> CCMorphism:
    out = ms[0]
    for m in ms[1:]:
        out = cc_compose(out, m)
    return out


def cc_tensor(a: CCMorphism, b: CCMorphism) -> CCMorphism:
    if a.source.ring != b.source.ring:
        raise ValueError("ring mismatch")
    span = span_tensor(a.span, b.span)
    src = obj_tensor(a.source, b.source)
    tgt = obj_tensor(a.target, b.target)
    pairs = span.apex.elements
    maps = OnDemand(len(pairs), lambda i: map_tensor(a.map_at(pairs[i][0]), b.map_at(pairs[i][1])))
    return CCMorphism(src, tgt, span, maps)


@dataclass(unsafe_hash=True)
class CCCell:
    """2-cell: apex map under which source components sum to target components."""

    source: CCMorphism
    target: CCMorphism
    graph: OverMap


def cc_cell_check(cell: CCCell) -> None:
    """Verify both leg equations and the fiberwise sum identity exactly."""
    s, t = cell.source, cell.target
    if s.source != t.source or s.target != t.target:
        raise ValueError("cell between non-parallel morphisms")
    cell_check(s.span, t.span, cell.graph)
    for d in t.span.apex.elements:
        parts = [s.map_at(g) for g in cell.graph.fiber(d)]
        expect = t.map_at(d)
        if len(parts) == 1 and (parts[0].source, parts[0].target) == (expect.source, expect.target):
            got = parts[0]  # one map is its sum
        else:  # several, or none, are added to the zero map
            zero = tuple((n, mat_zero(m.ring, m.rows, m.cols)) for n, m in expect.components)
            got = reduce(map_add, parts, ChainMap(expect.source, expect.target, zero))
        if got != expect:
            raise ValueError(
                f"component sum fails at {d!r}: expected {expect.components!r}, got {got.components!r}"
            )


# ---------------------------------------------------------------------------
# structural isomorphisms (relabelings)


@dataclass(eq=False)
class CCRelabel:
    """Invertible morphism source -> target over the span with identity
    left leg and right leg the bijection forward (inverse backward), with
    component stalk_map(x) at x, or the identity when stalk_map is None.

    Only composing and inverting it are defined; cc_compose checks it once
    at each distinct element the other morphism hits, in hit order, and
    calls stalk_map only for components read.
    """

    source: Sheaf
    target: Sheaf
    forward: Callable[[Label], Label]
    backward: Callable[[Label], Label]
    stalk_map: Callable[[Label], ChainMap] | None = None

    def check(self, x: Label, y: Label, image: bool) -> None:
        """Check that x pairs with y, where y is forward(x) if image and x is
        backward(y) otherwise, by the other direction and the computed one's
        membership, asked of its space's member lookup; and that their
        stalks agree if stalk_map is None, the computed one's read without
        testing its membership again."""
        src, tgt = self.source, self.target
        if not (self.backward(y) == x and tgt.space._member_anchor(y) is not None if image
                else self.forward(x) == y and src.space._member_anchor(x) is not None):
            raise ValueError(f"relabeling is not a bijection at {x!r}")
        if self.stalk_map is None and (src.stalk(x) != tgt._member_stalk(y) if image
                                       else src._member_stalk(x) != tgt.stalk(y)):
            raise ValueError("relabeling stalks differ; pass stalk_map")


def left_unitor(a: Sheaf) -> CCRelabel:
    """a -> unit (x) a; stalk complexes agree literally."""
    tgt = obj_tensor(unit_object(a.ring, a.space.base), a)
    return CCRelabel(a, tgt, lambda x: (a.space.anchor_of(x), x), lambda e: e[1])


def right_unitor(a: Sheaf) -> CCRelabel:
    """a -> a (x) unit."""
    tgt = obj_tensor(a, unit_object(a.ring, a.space.base))
    return CCRelabel(a, tgt, lambda x: (x, a.space.anchor_of(x)), lambda e: e[0])


def _to_left(e: Label) -> Label:
    return (e[0], e[1][0]), e[1][1]


def _to_right(e: Label) -> Label:
    return e[0][0], (e[0][1], e[1])


def cc_assoc(a: Sheaf, b: Sheaf, c: Sheaf) -> CCRelabel:
    """(a (x) (b (x) c)) -> ((a (x) b) (x) c); stalkwise basis reassociation."""
    src = obj_tensor(a, obj_tensor(b, c))
    tgt = obj_tensor(obj_tensor(a, b), c)

    def stalk(e: Label) -> ChainMap:
        x, (y, z) = e
        return assoc_map(a.stalk(x), b.stalk(y), c.stalk(z))

    return CCRelabel(src, tgt, _to_left, _to_right, stalk)


def cc_assoc_inv(a: Sheaf, b: Sheaf, c: Sheaf) -> CCRelabel:
    src = obj_tensor(obj_tensor(a, b), c)
    tgt = obj_tensor(a, obj_tensor(b, c))

    def stalk(e: Label) -> ChainMap:
        (x, y), z = e
        return assoc_map_inv(a.stalk(x), b.stalk(y), c.stalk(z))

    return CCRelabel(src, tgt, _to_right, _to_left, stalk)


def cc_swap(a: Sheaf, b: Sheaf) -> CCRelabel:
    """Symmetry (a (x) b) -> (b (x) a) with the Koszul sign on stalks."""
    src = obj_tensor(a, b)
    tgt = obj_tensor(b, a)
    return CCRelabel(src, tgt, lambda e: (e[1], e[0]), lambda e: (e[1], e[0]),
                     lambda e: swap_map(a.stalk(e[0]), b.stalk(e[1])))


def cc_invert(m: CCRelabel) -> CCRelabel:
    """The inverse of a relabeling with identity components, such as a
    unitor: the same bijection read backwards."""
    if m.stalk_map is not None:
        raise ValueError("only a relabeling with identity components is inverted")
    return CCRelabel(m.target, m.source, m.backward, m.forward)


# ---------------------------------------------------------------------------
# pushforward structure


def shriek_push(
    u: CCMorphism, f: OverMap, p: OverMap, g: OverMap, lower: Span
) -> CCMorphism:
    """Push u down a commuting rectangle onto the lower span.

    Components are block matrices over the fiberwise direct sums: the
    (y, x) block at a lower apex element is the sum of the components at
    upper apex elements over it with the matching feet, and zero blocks
    elsewhere; this is the unique lift through which the rectangle
    becomes a passing 2-cell.  Each component's endpoints are the stalks
    of push(f, l) and push(g, m) at its feet, not rebuilt sums.
    """
    c = u.span
    if om_compose(f, c.left) != om_compose(lower.left, p):
        raise ValueError("left square does not commute")
    if om_compose(g, c.right) != om_compose(lower.right, p):
        raise ValueError("right square does not commute")
    if f.source != u.source.space or g.source != u.target.space:
        raise ValueError("vertical map boundary mismatch")
    l, m = u.source, u.target
    src, tgt = push(f, l), push(g, m)
    maps = {}
    for gp in lower.apex.elements:
        xs = f.fiber(lower.left(gp))
        ys = g.fiber(lower.right(gp))
        src_parts = [l.stalk(x) for x in xs]
        tgt_parts = [m.stalk(y) for y in ys]
        xpos = {x: i for i, x in enumerate(xs)}
        ypos = {y: i for i, y in enumerate(ys)}
        blocks: dict[tuple[int, int], ChainMap] = {}
        for gamma in p.fiber(gp):
            xi = xpos[c.left(gamma)]
            yi = ypos[c.right(gamma)]
            piece = u.map_at(gamma)
            if (yi, xi) in blocks:
                blocks[(yi, xi)] = map_add(blocks[(yi, xi)], piece)
            else:
                blocks[(yi, xi)] = piece
        maps[gp] = map_direct_sum(blocks, src_parts, tgt_parts, l.ring,
                                  src.stalk(lower.left(gp)), tgt.stalk(lower.right(gp)))
    return make_cc_morphism(src, tgt, lower, maps)
