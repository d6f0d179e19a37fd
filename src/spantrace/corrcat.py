"""The symmetric monoidal 2-category of coefficiented correspondences.

An object is a sheaf of complexes on a finite set over the base (sheafops);
a morphism is a span together with one chain map per apex element; a
2-cell is a map of apexes under which the components sum up.  Pushing a
morphism down a commuting rectangle of vertical maps assembles the
components into block matrices over the fiberwise direct sums, and is
the unique such lift through which the rectangle becomes a 2-cell.

Tensor objects are products computed from their factors (finspan,
sheafops), and so are a tensor morphism's span and components: its legs
keep their factor maps (finspan.ProductMap), and it reads its component at
(g, h) from its factors' components.  Building one costs nothing until its
elements are walked, and a triangle certificate or a trace, which keeps only
a diagonal of a tensor's apex, never walks them.
The structural isomorphisms (unitors, associators, the symmetry) are
relabelings: a bijection of spaces with a stalk isomorphism per element.
They are fixed only up to a unique invertible 2-cell, so they are never
built as spans, and one is checked only where its neighbours meet, once at
each distinct element, as nothing else enters a leg or a component.
cc_compose takes any number of factors.  A relabeling between two
morphisms joins them in one fiber product; one that only regroups nested
pairs (an associator, the symmetry) carries a tensor's leg with its factors
kept, so the fiber product goes through them.  One at an end must have
identity components (a unitor) and carries the leg facing it, the left end
through its inverse, so a check runs in one direction only.  A check asks
membership of the space's member lookup, which finspan composes from
anchor tables (one dict lookup per leaf set, no __contains__ frame), and
reads the target's stalk without asking again.

The components of a tensor or a composite are computed when first read;
a tensor makes slots for them only when they are read by position.
Those of make_cc_morphism (and so shriek_push) are built at once, as it
checks their stalks.  cc_tensor and cc_compose build components by
map_tensor and map_compose_shared, which keep each tensor and composite in
chainalg.memo per pair of map objects: points with one stalk share them,
so each is built once.  The matrix products inside a composite are not
kept.  The pointwise oracle (dualtrace.local_pairing) reads none of this.

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
from functools import cached_property, lru_cache, reduce

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
    ProductMap,
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
    a composite's are OnDemand, a tensor's _TensorMaps, the rest built when
    it is made."""

    source: Sheaf
    target: Sheaf
    span: Span
    maps: Sequence[ChainMap]
    factors = None  # the two factors of a tensor, whose components it reads

    def map_at(self, g: Label) -> ChainMap:
        if self.factors is not None:
            return _tensor_at(*self.factors, g)
        return self.maps[self.span.apex.index(g)]


def _tensor_at(a: CCMorphism, b: CCMorphism, g: Label) -> ChainMap:
    """The component of a ⊗ b at g = (g_a, g_b), which map_tensor keeps."""
    return map_tensor(a.map_at(g[0]), b.map_at(g[1]))


class _TensorMaps(OnDemand):
    """The components of a ⊗ b by position in its apex, each by _tensor_at.
    Its slots are made at the first read: the certificates and the trace
    read a tensor's components by pair (map_at), never by position."""

    _done = cached_property(lambda self: [None] * self._missing)  # made before _missing counts down

    def __init__(self, a: CCMorphism, b: CCMorphism, apex: FinOver):
        self._compute, self._missing = lambda i: _tensor_at(a, b, apex.elements[i]), apex.size


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


def cc_compose(*ms: CCMorphism | CCRelabel) -> CCMorphism:
    """ms composed left to right: the composite span, components composed
    when read.

    A relabeling is never built.  One between two morphisms joins them
    (_join).  One at an end must have identity components, and the leg
    facing it is carried across it (_carry): the composite is the one with
    the relabeling built out, up to the unique 2-cell g -> (g, right(g)) on
    the right or g -> (backward(left(g)), g) on the left.
    """
    for a, b in zip(ms, ms[1:]):
        if a.target != b.source:
            raise ValueError("composition boundary mismatch")
        if isinstance(a, CCRelabel) and isinstance(b, CCRelabel):
            raise ValueError("two relabelings compose only through a morphism")
    first, last = ms[0], ms[-1]
    if any(isinstance(end, CCRelabel) and end.stalk_map is not None for end in (first, last)):
        raise ValueError("a relabeling with stalk maps composes only between two morphisms")
    inner = ms[isinstance(first, CCRelabel):len(ms) - isinstance(last, CCRelabel)]
    out, r = inner[0], None
    for m in inner[1:]:
        if isinstance(m, CCRelabel):
            r = m
        else:
            out, r = _join(out, r, m), None
    left, right = out.span.left, out.span.right
    if isinstance(first, CCRelabel):
        left = _carry(left, cc_invert(first))
    if isinstance(last, CCRelabel):
        right = _carry(right, last)
    return CCMorphism(first.source, last.target, Span(left, right), out.maps)


def _join(m: CCMorphism, r: CCRelabel | None, m2: CCMorphism) -> CCMorphism:
    """m ; r ; m' (m ; m' if r is None) in one fiber product: m's right leg,
    carried across r.forward, meets m''s left leg, and r is checked only at
    the distinct elements of m's right leg where they meet, in match order.
    A tensor's leg carried across a regrouping stays factored.  This is
    (m ; r) ; m' with r built out, through (g, h) -> ((g, x), h), x =
    m.right(g); its component at (g, h) is m'_h . m_g, or
    (m'_h . r.stalk_map(x)) . m_g if r has stalk maps."""
    c = m.span
    if r is not None and r.regroups and c.right.factors and c.right.regroup is None:
        c = Span(c.left, ProductMap(*c.right.factors, r.forward, r.target.space, c.apex))
    elif r is not None:
        c = Span(c.left, OverMap(c.apex, r.target.space, tuple(map(r.forward, c.right.graph))))
    span = span_compose(c, m2.span)
    pairs = span.apex.elements
    k = None if r is None else r.stalk_map
    if r is not None:
        xs = tuple(m.span.right(g) for g, _ in pairs)
        for x, y in dict(zip(xs, (m2.span.left(h) for _, h in pairs))).items():
            r.check(x, y)

    def component(i: int) -> ChainMap:
        g, h = pairs[i]
        after = m2.map_at(h) if k is None else map_compose_shared(m2.map_at(h), k(xs[i]))
        return map_compose_shared(after, m.map_at(g))

    return CCMorphism(m.source, m2.target, span, OnDemand(len(pairs), component))


def _carry(leg: OverMap, r: CCRelabel) -> OverMap:
    """leg then r, a relabeling with identity components: each distinct hit
    x goes to r.forward(x), and r is checked there once, in order."""
    keys = dict.fromkeys(leg.graph)
    image_of = dict(zip(keys, map(r.forward, keys)))
    for x, y in image_of.items():
        r.check(x, y)
    return OverMap(leg.source, r.target.space, tuple(map(image_of.get, leg.graph)))


def cc_tensor(a: CCMorphism, b: CCMorphism) -> CCMorphism:
    if a.source.ring != b.source.ring:
        raise ValueError("ring mismatch")
    span = span_tensor(a.span, b.span)
    src = obj_tensor(a.source, b.source)
    tgt = obj_tensor(a.target, b.target)
    out = CCMorphism(src, tgt, span, _TensorMaps(a, b, span.apex))
    out.factors = (a, b)
    return out


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

    Only composing and inverting it are defined; it is checked once at each
    distinct element where its neighbours in a composite meet, in order, and
    stalk_map is called only for components read.
    """

    source: Sheaf
    target: Sheaf
    forward: Callable[[Label], Label]
    backward: Callable[[Label], Label]
    stalk_map: Callable[[Label], ChainMap] | None = None
    regroups: bool = False  # forward only regroups nested pairs (finspan.ProductMap)

    def check(self, x: Label, y: Label) -> None:
        """Check that y = forward(x) pairs with x: backward(y) is x and y is
        a member of the target, asked of its space's member lookup; and, if
        stalk_map is None, that their stalks agree, y's read without testing
        its membership again."""
        if self.backward(y) != x or self.target.space._member_anchor(y) is None:
            raise ValueError(f"relabeling is not a bijection at {x!r}")
        if self.stalk_map is None and self.source.stalk(x) != self.target._member_stalk(y):
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

    return CCRelabel(src, tgt, _to_left, _to_right, stalk, regroups=True)


def cc_assoc_inv(a: Sheaf, b: Sheaf, c: Sheaf) -> CCRelabel:
    src = obj_tensor(obj_tensor(a, b), c)
    tgt = obj_tensor(a, obj_tensor(b, c))

    def stalk(e: Label) -> ChainMap:
        (x, y), z = e
        return assoc_map_inv(a.stalk(x), b.stalk(y), c.stalk(z))

    return CCRelabel(src, tgt, _to_right, _to_left, stalk, regroups=True)


def cc_swap(a: Sheaf, b: Sheaf) -> CCRelabel:
    """Symmetry (a (x) b) -> (b (x) a) with the Koszul sign on stalks."""
    src = obj_tensor(a, b)
    tgt = obj_tensor(b, a)
    return CCRelabel(src, tgt, lambda e: (e[1], e[0]), lambda e: (e[1], e[0]),
                     lambda e: swap_map(a.stalk(e[0]), b.stalk(e[1])), regroups=True)


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
