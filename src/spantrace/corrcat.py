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
They are never built as spans; cc_compose reindexes the morphism on the
other side, touching only the elements it hits and checking the
relabeling once at each distinct one.

The components of a tensor or a composite are computed when first read:
a certificate or a trace composes away all but a diagonal of a tensor's
apex, so only the diagonal's are built.  Those of make_cc_morphism (and
so shriek_push, cc_invert) are built at once, as it checks their stalks.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache

from .chainalg import (
    ChainMap,
    OnDemand,
    Ring,
    assoc_map,
    assoc_map_inv,
    make_chain_map,
    map_add,
    map_compose,
    map_curry,
    map_direct_sum,
    map_identity,
    map_sum,
    map_tensor,
    map_uncurry,
    mat_transpose,
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
    make_over_map,
    om_compose,
    om_identity,
    span_compose,
    span_iso_search,
    span_tensor,
)
from .sheafops import Sheaf, box, push, unit_sheaf, verdier


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


@dataclass(frozen=True)
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
    return CCMorphism(source, target, span, tuple(out))


def cc_identity(a: Sheaf) -> CCMorphism:
    span = identity_span(a.space)
    return CCMorphism(a, a, span, tuple(map_identity(c) for c in a.stalks))


def cc_compose(a: CCMorphism | CCRelabel, b: CCMorphism | CCRelabel) -> CCMorphism:
    """a then b; the composite span, components composed pairwise when read.

    A relabeling on either side is not built: the other morphism is
    reindexed into the apex, legs and components that composing with the
    built relabeling gives, apex pairs in fiber-product order.
    """
    if a.target != b.source:
        raise ValueError("composition boundary mismatch")
    if isinstance(a, CCRelabel) and isinstance(b, CCRelabel):
        raise ValueError("two relabelings compose only through a morphism")
    if isinstance(b, CCRelabel):  # pairs (g, right(g)) in the order of a's apex
        c, hits = a.span, a.span.right.graph
        apex = FinOver(c.apex.base, tuple(zip(c.apex.elements, hits)), c.apex.anchor)
        image_of = {y: b.forward(y) for y in dict.fromkeys(hits)}
        for y, z in image_of.items():
            b.check(y, z, image=True)
        images = tuple(map(image_of.get, hits))
        span = Span(OverMap(apex, c.left.target, c.left.graph), OverMap(apex, b.target.space, images))
        k, us = b.stalk_map, a.maps
        maps = us if k is None else OnDemand(len(hits), lambda i: map_compose(k(hits[i]), us[i]))
        return CCMorphism(a.source, b.target, span, maps)
    if isinstance(a, CCRelabel):  # pairs (backward(left(g)), g) in the order of a's source
        c, s, hits = b.span, a.source.space, b.span.left.graph
        back = {y: a.backward(y) for y in dict.fromkeys(hits)}
        pos = {y: s.index(x) for y, x in back.items()}
        order = sorted(range(len(hits)), key=[pos[y] for y in hits].__getitem__)
        ys = [hits[i] for i in order]
        xs = tuple(map(back.__getitem__, ys))
        apex = FinOver(s.base, tuple(zip(xs, map(c.apex.elements.__getitem__, order))),
                       tuple(s.anchor[pos[y]] for y in ys))
        span = Span(OverMap(apex, s, xs), OverMap(apex, c.right.target, tuple(c.right.graph[i] for i in order)))
        for y in dict.fromkeys(ys):
            a.check(back[y], y, image=False)
        k = a.stalk_map
        maps = OnDemand(len(xs), lambda j: b.maps[order[j]] if k is None else map_compose(b.maps[order[j]], k(xs[j])))
        return CCMorphism(a.source, b.target, span, maps)
    span = span_compose(a.span, b.span)
    pairs = span.apex.elements
    maps = OnDemand(len(pairs), lambda i: map_compose(b.map_at(pairs[i][1]), a.map_at(pairs[i][0])))
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
    tensors = {}  # once per distinct pair of components

    def component(i: int) -> ChainMap:
        key = a.map_at(pairs[i][0]), b.map_at(pairs[i][1])
        if key not in tensors:
            tensors[key] = map_tensor(*key)
        return tensors[key]

    return CCMorphism(src, tgt, span, OnDemand(len(pairs), component))


@dataclass(frozen=True)
class CCCell:
    """2-cell: apex map under which source components sum to target components."""

    source: CCMorphism
    target: CCMorphism
    graph: OverMap


def make_cc_cell(source: CCMorphism, target: CCMorphism, graph: Mapping[Label, Label]) -> CCCell:
    g = make_over_map(source.span.apex, target.span.apex, graph)
    return CCCell(source, target, g)


def cc_cell_check(cell: CCCell) -> None:
    """Verify both leg equations and the fiberwise sum identity exactly."""
    s, t = cell.source, cell.target
    if s.source != t.source or s.target != t.target:
        raise ValueError("cell between non-parallel morphisms")
    cell_check(s.span, t.span, cell.graph)
    for d in t.span.apex.elements:
        parts = [s.map_at(g) for g in cell.graph.fiber(d)]
        expect = t.map_at(d)
        one = len(parts) == 1 and (parts[0].source, parts[0].target) == (expect.source, expect.target)
        got = parts[0] if one else map_sum(parts, expect.source, expect.target)  # one map is its sum
        if got != expect:
            raise ValueError(
                f"component sum fails at {d!r}: expected {expect.components!r}, got {got.components!r}"
            )


def whisker_left(m: CCMorphism, cell: CCCell) -> CCCell:
    """Cell between m.cell.source and m.cell.target (m composed first)."""
    src = cc_compose(m, cell.source)
    tgt = cc_compose(m, cell.target)
    graph = {e: (e[0], cell.graph(e[1])) for e in src.span.apex.elements}
    return make_cc_cell(src, tgt, graph)


def whisker_right(cell: CCCell, m: CCMorphism) -> CCCell:
    src = cc_compose(cell.source, m)
    tgt = cc_compose(cell.target, m)
    graph = {e: (cell.graph(e[0]), e[1]) for e in src.span.apex.elements}
    return make_cc_cell(src, tgt, graph)


# ---------------------------------------------------------------------------
# structural isomorphisms (relabelings)


@dataclass(frozen=True, eq=False)
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
        backward(y) otherwise, by the other direction; and that their stalks
        agree if stalk_map is None."""
        if (self.backward(y) != x if image else self.forward(x) != y) or y not in self.target.space:
            raise ValueError(f"relabeling is not a bijection at {x!r}")
        if self.stalk_map is None and self.source.stalk(x) != self.target.stalk(y):
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


def _inverse_component(u: ChainMap) -> ChainMap:
    """The transpose of u, checked to be a two-sided inverse."""
    inv = make_chain_map(u.target, u.source, {n: mat_transpose(c) for n, c in u.components})
    if (map_compose(inv, u) != map_identity(u.source)
            or map_compose(u, inv) != map_identity(u.target)):
        raise ValueError("component is not a signed permutation")
    return inv


def cc_invert(m: CCMorphism | CCRelabel) -> CCMorphism | CCRelabel:
    """Invert a morphism with bijective legs and invertible components, or
    a relabeling.

    Components are inverted by the transpose, which is verified to be a
    two-sided inverse (all structural components here are signed
    permutations); raises if that fails.
    """
    if isinstance(m, CCRelabel):
        stalk = None if m.stalk_map is None else (
            lambda y: _inverse_component(m.stalk_map(m.backward(y))))
        return CCRelabel(m.target, m.source, m.backward, m.forward, stalk)
    if not (m.span.left.is_bijective() and m.span.right.is_bijective()):
        raise ValueError("morphism legs are not bijective")
    span = Span(m.span.right, m.span.left)
    maps = {g: _inverse_component(m.map_at(g)) for g in m.span.apex.elements}
    return make_cc_morphism(m.target, m.source, span, maps)


# ---------------------------------------------------------------------------
# pushforward structure


def f_natural(f: OverMap, l: Sheaf) -> CCMorphism:
    """(X, L) -> (X', push(f, L)) over the graph span: the identity of
    (X, L) pushed along (id, id, f), so its components are the block
    inclusions into the fiber sums."""
    ident = om_identity(f.source)
    return shriek_push(cc_identity(l), ident, ident, f, Span(ident, f))


def f_conatural(f: OverMap, l: Sheaf) -> CCMorphism:
    """(X', push(f, L)) -> (X, L): the identity pushed along (f, id, id),
    with the block projections as components."""
    ident = om_identity(f.source)
    return shriek_push(cc_identity(l), f, ident, ident, Span(f, ident))


def adjunction_unit(f: OverMap, l: Sheaf) -> CCCell:
    """identity => f_natural then f_conatural, given by the diagonal."""
    comp = cc_compose(f_natural(f, l), f_conatural(f, l))
    ident = cc_identity(l)
    return make_cc_cell(ident, comp, {x: (x, x) for x in f.source.elements})


def adjunction_counit(f: OverMap, l: Sheaf) -> CCCell:
    """f_conatural then f_natural => identity, given by the map itself."""
    comp = cc_compose(f_conatural(f, l), f_natural(f, l))
    ident = cc_identity(push(f, l))
    return make_cc_cell(comp, ident, {e: f(e[0]) for e in comp.span.apex.elements})


def adjunction_triangles(f: OverMap, l: Sheaf) -> tuple[list[CCCell], list[CCCell]]:
    """The two triangle pastings of the pushforward adjunction.

    Each is returned as the list of constituent cells; every constituent
    passes the cell check and the end-to-end apex maps compose to the
    identity, which is the triangle identity in this strictified setting.
    """
    fn = f_natural(f, l)
    fc = f_conatural(f, l)
    eta = adjunction_unit(f, l)
    eps = adjunction_counit(f, l)
    tgt_obj = push(f, l)

    # triangle for f_natural: fn -> id.fn -> (fn.fc).fn -> fn.(fc.fn) -> fn.id -> fn
    c1 = make_cc_cell(fn, cc_compose(cc_identity(l), fn), {x: (x, x) for x in f.source.elements})
    c2 = whisker_right(eta, fn)
    a1 = cc_compose(cc_compose(fn, fc), fn)
    a2 = cc_compose(fn, cc_compose(fc, fn))
    c3 = make_cc_cell(a1, a2, {e: (e[0][0], (e[0][1], e[1])) for e in a1.span.apex.elements})
    c4 = whisker_left(fn, eps)
    fn_id = cc_compose(fn, cc_identity(tgt_obj))
    c5 = make_cc_cell(fn_id, fn, {e: e[0] for e in fn_id.span.apex.elements})
    tri1 = [c1, c2, c3, c4, c5]

    # triangle for f_conatural: fc -> fc.id -> fc.(fn.fc) -> (fc.fn).fc -> id.fc -> fc
    d1 = make_cc_cell(fc, cc_compose(fc, cc_identity(l)), {x: (x, x) for x in f.source.elements})
    d2 = whisker_left(fc, eta)
    b1 = cc_compose(fc, cc_compose(fn, fc))
    b2 = cc_compose(cc_compose(fc, fn), fc)
    d3 = make_cc_cell(b1, b2, {e: ((e[0], e[1][0]), e[1][1]) for e in b1.span.apex.elements})
    d4 = whisker_right(eps, fc)
    id_fc = cc_compose(cc_identity(tgt_obj), fc)
    d5 = make_cc_cell(id_fc, fc, {e: e[1] for e in id_fc.span.apex.elements})
    tri2 = [d1, d2, d3, d4, d5]
    return tri1, tri2


def triangle_composite_is_identity(cells: Sequence[CCCell]) -> bool:
    for c in cells:
        cc_cell_check(c)
    first, last = cells[0], cells[-1]
    if first.source.span.apex != last.target.span.apex:
        return False
    for x in first.source.span.apex.elements:
        y = x
        for c in cells:
            y = c.graph(y)
        if y != x:
            return False
    return True


def shriek_push(
    u: CCMorphism, f: OverMap, p: OverMap, g: OverMap, lower: Span
) -> CCMorphism:
    """Push u down a commuting rectangle onto the lower span.

    Components are block matrices over the fiberwise direct sums: the
    (y, x) block at a lower apex element is the sum of the components at
    upper apex elements over it with the matching feet, and zero blocks
    elsewhere; this is the unique lift through which the rectangle
    becomes a passing 2-cell.
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
        maps[gp] = map_direct_sum(blocks, src_parts, tgt_parts, l.ring)
    return make_cc_morphism(src, tgt, lower, maps)


# ---------------------------------------------------------------------------
# internal hom and currying


def internal_hom(a: Sheaf, b: Sheaf) -> Sheaf:
    """Internal hom on the product: stalk at (x, y) is dual(L_x) (x) M_y."""
    return box(verdier(a), b)


def curry_morphism(m: CCMorphism, a: Sheaf, b: Sheaf) -> CCMorphism:
    """Rewrite m : a (x) b -> c as a -> internal_hom(b, c)."""
    if m.source != obj_tensor(a, b):
        raise ValueError("curry source mismatch")
    c = m.target
    hom = internal_hom(b, c)
    apex = m.span.apex
    left = OverMap(apex, a.space, tuple(m.span.left(e)[0] for e in apex.elements))
    right = OverMap(
        apex,
        hom.space,
        tuple((m.span.left(e)[1], m.span.right(e)) for e in apex.elements),
    )
    maps = {}
    for e in apex.elements:
        x, y = m.span.left(e)
        maps[e] = map_curry(m.map_at(e), a.stalk(x), b.stalk(y))
    return make_cc_morphism(a, hom, Span(left, right), maps)


def uncurry_morphism(m: CCMorphism, b: Sheaf, c: Sheaf) -> CCMorphism:
    """Rewrite m : a -> internal_hom(b, c) as a (x) b -> c."""
    a = m.source
    if m.target != internal_hom(b, c):
        raise ValueError("uncurry target mismatch")
    src = obj_tensor(a, b)
    apex = m.span.apex
    left = OverMap(
        apex,
        src.space,
        tuple((m.span.left(e), m.span.right(e)[0]) for e in apex.elements),
    )
    right = OverMap(apex, c.space, tuple(m.span.right(e)[1] for e in apex.elements))
    maps = {}
    for e in apex.elements:
        y, z = m.span.right(e)
        maps[e] = map_uncurry(m.map_at(e), b.stalk(y), c.stalk(z))
    return make_cc_morphism(src, c, Span(left, right), maps)


# ---------------------------------------------------------------------------
# comparison up to canonical relabeling


def cc_iso_search(a: CCMorphism, b: CCMorphism) -> OverMap | None:
    """Invertible 2-cell between parallel morphisms, if one exists: a
    leg-compatible apex bijection that also matches the components."""
    if a.source != b.source or a.target != b.target:
        raise ValueError("morphisms not parallel")
    return span_iso_search(a.span, b.span, a.map_at, b.map_at)
