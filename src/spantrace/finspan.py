"""Finite sets over a base, anchored maps, spans and 2-cells between spans.

Fiber products are chosen once and for all (pair sets in lexicographic
input order), so composites of spans are honest values.  A canonical
identification between differently-bracketed composites is written where
it is needed as the explicit apex bijection that retuples the nested
pairs, e.g. ((a, b), c) -> (a, (b, c)), and checked with cell_check.

Membership goes by anchor tables.  A listed-out set keeps a table from
each element to its anchor, built with the set, and its member lookup
(_member_anchor: the anchor, or None for a non-element) is that table's
bound get, so a leaf lookup is one C-level dict lookup and opens no Python
frame.  A product over the base composes its member lookup once, when it
is made, from its two factors' lookups: a member is looked up once in each
listed-out factor and a non-member at most once, and a nested product is
not listed out to answer.  Its size and positions come from counts per
anchor; its elements are listed once, when first read (prod_over_base
keeps one product per pair of factor objects).  Sets are equal by contents
(equal factors suffice) and hash by base and size, so a product equals and
hashes like the same set listed out.

The leg of a tensor of more than LISTED_MAX apex elements (ProductMap)
keeps its factor maps, also when carried across a relabeling that only
regroups nested pairs, and lists its graph only when read.  fiber_product
joins such legs through the factors, as factorised query evaluation does:
each coordinate of the values is an equation between a factor map of each
leg, and the pairs are bound one factor map at a time from those
coordinates' fibers.  Legs whose values nest differently (a product listed
out on one side) are joined listed out.  A smaller tensor's legs, a
composite's images and an injective map's fibers are built by C-level
builtins, not a Python step per element.

FinOver, OverMap and Span are plain dataclasses, read-only by convention,
as in chainalg: built per instance, they skip a frozen dataclass's
object.__setattr__ per field.  OverMap and Span hash as the tuple of their
compared fields; FinOver keeps its own == and hash.  prod_over_base keeps
its products by chainalg.memo(ProductOver, x, y), keyed by the two factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Callable, Mapping, Sequence, Union

from .chainalg import memo

Label = Union[str, tuple]
LISTED_MAX = 9  # span_tensor lays out the legs of a tensor of at most this many elements (README, Benchmark)


@dataclass(eq=False)
class FinOver:
    """Finite set of labels anchored to a base set."""

    base: tuple[Label, ...]
    elements: tuple[Label, ...]
    anchor: tuple[Label, ...]
    _pos: dict = field(default=None, init=False, compare=False, repr=False)
    factors = None  # the two factors of a product over the base

    def __post_init__(self):
        pos = dict(zip(self.elements, range(len(self.elements))))
        if len(pos) != len(self.elements):
            raise ValueError("duplicate labels")
        if len(self.anchor) != len(self.elements):
            raise ValueError(f"{len(self.anchor)} anchors for {len(self.elements)} elements")
        stray = set(self.anchor).difference(self.base)
        if stray:
            x, a = next((x, a) for x, a in zip(self.elements, self.anchor) if a in stray)
            raise ValueError(f"anchor of {x!r} is {a!r}, not a base element")
        self._pos = pos
        self._member_anchor = dict(zip(self.elements, self.anchor)).get

    def __eq__(self, other):
        if not isinstance(other, FinOver):
            return NotImplemented
        if self is other or self.factors is not None and self.factors == other.factors:
            return True
        return self.base == other.base and self.size == other.size and (
            self.elements, self.anchor) == (other.elements, other.anchor)

    def __hash__(self):
        return hash((self.base, self.size))

    def index(self, x: Label) -> int:
        """Position of x in carrier order; ValueError if x is not an element."""
        try:
            return self._pos[x]
        except KeyError:
            raise ValueError(f"{x!r} is not an element") from None

    def anchor_of(self, x: Label) -> Label:
        s = self._member_anchor(x)
        if s is None:
            raise ValueError(f"{x!r} is not an element")
        return s

    def __contains__(self, x: Label) -> bool:
        return self._member_anchor(x) is not None

    @property
    def size(self) -> int:
        return len(self.elements)


def make_fin_over(base: Sequence[Label], elements: Sequence[Label], anchor: Mapping[Label, Label]) -> FinOver:
    base = tuple(base)
    elements = tuple(elements)
    if len(set(base)) != len(base):
        raise ValueError("duplicate base labels")
    for x in elements:
        if x not in anchor:
            raise ValueError(f"missing anchor for {x!r}")
    out = FinOver(base, elements, tuple(anchor[x] for x in elements))
    if len(anchor) != len(elements):
        raise ValueError(f"anchor for {next(x for x in anchor if x not in out)!r}, which is not an element")
    return out


@lru_cache(maxsize=4096)
def base_space(base: tuple[Label, ...]) -> FinOver:
    return FinOver(base, base, base)


@dataclass(unsafe_hash=True)
class OverMap:
    """Total map of finite sets commuting with the anchors."""

    source: FinOver
    target: FinOver
    graph: tuple[Label, ...]
    factors = None  # the two factor maps of a tensor's leg

    def __post_init__(self):
        if len(self.graph) != self.source.size:
            raise ValueError(f"graph has {len(self.graph)} images for {self.source.size} elements")

    def __eq__(self, other):  # a tensor's leg equals its graph listed out
        if not isinstance(other, OverMap):
            return NotImplemented
        return self is other or (self.source, self.target, self.graph) == (other.source, other.target, other.graph)

    def __call__(self, x: Label) -> Label:
        return self.graph[self.source._pos[x]]

    def fiber(self, y: Label) -> tuple[Label, ...]:
        return self._fibers.get(y, ())

    @cached_property
    def _fibers(self) -> dict[Label, tuple[Label, ...]]:
        """Every non-empty fiber, in carrier order; computed once."""
        fibers = dict(zip(self.graph, zip(self.source.elements)))  # right when injective
        if len(fibers) < len(self.graph):
            lists: dict[Label, list[Label]] = {}
            for x, y in zip(self.source.elements, self.graph):
                lists.setdefault(y, []).append(x)
            fibers = {y: tuple(xs) for y, xs in lists.items()}
        return fibers

    def is_bijective(self) -> bool:
        return len(set(self.graph)) == len(self.graph) == self.target.size


def make_over_map(source: FinOver, target: FinOver, graph: Mapping[Label, Label]) -> OverMap:
    if source.base != target.base:
        raise ValueError("base mismatch")
    out = []
    for x in source.elements:
        if x not in graph:
            raise ValueError(f"map not total: missing {x!r}")
        y = graph[x]
        if y not in target:
            raise ValueError(f"image {y!r} of {x!r} not in target")
        if target.anchor_of(y) != source.anchor_of(x):
            raise ValueError(f"map does not commute with anchors at {x!r}")
        out.append(y)
    if len(graph) != len(out):
        raise ValueError(f"graph entry for {next(x for x in graph if x not in source)!r}, which is not in the source")
    return OverMap(source, target, tuple(out))


def om_identity(x: FinOver) -> OverMap:
    return OverMap(x, x, x.elements)


def om_compose(g: OverMap, f: OverMap) -> OverMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition boundary mismatch")
    images = map(g, f.graph) if g.factors else map(g.graph.__getitem__, map(g.source._pos.__getitem__, f.graph))
    return OverMap(f.source, g.target, tuple(images))


def om_anchor(x: FinOver) -> OverMap:
    """The anchor viewed as a map to the base regarded as a space."""
    return OverMap(x, base_space(x.base), x.anchor)


def fiber_product(f: OverMap, g: OverMap) -> tuple[FinOver, OverMap, OverMap]:
    """Chosen fiber product along f: X -> Z, g: Y -> Z.

    Elements are the pairs (x, y) with f(x) = g(y), in lexicographic input
    order; returns the set together with the two projections.  A hash join:
    each x meets only its bucket g^-1(f(x)), which g holds in carrier order.
    Legs that keep their factors are joined through them, unless their
    values nest differently (a target listed out on one side only).
    """
    if f.target != g.target:
        raise ValueError("fiber product target mismatch")
    maps: list[OverMap] = []
    trees = (f.factors or g.factors) and (_coords(f, maps), _coords(g, maps))
    if trees and None not in trees and _shape(trees[0]) == _shape(trees[1]):
        return _factored_product(f, g, maps, *map(_leaves, trees))
    buckets = g._fibers
    fibers = [buckets.get(fx, ()) for fx in f.graph]
    counts = [len(ys) for ys in fibers]
    # x and its anchor once per partner y, then the partners themselves
    left = tuple(chain.from_iterable(map(repeat, f.source.elements, counts)))
    anchors = tuple(chain.from_iterable(map(repeat, f.source.anchor, counts)))
    right = tuple(chain.from_iterable(fibers))
    apex = FinOver(f.source.base, tuple(zip(left, right)), anchors)
    return apex, OverMap(apex, f.source, left), OverMap(apex, g.source, right)


class ProductOver(FinOver):
    """x ×_base y, the pairs with equal anchors in lexicographic order: the
    factors answer membership and anchors, and counts per anchor its size
    and positions.  It lists its elements only when they are read."""

    def __init__(self, x: FinOver, y: FinOver):
        self.base, self.factors = x.base, (x, y)
        first, second = x._member_anchor, y._member_anchor

        def member_anchor(e: Label) -> Label | None:
            s = first(e[0]) if type(e) is tuple and len(e) == 2 else None
            return s if s is not None and s == second(e[1]) else None

        self._member_anchor = member_anchor

    @cached_property
    def _blocks(self) -> tuple[list[int], dict, dict]:
        """Where each x's pairs start, y's elements by anchor, and y's ranks there."""
        x, y = self.factors
        over = om_anchor(y)._fibers
        starts = list(accumulate((len(over.get(s, ())) for s in x.anchor), initial=0))
        return starts, over, {e: k for es in over.values() for k, e in enumerate(es)}

    size = property(lambda self: self._blocks[0][-1])

    def index(self, e: Label) -> int:
        if self._member_anchor(e) is None:
            raise ValueError(f"{e!r} is not an element")
        starts, _, rank = self._blocks
        return starts[self.factors[0].index(e[0])] + rank[e[1]]

    elements = cached_property(lambda self: tuple(chain.from_iterable(map(
        zip, map(repeat, self.factors[0].elements), map(self._blocks[1].get, self.factors[0].anchor, repeat(()))))))
    anchor = cached_property(lambda self: tuple(map(self._member_anchor, self.elements)))
    _pos = cached_property(lambda self: dict(zip(self.elements, range(self.size))))


def prod_over_base(x: FinOver, y: FinOver) -> FinOver:
    """Chosen product over the base: pairs with equal anchors, one per pair
    of factor objects (chainalg.memo), so that each is listed once."""
    if x.base != y.base:
        raise ValueError("base mismatch")
    return memo(ProductOver, x, y)


@dataclass(unsafe_hash=True)
class Span:
    """Correspondence X <- C -> Y over the base; left and right share the apex."""

    left: OverMap
    right: OverMap

    def __post_init__(self):
        if self.left.source != self.right.source:
            raise ValueError("span legs must share their source")

    @property
    def apex(self) -> FinOver:
        return self.left.source


def identity_span(x: FinOver) -> Span:
    i = om_identity(x)
    return Span(i, i)


def span_compose(c: Span, d: Span) -> Span:
    """Composite correspondence via the chosen fiber product of the middle legs."""
    if c.right.target != d.left.target:
        raise ValueError("span boundary mismatch")
    _, pr1, pr2 = fiber_product(c.right, d.left)
    return Span(om_compose(c.left, pr1), om_compose(d.right, pr2))


def span_tensor(c: Span, d: Span) -> Span:
    """Pointwise product of correspondences over the base.  Past LISTED_MAX
    pairs of apex elements its legs keep their factors (ProductMap); up to
    it they are laid out like the apex by C-level builtins."""
    apex = prod_over_base(c.apex, d.apex)
    if apex.size > LISTED_MAX:
        return Span(ProductMap(c.left, d.left, source=apex), ProductMap(c.right, d.right, source=apex))
    lspace = prod_over_base(c.left.target, d.left.target)
    rspace = prod_over_base(c.right.target, d.right.target)
    lefts, rights = {}, {}
    for s, y, z in zip(d.apex.anchor, d.left.graph, d.right.graph):
        lefts.setdefault(s, []).append(y)
        rights.setdefault(s, []).append(z)
    left = chain.from_iterable(map(zip, map(repeat, c.left.graph), map(lefts.get, c.apex.anchor, repeat(()))))
    right = chain.from_iterable(map(zip, map(repeat, c.right.graph), map(rights.get, c.apex.anchor, repeat(()))))
    return Span(OverMap(apex, lspace, tuple(left)), OverMap(apex, rspace, tuple(right)))


class ProductMap(OverMap):
    """f ×_base g, then regroup into target if given: a function that only
    regroups nested pairs, such as ((a, b), c) -> (a, (b, c)).  It keeps its
    factors and lists its graph only when it is read.  source, if given, is
    the product of the factors' sources, shared with the other leg."""

    def __init__(self, f: OverMap, g: OverMap, regroup: Callable | None = None, target: FinOver | None = None,
                 source: FinOver | None = None):
        self.source = source or prod_over_base(f.source, g.source)
        self.factors, self.regroup = (f, g), regroup
        self.target = target or prod_over_base(f.target, g.target)

    def __call__(self, e: Label) -> Label:
        v = self.factors[0](e[0]), self.factors[1](e[1])
        return v if self.regroup is None else self.regroup(v)

    graph = cached_property(lambda self: tuple(map(self, self.source.elements)))


def _factored_product(f: OverMap, g: OverMap, maps: list[OverMap], cf: list, cg: list
                      ) -> tuple[FinOver, OverMap, OverMap]:
    """fiber_product of legs that keep their factors, walking no product.
    Each coordinate of the values is an equation between a factor map of f
    and one of g: the leaves cf and cg of their _coords, nested alike, over
    their factor maps, f's first.  The factor maps are bound one at a time,
    f's first in its order, then one linked to a bound one, looked up in
    its coordinate's fibers and checked on its other links (by its anchor
    if none is linked).  Sorting by the positions in f's source, then in
    g's, gives fiber_product's order."""
    links = [*zip(cf, cg), *zip(cg, cf)]
    bound, rows = [0], [(e,) for e in maps[0].source.elements]  # their elements in the order bound
    while len(bound) < len(maps):
        v = next(chain((v for (v, _), (w, _) in links if v not in bound and w in bound),
                       (v for v in range(len(maps)) if v not in bound)))
        looks = [(mine, bound.index(w), theirs) for (u, mine), (w, theirs) in links if u == v and w in bound]
        (mine, i, theirs), *rest = looks or [(om_anchor(maps[v].source), 0, om_anchor(maps[0].source))]
        fiber, image, at = mine._fibers.get, theirs.graph.__getitem__, theirs.source._pos.__getitem__
        rows = [row + (e,) for row in rows for e in fiber(image(at(row[i])), ())
                if not rest or all(m(e) == t(row[j]) for m, j, t in rest)]
        bound.append(v)
    columns = [*zip(*rows)] or [()] * len(maps)
    columns = iter([columns[bound.index(v)] for v in range(len(maps))])
    left, right = _nested(f, columns), _nested(g, columns)
    ranked = sorted(zip(map(f.source.index, left), map(g.source.index, right), left, right))
    left, right = tuple(map(itemgetter(2), ranked)), tuple(map(itemgetter(3), ranked))
    apex = FinOver(f.source.base, tuple(zip(left, right)), tuple(map(f.source._member_anchor, left)))
    return apex, OverMap(apex, f.source, left), OverMap(apex, g.source, right)


def _coords(leg: OverMap, maps: list[OverMap]) -> Label:
    """leg's values as a tree nested like its target's elements, with at each
    leaf set [the index of the factor map the coordinate comes from, once
    appended to maps, and the map giving it]; a regroup regroups the tree as
    it regroups values, so it runs once.  None if the regroup takes a leaf
    apart, as where a factor's target lists a product out."""
    if not leg.factors:
        maps.append(leg)
        return _projections(leg, len(maps) - 1)
    tree = _coords(leg.factors[0], maps), _coords(leg.factors[1], maps)
    if leg.regroup is None or None in tree:
        return None if None in tree else tree
    out = leg.regroup(tree)
    return out if sorted(map(id, _leaves(out))) == sorted(map(id, _leaves(tree))) else None


def _projections(m: OverMap, i: int) -> Label:
    """[i, m], or the tree of m's projections onto the leaf sets of its target."""
    if m.target.factors is None:
        return [i, m]
    return tuple(_projections(OverMap(m.source, t, tuple(map(itemgetter(k), m.graph))), i)
                 for k, t in enumerate(m.target.factors))


def _leaves(tree: Label) -> list:
    """The leaves of a tree of tuples, in order; a coordinate is a list, so a leaf."""
    return [leaf for t in tree for leaf in _leaves(t)] if type(tree) is tuple else [tree]


def _shape(tree: Label) -> Label:
    """How a tree of tuples nests, without its leaves."""
    return tuple(map(_shape, tree)) if type(tree) is tuple else None


def _nested(leg: OverMap, columns) -> tuple[Label, ...]:
    """The column of leg's source elements from those of its factor maps, in order."""
    if not leg.factors:
        return next(columns)
    return tuple(zip(_nested(leg.factors[0], columns), _nested(leg.factors[1], columns)))


def cell_check(source: Span, target: Span, graph: OverMap) -> None:
    """Check that graph is a 2-cell between parallel spans: a map of their
    apexes commuting with both legs; raises naming the failing leg."""
    if source.left.target != target.left.target or source.right.target != target.right.target:
        raise ValueError("cell between non-parallel spans")
    if graph.source != source.apex or graph.target != target.apex:
        raise ValueError("cell graph is not a map between the apexes")
    for x in source.apex.elements:
        if target.left(graph(x)) != source.left(x):
            raise ValueError(f"left leg broken at {x!r}")
    for x in source.apex.elements:
        if target.right(graph(x)) != source.right(x):
            raise ValueError(f"right leg broken at {x!r}")
