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
not listed out to answer.  Positions, elements, the anchor tuple and size
of a product come from the set that fiber_product lists out, the first
time one of them is asked for; prod_over_base keeps one product per pair
of factor objects, so each is listed once.  Sets are equal by contents
(equal factors suffice) and hash by base and size, so a product equals
and hashes like the same set listed out.  A tensor's legs,
a composite's images and an injective map's fibers are built by C-level
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
from itertools import chain, repeat
from typing import Mapping, Sequence, Union

from .chainalg import memo

Label = Union[str, tuple]


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
        return x in self._pos

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

    def __post_init__(self):
        if len(self.graph) != self.source.size:
            raise ValueError(f"graph has {len(self.graph)} images for {self.source.size} elements")

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
    return OverMap(f.source, g.target, tuple(map(g.graph.__getitem__, map(g.source._pos.__getitem__, f.graph))))


def om_anchor(x: FinOver) -> OverMap:
    """The anchor viewed as a map to the base regarded as a space."""
    return OverMap(x, base_space(x.base), x.anchor)


def fiber_product(f: OverMap, g: OverMap) -> tuple[FinOver, OverMap, OverMap]:
    """Chosen fiber product along f: X -> Z, g: Y -> Z.

    Elements are the pairs (x, y) with f(x) = g(y), in lexicographic input
    order; returns the set together with the two projections.  A hash join:
    each x meets only its bucket g^-1(f(x)), which g holds in carrier order.
    """
    if f.target != g.target:
        raise ValueError("fiber product target mismatch")
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
    """x ×_base y: the factors answer membership and anchors, and the set
    that fiber_product lists out over the anchors answers the rest."""

    def __init__(self, x: FinOver, y: FinOver):
        self.base, self.factors = x.base, (x, y)
        first, second = x._member_anchor, y._member_anchor

        def member_anchor(e: Label) -> Label | None:
            s = first(e[0]) if type(e) is tuple and len(e) == 2 else None
            return s if s is not None and s == second(e[1]) else None

        self._member_anchor = member_anchor

    @cached_property
    def _flat(self) -> FinOver:
        return fiber_product(om_anchor(self.factors[0]), om_anchor(self.factors[1]))[0]

    elements = property(lambda self: self._flat.elements)
    anchor = property(lambda self: self._flat.anchor)
    _pos = property(lambda self: self._flat._pos)

    def __contains__(self, e: Label) -> bool:
        return self._member_anchor(e) is not None


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
    """Pointwise product of correspondences over the base, legs laid out like the apex."""
    apex = prod_over_base(c.apex, d.apex)
    lspace = prod_over_base(c.left.target, d.left.target)
    rspace = prod_over_base(c.right.target, d.right.target)
    lefts, rights = {}, {}
    for s, y, z in zip(d.apex.anchor, d.left.graph, d.right.graph):
        lefts.setdefault(s, []).append(y)
        rights.setdefault(s, []).append(z)
    left = chain.from_iterable(map(zip, map(repeat, c.left.graph), map(lefts.get, c.apex.anchor, repeat(()))))
    right = chain.from_iterable(map(zip, map(repeat, c.right.graph), map(rights.get, c.apex.anchor, repeat(()))))
    return Span(OverMap(apex, lspace, tuple(left)), OverMap(apex, rspace, tuple(right)))


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
