"""Sheaves on finite sets over a base, and the six operations.

A sheaf, one complex per element of its space, is an object of corrcat.
Pullback and exceptional pullback coincide (maps of finite sets behave
like finite etale maps), so the dualizing object is the constant unit
complex and duality is stalkwise.  Pushforward along any map is the
fiberwise direct sum in carrier order, which makes base change hold as a
literal matrix identity for every chosen fiber-product square.

The external tensor is computed from its factors: it lives on the product
over the base, and its stalk at (x, y) is cx_tensor of the factor stalks,
worked out when asked.  It equals and hashes like its stalks listed out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

from .chainalg import (
    Complex,
    Ring,
    cx_direct_sum,
    cx_dual,
    cx_tensor,
    cx_validate,
    unit_complex,
)
from .finspan import FinOver, Label, OverMap, prod_over_base


@dataclass(frozen=True, eq=False)
class Sheaf:
    """One bounded complex per element of space, all over the same ring."""

    ring: Ring
    space: FinOver
    stalks: tuple[Complex, ...]
    factors = None  # the two factors of an external tensor

    def __post_init__(self) -> None:
        if len(self.stalks) != self.space.size:
            raise ValueError(f"{len(self.stalks)} stalks for {self.space.size} elements")
        for i, c in enumerate(self.stalks):
            if c.ring is not self.ring and c.ring != self.ring:
                raise ValueError(f"stalk at {self.space.elements[i]!r} has the wrong ring")

    def stalk(self, x: Label) -> Complex:
        if self.factors is not None and x not in self.space:
            raise ValueError(f"{x!r} is not an element")
        return self._member_stalk(x)

    def _member_stalk(self, x: Label) -> Complex:
        """The stalk at x, whose membership in a product is already known."""
        if self.factors is None:
            return self.stalks[self.space.index(x)]
        l, m = self.factors
        return cx_tensor(l._member_stalk(x[0]), m._member_stalk(x[1]))

    def __eq__(self, other):
        if not isinstance(other, Sheaf):
            return NotImplemented
        if self is other or self.factors is not None and self.factors == other.factors:
            return True
        return self.ring == other.ring and self.space == other.space and self.stalks == other.stalks

    def __hash__(self):
        return hash((self.ring, self.space))


class ProductSheaf(Sheaf):
    """box(l, m): stalks computed from the factors when asked."""

    def __init__(self, l: Sheaf, m: Sheaf):
        object.__setattr__(self, "ring", l.ring)
        object.__setattr__(self, "space", prod_over_base(l.space, m.space))
        object.__setattr__(self, "factors", (l, m))

    @cached_property
    def stalks(self) -> tuple[Complex, ...]:
        return tuple(self.stalk(x) for x in self.space.elements)


def make_sheaf(ring: Ring, space: FinOver, stalks: Mapping[Label, Complex]) -> Sheaf:
    out = []
    for x in space.elements:
        if x not in stalks:
            raise ValueError(f"missing stalk at {x!r}")
        cx_validate(stalks[x])
        out.append(stalks[x])
    if len(stalks) != len(out):
        raise ValueError(f"stalk at {next(x for x in stalks if x not in space)!r}, which is not an element")
    return Sheaf(ring, space, tuple(out))


def unit_sheaf(ring: Ring, space: FinOver) -> Sheaf:
    one = unit_complex(ring)
    return Sheaf(ring, space, tuple(one for _ in space.elements))


def pull(f: OverMap, m: Sheaf) -> Sheaf:
    """Pullback: stalk at x is the stalk at f(x)."""
    if m.space != f.target:
        raise ValueError("carrier mismatch")
    return Sheaf(m.ring, f.source, tuple(m.stalk(f(x)) for x in f.source.elements))


def push(f: OverMap, l: Sheaf) -> Sheaf:
    """Pushforward: stalk at y is the direct sum over the fiber, in carrier order."""
    if l.space != f.source:
        raise ValueError("carrier mismatch")
    stalks = tuple(
        cx_direct_sum([l.stalk(x) for x in f.fiber(y)], l.ring) for y in f.target.elements
    )
    return Sheaf(l.ring, f.target, stalks)


def box(l: Sheaf, m: Sheaf) -> Sheaf:
    """External tensor on the chosen product over the base."""
    if l.ring != m.ring:
        raise ValueError("ring mismatch")
    return ProductSheaf(l, m)


def verdier(l: Sheaf) -> Sheaf:
    """Stalkwise dual; an involution on the nose."""
    return Sheaf(l.ring, l.space, tuple(cx_dual(c) for c in l.stalks))


@dataclass(frozen=True)
class OmegaClass:
    """Ring-valued function on a finite set over the base."""

    ring: Ring
    carrier: FinOver
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.carrier.size:
            raise ValueError(f"{len(self.values)} values for {self.carrier.size} elements")
        for i, v in enumerate(self.values):
            if self.ring.norm(v) != v:
                raise ValueError(f"value {v} at {self.carrier.elements[i]!r} is not normalised")

    def value(self, x: Label) -> int:
        return self.values[self.carrier.index(x)]


def omega_push(q: OverMap, a: OmegaClass) -> OmegaClass:
    """Fiberwise sum; functorial in the map."""
    if a.carrier != q.source:
        raise ValueError("carrier mismatch")
    vals = tuple(a.ring.norm(sum(a.value(x) for x in q.fiber(y))) for y in q.target.elements)
    return OmegaClass(a.ring, q.target, vals)
