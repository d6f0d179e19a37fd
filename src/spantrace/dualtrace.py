"""Duals, traces, pairings, and their functoriality under pushforward.

Every object (a sheaf) is dualizable: the dual is the stalkwise dual
sheaf, evaluation lives on the diagonal-to-base span, coevaluation on the
base-to-diagonal span, and both triangle composites are certified against
the identity with explicit invertible 2-cells at construction time.

The trace of an endomorphism is the honest categorical composite
(coevaluation, tensor with the endomorphism, symmetry, evaluation), read
on the loops of its span.  The pairing of u : (X, L) -> (Y, M) and v back
is the trace of u then v: its loops are the chosen fixed-point set
F = {(gamma, delta) : feet interlock}, element for element.  The
pointwise alternating trace of v . u, computed from the components' rows
by local_pairing, is kept separate as an independent oracle; their
agreement is a theorem-shaped test, not an assumption.

Duality data is unique up to unique isomorphism, so make_dual is a
function of the object alone and computes it once per object: it keeps
the data of its latest objects, keyed by the sheaf (hashed by ring and
space, compared by value).  local_pairing reads no cache and no kernel,
so the oracle stays an independent computation (tests/test_layout.py
holds it to that).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .chainalg import coev_map, ev_map
from .corrcat import (
    CCCell,
    CCMorphism,
    cc_assoc,
    cc_assoc_inv,
    cc_cell_check,
    cc_compose,
    cc_identity,
    cc_invert,
    cc_swap,
    cc_tensor,
    left_unitor,
    make_cc_morphism,
    obj_tensor,
    right_unitor,
    shriek_push,
    unit_object,
)
from .finspan import (
    FinOver,
    OverMap,
    Span,
    fiber_product,
    om_anchor,
    om_compose,
    prod_over_base,
)
from .sheafops import OmegaClass, Sheaf, omega_push, push, verdier


@dataclass(frozen=True)
class DualityData:
    obj: Sheaf
    dual: Sheaf
    ev: CCMorphism
    coev: CCMorphism
    triangle_obj: CCCell
    triangle_dual: CCCell


@dataclass(frozen=True)
class PairingResult:
    omega: OmegaClass


# one child seed's suites make 9 calls on at most 7 objects, and an object
# comes back after at most 5 others
DUALS_KEPT = 8


@lru_cache(maxsize=DUALS_KEPT)
def make_dual(a: Sheaf) -> DualityData:
    """Dual object, evaluation, coevaluation, and verified triangle cells;
    computed once per object while it is among the latest DUALS_KEPT.  A
    call that raises keeps nothing, so the next call checks again.  The
    data is shared and read-only."""
    x = a.space
    dual = verdier(a)
    unit = unit_object(a.ring, x.base)

    ev_src = obj_tensor(dual, a)
    diag = OverMap(x, ev_src.space, tuple((e, e) for e in x.elements))
    ev_maps = {e: ev_map(a.stalk(e)) for e in x.elements}
    ev = make_cc_morphism(ev_src, unit, Span(diag, om_anchor(x)), ev_maps)

    coev_tgt = obj_tensor(a, dual)
    coev_maps = {e: coev_map(a.stalk(e)) for e in x.elements}
    coev = make_cc_morphism(unit, coev_tgt, Span(om_anchor(x), diag), coev_maps)

    ida, idd = cc_identity(a), cc_identity(dual)
    # each reassociation joins coev (x) 1 and 1 (x) ev (1 (x) coev and
    # ev (x) 1), so it is checked and read only at the n elements where they
    # meet; each unitor at an end is checked at the n elements its leg hits
    # a -> 1 (x) a -> (a (x) a*) (x) a -> a (x) (a* (x) a) -> a (x) 1 -> a
    t1 = _cell_onto_identity(cc_compose(
        left_unitor(a), cc_tensor(coev, ida), cc_assoc_inv(a, dual, a), cc_tensor(ida, ev),
        cc_invert(right_unitor(a)),
    ), ida)
    # a* -> a* (x) 1 -> a* (x) (a (x) a*) -> (a* (x) a) (x) a* -> 1 (x) a* -> a*
    t2 = _cell_onto_identity(cc_compose(
        right_unitor(dual), cc_tensor(idd, coev), cc_assoc(dual, a, dual), cc_tensor(ev, idd),
        cc_invert(left_unitor(dual)),
    ), idd)
    cc_cell_check(t1)
    cc_cell_check(t2)
    return DualityData(a, dual, ev, coev, t1, t2)


def _cell_onto_identity(comp: CCMorphism, ident: CCMorphism) -> CCCell:
    """2-cell from a composite endomorphism onto the identity ident, with the
    left leg as its apex map.

    Only the left leg's bijectivity is checked here; make_dual's
    cc_cell_check then demands that the right leg agrees with it and that
    every component is the identity on the nose.
    """
    if not comp.span.left.is_bijective():
        raise ValueError("triangle composite left leg is not bijective")
    return CCCell(comp, ident, comp.span.left)


# ---------------------------------------------------------------------------
# pairings


def fixed_point_space(u: CCMorphism, v: CCMorphism) -> FinOver:
    """Chosen interlocking set F: pairs (gamma, delta) with matching feet."""
    c, d = u.span, v.span
    xy = prod_over_base(u.source.space, u.target.space)
    into_c = OverMap(c.apex, xy, tuple(zip(c.left.graph, c.right.graph)))
    into_d = OverMap(d.apex, xy, tuple(zip(d.right.graph, d.left.graph)))
    apex, _, _ = fiber_product(into_c, into_d)
    return apex


def local_pairing(u: CCMorphism, v: CCMorphism) -> OmegaClass:
    """Independent pointwise oracle: at each interlocking pair (gamma, delta)
    of fixed_point_space, in its order, the alternating trace of v_delta .
    u_gamma, sum_n (-1)^n sum_ij v_n[i][j] u_n[j][i], read from the
    components' sparse rows.  One dict matches the feet of the two spans.
    It shares only value classes' constructors and accessors with the
    categorical side, as tests/test_layout.py checks (ORACLE_SHARED)."""
    if u.target != v.source or v.target != u.source:
        raise ValueError("pairing boundary mismatch")
    c, d, ring = u.span, v.span, u.source.ring
    meets: dict[tuple, list] = {}
    for delta, x, y, vd in zip(d.apex.elements, d.right.graph, d.left.graph, v.maps):
        meets.setdefault((x, y), []).append((delta, vd))
    points, anchors, values = [], [], []
    for gamma, s, x, y, ug in zip(c.apex.elements, c.apex.anchor, c.left.graph, c.right.graph, u.maps):
        for delta, vd in meets.get((x, y), ()):
            points.append((gamma, delta))
            anchors.append(s)
            values.append(ring.norm(sum((-1 if n % 2 else 1) * sum(
                z * a.nonzero[j].get(i, 0) for i, row in enumerate(b.nonzero) for j, z in row.items())
                for (n, a), (_, b) in zip(ug.components, vd.components))))
    return OmegaClass(ring, FinOver(c.apex.base, tuple(points), tuple(anchors)), tuple(values))


def _check_pairing_boundaries(u: CCMorphism, v: CCMorphism) -> None:
    if u.target != v.source or v.target != u.source:
        raise ValueError("pairing boundary mismatch")


def pairing(u: CCMorphism, v: CCMorphism, dx: DualityData) -> PairingResult:
    """The trace of u then v: the loops of the composite's span are the
    fixed-point set, element for element, in its order and anchors."""
    _check_pairing_boundaries(u, v)
    tr = trace(cc_compose(u, v), dx)
    if tr.omega.carrier != fixed_point_space(u, v):
        raise ValueError("pairing loops are not the fixed points")
    return tr


def trace(e: CCMorphism, dx: DualityData) -> PairingResult:
    """The categorical trace coev ; (e (x) 1) ; swap ; ev of an endomorphism,
    read on the loops of its span, under which alone the swap is checked."""
    if e.source != e.target:
        raise ValueError("endomorphism required")
    if dx.obj != e.source:
        raise ValueError("duality data is for the wrong object")
    total = cc_compose(
        dx.coev,
        cc_tensor(e, cc_identity(dx.dual)),
        cc_swap(dx.obj, dx.dual),
        dx.ev,
    )
    found = {}
    for t in total.span.apex.elements:
        g = t[0][1][0]
        if g in found:
            raise ValueError("trace recoordination is not injective")
        comp = total.map_at(t).component(0)
        found[g] = comp.nonzero[0].get(0, 0)  # 1x1: the unit to the unit
    c = e.span
    loops = tuple(g for g in c.apex.elements if c.left(g) == c.right(g))
    if set(found) != set(loops):
        raise ValueError("trace recoordination misses loops")
    carrier = FinOver(c.apex.base, loops, tuple(c.apex.anchor_of(g) for g in loops))
    return PairingResult(OmegaClass(e.source.ring, carrier, tuple(map(found.__getitem__, loops))))


def pairing_symmetry(
    u: CCMorphism, v: CCMorphism, dx: DualityData, dy: DualityData
) -> tuple[OmegaClass, OmegaClass, OverMap]:
    """Both pairings plus the interlocking swap, through which their values
    should agree; the caller compares them."""
    a = pairing(u, v, dx).omega
    b = pairing(v, u, dy).omega
    return a, b, OverMap(a.carrier, b.carrier, tuple((d, g) for g, d in a.carrier.elements))


# ---------------------------------------------------------------------------
# functoriality under pushforward


@dataclass(frozen=True)
class PushRectangles:
    """The two-rectangle diagram: upper morphisms u, v over spans c, d,
    vertical maps f (on X), p, g (on Y), q, lower spans cp, dp."""

    f: OverMap
    p: OverMap
    g: OverMap
    q: OverMap
    u: CCMorphism
    v: CCMorphism
    cp: Span
    dp: Span

    def __post_init__(self) -> None:
        c, d = self.u.span, self.v.span
        checks = [
            (om_compose(self.f, c.left), om_compose(self.cp.left, self.p)),
            (om_compose(self.g, c.right), om_compose(self.cp.right, self.p)),
            (om_compose(self.g, d.left), om_compose(self.dp.left, self.q)),
            (om_compose(self.f, d.right), om_compose(self.dp.right, self.q)),
        ]
        for lhs, rhs in checks:
            if lhs != rhs:
                raise ValueError("non-commuting diagram")
        _check_pairing_boundaries(self.u, self.v)


def pairing_functorial(rect: PushRectangles) -> tuple[OmegaClass, OmegaClass]:
    """The pairing pushed along the induced map of fixed-point sets, and
    the pairing of the pushed morphisms; the caller compares them, and
    exact equality is the relative Lefschetz-Verdier identity.

    The duality data of the upper source object is built here, and that of
    its pushforward by push_preserves_dual, which also checks that the dual
    of the pushforward is the pushforward of the dual.  The induced map
    sends (gamma, delta) to (p(gamma), q(delta)): the apex component of the
    cell through which the left down-square splits (proper_splitting in
    tests/statements.py).
    """
    dx = make_dual(rect.u.source)
    lhs = pairing(rect.u, rect.v, dx).omega
    u2 = shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp)
    v2 = shriek_push(rect.v, rect.g, rect.q, rect.f, rect.dp)
    rhs = pairing(u2, v2, push_preserves_dual(rect.f, dx)).omega
    graph = tuple((rect.p(g), rect.q(d)) for g, d in lhs.carrier.elements)
    pushed = omega_push(OverMap(lhs.carrier, rhs.carrier, graph), lhs)
    return pushed, rhs


def push_preserves_dual(f: OverMap, dx: DualityData) -> DualityData:
    """Certified duality data for the pushforward; its dual sheaf equals
    the pushforward of the dual sheaf on the nose."""
    data = make_dual(push(f, dx.obj))
    if data.dual != push(f, dx.dual):
        raise ValueError("pushforward does not commute with the dual")
    return data
