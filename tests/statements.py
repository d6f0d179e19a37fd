"""The paper's statements that only the tests check, and the oracles that
compare morphisms up to a relabeling of their apexes.

The package runs none of this: each construction is built from what it
does run and states a fact about it.  The pushforward is the unique lift
through which a commuting rectangle becomes a 2-cell; f_natural is left
adjoint to f_conatural; for proper vertical maps the left down-square of
the Lefschetz-Verdier diagram splits through the pushforward; a morphism
of dualizable objects has a dual (its mate), contravariantly functorial;
the trace of an identity is the pointwise Euler characteristic; the
tensor product distributes over direct sums; pullback along a base change
is symmetric monoidal.  Also here: the small complex and the exhaustive
lift search that several test modules share.
"""

import itertools
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce

from spantrace.basefunc import BaseChange, pull_object
from spantrace.chainalg import (ZZ, ChainMap, Complex, Ring, cx_direct_sum, cx_tensor, make_chain_map,
                                make_complex, map_add, map_compose, map_direct_sum, map_identity, map_tensor,
                                mat_scale, mat_zero)
from spantrace.corrcat import (CCCell, CCMorphism, CCRelabel, cc_assoc, cc_cell_check, cc_compose,
                               cc_compose_many, cc_identity, cc_invert, cc_tensor, left_unitor,
                               make_cc_morphism, obj_tensor, right_unitor, shriek_push)
from spantrace.dualtrace import DualityData, PushRectangles, make_dual, trace
from spantrace.finspan import Label, OverMap, Span, make_over_map, om_compose, om_identity
from spantrace.generate import GenParams, random_lv_instance
from spantrace.sheafops import OmegaClass, Sheaf, push

# ---------------------------------------------------------------------------
# chain maps


def q_complex(ring: Ring = ZZ) -> Complex:
    """Z --2--> Z in degrees 0 and 1: over Z its homology is Z/2 in degree 1."""
    return make_complex(ring, {0: 1, 1: 1}, {0: [[2]]})


def map_scale(c: int, f: ChainMap) -> ChainMap:
    return ChainMap(f.source, f.target, tuple((n, mat_scale(c, m)) for n, m in f.components))


def inclusion_map(parts: Sequence[Complex], i: int, ring: Ring) -> ChainMap:
    return map_direct_sum({(i, 0): map_identity(parts[i])}, [parts[i]], parts, ring)


def projection_map(parts: Sequence[Complex], i: int, ring: Ring) -> ChainMap:
    return map_direct_sum({(0, i): map_identity(parts[i])}, parts, [parts[i]], ring)


def sum_tensor_distribute(parts: Sequence[Complex], m: Complex, ring: Ring) -> ChainMap:
    """Canonical isomorphism (sum parts) (x) m -> sum (part (x) m): the sum
    over i of the i-th inclusion after the i-th projection tensored with m.

    It permutes basis vectors rather than being the identity matrix,
    because the two sides group the basis differently.
    """
    tensored = [cx_tensor(p, m) for p in parts]
    pieces = [
        map_compose(
            inclusion_map(tensored, i, ring),
            map_tensor(projection_map(parts, i, ring), map_identity(m)),
        )
        for i in range(len(parts))
    ]
    src, tgt = cx_tensor(cx_direct_sum(parts, ring), m), cx_direct_sum(tensored, ring)
    zero = ChainMap(src, tgt, tuple((n, mat_zero(ring, tgt.rank(n), r)) for n, r in src.ranks if tgt.rank(n)))
    f = reduce(map_add, pieces, zero)
    return make_chain_map(f.source, f.target, dict(f.components))


# ---------------------------------------------------------------------------
# comparison up to canonical relabeling


def span_iso_search(
    a: Span, b: Span, tag_a: Callable[[Label], object], tag_b: Callable[[Label], object]
) -> OverMap | None:
    """Bijection between the apexes of parallel spans that matches elements
    with equal (left, right, tag) signatures, if one exists.

    Elements with equal signatures are interchangeable, so a deterministic
    greedy matching in carrier order is complete; absence is returned as
    None.
    """
    if a.left.target != b.left.target or a.right.target != b.right.target:
        raise ValueError("spans not parallel")
    if a.apex.size != b.apex.size:
        return None
    buckets: dict[tuple, list[Label]] = {}
    for y in b.apex.elements:
        buckets.setdefault((b.left(y), b.right(y), tag_b(y)), []).append(y)
    graph = []
    for x in a.apex.elements:
        pool = buckets.get((a.left(x), a.right(x), tag_a(x)))
        if not pool:
            return None
        graph.append(pool.pop(0))
    return OverMap(a.apex, b.apex, tuple(graph))


def cc_iso_search(a: CCMorphism, b: CCMorphism) -> OverMap | None:
    """Invertible 2-cell between parallel morphisms, if one exists: a
    leg-compatible apex bijection that also matches the components."""
    if a.source != b.source or a.target != b.target:
        raise ValueError("morphisms not parallel")
    return span_iso_search(a.span, b.span, a.map_at, b.map_at)


# ---------------------------------------------------------------------------
# 2-cells and the pushforward adjunction


def make_cc_cell(source: CCMorphism, target: CCMorphism, graph: Mapping[Label, Label]) -> CCCell:
    g = make_over_map(source.span.apex, target.span.apex, graph)
    return CCCell(source, target, g)


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


# ---------------------------------------------------------------------------
# the pushforward as the unique lift


def cell_passes(cell: CCCell) -> bool:
    try:
        cc_cell_check(cell)
    except ValueError:
        return False
    return True


def lift_test(rect: PushRectangles) -> tuple[CCMorphism, Callable[[CCMorphism], bool]]:
    """The pushforward of u down the rectangle, and a test of whether a
    candidate lift over the lower span makes the rectangle a passing 2-cell."""
    pushed = shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp)
    fn = f_natural(rect.f, rect.u.source)
    left = cc_compose(rect.u, f_natural(rect.g, rect.u.target))
    graph = {e: (rect.u.span.left(e[0]), rect.p(e[0])) for e in left.span.apex.elements}
    return pushed, lambda cand: cell_passes(make_cc_cell(left, cc_compose(fn, cand), graph))


def chain_candidates_mod2(src: Complex, tgt: Complex) -> list[ChainMap] | None:
    """All chain maps src -> tgt with entries in Z/2, or None past 14 entries."""
    shapes = [(n, tgt.rank(n), src.rank(n)) for n, _ in src.ranks if tgt.rank(n)]
    slots = sum(r * c for _, r, c in shapes)
    if slots > 14:
        return None
    out = []
    for bits in itertools.product(range(2), repeat=slots):
        comps, k = {}, 0
        for n, r, c in shapes:
            rows = []
            for _ in range(r):
                rows.append(list(bits[k : k + c]))
                k += c
            comps[n] = rows
        try:
            out.append(make_chain_map(src, tgt, comps))
        except ValueError:
            pass
    return out


def exhaustive_unique_lifts(params: GenParams, seeds: Sequence[int], enough: int) -> int:
    """Instances, up to enough, on which every chain map over Z/2 at each
    lower apex point was tried and only the pushforward passes."""
    exhaustive = 0
    for seed in seeds:
        if exhaustive >= enough:
            break
        rect = random_lv_instance(seed, params).lv
        pushed, passes = lift_test(rect)
        assert passes(pushed), seed
        if not rect.cp.apex.elements:
            continue
        per_point = []
        for gp in rect.cp.apex.elements:
            cands = chain_candidates_mod2(
                pushed.source.stalk(rect.cp.left(gp)),
                pushed.target.stalk(rect.cp.right(gp)),
            )
            if cands is None:
                per_point = None
                break
            per_point.append(cands)
        if per_point is None:
            continue
        total = 1
        for c in per_point:
            total *= len(c)
        if not (1 < total <= 4096):
            continue
        matches = 0
        for combo in itertools.product(*per_point):
            cand = make_cc_morphism(
                pushed.source, pushed.target, rect.cp,
                dict(zip(rect.cp.apex.elements, combo)),
            )
            if passes(cand):
                matches += 1
                assert cand == pushed
        assert matches == 1, seed
        exhaustive += 1
    return exhaustive


# ---------------------------------------------------------------------------
# duals, traces and the splitting of the pushforward square


def char_class(a: Sheaf, dx: DualityData | None = None) -> OmegaClass:
    """Trace of the identity; pointwise the Euler characteristic."""
    if dx is None:
        dx = make_dual(a)
    return trace(cc_identity(a), dx).omega


def dual_of_morphism(u: CCMorphism, da: DualityData, db: DualityData) -> CCMorphism:
    """Mate of u under the dualities: target-dual -> source-dual.

    Computed by the insert-coevaluation / contract-evaluation composite;
    pointwise it is the transpose, which the tests pin down.
    """
    if da.obj != u.source or db.obj != u.target:
        raise ValueError("duality data endpoints mismatch")
    a = da.obj
    return cc_compose_many(
        right_unitor(db.dual),
        cc_tensor(cc_identity(db.dual), da.coev),
        cc_assoc(db.dual, a, da.dual),
        cc_tensor(cc_tensor(cc_identity(db.dual), u), cc_identity(da.dual)),
        cc_tensor(db.ev, cc_identity(da.dual)),
        cc_invert(left_unitor(da.dual)),
    )


@dataclass(frozen=True)
class Splitting:
    """Explicit splitting data for the left down-square: the diagonal
    morphism w together with the two defining 2-cells."""

    w: CCMorphism
    gamma: CCCell
    delta: CCCell


def proper_splitting(rect: PushRectangles) -> Splitting:
    """Canonical splitting of the left down-square (all maps are proper):
    the diagonal is the pushforward of u along (f, id, id).  The delta
    cell's apex component is the vertical map p, which is how
    pairing_functorial pushes the upper fixed points down."""
    u, f, p = rect.u, rect.f, rect.p
    c = u.span
    diag_span = Span(om_compose(f, c.left), c.right)
    w = shriek_push(u, f, om_identity(c.apex), om_identity(u.target.space), diag_span)

    fn = f_natural(f, u.source)
    comp_fw = cc_compose(fn, w)
    gamma = make_cc_cell(u, comp_fw, {g: (c.left(g), g) for g in c.apex.elements})

    gn = f_natural(rect.g, u.target)
    comp_wg = cc_compose(w, gn)
    pushed = shriek_push(u, f, p, rect.g, rect.cp)
    delta = make_cc_cell(comp_wg, pushed, {e: p(e[0]) for e in comp_wg.span.apex.elements})
    cc_cell_check(gamma)
    cc_cell_check(delta)
    return Splitting(w, gamma, delta)


# ---------------------------------------------------------------------------
# base change


def monoidal_structure(bc: BaseChange, a: Sheaf, b: Sheaf) -> CCRelabel:
    """The structure isomorphism pull(a) (x) pull(b) -> pull(a (x) b): a
    coordinate relabeling with literally equal stalks."""
    src = obj_tensor(pull_object(bc, a), pull_object(bc, b))
    tgt = pull_object(bc, obj_tensor(a, b))
    return CCRelabel(src, tgt, lambda e: ((e[0][0], e[1][0]), e[0][1]),
                     lambda e: ((e[0][0], e[1]), (e[0][1], e[1])))
