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
is symmetric monoidal.  Also here: the small complex, the exhaustive
lift search, the interlocking spans, the fixed seed lists every randomised
test draws from, the three size families past the generator's caps and the
emptying of every package cache, which several test modules share and
tests/conftest.py runs before each test; scripts/sweep_make_dual.py times
the size families.
"""

import itertools
import random
import sys
import zlib
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from functools import reduce

from spantrace.basefunc import BaseChange, pull_object
from spantrace.chainalg import (ZZ, ChainMap, Complex, Ring, cx_direct_sum, cx_tensor, make_chain_map,
                                make_complex, map_add, map_compose, map_direct_sum, map_identity, map_tensor,
                                mat_scale, mat_zero, unit_complex)
from spantrace.corrcat import (CCCell, CCMorphism, CCRelabel, cc_assoc, cc_cell_check, cc_compose,
                               cc_identity, cc_invert, cc_tensor, left_unitor, make_cc_morphism,
                               obj_tensor, right_unitor, shriek_push)
from spantrace.dualtrace import DualityData, PushRectangles, make_dual, trace
from spantrace.finspan import (FinOver, Label, OverMap, Span, make_fin_over, make_over_map, om_anchor, om_compose,
                               om_identity)
from spantrace.generate import (ComplexRecipe, GenParams, _random_unimodular, piece_complex, random_chain_map,
                                random_lv_instance)
from spantrace.sheafops import OmegaClass, Sheaf, push, unit_sheaf

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
# draws


def interlocking_spans(rng: random.Random, base: tuple, params: GenParams) -> list[Span]:
    """Three composable spans drawn as 1 to max_set chains x0 - x1 - x2 - x3
    over one base point each, feet new or shared with an earlier chain's:
    each chain is an element of the triple composite."""
    spaces = [{}, {}, {}, {}]  # element -> anchor
    chains = []
    for _ in range(rng.randint(1, params.max_set)):
        s = rng.choice(base)
        olds = [[x for x, t in space.items() if t == s] for space in spaces]
        chains.append([rng.choice(old) if old and rng.random() < 0.5 else f"v{i}_{len(space)}"
                       for i, (space, old) in enumerate(zip(spaces, olds))])
        for space, x in zip(spaces, chains[-1]):
            space[x] = s
    feet = [make_fin_over(base, tuple(space), space) for space in spaces]
    anchor = tuple(spaces[0][chain[0]] for chain in chains)
    spans = []
    for i, prefix in enumerate("cde"):
        apex = FinOver(base, tuple(f"{prefix}{k}" for k in range(len(chains))), anchor)
        spans.append(Span(*(OverMap(apex, feet[j], tuple(chain[j] for chain in chains)) for j in (i, i + 1))))
    return spans


def biting_lv_diagram(seed: int, ring: Ring) -> PushRectangles:
    """A two-rectangle diagram on which the pushforward identity compares
    nonzero values, drawn from seed (ROADMAP item 1).  A base of 1-2
    points; Xp and Yp of 1-3 points, Yp over every base point Xp uses; cp
    of 1-3 elements with feet over one base point, dp cp reversed leg for
    leg; covers X -> Xp and Y -> Yp with fibres of 1-2 points.  Each
    element of cp lifts into c twice with probability 0.7, else once, the
    second lift on the first one's feet half the time; d reverses c lift
    for lift, its right foot moved to another point of the same fibre with
    probability 0.2.  Stalks are 1-3 one-term pieces at degrees 0 and 1 in
    random bases, and chain maps leave out a block with probability 0.11."""
    rng = random.Random(seed)
    base = ("b0", "b1")[:rng.randint(1, 2)]

    def space(prefix: str, anchors: Sequence[Label]) -> FinOver:
        return FinOver(base, tuple(f"{prefix}{i}" for i in range(len(anchors))), tuple(anchors))

    def cover(lower: FinOver, prefix: str) -> tuple[FinOver, OverMap]:
        images = [t for t in lower.elements for _ in range(rng.randint(1, 2))]
        upper = space(prefix, [lower.anchor_of(t) for t in images])
        return upper, OverMap(upper, lower, tuple(images))

    def recipe() -> ComplexRecipe:
        pieces = sorted((rng.randint(0, 1), None) for _ in range(rng.randint(1, 3)))
        summed = cx_direct_sum([piece_complex(ring, piece) for piece in pieces], ring)
        bases = {n: _random_unimodular(rng, ring, r) for n, r in summed.ranks}
        return ComplexRecipe(pieces, {n: b[0] for n, b in bases.items()}, {n: b[1] for n, b in bases.items()},
                             summed, summed)

    xp = space("xp", [rng.choice(base) for _ in range(rng.randint(1, 3))])
    used = sorted(set(xp.anchor))
    yp = space("yp", used + [rng.choice(base) for _ in range(rng.randint(len(used), 3) - len(used))])
    feet = [(x, rng.choice(om_anchor(yp).fiber(xp.anchor_of(x))))
            for x in (rng.choice(xp.elements) for _ in range(rng.randint(1, 3)))]
    cp_apex, dp_apex = (space(k, [xp.anchor_of(x) for x, _ in feet]) for k in ("cp", "dp"))
    cp = Span(OverMap(cp_apex, xp, tuple(x for x, _ in feet)), OverMap(cp_apex, yp, tuple(y for _, y in feet)))
    dp = Span(OverMap(dp_apex, yp, cp.right.graph), OverMap(dp_apex, xp, cp.left.graph))
    (x, f), (y, g) = cover(xp, "x"), cover(yp, "y")
    lifts = []  # (position in cp, left foot, right foot)
    for i, gp in enumerate(cp_apex.elements):
        xs, ys = f.fiber(cp.left(gp)), g.fiber(cp.right(gp))
        first = (rng.choice(xs), rng.choice(ys))
        lifts.append((i, *first))
        if rng.random() < 0.7:
            lifts.append((i, *(first if rng.random() < 0.5 else (rng.choice(xs), rng.choice(ys)))))
    c_apex, d_apex = (space(k, [cp_apex.anchor[i] for i, _, _ in lifts]) for k in ("c", "d"))
    back = tuple(rng.choice(f.fiber(f(a))) if rng.random() < 0.2 else a for _, a, _ in lifts)
    c = Span(OverMap(c_apex, x, tuple(a for _, a, _ in lifts)), OverMap(c_apex, y, tuple(b for _, _, b in lifts)))
    d = Span(OverMap(d_apex, y, c.right.graph), OverMap(d_apex, x, back))
    rl, rm = {e: recipe() for e in x.elements}, {e: recipe() for e in y.elements}
    l, m = Sheaf(ring, x, tuple(rl[e].cx for e in x.elements)), Sheaf(ring, y, tuple(rm[e].cx for e in y.elements))
    u = make_cc_morphism(l, m, c, {k: random_chain_map(rng, rl[c.left(k)], rm[c.right(k)], skip=0.11)
                                   for k in c_apex.elements})
    v = make_cc_morphism(m, l, d, {k: random_chain_map(rng, rm[d.left(k)], rl[d.right(k)], skip=0.11)
                                   for k in d_apex.elements})
    return PushRectangles(f=f, p=OverMap(c_apex, cp_apex, tuple(cp_apex.elements[i] for i, _, _ in lifts)), g=g,
                          q=OverMap(d_apex, dp_apex, tuple(dp_apex.elements[i] for i, _, _ in lifts)),
                          u=u, v=v, cp=cp, dp=dp)


def clear_caches() -> None:
    """Empty every function with a cache_clear in an imported spantrace
    module (the kernel caches, the memo slots, make_dual's and the draws'
    memos), so that what comes next is computed afresh and depends on no
    earlier test."""
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "spantrace":
            for fn in vars(module).values():
                if hasattr(fn, "cache_clear"):
                    fn.cache_clear()


# ---------------------------------------------------------------------------
# the fixed seed lists every randomised test draws its inputs from

# the generator's default sizes, then two past its max_set default
SIZES = (GenParams(), GenParams(max_set=8), GenParams(max_set=16))


def seeds(master: int, n: int) -> list[int]:
    """The n seeds that random.Random(master) draws: the same list every run."""
    rng = random.Random(master)
    return [rng.getrandbits(63) for _ in range(n)]


def seeded(n: int, *choices: Sequence, first: Sequence[int] = ()) -> Callable:
    """Makes body(seed, *values) one test that runs on the seeds in first,
    then on n seeds drawn from the body's name.  With choices, the i-th run takes
    the i-th combination of one value from each choice, in turn, so every
    combination runs (n must be at least their number).  A failure names the
    body and the arguments it failed on."""
    combos = list(itertools.product(*choices))
    assert n >= len(combos), f"{n} seeds cannot cover {len(combos)} combinations"

    def decorate(body: Callable) -> Callable:
        def test():
            for i, seed in enumerate([*first, *seeds(zlib.crc32(body.__name__.encode()), n)]):
                args = (seed, *combos[i % len(combos)])
                try:
                    body(*args)
                except Exception as e:
                    raise AssertionError(f"{body.__name__}({', '.join(map(repr, args))}) fails") from e
        return test
    return decorate


# ---------------------------------------------------------------------------
# the size families past the generator's caps


def wide_object(ring: Ring, n: int) -> Sheaf:
    """n points over one base point, past the max_set cap: the size family
    on which duality's n^3 certificate apexes show.

    Every stalk has rank 2 then rank 1 in consecutive degrees, starting at
    degree 0 at even points (Euler characteristic 1) and at degree 1 at odd
    ones (-1), with the differential cycling through three matrices.
    """
    space = FinOver(("b",), tuple(f"x{i}" for i in range(n)), ("b",) * n)
    pool = [
        make_complex(ring, {k: 2, k + 1: 1}, {k: d})
        for d in ([[0, 0]], [[1, 0]], [[1, -1]])
        for k in (0, 1)
    ]
    return Sheaf(ring, space, tuple(pool[i % 6] for i in range(n)))


def profile_object(ring: Ring, n: int, start: int = 0) -> Sheaf:
    """n points over one base point, past the max_set cap, each with its own
    stalk of one rank profile: the size family on which composites kept per
    rank profile show, since no two points share a stalk.

    The stalk at point i is Z^2 in degree 0 and Z in degree 1, with
    differential [[k, k + 1]] for k = start + i; objects with disjoint
    ranges of k have no stalk in common over Z.
    """
    space = FinOver(("b",), tuple(f"x{i}" for i in range(n)), ("b",) * n)
    return Sheaf(ring, space, tuple(make_complex(ring, {0: 2, 1: 1}, {0: [[k, k + 1]]})
                                    for k in range(start, start + n)))


def deep_object(ring: Ring, r: int) -> Sheaf:
    """One point whose stalk has total rank r, past the max_rank cap: the
    size family on which the chain-complex kernels' cost in r shows, since
    duality's certificates tensor the stalk to rank r^3.

    The stalk is a direct sum of fixed pieces: r // 2 two-term pieces at
    degrees -2, -1, 0, 1 in turn, with differentials 1, 2, -1 in turn, and
    one free piece at degree 0 when r is odd.
    """
    pieces = [((-2, -1, 0, 1)[j % 4], (1, 2, -1)[j % 3]) for j in range(r // 2)]
    pieces += [(0, None)] * (r % 2)
    stalk = cx_direct_sum([piece_complex(ring, p) for p in pieces], ring)
    space = FinOver(("b",), ("x0",), ("b",))
    return Sheaf(ring, space, (stalk,))


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


def every_small_diagram(ring: Ring) -> Iterator[PushRectangles]:
    """Every two-rectangle diagram of the small scope: one base point; Xp,
    Yp, cp and dp of one point each; X and Y of 1-2 points; c and d each a
    multiset of at most 2 apex elements, listed by their feet; rank-1
    stalks at degree 0; every nonzero scalar component.  The lower row
    has one point at each place, so every such diagram commutes."""
    base = ("b",)

    def space(*elements: str) -> FinOver:
        return FinOver(base, elements, base * len(elements))

    def onto(source: FinOver, point: FinOver) -> OverMap:
        return OverMap(source, point, point.elements * source.size)

    xp, yp = space("xp"), space("yp")
    cp_apex, dp_apex = space("cp"), space("dp")
    cp = Span(onto(cp_apex, xp), onto(cp_apex, yp))
    dp = Span(onto(dp_apex, yp), onto(dp_apex, xp))
    one = unit_complex(ring)
    scalars = [make_chain_map(one, one, {0: [[k]]}) for k in range(1, ring.modulus)]

    def morphisms(source: Sheaf, target: Sheaf, prefix: str) -> Iterator[CCMorphism]:
        feet = list(itertools.product(source.space.elements, target.space.elements))
        for size in range(3):
            for chosen in itertools.combinations_with_replacement(feet, size):
                apex = space(*(f"{prefix}{k}" for k in range(size)))
                span = Span(OverMap(apex, source.space, tuple(x for x, _ in chosen)),
                            OverMap(apex, target.space, tuple(y for _, y in chosen)))
                for maps in itertools.product(scalars, repeat=size):
                    yield make_cc_morphism(source, target, span, dict(zip(apex.elements, maps)))

    for nx, ny in itertools.product((1, 2), repeat=2):
        x, y = space(*("x0", "x1")[:nx]), space(*("y0", "y1")[:ny])
        l, m = unit_sheaf(ring, x), unit_sheaf(ring, y)
        f, g = onto(x, xp), onto(y, yp)
        for u in morphisms(l, m, "c"):
            for v in morphisms(m, l, "d"):
                yield PushRectangles(f=f, p=onto(u.span.apex, cp_apex), g=g, q=onto(v.span.apex, dp_apex),
                                     u=u, v=v, cp=cp, dp=dp)


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
    return cc_compose(
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
