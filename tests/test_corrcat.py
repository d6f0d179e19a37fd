"""Correspondence 2-category: composition laws, 2-cells, pushforward
assembly and its uniqueness, the pushforward adjunction."""

import gc
import random
import weakref
from pathlib import Path

import pytest

from spantrace.chainalg import (
    Ring,
    ZZ,
    make_chain_map,
    make_complex,
    map_compose,
    map_direct_sum,
    map_identity,
    map_tensor,
    mat,
    unit_complex,
)
from spantrace.basefunc import pull_morphism, pull_object
from spantrace.corrcat import (
    CCCell,
    CCObject,
    CCMorphism,
    CCRelabel,
    cc_cell_check,
    cc_assoc,
    cc_assoc_inv,
    cc_compose,
    cc_compose_many,
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
from spantrace.dualtrace import make_dual, push_preserves_dual
from spantrace.finspan import (
    FinOver,
    OverMap,
    Span,
    base_space,
    fiber_product,
    identity_span,
    make_fin_over,
    make_over_map,
    om_compose,
    om_identity,
    span_compose,
    span_tensor,
)
from spantrace.generate import (
    GenParams,
    _lift_span,
    random_base,
    random_base_change_for,
    random_cc_morphism,
    random_endo_instance,
    random_gen_object,
    random_lv_instance,
    random_object_instance,
    random_pair_instance,
    random_space,
    random_space_over,
    random_span,
)
from spantrace.instances import parse_instance
from spantrace.sheafops import Sheaf, make_sheaf, push, unit_sheaf
from statements import (
    adjunction_counit,
    adjunction_triangles,
    adjunction_unit,
    cc_iso_search,
    deep_object,
    exhaustive_unique_lifts,
    f_conatural,
    f_natural,
    inclusion_map,
    interlocking_spans,
    make_cc_cell,
    map_scale,
    monoidal_structure,
    projection_map,
    q_complex,
    seeded,
    triangle_composite_is_identity,
    wide_object,
)

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def scalar_object(base=("z",), n=1):
    s = base_space(base)
    x = make_fin_over(base, tuple(f"x{i}" for i in range(n)), {f"x{i}": base[0] for i in range(n)})
    return unit_sheaf(ZZ, x)


def loop_morphism(obj, k):
    """Endomorphism over the identity span scaling every stalk by k."""
    span = identity_span(obj.space)
    maps = {x: map_scale(k, map_identity(obj.stalk(x))) for x in obj.space.elements}
    return make_cc_morphism(obj, obj, span, maps)


def test_cc_compose_examples():
    a = scalar_object(n=2)
    m = loop_morphism(a, 2)
    comp = cc_compose(m, cc_identity(a))
    assert cc_iso_search(comp, m) is not None
    # scalar composition multiplies
    m6 = cc_compose(loop_morphism(a, 2), loop_morphism(a, 3))
    assert cc_iso_search(m6, loop_morphism(a, 6)) is not None
    # empty middle overlap gives the empty morphism
    empty = make_fin_over(("z",), (), {})
    none_span = Span(make_over_map(empty, a.space, {}), make_over_map(empty, a.space, {}))
    none_m = make_cc_morphism(a, a, none_span, {})
    assert cc_compose(m, none_m).span.apex.size == 0


def test_lookup_of_a_foreign_label_raises_value_error():
    # ValueError, not KeyError: the suites and the CLI catch ValueError
    a = scalar_object(n=2)
    m = loop_morphism(a, 2)
    assert m.map_at("x1") == m.maps[1]
    for label in ("nowhere", ("x0", "x1")):
        with pytest.raises(ValueError, match="not an element"):
            m.map_at(label)


def test_cc_tensor_examples():
    a = scalar_object()
    unit = unit_object(ZZ, a.space.base)
    m = loop_morphism(a, 2)
    t = cc_tensor(m, cc_identity(unit))
    assert t.span.apex.size == 1
    assert t.map_at(t.span.apex.elements[0]).component(0) == mat(ZZ, [[2]])
    t2 = cc_tensor(loop_morphism(a, 2), loop_morphism(a, 3))
    assert t2.map_at(t2.span.apex.elements[0]).component(0) == mat(ZZ, [[6]])


def test_cc_tensor_shares_one_map_tensor_per_pair_of_maps_by_value():
    """map_tensor keys its component matrices by its maps' ranks and
    components: maps equal in value share them, while zero maps with the
    same source and components into different targets each get their own."""
    base = ("z",)
    one = unit_object(ZZ, base)
    x = make_fin_over(base, ("x0", "x1"), {"x0": "z", "x1": "z"})
    a = make_sheaf(ZZ, x, {"x0": q_complex(), "x1": make_complex(ZZ, {0: 1, 1: 1}, {0: [[0]]})})
    apex = make_fin_over(base, ("g0", "g1", "g2"), dict.fromkeys(("g0", "g1", "g2"), "z"))
    span = Span(OverMap(apex, one.space, apex.anchor),
                make_over_map(apex, x, {"g0": "x0", "g1": "x1", "g2": "x0"}))
    u = make_cc_morphism(one, a, span, {g: make_chain_map(unit_complex(ZZ), a.stalk(span.right(g)), {})
                                        for g in apex.elements})
    assert u.maps[0] is not u.maps[2] and u.maps[0] == u.maps[2]
    t = cc_tensor(u, cc_identity(one))
    pairs = t.span.apex.elements
    assert [t.target.stalk(t.span.right(e)) for e in pairs] == [f.target for f in t.maps]
    assert list(t.maps) == [map_tensor(u.map_at(g), map_identity(one.stalk(h))) for g, h in pairs]
    first, third = t.maps[0].components, t.maps[2].components
    assert first and all(p is q for (_, p), (_, q) in zip(first, third))
    assert t.maps[1].target != t.maps[0].target


def test_cc_cell_check_examples():
    base = ("z",)
    a = scalar_object(base)
    x = a.space
    two = make_fin_over(base, ("g0", "g1"), {"g0": "z", "g1": "z"})
    span2 = Span(
        make_over_map(two, x, {"g0": "x0", "g1": "x0"}),
        make_over_map(two, x, {"g0": "x0", "g1": "x0"}),
    )
    u = make_cc_morphism(
        a, a, span2,
        {"g0": map_scale(3, map_identity(unit_complex(ZZ))),
         "g1": map_scale(4, map_identity(unit_complex(ZZ)))},
    )
    collapsed = loop_morphism(a, 7)
    good = make_cc_cell(u, collapsed, {"g0": "x0", "g1": "x0"})
    cc_cell_check(good)
    bad_target = loop_morphism(a, 3)
    bad = make_cc_cell(u, bad_target, {"g0": "x0", "g1": "x0"})
    with pytest.raises(ValueError, match="component sum"):
        cc_cell_check(bad)
    ident_cell = make_cc_cell(collapsed, collapsed, {"x0": "x0"})
    cc_cell_check(ident_cell)


def test_cc_cell_check_takes_a_one_element_fibre_as_its_sum():
    """A fibre of one element is compared with the target directly, one of
    two is summed; a component between other stalks than the target's is
    refused as a sum of maps with different endpoints either way."""
    base = ("z",)
    a = scalar_object(base)
    two = make_fin_over(base, ("g0", "g1"), {"g0": "z", "g1": "z"})
    legs = make_over_map(two, a.space, {"g0": "x0", "g1": "x0"})
    scaled = [map_scale(k, map_identity(unit_complex(ZZ))) for k in (2, 3)]
    u = make_cc_morphism(a, a, Span(legs, legs), {"g0": scaled[0], "g1": scaled[1]})
    cc_cell_check(make_cc_cell(u, loop_morphism(a, 5), {"g0": "x0", "g1": "x0"}))
    cc_cell_check(make_cc_cell(loop_morphism(a, 5), loop_morphism(a, 5), {"x0": "x0"}))
    with pytest.raises(ValueError, match="component sum fails at 'x0'"):
        cc_cell_check(make_cc_cell(loop_morphism(a, 3), loop_morphism(a, 5), {"x0": "x0"}))
    # built past make_cc_morphism's stalk checks: components out of a rank-2 complex
    wide = make_chain_map(make_complex(ZZ, {0: 2}), unit_complex(ZZ), {0: [[5, 0]]})
    one = identity_span(a.space)
    stray = CCMorphism(a, a, one, (wide,))
    with pytest.raises(ValueError, match="^sum of maps with different endpoints$"):
        cc_cell_check(make_cc_cell(stray, loop_morphism(a, 5), {"x0": "x0"}))
    strays = CCMorphism(a, a, Span(legs, legs), (wide, scaled[1]))
    with pytest.raises(ValueError, match="^sum of maps with different endpoints$"):
        cc_cell_check(make_cc_cell(strays, loop_morphism(a, 8), {"g0": "x0", "g1": "x0"}))


def test_cc_cell_check_names_the_broken_leg():
    a = scalar_object(n=2)
    x = a.space
    ident = cc_identity(a)
    swapped = make_cc_cell(ident, ident, {"x0": "x1", "x1": "x0"})
    with pytest.raises(ValueError, match="left leg broken at 'x0'"):
        cc_cell_check(swapped)
    crossed = make_over_map(x, x, {"x0": "x1", "x1": "x0"})
    u = make_cc_morphism(
        a, a, Span(om_identity(x), crossed),
        {g: map_identity(unit_complex(ZZ)) for g in x.elements},
    )
    with pytest.raises(ValueError, match="right leg broken at 'x0'"):
        cc_cell_check(make_cc_cell(u, ident, {"x0": "x0", "x1": "x1"}))


def test_cc_cell_check_rejects_a_graph_off_the_apexes():
    # graphs out of or into another space are no maps between the apexes
    m = cc_identity(scalar_object())
    x = m.span.apex
    y = make_fin_over(("z",), ("y",), {"y": "z"})
    for graph in (om_identity(y), make_over_map(x, y, {"x0": "y"})):
        cell = CCCell(m, m, graph)
        with pytest.raises(ValueError, match="not a map between the apexes"):
            cc_cell_check(cell)


def test_cc_iso_search_misses():
    a = scalar_object(n=2)
    x = a.space
    unit_map = map_identity(unit_complex(ZZ))

    def over(left, right):
        span = Span(make_over_map(x, x, left), make_over_map(x, x, right))
        return make_cc_morphism(a, a, span, {g: unit_map for g in x.elements})

    ident = {"x0": "x0", "x1": "x1"}
    crossed = {"x0": "x1", "x1": "x0"}
    to_x0 = {"x0": "x0", "x1": "x0"}
    # same legs, a component differs
    assert cc_iso_search(loop_morphism(a, 2), loop_morphism(a, 3)) is None
    # apex sizes differ
    one = make_fin_over(("z",), ("g",), {"g": "z"})
    leg = make_over_map(one, x, {"g": "x0"})
    small = make_cc_morphism(a, a, Span(leg, leg), {"g": unit_map})
    assert cc_iso_search(over(ident, ident), small) is None
    assert cc_iso_search(small, over(ident, ident)) is None
    # signature multisets differ: as sets, and only in multiplicity
    assert cc_iso_search(over(ident, ident), over(ident, crossed)) is None
    assert cc_iso_search(over(to_x0, to_x0), over(ident, ident)) is None
    # the same multiset in another order is found
    found = cc_iso_search(over(ident, crossed), over(crossed, ident))
    assert found is not None and found.graph == ("x1", "x0")


def constant_map_setup(stalks):
    base = ("z",)
    x = make_fin_over(base, tuple(stalks), {k: "z" for k in stalks})
    pt = make_fin_over(base, ("p",), {"p": "z"})
    f = make_over_map(x, pt, {k: "p" for k in stalks})
    sheaf = make_sheaf(ZZ, x, {k: unit_complex(ZZ) for k in stalks})
    return x, pt, f, sheaf


def test_f_natural_examples():
    x, pt, f, sheaf = constant_map_setup(("a", "b"))
    fn = f_natural(om_identity(x), sheaf)
    assert cc_iso_search(fn, cc_identity(sheaf)) is not None
    fn2 = f_natural(f, sheaf)
    assert fn2.map_at("a").component(0) == mat(ZZ, [[1], [0]])
    assert fn2.map_at("b").component(0) == mat(ZZ, [[0], [1]])
    empty = make_fin_over(("z",), (), {})
    fe = f_natural(make_over_map(empty, pt, {}), make_sheaf(ZZ, empty, {}))
    assert fe.span.apex.size == 0


def test_f_conatural_examples():
    x, pt, f, sheaf = constant_map_setup(("a", "b"))
    fc = f_conatural(f, sheaf)
    assert fc.map_at("a").component(0) == mat(ZZ, [[1, 0]])
    assert fc.map_at("b").component(0) == mat(ZZ, [[0, 1]])


def test_f_natural_components_are_fiber_inclusions():
    # at x, the components include x's stalk at its position in the fiber
    # sum over f(x), and project back out of it
    later = 0
    for seed in range(40):
        rect = random_lv_instance(seed, GenParams()).lv
        for f, l in ((rect.f, rect.u.source), (rect.g, rect.u.target)):
            fn, fc = f_natural(f, l), f_conatural(f, l)
            ident = om_identity(f.source)
            assert fn.span == Span(ident, f) and fc.span == Span(f, ident)
            assert fn.source == fc.target == l
            assert fn.target == fc.source == push(f, l)
            for x in f.source.elements:
                fiber = f.fiber(f(x))
                parts = [l.stalk(z) for z in fiber]
                i = fiber.index(x)
                later += i > 0
                assert fn.map_at(x) == inclusion_map(parts, i, l.ring)
                assert fc.map_at(x) == projection_map(parts, i, l.ring)
    assert later >= 20  # fibers of size >= 2 are exercised


def test_cc_invert_reverses_relabelings_with_identity_components():
    # composing with an inverted unitor is among the RELABELINGS below
    a = scalar_object(n=2)
    inv = cc_invert(left_unitor(a))
    assert (inv.source, inv.target, inv.stalk_map) == (left_unitor(a).target, a, None)
    with pytest.raises(ValueError, match="only a relabeling with identity components"):
        cc_invert(cc_swap(a, a))


def test_adjunction_cells_and_triangles():
    x, pt, f, sheaf = constant_map_setup(("a", "b"))
    cc_cell_check(adjunction_unit(f, sheaf))
    cc_cell_check(adjunction_counit(f, sheaf))
    tri1, tri2 = adjunction_triangles(f, sheaf)
    assert triangle_composite_is_identity(tri1)
    assert triangle_composite_is_identity(tri2)


@seeded(25)
def test_adjunction_triangles_random(seed):
    rng = random.Random(seed)
    params = GenParams()
    base = random_base(rng, params)
    xp = random_space(rng, base, "xp", params, min_size=1)
    x, f = random_space_over(rng, xp, "x", params)
    gen = random_gen_object(rng, Ring(rng.choice([0, 7])), x, params)
    tri1, tri2 = adjunction_triangles(f, gen.obj)
    assert triangle_composite_is_identity(tri1)
    assert triangle_composite_is_identity(tri2)


def assert_components_are_the_pushed_stalks(pushed: CCMorphism) -> None:
    """Each component runs from the pushed source stalk at its left foot to
    the pushed target stalk at its right foot: those stalks, not rebuilt
    sums equal to them."""
    span = pushed.span
    for e in span.apex.elements:
        comp = pushed.map_at(e)
        assert comp.source is pushed.source.stalk(span.left(e))
        assert comp.target is pushed.target.stalk(span.right(e))


def test_shriek_push_examples():
    x, pt, f, _ = constant_map_setup(("a", "b"))
    obj = make_sheaf(ZZ, x, {"a": unit_complex(ZZ), "b": unit_complex(ZZ)})
    span = identity_span(x)
    u = make_cc_morphism(
        obj, obj, span,
        {"a": map_scale(3, map_identity(unit_complex(ZZ))),
         "b": map_scale(5, map_identity(unit_complex(ZZ)))},
    )
    # identity verticals leave the morphism unchanged
    idped = shriek_push(u, om_identity(x), om_identity(x), om_identity(x), span)
    assert idped == u
    # collapse to the point: single block-diagonal component
    lower = identity_span(pt)
    pushed = shriek_push(u, f, f, f, lower)
    assert pushed.map_at("p").component(0) == mat(ZZ, [[3, 0], [0, 5]])
    # empty fiber over a lower apex point gives the zero block
    empty = make_fin_over(("z",), (), {})
    u_empty = make_cc_morphism(obj, obj,
        Span(make_over_map(empty, x, {}), make_over_map(empty, x, {})), {})
    pushed0 = shriek_push(u_empty, f, make_over_map(empty, pt, {}), f, lower)
    assert pushed0.map_at("p").component(0) == mat(ZZ, [[0, 0], [0, 0]])
    for m in (idped, pushed, pushed0):  # fibres of one and of two elements
        assert_components_are_the_pushed_stalks(m)


def test_shriek_push_components_are_the_pushed_stalks():
    """Both rectangles of the nonzero LV fixture, whose fibres have two
    elements, and of drawn diagrams, with fibres of 0, 1 and 2 elements."""
    rects = [parse_instance((FIXTURES / "lv_nonzero.json").read_text()).lv]
    rects += [random_lv_instance(seed, GenParams()).lv for seed in range(8)]
    sizes = set()
    for r in rects:
        for u, f, p, g, lower in ((r.u, r.f, r.p, r.g, r.cp), (r.v, r.g, r.q, r.f, r.dp)):
            sizes |= {len(f.fiber(x)) for x in f.target.elements}
            assert_components_are_the_pushed_stalks(shriek_push(u, f, p, g, lower))
    assert {0, 1, 2} <= sizes


def test_shriek_push_rejects_non_commuting():
    x, pt, f, obj = constant_map_setup(("a", "b"))
    span = identity_span(x)
    u = cc_identity(obj)
    swap = make_over_map(x, x, {"a": "b", "b": "a"})
    with pytest.raises(ValueError, match="commute"):
        shriek_push(u, om_identity(x), swap, om_identity(x), span)


def test_shriek_push_unique_lift_exhaustive():
    """Over Z/2 with tiny shapes, the pushforward is the one and only
    morphism over the lower span through which the rectangle is a 2-cell."""
    params = GenParams(max_set=2, max_rank=1, deg_min=0, deg_max=1, modulus=2)
    assert exhaustive_unique_lifts(params, range(40), 40) >= 5


@seeded(20)
def test_compose_associative_up_to_iso(seed):
    rng = random.Random(seed)
    params = GenParams()
    ring = Ring(rng.choice([0, 7]))
    base = random_base(rng, params)
    spaces = [random_space(rng, base, f"v{i}", params, min_size=1) for i in range(4)]
    gens = [random_gen_object(rng, ring, s, params) for s in spaces]
    ms = [
        random_cc_morphism(rng, gens[i], gens[i + 1],
                           random_span(rng, spaces[i], spaces[i + 1], f"c{i}", params))
        for i in range(3)
    ]
    lhs = cc_compose(cc_compose(ms[0], ms[1]), ms[2])
    rhs = cc_compose(ms[0], cc_compose(ms[1], ms[2]))
    assert cc_iso_search(lhs, rhs) is not None
    # unit laws
    assert cc_iso_search(cc_compose(cc_identity(gens[0].obj), ms[0]), ms[0]) is not None
    assert cc_iso_search(cc_compose(ms[0], cc_identity(gens[1].obj)), ms[0]) is not None


@seeded(15)
def test_interchange_up_to_iso(seed):
    rng = random.Random(seed)
    params = GenParams(max_set=3)
    ring = Ring(rng.choice([0, 7]))
    base = random_base(rng, params)
    sp = [random_space(rng, base, f"v{i}", params, min_size=1) for i in range(3)]
    sq = [random_space(rng, base, f"w{i}", params, min_size=1) for i in range(3)]
    gp = [random_gen_object(rng, ring, s, params) for s in sp]
    gq = [random_gen_object(rng, ring, s, params) for s in sq]
    a = random_cc_morphism(rng, gp[0], gp[1], random_span(rng, sp[0], sp[1], "a", params))
    b = random_cc_morphism(rng, gp[1], gp[2], random_span(rng, sp[1], sp[2], "b", params))
    c = random_cc_morphism(rng, gq[0], gq[1], random_span(rng, sq[0], sq[1], "c", params))
    d = random_cc_morphism(rng, gq[1], gq[2], random_span(rng, sq[1], sq[2], "d", params))
    # independent spans often compose to nothing, so also draw interlocking
    # ones, whose composites hold at least one element per chain
    chained = []
    for _ in range(2):
        s, t, _ = interlocking_spans(rng, base, params)
        feet = [random_gen_object(rng, ring, x, params) for x in (s.left.target, s.right.target, t.right.target)]
        chained += [random_cc_morphism(rng, feet[0], feet[1], s), random_cc_morphism(rng, feet[1], feet[2], t)]
    for a, b, c, d in [(a, b, c, d), chained]:
        ab, cd = cc_compose(a, b), cc_compose(c, d)
        lhs = cc_tensor(ab, cd)
        rhs = cc_compose(cc_tensor(a, c), cc_tensor(b, d))
        assert cc_iso_search(lhs, rhs) is not None
    # the interlocking composites, from the last pass, hold every chain
    assert ab.span.apex.size >= a.span.apex.size >= 1 and cd.span.apex.size >= c.span.apex.size >= 1


# 334 first: a component read at the wrong apex element fails on it
@seeded(15, first=[334])
def test_shriek_push_horizontal_pasting(seed):
    # pushing a composite equals composing the pushes, literally
    inst = random_lv_instance(seed, GenParams())
    rect = inst.lv

    e = cc_compose(rect.u, rect.v)
    lower = span_compose(rect.cp, rect.dp)
    apex, pr1, pr2 = fiber_product(rect.u.span.right, rect.v.span.left)
    pq = make_over_map(
        apex, lower.apex,
        {g: (rect.p(g[0]), rect.q(g[1])) for g in apex.elements},
    )
    lhs = shriek_push(e, rect.f, pq, rect.f, lower)
    rhs = cc_compose(
        shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp),
        shriek_push(rect.v, rect.g, rect.q, rect.f, rect.dp),
    )
    assert lhs == rhs


@seeded(15)
def test_shriek_push_vertical_pasting(seed):
    # stacking two rectangles agrees with the composite rectangle through
    # the canonical block-permutation reordering of the fiber sums
    rng = random.Random(seed)
    params = GenParams(max_set=3)
    ring = Ring(rng.choice([0, 7]))
    base = random_base(rng, params)
    # bottom row
    xpp = random_space(rng, base, "xpp", params, min_size=1)
    ypp = random_space(rng, base, "ypp", params, min_size=1)
    cpp = random_span(rng, xpp, ypp, "cpp", params)
    # middle row over it, then top row over the middle
    xp, f2 = random_space_over(rng, xpp, "xp", params)
    yp, g2 = random_space_over(rng, ypp, "yp", params)
    cp, p2 = _lift_span(rng, cpp, f2, g2, "cp")
    x, f1 = random_space_over(rng, xp, "x", params)
    y, g1 = random_space_over(rng, yp, "y", params)
    c, p1 = _lift_span(rng, cp, f1, g1, "c")
    gl = random_gen_object(rng, ring, x, params)
    gm = random_gen_object(rng, ring, y, params)
    u = random_cc_morphism(rng, gl, gm, c)

    once = shriek_push(u, f1, p1, g1, cp)
    twice = shriek_push(once, f2, p2, g2, cpp)
    direct = shriek_push(
        u, om_compose(f2, f1), om_compose(p2, p1), om_compose(g2, g1), cpp
    )

    def reorder_iso(fa, fb, sheaf, backward=False):
        # (push fb . push fa) -> push (fb . fa): identity blocks permuted;
        # backward builds the inverse directly, with the blocks transposed
        comp = om_compose(fb, fa)
        src_obj = push(fb, push(fa, sheaf))
        tgt_obj = push(comp, sheaf)

        def stalk(xpp_el):
            nested = [xx for xp_el in fb.fiber(xpp_el) for xx in fa.fiber(xp_el)]
            flat = list(comp.fiber(xpp_el))
            parts_src = [sheaf.stalk(xx) for xx in nested]
            parts_tgt = [sheaf.stalk(xx) for xx in flat]
            places = [(flat.index(xx), si) for si, xx in enumerate(nested)]
            if backward:
                parts_src, parts_tgt = parts_tgt, parts_src
                places = [(si, ti) for ti, si in places]
            blocks = {
                (ti, si): map_identity(sheaf.stalk(xx))
                for (ti, si), xx in zip(places, nested)
            }
            return map_direct_sum(blocks, parts_src, parts_tgt, sheaf.ring)

        if backward:
            src_obj, tgt_obj = tgt_obj, src_obj
        return CCRelabel(src_obj, tgt_obj, lambda e: e, lambda e: e, stalk)

    inv_src = reorder_iso(f1, f2, gl.obj, backward=True)
    rel_tgt = reorder_iso(g1, g2, gm.obj)
    conj = cc_compose(cc_compose(inv_src, twice), rel_tgt)
    assert cc_iso_search(conj, direct) is not None


def built_relabel(r: CCRelabel) -> CCMorphism:
    """The relabeling built out in full as an ordinary morphism: apex its
    source space, identity left leg, forward as right leg, one component
    per element.  The oracle for the composites with a relabeling."""
    space = r.source.space
    right = OverMap(space, r.target.space, tuple(map(r.forward, space.elements)))
    assert right.is_bijective()
    if r.stalk_map is None:
        stalks = [r.source.stalk(x) for x in space.elements]
        assert stalks == [r.target.stalk(y) for y in right.graph]
        maps = tuple(map(map_identity, stalks))
    else:
        maps = tuple(map(r.stalk_map, space.elements))
    return CCMorphism(r.source, r.target, Span(om_identity(space), right), maps)


RELABELINGS = {
    # name: (relabeling, a morphism into its source, a morphism out of its
    # target), with the tensors of morphisms taken by t
    "left_unitor": lambda t, a, b, c, u, v, w, one, bc: (left_unitor(a), u, t(one, u)),
    "right_unitor": lambda t, a, b, c, u, v, w, one, bc: (right_unitor(a), u, t(u, one)),
    "left_unitor inverted": lambda t, a, b, c, u, v, w, one, bc: (
        cc_invert(left_unitor(a)), t(one, u), u),
    "right_unitor inverted": lambda t, a, b, c, u, v, w, one, bc: (
        cc_invert(right_unitor(a)), t(u, one), u),
    "cc_assoc": lambda t, a, b, c, u, v, w, one, bc: (
        cc_assoc(a, b, c), t(u, t(v, w)), t(t(u, v), w)),
    "cc_assoc_inv": lambda t, a, b, c, u, v, w, one, bc: (
        cc_assoc_inv(a, b, c), t(t(u, v), w), t(u, t(v, w))),
    "cc_swap": lambda t, a, b, c, u, v, w, one, bc: (cc_swap(a, b), t(u, v), t(v, u)),
    "cc_swap inverted": lambda t, a, b, c, u, v, w, one, bc: (cc_swap(b, a), t(v, u), t(u, v)),
    "monoidal_structure": lambda t, a, b, c, u, v, w, one, bc: (
        monoidal_structure(bc, a, b), t(pull_morphism(bc, u), pull_morphism(bc, v)),
        pull_morphism(bc, t(u, v))),
}


def relabeling_case(seed, modulus):
    """Three random objects over one base, an endomorphism of each, the
    identity of the unit and a base change, for RELABELINGS."""
    rng = random.Random(seed)
    ring, params = Ring(modulus), GenParams(modulus=modulus)
    base = ("s0",) if rng.random() < 0.5 else ("s0", "s1")
    gens = [random_gen_object(rng, ring, random_space(rng, base, p, params, min_size=1), params)
            for p in "xyz"]

    def endo(g, prefix):
        span = random_span(rng, g.obj.space, g.obj.space, prefix, params)
        return random_cc_morphism(rng, g, g, span if span.apex.size else identity_span(g.obj.space))

    u, v, w = (endo(g, p) for g, p in zip(gens, "cde"))
    one = cc_identity(unit_object(ring, base))
    bc = random_base_change_for(seed ^ 0x77, base, params)
    return [g.obj for g in gens], [u, v, w, endo(gens[0], "f")], one, bc


def canonical_cell(lazy: CCMorphism, oracle: CCMorphism, to_pair) -> CCCell:
    """The cell from a composite with a relabeling onto the composite with
    the built-out relabeling, along the canonical apex bijection to_pair:
    g -> (g, right(g)) with the relabeling on the right, and
    g -> (backward(left(g)), g) with it on the left.  It is checked to be a
    bijection onto the oracle's apex."""
    apex = lazy.span.apex
    graph = OverMap(apex, oracle.span.apex, tuple(map(to_pair, apex.elements)))
    assert graph.is_bijective() and set(graph.graph) == set(oracle.span.apex.elements)
    return CCCell(lazy, oracle, graph)


@seeded(80, [0, 7, 2, 1], sorted(RELABELINGS))
def test_relabelings_compose_like_the_built_out_morphisms(seed, modulus, name):
    """A composite with a relabeling keeps the other morphism's apex and
    is the composite with the built-out relabeling through the canonical
    bijection: both legs and every component agree exactly."""
    objs, (u, v, w, _), one, bc = relabeling_case(seed, modulus)
    r, into, out = RELABELINGS[name](cc_tensor, *objs, u, v, w, one, bc)
    built = built_relabel(r)
    lazy, oracle = cc_compose(into, r), cc_compose(into, built)
    assert lazy.span.apex is into.span.apex and lazy.span.left is into.span.left
    cell = canonical_cell(lazy, oracle, lambda g: (g, into.span.right(g)))
    assert cell.graph.graph == oracle.span.apex.elements  # in the same order
    cc_cell_check(cell)
    lazy, oracle = cc_compose(r, out), cc_compose(built, out)
    assert lazy.span.apex is out.span.apex and lazy.span.right is out.span.right
    cc_cell_check(canonical_cell(lazy, oracle, lambda g: (r.backward(out.span.left(g)), g)))


def eager_tensor(a: CCMorphism, b: CCMorphism) -> CCMorphism:
    """cc_tensor with every component built at once, as a tuple."""
    span = span_tensor(a.span, b.span)
    maps = tuple(map_tensor(a.map_at(g), b.map_at(h)) for g, h in span.apex.elements)
    return CCMorphism(obj_tensor(a.source, b.source), obj_tensor(a.target, b.target), span, maps)


def eager_compose(a: CCMorphism | CCRelabel, b: CCMorphism | CCRelabel) -> CCMorphism:
    """cc_compose with every component built at once, as a tuple; a
    relabeling is built out first, so no reindexing is shared with
    cc_compose."""
    a, b = (built_relabel(m) if isinstance(m, CCRelabel) else m for m in (a, b))
    span = span_compose(a.span, b.span)
    maps = tuple(map_compose(b.map_at(d), a.map_at(g)) for g, d in span.apex.elements)
    return CCMorphism(a.source, b.target, span, maps)


@seeded(60, [0, 7, 2, 1], sorted(RELABELINGS))
def test_on_demand_components_match_the_eager_oracle(seed, modulus, name):
    """Tensors and composites, with a relabeling on either side, against
    the same constructions built eagerly from eager inputs: the span,
    every component read in a shuffled order, == and hash."""
    objs, (u, v, w, u2), one, bc = relabeling_case(seed, modulus)
    r, into, out = RELABELINGS[name](cc_tensor, *objs, u, v, w, one, bc)
    _, into0, out0 = RELABELINGS[name](eager_tensor, *objs, u, v, w, one, bc)
    cases = [
        (lambda: cc_tensor(u, v), eager_tensor(u, v), None),
        (lambda: cc_compose(u, u2), eager_compose(u, u2), None),
        (lambda: cc_compose(cc_tensor(u, v), cc_tensor(u2, v)),
         eager_compose(eager_tensor(u, v), eager_tensor(u2, v)), None),
        (lambda: cc_compose(into, r), eager_compose(into0, r), lambda g: (g, into.span.right(g))),
        (lambda: cc_compose(r, out), eager_compose(r, out0), lambda g: (r.backward(out.span.left(g)), g)),
        (lambda: cc_compose(cc_compose(into, r), out), eager_compose(eager_compose(into0, r), out0),
         lambda e: ((e[0], into.span.right(e[0])), e[1])),
    ]
    order = random.Random(seed ^ 0x5EED)
    for build, oracle, to_pair in cases:
        lazy = build()
        if to_pair is not None:  # compared through the canonical bijection, moved onto lazy's apex
            cc_cell_check(canonical_cell(build(), oracle, to_pair))
            oracle = transported(oracle, lazy.span.apex, to_pair)
        assert lazy.span == oracle.span and len(lazy.maps) == len(oracle.maps)
        for i in order.sample(range(len(oracle.maps)), len(oracle.maps)):
            assert lazy.maps[i] == oracle.maps[i]
        fresh = build()
        assert fresh == oracle and oracle == fresh and hash(fresh) == hash(oracle)


def transported(m: CCMorphism, apex: FinOver, to_pair) -> CCMorphism:
    """m moved onto apex through the bijection to_pair: legs and components
    read at to_pair(g), as a tuple."""
    at = [m.span.apex.index(to_pair(g)) for g in apex.elements]
    legs = (OverMap(apex, leg.target, tuple(leg.graph[i] for i in at)) for leg in (m.span.left, m.span.right))
    return CCMorphism(m.source, m.target, Span(*legs), tuple(m.maps[i] for i in at))


def test_relabeling_checks_the_elements_it_is_composed_at():
    a = scalar_object(n=2)
    m = loop_morphism(a, 2)
    unit_a = obj_tensor(unit_object(ZZ, ("z",)), a)
    not_inverse = CCRelabel(a, unit_a, lambda x: ("z", x), lambda e: "x0")
    with pytest.raises(ValueError, match="not a bijection at 'x1'"):
        cc_compose(m, not_inverse)
    off_target = CCRelabel(a, unit_a, lambda x: ("y", x), lambda e: e[1])
    with pytest.raises(ValueError, match="not a bijection at 'x0'"):
        cc_compose(m, off_target)
    off_source = CCRelabel(unit_a, a, lambda e: e[1], lambda x: ("y", x))
    with pytest.raises(ValueError, match="not a bijection at \\('y', 'x0'\\)"):
        cc_compose(off_source, m)
    q = make_sheaf(ZZ, a.space, {x: make_complex(ZZ, {0: 2}) for x in a.space.elements})
    with pytest.raises(ValueError, match="relabeling stalks differ"):
        cc_compose(m, CCRelabel(a, q, lambda x: x, lambda x: x))
    with pytest.raises(ValueError, match="only through a morphism"):
        cc_compose(left_unitor(a), cc_invert(left_unitor(a)))


def test_a_fully_read_composite_lets_go_of_its_factors():
    """An unread composite holds the factors of the tensor its components
    come from; once every component is read, they are freed."""
    a = scalar_object(n=2)
    m = loop_morphism(a, 2)
    one = cc_identity(unit_object(ZZ, ("z",)))
    outer = cc_compose_many(right_unitor(a), cc_tensor(m, one), cc_invert(right_unitor(a)))
    held = weakref.ref(one)
    del one
    gc.collect()
    assert held() is not None
    assert [u.component(0) for u in outer.maps] == [mat(ZZ, [[2]])] * 2
    gc.collect()
    assert held() is None


def test_relabeling_checks_run_before_any_component_is_read():
    """cc_compose checks a relabeling at every element it is composed at
    when it is called, on either side, though no component of the
    composite is ever read: here only the element x2 fails."""
    a = scalar_object(n=3)
    m = loop_morphism(a, 2)
    unit_a = obj_tensor(unit_object(ZZ, ("z",)), a)

    def ident(x):
        return map_identity(a.stalk(x))

    into = CCRelabel(a, unit_a, lambda x: ("z", x), lambda e: "x0" if e[1] == "x2" else e[1], ident)
    with pytest.raises(ValueError, match="relabeling is not a bijection at 'x2'"):
        cc_compose(m, into)
    out_of = CCRelabel(unit_a, a, lambda e: e[1], lambda x: ("z", "x0" if x == "x2" else x),
                       lambda e: ident(e[1]))
    with pytest.raises(ValueError, match="relabeling is not a bijection at \\('z', 'x0'\\)"):
        cc_compose(out_of, m)
    q = make_sheaf(ZZ, a.space, {x: make_complex(ZZ, {0: 2 if x == "x2" else 1})
                                 for x in a.space.elements})
    with pytest.raises(ValueError, match="relabeling stalks differ"):
        cc_compose(m, CCRelabel(a, q, lambda x: x, lambda x: x))
    with pytest.raises(ValueError, match="relabeling stalks differ"):
        cc_compose(CCRelabel(q, a, lambda x: x, lambda x: x), m)


def test_objects_are_sheaves():
    """Every constructor of objects returns the sheaf itself, which carries
    its space; CCObject only checks a sheaf against a space and returns it."""
    objs = []
    for name in ("lv_small", "lv_nonzero", "two_point"):
        objs += parse_instance((FIXTURES / f"{name}.json").read_text()).objects.values()
    params = GenParams()
    inst = random_lv_instance(5, params)
    gen, e = random_endo_instance(5, params)
    a, b, u, v = random_pair_instance(5, params)
    objs += [*inst.objects.values(), gen.obj, e.target, a.obj, b.obj, u.target, v.target,
             random_object_instance(5, params).obj, wide_object(ZZ, 3), deep_object(ZZ, 3),
             obj_tensor(a.obj, b.obj)]
    rect = inst.lv
    dx = make_dual(rect.u.source)
    pushed = shriek_push(rect.u, rect.f, rect.p, rect.g, rect.cp)
    pushed_dx = push_preserves_dual(rect.f, dx)
    bc = random_base_change_for(5, inst.base, params)
    objs += [dx.obj, dx.dual, pushed.source, pushed.target, pushed_dx.obj, pushed_dx.dual,
             pull_object(bc, rect.u.source)]
    assert [type(o).__name__ for o in objs if not isinstance(o, Sheaf)] == []

    s, t = deep_object(ZZ, 3), deep_object(ZZ, 2)
    assert CCObject(s.space, s) is s
    other = FinOver(("c",), s.space.elements, ("c",))  # same element, another base
    with pytest.raises(ValueError, match="sheaf carrier must be the underlying space"):
        CCObject(other, s)
    with pytest.raises(ValueError, match="carrier mismatch"):
        push(om_identity(other), s)
    with pytest.raises(ValueError, match="wrong target stalk"):
        make_cc_morphism(s, t, identity_span(s.space), {"x0": map_identity(s.stalk("x0"))})
