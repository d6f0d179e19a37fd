"""Spans over a base: chosen fiber products, composition, 2-cells, and
the explicit retupling bijections between differently-bracketed composites."""

import random
from collections import Counter

import pytest

from spantrace.chainalg import ZZ, cx_tensor, make_complex
from spantrace.corrcat import cc_assoc, cc_assoc_inv, cc_swap
from spantrace.finspan import (
    FinOver,
    OverMap,
    ProductMap,
    ProductOver,
    Span,
    base_space,
    cell_check,
    fiber_product,
    identity_span,
    make_fin_over,
    make_over_map,
    om_anchor,
    om_compose,
    om_identity,
    prod_over_base,
    span_compose,
    span_tensor,
)
from spantrace.generate import GenParams, random_base, random_gen_object, random_space, random_span
from spantrace.sheafops import Sheaf, box, unit_sheaf
from statements import interlocking_spans, seeded, span_iso_search


def two_over_one():
    base = ("z",)
    x = make_fin_over(base, ("a", "b"), {"a": "z", "b": "z"})
    y = make_fin_over(base, ("c",), {"c": "z"})
    z = base_space(base)
    return x, y, z


def no_tag(x):
    return None


def check_retupling(source: Span, target: Span, retuple) -> None:
    """The apex map x -> retuple(x) is a bijection and a 2-cell: it commutes
    with both legs."""
    bij = make_over_map(source.apex, target.apex, {x: retuple(x) for x in source.apex.elements})
    assert bij.is_bijective()
    cell_check(source, target, bij)


def drop_unit(x):
    return x[0]


def reassociate(x):
    (a, b), c = x
    return (a, (b, c))


def assert_associative(c: Span, d: Span, e: Span) -> None:
    check_retupling(span_compose(span_compose(c, d), e), span_compose(c, span_compose(d, e)), reassociate)


def test_make_over_map_validation():
    base = ("s", "t")
    x = make_fin_over(base, ("a",), {"a": "s"})
    y = make_fin_over(base, ("b",), {"b": "t"})
    with pytest.raises(ValueError, match="anchors"):
        make_over_map(x, y, {"a": "b"})
    with pytest.raises(ValueError, match="total"):
        make_over_map(x, x, {})


def test_fiber_product_examples():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    # along (f, id): elements (x, f(x)), first projection bijective onto x
    apex, pr1, _ = fiber_product(f, om_identity(z))
    assert apex.elements == (("a", "z"), ("b", "z"))
    assert pr1.graph == ("a", "b")
    # disjoint images -> empty
    w = make_fin_over(("s", "t"), ("p", "q"), {"p": "s", "q": "t"})
    f1 = make_over_map(make_fin_over(("s", "t"), ("u",), {"u": "s"}), w, {"u": "p"})
    f2 = make_over_map(make_fin_over(("s", "t"), ("v",), {"v": "t"}), w, {"v": "q"})
    empty, _, _ = fiber_product(f1, f2)
    assert empty.elements == ()
    # {a,b} -> z <- {c}
    g = make_over_map(y, z, {"c": "z"})
    apex2, _, _ = fiber_product(f, g)
    assert apex2.elements == (("a", "c"), ("b", "c"))


def test_fiber_product_symmetric_up_to_swap():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    g = make_over_map(y, z, {"c": "z"})
    left, _, _ = fiber_product(f, g)
    right, _, _ = fiber_product(g, f)
    assert sorted((b, a) for a, b in left.elements) == sorted(right.elements)


def test_span_compose_examples():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    c = Span(om_identity(x), f)
    # composing with the identity span: (g, _) -> g is a 2-cell onto c
    check_retupling(span_compose(c, identity_span(z)), c, drop_unit)
    # empty apex propagates
    e = make_fin_over(x.base, (), {})
    empty_span = Span(make_over_map(e, z, {}), make_over_map(e, z, {}))
    composed = span_compose(Span(f, f), empty_span)
    assert composed.apex.elements == ()
    # constant middle legs give the full product
    g = make_over_map(y, z, {"c": "z"})
    full = span_compose(Span(om_identity(x), f), Span(g, om_identity(y)))
    assert full.apex.size == x.size * y.size


def test_span_tensor_examples():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    c = Span(f, f)
    unit = identity_span(z)
    # c (x) 1 has its legs in X x_S S; (g, _) -> g is a 2-cell onto c with
    # its legs sent there by x -> (x, anchor(x))
    cu = span_tensor(c, unit)
    unit_in = make_over_map(z, cu.left.target, {t: (t, z.anchor_of(t)) for t in z.elements})
    check_retupling(cu, Span(om_compose(unit_in, c.left), om_compose(unit_in, c.right)), drop_unit)
    singleton = Span(om_identity(y), om_identity(y))
    assert span_tensor(singleton, singleton).apex.size == 1
    assert span_tensor(c, c).apex.size == 4


def test_cell_check_examples():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    c = Span(f, f)
    cell_check(c, c, om_identity(x))
    swap = make_over_map(x, x, {"a": "b", "b": "a"})
    cell_check(c, c, swap)  # equal legs, so the swap is leg-compatible
    d = Span(om_identity(x), f)
    with pytest.raises(ValueError, match="left leg"):
        cell_check(d, d, swap)
    with pytest.raises(ValueError, match="not a map between the apexes"):
        cell_check(c, c, om_identity(y))
    with pytest.raises(ValueError, match="non-parallel"):
        cell_check(c, d, om_identity(x))


def test_cell_vcompose_passes():
    # the vertical composite of two cells is the composite of their graphs
    x, _, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    c = Span(f, f)
    swap = make_over_map(x, x, {"a": "b", "b": "a"})
    cell_check(c, c, om_compose(swap, swap))


def test_span_compose_associativity_example():
    rng = random.Random(0)
    params = GenParams()
    base = random_base(rng, params)
    spaces = [random_space(rng, base, f"v{i}", params, min_size=1) for i in range(4)]
    c = random_span(rng, spaces[0], spaces[1], "c", params)
    d = random_span(rng, spaces[1], spaces[2], "d", params)
    e = random_span(rng, spaces[2], spaces[3], "e", params)
    assert span_compose(span_compose(c, d), e).apex.size > 0
    assert_associative(c, d, e)


@seeded(40)
def test_span_compose_associative_up_to_recoord(seed):
    """Independent spans often compose to nothing, so each example also
    draws interlocking ones, whose triple composite holds at least one
    element per chain; so at least half of all draws are non-empty."""
    rng = random.Random(seed)
    params = GenParams()
    base = random_base(rng, params)
    spaces = [random_space(rng, base, f"v{i}", params, min_size=1) for i in range(4)]
    c = random_span(rng, spaces[0], spaces[1], "c", params)
    d = random_span(rng, spaces[1], spaces[2], "d", params)
    e = random_span(rng, spaces[2], spaces[3], "e", params)
    chained = interlocking_spans(rng, base, params)
    for c, d, e in [(c, d, e), chained]:
        assert_associative(c, d, e)
    chains = chained[0].apex.size
    assert span_compose(span_compose(*chained[:2]), chained[2]).apex.size >= chains >= 1


def test_span_iso_search_examples():
    x, y, z = two_over_one()
    f = make_over_map(x, z, {"a": "z", "b": "z"})
    c = Span(f, f)
    found = span_iso_search(c, c, no_tag, no_tag)
    assert found is not None and found.graph == ("a", "b")
    # tags refine the signatures: here they force the swap
    found = span_iso_search(c, c, {"a": 1, "b": 2}.get, {"a": 2, "b": 1}.get)
    assert found is not None and found.graph == ("b", "a")
    small = Span(make_over_map(y, z, {"c": "z"}), make_over_map(y, z, {"c": "z"}))
    assert span_iso_search(c, small, no_tag, no_tag) is None
    # crossed legs force the swap
    a1 = Span(om_identity(x), om_identity(x))
    crossed = Span(
        make_over_map(x, x, {"a": "b", "b": "a"}),
        make_over_map(x, x, {"a": "b", "b": "a"}),
    )
    found = span_iso_search(a1, crossed, no_tag, no_tag)
    assert found is not None and found.graph == ("b", "a")


def test_span_iso_search_misses():
    x, y, z = two_over_one()
    ident = om_identity(x)
    crossed = make_over_map(x, x, {"a": "b", "b": "a"})
    to_a = make_over_map(x, x, {"a": "a", "b": "a"})
    # apex sizes differ
    one = make_fin_over(("z",), ("g",), {"g": "z"})
    leg = make_over_map(one, x, {"g": "a"})
    assert span_iso_search(Span(ident, ident), Span(leg, leg), no_tag, no_tag) is None
    assert span_iso_search(Span(leg, leg), Span(ident, ident), no_tag, no_tag) is None
    # signature multisets differ: as sets, and only in multiplicity
    assert span_iso_search(Span(ident, ident), Span(ident, crossed), no_tag, no_tag) is None
    assert span_iso_search(Span(to_a, to_a), Span(ident, ident), no_tag, no_tag) is None
    with pytest.raises(ValueError, match="not parallel"):
        span_iso_search(
            Span(ident, ident), Span(ident, make_over_map(x, z, {"a": "z", "b": "z"})), no_tag, no_tag
        )


def test_all_over_maps_have_finite_fibers():
    rng = random.Random(5)
    params = GenParams()
    base = random_base(rng, params)
    x = random_space(rng, base, "x", params)
    for s in base:
        assert isinstance(om_anchor(x).fiber(s), tuple)


def test_fin_over_and_over_map_invariants_at_construction():
    base = ("z",)
    with pytest.raises(ValueError, match="duplicate labels"):
        FinOver(base, ("a", "b", "a"), ("z", "z", "z"))
    with pytest.raises(ValueError, match="duplicate labels"):
        make_fin_over(base, ["a", "b", "a"], {"a": "z", "b": "z"})
    with pytest.raises(ValueError, match="anchors"):
        FinOver(base, ("a", "b"), ("z",))
    with pytest.raises(ValueError, match="anchors"):
        FinOver(base, ("a",), ("z", "z"))
    x = FinOver(base, ("a", "b"), ("z", "z"))
    assert x.index("b") == 1 and x.anchor_of("b") == "z" and "a" in x and "c" not in x
    with pytest.raises(ValueError, match="not an element"):
        x.index("c")
    z = base_space(base)
    with pytest.raises(ValueError, match="images"):
        OverMap(x, z, ("z",))
    with pytest.raises(ValueError, match="images"):
        OverMap(x, z, ("z", "z", "z"))
    assert OverMap(x, z, ("z", "z"))("b") == "z"


def cospans(rng):
    """Maps f: X -> Z <- Y: g over a small base, with many-to-one maps and
    elements of Z outside either image (empty fibers)."""
    base = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    z_anchor = [rng.choice(base) for _ in range(rng.randint(0, 5))]
    z = FinOver(base, tuple(f"z{i}" for i in range(len(z_anchor))), tuple(z_anchor))

    def over_z(prefix):
        images = [rng.choice(z.elements) for _ in range(rng.randint(0, 7))] if z.elements else []
        src = FinOver(base, tuple(f"{prefix}{i}" for i in range(len(images))),
                      tuple(z.anchor_of(t) for t in images))
        return OverMap(src, z, tuple(images))

    return over_z("x"), over_z("y")


def nested_loop_fiber_product(f, g):
    pairs = [(x, y) for x in f.source.elements for y in g.source.elements if f(x) == g(y)]
    return pairs, [f.source.anchor_of(x) for x, _ in pairs]


@seeded(200)
def test_fiber_product_matches_nested_loop(seed):
    f, g = cospans(random.Random(seed))
    pairs, anchors = nested_loop_fiber_product(f, g)
    apex, pr1, pr2 = fiber_product(f, g)
    assert apex.elements == tuple(pairs)
    assert apex.anchor == tuple(anchors)
    assert apex.base == f.source.base
    assert pr1 == OverMap(apex, f.source, tuple(x for x, _ in pairs))
    assert pr2 == OverMap(apex, g.source, tuple(y for _, y in pairs))


@seeded(200)
def test_cached_fibers_match_a_scan(seed):
    f, _ = cospans(random.Random(seed))
    for _ in range(2):  # computed on the first call, read on the second
        for y in f.target.elements + ("elsewhere",):
            assert f.fiber(y) == tuple(x for x, v in zip(f.source.elements, f.graph) if v == y)
    # the cache is no part of the value
    fresh = OverMap(f.source, f.target, f.graph)
    assert fresh == f and hash(fresh) == hash(f) and repr(fresh) == repr(f)


def test_fin_over_rejects_an_anchor_outside_the_base():
    with pytest.raises(ValueError, match="anchor of 'a' is 'zz', not a base element"):
        FinOver(("pt",), ("a",), ("zz",))
    with pytest.raises(ValueError, match="anchor of 'b' is 'q'"):
        FinOver(("pt", "p"), ("a", "b", "c"), ("p", "q", "r"))
    assert FinOver(("pt",), ("a",), ("pt",)).anchor_of("a") == "pt"


def eager_product(x, y):
    return fiber_product(om_anchor(x), om_anchor(y))[0]


def leaves(space):
    """The listed-out sets a product is built from, in order."""
    return [space] if space.factors is None else [s for f in space.factors for s in leaves(f)]


def count_lookups(*spaces):
    """A Counter of the lookups in each listed-out set's anchor table, by
    id: each set's member lookup is wrapped, so the products built on them
    from here on look up through the count."""
    counts = Counter()
    for space in spaces:
        def counted(x, table=space._member_anchor, key=id(space)):
            counts[key] += 1
            return table(x)

        space._member_anchor = counted
    return counts


def lookups(query, e, counts):
    """How often query(e) looks an element up in each counted set, by id."""
    counts.clear()
    try:
        query(e)
    except ValueError:
        pass
    return Counter(counts)


def check_product(lazy, eager, candidates, counts):
    """A product built on demand against the same set listed out: the same
    members and anchors without walking its elements, a member looked up
    once in each listed-out factor and a non-member at most once, then the
    same hash, size and positions, and equal both ways with the same
    elements and anchors.  counts counts the lookups in the listed-out
    factors' anchor tables (count_lookups)."""
    once = Counter(id(s) for s in leaves(lazy))
    for e in candidates:
        assert (e in lazy) == (e in eager)
        for query in (lazy.__contains__, lazy.anchor_of):
            seen = lookups(query, e, counts)
            assert seen == once if e in eager else seen <= once
        if e in eager:
            assert lazy.anchor_of(e) == eager.anchor_of(e)
    assert "elements" not in vars(lazy)
    assert hash(lazy) == hash(eager) and lazy.size == eager.size
    for e in candidates:
        if e in eager:
            assert lazy.index(e) == eager.index(e) and lazy.anchor_of(e) == eager.anchor_of(e)
        else:
            with pytest.raises(ValueError, match="not an element"):
                lazy.index(e)
            with pytest.raises(ValueError, match="not an element"):
                lazy.anchor_of(e)
    assert lazy == eager and eager == lazy
    assert lazy.elements == eager.elements and lazy.anchor == eager.anchor


def check_product_stalks(lazy, listed, candidates):
    """An external tensor of sheaves against its stalks listed out over the
    listed-out product: the same stalk at every member, a ValueError at
    every non-member, and membership tested once, at the top."""
    contains = ProductOver.__contains__
    for e in candidates:
        tests = [0]

        def counted(self, x):
            tests[0] += 1
            return contains(self, x)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ProductOver, "__contains__", counted)
            if e in listed.space:
                assert lazy.stalk(e) == listed.stalk(e)
            else:
                with pytest.raises(ValueError, match="not an element"):
                    lazy.stalk(e)
        assert tests == [1]


@seeded(60)
def test_products_on_demand_agree_with_the_fiber_product(seed):
    rng = random.Random(seed)
    params = GenParams()
    base = random_base(rng, params)
    x, y, z = (random_space(rng, base, p, params) for p in "xyz")
    counts = count_lookups(x, y, z)
    outsiders = ["x0", ("x0",), ("x0", "y0", "z0"), ("nope", "y0"), ()]
    pairs = [(a, b) for a in x.elements for b in y.elements]
    check_product(prod_over_base(x, y), eager_product(x, y), pairs + outsiders, counts)
    xy, yz = eager_product(x, y), eager_product(y, z)
    left = [(e, c) for e in pairs for c in z.elements]
    right = [(a, (b, c)) for a, b in pairs for c in z.elements]
    # wrong lengths at either level, and a label where a pair belongs
    malformed = ([(a, b, c) for a, b in pairs[:2] for c in z.elements[:2]]
                 + [((a,), c) for a in x.elements[:2] for c in z.elements[:2]]
                 + [(a, (b, c, c)) for a, b in pairs[:2] for c in z.elements[:2]] + pairs[:2])
    check_product(prod_over_base(prod_over_base(x, y), z), eager_product(xy, z), left + right + malformed,
                  counts)
    check_product(prod_over_base(x, prod_over_base(y, z)), eager_product(x, yz), right + left + malformed,
                  counts)
    # a three-fold product answers membership and anchors from its factors,
    # without listing the inner product out; prod_over_base keeps one
    # product per pair of factor objects, and those of x, y, z are listed
    # above, so these are built on fresh factor objects
    fx, fy, fz = (FinOver(s.base, s.elements, s.anchor) for s in (x, y, z))
    lazy_xy, lazy_yz = prod_over_base(fx, fy), prod_over_base(fy, fz)
    for inner, outer, eager in ((lazy_xy, prod_over_base(lazy_xy, fz), eager_product(xy, z)),
                                (lazy_yz, prod_over_base(fx, lazy_yz), eager_product(x, yz))):
        for e in left + right + outsiders:
            assert (e in outer) == (e in eager)
            if e in eager:
                assert outer.anchor_of(e) == eager.anchor_of(e)
        assert "elements" not in vars(inner) and "elements" not in vars(outer)
    # one product per pair of factor objects; equal factors decide equality
    # without walking; different contents differ both ways
    assert prod_over_base(x, y) is prod_over_base(x, y) and prod_over_base(fx, fy) is not prod_over_base(x, y)
    assert prod_over_base(fx, fy) == prod_over_base(x, y)
    differ = eager_product(y, x) != eager_product(x, y)
    assert (prod_over_base(y, x) != prod_over_base(x, y)) == differ
    assert (eager_product(y, x) != prod_over_base(x, y)) == differ
    # stalks of the three-fold external tensors, worked out from the factors
    l, m, n = (random_gen_object(rng, ZZ, s, params).obj for s in (x, y, z))
    xy_z, x_yz = eager_product(xy, z), eager_product(x, yz)
    check_product_stalks(box(box(l, m), n), Sheaf(ZZ, xy_z, tuple(
        cx_tensor(cx_tensor(l.stalk(a), m.stalk(b)), n.stalk(c)) for (a, b), c in xy_z.elements)),
        left + right + malformed + outsiders)
    check_product_stalks(box(l, box(m, n)), Sheaf(ZZ, x_yz, tuple(
        cx_tensor(l.stalk(a), cx_tensor(m.stalk(b), n.stalk(c))) for a, (b, c) in x_yz.elements)),
        right + left + malformed + outsiders)


def test_nested_products_match_anchors_at_every_level():
    """Pairs whose outer anchors agree but whose inner pair does not are no
    elements of a three-fold product, and neither are tuples of the wrong
    length or labels where a pair belongs, at either level."""
    base = ("p", "q")
    x = FinOver(base, ("a0", "a1"), ("p", "q"))
    y = FinOver(base, ("b0", "b1"), ("p", "q"))
    z = FinOver(base, ("c0", "c1", "c2"), ("p", "q", "p"))
    counts = count_lookups(x, y, z)
    xy_z, x_yz = eager_product(eager_product(x, y), z), eager_product(x, eager_product(y, z))
    inner_only = [(("a0", "b1"), "c0"), (("a1", "b0"), "c1"), ("a0", ("b0", "c1")), ("a1", ("b1", "c2"))]
    malformed = ["a0", ("a0",), ("a0", "b0", "c0"), (("a0", "b0", "c0"),), (("a0",), "c0"),
                 ("a0", ("b0",)), ("a0", ("b0", "c0", "c2")), ("a0", "b0"), ("a0", "c0"), ()]
    # both of z's points over p, so a listing that drops one disagrees with the factors
    members = [(("a0", "b0"), "c0"), (("a0", "b0"), "c2"), (("a1", "b1"), "c1"),
               ("a0", ("b0", "c0")), ("a0", ("b0", "c2")), ("a1", ("b1", "c1"))]
    candidates = inner_only + malformed + members
    assert all(e in xy_z or e in x_yz for e in members)
    assert not any(e in xy_z or e in x_yz for e in inner_only + malformed)
    check_product(prod_over_base(prod_over_base(x, y), z), xy_z, candidates, counts)
    check_product(prod_over_base(x, prod_over_base(y, z)), x_yz, candidates, counts)
    cx = [make_complex(ZZ, {k: r}) for k, r in ((0, 1), (1, 2), (0, 3))]
    l, m, n = (Sheaf(ZZ, s, tuple(cx[: s.size])) for s in (x, y, z))
    check_product_stalks(box(box(l, m), n), Sheaf(ZZ, xy_z, tuple(
        cx_tensor(cx_tensor(l.stalk(a), m.stalk(b)), n.stalk(c)) for (a, b), c in xy_z.elements)), candidates)
    check_product_stalks(box(l, box(m, n)), Sheaf(ZZ, x_yz, tuple(
        cx_tensor(l.stalk(a), cx_tensor(m.stalk(b), n.stalk(c))) for a, (b, c) in x_yz.elements)), candidates)


def nested_products(rng):
    """A product over a base of 1-3 points nested to depth 1-3, built on
    demand, the same set listed out, and a column of candidates: members,
    pairs whose anchors disagree at some level, leaf labels where a pair
    belongs, 3-tuples, and 2-character labels such as "ab" joined from two
    one-letter leaf labels, which indexing would split into a pair."""
    base = tuple(f"s{i}" for i in range(rng.randint(1, 3)))
    letters = iter("abcdefghijklmnopqrstuvwxyz")
    labels = []

    def spaces(depth):
        if depth == 0:
            anchors = [rng.choice(base) for _ in range(rng.randint(1, 3))]
            leaf = FinOver(base, tuple(next(letters) for _ in anchors), tuple(anchors))
            labels.extend(leaf.elements)
            return leaf, leaf
        depths = [depth - 1, rng.randint(0, depth - 1)]
        (x, ex), (y, ey) = (spaces(d) for d in rng.sample(depths, 2))
        return prod_over_base(x, y), eager_product(ex, ey)

    lazy, listed = spaces(rng.randint(1, 3))

    def candidate(space):
        kind = rng.choice(["pair"] * 6 + ["label", "triple", "joined", "joined"])
        if space.factors is None or kind == "label":
            own = list(space.elements) if space.factors is None else []
            return rng.choice(own * 6 + labels + ["zz"])
        x, y = space.factors
        if kind == "joined":
            pair = (candidate(x), candidate(y))
            return "".join(pair) if all(type(e) is str and len(e) == 1 for e in pair) else "ab"
        return (candidate(x), candidate(y)) + ((candidate(y),) if kind == "triple" else ())

    column = []
    for _ in range(rng.randint(0, 8)):
        member = listed.elements and rng.random() < 0.5
        column.append(rng.choice(listed.elements) if member else candidate(lazy))
    return lazy, listed, column


@seeded(300)
def test_nested_product_membership_agrees_with_the_listed_set(seed):
    """A product built on demand answers `x in space`, its anchors and
    anchor_of as the same set listed out does, element for element."""
    lazy, listed, column = nested_products(random.Random(seed))
    assert [e in lazy for e in column] == [e in listed for e in column]
    anchors = [lazy._member_anchor(e) for e in column]
    assert anchors == [listed._member_anchor(e) for e in column]
    assert anchors == [lazy.anchor_of(e) if e in lazy else None for e in column]
    assert "elements" not in vars(lazy)


def random_leg(rng, base, target, prefix):
    """A map into target from a new set of 0-4 elements over the base points
    target reaches, each sent to a random element over its anchor."""
    reached = [s for s in base if om_anchor(target).fiber(s)]
    anchors = [rng.choice(reached) for _ in range(rng.randint(0, 4) if reached else 0)]
    source = FinOver(base, tuple(f"{prefix}{i}" for i in range(len(anchors))), tuple(anchors))
    return OverMap(source, target, tuple(rng.choice(om_anchor(target).fiber(s)) for s in anchors))


def random_factored_leg(rng, base, spaces, prefix):
    """A leg into the product of spaces, nested as spaces is: a plain map, or
    the factored leg of the factors' legs."""
    if type(spaces) is not tuple:
        return random_leg(rng, base, spaces, prefix)
    target = prod_over_base(*(s if type(s) is not tuple else leg_target(s) for s in spaces))
    if rng.random() < 0.3:
        return random_leg(rng, base, target, prefix)
    return ProductMap(*(random_factored_leg(rng, base, s, prefix + k) for s, k in zip(spaces, "lr")))


def leg_target(spaces):
    return prod_over_base(*map(leg_target, spaces)) if type(spaces) is tuple else spaces


def listed(leg):
    return OverMap(leg.source, leg.target, leg.graph)


def check_product_counts(space):
    """A product's size and positions from its counts, before and against
    its listing; nested products too."""
    if space.factors is None:
        return
    lazy = ProductOver(*space.factors)
    assert lazy.size == space.size and "elements" not in vars(lazy)
    eager = eager_product(*(FinOver(s.base, s.elements, s.anchor) for s in space.factors))
    assert lazy.size == eager.size
    assert [lazy.index(e) for e in eager.elements] == list(range(eager.size))
    assert lazy.elements == eager.elements and lazy.anchor == eager.anchor
    for s in space.factors:
        check_product_counts(s)


@seeded(400)
def test_the_factored_join_matches_the_listed_fiber_product(seed):
    """The join through the factors against fiber_product of the same legs
    listed out: the same pairs in the same order (f's source order, then g's
    fibre order), the same anchors and projections.  Over a base of 1-2
    points, on sets of 0-4 elements (empty fibres, empty apexes), for tensor
    legs and plain ones into a product, on both sides, and for a tensor's leg
    carried across cc_assoc, cc_assoc_inv or cc_swap first; such legs are
    joined without listing their graphs.  Legs whose values nest differently,
    as where a target or a factor's target is a product listed out, are
    joined listed out, also across cc_assoc.  A product's size and positions
    agree with its listing too."""
    rng = random.Random(seed)
    base = ("p", "q")[:rng.randint(1, 2)]
    x, y, z = (FinOver(base, tuple(f"{k}{i}" for i in range(n)), tuple(rng.choice(base) for _ in range(n)))
               for k, n in zip("xyz", (rng.randint(1, 3) for _ in range(3))))
    sx, sy, sz = (unit_sheaf(ZZ, s) for s in (x, y, z))
    shapes = {
        None: ((x, y), (x, y)),
        "assoc": ((x, (y, z)), ((x, y), z), cc_assoc(sx, sy, sz)),
        "assoc_inv": (((x, y), z), (x, (y, z)), cc_assoc_inv(sx, sy, sz)),
        "swap": ((x, y), (y, x), cc_swap(sx, sy)),
        "nested": (((x, y), z), ((x, y), z)),
    }
    for name, (before, after, *relabel) in shapes.items():
        f = random_factored_leg(rng, base, before, "a")
        g = random_factored_leg(rng, base, after, "b")
        if relabel:
            (r,) = relabel
            if not f.factors:
                f = ProductMap(random_leg(rng, base, leg_target(before[0]), "c"),
                               random_leg(rng, base, leg_target(before[1]), "d"))
            f = ProductMap(*f.factors, r.forward, r.target.space)
        elif not (f.factors or g.factors):
            g = ProductMap(*(random_leg(rng, base, leg_target(s), k) for s, k in zip(after, "ef")))
        joined = fiber_product(f, g)
        assert not any("graph" in vars(leg) for leg in (f, g) if leg.factors), name
        check_join(name, f, g, joined)
        for leg in (f, g):
            check_product_counts(leg.source)
    copy = lambda space: FinOver(space.base, space.elements, space.anchor)  # noqa: E731
    r = cc_assoc(sx, sy, sz)
    into_x, into_yz = random_leg(rng, base, x, "c"), random_leg(rng, base, copy(prod_over_base(y, z)), "d")
    differently = {
        "listed target": (random_factored_leg(rng, base, (x, y), "a"),
                          random_leg(rng, base, copy(prod_over_base(x, y)), "b")),
        "listed factor": (ProductMap(into_x, into_yz), random_factored_leg(rng, base, (x, (y, z)), "b")),
        "listed factor, assoc": (ProductMap(into_x, into_yz, r.forward, r.target.space),
                                 random_factored_leg(rng, base, ((x, y), z), "b")),
    }
    for name, (f, g) in differently.items():
        for f, g in ((f, g), (g, f)):
            check_join(name, f, g, fiber_product(f, g))


def check_join(name, f, g, joined):
    apex, pr1, pr2 = joined
    eager, eager1, eager2 = fiber_product(listed(f), listed(g))
    assert apex.elements == eager.elements and apex.anchor == eager.anchor, name
    assert (pr1.graph, pr2.graph) == (eager1.graph, eager2.graph), name
    assert (pr1.source, pr1.target, pr2.target) == (apex, f.source, g.source), name
