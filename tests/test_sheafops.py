"""Indexed complexes and the six operations: examples plus the strictness
and bookkeeping invariants for base change and external tensors."""

import random

import pytest

from spantrace.chainalg import (
    Ring,
    ZZ,
    cx_dual,
    cx_tensor,
    make_complex,
    unit_complex,
)
from spantrace.finspan import (
    base_space,
    fiber_product,
    make_fin_over,
    make_over_map,
    om_anchor,
    om_compose,
    om_identity,
    prod_over_base,
)
from spantrace.generate import GenParams, random_base, random_complex, random_space, random_space_over
from spantrace.sheafops import (
    OmegaClass,
    Sheaf,
    box,
    make_sheaf,
    omega_push,
    pull,
    push,
    unit_sheaf,
    verdier,
)
from statements import q_complex, seeded, sum_tensor_distribute

Z7 = Ring(7)


def small_setup():
    base = ("z",)
    x = make_fin_over(base, ("a", "b"), {"a": "z", "b": "z"})
    y = make_fin_over(base, ("y",), {"y": "z"})
    f = make_over_map(x, y, {"a": "y", "b": "y"})
    return base, x, y, f


def test_pull_examples():
    base, x, y, f = small_setup()
    m = make_sheaf(ZZ, y, {"y": q_complex()})
    assert pull(om_identity(y), m) == m
    e = make_fin_over(base, (), {})
    to_empty = make_over_map(e, y, {})
    assert pull(to_empty, m).stalks == ()
    both = pull(f, m)
    assert both.stalk("a") == q_complex() and both.stalk("b") == q_complex()


def test_push_examples():
    base, x, y, f = small_setup()
    l = make_sheaf(
        ZZ, x, {"a": unit_complex(ZZ), "b": make_complex(ZZ, {0: 2})}
    )
    assert push(om_identity(x), l) == l
    e = make_fin_over(base, (), {})
    zero = push(make_over_map(e, y, {}), make_sheaf(ZZ, e, {}))
    assert zero.stalk("y").ranks == ()
    assert push(f, l).stalk("y").rank(0) == 3


def test_box_examples():
    base, x, y, f = small_setup()
    l = make_sheaf(ZZ, x, {"a": unit_complex(ZZ), "b": q_complex()})
    u = unit_sheaf(ZZ, base_space(base))
    prod = box(l, u)
    # stalks agree with l under the coordinate bijection
    for (a, s), stalk in zip(prod.space.elements, prod.stalks):
        assert stalk == l.stalk(a)
    e = make_fin_over(base, (), {})
    assert box(l, make_sheaf(ZZ, e, {})).stalks == ()
    single = box(
        make_sheaf(ZZ, y, {"y": unit_complex(ZZ)}), make_sheaf(ZZ, y, {"y": q_complex()})
    )
    assert single.stalk(("y", "y")) == q_complex()


def test_verdier_examples():
    base, x, y, f = small_setup()
    u = unit_sheaf(ZZ, x)
    assert verdier(u) == u
    e = make_fin_over(base, (), {})
    assert verdier(make_sheaf(ZZ, e, {})).stalks == ()
    one = make_sheaf(ZZ, y, {"y": q_complex()})
    assert verdier(one).stalk("y") == cx_dual(q_complex())


@seeded(40)
def test_verdier_involution(seed):
    rng = random.Random(seed)
    ring = Ring(rng.choice([0, 7]))
    params = GenParams()
    base = random_base(rng, params)
    x = random_space(rng, base, "x", params)
    sheaf = Sheaf(ring, x, tuple(random_complex(rng, ring, params).cx for _ in x.elements))
    assert verdier(verdier(sheaf)) == sheaf


def test_sheaf_hom_examples():
    base, x, y, f = small_setup()
    u = unit_sheaf(ZZ, base_space(base))
    m = make_sheaf(ZZ, y, {"y": q_complex()})
    h = box(verdier(u), m)
    for el, stalk in zip(h.space.elements, h.stalks):
        assert stalk == m.stalk(el[1])
    two = make_sheaf(ZZ, y, {"y": make_complex(ZZ, {0: 2})})
    one = make_sheaf(ZZ, y, {"y": unit_complex(ZZ)})
    hh = box(verdier(two), one)
    assert hh.stalk(("y", "y")).rank(0) == 2
    # hom into the unit is the dual after the unit identification
    hu = box(verdier(m), u)
    assert hu.stalk(("y", "z")) == cx_dual(q_complex())


def test_omega_push_examples():
    base, x, y, f = small_setup()
    a = OmegaClass(ZZ, x, (1, 2))
    assert omega_push(om_identity(x), a) == a
    three = make_fin_over(base, ("p", "q", "r"), {k: "z" for k in ("p", "q", "r")})
    to_pt = make_over_map(three, y, {k: "y" for k in ("p", "q", "r")})
    tot = omega_push(to_pt, OmegaClass(ZZ, three, (1, 2, 3)))
    assert tot.values == (6,)
    # empty fiber gives zero
    e = make_fin_over(base, (), {})
    z = omega_push(make_over_map(e, y, {}), OmegaClass(ZZ, e, ()))
    assert z.values == (0,)


@seeded(40)
def test_omega_push_functorial(seed):
    rng = random.Random(seed)
    params = GenParams()
    base = random_base(rng, params)
    z = random_space(rng, base, "z", params, min_size=1)
    y, g = random_space_over(rng, z, "y", params)
    x, f = random_space_over(rng, y, "x", params)
    a = OmegaClass(ZZ, x, tuple(rng.randint(-5, 5) for _ in x.elements))
    assert omega_push(g, omega_push(f, a)) == omega_push(om_compose(g, f), a)


@seeded(40)
def test_base_change_strict(seed):
    # pull-then-push equals push-then-pull, matrix-level, for the chosen square
    rng = random.Random(seed)
    ring = Ring(rng.choice([0, 7]))
    params = GenParams()
    base = random_base(rng, params)
    z = random_space(rng, base, "z", params, min_size=1)
    x, f = random_space_over(rng, z, "x", params)
    y, g = random_space_over(rng, z, "y", params)
    l = Sheaf(ring, x, tuple(random_complex(rng, ring, params).cx for _ in x.elements))
    w, pr_x, pr_y = fiber_product(f, g)
    assert pull(g, push(f, l)) == push(pr_y, pull(pr_x, l))


@seeded(30)
def test_kunneth_up_to_distribution(seed):
    # push(f x id)(L box M) agrees with push(f)L box M through the canonical
    # distribution permutation on every stalk
    rng = random.Random(seed)
    ring = Ring(rng.choice([0, 7]))
    params = GenParams()
    base = random_base(rng, params)
    xp = random_space(rng, base, "xp", params, min_size=1)
    x, f = random_space_over(rng, xp, "x", params)
    y = random_space(rng, base, "y", params)
    l = Sheaf(ring, x, tuple(random_complex(rng, ring, params).cx for _ in x.elements))
    m = Sheaf(ring, y, tuple(random_complex(rng, ring, params).cx for _ in y.elements))

    lm = box(l, m)
    xy = prod_over_base(x, y)
    xpy = prod_over_base(xp, y)
    f_id = make_over_map(xy, xpy, {(a, b): (f(a), b) for a, b in xy.elements})
    lhs = push(f_id, lm)
    rhs = box(push(f, l), m)
    assert lhs.space == rhs.space
    for xp_el, yel in lhs.space.elements:
        parts = [l.stalk(a) for a in f.fiber(xp_el)]
        iso = sum_tensor_distribute(parts, m.stalk(yel), ring)
        assert iso.source == rhs.stalk((xp_el, yel))
        assert iso.target == lhs.stalk((xp_el, yel))


def test_sheaf_rejects_invalid_stalk():
    base, x, y, f = small_setup()
    bad = make_complex(ZZ, {0: 1, 1: 1, 2: 1}, {0: [[1]], 1: [[1]]})
    with pytest.raises(ValueError, match="degree 0"):
        make_sheaf(ZZ, y, {"y": bad})


def test_lookup_of_a_foreign_label_raises_value_error():
    # ValueError, not KeyError: the suites and the CLI catch ValueError
    x = make_fin_over(("z",), ("a", "b"), {"a": "z", "b": "z"})
    q = make_complex(ZZ, {0: 1, 1: 1}, {0: [[2]]})
    sheaf = make_sheaf(ZZ, x, {"a": unit_complex(ZZ), "b": q})
    omega = OmegaClass(ZZ, x, (3, -1))
    assert sheaf.stalk("b") == q and omega.value("b") == -1
    for label in ("c", ("a", "b")):
        with pytest.raises(ValueError, match="not an element"):
            sheaf.stalk(label)
        with pytest.raises(ValueError, match="not an element"):
            omega.value(label)


def test_sheaf_and_omega_lengths_checked_at_construction():
    x = make_fin_over(("z",), ("x0", "x1", "x2"), {"x0": "z", "x1": "z", "x2": "z"})
    one = unit_complex(ZZ)
    with pytest.raises(ValueError, match="1 stalks for 3 elements"):
        Sheaf(ZZ, x, (one,))
    with pytest.raises(ValueError, match="4 stalks for 3 elements"):
        Sheaf(ZZ, x, (one,) * 4)
    assert Sheaf(ZZ, x, (one,) * 3).stalk("x2") == one
    with pytest.raises(ValueError, match="2 values for 3 elements"):
        OmegaClass(ZZ, x, (1, 2))
    with pytest.raises(ValueError, match="4 values for 3 elements"):
        OmegaClass(ZZ, x, (1, 2, 3, 4))
    assert OmegaClass(ZZ, x, (1, 2, 3)).value("x2") == 3


def test_sheaf_and_omega_reject_data_off_their_ring():
    x = make_fin_over(("z",), ("a",), {"a": "z"})
    with pytest.raises(ValueError, match="stalk at 'a' has the wrong ring"):
        Sheaf(Z7, x, (unit_complex(ZZ),))
    with pytest.raises(ValueError, match="stalk at 'a' has the wrong ring"):
        make_sheaf(Z7, x, {"a": unit_complex(ZZ)})
    assert Sheaf(Ring(7), x, (unit_complex(Z7),)).stalk("a") == unit_complex(Z7)
    with pytest.raises(ValueError, match="value 9 at 'a' is not normalised"):
        OmegaClass(Z7, x, (9,))
    with pytest.raises(ValueError, match="value -1 at 'a' is not normalised"):
        OmegaClass(Z7, x, (-1,))


def listed_box(l, m):
    """box(l, m) with every stalk computed up front on the fiber product."""
    space = fiber_product(om_anchor(l.space), om_anchor(m.space))[0]
    return Sheaf(l.ring, space, tuple(cx_tensor(l.stalk(a), m.stalk(b)) for a, b in space.elements))


@seeded(40, [0, 7, 2, 1])
def test_box_on_demand_agrees_with_its_stalks_listed_out(seed, modulus):
    rng = random.Random(seed)
    ring, params = Ring(modulus), GenParams(modulus=modulus)
    base = random_base(rng, params)
    x, y = random_space(rng, base, "x", params), random_space(rng, base, "y", params)
    l = Sheaf(ring, x, tuple(random_complex(rng, ring, params).cx for _ in x.elements))
    m = Sheaf(ring, y, tuple(random_complex(rng, ring, params).cx for _ in y.elements))
    for lazy, eager in ((box(l, m), listed_box(l, m)),
                        (box(box(l, m), l), listed_box(listed_box(l, m), l)),
                        (box(m, box(m, l)), listed_box(m, listed_box(m, l)))):
        assert hash(lazy) == hash(eager) and lazy == box(*lazy.factors)
        for e in eager.space.elements:
            assert lazy.stalk(e) == eager.stalk(e)
        assert "stalks" not in vars(lazy)
        assert lazy == eager and eager == lazy and lazy.stalks == eager.stalks
        if eager.stalks:
            changed = Sheaf(ring, eager.space, (cx_dual(eager.stalks[0]),) + eager.stalks[1:])
            assert (changed == lazy) == (changed.stalks == eager.stalks) == (lazy == changed)
