"""Base change functor: pullback of objects and morphisms, preservation of
duals and pairings, and strict compatibility with pushforward."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantrace.basefunc import (
    functor_preserves,
    make_base_change,
    pull_morphism,
    pull_object,
    pull_omega,
    push2_strict,
)
from spantrace.chainalg import Ring, ZZ
from spantrace.corrcat import cc_compose, cc_invert, cc_tensor
from spantrace.dualtrace import make_dual
from spantrace.finspan import make_fin_over
from spantrace.generate import (
    GenParams,
    random_base,
    random_base_change_for,
    random_cc_morphism,
    random_gen_object,
    random_lv_instance,
    random_space,
    random_span,
)
from spantrace.sheafops import make_sheaf
from statements import cc_iso_search, char_class, interlocking_spans, monoidal_structure, q_complex

seeds = st.integers(0, 2**32 - 1)


def test_pull_object_examples():
    base = ("t",)
    y = make_fin_over(base, ("y",), {"y": "t"})
    obj = make_sheaf(ZZ, y, {"y": q_complex()})
    same = make_base_change(("t",), {"t": "t"}, base)
    pulled = pull_object(same, obj)
    assert pulled.space.size == 1 and pulled.stalks[0] == q_complex()
    none = make_base_change((), {}, base)
    assert pull_object(none, obj).space.size == 0
    double = make_base_change(("s1", "s2"), {"s1": "t", "s2": "t"}, base)
    two = pull_object(double, obj)
    assert two.space.size == 2
    assert all(c == q_complex() for c in two.stalks)


def test_pull_morphism_examples():
    rng = random.Random(4)
    params = GenParams()
    base = ("t",)
    x = make_fin_over(base, ("x0", "x1"), {"x0": "t", "x1": "t"})
    gen = random_gen_object(rng, ZZ, x, params)
    e = random_cc_morphism(rng, gen, gen, random_span(rng, x, x, "c", params))
    same = make_base_change(("t",), {"t": "t"}, base)
    assert pull_morphism(same, e).span.apex.size == e.span.apex.size
    none = make_base_change((), {}, base)
    assert pull_morphism(none, e).span.apex.size == 0
    double = make_base_change(("s1", "s2"), {"s1": "t", "s2": "t"}, base)
    assert pull_morphism(double, e).span.apex.size == 2 * e.span.apex.size


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_functor_preserves_random(seed):
    inst = random_lv_instance(seed, GenParams())
    rect = inst.lv
    bc = random_base_change_for(seed ^ 101, inst.base, GenParams())
    rep = functor_preserves(bc, make_dual(rect.u.source), rect.u, rect.v)
    assert rep.dual_strict
    assert rep.pairing_strict


@given(seeds)
@settings(max_examples=25, deadline=None)
def test_push2_square_strict(seed):
    inst = random_lv_instance(seed, GenParams())
    bc = random_base_change_for(seed ^ 202, inst.base, GenParams())
    assert push2_strict(bc, inst.lv)


@given(seeds)
@settings(max_examples=15, deadline=None)
def test_pull_functorial_and_monoidal(seed):
    rng = random.Random(seed)
    params = GenParams(max_set=2)
    ring = Ring(rng.choice([0, 7]))
    base = random_base(rng, params)
    sp = [random_space(rng, base, f"v{i}", params, min_size=1) for i in range(3)]
    gens = [random_gen_object(rng, ring, s, params) for s in sp]
    u = random_cc_morphism(rng, gens[0], gens[1], random_span(rng, sp[0], sp[1], "c", params))
    v = random_cc_morphism(rng, gens[1], gens[2], random_span(rng, sp[1], sp[2], "d", params))
    bc = random_base_change_for(seed ^ 303, base, params)
    lhs = pull_morphism(bc, cc_compose(u, v))
    rhs = cc_compose(pull_morphism(bc, u), pull_morphism(bc, v))
    assert cc_iso_search(lhs, rhs) is not None
    w = random_cc_morphism(rng, gens[2], gens[2], random_span(rng, sp[2], sp[2], "e", params))
    # independent spans mostly compose to nothing, so also draw interlocking
    # ones, whose composite holds at least one element per chain
    s, t, _ = interlocking_spans(rng, base, params)
    feet = [random_gen_object(rng, ring, x, params) for x in (s.left.target, s.right.target, t.right.target)]
    a, b = random_cc_morphism(rng, feet[0], feet[1], s), random_cc_morphism(rng, feet[1], feet[2], t)
    assert cc_compose(a, b).span.apex.size >= 1
    lhs = pull_morphism(bc, cc_compose(a, b))
    rhs = cc_compose(pull_morphism(bc, a), pull_morphism(bc, b))
    assert cc_iso_search(lhs, rhs) is not None
    lhs2 = pull_morphism(bc, cc_tensor(u, w))
    rhs2 = cc_tensor(pull_morphism(bc, u), pull_morphism(bc, w))
    # compare through the monoidal structure relabelings of the functor
    s_src = monoidal_structure(bc, gens[0].obj, gens[2].obj)
    s_tgt = monoidal_structure(bc, gens[1].obj, gens[2].obj)
    conj = cc_compose(cc_compose(s_src, lhs2), cc_invert(s_tgt))
    assert cc_iso_search(conj, rhs2) is not None


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_char_class_commutes_with_base_change(seed):
    rng = random.Random(seed)
    params = GenParams()
    ring = Ring(rng.choice([0, 7]))
    base = random_base(rng, params)
    x = random_space(rng, base, "x", params, min_size=1)
    gen = random_gen_object(rng, ring, x, params)
    bc = random_base_change_for(seed ^ 404, base, params)
    before = pull_omega(bc, char_class(gen.obj))
    after = char_class(pull_object(bc, gen.obj))
    assert before.values == after.values


def test_base_change_validation():
    with pytest.raises(ValueError, match="total"):
        make_base_change(("s",), {}, ("t",))
    with pytest.raises(ValueError, match="not in target"):
        make_base_change(("s",), {"s": "nope"}, ("t",))
