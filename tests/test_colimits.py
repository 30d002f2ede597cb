"""Finite colimits: coproducts, pushouts, products, and their mediators."""

import itertools

import pytest

from minmodel.analyzer import BoundedUniverse, _isos
from minmodel.colimits import (
    coproduct,
    initial,
    initial_map,
    product,
    pushout,
    terminal,
    terminal_map,
)
from minmodel.errors import NonComposable
from minmodel.presheaf import Presheaf, PresheafMap, compose, hom_enumerate, is_mono

from helpers import (
    FS_BASE,
    GPH_BASE,
    fs,
    fsmap,
    gph,
    gph_obj_to_oracle,
    i1_set,
    i2_set,
    ig_set,
)

DA = gph(2, [])
A = gph(2, [(0, 1)])
CA = PresheafMap(DA, A, {"v": {"v0": "v0", "v1": "v1"}})


def test_initial_and_terminal():
    assert initial(GPH_BASE).is_empty()
    T = terminal(GPH_BASE)
    # the terminal graph is one vertex carrying one loop
    assert gph_obj_to_oracle(T) == (1, ((0, 0),))
    X = gph(2, [(0, 1), (0, 1)])
    assert initial_map(X).source.is_empty()
    t = terminal_map(X)
    assert t.target == T
    assert compose(initial_map(X), t) == initial_map(T)


def test_coproduct_tags_and_injections():
    co = coproduct(fs(1), fs(2))
    assert co.apex.carrier("x") == ("l.a", "r.a", "r.b")
    assert co.left.apply("x", "a") == "l.a"
    assert co.right.apply("x", "b") == "r.b"


def test_coproduct_mediator_is_the_unique_copairing():
    co = coproduct(fs(1), fs(2))
    T = fs(2)
    for u in hom_enumerate(fs(1), T):
        for v in hom_enumerate(fs(2), T):
            m = co.mediator(u, v)
            assert compose(co.left, m) == u
            assert compose(co.right, m) == v
            others = [
                w
                for w in hom_enumerate(co.apex, T)
                if compose(co.left, w) == u and compose(co.right, w) == v
            ]
            assert others == [m]


def test_coproduct_mediator_rejects_bad_legs():
    co = coproduct(fs(1), fs(2))
    with pytest.raises(NonComposable):
        co.mediator(fsmap(2, 2, (0, 1)), fsmap(2, 2, (0, 1)))
    with pytest.raises(NonComposable):
        co.mediator(fsmap(1, 1, (0,)), fsmap(2, 2, (0, 1)))


def test_pushout_of_the_spine_parallel_pair():
    po = pushout(CA, CA)
    # gluing two copies of the single-edge graph along both endpoints
    # leaves two vertices carrying two parallel edges
    assert gph_obj_to_oracle(po.apex) == (2, ((0, 1), (0, 1)))
    assert compose(CA, po.left) == compose(CA, po.right)


def test_pushout_mediators_on_small_spans():
    pool = [
        fsmap(m, n, imgs)
        for m in range(3)
        for n in range(3)
        for imgs in itertools.product(range(n), repeat=m)
    ]
    spans = [
        (f, g)
        for f in pool
        for g in pool
        if f.source == g.source
    ]
    for f, g in spans:
        po = pushout(f, g)
        assert compose(f, po.left) == compose(g, po.right)
        for T in (fs(0), fs(1), fs(2)):
            for u in hom_enumerate(f.target, T):
                for v in hom_enumerate(g.target, T):
                    if compose(f, u) != compose(g, v):
                        continue
                    m = po.mediator(u, v)
                    assert compose(po.left, m) == u
                    assert compose(po.right, m) == v
                    matching = [
                        w
                        for w in hom_enumerate(po.apex, T)
                        if compose(po.left, w) == u and compose(po.right, w) == v
                    ]
                    assert matching == [m]


def test_pushout_of_an_iso_is_an_iso():
    swap = fsmap(2, 2, (1, 0))
    g = fsmap(2, 1, (0, 0))
    po = pushout(swap, g)
    pushed = po.right
    assert is_mono(pushed)
    assert all(
        len(set(col)) == len(pushed.target.carriers[o])
        for o, col in enumerate(pushed._comp)
    )


def test_pushout_preserves_componentwise_injectivity():
    pool = [
        fsmap(m, n, imgs)
        for m in range(3)
        for n in range(3)
        for imgs in itertools.product(range(n), repeat=m)
    ]
    for f in pool:
        if not is_mono(f):
            continue
        for g in pool:
            if g.source != f.source:
                continue
            assert is_mono(pushout(f, g).right), (f, g)
    # and over the graph base, along the edge attachment
    for u in hom_enumerate(DA, A):
        assert is_mono(pushout(CA, u).right)


def test_pushout_requires_a_shared_source():
    with pytest.raises(NonComposable):
        pushout(fsmap(1, 1, (0,)), fsmap(2, 1, (0, 0)))


def test_pushout_quotient_names_are_deterministic():
    fold = coproduct(fs(1), fs(1)).mediator(
        fsmap(1, 1, (0,)), fsmap(1, 1, (0,))
    )
    i01 = fsmap(0, 1, ())
    po1 = pushout(i01, i01)
    po2 = pushout(i01, i01)
    assert po1.apex == po2.apex
    assert po1.left == po2.left and po1.right == po2.right
    assert fold.source.carrier("x") == ("l.a", "r.a")


def _universes():
    """FinSet at bound 3 and graphs at v=2 e=1.  The maps of a universe do
    not depend on its generating set, so I1's FinSet universe stands for
    I2's too."""
    finset = BoundedUniverse(FS_BASE, 3, i1_set())
    assert list(finset.all_maps()) == list(BoundedUniverse(FS_BASE, 3, i2_set()).all_maps())
    IG = ig_set()
    return finset, BoundedUniverse(IG.base_of(), {"v": 2, "e": 1}, IG)


def _reference_pushout(f, g):
    """The pushout from its definition: the disjoint union of the span
    targets, element names tagged `l.` and `r.`, divided by the equivalence
    relation that f(a) ~ g(a) generates; each class is named by its first
    element in carrier order.  Returns the apex, both legs as component
    dicts, and each class's elements."""
    B, C = f.target, g.target
    base = B.base
    carriers, legs, members = {}, ({}, {}), {}
    for obj in base.objects:
        elements = [f"l.{e}" for e in B.carrier(obj)] + [f"r.{e}" for e in C.carrier(obj)]
        parent = {e: e for e in elements}
        order = {e: k for k, e in enumerate(elements)}

        def find(e):
            while parent[e] != e:
                e = parent[e]
            return e

        for a in f.source.carrier(obj):
            x, y = find("l." + f.apply(obj, a)), find("r." + g.apply(obj, a))
            parent[max(x, y, key=order.get)] = min(x, y, key=order.get)
        carriers[obj] = [e for e in elements if find(e) == e]
        for tag, X, leg in (("l.", B, legs[0]), ("r.", C, legs[1])):
            leg[obj] = {e: find(tag + e) for e in X.carrier(obj)}
        members[obj] = {r: [e for e in elements if find(e) == r] for r in carriers[obj]}
    actions = {}
    for m, a, b in base.morphisms:
        if m in base.nonidentity:
            acts = {"l.": (B.action(m), legs[0][a]), "r.": (C.action(m), legs[1][a])}
            actions[m] = {}
            for r in carriers[b]:
                act, leg = acts[r[:2]]
                actions[m][r] = leg[act[r[2:]]]
    apex = Presheaf(base, carriers, actions)
    return apex, PresheafMap(B, apex, legs[0]), PresheafMap(C, apex, legs[1]), members


def test_pushout_matches_the_quotient_of_the_disjoint_union():
    for U in _universes():
        small = [T for T in U.objects if T.total_size() <= 2]
        for A in U.objects:
            out = list(U.maps_from(A))
            for f in out:
                for g in out:
                    po = pushout(f, g)
                    apex, left, right, members = _reference_pushout(f, g)
                    assert (po.apex, po.left, po.right) == (apex, left, right)
                    # every cocone is (left, right) followed by a map out of
                    # the apex; the mediator sends each class where its
                    # elements go
                    for T in small:
                        for h in hom_enumerate(apex, T):
                            u, v = compose(left, h), compose(right, h)
                            image = {
                                obj: {
                                    r: {
                                        (u if e[:2] == "l." else v).apply(obj, e[2:])
                                        for e in elements
                                    }
                                    for r, elements in members[obj].items()
                                }
                                for obj in U.base.objects
                            }
                            assert all(
                                len(targets) == 1
                                for column in image.values()
                                for targets in column.values()
                            )
                            expected = PresheafMap(
                                apex,
                                T,
                                {
                                    obj: {r: targets.pop() for r, targets in column.items()}
                                    for obj, column in image.items()
                                },
                            )
                            assert po.mediator(u, v) == expected == h


def test_translated_spans_have_equal_pushouts():
    # (t after s, c after s) glues the same element pairs as (t, c) for an
    # automorphism s of the common source, so the pushouts are equal
    translated = 0
    for U in _universes():
        for A in U.objects:
            out = list(U.maps_from(A))
            ends = U.hom(A, A)
            automorphisms = [
                s
                for s in ends
                if any(
                    compose(s, r).is_identity() and compose(r, s).is_identity()
                    for r in ends
                )
            ]
            assert [s._comp for s in automorphisms] == list(_isos(A, A))
            for t in out:
                for c in out:
                    po = pushout(t, c)
                    for s in automorphisms:
                        moved = pushout(compose(s, t), compose(s, c))
                        assert (moved.apex, moved.left, moved.right) == (
                            po.apex,
                            po.left,
                            po.right,
                        )
                        translated += compose(s, t) != t
    assert translated > 0


def test_product_of_the_edge_graph():
    pr = product(A, A)
    assert len(pr.apex.carrier("v")) == 4
    assert len(pr.apex.carrier("e")) == 1
    assert compose(pr.mediator(CA, CA), pr.left) == CA


def test_product_mediator_is_the_unique_pairing():
    pr = product(fs(2), fs(2))
    assert len(pr.apex.carrier("x")) == 4
    for u in hom_enumerate(fs(1), fs(2)):
        for v in hom_enumerate(fs(1), fs(2)):
            m = pr.mediator(u, v)
            assert compose(m, pr.left) == u
            assert compose(m, pr.right) == v
            others = [
                w
                for w in hom_enumerate(fs(1), pr.apex)
                if compose(w, pr.left) == u and compose(w, pr.right) == v
            ]
            assert others == [m]
