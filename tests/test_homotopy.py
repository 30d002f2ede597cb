"""Relative cylinders, homotopies, retracts, and path objects."""

import itertools

import pytest

from minmodel import homotopy
from minmodel.analyzer import BoundedUniverse, build_jset
from minmodel.colimits import initial_map
from minmodel.errors import (
    FuelExhausted,
    IncompatibleOnRelativePart,
    NonComposable,
)
from minmodel.factorization import Verdict
from minmodel.homotopy import (
    HomotopyContext,
    cylinder,
    homotopic,
    homotopic_cross_check,
    is_strong_deformation_retract,
    path_object,
    right_homotopic,
)
from minmodel.presheaf import compose, hom_enumerate, identity_map, is_mono

from helpers import FS_BASE, fs, fsmap, gph, gph_obj_to_oracle, i1_set, i2_set, ig_set

I1 = i1_set()
I2 = i2_set()
IG = ig_set()

POOL2 = [
    fsmap(m, n, imgs)
    for m in range(3)
    for n in range(3)
    for imgs in itertools.product(range(n), repeat=m)
]


def test_absolute_cylinder_over_the_two_point_set():
    cyl = cylinder(initial_map(fs(2)), I1)
    assert cyl.apex.total_size() == 4
    assert cyl.provenance.log == ()
    assert compose(cyl.incl0, cyl.collapse).is_identity()
    assert compose(cyl.incl1, cyl.collapse).is_identity()
    assert cyl.incl0 != cyl.incl1


def test_cylinder_collapses_over_the_larger_set():
    cyl = cylinder(initial_map(fs(1)), I2)
    # the fold of 1 + 1 is not injective, so one attachment of the
    # collapse generator contracts the pair to a point
    assert cyl.apex.total_size() == 1
    assert len(cyl.provenance.log) == 1
    assert cyl.incl0 == cyl.incl1


def test_cylinder_over_the_spine_inclusion():
    cyl = cylinder(IG.maps[1], IG)
    assert gph_obj_to_oracle(cyl.apex) == (2, ((0, 1), (0, 1)))
    assert cyl.provenance.log == ()
    assert compose(cyl.incl0, cyl.collapse).is_identity()
    assert compose(cyl.incl1, cyl.collapse).is_identity()


def test_cylinder_laws_hold_on_every_relative_part():
    for gens in (I1, I2):
        for rel in POOL2:
            cyl = cylinder(rel, gens)
            assert compose(cyl.incl0, cyl.collapse).is_identity()
            assert compose(cyl.incl1, cyl.collapse).is_identity()
            assert compose(rel, cyl.incl0) == compose(rel, cyl.incl1)


def test_homotopy_is_total_over_the_point_inclusion():
    for f0 in POOL2:
        for f1 in POOL2:
            if f0.source != f1.source or f0.target != f1.target:
                continue
            got = homotopic(f0, f1, None, I1)
            assert got is not None, (f0, f1)
            assert compose(got.cylinder.incl0, got.map) == f0
            assert compose(got.cylinder.incl1, got.map) == f1


def test_homotopy_degenerates_to_equality_over_the_larger_set():
    for f0 in POOL2:
        for f1 in POOL2:
            if f0.source != f1.source or f0.target != f1.target:
                continue
            got = homotopic(f0, f1, None, I2)
            assert (got is not None) == (f0 == f1), (f0, f1)


def test_relative_homotopy_requires_agreement_on_the_relative_part():
    iota0 = fsmap(1, 2, (0,))
    iota1 = fsmap(1, 2, (1,))
    f = fsmap(2, 2, (0, 1))
    g = fsmap(2, 2, (0, 0))
    J1 = build_jset(HomotopyContext(I1))
    # every entry point checks the relative part the same way
    entry_points = (
        ("homotopy", lambda f0, f1, rel: homotopic(f0, f1, rel, I1)),
        ("homotopy", lambda f0, f1, rel: homotopic_cross_check(f0, f1, rel, I1)[0]),
        ("homotopy", HomotopyContext(I1).homotopic),
        ("right homotopy", lambda f0, f1, rel: right_homotopic(f0, f1, rel, J1)),
    )
    for kind, decide in entry_points:
        # f and g agree on the first point only
        assert decide(f, g, iota0) is not None
        with pytest.raises(IncompatibleOnRelativePart, match=f"no {kind} is posable"):
            decide(f, g, iota1)
        with pytest.raises(NonComposable, match="must land in the source"):
            decide(f, g, fsmap(1, 3, (0,)))
        with pytest.raises(NonComposable, match="needs parallel maps"):
            decide(f, fsmap(1, 2, (0,)), None)


def test_cross_check_agrees_on_small_pairs():
    for gens in (I1, I2):
        for f0 in POOL2:
            for f1 in POOL2:
                if f0.source != f1.source or f0.target != f1.target:
                    continue
                witness, agree = homotopic_cross_check(f0, f1, None, gens)
                assert agree


def test_context_homotopic_answers_from_its_oracle_tables(monkeypatch):
    # every parallel pair that agrees on rel, reflexive pairs included: the
    # context's verdict is the map-level search's, its witness is a natural
    # map out of the cylinder that restricts to both ends, and a question
    # asked again runs no search
    searches = []
    real = homotopy._enumerate_components
    monkeypatch.setattr(
        homotopy,
        "_enumerate_components",
        lambda *args, **kwargs: searches.append(args) or real(*args, **kwargs),
    )
    counts = {}
    for U in (
        BoundedUniverse(FS_BASE, 2, I1, 1024),
        BoundedUniverse(FS_BASE, 2, I2, 1024),
        BoundedUniverse(IG.base_of(), {"v": 2, "e": 1}, IG, 1024),
    ):
        ctx = HomotopyContext(U.generators, U.fuel)
        asked = related = 0
        for rel in [*U.generators.maps, *U.all_maps()]:
            cyl = ctx.cylinder(rel)
            for D in U.objects:
                by_restriction = {}
                for f in U.hom(rel.target, D):
                    by_restriction.setdefault(compose(rel, f), []).append(f)
                pairs = [
                    pair
                    for maps in by_restriction.values()
                    for pair in itertools.product(maps, repeat=2)
                ]
                for f0, f1 in pairs:
                    got = ctx.homotopic(f0, f1, rel)
                    want = homotopic(f0, f1, rel, U.generators, U.fuel)
                    assert (got is None) == (want is None), (rel, f0, f1)
                    asked += 1
                    if got is None:
                        continue
                    related += 1
                    assert got.cylinder is cyl
                    got.map._check_naturality()
                    assert compose(cyl.incl0, got.map) == f0
                    assert compose(cyl.incl1, got.map) == f1
                searched = len(searches)
                for f0, f1 in pairs:
                    ctx.homotopic(f0, f1, rel)
                assert len(searches) == searched
        counts[U.generators.label] = asked, related, len(searches)
        searches.clear()
    # (pairs asked, pairs related, table searches): on I2 the end
    # inclusions meet, so the pinned end tables alone decide every pair
    assert counts == {"I1": (82, 82, 32), "I2": (85, 53, 0), "IG": (693, 693, 224)}


def test_point_inclusion_is_a_strong_deformation_retract():
    iota0 = fsmap(1, 2, (0,))
    res = is_strong_deformation_retract(iota0, HomotopyContext(I1))
    assert res.verdict is Verdict.YES
    assert compose(iota0, res.retraction).is_identity()
    got = res.homotopy
    assert compose(got.cylinder.incl0, got.map) == compose(res.retraction, iota0)
    assert compose(got.cylinder.incl1, got.map).is_identity()


def test_retract_searches_that_must_fail():
    # no retraction exists out of the empty source
    res = is_strong_deformation_retract(fsmap(0, 1, ()), HomotopyContext(I1))
    assert res.verdict is Verdict.NO and res.retraction is None
    # over the larger set the homotopy is equality, so a non-iso cannot
    # deformation retract
    res = is_strong_deformation_retract(fsmap(1, 2, (0,)), HomotopyContext(I2))
    assert res.verdict is Verdict.NO


def _reference_deformation_retract(f, I, fuel):
    """The first retraction g of f, in enumeration order, for which the
    map-level search finds a homotopy from f after g to the identity rel f."""
    for g in hom_enumerate(f.target, f.source):
        if compose(f, g).is_identity():
            witness = homotopic(compose(g, f), identity_map(f.target), f, I, fuel)
            if witness is not None:
                return Verdict.YES, g, witness.map
    return Verdict.NO, None, None


def test_deformation_retracts_on_tables_match_the_map_level_search():
    universes = (
        BoundedUniverse(FS_BASE, 4, I1, 1024),
        BoundedUniverse(FS_BASE, 3, I2, 1024),
        BoundedUniverse(IG.base_of(), {"v": 2, "e": 2}, IG, 1024),
    )
    counts = {}
    for U in universes:
        maps = list(U.all_maps())
        retracts = 0
        for f in maps:
            got = is_strong_deformation_retract(f, U.ctx)
            witness = None if got.homotopy is None else got.homotopy.map
            want = _reference_deformation_retract(f, U.generators, U.fuel)
            assert (got.verdict, got.retraction, witness) == want, f
            retracts += got.verdict is Verdict.YES
        counts[U.generators.label] = len(maps), retracts
    # (maps, strong deformation retracts)
    assert counts == {"I1": (499, 85), "I2": (60, 10), "IG": (929, 117)}


def test_path_object_over_the_point_is_trivial():
    J1 = build_jset(HomotopyContext(I1))
    path = path_object(fs(1), J1)
    assert path.apex.total_size() == 1
    assert compose(path.into, path.proj0).is_identity()
    assert compose(path.into, path.proj1).is_identity()


def test_path_object_laws_on_the_two_point_set():
    J1 = build_jset(HomotopyContext(I1))
    path = path_object(fs(2), J1)
    assert compose(path.into, path.proj0).is_identity()
    assert compose(path.into, path.proj1).is_identity()


def test_right_homotopy_agrees_with_left_on_small_absolute_pairs():
    for gens in (I1, I2):
        J = build_jset(HomotopyContext(gens))
        paths = {}
        for f0 in POOL2:
            for f1 in POOL2:
                if f0.source != f1.source or f0.target != f1.target:
                    continue
                left = homotopic(f0, f1, None, gens) is not None
                Z = f0.target
                if Z not in paths:
                    paths[Z] = path_object(Z, J)
                right = (
                    right_homotopic(f0, f1, None, J, path=paths[Z]) is not None
                )
                assert left == right, (gens.label, f0, f1)


def test_right_homotopy_witness_projects_to_the_ends():
    J1 = build_jset(HomotopyContext(I1))
    f0 = fsmap(1, 2, (0,))
    f1 = fsmap(1, 2, (1,))
    got = right_homotopic(f0, f1, None, J1)
    assert got is not None
    assert compose(got.map, got.path.proj0) == f0
    assert compose(got.map, got.path.proj1) == f1
    same = right_homotopic(f0, f0, None, J1)
    assert same is not None


def test_fuel_exhaustion_raises_in_cylinder_construction():
    with pytest.raises(FuelExhausted):
        cylinder(initial_map(fs(1)), I2, fuel=0)
    with pytest.raises(FuelExhausted):
        homotopic(fsmap(1, 1, (0,)), fsmap(1, 1, (0,)), None, I2, fuel=0)


def test_context_caches_cylinders_and_verdicts():
    ctx = HomotopyContext(I1, 64)
    rel = initial_map(fs(1))
    assert ctx.cylinder(rel) is ctx.cylinder(rel)
    f0 = fsmap(1, 2, (0,))
    f1 = fsmap(1, 2, (1,))
    first = ctx.homotopic(f0, f1)
    assert first is not None and first.cylinder is ctx.cylinder(rel)
    oracle = ctx.oracle(rel)
    assert oracle(fs(2), f0._comp, f1._comp) == first.map._comp
    # the oracle keeps the homotopy table it found, by end tables
    found = {(f0._comp, f1._comp): first.map._comp}
    assert ctx._homotopies(rel, fs(2)) == found
    # maps that are not parallel have no table form
    with pytest.raises(NonComposable):
        ctx.homotopic(f0, fsmap(1, 3, (0,)))
    assert ctx.absolute_oracle(fs(1))(fs(2), f0._comp, f1._comp) is not None
