"""Bounded universes, membership verdicts, and the condition checkers."""

import functools
import itertools
import json
import random
from collections import Counter

import pytest

from minmodel import analyzer, cli, lifting
from minmodel.analyzer import (
    BoundedUniverse,
    _coproduct_map,
    _isos,
    _object_square_failure,
    build_jset,
    check_appropriate,
    check_main_condition,
    check_properness_condition,
    classify_map,
    enumerate_weak_equivalences,
    is_pure,
    is_weak_equivalence,
    verify_axioms,
)
from minmodel.colimits import initial_map, pushout
from minmodel.errors import FuelExhausted, FunctorialityViolation, SizeLimitExceeded
from minmodel.factorization import GeneratingSet, Verdict, in_cof, in_inj
from minmodel.homotopy import HomotopyContext, is_strong_deformation_retract
from minmodel.lifting import has_rlp
from minmodel.presheaf import (
    Presheaf,
    PresheafMap,
    _compose_tables,
    _first_map,
    _pin,
    compose,
    identity_map,
    is_mono,
    is_retract_of,
    load_base,
)
from minmodel.workspace import parse_workspace

import oracle_finset as of
import oracle_gph as og
from helpers import (
    FS_BASE,
    cofibrations_between_cofibrant,
    fixture,
    fs,
    fs_to_oracle,
    fsmap,
    gph,
    gph_to_oracle,
    graph_iso_class,
    i1_set,
    i2_set,
    ig_set,
    is_bijective,
    map_iso_class,
    maps_between_cofibrant,
    trivial_fibrations_between_cofibrant,
)

I1 = i1_set()
I2 = i2_set()
IG = ig_set()


def finset_universe(gens, bound=3):
    return BoundedUniverse(FS_BASE, bound, gens, 1024)


def gph_universe(gens=None):
    gens = gens or IG
    return BoundedUniverse(gens.base_of(), {"v": 2, "e": 2}, gens, 1024)


def test_universe_enumeration_counts():
    U = finset_universe(I1)
    assert len(U.objects) == 4
    assert sum(1 for _ in U.all_maps()) == 60
    V = gph_universe()
    assert len(V.objects) == 25
    assert sum(1 for _ in V.all_maps()) == 929
    assert U.describe()["objects"] == 4
    assert U.all_undecided() == 0


def test_universe_bound_can_vary_per_object():
    V = BoundedUniverse(IG.base_of(), {"v": 2, "e": 1}, IG, 1024)
    assert all(len(X.carrier("e")) <= 1 for X in V.objects)
    with pytest.raises(KeyError):
        BoundedUniverse(IG.base_of(), {"v": 2}, IG, 1024)


def test_universe_hom_and_membership_caches():
    U = finset_universe(I1)
    by_size = {X.total_size(): X for X in U.objects}
    one, two, three = by_size[1], by_size[2], by_size[3]
    assert U.index(two) == 2
    assert U.index(fs(2)) is None  # different element names, different object
    assert len(U.hom(two, three)) == 9
    assert U.hom(two, three) is U.hom(two, three)
    iota = U.hom(one, two)[0]
    assert U.is_cof(iota) is Verdict.YES
    assert not U.is_triv_fib(iota)
    assert U.is_object_retract(one, two)
    assert not U.is_object_retract(two, one)


def test_cofibrant_families():
    # every finite set is cofibrant for either generating set; the
    # cofibrations between them over the point inclusion are the monos
    U = finset_universe(I1)
    assert len(U.cofibrant) == 4
    cbc = cofibrations_between_cofibrant(U)
    assert len(cbc) == 24
    assert all(is_mono(i) for i in cbc)
    V = finset_universe(I2)
    assert len(cofibrations_between_cofibrant(V)) == 60


def _renamed(f: PresheafMap, rng: random.Random) -> PresheafMap:
    """f with the elements of both ends renamed and put in a random order,
    so that an end with elements is no universe object."""

    def renamed(X):
        carriers = {
            o: rng.sample([f"r{x}" for x in X.carrier(o)], len(X.carrier(o)))
            for o in X.base.objects
        }
        actions = {
            m: {f"r{x}": f"r{y}" for x, y in X.action(m).items()}
            for m in X.base.nonidentity
        }
        return Presheaf(X.base, carriers, actions)

    components = {
        o: {f"r{x}": f"r{y}" for x, y in f.component(o).items()}
        for o in f.source.base.objects
    }
    return PresheafMap(renamed(f.source), renamed(f.target), components)


def _relabelled(X: Presheaf) -> PresheafMap:
    """An isomorphism from X onto a copy with its elements renamed and in
    reverse order, so that the copy is no universe object."""
    copy = Presheaf(
        X.base,
        {o: [f"r{x}" for x in reversed(X.carrier(o))] for o in X.base.objects},
        {
            m: {f"r{x}": f"r{y}" for x, y in X.action(m).items()}
            for m in X.base.nonidentity
        },
    )
    return PresheafMap(
        X, copy, {o: {x: f"r{x}" for x in X.carrier(o)} for o in X.base.objects}
    )


def test_iso_class_is_exact_on_each_kind_of_map():
    # universe maps, renamed copies and sums, whose targets are no universe
    # objects, are all keyed by their orbit over the universe's registered
    # classes.  Two maps of any kinds share a key exactly when a brute-force
    # search over every carrier permutation finds them isomorphic, so a
    # copy gets its original's key, and a copy or sum isomorphic to a
    # universe map gets that map's key.
    U = gph_universe()
    rng = random.Random(7)
    maps = list(U.all_maps())
    originals = [f for f in maps[::4] if f.target.total_size()]
    copies = [_renamed(f, rng) for f in originals]
    small = [f for f in maps if 0 < f.target.total_size() <= 2]
    sums = [_coproduct_map(t1, t2) for k, t1 in enumerate(small) for t2 in small[k:]]
    assert all(U.index(f.target) is None for f in copies + sums)
    universe, copied, summed = (
        [(U.iso_class(f), graph_iso_class(gph_to_oracle(f))) for f in kind]
        for kind in (maps, copies, sums)
    )
    kinds = (
        (universe, 168),
        (copied, 116),
        (summed, 205),
        (copied + summed, 294),
        (universe + copied + summed, 334),
    )
    for pairs, count in kinds:
        keys, classes = zip(*pairs)
        assert len(set(keys)) == len(set(classes)) == len(set(pairs)) == count
    assert [k for k, _ in copied] == [U.iso_class(f) for f in originals]
    by_class = {c: k for k, c in universe}
    matched = [(k, by_class[c]) for k, c in copied + summed if c in by_class]
    assert len(matched) == 295 and all(k == u for k, u in matched)


def test_representatives_match_brute_force_one_bound_up():
    # no golden reaches these bounds: the registry partitions the objects
    # as the brute-force classes of their identities do, each class is
    # represented by its first-seen object even when a map between
    # relabelled copies of the last object is keyed first, the copy shares
    # its original's key, and every table of a frame is a natural bijection
    for bound, count, classes in (
        ({"v": 3, "e": 2}, 116, 26),
        ({"v": 2, "e": 3}, 90, 24),
    ):
        U = BoundedUniverse(IG.base_of(), bound, GeneratingSet("none", ()))
        last = identity_map(U.objects[-1])
        copy = _renamed(last, random.Random(3))
        assert U.index(copy.source) is U.index(copy.target) is None
        key = U.iso_class(copy)
        r = U._representatives
        assert key == U.iso_class(last)
        assert all(U.index(R) is not None for R in U._registered)
        brute = [graph_iso_class(gph_to_oracle(identity_map(X))) for X in U.objects]
        assert (len(U.objects), len(set(r))) == (count, classes)
        assert len(set(zip(r, brute))) == len(set(brute)) == classes
        for x, X in enumerate(U.objects):
            k, lefts, rights = U._frame(X)
            R = U._registered[k]
            assert k == r[x] and R is U.objects[r.index(k)]
            assert len(lefts) == len(rights) == len(U._automorphisms(k))
            for table in lefts:
                back = PresheafMap._make(R, X, table)
                back._check_naturality()
                assert is_bijective(back)
            for table in rights:
                there = PresheafMap._make(X, R, table)
                there._check_naturality()
                assert is_bijective(there)


def test_an_inconclusive_cofibration_verdict_stays_with_its_map(monkeypatch):
    # On the shipped fixtures isomorphic maps spend the same fuel, so one
    # member of a class is made undecided by hand.
    U = finset_universe(I1)
    by_size = {X.total_size(): X for X in U.objects}
    first, second, third = U.hom(by_size[1], by_size[3])
    assert len({U.iso_class(f) for f in (first, second, third)}) == 1
    calls = []

    def starve_first(f, I, fuel=None):
        calls.append(f)
        return Verdict.INCONCLUSIVE if f == first else in_cof(f, I, fuel)

    monkeypatch.setattr(analyzer, "in_cof", starve_first)
    assert U.is_cof(first) is Verdict.INCONCLUSIVE
    # the undecided verdict does not cross over: the next member runs
    assert U.is_cof(second) is Verdict.YES
    assert calls == [first, second]
    # a decided verdict serves the rest of the class without a run
    assert U.is_cof(third) is Verdict.YES
    assert calls == [first, second]
    # and the undecided map keeps its own verdict
    assert U.is_cof(first) is Verdict.INCONCLUSIVE
    assert calls == [first, second]
    # decided first, the class verdict reaches the member that would be
    # undecided on its own
    V = finset_universe(I1)
    assert V.is_cof(second) is Verdict.YES
    assert V.is_cof(first) is Verdict.YES
    assert calls == [first, second, second]


def test_shared_cofibration_verdicts_agree_with_per_map_runs():
    cases = ((FS_BASE, 3, I2), (IG.base_of(), {"v": 2, "e": 1}, IG))
    for base, bound, gens in cases:
        maps = list(BoundedUniverse(base, bound, gens).all_maps())
        alone = {f: in_cof(f, gens) for f in maps}
        assert Verdict.INCONCLUSIVE not in alone.values()
        undecided = {}
        for fuel in (0, 1, 2, 3, 4, 5, None):
            U = BoundedUniverse(base, bound, gens, fuel)
            undecided[fuel] = 0
            for f in maps:
                shared = U.is_cof(f)
                if shared is Verdict.INCONCLUSIVE:
                    undecided[fuel] += 1
                    assert in_cof(f, gens, fuel) is Verdict.INCONCLUSIVE, fuel
                else:
                    assert shared is alone[f], fuel
        # both branches are exercised
        assert undecided[0] > 0 and undecided[None] == 0, undecided


def test_monic_generators_decide_non_monos_without_a_factorization(monkeypatch):
    # IG and I1 are monos, so their cofibrations are monos: a non-mono is a
    # NO even at fuel 0, with no class key and no factorization
    cases = (
        (IG.base_of(), {"v": 2, "e": 2}, IG, 654),
        (FS_BASE, 4, I1, 410),
    )
    for base, bound, gens, count in cases:
        maps = BoundedUniverse(base, bound, gens).all_maps()
        non_monos = [f for f in maps if not is_mono(f)]
        assert len(non_monos) == count
        # the reference procedure agrees at default fuel
        assert all(in_cof(f, gens) is Verdict.NO for f in non_monos)
        U = BoundedUniverse(base, bound, gens, 0)
        calls = []
        monkeypatch.setattr(analyzer, "in_cof", lambda *a: calls.append(a))
        monkeypatch.setattr(U, "iso_class", lambda *a: calls.append(a))
        assert [U.is_cof(f) for f in non_monos] == [Verdict.NO] * count
        assert calls == []
        assert U.monic_generators
        monkeypatch.undo()
    # I2 holds the non-monic fold, and some of its cofibrations are not monos
    U = finset_universe(I2)
    assert not U.monic_generators
    assert any(
        U.is_cof(f) is Verdict.YES for f in U.all_maps() if not is_mono(f)
    )


def test_cofibration_verdicts_match_the_oracles():
    U = gph_universe()
    maps = list(U.all_maps())
    assert len(maps) == 929
    for f in maps:
        want = Verdict.YES if og.is_mono(gph_to_oracle(f)) else Verdict.NO
        assert U.is_cof(f) is want
    for gens, oracle_gens in ((I1, of.I1), (I2, of.I2)):
        U = finset_universe(gens)
        for f in U.all_maps():
            want = Verdict.YES if of.in_cof(fs_to_oracle(f), oracle_gens) else Verdict.NO
            assert U.is_cof(f) is want


def test_purity_verdicts():
    U = finset_universe(I1)
    assert is_pure(fsmap(2, 1, (0, 0)), U).verdict is Verdict.YES
    assert is_pure(fsmap(1, 2, (0,)), U).verdict is Verdict.YES
    bad = is_pure(fsmap(0, 1, ()), U)
    assert bad.verdict is Verdict.NO
    i = bad.counterexample["cofibration"]
    u = bad.counterexample["top"]
    # the square exists but the top cannot factor through the cofibration
    assert i.source.is_empty() and not i.target.is_empty()
    assert u.source == i.source


def test_cofibration_classes_partition_the_cofibrations_in_walk_order():
    cases = (
        (finset_universe(I1, bound=4), 89, 15),
        (finset_universe(I2), 60, 18),
        (gph_universe(), 275, 65),
    )
    for U, count, classes in cases:
        cofibrations = cofibrations_between_cofibrant(U)
        grouped = U.cofibration_classes()
        assert grouped is U.cofibration_classes()
        assert (len(cofibrations), len(grouped)) == (count, classes)
        assert sum(n for _, n in grouped) == count
        keys = [U.iso_class(i) for i, _ in grouped]
        assert len(set(keys)) == classes
        # each representative is the first member of its class in the walk
        position = {id(i): k for k, i in enumerate(cofibrations)}
        first = dict(zip(keys, (position[id(i)] for i, _ in grouped)))
        sizes = dict(zip(keys, (n for _, n in grouped)))
        members = {key: 0 for key in keys}
        for k, i in enumerate(cofibrations):
            key = U.iso_class(i)
            assert first[key] <= k
            members[key] += 1
        assert members == sizes


def _full_walk(U: BoundedUniverse):
    """`cofibration_classes()` and `all_undecided()` as the full walk gives
    them: every map between cofibrant objects in order, grouped by
    `iso_class`, and the INCONCLUSIVE verdicts over every initial map and
    every map between cofibrant objects."""
    classes = analyzer._first_of_each_class(
        cofibrations_between_cofibrant(U), U.iso_class
    )
    maps = itertools.chain(map(initial_map, U.objects), maps_between_cofibrant(U))
    return classes, sum(U.is_cof(f) is Verdict.INCONCLUSIVE for f in maps)


def _walk_gives_up(U: BoundedUniverse) -> bool:
    """Runs `cofibration_classes()` on U and tells whether its `_class_walk`
    took the full walk: some `is_cof` call had answered INCONCLUSIVE, or
    the class pass met one."""
    passes = []
    class_walk = analyzer._class_walk

    def spy_walk(sweep, classes, everyone):
        def recorded(objects):
            passes.append(objects is classes)
            return sweep(objects)

        return class_walk(recorded, classes, everyone)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "_class_walk", spy_walk)
        U.cofibration_classes()
    assert passes in ([True], [True, False])
    return passes == [True, False]


def test_cofibration_classes_walk_representatives_like_the_full_walk(monkeypatch):
    # the representative walk reads the hom-sets between the first
    # cofibrant objects of each class alone and gives each class its
    # full-walk size; a universe with an undecided verdict falls back to
    # the full walk, so the fuel-starved universes agree too.  The walk
    # counts `all_undecided()` as it goes: reading it asks no hom-set and
    # solves nothing
    solved = []
    real = analyzer.in_cof
    monkeypatch.setattr(
        analyzer, "in_cof", lambda f, I, fuel=None: solved.append(f) or real(f, I, fuel)
    )
    gph = IG.base_of()
    cases = (
        (FS_BASE, 3, I1, 1024, False),
        (FS_BASE, 3, I2, 1024, False),
        (gph, {"v": 2, "e": 2}, IG, 1024, False),
        (gph, {"v": 3, "e": 2}, IG, 1024, False),
        (gph, {"v": 2, "e": 3}, IG, 1024, False),
        (FS_BASE, 3, I2, 0, True),
        (FS_BASE, 3, I2, 1, True),
        (FS_BASE, 3, I2, 3, True),
        (gph, {"v": 2, "e": 2}, IG, 1, True),
    )
    for base, bound, gens, fuel, starved in cases:
        case = (bound, gens.label, fuel)
        U = BoundedUniverse(base, bound, gens, fuel)
        gives_up = _walk_gives_up(U)
        work = (U.hom.cache_info().misses, len(solved))
        got = (U.cofibration_classes(), U.all_undecided())
        assert (U.hom.cache_info().misses, len(solved)) == work, case
        if not starved:
            assert U.hom.cache_info().misses == len(U.cofibrant_classes) ** 2
        reference = BoundedUniverse(base, bound, gens, fuel)
        assert got == _full_walk(reference), case
        assert (got[1] > 0) is starved, case
        assert gives_up is starved, case
        # the walk leaves every later verdict as the full walk has it
        maps = maps_between_cofibrant(reference)
        assert list(map(U.is_cof, maps)) == list(map(reference.is_cof, maps)), case


def test_an_undecided_cofibration_sends_the_class_walk_to_the_full_walk(monkeypatch):
    # `is_cof` keeps an INCONCLUSIVE verdict with its map, so a map asked
    # while its class is undecided stays out of the cofibrations after
    # the class is decided.  Whether that map is asked before the
    # representative walk (where the walk never looks) or during it, both
    # sweeps then walk every map, and agree with the full walk.  One asked
    # after the walk cannot lie between cofibrant objects, whose classes
    # the walk decided: the walk's classes and count stand.
    U = gph_universe()
    sizes = {U.iso_class(i): n for i, n in U.cofibration_classes()}
    # the first cofibrant object of each class, with the size of its class
    weight = dict(U.cofibrant_classes)
    # a cofibration out of an object that is not first in its class
    late = next(f for f in cofibrations_between_cofibrant(U) if f.source not in weight)
    # a first-seen cofibration whose ends' classes hold more than one
    # object between them, so that its class has members off the walk
    walked = next(
        i for i, _ in U.cofibration_classes()
        if i.source.total_size() and weight[i.source] * weight[i.target] > 1
    )
    real = analyzer.in_cof
    for starved, ask_first in ((late, True), (walked, False)):
        monkeypatch.setattr(
            analyzer,
            "in_cof",
            lambda f, I, fuel=None: Verdict.INCONCLUSIVE if f == starved else real(f, I, fuel),
        )
        got, reference = gph_universe(), gph_universe()
        if ask_first:
            for V in (got, reference):
                assert V.is_cof(starved) is Verdict.INCONCLUSIVE
        assert _walk_gives_up(got)
        classes, undecided = got.cofibration_classes(), got.all_undecided()
        assert (classes, undecided) == _full_walk(reference)
        assert undecided == 1
        # the starved map's class lost that one member
        shrunk = {got.iso_class(i): n for i, n in classes}
        key = got.iso_class(starved)
        assert shrunk[key] == sizes[key] - 1
        assert {k: n for k, n in shrunk.items() if k != key} == {
            k: n for k, n in sizes.items() if k != key
        }
        monkeypatch.undo()
    # the empty graph into three vertices, a map with an end outside the
    # universe, answers INCONCLUSIVE after the walk
    starved = initial_map(gph(3, ()))
    solved = []
    monkeypatch.setattr(
        analyzer,
        "in_cof",
        lambda f, I, fuel=None: solved.append(f) or (
            Verdict.INCONCLUSIVE if f == starved else real(f, I, fuel)),
    )
    got, reference = gph_universe(), gph_universe()
    assert not _walk_gives_up(got)
    assert got.is_cof(starved) is Verdict.INCONCLUSIVE and got._cof_undecided
    work = (got.hom.cache_info().misses, len(solved))
    classes, undecided = got.cofibration_classes(), got.all_undecided()
    assert (got.hom.cache_info().misses, len(solved)) == work
    assert (classes, undecided) == _full_walk(reference)
    assert undecided == 0 and {got.iso_class(i): n for i, n in classes} == sizes


def test_classify_and_retract_closure_decide_once_per_pair_of_classes(monkeypatch):
    # classify's purity reads the hom-sets between the 13 first cofibrant
    # objects of the classes (169 pairs, where the full walk read all 625
    # pairs of the 25 cofibrant objects), and A2-retracts searches once
    # per pair of map classes (78 searches, where the pairwise sweep made
    # 2,030)
    U = gph_universe()
    classify_map(IG.maps[0], U)
    assert len(U.cofibrant) == 25
    assert U.hom.cache_info().misses == 169 == len(U.cofibrant_classes) ** 2
    calls = []
    real = analyzer.is_retract_of
    monkeypatch.setattr(
        analyzer, "is_retract_of", lambda f, g: calls.append((f, g)) or real(f, g)
    )
    U = gph_universe()
    report = verify_axioms(U)
    retracts = {s.check: s for s in report.subchecks}["A2-retracts"]
    assert len(calls) == 78
    assert len({(U.iso_class(f), U.iso_class(g)) for f, g in calls}) == 78
    assert retracts.verdict is Verdict.YES
    assert retracts.diagnostics == {"pairs_searched": 2030, "skipped": 0}


def _purity_by_full_walk(f: PresheafMap, U: BoundedUniverse, cofibrations):
    """is_pure's verdict, counterexample and squares_considered from a walk
    of the squares against every cofibration of `cofibrations`, the
    cofibrations between cofibrant objects of U, copies of one class
    included."""
    X = f.source
    squares = 0
    for i in cofibrations:
        factorable = U.factors_through(i, X)
        for u in U.hom(i.source, X):
            squares += 1
            if u._comp in factorable:
                continue
            w = _compose_tables(u._comp, f._comp)
            v = _first_map(i.target, f.target, _pin((i._comp, w)))
            if v is not None:
                return Verdict.NO, {"cofibration": i, "top": u, "bottom": v}, None
    verdict = Verdict.INCONCLUSIVE if U.all_undecided() else Verdict.YES
    return verdict, None, squares


def test_purity_walks_one_cofibration_per_class_like_the_full_walk():
    cases = (
        (finset_universe(I1, bound=4), 1),
        (finset_universe(I2), 1),
        (gph_universe(), 3),  # a stride of the 929 graph maps
    )
    for U, stride in cases:
        maps = list(U.all_maps())[::stride]
        cofibrations = cofibrations_between_cofibrant(U)
        failing = 0
        for f in maps:
            report = is_pure(f, U)
            verdict, counterexample, squares = _purity_by_full_walk(f, U, cofibrations)
            assert report.verdict is verdict
            assert report.counterexample == counterexample
            assert report.diagnostics.get("squares_considered") == squares
            failing += verdict is Verdict.NO
        assert 0 < failing < len(maps)


def test_weak_equivalence_verdicts_and_fuel():
    ctx = HomotopyContext(I1)
    assert is_weak_equivalence(fsmap(2, 1, (0, 0)), ctx).verdict is Verdict.YES
    report = is_weak_equivalence(fsmap(0, 1, ()), ctx)
    assert report.verdict is Verdict.NO
    assert report.counterexample["generator"] == 0
    assert not report.passed
    starved = is_weak_equivalence(fsmap(1, 2, (0,)), HomotopyContext(I2, 0))
    assert starved.verdict is Verdict.INCONCLUSIVE


def test_jset_shapes():
    J1 = build_jset(HomotopyContext(I1))
    assert J1.label == "J(I1)"
    (j,) = J1.maps
    assert j.source.total_size() == 1 and j.target.total_size() == 2
    assert is_mono(j)
    J2 = build_jset(HomotopyContext(I2))
    assert [m.target.total_size() for m in J2.maps] == [1, 1]
    JG = build_jset(HomotopyContext(IG))
    sizes = [
        (len(m.target.carrier("v")), len(m.target.carrier("e")))
        for m in JG.maps
    ]
    assert sizes == [(2, 0), (2, 2)]


def test_is_we_memoizes_per_map_and_per_class(monkeypatch):
    # `U.is_we` decides a map once, and a decided verdict once for every
    # map of its `iso_class`; an INCONCLUSIVE one stays with its map
    decided = []
    real = analyzer.is_weak_equivalence

    def spy(f, ctx):
        decided.append(f)
        return real(f, ctx)

    monkeypatch.setattr(analyzer, "is_weak_equivalence", spy)
    U = finset_universe(I1)
    f, g = fsmap(1, 2, (0,)), fsmap(1, 2, (1,))
    assert U.iso_class(f) == U.iso_class(g)
    assert U.is_we(f) is Verdict.YES
    assert U.is_we(f) is Verdict.YES
    assert U.is_we.cache_info().misses == 1 and decided == [f]
    assert U.is_we(g) is Verdict.YES
    assert U.is_we.cache_info().misses == 2 and decided == [f]
    assert U.is_we(fsmap(0, 1, ())) is Verdict.NO
    assert len(decided) == len(U._we_by_class) == 2
    report = verify_axioms(U)
    assert report.parameters["weak-equivalences"] == "rlp-up-to-homotopy(I1)"
    decided.clear()
    starved = BoundedUniverse(FS_BASE, 3, I2, 0)
    assert starved.is_we(f) is starved.is_we(g) is Verdict.INCONCLUSIVE
    assert decided == [f, g] and not starved._we_by_class


def test_appropriateness_passes_on_finite_sets():
    for gens in (I1, I2):
        U = finset_universe(gens)
        report = check_appropriate(U)
        assert report.verdict is Verdict.YES, gens.label
        assert report.diagnostics["pushouts_checked"] > 0


def test_appropriateness_fails_on_graphs_and_matches_the_oracle():
    U = gph_universe()
    report = check_appropriate(U)
    assert report.verdict is Verdict.NO
    ce = report.counterexample
    t = gph_to_oracle(ce["trivial-fibration"])
    c = gph_to_oracle(ce["cofibration"])
    comparison = gph_to_oracle(ce["comparison"])
    assert og.is_inj(t)
    assert og.is_mono(c)
    assert og.purity_violation(comparison, 2, 2) is not None


def test_starved_appropriateness_counts_undecided_purity_per_map():
    # comparison maps of a settled iso class skip the purity run but still
    # count as undecided once each; these are the per-map counts
    counts = {}
    for fuel in (1, 2, 3):
        report = check_appropriate(BoundedUniverse(FS_BASE, 3, I2, fuel))
        assert report.verdict is Verdict.INCONCLUSIVE
        counts[fuel] = report.diagnostics["undecided_membership"]
    assert counts == {1: 12, 2: 25, 3: 53}


def test_appropriateness_pushes_out_along_one_trivial_fibration_per_class(monkeypatch):
    # only the first-seen trivial fibration of each iso class pushes out
    # the cofibrations out of its source; every trivial fibration between
    # cofibrant objects still counts them in `pushouts_checked`
    built = []
    real = analyzer.pushout
    monkeypatch.setattr(
        analyzer, "pushout", lambda f, g: built.append((f, g)) or real(f, g)
    )
    U = finset_universe(I1, bound=4)
    report = check_appropriate(U)
    assert report.verdict is Verdict.YES
    assert report.diagnostics["pushouts_checked"] == 2265
    assert len(built) == 265
    classes = U.trivial_fibration_classes()
    assert list(dict.fromkeys(t for t, _ in built)) == [t for t, _ in classes]

    def cofibrations(A):
        return sum(U.is_cof(c) is Verdict.YES for c in U.maps_from(A))

    assert sum(cofibrations(t.source) for t, _ in classes) == 265
    assert sum(n * cofibrations(t.source) for t, n in classes) == 2265


def test_object_lifts_walk_one_cofibrant_object_per_class_like_the_full_walk(
    monkeypatch,
):
    # check_appropriate lifts against the first-seen cofibrant object of
    # each isomorphism class; on every comparison map of the graph sweep
    # that walk gives the same first failure as a walk of every object
    U = gph_universe()
    walked = []
    real = analyzer._object_square_failure
    monkeypatch.setattr(
        analyzer,
        "_object_square_failure",
        lambda g, objects, ctx: walked.append(objects) or real(g, objects, ctx),
    )
    assert check_appropriate(U).verdict is Verdict.NO
    objects = walked[0]
    assert all(w is objects for w in walked)
    assert (len(U.cofibrant), len(objects)) == (25, 13)
    classes = [U._representatives[U.index(V)] for V in U.cofibrant]
    firsts = [V for k, V in enumerate(U.cofibrant) if classes.index(classes[k]) == k]
    assert list(objects) == firsts
    comparisons = {}
    for t in trivial_fibrations_between_cofibrant(U):
        for c in U.maps_from(t.source):
            if U.is_cof(c) is Verdict.YES:
                comparisons.setdefault(pushout(t, c).right, None)
    failures = 0
    for g in comparisons:
        bad = real(g, objects, U.ctx)
        assert bad == real(g, U.cofibrant, U.ctx)
        failures += bad is not None
    assert 0 < failures < len(comparisons)


def _appropriate_by_full_walk(U: BoundedUniverse) -> analyzer.VerdictReport:
    """check_appropriate as a walk of every trivial fibration between
    cofibrant objects and every cofibration out of its source.  A pair
    equal to (t after s, c after s) for an earlier pair and an
    automorphism s of the source builds no pushout: it glues the same
    elements, so its comparison map is one already seen."""
    params = {"generators": U.generators.label, **U.describe()}
    pushouts_checked = 0
    inconclusive = 0
    seen = set()
    settled = {}  # iso class -> whether purity was undecided
    source = None
    try:
        cofibrant = [V for V, _ in U.cofibrant_classes]
        for t in trivial_fibrations_between_cofibrant(U):
            if t.source is not source:
                source = t.source
                automorphisms = list(_isos(source, source))
                translates = set()
            for c in U.maps_from(source):
                vc = U.is_cof(c)
                if vc is Verdict.INCONCLUSIVE:
                    inconclusive += 1
                if vc is not Verdict.YES:
                    continue
                pushouts_checked += 1
                pair = (t.target, t._comp, c.target, c._comp)
                if pair in translates:
                    continue
                translates.update(
                    (t.target, _compose_tables(s, t._comp),
                     c.target, _compose_tables(s, c._comp))
                    for s in automorphisms
                )
                comparison = analyzer.pushout(t, c).right
                if comparison in seen:
                    continue
                seen.add(comparison)
                k = U.iso_class(comparison)
                if k in settled:
                    inconclusive += settled[k]
                    continue
                failure = {
                    "trivial-fibration": t,
                    "cofibration": c,
                    "comparison": comparison,
                }
                purity = analyzer.is_pure(comparison, U)
                if purity.verdict is Verdict.NO:
                    failure["purity"] = purity.counterexample
                    return analyzer._report("appropriate", params, failure)
                undecided = purity.verdict is Verdict.INCONCLUSIVE
                inconclusive += undecided
                bad = analyzer._object_square_failure(comparison, cofibrant, U.ctx)
                if bad is not None:
                    return analyzer._report("appropriate", params, {**failure, **bad})
                settled[k] = undecided
    except FuelExhausted as stop:
        return analyzer._out_of_fuel("appropriate", params, stop)
    undecided = U.all_undecided() + inconclusive
    return analyzer._report(
        "appropriate",
        params,
        undecided=undecided,
        diagnostics={
            "pushouts_checked": pushouts_checked,
            "undecided_membership": undecided,
        },
    )


def _both_walks(base, bound, gens, fuel):
    """check_appropriate and the full-walk reference, each on a fresh
    universe, with the solver calls each made."""
    return [
        _solver_calls(check, BoundedUniverse(base, bound, gens, fuel))
        for check in (check_appropriate, _appropriate_by_full_walk)
    ]


def test_appropriateness_walks_representatives_like_the_full_walk():
    # the class walk gives the full walk's report with the same solver
    # calls: on the graph fixture at every fuel, one bound up, with the
    # generator ∅ -> • alone, and on FinSet, also where fuel runs out
    gph = IG.base_of()
    cases = [(gph, {"v": 2, "e": 2}, IG, fuel) for fuel in (0, 1, 2, 4, None)]
    cases += [(gph, bound, IG, 1024) for bound in (
        {"v": 2, "e": 1}, {"v": 3, "e": 2}, {"v": 2, "e": 3})]
    cases += [(gph, {"v": 2, "e": 2}, I0, 1024)]
    cases += [(FS_BASE, bound, gens, 1024) for gens in (I1, I2) for bound in (3, 4)]
    cases += [(FS_BASE, 3, I2, fuel) for fuel in (0, 1, 3)]
    verdicts = set()
    for base, bound, gens, fuel in cases:
        (got, calls), (want, reference_calls) = _both_walks(base, bound, gens, fuel)
        assert (got, calls) == (want, reference_calls), (bound, gens.label, fuel)
        verdicts.add(got.verdict)
    assert verdicts == set(Verdict)


def test_an_undecided_candidate_or_purity_sends_appropriateness_to_the_full_walk(
    monkeypatch,
):
    # a candidate cofibration or a comparison's purity that the class walk
    # meets undecided sends the sweep to every trivial fibration, which
    # keeps the classes the class walk settled: the report and the solver
    # calls stay the full walk's.  A candidate is starved through
    # `_in_cof`, so that `per_class` still shares its class's decided
    # verdicts, at maps whose run the sweep makes: the first, and the last
    # of its source.  A purity is starved per `iso_class`, at the first and
    # the last class that passes, and then at every comparison.
    gph = IG.base_of()
    real_in_cof, real_pure = BoundedUniverse._in_cof, analyzer.is_pure
    spent = analyzer._report("pure", {}, undecided=1)
    last_of_all = 0
    for base, bound, gens in ((gph, {"v": 2, "e": 2}, IG),
                              (gph, {"v": 2, "e": 2}, I0), (FS_BASE, 3, I2)):
        case = (bound, gens.label)
        U = BoundedUniverse(base, bound, gens, 1024)
        U.cofibrant_classes
        runs, pure = [], []
        monkeypatch.setattr(
            BoundedUniverse, "_in_cof", lambda V, f: runs.append(f) or real_in_cof(V, f)
        )
        monkeypatch.setattr(
            analyzer, "is_pure", lambda f, V: pure.append((f, real_pure(f, V))) or pure[-1][1]
        )
        plain = check_appropriate(U)
        monkeypatch.undo()
        last = [f for f in runs if f.source == runs[0].source][-1]
        later = list(U.maps_from(last.source))
        later = later[later.index(last) + 1:]
        # with no cofibration after it, the sweep moves on to the next
        # trivial fibration right after the undecided answer
        last_of_all += all(U.is_cof(f) is Verdict.NO for f in later)
        passing = [U.iso_class(f) for f, report in pure if report.verdict is Verdict.YES]
        starved = [
            ("_in_cof", BoundedUniverse, lambda V, f, c=c: (
                Verdict.INCONCLUSIVE if f == c else real_in_cof(V, f)))
            for c in (runs[0], last)
        ]
        starved += [
            ("is_pure", analyzer, lambda f, V, k=k: (
                spent if k in (None, V.iso_class(f)) else real_pure(f, V)))
            for k in (passing[0], passing[-1], None)
        ]
        for name, owner, stand_in in starved:
            fired = []
            monkeypatch.setattr(
                owner, name, lambda *a, s=stand_in: fired.append(s(*a)) or fired[-1]
            )
            (got, calls), (want, reference_calls) = _both_walks(base, bound, gens, 1024)
            monkeypatch.undo()
            assert (got, calls) == (want, reference_calls), (case, name)
            # the stand-in answered INCONCLUSIVE in both walks
            undecided = [v for v in fired if v is Verdict.INCONCLUSIVE or v is spent]
            assert len(undecided) >= 2, (case, name)
            expected = Verdict.INCONCLUSIVE if plain.passed else Verdict.NO
            assert got.verdict is expected, (case, name)
    assert last_of_all


def test_a_failure_through_a_class_of_several_trivial_fibrations(monkeypatch):
    # the graph fixture fails at trivial fibrations between objects alone
    # in their classes, so stand-ins answer every purity and the object
    # lifts.  With every purity passing, then undecided, the counts are the
    # full walk's; then the lifts refuse one comparison alone, the first
    # decided along a trivial fibration between objects of classes of two
    passed = analyzer._report("pure", {})
    spent = analyzer._report("pure", {}, undecided=1)
    built, decided = [], []
    real = analyzer.pushout
    monkeypatch.setattr(analyzer, "pushout", lambda f, g: built.append(f) or real(f, g))
    monkeypatch.setattr(
        analyzer,
        "_object_square_failure",
        lambda g, objects, ctx: decided.append((built[-1], g)),
    )
    bound = {"v": 2, "e": 2}
    for purity in (spent, passed):
        decided.clear()
        monkeypatch.setattr(analyzer, "is_pure", lambda f, U, purity=purity: purity)
        (got, calls), reference = _both_walks(IG.base_of(), bound, IG, 1024)
        assert (got, calls) == reference
        assert got.verdict is (Verdict.YES if purity is passed else Verdict.INCONCLUSIVE)
    U = BoundedUniverse(IG.base_of(), bound, IG, 1024)
    weight = dict(U.cofibrant_classes)
    refused = next(g for t, g in decided if weight[t.source] * weight[t.target] > 1)
    bad = {"against": "stand-in"}
    monkeypatch.setattr(
        analyzer,
        "_object_square_failure",
        lambda g, objects, ctx: bad if g == refused else None,
    )
    (got, calls), reference = _both_walks(IG.base_of(), bound, IG, 1024)
    assert (got, calls) == reference
    assert got.verdict is Verdict.NO and got.counterexample["comparison"] == refused
    t = got.counterexample["trivial-fibration"]
    assert weight[t.source] * weight[t.target] > 1


def test_iso_classes_over_a_discrete_base_need_no_labelling_search(monkeypatch):
    # over FinSet a map's `iso_class` is its fibre-size profile and an
    # object's class its carrier sizes, so the maps check_appropriate and
    # check_properness_condition key at bound 4 start no isomorphism
    # search, register nothing and build no frame.  Over graphs every key
    # is an orbit over the registered classes.  Every appropriateness
    # comparison apex is isomorphic to a universe object, so there the
    # registry holds the 13 first-seen objects alone, and the searches are
    # its lookups, made once per presheaf keyed, and one automorphism list
    # per class.  The properness comparisons are keyed too, and their
    # apexes add 10 classes outside the universe.
    searches = []
    real = analyzer._isos
    monkeypatch.setattr(
        analyzer, "_isos", lambda X, Y: searches.append((X, Y)) or real(X, Y)
    )
    for check in (check_appropriate, check_properness_condition):
        U = finset_universe(I1, bound=4)
        assert check(U).verdict is Verdict.YES
        assert searches == []
        assert U._automorphisms.cache_info().misses == 0
        assert U._register.cache_info().misses == U._frame.cache_info().misses == 0
    for check, count, classes in (
        (check_appropriate, 126, 13),
        (check_properness_condition, 45, 23),
    ):
        searches.clear()
        U = gph_universe()
        assert check(U).verdict is Verdict.NO
        assert (len(searches), len(U._registered)) == (count, classes)
        assert [U.index(R) is not None for R in U._registered].count(True) == 13
        assert U._automorphisms.cache_info().misses == classes


def test_a_presheaf_outside_the_universe_is_searched_against_the_registry_once(
    monkeypatch,
):
    # every map into a relabelled copy of a universe object reads the
    # copy's frame to be keyed; the copy is searched against the registry
    # when the first of them is keyed, and never again
    U = gph_universe()
    iso = _relabelled(U.objects[-1])
    copy = iso.target
    maps = [(f, compose(f, iso)) for A in U.objects for f in U.hom(A, iso.source)]
    assert len(maps) > 1 and U.index(copy) is None
    searches = []
    real = analyzer._isos
    monkeypatch.setattr(
        analyzer, "_isos", lambda X, Y: searches.append(X) or real(X, Y)
    )
    counts = []
    for f, g in maps:
        assert U.iso_class(g) == U.iso_class(f)
        counts.append(searches.count(copy))
    assert counts[0] >= 1 and set(counts) == {counts[0]}


def test_main_condition_verdicts():
    report = check_main_condition(finset_universe(I1))
    assert report.verdict is Verdict.YES
    assert [s.check for s in report.subchecks] == ["appropriate", "jcell-rlp"]
    assert check_main_condition(finset_universe(I2)).verdict is Verdict.YES
    assert check_main_condition(gph_universe()).verdict is Verdict.NO


def _main_by_full_walk(U: BoundedUniverse) -> analyzer.VerdictReport:
    """check_main_condition with the J-pushouts along every map out of each
    J-map's source, in universe order."""
    I = U.generators
    params = {"generators": I.label, **U.describe()}
    appropriate = check_appropriate(U)
    domains = list(dict.fromkeys(i.source for i in I.maps))

    def pushed_out(J):
        for jk, j in enumerate(J.maps):
            for u in U.maps_from(j.source):
                pushed = analyzer.pushout(j, u).right
                bad = analyzer._object_square_failure(pushed, domains, U.ctx)
                if bad is not None:
                    yield {"j-generator": jk, "along": u, "pushed": pushed, **bad}
                else:
                    yield Verdict.YES

    try:
        failure, checked, _ = analyzer._first_failure(pushed_out(U.J))
    except FuelExhausted as stop:
        cell = analyzer._out_of_fuel("jcell-rlp", params, stop)
    else:
        diagnostics = None if failure else {"pushouts_checked": checked}
        cell = analyzer._report("jcell-rlp", params, failure, diagnostics=diagnostics)
    return analyzer._combine("main-condition", params, [appropriate, cell])


def test_main_condition_walks_representatives_like_the_full_walk():
    # the J-pushouts run along the maps into one object per class, with the
    # full walk's report: on the graph fixture at every fuel, one bound up
    # and with the generator ∅ -> • alone, on FinSet and on reflexive
    # graphs.  Solver calls fall exactly where some class holds two
    # objects, so never on FinSet, where every object is alone in its class
    gph = IG.base_of()
    cases = [(gph, {"v": 2, "e": 2}, IG, fuel) for fuel in (0, 1, 2, 4, None)]
    cases += [(gph, bound, IG, 1024) for bound in (
        {"v": 2, "e": 1}, {"v": 3, "e": 2}, {"v": 2, "e": 3})]
    cases += [(gph, {"v": 2, "e": 2}, I0, 1024)]
    cases += [(FS_BASE, bound, gens, 1024) for gens in (I1, I2) for bound in (3, 4)]
    universes = [functools.partial(BoundedUniverse, *case) for case in cases]
    for case, fresh in zip(cases + ["RG"], universes + [_rgph_universe]):
        U = fresh()
        got, calls = _solver_calls(check_main_condition, U)
        want, reference_calls = _solver_calls(_main_by_full_walk, fresh())
        assert got == want, case
        shared = any(n > 1 for _, n in U.object_classes)
        assert (calls < reference_calls) is shared and calls <= reference_calls, case


def test_a_failing_j_pushout_into_a_class_of_several_objects(monkeypatch):
    # `jcell-rlp` passes on every fixture, so a stand-in for
    # `_object_square_failure` refuses J-pushouts along the maps into
    # objects of classes of two or more: every one of the second J-map,
    # and those of the first into the last such class.  The other squares
    # go to the real search.  The first refusal is the full walk's, which
    # pushes out along every map of the first J-map before the second
    U = gph_universe()
    count = Counter(U._representatives)
    size = {X: count[r] for X, r in zip(U.objects, U._representatives)}
    last = [X for X, n in U.object_classes if n > 1][-1]
    second = U.J.maps[1]
    domains = list(dict.fromkeys(i.source for i in IG.maps))
    built = []
    real_pushout, real = analyzer.pushout, analyzer._object_square_failure

    def refuse(g, objects, ctx):
        if objects == domains and size[g.source] > 1 and (
            built[-1] == second or g.source == last
        ):
            return {"against": "stand-in"}
        return real(g, objects, ctx)

    monkeypatch.setattr(analyzer, "pushout", lambda f, g: built.append(f) or real_pushout(f, g))
    monkeypatch.setattr(analyzer, "_object_square_failure", refuse)
    got, want = (check(gph_universe()) for check in (check_main_condition, _main_by_full_walk))
    assert got == want
    cell = got.subchecks[1]
    assert cell.verdict is Verdict.NO and cell.counterexample["against"] == "stand-in"
    assert cell.counterexample["j-generator"] == 0
    assert cell.counterexample["along"].target == last


def _ordered_sums(maps, U: BoundedUniverse):
    """Whether t1 + t2 is a trivial fibration of U, for every ordered pair
    of `maps` in order: Verdict.YES, or the pair and its sum as
    counterexample.  A pair and its swap share one `in_inj` decision."""
    lifts = {}
    for k1, t1 in enumerate(maps):
        for k2, t2 in enumerate(maps):
            pair = (min(k1, k2), max(k1, k2))
            if pair not in lifts:
                lifts[pair] = analyzer.in_inj(_coproduct_map(t1, t2), U.generators)
            if lifts[pair]:
                yield Verdict.YES
            else:
                yield {"first": t1, "second": t2, "coproduct": _coproduct_map(t1, t2)}


def test_coproduct_sweep_shares_verdicts_across_isomorphic_pairs():
    # every map of the universe, not only the trivial fibrations, so that
    # failing sums and their counterexamples are compared too
    for gens, U in (
        (I2, finset_universe(I2)),
        (IG, BoundedUniverse(IG.base_of(), {"v": 2, "e": 1}, IG, 1024)),
    ):
        maps = list(U.all_maps())
        unshared = []
        for t1 in maps:
            for t2 in maps:
                both = _coproduct_map(t1, t2)
                if in_inj(both, gens):
                    unshared.append(Verdict.YES)
                else:
                    unshared.append({"first": t1, "second": t2, "coproduct": both})
        assert Verdict.YES in unshared
        assert any(outcome is not Verdict.YES for outcome in unshared)
        # a pair and its swap share one verdict
        assert list(_ordered_sums(maps, U)) == unshared
        # one map per class, as check_properness_condition walks them: the
        # verdict of an unordered pair of first-seen members serves every
        # pair of maps isomorphic to them, the first failing one is the
        # full ordered walk's first counterexample, and the class sizes
        # count every pair
        classes = analyzer._first_of_each_class(maps, U.iso_class)
        firsts = [t for t, _ in classes]
        assert len(firsts) < len(maps)
        shared = {
            (k1, k2): in_inj(_coproduct_map(t1, t2), gens)
            for k1, t1 in enumerate(firsts)
            for k2, t2 in enumerate(firsts[k1:], k1)
        }
        number = {U.iso_class(t): c for c, t in enumerate(firsts)}
        kinds = [number[U.iso_class(t)] for t in maps]
        for (k1, k2), outcome in zip(itertools.product(kinds, repeat=2), unshared):
            assert (outcome is Verdict.YES) is shared[min(k1, k2), max(k1, k2)]
        k1, k2 = next(pair for pair, ok in shared.items() if not ok)
        t1, t2 = firsts[k1], firsts[k2]
        failure = {"first": t1, "second": t2, "coproduct": _coproduct_map(t1, t2)}
        assert failure == next(o for o in unshared if o is not Verdict.YES)
        assert sum(n for _, n in classes) ** 2 == len(unshared)


def test_a_failing_sum_of_trivial_fibrations_is_the_ordered_walks_first(monkeypatch):
    # every sum of the fixtures' trivial fibrations is one, so a stand-in
    # for `in_inj` refuses the sums whose target has 3 vertices and 1 edge:
    # the unordered walk stops at the ordered walk's first counterexample
    real = analyzer.in_inj

    def refuse(f, I):
        summed = any(x.startswith("r.") for col in f.source.carriers for x in col)
        return not (summed and tuple(map(len, f.target.carriers)) == (3, 1)) and real(f, I)

    monkeypatch.setattr(analyzer, "in_inj", refuse)
    bound = {"v": 2, "e": 1}
    got, want = (
        check(BoundedUniverse(IG.base_of(), bound, IG, 1024))
        for check in (check_properness_condition, _properness_by_full_walk)
    )
    assert got == want
    closed = got.subchecks[0]
    assert closed.verdict is Verdict.NO
    first, second = closed.counterexample["first"], closed.counterexample["second"]
    assert first != second


def test_coproduct_sweep_leaves_no_transient_map_in_the_universe_cache():
    # the sweep decides each pair of classes once on its own; a sum cached
    # on the universe would keep its coproducts and their extension tables
    # alive as long as the universe.  The universe's per-class memos keep
    # class keys and object indices, and its frames class numbers and
    # tables, which hold no presheaf or map.  The registry keeps the first
    # presheaf of each class it meets: over graphs the comparisons' apexes
    # join the universe objects there, no two of them isomorphic, and no
    # sum is keyed, so none of the sums' ends registers.
    def leaves(key):
        if isinstance(key, (tuple, list)):
            for part in key:
                yield from leaves(part)
        else:
            yield key

    for U in (finset_universe(I2), gph_universe()):
        asked, keyed, registered = [], [], []
        shared, keying, register = U.is_triv_fib, U.iso_class, U._register
        U.is_triv_fib = lambda f: asked.append(f) or shared(f)
        U.iso_class = lambda f: keyed.append(f) or keying(f)
        U._register = lambda X: registered.append(X) or register(X)
        sums = []

        def summed(t1, t2):
            sums.append(_coproduct_map(t1, t2))
            return sums[-1]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analyzer, "_coproduct_map", summed)
            check_properness_condition(U)
        assert asked and U._triv_fib_by_class and sums
        for f in asked:
            assert U.index(f.source) is not None and U.index(f.target) is not None
        memos = (
            U._triv_fib_by_class, U._orbit_keys, U._cof_by_class, U._we_by_class,
            U._fib_by_class,
        )
        kept = [x for memo in memos for key in memo for x in leaves(key)]
        kept += [x for R in U._registered for x in leaves(U._frame(R))]
        assert not any(isinstance(x, (Presheaf, PresheafMap)) for x in kept)
        assert not any(f is t for f in keyed for t in sums)
        ends = [X for t in sums for X in (t.source, t.target)]
        assert not any(X is Y for X in registered for Y in ends)
        outside = [R for R in U._registered if U.index(R) is None]
        assert len(outside) == (10 if U.base.nonidentity else 0)
        for k, R in enumerate(U._registered):
            for S in U._registered[k + 1:]:
                sizes = [tuple(map(len, X.carriers)) for X in (R, S)]
                assert sizes[0] != sizes[1] or next(_isos(R, S), None) is None


def test_properness_condition_verdicts():
    assert (
        check_properness_condition(finset_universe(I1)).verdict
        is Verdict.YES
    )
    assert (
        check_properness_condition(finset_universe(I2)).verdict
        is Verdict.YES
    )
    report = check_properness_condition(gph_universe())
    assert report.verdict is Verdict.NO
    ce = report.counterexample
    # the pushed-out comparison leaves the weak equivalences while the
    # trivial fibration it came from is one
    t = gph_to_oracle(ce["trivial-fibration"])
    comparison = gph_to_oracle(ce["comparison"])
    assert og.is_inj(t) and og.weak_equivalence(t)
    assert not og.weak_equivalence(comparison)


def _properness_by_full_walk(U: BoundedUniverse) -> analyzer.VerdictReport:
    """check_properness_condition as a walk of every pair of trivial
    fibrations between cofibrant objects, and of every comparison through
    every pair of universe objects."""
    I = U.generators
    params = {"generators": I.label, **U.describe()}
    tfibs = list(trivial_fibrations_between_cofibrant(U))

    def comparisons():
        for k, i in enumerate(I.maps):
            for u in U.maps_from(i.source):
                po1 = pushout(u, i)
                for g in U.maps_from(u.target):
                    if not U.is_triv_fib(g):
                        continue
                    po2 = pushout(compose(u, g), i)
                    induced = po1.mediator(compose(g, po2.left), po2.right)
                    v = U.is_we(induced)
                    if v is Verdict.NO:
                        yield {
                            "generator": k,
                            "attach": u,
                            "trivial-fibration": g,
                            "comparison": induced,
                        }
                    else:
                        yield v

    failure, checked, _ = analyzer._first_failure(_ordered_sums(tfibs, U))
    if failure:
        closed = analyzer._report("tfib-coproducts", params, failure)
    else:
        closed = analyzer._report(
            "tfib-coproducts",
            params,
            undecided=U.all_undecided(),
            diagnostics={"pairs_checked": checked},
        )
    failure, checked, undecided = analyzer._first_failure(comparisons())
    diagnostics = None if failure else {"comparisons_checked": checked}
    compared = analyzer._report(
        "pushout-comparisons", params, failure, undecided, diagnostics
    )
    return analyzer._combine("properness-condition", params, [closed, compared])


def _solver_calls(check, U: BoundedUniverse):
    """check(U) and the solver calls it made."""
    before = lifting.STATS["solver_calls"]
    report = check(U)
    return report, lifting.STATS["solver_calls"] - before


I0 = GeneratingSet("I0", IG.maps[:1])


def test_properness_sweeps_walk_representatives_like_the_full_walk():
    # both sweeps walk first-seen class members alone, with the full
    # walk's report and no more solver calls, also where fuel runs out
    gph = IG.base_of()
    cases = [(gph, {"v": 2, "e": 2}, IG, fuel) for fuel in (0, 1, 2, 4)]
    cases += [(gph, {"v": 2, "e": 1}, IG, 1024), (gph, {"v": 2, "e": 2}, I0, 1024)]
    cases += [(FS_BASE, bound, gens, 1024) for gens in (I1, I2) for bound in (3, 4)]
    cases += [(FS_BASE, 3, I2, fuel) for fuel in (0, 1, 3)]
    saved = 0
    for base, bound, gens, fuel in cases:
        case = (bound, gens.label, fuel)
        U = BoundedUniverse(base, bound, gens, fuel)
        got, calls = _solver_calls(check_properness_condition, U)
        want, reference_calls = _solver_calls(
            _properness_by_full_walk, BoundedUniverse(base, bound, gens, fuel)
        )
        assert got == want, case
        assert calls <= reference_calls, case
        saved += calls < reference_calls
        assert U.trivial_fibration_classes() == analyzer._first_of_each_class(
            trivial_fibrations_between_cofibrant(U), U.iso_class
        ), case
    assert saved


def test_a_failing_comparison_through_a_class_of_several_objects(monkeypatch):
    # the fixtures fail at objects alone in their classes, so a stand-in
    # for `is_weak_equivalence` refuses the comparisons (X + point) ->
    # (Y + point) for X and Y of 2 vertices and 1 edge, a class of two
    # objects: the first failure is still the full walk's
    real = analyzer.is_weak_equivalence
    refused = analyzer._report("weak-equivalence", {}, {"generator": 0})

    def sizes(X):
        return tuple(map(len, X.carriers))

    monkeypatch.setattr(
        analyzer,
        "is_weak_equivalence",
        lambda f, ctx: refused
        if (sizes(f.source), sizes(f.target)) == ((3, 1), (3, 1))
        else real(f, ctx),
    )
    universes = [BoundedUniverse(IG.base_of(), {"v": 2, "e": 2}, I0, 1024) for _ in "ab"]
    got = check_properness_condition(universes[0])
    assert got == _properness_by_full_walk(universes[1])
    assert got.verdict is Verdict.NO
    U = universes[0]
    weights = {U.index(X): n for X, n in U.object_classes}
    for end in (got.counterexample["attach"], got.counterexample["trivial-fibration"]):
        assert weights[U.index(end.target)] == 2


def test_an_undecided_comparison_sends_the_sweep_to_the_full_walk(monkeypatch):
    # a comparison on the representative walk that `we` cannot decide
    # sends the comparison sweep to every comparison of the universe, so
    # the first failure and the undecided count are the full walk's
    real = analyzer.is_weak_equivalence
    asked = []

    def spy(f, ctx):
        report = real(f, ctx)
        asked.append((f, report.verdict))
        return report

    # `walks` holds what each walk returned, `passes` whether each pass of
    # the comparisons' `_class_walk` went over the classes (True) or every
    # object; the universe's class collectors walk unrecorded
    walks, passes = [], []
    first_failure, class_walk = analyzer._first_failure, analyzer._class_walk

    def spy_walk(sweep, classes, everyone):
        if sweep.__name__ != "comparisons":
            return class_walk(sweep, classes, everyone)

        def recorded(objects):
            passes.append(objects is classes)
            return sweep(objects)

        walks.append(class_walk(recorded, classes, everyone))
        return walks[-1]

    monkeypatch.setattr(
        analyzer,
        "_first_failure",
        lambda candidates: walks.append(first_failure(candidates)) or walks[-1],
    )
    monkeypatch.setattr(analyzer, "_class_walk", spy_walk)
    bound = {"v": 2, "e": 2}
    for gens, verdict in ((IG, Verdict.NO), (I0, Verdict.INCONCLUSIVE)):
        asked.clear()
        monkeypatch.setattr(analyzer, "is_weak_equivalence", spy)
        check_properness_condition(BoundedUniverse(IG.base_of(), bound, gens, 1024))
        # the first comparison the walk decides YES
        starved = next(f for f, v in asked if v is Verdict.YES)
        spent = analyzer._out_of_fuel("weak-equivalence", {}, FuelExhausted("spent"))
        monkeypatch.setattr(
            analyzer,
            "is_weak_equivalence",
            lambda f, ctx: spent if f == starved else real(f, ctx),
        )
        results = []
        for check in (check_properness_condition, _properness_by_full_walk):
            walks.clear()
            passes.clear()
            report = check(BoundedUniverse(IG.base_of(), bound, gens, 1024))
            assert report.verdict is verdict
            # the comparisons' class walk gave up and walked every object;
            # the reference walks the ordered coproduct sweep with a
            # `_first_failure` of its own, then the comparisons
            if check is check_properness_condition:
                assert (len(walks), passes) == (1, [True, False])
            else:
                assert (len(walks), passes) == (2, [])
            results.append((report, walks[-1]))
        assert results[0] == results[1]
        failure, _, undecided = results[0][1]
        assert undecided >= 1
        assert (failure is None) is (verdict is Verdict.INCONCLUSIVE)


def test_axioms_pass_on_finite_sets():
    for gens in (I1, I2):
        report = verify_axioms(finset_universe(gens))
        assert report.verdict is Verdict.YES, gens.label
        assert [s.check for s in report.subchecks] == [
            "A1-permits-factorizations",
            "A2-two-out-of-three",
            "A2-retracts",
            "A3-trivial-fibrations",
            "A4-pushouts-of-j",
            "A5-first-disjunct",
        ]
        assert all(s.verdict is Verdict.YES for s in report.subchecks)


def test_axioms_fail_on_graphs_with_a_real_counterexample():
    report = verify_axioms(gph_universe())
    assert report.verdict is Verdict.NO
    by_name = {s.check: s for s in report.subchecks}
    two_three = by_name["A2-two-out-of-three"]
    assert two_three.verdict is Verdict.NO
    ce = two_three.counterexample
    trio = [ce["first"], ce["second"], ce["composite"]]
    flags = [og.weak_equivalence(gph_to_oracle(f)) for f in trio]
    assert sum(flags) == 2
    assert compose(ce["first"], ce["second"]) == ce["composite"]


def test_weak_equivalences_are_decided_once_per_iso_class_wherever_their_ends_lie(
    monkeypatch,
):
    # A4's pushed maps and the properness comparisons have ends outside
    # the universe.  `U.is_we` decides one map of each `iso_class` among
    # the maps it is asked with a decided verdict, and each shared verdict
    # is the one the map gets decided alone
    real_we = analyzer.is_weak_equivalence
    decided, asked = [], {}  # asked: each map asked, with its verdict

    def deciding(f, ctx):
        decided.append(f)
        return real_we(f, ctx)

    monkeypatch.setattr(analyzer, "is_weak_equivalence", deciding)
    for run, runs, outside_count in (
        (verify_axioms, 186, 84),
        (check_properness_condition, 22, 29),
    ):
        decided.clear()
        asked.clear()
        U = gph_universe()
        is_we = U.is_we
        U.is_we = lambda f: asked.setdefault(f, is_we(f))
        assert run(U).verdict is Verdict.NO
        keys = {
            U.iso_class(f) for f, v in asked.items() if v is not Verdict.INCONCLUSIVE
        }
        assert {U.iso_class(f) for f in decided} == keys
        outside = [
            (f, v) for f, v in asked.items()
            if None in (U.index(f.source), U.index(f.target))
        ]
        assert len(decided) == len(keys) == runs
        assert len(outside) == outside_count
        ctx = HomotopyContext(IG, 1024)
        for f, v in outside:
            assert v is real_we(f, ctx).verdict


def test_checks_run_on_one_universe_share_weak_equivalence_verdicts(monkeypatch):
    # check-properness and then verify-axioms on one universe decide one
    # map per decided `iso_class` between them, where each decides 22 and
    # 186 on a universe of its own, and they report as on fresh universes
    real_we = analyzer.is_weak_equivalence
    decided = []

    def deciding(f, ctx):
        report = real_we(f, ctx)
        decided.append((f, report.verdict))
        return report

    monkeypatch.setattr(analyzer, "is_weak_equivalence", deciding)
    checks = (check_properness_condition, verify_axioms)
    U = gph_universe()
    reports = [check(U) for check in checks]
    keys = [U.iso_class(f) for f, v in decided if v is not Verdict.INCONCLUSIVE]
    assert len(keys) == len(set(keys)) == len(decided)
    alone = []
    for check, report in zip(checks, reports):
        decided.clear()
        assert check(gph_universe()) == report
        alone.append(len(decided))
    assert alone == [22, 186]
    assert len(keys) < sum(alone)


def test_jfibration_verdicts_are_shared_per_class_on_one_universe(monkeypatch):
    # verify-axioms decides the J-fibration test once per `iso_class`, and
    # only for maps whose weak-equivalence verdict is not NO; classify on
    # the same universe then decides nothing again, and each of its
    # `fibration` verdicts is the test decided alone
    real_rlp = analyzer.has_rlp
    decided = []

    def deciding(f, maps):
        decided.append(f)
        return real_rlp(f, maps)

    monkeypatch.setattr(analyzer, "has_rlp", deciding)
    U = gph_universe()
    verify_axioms(U)
    asked = {U.iso_class(f) for f in U.all_maps() if U.is_we(f) is not Verdict.NO}
    assert len(decided) == len({U.iso_class(f) for f in decided}) == len(asked) == 54
    assert {U.iso_class(f) for f in decided} == asked
    J = build_jset(U.ctx)
    weak_equivalences = [f for f in U.all_maps() if U.is_we(f) is Verdict.YES][:40]
    assert len(weak_equivalences) == 40
    for f in weak_equivalences:
        fibration = classify_map(f, U).fibration
        assert fibration is (Verdict.YES if has_rlp(f, J.maps) else Verdict.NO)
    assert len(decided) == 54


def _pairwise_a2(U):
    """The A2 sweeps written pairwise, map by map: the reference for the
    hom-set verdict tables of verify_axioms.  Per subcheck, its
    counterexample and its counts; and the kinds of run (f, hom(b, c))
    that two-out-of-three walked, up to its first failure."""
    we = U.is_we
    yes, no, inconclusive = Verdict.YES, Verdict.NO, Verdict.INCONCLUSIVE
    branches = set()

    @functools.cache
    def verdicts(X, Y):
        return frozenset(map(we, U.hom(X, Y)))

    def run_kind(f, c):
        if we(f) is inconclusive:
            return "inconclusive f"
        found = verdicts(f.source, c)
        return f"uniform {next(iter(found)).name}" if len(found) == 1 else "mixed"

    def composable_pairs():
        for f in U.all_maps():
            for g in U.maps_from(f.target):
                h = compose(f, g)
                trio = (we(f), we(g), we(h))
                kind = run_kind(f, g.target)
                branches.add(kind)
                if inconclusive in trio:
                    yield inconclusive
                elif sum(v is yes for v in trio) == 2:
                    branches.add("failure in mixed" if kind == "mixed"
                                 else "failure in uniform")
                    names = [v.name for v in trio]
                    yield {"first": f, "second": g, "composite": h,
                           "memberships": names}
                else:
                    yield yes

    def retract_candidates():
        for f in U.all_maps():
            if we(f) is not no:
                continue
            for g in U.all_maps():
                if (
                    we(g) is yes
                    and U.is_object_retract(f.source, g.source)
                    and U.is_object_retract(f.target, g.target)
                ):
                    yield yes if is_retract_of(f, g) is None else {"map": f, "of": g}

    skipped = sum(we(f) is inconclusive for f in U.all_maps())
    failure, pairs, undecided = analyzer._first_failure(composable_pairs())
    two_three = (failure, {"composable_pairs": pairs, "skipped": undecided})
    failure, searched, _ = analyzer._first_failure(retract_candidates())
    retracts = (failure, {"pairs_searched": searched, "skipped": skipped})
    return {"A2-two-out-of-three": two_three, "A2-retracts": retracts}, branches


def _seeded(U, seed, per_hom_set):
    """A three-valued predicate drawn from `seed`: one verdict per map, or
    one per hom-set with a few maps drawn apart."""
    verdicts = (Verdict.YES, Verdict.NO, Verdict.INCONCLUSIVE)
    main = verdicts[seed % 3]

    def predicate(f):
        ends = (U.index(f.source), U.index(f.target))
        rng = random.Random(f"{seed} {ends}")
        shared = main if rng.random() < 0.6 else rng.choice(verdicts)
        rng = random.Random(f"{seed} {ends} {f._comp}")
        if per_hom_set and rng.random() >= 0.03:
            return shared
        return main if rng.random() < 0.8 else rng.choice(verdicts)

    return predicate


def test_a2_verdict_tables_match_the_pairwise_sweeps():
    def staggered(f):
        # identities in, other monos undecided, the rest out
        if f.is_identity():
            return Verdict.YES
        return Verdict.INCONCLUSIVE if is_mono(f) else Verdict.NO

    fixed = {
        "staggered": staggered,
        # a mono after a non-mono can be mono: two-out-of-three fails
        "mono": lambda f: Verdict.YES if is_mono(f) else Verdict.NO,
        # an isomorphism is a retract of an identity: retract closure fails
        "identity": lambda f: Verdict.YES if f.is_identity() else Verdict.NO,
    }
    universes = [
        finset_universe(I1),
        finset_universe(I2),
        BoundedUniverse(IG.base_of(), {"v": 2, "e": 1}, IG, 1024),
    ]
    seen = {}
    reached = {"per map": set(), "per hom-set": set()}
    for U in universes:
        probes = [(name, name, predicate) for name, predicate in fixed.items()]
        for seed in range(12):
            for family in reached:
                predicate = _seeded(U, seed, family == "per hom-set")
                probes.append((f"{family} {seed}", family, predicate))
        for name, family, predicate in probes:
            U.is_we = functools.cache(predicate)
            report = verify_axioms(U)
            by_name = {s.check: s for s in report.subchecks}
            reference, branches = _pairwise_a2(U)
            for check, (failure, counts) in reference.items():
                sub = by_name[check]
                assert sub.counterexample == failure, (name, check)
                assert {k: sub.diagnostics[k] for k in counts} == counts, (name, check)
                seen.setdefault(family, []).append(
                    (check, failure is not None, counts["skipped"]))
            if family in reached:
                reached[family] |= branches
    # each probe reaches the branch it is there for
    assert any(skipped for _, _, skipped in seen["staggered"])
    assert ("A2-two-out-of-three", True, 0) in seen["mono"]
    assert ("A2-retracts", True, 0) in seen["identity"]
    # and the seeded ones every kind of run, and a failure inside a run
    # whose composites all share one verdict
    assert {"uniform YES", "uniform NO", "uniform INCONCLUSIVE",
            "failure in uniform"} <= reached["per hom-set"]
    assert {"mixed", "inconclusive f", "failure in mixed"} <= reached["per map"]


def test_two_out_of_three_composes_no_table_where_every_hom_set_is_uniform(
    monkeypatch,
):
    # under I1 at bound 4 every hom-set of the universe has one verdict, so
    # no run needs a composite: the pairwise sweep composed 133,799 tables
    calls = []

    def counting(f, g):
        calls.append(None)
        return compose_tables(f, g)

    compose_tables = analyzer._compose_tables
    monkeypatch.setattr(analyzer, "_compose_tables", counting)
    report = verify_axioms(finset_universe(I1, bound=4))
    by_name = {s.check: s for s in report.subchecks}
    two_three = by_name["A2-two-out-of-three"]
    assert two_three.verdict is Verdict.YES
    assert two_three.diagnostics == {"composable_pairs": 133_799, "skipped": 0}
    assert len(calls) == 0


def test_axiom_five_fails_when_every_map_is_declared_invertible():
    # widening the weak equivalences to everything breaks the first
    # disjunct: some J-injective map is not a trivial fibration
    U = finset_universe(I1)
    ctx = HomotopyContext(I1)
    J = build_jset(ctx)
    U.is_we = lambda f: Verdict.YES
    report = verify_axioms(U)
    assert report.verdict is Verdict.NO
    by_name = {s.check: s for s in report.subchecks}
    assert by_name["A5-first-disjunct"].verdict is Verdict.NO
    bad = by_name["A5-first-disjunct"].counterexample["map"]
    assert has_rlp(bad, J.maps)
    assert not U.is_triv_fib(bad)
    # and the canonical class is untouched by the probe
    assert is_weak_equivalence(bad, ctx).verdict in (Verdict.YES, Verdict.NO)


def test_classification_of_the_point_inclusion():
    U = finset_universe(I1)
    got = classify_map(fsmap(1, 2, (0,)), U).as_dict()
    assert got["cofibration"] is Verdict.YES
    assert got["weak-equivalence"] is Verdict.YES
    assert got["trivial-cofibration"] is Verdict.YES
    assert got["strong-deformation-retract"] is Verdict.YES
    assert got["trivial-fibration"] is Verdict.NO
    assert got["sdr-consistent"] is True
    empty = classify_map(fsmap(0, 1, ()), U).as_dict()
    assert empty["cofibration"] is Verdict.YES
    assert empty["weak-equivalence"] is Verdict.NO
    assert empty["pure"] is Verdict.NO
    assert empty["sdr-consistent"] is True


def test_classify_leaves_its_homotopy_work_on_the_universe_context():
    # a split mono, so the strong deformation retract search builds the
    # cylinder rel f; a fresh context has to build it again
    U = finset_universe(I1)
    f = fsmap(1, 2, (0,))
    assert classify_map(f, U).strong_deformation_retract is Verdict.YES
    before = lifting.STATS["solver_calls"]
    assert is_strong_deformation_retract(f, U.ctx).verdict is Verdict.YES
    assert lifting.STATS["solver_calls"] == before
    is_strong_deformation_retract(f, HomotopyContext(I1, 1024))
    assert lifting.STATS["solver_calls"] > before


def test_a_deformation_retract_search_out_of_fuel_is_inconclusive():
    # the cylinder rel f runs out of fuel inside the search, which answers
    # INCONCLUSIVE itself, and classify reports that verdict
    f = fsmap(1, 2, (0,))
    search = is_strong_deformation_retract(f, HomotopyContext(I2, 0))
    assert search.verdict is Verdict.INCONCLUSIVE
    U = BoundedUniverse(FS_BASE, 3, I2, 0)
    assert classify_map(f, U).strong_deformation_retract is Verdict.INCONCLUSIVE


def test_an_object_lift_out_of_fuel_makes_check_appropriate_inconclusive(monkeypatch, tmp_path):
    # a stand-in cylinder over the empty map into the point runs out of
    # fuel, so the first object lift against the point stops the check
    real = HomotopyContext.cylinder

    def cylinder(ctx, rel):
        if not rel.source.total_size() and rel.target.total_size() == 1:
            raise FuelExhausted("stand-in cylinder")
        return real(ctx, rel)

    monkeypatch.setattr(HomotopyContext, "cylinder", cylinder)
    report = check_appropriate(finset_universe(I1))
    assert report.verdict is Verdict.INCONCLUSIVE
    assert report.diagnostics == {"fuel": "stand-in cylinder"}
    out = tmp_path / "report.json"
    argv = ["check-appropriate", fixture("finset_i1.ws"), "I1", "--out", str(out)]
    assert cli.run(argv) == 2
    assert json.loads(out.read_text())["verdict"] == "inconclusive"


def test_weak_equivalence_and_object_squares_share_one_memo():
    U = finset_universe(I1)
    (point,) = I1.maps  # the map from the empty set to the point
    g = fsmap(2, 1, (0, 0))
    assert _object_square_failure(g, [point.target], U.ctx) is None
    assert U.ctx.cylinder.cache_info().misses == 1
    assert is_weak_equivalence(g, U.ctx).verdict is Verdict.YES
    # the second sweep asks the same relation and builds no second cylinder
    info = U.ctx.cylinder.cache_info()
    assert info.misses == 1 and info.hits > 0


def test_universe_caches_fibration_verdicts_and_lifting_keeps_none():
    U = finset_universe(I1)
    f = fsmap(2, 1, (0, 0))
    assert U.is_triv_fib(f)
    before = lifting.STATS["solver_calls"]
    assert U.is_triv_fib(f)
    assert lifting.STATS["solver_calls"] == before
    assert len(U._triv_fib_by_class) == 1
    # the universe keeps its J; a rebuilt one is equal and reuses the
    # context's cylinder
    assert U.J is U.J == build_jset(U.ctx)
    info = U.ctx.cylinder.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # the lifting layer itself remembers nothing: each query solves again
    before = lifting.STATS["solver_calls"]
    assert lifting.has_rlp(f, I1.maps)
    once = lifting.STATS["solver_calls"] - before
    assert lifting.has_rlp(f, I1.maps)
    assert once > 0
    assert lifting.STATS["solver_calls"] - before == 2 * once


def test_universe_bound_above_the_carrier_limit_is_refused():
    # a carrier of 65 elements is refused, not silently left out
    with pytest.raises(SizeLimitExceeded):
        finset_universe(I1, bound=65)


def _reference_universe(base, bound):
    """Every presheaf within `bound`, from the definition: size vectors in
    lexicographic base-object order, per vector every action table in
    lexicographic order through the validating constructor, keeping the
    functorial ones.  Also returns how many tables were tried."""
    identities = set(base.identities.values())
    nonid = [m for m, _, _ in base.morphisms if m not in identities]
    found, tried = [], 0
    for sizes in itertools.product(*(range(bound[o] + 1) for o in base.objects)):
        carriers = {o: [str(k) for k in range(n)] for o, n in zip(base.objects, sizes)}
        choices = [
            itertools.product(carriers[base.dom(m)], repeat=len(carriers[base.cod(m)]))
            for m in nonid
        ]
        for combo in itertools.product(*choices):
            tried += 1
            actions = {
                m: dict(zip(carriers[base.cod(m)], images))
                for m, images in zip(nonid, combo)
            }
            try:
                found.append(Presheaf(base, carriers, actions))
            except FunctorialityViolation:
                pass
    return found, tried


CHAIN = load_base(
    "objects: a b c\n"
    "morphism u: a -> b\n"
    "morphism w: b -> c\n"
    "morphism uw: a -> c\n"
    "compose u ; w = uw\n"
)

# reflexive graphs: r picks a loop at each vertex, s;r = t;r = id_v
RGPH = load_base(
    "objects: v e\n"
    "morphism s: v -> e\n"
    "morphism t: v -> e\n"
    "morphism r: e -> v\n"
    "morphism rs: e -> e\n"
    "morphism rt: e -> e\n"
    "compose s ; r = id_v\n"
    "compose t ; r = id_v\n"
    "compose r ; s = rs\n"
    "compose r ; t = rt\n"
    "compose s ; rs = s\n"
    "compose s ; rt = t\n"
    "compose t ; rs = s\n"
    "compose t ; rt = t\n"
    "compose rs ; r = r\n"
    "compose rt ; r = r\n"
    "compose rs ; rs = rs\n"
    "compose rs ; rt = rt\n"
    "compose rt ; rs = rs\n"
    "compose rt ; rt = rt\n"
)


def test_universe_enumeration_matches_the_definition():
    none = GeneratingSet("none", ())
    # (base, bound, generators, presheaves kept, tables tried); the two
    # bases with composites discard non-functorial tables
    cases = (
        (IG.base_of(), {"v": 2, "e": 2}, IG, 25, 25),
        (FS_BASE, {"x": 4}, I1, 5, 5),
        (CHAIN, {"a": 2, "b": 2, "c": 2}, none, 47, 111),
        (RGPH, {"v": 2, "e": 2}, none, 6, 1062),
    )
    for base, bound, gens, kept, tried in cases:
        expected, walked = _reference_universe(base, bound)
        assert (len(expected), walked) == (kept, tried)
        assert list(BoundedUniverse(base, bound, gens).objects) == expected
        assert analyzer.candidate_presheaves(base, bound) == tried


def _rgph_universe():
    """Reflexive graphs at v=2 e=2: 6 objects, 53 maps.  Generators: the
    point out of the empty presheaf and the point into two points."""
    U = BoundedUniverse(RGPH, {"v": 2, "e": 2}, GeneratingSet("none", ()))
    point, two = U.objects[1], U.objects[4]
    gens = GeneratingSet("RG", (initial_map(point), U.hom(point, two)[0]))
    return BoundedUniverse(RGPH, {"v": 2, "e": 2}, gens, 1024)


def test_iso_class_shares_verdicts_exactly_within_isomorphism_classes():
    # the orbit key over a base with arrows, the fibre profile over a
    # discrete one; each sharing verdict is checked against the per-map
    # procedure on every map
    cases = (
        (gph_universe(), 929, 168),
        (finset_universe(I1, bound=4), 499, 38),
        (_rgph_universe(), 53, 15),
    )
    for U, count, classes in cases:
        maps = list(U.all_maps())
        assert len(maps) == count
        keys = [map_iso_class(f) for f in maps]
        shared = [U.iso_class(f) for f in maps]
        # the keys induce the brute-force partition
        assert len(set(keys)) == len(set(zip(keys, shared))) == classes
        assert len(set(shared)) == classes
        # a universe map's key is kept under its ends' indices and table
        assert len(U._orbit_keys) == (count if U.base.nonidentity else 0)
        ctx, gens = U.ctx, U.generators
        J = build_jset(ctx)
        for f in maps:
            assert U.is_triv_fib(f) == in_inj(f, gens)
            assert U.is_we(f) is is_weak_equivalence(f, ctx).verdict
            assert U.is_fib(f) == has_rlp(f, J.maps)
    # a map whose ends are not universe objects is keyed like a relabelled
    # copy of it, and shares its decided verdict
    U = gph_universe()
    A = U.objects[3]
    both = _coproduct_map(U.hom(A, A)[0], U.hom(A, A)[0])
    copy = _renamed(both, random.Random(3))
    assert U.index(both.target) is None and U.index(copy.target) is None
    assert U.iso_class(both) == U.iso_class(copy)
    assert U.is_triv_fib(both) == in_inj(both, U.generators)
    assert U.is_triv_fib(copy) == in_inj(copy, U.generators)
    assert len(U._triv_fib_by_class) == 1


def test_oversized_universes_are_refused_before_enumeration(monkeypatch):
    gph = IG.base_of()
    assert analyzer.candidate_presheaves(gph, {"v": 4, "e": 4}) == 77_633
    assert analyzer.MAX_UNIVERSE_CANDIDATES >= 77_633
    monkeypatch.setattr(
        BoundedUniverse, "_enumerate", lambda self: pytest.fail("enumerated")
    )
    with pytest.raises(SizeLimitExceeded) as err:
        BoundedUniverse(gph, {"v": 5, "e": 5}, IG, 1024)
    assert str(err.value) == (
        "bound v=5 e=5 gives 11,358,809 candidate presheaves, limit is 100,000"
    )
    # six unrelated objects: 65^6 size vectors, refused after the first
    # MAX_UNIVERSE_CANDIDATES of them
    discrete = load_base("objects: a b c d e f")
    with pytest.raises(SizeLimitExceeded, match="gives more candidate presheaves"):
        BoundedUniverse(discrete, 64, GeneratingSet("none", ()), 1024)


def test_fixtures_and_finset_universes_are_admitted():
    for name in ("finset_i1.ws", "finset_i2.ws", "gph_ig.ws"):
        ws = parse_workspace(fixture(name))
        for gens in ws.gensets.values():
            U = BoundedUniverse(ws.base, ws.config.bound, gens, ws.config.fuel)
            assert U.objects, name
    for bound in range(65):
        assert len(finset_universe(I1, bound).objects) == bound + 1


def test_weak_equivalence_enumeration_counts():
    report = enumerate_weak_equivalences(finset_universe(I1, bound=2))
    assert report.verdict is Verdict.YES
    assert len(report.witnesses) == 9
    assert report.diagnostics == {"maps_considered": 11, "undecided": 0}
    full = enumerate_weak_equivalences(finset_universe(I1))
    got = {fs_to_oracle(f) for f in full.witnesses}
    assert got == set(of.weak_equivalences(of.I1, 3))
    bij = enumerate_weak_equivalences(finset_universe(I2))
    assert {fs_to_oracle(f) for f in bij.witnesses} == set(
        of.weak_equivalences(of.I2, 3)
    )


def test_gph_weak_equivalence_enumeration_matches_the_oracle():
    report = enumerate_weak_equivalences(gph_universe())
    assert len(report.witnesses) == 217
    got = {gph_to_oracle(f) for f in report.witnesses}
    assert got == set(og.weak_equivalences(2, 2))


def test_empty_generating_set_is_vacuously_fine():
    empty = GeneratingSet("empty", ())
    U = BoundedUniverse(FS_BASE, 2, empty, 1024)
    # with nothing to lift against, the only cofibrations are the isos,
    # so the only cofibrant object is the empty one
    assert [X.total_size() for X in U.cofibrant] == [0]
    report = check_main_condition(U)
    assert report.verdict is Verdict.YES
    everything = enumerate_weak_equivalences(U)
    assert len(everything.witnesses) == 11
