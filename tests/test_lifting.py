"""The backtracking lifting solver and the up-to-relation variants."""

import itertools

import pytest
from hypothesis import given, strategies as st

from minmodel import homotopy, presheaf
from minmodel.analyzer import BoundedUniverse, build_jset, is_weak_equivalence
from minmodel.colimits import coproduct, initial_map
from minmodel.errors import NonCommutingSquare, NonComposable
from minmodel.factorization import Verdict
from minmodel.homotopy import HomotopyContext, cylinder, homotopic
from minmodel.lifting import (
    STATS,
    LiftingProblem,
    find_unliftable_square_up_to,
    has_llp,
    has_rlp,
    has_rlp_up_to,
    has_rlp_up_to_object,
    reset_stats,
    solve_lifting,
    solve_lifting_up_to,
    square_enumerate,
    unsolvable_squares,
)
from minmodel.presheaf import PresheafMap, compose, identity_map

import oracle_finset as of
import oracle_gph as og
from helpers import (
    FS_BASE,
    fs,
    fs_to_oracle,
    fsmap,
    gph_to_oracle,
    i1_set,
    i2_set,
    ig_set,
    is_bijective,
    is_surjective,
)

POOL2 = [
    fsmap(m, n, imgs)
    for m in range(3)
    for n in range(3)
    for imgs in itertools.product(range(n), repeat=m)
]
POOL3 = [
    fsmap(m, n, imgs)
    for m in range(4)
    for n in range(4)
    for imgs in itertools.product(range(n), repeat=m)
]


def test_square_validation():
    left = fsmap(1, 2, (0,))
    right = fsmap(1, 1, (0,))
    with pytest.raises(NonComposable):
        LiftingProblem(left, right, fsmap(1, 1, (0,)), fsmap(1, 1, (0,)))
    top = fsmap(1, 1, (0,))
    bad_bottom = fsmap(2, 1, (0, 0))
    # corners line up but the square below does not commute
    with pytest.raises(NonCommutingSquare):
        LiftingProblem(
            fsmap(1, 2, (0,)),
            fsmap(2, 2, (1, 0)),
            fsmap(1, 2, (0,)),
            fsmap(2, 2, (0, 1)),
        )


def test_collapse_against_fold_has_no_lift():
    co = coproduct(fs(1), fs(1))
    fold = co.mediator(fsmap(1, 1, (0,)), fsmap(1, 1, (0,)))
    collapse = fsmap(2, 1, (0, 0))
    # iso top picking out the two tags, identity bottom: a diagonal would
    # have to be constant yet hit both points of the coproduct
    top = PresheafMap(fs(2), co.apex, {"x": {"a": "l.a", "b": "r.a"}})
    bottom = identity_map(fs(1))
    problem = LiftingProblem(collapse, fold, top, bottom)
    assert solve_lifting(problem) is None


def test_solver_agrees_with_naive_enumeration_at_size_two():
    for left in POOL2:
        for right in POOL2:
            lo, ro = fs_to_oracle(left), fs_to_oracle(right)
            seen = 0
            for top, bottom in square_enumerate(left, right):
                got = solve_lifting(LiftingProblem(left, right, top, bottom))
                expect = of.has_lift(
                    lo, ro, fs_to_oracle(top), fs_to_oracle(bottom)
                )
                assert (got is not None) == expect
                if got is not None:
                    assert compose(left, got) == top
                    assert compose(got, right) == bottom
                seen += 1
            assert seen == len(list(of.squares(lo, ro)))


def _equality(D, a, b):
    return "equal" if a == b else None


def test_equality_relation_degenerates_to_strict_lifting():
    eq = _equality
    for left in POOL2[:18]:
        for right in POOL2[:18]:
            for top, bottom in square_enumerate(left, right):
                problem = LiftingProblem(left, right, top, bottom)
                strict = solve_lifting(problem)
                upto = solve_lifting_up_to(problem, eq)
                assert (strict is None) == (upto is None)
                if upto is not None:
                    h, witness = upto
                    assert compose(left, h) == top
                    assert compose(h, right) == bottom
                    assert witness == "equal"
            assert has_rlp_up_to(right, [left], eq) == has_rlp(right, [left])


def test_rlp_against_point_inclusion_is_surjectivity():
    gens = i1_set()
    for f in POOL3:
        assert has_rlp(f, gens.maps) == is_surjective(f), f


def test_rlp_against_both_generators_is_bijectivity():
    gens = i2_set()
    for f in POOL3:
        assert has_rlp(f, gens.maps) == is_bijective(f), f


def test_llp_against_the_surjections_is_injectivity():
    gens = i1_set()
    surjections = [f for f in POOL2 if has_rlp(f, gens.maps)]
    for f in POOL2:
        expect = of.in_cof(fs_to_oracle(f), of.I1, 2)
        assert has_llp(f, surjections) == expect


def test_rlp_up_to_absolute_homotopy_against_the_point():
    gens = i1_set()
    ctx = HomotopyContext(gens, 64)
    relation = ctx.absolute_oracle(fs(1))
    for f in POOL3:
        got = has_rlp_up_to_object(f, fs(1), relation)
        m, n, _ = fs_to_oracle(f)
        assert got == (m > 0 or n == 0), f


def test_gph_rlp_up_to_spine_homotopy_is_edge_reflection():
    gens = ig_set()
    U = BoundedUniverse(gens.base_of(), {"v": 2, "e": 2}, gens, 1024)
    ctx = HomotopyContext(gens, 1024)
    spine = gens.maps[1]
    oracle = ctx.oracle(spine)
    for f in U.all_maps():
        got = find_unliftable_square_up_to(spine, f, oracle) is None
        (G, H, vmap, _) = gph_to_oracle(f)
        edges_reflect = all(
            (a, b) in G[1]
            for a in range(G[0])
            for b in range(G[0])
            if (vmap[a], vmap[b]) in H[1]
        )
        assert got == edges_reflect, gph_to_oracle(f)


def test_unsolvable_square_listing_is_deterministic():
    left = i1_set().maps[0]
    right = fsmap(2, 1, (0, 0))
    first = list(unsolvable_squares(left, right))
    second = list(unsolvable_squares(left, right))
    assert first == second


def test_solver_call_counter():
    reset_stats()
    assert STATS["solver_calls"] == 0
    f = fsmap(1, 1, (0,))
    solve_lifting(LiftingProblem(f, f, f, f))
    assert STATS["solver_calls"] == 1
    solve_lifting_up_to(LiftingProblem(f, f, f, f), _equality)
    assert STATS["solver_calls"] == 2
    reset_stats()
    assert STATS["solver_calls"] == 0


@given(
    st.sampled_from(POOL2),
    st.sampled_from(POOL2),
    st.sampled_from(POOL2),
)
def test_squares_built_around_a_diagonal_are_always_solved(left, h, right):
    if left.target != h.source or h.target != right.source:
        return
    problem = LiftingProblem(
        left, right, compose(left, h), compose(h, right)
    )
    got = solve_lifting(problem)
    assert got is not None
    assert compose(left, got) == problem.top
    assert compose(got, right) == problem.bottom


# ------------------------------------------- sweeps against the reference


def _reference_unsolvable(left, right):
    return [
        (top, bottom)
        for top, bottom in square_enumerate(left, right)
        if solve_lifting(LiftingProblem._unchecked(left, right, top, bottom)) is None
    ]


def _reference_unliftable(left, right, relation):
    for top, bottom in square_enumerate(left, right):
        problem = LiftingProblem._unchecked(left, right, top, bottom)
        h = solve_lifting(problem)
        if h is not None and relation(
            right.target, compose(h, right)._comp, bottom._comp
        ) is not None:
            continue
        if solve_lifting_up_to(problem, relation) is None:
            return top, bottom
    return None


def _counted(run):
    """run()'s result and the solver calls it made."""
    before = STATS["solver_calls"]
    got = run()
    return got, STATS["solver_calls"] - before


def _recorded(relation):
    """`relation` and the list of arguments it is called with."""
    calls = []

    def record(D, a, b):
        calls.append((D, a, b))
        return relation(D, a, b)

    return record, calls


def _sweep_universes():
    ig = ig_set()
    yield BoundedUniverse(ig.base_of(), {"v": 2, "e": 1}, ig, 1024)
    for gens in (i1_set(), i2_set()):
        yield BoundedUniverse(FS_BASE, 3, gens, 1024)


def _sweep_lefts(U):
    yield from U.generators.maps
    for V in U.objects:
        yield initial_map(V)
    # J last: its cylinders run the sweeps under test
    yield from build_jset(U.ctx).maps


def test_square_sweeps_agree_with_the_per_square_reference():
    # the sweeps read every diagonal off one extension table per (left map,
    # source object); the reference solves each square on its own
    for U in _sweep_universes():
        rights = list(U.all_maps())
        for left in _sweep_lefts(U):
            oracle = U.ctx.oracle(left)
            for right in rights:
                want, want_calls = _counted(lambda: _reference_unsolvable(left, right))
                got, got_calls = _counted(lambda: list(unsolvable_squares(left, right)))
                assert got == want and got_calls == want_calls, (left, right)
                assert has_rlp(right, [left]) == (not want), (left, right)
                squares = list(square_enumerate(left, right))
                # refuse the first square's bottom with itself, accept the rest
                refused = squares[0][1]._comp if squares else None

                def refusing(D, a, b, refused=refused):
                    return None if a == b == refused else "related"

                for relation in (_equality, oracle, refusing):
                    # a first run fills the oracle's caches, whose cylinders
                    # make solver calls of their own
                    _reference_unliftable(left, right, relation)
                    ref, ref_pairs = _recorded(relation)
                    new, new_pairs = _recorded(relation)
                    want, want_calls = _counted(
                        lambda: _reference_unliftable(left, right, ref)
                    )
                    got, got_calls = _counted(
                        lambda: find_unliftable_square_up_to(left, right, new)
                    )
                    where = (left, right, relation)
                    assert got == want, where
                    assert new_pairs == ref_pairs, where
                    assert got_calls == want_calls, where


def test_weak_equivalence_sweep_enumerates_each_extension_table_once(monkeypatch):
    # every square out of X against a generator i reads one table of
    # hom(i.target, X), enumerated in full once for the whole sweep
    gens = ig_set()
    U = BoundedUniverse(gens.base_of(), {"v": 2, "e": 1}, gens, 1024)
    X = U.objects[-1]
    full = []
    enumerate_components = presheaf._enumerate_components

    def spy(source, target, seeds=None, allowed=None):
        if seeds is None and allowed is None:
            full.append((source, target))
        return enumerate_components(source, target, seeds, allowed)

    monkeypatch.setattr(presheaf, "_enumerate_components", spy)
    maps = list(U.maps_from(X))
    assert len(maps) > 1
    for f in maps:
        is_weak_equivalence(f, U.ctx)
    for i in gens.maps:
        assert full.count((i.target, X)) == 1, i


def test_homotopy_relation_on_tables_matches_the_definition():
    # every pair of maps rel.target -> D that agrees on rel: the table
    # relation answers yes exactly when the map-level search finds a
    # homotopy, and its witness restricts to both ends
    counts = {}
    for U in _sweep_universes():
        I, fuel = U.generators, U.fuel
        asked = related = 0
        for rel in _sweep_lefts(U):
            relation = HomotopyContext(I, fuel).oracle(rel)
            cyl = cylinder(rel, I, fuel)
            B = rel.target
            for D in U.objects:
                by_restriction = {}
                for a in presheaf.hom_enumerate(B, D):
                    by_restriction.setdefault(compose(rel, a), []).append(a)
                for maps in by_restriction.values():
                    for a, b in itertools.product(maps, repeat=2):
                        got = relation(D, a._comp, b._comp)
                        want = homotopic(a, b, rel, I, fuel, cyl)
                        assert (got is None) == (want is None), (rel, a, b)
                        asked += 1
                        if got is None:
                            continue
                        related += 1
                        H = PresheafMap._make(cyl.apex, D, got)
                        H._check_naturality()
                        assert compose(cyl.incl0, H) == a
                        assert compose(cyl.incl1, H) == b
        counts[I.label] = asked, related
    # (pairs asked, pairs related): on I2 only equal maps are homotopic
    assert counts == {"IG": (217, 217), "I1": (960, 960), "I2": (942, 84)}


def test_a_square_with_no_candidate_diagonal_builds_no_cylinder(monkeypatch):
    built = []
    make_cylinder = homotopy.cylinder

    def spy(*args, **kwargs):
        built.append(args)
        return make_cylinder(*args, **kwargs)

    monkeypatch.setattr(homotopy, "cylinder", spy)
    ctx = HomotopyContext(i2_set(), 0)
    reset_stats()
    # no map {x} -> empty extends the square over the empty generator
    got = is_weak_equivalence(initial_map(fs(1)), ctx)
    assert got.verdict is Verdict.NO
    assert STATS["solver_calls"] == 2
    assert built == []
