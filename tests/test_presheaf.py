"""Presheaves, natural transformations, and their validators."""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from minmodel import presheaf
from minmodel.analyzer import BoundedUniverse
from minmodel.errors import (
    DuplicateName,
    FunctorialityViolation,
    MissingAction,
    NaturalityViolation,
    SizeLimitExceeded,
    ValidationError,
)
from minmodel.factorization import GeneratingSet
from minmodel.presheaf import (
    Presheaf,
    PresheafMap,
    _enumerate_components,
    compose,
    find_retraction,
    hom_enumerate,
    identity_map,
    is_mono,
    is_retract_of,
    load_base,
)

import oracle_finset as of
import oracle_gph as og
from helpers import (
    FS_BASE,
    GPH_BASE,
    brute_iso_class,
    fs,
    fs_to_oracle,
    fsmap,
    gph,
    gph_to_oracle,
    graph_iso_class,
)

P = gph(1, [])
DA = gph(2, [])
A = gph(2, [(0, 1)])
LOOP = gph(1, [(0, 0)])

CA = PresheafMap(DA, A, {"v": {"v0": "v0", "v1": "v1"}})


def test_carrier_and_action_views():
    assert A.carrier("v") == ("v0", "v1")
    assert A.carrier("e") == ("e0",)
    assert A.action("s") == {"e0": "v0"}
    assert A.action("t") == {"e0": "v1"}
    assert A.total_size() == 3
    assert not A.is_empty()
    assert gph(0, []).is_empty()


def test_every_base_object_needs_a_carrier():
    with pytest.raises(ValidationError):
        Presheaf(GPH_BASE, {"v": ["p"]}, {})


def test_missing_action_is_rejected():
    with pytest.raises(MissingAction):
        Presheaf(GPH_BASE, {"v": ["p"], "e": ["a"]}, {"t": {"a": "p"}})
    with pytest.raises(MissingAction):
        Presheaf(
            GPH_BASE,
            {"v": ["p"], "e": ["a", "b"]},
            {"s": {"a": "p"}, "t": {"a": "p", "b": "p"}},
        )


def test_action_values_must_land_in_the_carrier():
    with pytest.raises(ValidationError):
        Presheaf(
            GPH_BASE,
            {"v": ["p"], "e": ["a"]},
            {"s": {"a": "p"}, "t": {"a": "nowhere"}},
        )


def test_duplicate_carrier_names_are_rejected():
    with pytest.raises(DuplicateName):
        Presheaf(FS_BASE, {"x": ["a", "a"]}, {})


def test_carrier_size_limit():
    with pytest.raises(SizeLimitExceeded):
        Presheaf(FS_BASE, {"x": [f"p{k}" for k in range(65)]}, {})


def test_explicit_identity_action_must_be_identity():
    with pytest.raises(FunctorialityViolation):
        Presheaf(FS_BASE, {"x": ["a", "b"]}, {"id_x": {"a": "b", "b": "a"}})


def test_functoriality_of_composites_is_checked():
    base = load_base(
        "objects: a b c\n"
        "morphism u: a -> b\n"
        "morphism w: b -> c\n"
        "morphism uw: a -> c\n"
        "compose u ; w = uw\n"
    )
    good = Presheaf(
        base,
        {"a": ["p", "q"], "b": ["m"], "c": ["z"]},
        {"u": {"m": "p"}, "w": {"z": "m"}, "uw": {"z": "p"}},
    )
    assert good.action("uw") == {"z": "p"}
    with pytest.raises(FunctorialityViolation):
        Presheaf(
            base,
            {"a": ["p", "q"], "b": ["m"], "c": ["z"]},
            {"u": {"m": "p"}, "w": {"z": "m"}, "uw": {"z": "q"}},
        )


def test_map_validation():
    with pytest.raises(ValidationError):
        PresheafMap(fs(1), fs(2), {})  # missing component
    with pytest.raises(ValidationError):
        PresheafMap(fs(1), fs(2), {"x": {"a": "zz"}})
    with pytest.raises(ValidationError):
        PresheafMap(fs(1), fs(2), {"x": {"a": "a", "zz": "b"}})


def test_map_component_at_an_unknown_base_object_is_refused():
    # refused like a carrier at an unknown object, not silently dropped
    with pytest.raises(ValidationError, match="unknown base object 'bogus'"):
        PresheafMap(P, P, {"v": {"v0": "v0"}, "bogus": {"q": "r"}})


def test_naturality_is_checked():
    swap = {"v": {"v0": "v1", "v1": "v0"}, "e": {"e0": "e0"}}
    with pytest.raises(NaturalityViolation) as err:
        PresheafMap(A, A, swap)
    assert "s" in str(err.value) or "t" in str(err.value)


def test_hom_counts_over_the_point_base():
    for m in range(4):
        for n in range(4):
            count = sum(1 for _ in hom_enumerate(fs(m), fs(n)))
            assert count == n ** m


def test_hom_counts_over_the_graph_base():
    assert sum(1 for _ in hom_enumerate(A, A)) == 1
    assert sum(1 for _ in hom_enumerate(P, A)) == 2
    assert sum(1 for _ in hom_enumerate(A, P)) == 0
    assert sum(1 for _ in hom_enumerate(A, LOOP)) == 1
    assert sum(1 for _ in hom_enumerate(LOOP, A)) == 0
    assert next(iter(hom_enumerate(A, A))).is_identity()


def test_spine_inclusion_is_mono_but_not_split():
    assert is_mono(CA)
    assert find_retraction(CA) is None


def test_split_mono_implies_mono_on_the_small_universe():
    maps = [
        fsmap(m, n, imgs)
        for m in range(3)
        for n in range(3)
        for imgs in itertools.product(range(n), repeat=m)
    ]
    for f in maps:
        if find_retraction(f) is not None:
            assert is_mono(f)
    iota0 = fsmap(1, 2, (0,))
    r = find_retraction(iota0)
    assert r is not None
    assert compose(iota0, r).is_identity()


def _lexicographic_components(X, Y, seeds=None, allowed=None):
    """Every component table X -> Y in lexicographic slot order, kept when
    it is natural, agrees with `seeds` and stays within `allowed`."""
    slots = [(o, x) for o, col in enumerate(X.carriers) for x in range(len(col))]
    names = X.base.objects
    kept = []
    for values in itertools.product(*(range(len(Y.carriers[o])) for o, _ in slots)):
        table = [[None] * len(col) for col in X.carriers]
        for (o, x), v in zip(slots, values):
            table[o][x] = v
        if seeds and any(table[o][x] != v for (o, x), v in seeds.items()):
            continue
        if allowed and any(
            allowed[o][x] is not None and table[o][x] not in allowed[o][x]
            for o, x in slots
        ):
            continue
        components = {
            names[o]: {X.carriers[o][x]: Y.carriers[o][v] for x, v in enumerate(col)}
            for o, col in enumerate(table)
        }
        try:
            PresheafMap(X, Y, components)
        except NaturalityViolation:
            continue
        kept.append(tuple(tuple(col) for col in table))
    return kept


def test_enumeration_order_is_the_lexicographic_filter():
    none = GeneratingSet("none", ())
    sets = BoundedUniverse(FS_BASE, 3, none).objects
    graphs = BoundedUniverse(GPH_BASE, {"v": 2, "e": 1}, none).objects
    rng = random.Random(7)
    emptied = conflicts = 0
    for X, Y in itertools.chain(
        itertools.product(sets, repeat=2), itertools.product(graphs, repeat=2)
    ):
        slots = [(o, x) for o, col in enumerate(X.carriers) for x in range(len(col))]
        sizes = [len(col) for col in Y.carriers]
        cases = [(None, None)]
        for _ in range(6):
            pinned = rng.sample(slots, min(len(slots), rng.randint(1, 2)))
            # values run one past each end of the target carrier
            seeds = {(o, x): rng.randint(-1, sizes[o]) for o, x in pinned}
            allowed = [
                [rng.choice([None, frozenset(rng.sample(range(n), rng.randint(0, n)))])
                 for _ in col]
                for col, n in zip(X.carriers, sizes)
            ]
            cases += [(seeds, None), (None, allowed), (seeds, allowed)]
        cases.append(({slots[0]: sizes[slots[0][0]]}, None) if slots else (None, None))
        cases.append((None, [[frozenset()] * len(col) for col in X.carriers]))
        free = _lexicographic_components(X, Y)
        for seeds, allowed in cases:
            want = _lexicographic_components(X, Y, seeds, allowed)
            got = list(_enumerate_components(X, Y, seeds, allowed))
            assert got == want, (X, Y, seeds, allowed)
            in_range = seeds and all(0 <= v < sizes[o] for (o, _), v in seeds.items())
            if in_range and allowed is None and free and not want:
                # every seed names a value, yet no map extends the seeds
                conflicts += 1
            emptied += bool(free) and not want
    assert conflicts and emptied


def test_identity_and_composition_laws():
    f = fsmap(2, 3, (0, 2))
    assert compose(identity_map(f.source), f) == f
    assert compose(f, identity_map(f.target)) == f
    g = fsmap(3, 1, (0, 0, 0))
    h = fsmap(1, 2, (1,))
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_retract_diagrams():
    iota = fsmap(1, 2, (0,))
    wider = fsmap(1, 3, (0,))
    assert is_retract_of(iota, wider) is not None
    got = is_retract_of(iota, iota)
    assert got is not None
    # monos are closed under retracts, so a mono is never a retract of a
    # non-mono
    assert is_retract_of(iota, fsmap(2, 1, (0, 0))) is None


def _brute_retraction(f):
    """First g with g after f = identity, straight from the definition."""
    for g in hom_enumerate(f.target, f.source):
        if compose(f, g).is_identity():
            return g
    return None


def _brute_retract(f, g):
    """First (section top, section bottom, retraction top, retraction
    bottom) exhibiting f as a retract of g, in enumeration order."""
    A, B, C, D = f.source, f.target, g.source, g.target
    for st in hom_enumerate(A, C):
        for sb in hom_enumerate(B, D):
            if compose(f, sb) != compose(st, g):
                continue
            for rt in hom_enumerate(C, A):
                if not compose(st, rt).is_identity():
                    continue
                for rb in hom_enumerate(D, B):
                    if not compose(sb, rb).is_identity():
                        continue
                    if compose(g, rb) == compose(rt, f):
                        return st, sb, rt, rb
    return None


def _small_maps():
    finset = [
        fsmap(m, n, imgs)
        for m in range(3)
        for n in range(3)
        for imgs in itertools.product(range(n), repeat=m)
    ]
    graphs = BoundedUniverse(GPH_BASE, {"v": 1, "e": 1}, GeneratingSet("none", ()))
    return finset, list(graphs.all_maps())


def test_retract_searches_match_the_definition(monkeypatch):
    searches = []
    enumerate_components = presheaf._enumerate_components

    def spy(*args, **kwargs):
        searches.append(args)
        return enumerate_components(*args, **kwargs)

    monkeypatch.setattr(presheaf, "_enumerate_components", spy)
    # per universe: pairs whose carriers fit yet no search starts, because
    # g is mono and f is not, or g is surjective and f is not
    refused = []
    for maps in _small_maps():
        refused.append(0)
        for f in maps:
            assert find_retraction(f) == _brute_retraction(f)
            for g in maps:
                searches.clear()
                got = is_retract_of(f, g)
                fits = all(
                    len(x) <= len(y)
                    for X, Y in ((f.source, g.source), (f.target, g.target))
                    for x, y in zip(X.carriers, Y.carriers)
                )
                if fits and not searches:
                    refused[-1] += 1
                want = _brute_retract(f, g)
                if want is None:
                    assert got is None
                else:
                    assert got is not None
                    assert (got.inner, got.outer) == (f, g)
                    assert (
                        got.section_top,
                        got.section_bottom,
                        got.retraction_top,
                        got.retraction_bottom,
                    ) == want
    assert refused == [16, 4]


_SMALL = [
    fsmap(m, n, imgs)
    for m in range(3)
    for n in range(1, 3)
    for imgs in itertools.product(range(n), repeat=m)
]


@given(st.sampled_from(_SMALL), st.sampled_from(_SMALL), st.sampled_from(_SMALL))
def test_composition_is_associative(f, g, h):
    if f.target != g.source or g.target != h.source:
        return
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(st.permutations(["a", "b", "c"]))
def test_renaming_preserves_hom_counts_and_mono(names):
    X = Presheaf(FS_BASE, {"x": names[:2]}, {})
    Y = Presheaf(FS_BASE, {"x": names}, {})
    assert sum(1 for _ in hom_enumerate(X, Y)) == 9
    f = PresheafMap(X, Y, {"x": {names[0]: names[1], names[1]: names[2]}})
    assert is_mono(f)
    assert find_retraction(f) is not None


def _keyed(base, bound):
    """A universe with no generators over `base`, whose `iso_class` keys
    maps inside and outside it, and its maps."""
    U = BoundedUniverse(base, bound, GeneratingSet("none", ()))
    return U, list(U.all_maps())


def _relabelled(f: PresheafMap, rng: random.Random) -> PresheafMap:
    """f with every carrier of its source and target in a random order."""

    def shuffled(X):
        carriers = {
            o: rng.sample(X.carrier(o), len(X.carrier(o))) for o in X.base.objects
        }
        actions = {m: X.action(m) for m in X.base.nonidentity}
        return Presheaf(X.base, carriers, actions)

    components = {o: f.component(o) for o in f.source.base.objects}
    return PresheafMap(shuffled(f.source), shuffled(f.target), components)


def _discrete_iso_class(f):
    """Brute-force class of a map over a discrete base, given per object as
    (source size, target size, image of each source element)."""
    sizes = tuple(n for m, k, _ in f for n in (m, k))

    def relabel(*perms):
        out = []
        for (m, _, imgs), p, q in zip(f, perms[::2], perms[1::2]):
            row = [0] * m
            for x, y in enumerate(imgs):
                row[p[x]] = q[y]
            out.append(tuple(row))
        return tuple(out)

    return (sizes, brute_iso_class(sizes, relabel))


def _discrete_to_tuples(f: PresheafMap):
    """Engine map over a discrete base -> one (m, n, imgs) per object."""
    out = []
    for o in f.source.base.objects:
        src, dst = f.source.carrier(o), f.target.carrier(o)
        index = {e: k for k, e in enumerate(dst)}
        out.append((len(src), len(dst), tuple(index[f.apply(o, e)] for e in src)))
    return tuple(out)


AB_BASE = load_base("objects: a b")


def test_iso_class_is_invariant_under_relabelling():
    rng = random.Random(3)
    for base, bound in (
        (GPH_BASE, {"v": 2, "e": 2}),
        (FS_BASE, 4),
        (AB_BASE, {"a": 2, "b": 2}),
    ):
        U, maps = _keyed(base, bound)
        for f in maps:
            key = U.iso_class(f)
            for _ in range(3):
                g = _relabelled(f, rng)
                assert U.iso_class(g) == key, f


def test_iso_classes_are_the_isomorphism_classes():
    # equal keys exactly when a brute-force search over every carrier
    # permutation finds the tuple encodings isomorphic
    U, graph_maps = _keyed(GPH_BASE, {"v": 2, "e": 2})
    encoded = [gph_to_oracle(f) for f in graph_maps]
    assert sorted(encoded) == sorted(og.universe_maps(2, 2))
    assert len({graph_iso_class(f) for f in og.universe_maps(2, 2)}) == 168
    # FinSet at bound 4: the classes of m -> n are the partitions of m
    # into at most n parts; two discrete objects multiply their classes
    V, set_maps = _keyed(FS_BASE, 4)
    assert sorted(map(fs_to_oracle, set_maps)) == sorted(of.all_maps(4))
    W, two_maps = _keyed(AB_BASE, {"a": 2, "b": 2})
    assert (len(set_maps), len(two_maps)) == (499, 121)
    for universe, maps, classes, count in (
        (U, graph_maps, [graph_iso_class(f) for f in encoded], 168),
        (V, set_maps, [_discrete_iso_class(_discrete_to_tuples(f)) for f in set_maps], 38),
        (W, two_maps, [_discrete_iso_class(_discrete_to_tuples(f)) for f in two_maps], 64),
    ):
        keys = [universe.iso_class(f) for f in maps]
        assert len(set(keys)) == len(set(classes)) == len(set(zip(keys, classes)))
        assert len(set(keys)) == count


def _cycles(*lengths):
    """Disjoint directed cycles of the given lengths."""
    edges, start = [], 0
    for n in lengths:
        edges += [(start + k, start + (k + 1) % n) for k in range(n)]
        start += n
    return gph(start, edges)


def test_iso_class_beyond_colour_refinement():
    # every vertex of a union of directed cycles has one edge in and one
    # out, so the element signatures of `_invariant` cannot tell 6 from
    # 3 + 3, nor order the vertices; the isomorphism search has to.  No
    # cycle is a universe object, so each shape registers on first sight.
    U, _ = _keyed(GPH_BASE, {"v": 1, "e": 1})
    shapes = [(6,), (3, 3), (2, 4), (2, 2, 2), (4, 2)]
    maps = [identity_map(_cycles(*shape)) for shape in shapes]
    maps += [next(hom_enumerate(_cycles(*shape), _cycles(1))) for shape in shapes]
    maps += list(hom_enumerate(_cycles(2, 4), _cycles(2, 2)))
    rng = random.Random(5)
    keys = [U.iso_class(f) for f in maps]
    for f, key in zip(maps, keys):
        for _ in range(10):
            assert U.iso_class(_relabelled(f, rng)) == key
    # 2 + 4 and 4 + 2 are one shape; the others are told apart
    assert keys[2] == keys[4] and keys[7] == keys[9]
    assert len(set(keys[:10])) == 8
    # a map from 2 + 4 onto 2 + 2 sends both cycles to one target cycle
    # or to different ones, whatever the rotations
    assert len(keys[10:]) == 16 and len(set(keys[10:])) == 2
