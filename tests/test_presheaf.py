"""Presheaves, natural transformations, and their validators."""

import itertools

import pytest
from hypothesis import given, strategies as st

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
    compose,
    find_retraction,
    hom_enumerate,
    identity_map,
    is_mono,
    is_retract_of,
    is_split_mono,
    load_base,
)

from helpers import FS_BASE, GPH_BASE, fs, fsmap, gph

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
    assert not is_split_mono(CA)
    assert find_retraction(CA) is None


def test_split_mono_implies_mono_on_the_small_universe():
    maps = [
        fsmap(m, n, imgs)
        for m in range(3)
        for n in range(3)
        for imgs in itertools.product(range(n), repeat=m)
    ]
    for f in maps:
        if is_split_mono(f):
            assert is_mono(f)
    iota0 = fsmap(1, 2, (0,))
    r = find_retraction(iota0)
    assert r is not None
    assert compose(iota0, r).is_identity()


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


def test_retract_searches_match_the_definition():
    for maps in _small_maps():
        for f in maps:
            assert find_retraction(f) == _brute_retraction(f)
            for g in maps:
                got = is_retract_of(f, g)
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
    assert is_split_mono(f)
