"""Guarded cell attachment: factorizations, class membership, replay."""

import itertools
import json

import pytest
from hypothesis import given, strategies as st

from minmodel import cli, factorization
from minmodel.colimits import coproduct, pushout
from minmodel.errors import BaseMismatch, FuelExhausted, ReplayMismatch
from minmodel.factorization import (
    Attachment,
    GeneratingSet,
    Status,
    Verdict,
    default_fuel,
    in_cof,
    in_inj,
    replay,
    soa_factorize,
)
from minmodel.lifting import has_llp
from minmodel.presheaf import PresheafMap, compose, identity_map, is_mono
from minmodel.workspace import parse_workspace

import oracle_finset as of
from helpers import fs, fs_to_oracle, fsmap, gph, i1_set, i2_set, ig_set

I1 = i1_set()
I2 = i2_set()
IG = ig_set()

POOL3 = [
    fsmap(m, n, imgs)
    for m in range(4)
    for n in range(4)
    for imgs in itertools.product(range(n), repeat=m)
]


def fold_over(X):
    co = coproduct(X, X)
    return co.mediator(identity_map(X), identity_map(X))


def test_collapse_needs_one_attachment_over_the_larger_set():
    collapse = fsmap(2, 1, (0, 0))
    fact = soa_factorize(collapse, I2)
    assert fact.status is Status.COMPLETE
    assert len(fact.log) == 1
    assert fact.fuel_used == 1
    assert fact.log[0].generator == 1
    assert fact.left.target.total_size() == 1
    assert compose(fact.left, fact.right) == collapse
    # the right leg is a bijection onto the singleton
    assert is_mono(fact.right)
    assert in_inj(fact.right, I2)


def test_surjective_folds_need_no_attachments():
    for n in (1, 2, 3):
        fold = fold_over(fs(n))
        fact = soa_factorize(fold, I1)
        assert fact.status is Status.COMPLETE
        assert fact.log == ()
        assert fact.left == identity_map(fold.source)
        assert fact.right == fold


def test_injective_class_membership():
    assert not in_inj(fsmap(2, 1, (0, 0)), I2)
    assert in_inj(fsmap(2, 1, (0, 0)), I1)
    assert not in_inj(fsmap(0, 1, ()), I1)
    # the collapse of the glued edge pair onto the edge graph
    DA = gph(2, [])
    A = gph(2, [(0, 1)])
    cA = IG.maps[1]
    po = pushout(cA, cA)
    fold = po.mediator(identity_map(A), identity_map(A))
    assert in_inj(fold, IG)


def test_cofibration_class_membership():
    assert in_cof(fsmap(2, 1, (0, 0)), I1) is Verdict.NO
    assert in_cof(fsmap(1, 2, (0,)), I1) is Verdict.YES
    for f in POOL3:
        assert in_cof(f, I2) is Verdict.YES
        assert (in_cof(f, I1) is Verdict.YES) == is_mono(f)


def test_cof_verdicts_match_direct_bounded_llp():
    injectives = [f for f in POOL3 if in_inj(f, I1)]
    for f in POOL3:
        direct = has_llp(f, injectives)
        assert (in_cof(f, I1) is Verdict.YES) == direct
        assert direct == of.in_cof(fs_to_oracle(f), of.I1, 3)


def test_factorization_squares_every_map_at_small_size():
    for gens in (I1, I2):
        for f in POOL3:
            fact = soa_factorize(f, gens)
            assert fact.status is Status.COMPLETE
            assert compose(fact.left, fact.right) == f
            assert in_inj(fact.right, gens)
            assert fact.original == f


def test_replay_reproduces_the_cell_map():
    collapse = fsmap(2, 1, (0, 0))
    fact = soa_factorize(collapse, I2)
    M, j = replay(fact.log, collapse.source, I2)
    assert M == fact.left.target
    assert j == fact.left


def test_replay_rejects_corrupt_logs():
    collapse = fsmap(2, 1, (0, 0))
    fact = soa_factorize(collapse, I2)
    bad_gen = Attachment(7, fact.log[0].attach, fact.log[0].result)
    with pytest.raises(ReplayMismatch):
        replay([bad_gen], collapse.source, I2)
    with pytest.raises(ReplayMismatch):
        replay(fact.log, fs(3), I2)
    wrong_apex = Attachment(
        fact.log[0].generator, fact.log[0].attach, fs(3)
    )
    with pytest.raises(ReplayMismatch):
        replay([wrong_apex], collapse.source, I2)


def test_fuel_exhaustion_is_reported_not_raised():
    point = fsmap(0, 1, ())
    fact = soa_factorize(point, I1, fuel=0)
    assert fact.status is Status.FUEL_EXHAUSTED
    assert fact.fuel_used == 0
    assert in_cof(point, I1, fuel=0) is Verdict.INCONCLUSIVE


# Graph generators whose cell complexes never end: a vertex, and a loop at
# a vertex together with a new loopless vertex.  Factoring the map from the
# empty graph into one loop attaches one vertex and one edge per cell.
LOOPS_WS = """
[base]
objects: v e
morphism s: v -> e
morphism t: v -> e

[presheaf 0]

[presheaf P]
v: p

[presheaf LP]
v: a b
e: l
action s: l->a
action t: l->a

[presheaf L]
v: a
e: l
action s: l->a
action t: l->a

[map cP : 0 -> P]

[map g : P -> LP]
component v: p->a

[map cL : 0 -> L]

[genset G]
maps: cP g
"""


def test_an_apex_past_the_carrier_limit_stops_the_construction(
    monkeypatch, tmp_path
):
    monkeypatch.setattr(factorization, "MAX_CARRIER_SIZE", 6)
    path = tmp_path / "loops.ws"
    path.write_text(LOOPS_WS)
    ws = parse_workspace(str(path))
    loop, gens = ws.map("cL"), ws.genset("G")
    # fuel for 20 attachments; the carrier limit stops the cells at 6
    fact = soa_factorize(loop, gens, fuel=20)
    assert fact.status is Status.CARRIER_LIMIT
    assert fact.fuel_used == len(fact.log) == 6
    # the last apex built fills the vertex carrier; the next would pass it
    assert [len(c) for c in fact.left.target.carriers] == [6, 5]
    assert fact.shortfall() == (
        "stopped after 6 attachments: the next apex would pass the carrier "
        "limit of 6"
    )
    assert in_cof(loop, gens, fuel=20) is Verdict.INCONCLUSIVE
    # the CLI reports it the way it reports fuel running out
    out = tmp_path / "report.json"
    argv = ["factor", str(path), "cL", "G", "--fuel", "20", "--out", str(out)]
    assert cli.run(argv) == 2
    report = json.loads(out.read_text())
    assert report["verdict"] == "inconclusive"
    assert report["details"]["status"] == "carrier-limit"
    assert report["fuel_used"] == 6


def test_default_fuel_scales_with_the_target():
    assert default_fuel(fsmap(0, 0, ())) == 1
    assert default_fuel(fsmap(1, 3, (0,))) == 30


def test_reversed_order_also_factors():
    collapse = fsmap(2, 1, (0, 0))
    fact = soa_factorize(collapse, I2, order="reversed")
    assert fact.status is Status.COMPLETE
    assert compose(fact.left, fact.right) == collapse
    assert in_inj(fact.right, I2)
    with pytest.raises(ValueError):
        soa_factorize(collapse, I2, order="shuffled")


def test_empty_generating_set_degenerates():
    empty = GeneratingSet("empty", ())
    f = fsmap(2, 1, (0, 0))
    fact = soa_factorize(f, empty)
    assert fact.log == ()
    assert fact.right == f
    assert in_inj(f, empty)
    with pytest.raises(BaseMismatch):
        empty.base_of()


def test_generating_sets_must_share_a_base():
    with pytest.raises(BaseMismatch):
        GeneratingSet("mixed", (I1.maps[0], IG.maps[0]))


@given(st.sampled_from(POOL3), st.sampled_from([I1, I2]))
def test_factorization_invariants_hold_on_sampled_maps(f, gens):
    fact = soa_factorize(f, gens)
    assert fact.status is Status.COMPLETE
    assert compose(fact.left, fact.right) == f
    assert in_inj(fact.right, gens)
    M, j = replay(fact.log, f.source, gens)
    assert (M, j) == (fact.left.target, fact.left)
