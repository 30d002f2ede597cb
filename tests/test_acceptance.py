"""Acceptance gate: one test per release criterion.

Each test prints its own pass/fail line through the conftest hook.  These
sweeps are exhaustive over the shipped fixture universes and anchored in
the brute-force oracles, so they are the final word on whether the engine
is trustworthy at desk scale.
"""

import itertools
import json
import pathlib
import time

from minmodel import cli
from minmodel.analyzer import (
    BoundedUniverse,
    build_jset,
    check_appropriate,
    check_main_condition,
    enumerate_weak_equivalences,
    is_pure,
    is_weak_equivalence,
    verify_axioms,
)
from minmodel.colimits import initial_map, pushout
from minmodel.factorization import Verdict, in_inj, replay, soa_factorize
from minmodel.homotopy import (
    HomotopyContext,
    is_strong_deformation_retract,
    path_object,
    right_homotopic,
)
from minmodel.lifting import has_rlp, has_rlp_up_to_object
from minmodel.presheaf import compose, identity_map
from minmodel.workspace import parse_workspace

import oracle_finset as of
import oracle_gph as og
from helpers import (
    fixture,
    fs_to_oracle,
    fsmap,
    is_bijective,
    map_data_to_gph_oracle,
)

WS_I1 = parse_workspace(fixture("finset_i1.ws"))
WS_I2 = parse_workspace(fixture("finset_i2.ws"))
WS_IG = parse_workspace(fixture("gph_ig.ws"))
I1 = WS_I1.genset("I1")
I2 = WS_I2.genset("I2")
IG = WS_IG.genset("IG")

I1_GENS = ((0, 1, ()),)
I2_GENS = ((0, 1, ()), (2, 1, (0, 0)))

FIXTURES = (
    (WS_I1, I1),
    (WS_I2, I2),
    (WS_IG, IG),
)


def universe(ws, I, bound=None):
    return BoundedUniverse(ws.base, bound or ws.config.bound, I, ws.config.fuel)


def finset_maps(limit):
    for m in range(limit + 1):
        for n in range(limit + 1):
            for imgs in itertools.product(range(n), repeat=m):
                yield fsmap(m, n, imgs)


def cofibrations_by_target(U):
    out = {}
    for f in U.all_maps():
        if U.is_cof(f) is Verdict.YES:
            out.setdefault(U.index(f.target), []).append(f)
    return out


def test_criterion_01_finset_i1_weak_equivalence_oracle_agreement():
    start = time.monotonic()
    ctx = HomotopyContext(I1, WS_I1.config.fuel)
    checked = 0
    for f in finset_maps(3):
        engine = is_weak_equivalence(f, ctx).verdict
        assert engine in (Verdict.YES, Verdict.NO)
        oracle = of.weak_equivalence(fs_to_oracle(f), I1_GENS)
        assert (engine is Verdict.YES) == oracle, fs_to_oracle(f)
        checked += 1
    assert checked == 60
    assert time.monotonic() - start < 10


def test_criterion_02_finset_i2_bijections_and_axioms():
    start = time.monotonic()
    U = universe(WS_I2, I2)
    report = enumerate_weak_equivalences(U)
    assert report.passed
    got = set(report.witnesses)
    want = {f for f in U.all_maps() if is_bijective(f)}
    assert got == want
    assert len(got) == 10
    assert check_main_condition(U).passed
    outcome = verify_axioms(U)
    assert outcome.passed
    assert len(outcome.subchecks) == 6
    assert all(sub.verdict is Verdict.YES for sub in outcome.subchecks)
    assert time.monotonic() - start < 10


def test_criterion_03_main_condition_implies_axioms():
    exercised = 0
    for ws, I in FIXTURES:
        U = universe(ws, I)
        main = check_main_condition(U)
        if not main.passed:
            continue
        assert verify_axioms(U).passed, I.label
        exercised += 1
    assert exercised >= 2


def test_criterion_04_trivial_cofibration_iff_strong_deformation_retract():
    for ws, I in ((WS_I1, I1), (WS_I2, I2)):
        U = universe(ws, I)
        assert check_main_condition(U).passed
        cofs = 0
        for f in U.all_maps():
            if U.is_cof(f) is not Verdict.YES:
                continue
            tcof = U.is_we(f)
            sdr = is_strong_deformation_retract(f, U.ctx).verdict
            assert tcof in (Verdict.YES, Verdict.NO)
            assert tcof is sdr, (I.label, fs_to_oracle(f))
            cofs += 1
        assert cofs == (24 if I is I1 else 60)


def test_criterion_05_left_and_right_homotopy_agree():
    start = time.monotonic()
    for ws, I in ((WS_I1, I1), (WS_I2, I2)):
        fuel = ws.config.fuel
        U = universe(ws, I, bound=2)
        ctx = HomotopyContext(I, fuel)
        J = build_jset(ctx)
        rels = cofibrations_by_target(U)
        paths = {}
        checked = 0
        for Y in U.objects:
            for Z in U.objects:
                pool = U.hom(Y, Z)
                if not pool:
                    continue
                zk = U.index(Z)
                if zk not in paths:
                    paths[zk] = path_object(Z, J, fuel)
                for rel in rels.get(U.index(Y), ()):
                    for f0 in pool:
                        pinned = compose(rel, f0)
                        for f1 in pool:
                            if compose(rel, f1) != pinned:
                                continue
                            left = ctx.homotopic(f0, f1, rel) is not None
                            right = (
                                right_homotopic(f0, f1, rel, J, fuel, paths[zk])
                                is not None
                            )
                            assert left == right, (I.label, fs_to_oracle(f0))
                            checked += 1
        assert checked > 50
    assert time.monotonic() - start < 30


def _related_triples(U, ctx, rels):
    """All (f0, f1, rel) with f0 ~_rel f1, checking reflexivity and
    symmetry of the decision along the way."""
    related = []
    for Y in U.objects:
        for Z in U.objects:
            pool = U.hom(Y, Z)
            for rel in rels.get(U.index(Y), ()):
                for f0 in pool:
                    assert ctx.homotopic(f0, f0, rel) is not None
                    pinned = compose(rel, f0)
                    for f1 in pool:
                        if compose(rel, f1) != pinned:
                            continue
                        forward = ctx.homotopic(f0, f1, rel) is not None
                        backward = ctx.homotopic(f1, f0, rel) is not None
                        assert forward == backward
                        if forward:
                            related.append((f0, f1, rel))
    return related


def test_criterion_06_homotopy_relation_laws():
    for ws, I in FIXTURES:
        fuel = ws.config.fuel
        bound = 2 if isinstance(ws.config.bound, int) else ws.config.bound
        U = universe(ws, I, bound=bound)
        ctx = HomotopyContext(I, fuel)
        rels = cofibrations_by_target(U)
        related = _related_triples(U, ctx, rels)
        assert related

        # post-composition: g after a homotopic pair stays homotopic
        for f0, f1, rel in related:
            for W in U.objects:
                for g in U.hom(f0.target, W):
                    assert ctx.homotopic(
                        compose(f0, g), compose(f1, g), rel
                    ) is not None

        # pre-composition: v against j with rel . u = v . j transports the
        # homotopy to one rel j; j drawn from generators, identities, and
        # initial maps
        for f0, f1, rel in related:
            X, Y = rel.source, rel.target
            for j in I.maps:
                for u in U.hom(j.source, X):
                    pinned = compose(u, rel)
                    for v in U.hom(j.target, Y):
                        if compose(j, v) != pinned:
                            continue
                        assert ctx.homotopic(
                            compose(v, f0), compose(v, f1), j
                        ) is not None
            seen = set()
            for Yp in U.objects:
                for u in U.hom(Yp, X):
                    v = compose(u, rel)
                    if v in seen:
                        continue
                    seen.add(v)
                    assert ctx.homotopic(
                        compose(v, f0), compose(v, f1), identity_map(Yp)
                    ) is not None
            for Yp in U.objects:
                for v in U.hom(Yp, Y):
                    assert ctx.homotopic(
                        compose(v, f0), compose(v, f1), initial_map(Yp)
                    ) is not None

    # transitivity needs an appropriate generating set; verified at bound 3
    # on the fixtures whose appropriateness check passes
    exercised = 0
    for ws, I in FIXTURES:
        U = universe(ws, I)
        ctx = U.ctx
        if not check_appropriate(U).passed:
            continue
        exercised += 1
        rels = cofibrations_by_target(U)
        for Y in U.objects:
            for Z in U.objects:
                pool = U.hom(Y, Z)
                for rel in rels.get(U.index(Y), ()):
                    verdicts = {}
                    for f0 in pool:
                        pinned = compose(rel, f0)
                        for f1 in pool:
                            if compose(rel, f1) == pinned:
                                verdicts[(f0, f1)] = (
                                    ctx.homotopic(f0, f1, rel) is not None
                                )
                    for (a, b), ab in verdicts.items():
                        if not ab:
                            continue
                        for c in pool:
                            if verdicts.get((b, c)):
                                assert verdicts[(a, c)], I.label
    assert exercised == 2


def test_criterion_07_factorization_soundness_on_all_universes():
    for ws, I in FIXTURES:
        U = universe(ws, I)
        count = 0
        for f in U.all_maps():
            fact = soa_factorize(f, I)
            assert fact.status.name == "COMPLETE", I.label
            assert compose(fact.left, fact.right) == f
            assert in_inj(fact.right, I)
            middle, cell = replay(fact.log, f.source, I)
            assert middle == fact.left.target
            assert cell == fact.left
            count += 1
        assert count == (929 if I is IG else 60)


def test_criterion_08_trivial_fibration_and_purity_propositions():
    for ws, I, gens in ((WS_I1, I1, I1_GENS), (WS_I2, I2, I2_GENS)):
        fuel = ws.config.fuel
        U = universe(ws, I, bound=2)
        ctx = HomotopyContext(I, fuel)
        J = build_jset(ctx)
        glued = [pushout(i, i).apex for i in I.maps]
        tfibs = weqs = pures = 0
        for f in U.all_maps():
            fib = has_rlp(f, J.maps)
            weq = is_weak_equivalence(f, ctx).verdict
            pure = is_pure(f, U).verdict
            assert weq in (Verdict.YES, Verdict.NO)
            assert pure in (Verdict.YES, Verdict.NO)
            iinj = in_inj(f, I)
            oracle_iinj = all(of.rlp(g, fs_to_oracle(f)) for g in gens)
            assert iinj == oracle_iinj

            # trivial fibrations are exactly the injectives
            assert (fib and weq is Verdict.YES) == iinj
            tfibs += iinj

            # weak equivalences are pure and lift up to homotopy against
            # every cofibrant object
            if weq is Verdict.YES:
                weqs += 1
                assert pure is Verdict.YES, (I.label, fs_to_oracle(f))
                for V in U.cofibrant:
                    assert has_rlp_up_to_object(f, V, ctx.absolute_oracle(V))

            # pure maps lifting up to homotopy against each glued generator
            # codomain are weak equivalences
            if pure is Verdict.YES and all(
                has_rlp_up_to_object(f, G, ctx.absolute_oracle(G))
                for G in glued
            ):
                pures += 1
                assert weq is Verdict.YES, (I.label, fs_to_oracle(f))
        assert tfibs and weqs and pures


GOLDEN = pathlib.Path(__file__).parent / "golden"


def test_criterion_09_graph_golden_reports(tmp_path):
    start = time.monotonic()
    gph = fixture("gph_ig.ws")
    for command, golden in (
        ("check-main", "gph_ig_check_main.json"),
        ("enumerate-we", "gph_ig_enumerate_we.json"),
    ):
        out = tmp_path / golden
        cli.run([command, gph, "IG", "--out", str(out)])
        assert out.read_bytes() == (GOLDEN / golden).read_bytes(), command

    # the frozen enumerate-we witnesses are exactly the oracle class
    report = json.loads((GOLDEN / "gph_ig_enumerate_we.json").read_text())
    got = {map_data_to_gph_oracle(w) for w in report["witnesses"]}
    assert got == set(og.weak_equivalences(2, 2))
    assert len(got) == 217
    assert report["verdict"] == "pass"
    assert time.monotonic() - start < 300


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    # each first run must also match its frozen report in tests/golden,
    # named <fixture>_<command>.json
    plans = {
        "finset_i1.ws": [
            ["validate"],
            ["factor", "collapse", "I1"],
            ["cylinder", "i01", "I1"],
            ["homotopic", "iota0", "iota1", "I1"],
            ["classify", "iota0", "I1"],
            ["check-appropriate", "I1"],
            ["check-main", "I1"],
            ["check-properness", "I1"],
            ["verify-axioms", "I1"],
            ["enumerate-we", "I1"],
        ],
        "finset_i2.ws": [
            ["validate"],
            ["factor", "fold", "I2"],
            ["cylinder", "i01", "I2"],
            ["homotopic", "iota0", "iota1", "I2"],
            ["classify", "fold", "I2"],
            ["check-appropriate", "I2"],
            ["check-main", "I2"],
            ["check-properness", "I2"],
            ["verify-axioms", "I2"],
            ["enumerate-we", "I2"],
        ],
        "gph_ig.ws": [
            ["validate"],
            ["factor", "cA", "IG"],
            ["cylinder", "cA", "IG"],
            ["homotopic", "cA", "cA", "IG"],
            ["classify", "cA", "IG"],
            ["check-appropriate", "IG"],
            ["check-main", "IG"],
            ["check-properness", "IG"],
            ["verify-axioms", "IG"],
            ["enumerate-we", "IG"],
        ],
    }
    runs = 0
    for name, commands in plans.items():
        path = fixture(name)
        for k, command in enumerate(commands):
            argv = [command[0], path] + command[1:]
            first = tmp_path / f"{name}.{k}.a.json"
            second = tmp_path / f"{name}.{k}.b.json"
            code_a = cli.run(argv + ["--out", str(first)])
            code_b = cli.run(argv + ["--out", str(second)])
            assert code_a == code_b
            assert first.read_bytes() == second.read_bytes(), (name, command)
            golden = f"{name[:-3]}_{command[0].replace('-', '_')}.json"
            assert first.read_bytes() == (GOLDEN / golden).read_bytes(), golden
            runs += 1
    assert runs == 30


def test_fuel_starved_reports_match_their_goldens(tmp_path):
    # runs that exhaust their fuel mid-check: where a construction runs
    # out, and how many solver calls precede it, is frozen with the report
    i1, i2 = fixture("finset_i1.ws"), fixture("finset_i2.ws")
    plans = [
        (f"finset_i2_{command.replace('-', '_')}_fuel0", 2, [command, i2, *args])
        for command, args in (
            ("check-main", ["I2", "--fuel", "0"]),
            ("check-properness", ["I2", "--fuel", "0"]),
            ("enumerate-we", ["I2", "--fuel", "0"]),
            ("classify", ["fold", "I2", "--fuel", "0"]),
            ("verify-axioms", ["I2", "--fuel", "0"]),
        )
    ]
    plans += [
        ("finset_i2_check_main_fuel1", 2, ["check-main", i2, "I2", "--fuel", "1"]),
        (
            "finset_i1_check_appropriate_bound4_fuel0",
            2,
            ["check-appropriate", i1, "I1", "--bound", "4", "--fuel", "0"],
        ),
        # A4 leaves every pushout of J undecided: 6 of 6, and 84 of 84
        # behind A2's failure, so each pins an INCONCLUSIVE count walked
        ("finset_i1_verify_axioms_fuel0", 2, ["verify-axioms", i1, "I1", "--fuel", "0"]),
        (
            "gph_ig_verify_axioms_fuel0",
            1,
            ["verify-axioms", fixture("gph_ig.ws"), "IG", "--fuel", "0"],
        ),
        (
            "gph_ig_verify_axioms_fuel1",
            1,
            ["verify-axioms", fixture("gph_ig.ws"), "IG", "--fuel", "1"],
        ),
    ]
    for name, code, argv in plans:
        out = tmp_path / f"{name}.json"
        assert cli.run(argv + ["--out", str(out)]) == code, name
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name


def test_one_bound_up_reports_match_their_goldens(tmp_path):
    # the graph fixture one bound up, where the class walks save most:
    # each report is frozen, `timing` included.  At fuel 1 the universe's
    # cofibration walk meets undecided verdicts and walks all 116 objects
    gph = fixture("gph_ig.ws")
    plans = (
        ("gph_ig_verify_axioms_bound_v2e3", 1, ["verify-axioms", gph, "IG", "--bound", "v=2,e=3"]),
        ("gph_ig_check_main_bound_v3e2", 1, ["check-main", gph, "IG", "--bound", "v=3,e=2"]),
        ("gph_ig_check_main_bound_v2e3", 1, ["check-main", gph, "IG", "--bound", "v=2,e=3"]),
        ("gph_ig_classify_bound_v3e2", 0, ["classify", gph, "cA", "IG", "--bound", "v=3,e=2"]),
        ("gph_ig_check_properness_bound_v3e2", 1,
         ["check-properness", gph, "IG", "--bound", "v=3,e=2"]),
        ("gph_ig_check_properness_bound_v2e3", 1,
         ["check-properness", gph, "IG", "--bound", "v=2,e=3"]),
        ("gph_ig_check_appropriate_bound_v3e2", 1,
         ["check-appropriate", gph, "IG", "--bound", "v=3,e=2"]),
        ("gph_ig_check_appropriate_bound_v2e3", 1,
         ["check-appropriate", gph, "IG", "--bound", "v=2,e=3"]),
        ("gph_ig_check_appropriate_bound_v3e2_fuel1", 2,
         ["check-appropriate", gph, "IG", "--bound", "v=3,e=2", "--fuel", "1"]),
        ("gph_ig_check_main_bound_v3e2_fuel1", 2,
         ["check-main", gph, "IG", "--bound", "v=3,e=2", "--fuel", "1"]),
    )
    for name, code, argv in plans:
        out = tmp_path / f"{name}.json"
        assert cli.run(argv + ["--out", str(out)]) == code, name
        assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), name
