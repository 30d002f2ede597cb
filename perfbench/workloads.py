"""The benchmark's workloads: CLI commands with their expected outcomes.

A workload is a list of `Command`s built from the workload seed.  The seed
only chooses the maps handed to `classify`; those maps are written as extra
`[presheaf]`/`[map]` sections into a generated copy of the fixture, so the
program only ever sees workspace files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

import oracle_finset as of
import oracle_gph as og

FIXTURES = os.path.join("src", "minmodel", "fixtures")
GPH = os.path.join(FIXTURES, "gph_ig.ws")
FS1 = os.path.join(FIXTURES, "finset_i1.ws")
FS2 = os.path.join(FIXTURES, "finset_i2.ws")

I1_GENS = ((0, 1, ()),)
I2_GENS = ((0, 1, ()), (2, 1, (0, 0)))

# Indices into oracle_gph.universe_maps(2, 2) of the 28 cofibrations that
# `classify ... IG` reports as inconsistent (trivial cofibration but not a
# strong deformation retract), hence verdict "fail".  IG fails check-main,
# so the biconditional is not expected to hold there.  Frozen from the
# engine: the oracles do not decide strong deformation retracts.
GPH_CLASSIFY_FAILS = frozenset({
    31, 32, 33, 34, 35, 36, 39, 41, 43, 47, 48, 49, 50, 51, 52, 55, 56, 57,
    58, 59, 60, 64, 66, 68, 79, 80, 85, 86,
})

GPH_CLASSIFY_MAPS = 3
FINSET_CLASSIFY_MAPS = 2


@dataclass(frozen=True)
class Command:
    """One CLI question: argv without `--out`, and what its report must say.

    `check` names an extra output check in `check.py`; `oracle` is its
    argument (an oracle map, or the arguments of an oracle enumeration).
    """

    argv: tuple[str, ...]
    verdict: str
    check: str | None = None
    oracle: object = None


def _gph_text(name: str, f) -> str:
    """`[presheaf]`/`[map]` sections for the oracle graph map f."""
    G, H, vmap, emap = f
    lines = []
    for tag, (nv, edges) in (("src", G), ("dst", H)):
        lines.append(f"[presheaf {name}_{tag}]")
        if nv:
            lines.append("v: " + " ".join(f"v{k}" for k in range(nv)))
        if edges:
            lines.append("e: " + " ".join(f"e{k}" for k in range(len(edges))))
            for act, pick in (("s", 0), ("t", 1)):
                pairs = " ".join(f"e{k}->v{e[pick]}" for k, e in enumerate(edges))
                lines.append(f"action {act}: {pairs}")
    lines.append(f"[map {name} : {name}_src -> {name}_dst]")
    if vmap:
        lines.append("component v: " + " ".join(f"v{k}->v{w}" for k, w in enumerate(vmap)))
    if emap:
        lines.append("component e: " + " ".join(f"e{k}->e{w}" for k, w in enumerate(emap)))
    return "\n".join(lines) + "\n"


def _finset_text(name: str, f) -> str:
    """`[presheaf]`/`[map]` sections for the oracle function f."""
    m, n, imgs = f
    lines = []
    for tag, size in (("src", m), ("dst", n)):
        lines.append(f"[presheaf {name}_{tag}]")
        if size:
            lines.append("x: " + " ".join(f"a{k}" for k in range(size)))
    lines.append(f"[map {name} : {name}_src -> {name}_dst]")
    if imgs:
        lines.append("component x: " + " ".join(f"a{k}->a{w}" for k, w in enumerate(imgs)))
    return "\n".join(lines) + "\n"


def _with_maps(fixture: str, sections: list[str], workdir: str) -> str:
    """Copy of `fixture` under `workdir` with extra sections appended."""
    with open(fixture, encoding="utf-8") as handle:
        text = handle.read()
    path = os.path.join(workdir, os.path.basename(fixture))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n" + "".join(sections))
    return path


def gph_properness(seed: int, workdir: str) -> list[Command]:
    return [Command(("check-properness", GPH, "IG"), "fail")]


def gph_mix(seed: int, workdir: str) -> list[Command]:
    universe = og.universe_maps(2, 2)
    picks = random.Random(seed).sample(range(len(universe)), GPH_CLASSIFY_MAPS)
    names = [f"bm{k}" for k in range(len(picks))]
    path = _with_maps(
        GPH, [_gph_text(n, universe[p]) for n, p in zip(names, picks)], workdir
    )
    commands = [
        Command(("check-main", GPH, "IG"), "fail", "golden", "gph_ig_check_main.json"),
        Command(("verify-axioms", GPH, "IG"), "fail"),
        Command(("enumerate-we", GPH, "IG"), "pass", "we_gph", (2, 2)),
    ]
    for name, p in zip(names, picks):
        verdict = "fail" if p in GPH_CLASSIFY_FAILS else "pass"
        commands.append(
            Command(("classify", path, name, "IG"), verdict, "classify_gph", universe[p])
        )
    return commands


# acceptance criterion 10's plans for the FinSet fixtures
_FINSET_PLANS = (
    (FS1, "I1", I1_GENS, "collapse", "iota0", "pass"),
    (FS2, "I2", I2_GENS, "fold", "fold", "fail"),
)


def finset_pass(seed: int, workdir: str) -> list[Command]:
    rng = random.Random(seed)
    universe = of.all_maps(3)
    commands = []
    for path, gs, gens, factor_map, classify_map, homotopic in _FINSET_PLANS:
        commands += [
            Command(("validate", path), "pass"),
            Command(("factor", path, factor_map, gs), "pass"),
            Command(("cylinder", path, "i01", gs), "pass"),
            # iota0 and iota1 differ, and homotopy over I2 is equality
            Command(("homotopic", path, "iota0", "iota1", gs), homotopic),
            Command(("classify", path, classify_map, gs), "pass"),
            Command(("check-appropriate", path, gs), "pass"),
            Command(("check-main", path, gs), "pass"),
            Command(("check-properness", path, gs), "pass"),
            Command(("verify-axioms", path, gs), "pass"),
            Command(("enumerate-we", path, gs), "pass", "we_finset", (gens, 3)),
        ]
        picks = rng.sample(range(len(universe)), FINSET_CLASSIFY_MAPS)
        names = [f"bm{k}" for k in range(len(picks))]
        copy = _with_maps(
            path, [_finset_text(n, universe[p]) for n, p in zip(names, picks)], workdir
        )
        for name, p in zip(names, picks):
            commands.append(
                Command(("classify", copy, name, gs), "pass", "classify_finset",
                        (universe[p], gens))
            )
    four = ("--bound", "4")
    commands += [
        Command(("classify", FS1, "iota0", "I1") + four, "pass"),
        Command(("check-appropriate", FS1, "I1") + four, "pass"),
        Command(("check-main", FS1, "I1") + four, "pass"),
        Command(("check-properness", FS1, "I1") + four, "pass"),
        Command(("verify-axioms", FS1, "I1") + four, "pass"),
        Command(("enumerate-we", FS1, "I1") + four, "pass", "we_finset", (I1_GENS, 4)),
    ]
    return commands


WORKLOADS = {
    "gph-properness": gph_properness,
    "gph-mix": gph_mix,
    "finset-pass": finset_pass,
}
