"""Output checks for benchmark commands.

Every command's exit code and verdict are checked against its expected
verdict.  Some commands also name an extra check that compares the report
with the brute-force oracles in `tests/` or with a frozen golden report.
Checks run outside the timed region.
"""

from __future__ import annotations

import json
import os

import oracle_finset as of
import oracle_gph as og
from helpers import map_data_to_gph_oracle

EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}
GOLDEN = os.path.join("tests", "golden")


def _finset_oracle(md: dict):
    """CLI report rendering of a FinSet map -> oracle triple (m, n, imgs)."""
    src = md["source"]["carriers"]["x"]
    dst = md["target"]["carriers"]["x"]
    comp = md["components"].get("x", {})
    return (len(src), len(dst), tuple(dst.index(comp[e]) for e in src))


def _golden(report, name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as handle:
        want = json.load(handle)
    got = dict(report)
    got.pop("timing", None)
    want.pop("timing", None)
    return None if got == want else f"report differs from golden {name}"


def _witnesses(got: list, want: set):
    if len(got) != len(set(got)) or set(got) != want:
        return f"{len(set(got) ^ want)} weak-equivalence witnesses disagree with the oracle"
    return None


def _we_gph(report, bounds):
    got = [map_data_to_gph_oracle(w) for w in report["witnesses"]]
    return _witnesses(got, set(og.weak_equivalences(*bounds)))


def _we_finset(report, args):
    gens, size = args
    got = [_finset_oracle(w) for w in report["witnesses"]]
    return _witnesses(got, set(of.weak_equivalences(gens, size)))


def _memberships(report, oracle):
    details = report["details"]
    wrong = [k for k, v in oracle.items() if details.get(k) != ("pass" if v else "fail")]
    return f"classify memberships disagree with the oracle: {wrong}" if wrong else None


def _classify_gph(report, f):
    return _memberships(report, {
        "cofibration": og.is_mono(f),
        "weak-equivalence": og.weak_equivalence(f),
        "trivial-fibration": og.is_inj(f),
    })


def _classify_finset(report, args):
    f, gens = args
    return _memberships(report, {
        "cofibration": of.in_cof(f, gens),
        "weak-equivalence": of.weak_equivalence(f, gens),
        "trivial-fibration": all(of.rlp(g, f) for g in gens),
    })


CHECKS = {
    "golden": _golden,
    "we_gph": _we_gph,
    "we_finset": _we_finset,
    "classify_gph": _classify_gph,
    "classify_finset": _classify_finset,
}


def problems(command, code: int, report: dict | None) -> list[str]:
    """Everything wrong with one command's outcome; empty when correct."""
    out = []
    if code != EXIT[command.verdict]:
        out.append(f"exit code {code}, expected {EXIT[command.verdict]}")
    if report is None:
        out.append("no report written")
        return out
    if report.get("verdict") != command.verdict:
        out.append(f"verdict {report.get('verdict')!r}, expected {command.verdict!r}")
    if command.check is not None:
        try:
            found = CHECKS[command.check](report, command.oracle)
        except (KeyError, ValueError, TypeError) as err:
            found = f"malformed report: {type(err).__name__}: {err}"
        if found:
            out.append(found)
    return out
