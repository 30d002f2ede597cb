"""Self-test of the output checker: planted wrong answers must count as failed.

    python3 perfbench/selftest.py

Runs a few cheap FinSet commands in one benchmark pass (`run.Pass`)
and feeds the golden graph reports to the checker, each once as is
(must pass) and once with a planted error (must fail): a wrong expected
verdict, a witness set with one witness dropped or replaced, a flipped
classify membership and an altered golden report.  Then checks that a pass
holding the planted failures reports the matching correct_ratio.  Exits 1 if
any case comes out wrong.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import tempfile

import run

sys.path[:0] = [os.path.join(run.ROOT, "src"), os.path.join(run.ROOT, "tests")]

import check  # noqa: E402
from workloads import (  # noqa: E402
    FS1, FS2, GPH, I1_GENS, I2_GENS, Command, _finset_text, _with_maps,
)


def _golden(name):
    with open(os.path.join(check.GOLDEN, name), encoding="utf-8") as handle:
        return json.load(handle)


def _drop_witness(report):
    report["witnesses"].pop()


def _replace_witness(report):
    report["witnesses"][0] = report["witnesses"][1]


def _flip_weq(report):
    details = report["details"]
    details["weak-equivalence"] = "fail" if details["weak-equivalence"] == "pass" else "pass"


def _alter_counterexample(report):
    report["counterexample"] = None


def _same(report):
    pass


def main() -> int:
    os.chdir(run.ROOT)
    env = dict(os.environ, PYTHONPATH=os.path.join(run.ROOT, "src"))
    bad = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        f = (2, 3, (0, 2))
        classify_ws = _with_maps(FS1, [_finset_text("bm0", f)], workdir)
        we = Command(("enumerate-we", FS2, "I2"), "pass", "we_finset", (I2_GENS, 3))
        classify = Command(("classify", classify_ws, "bm0", "I1"), "pass",
                           "classify_finset", (f, I1_GENS))
        # (label, command, command with a planted wrong expectation, report mutation)
        engine_cases = (
            ("validate verdict", Command(("validate", FS1), "pass"),
             Command(("validate", FS1), "fail"), _same),
            ("finset witness set", we, we, _drop_witness),
            ("classify membership", classify, classify, _flip_weq),
        )
        commands, changes = [], []
        for _, good, wrong, mutate in engine_cases:
            commands += [good, wrong]
            changes += [_same, mutate]
        pending = iter(changes)

        def verify(command, code, report):
            change = next(pending)
            if report is not None:
                change(report)
            return check.problems(command, code, report)

        engine_pass = run.Pass(commands, workdir, False, env, verify)
        for k, outcome in enumerate(engine_pass.outcomes):
            planted_error = k % 2 == 1
            ok = bool(outcome.problems) == planted_error
            bad += not ok
            kind = "planted error" if planted_error else "untouched"
            print(f"{'ok  ' if ok else 'FAIL'} {engine_cases[k // 2][0]} ({kind}): "
                  f"{outcome.problems or 'correct'}")

    golden_cases = (
        ("graph witness set", "gph_ig_enumerate_we.json",
         Command(("enumerate-we", GPH, "IG"), "pass", "we_gph", (2, 2)), _replace_witness),
        ("golden check-main", "gph_ig_check_main.json",
         Command(("check-main", GPH, "IG"), "fail", "golden", "gph_ig_check_main.json"),
         _alter_counterexample),
    )
    for label, name, command, mutate in golden_cases:
        for planted_error in (False, True):
            report = copy.deepcopy(_golden(name))
            if planted_error:
                mutate(report)
            found = check.problems(command, check.EXIT[report["verdict"]], report)
            ok = bool(found) == planted_error
            bad += not ok
            kind = "planted error" if planted_error else "untouched"
            print(f"{'ok  ' if ok else 'FAIL'} {label} ({kind}): {found or 'correct'}")

    outcomes = engine_pass.outcomes
    failed = sum(1 for o in outcomes if o.problems)
    ratio = run.end_to_end([engine_pass], len(outcomes), failed)["correct_ratio"]
    ok = ratio == (len(outcomes) - len(engine_cases)) / len(outcomes)
    bad += not ok
    print(f"{'ok  ' if ok else 'FAIL'} a pass with {len(engine_cases)} planted failures "
          f"in {len(outcomes)} commands gives correct_ratio {ratio:.3f}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
