"""Command dispatch and report emission.

Usage:

    minmodel COMMAND WORKSPACE [ARGS...] [--fuel N] [--bound SPEC]
             [--cross-check] [--out PATH]

Commands:

    validate
    factor MAP GENSET
    cylinder MAP GENSET
    homotopic MAP MAP [rel MAP] GENSET
    classify MAP GENSET
    check-appropriate GENSET
    check-main GENSET
    check-properness GENSET
    verify-axioms GENSET
    enumerate-we GENSET

--bound (and the workspace's `bound:`) is one integer for every base
object, or NAME=N assignments that name every base object exactly once and
nothing else; every value runs from 0 to 64.  --fuel (and `fuel:`) is an
integer that is at least 0.  Each flag may be given once.

Every run writes one JSON report (stdout, or --out PATH) and exits with
0 = pass, 1 = fail, 2 = inconclusive, 3 = usage or parse error.  Reports
are byte-identical across repeated runs on identical inputs: keys are
sorted, the workspace appears by basename only, and timing is reported
as deterministic work counters rather than wall time.
"""

from __future__ import annotations

import json
import os
import sys

from . import lifting
from .analyzer import (
    BoundedUniverse,
    MapClassification,
    VerdictReport,
    check_appropriate,
    check_main_condition,
    check_properness_condition,
    classify_map,
    enumerate_weak_equivalences,
    verify_axioms,
)
from .colimits import initial_map, pushout
from .errors import EngineError, FuelExhausted, ValidationError
from .factorization import Attachment, CellFactorization, Status, Verdict, soa_factorize
from .homotopy import (
    CylinderObject,
    HomotopyWitness,
    cylinder,
    homotopic,
    homotopic_cross_check,
)
from .presheaf import Presheaf, PresheafMap
from .workspace import (
    check_bound,
    map_data,
    parse_bound,
    parse_fuel,
    parse_workspace,
    presheaf_data,
)

_VERDICT = {
    Verdict.YES: "pass",
    Verdict.NO: "fail",
    Verdict.INCONCLUSIVE: "inconclusive",
}
_EXIT = {"pass": 0, "fail": 1, "inconclusive": 2}


class UsageError(Exception):
    pass


def render(value):
    """Recursive report serialization of engine values into JSON-ready data."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Verdict):
        return _VERDICT[value]
    if isinstance(value, Status):
        return value.value
    if isinstance(value, Presheaf):
        return presheaf_data(value)
    if isinstance(value, PresheafMap):
        return map_data(value)
    if isinstance(value, Attachment):
        return {
            "generator": value.generator,
            "attach": render(value.attach),
            "result": render(value.result),
        }
    if isinstance(value, CellFactorization):
        return {
            "left": render(value.left),
            "right": render(value.right),
            "middle": render(value.left.target),
            "log": [render(a) for a in value.log],
            "fuel-used": value.fuel_used,
            "status": render(value.status),
        }
    if isinstance(value, CylinderObject):
        return {
            "over": render(value.over),
            "apex": render(value.apex),
            "end-0": render(value.incl0),
            "end-1": render(value.incl1),
            "collapse": render(value.collapse),
            "fuel-used": value.provenance.fuel_used,
            "attachments": len(value.provenance.log),
        }
    if isinstance(value, HomotopyWitness):
        return {"cylinder": render(value.cylinder), "map": render(value.map)}
    if isinstance(value, MapClassification):
        out = {"map": render(value.map)}
        out.update((k, render(v)) for k, v in value.as_dict().items())
        return out
    if isinstance(value, VerdictReport):
        return {
            "check": value.check,
            "verdict": render(value.verdict),
            "parameters": render(value.parameters),
            "counterexample": render(value.counterexample),
            "witnesses": [render(w) for w in value.witnesses],
            "diagnostics": render(value.diagnostics),
            "subchecks": [render(s) for s in value.subchecks],
        }
    if isinstance(value, dict):
        return {str(k): render(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [render(v) for v in value]
    raise TypeError(f"cannot render {type(value).__name__} into a report")


def _split_flags(tokens):
    args, flags = [], {}
    i = 0
    while i < len(tokens):
        t = tokens[i]
        if t.startswith("--") and t[2:] in flags:
            raise UsageError(f"{t} given twice")
        if t == "--cross-check":
            flags["cross-check"] = True
            i += 1
        elif t in ("--fuel", "--bound", "--out"):
            if i + 1 >= len(tokens):
                raise UsageError(f"{t} requires a value")
            flags[t[2:]] = tokens[i + 1]
            i += 2
        elif t.startswith("-"):
            raise UsageError(f"unknown flag {t!r}")
        else:
            args.append(t)
            i += 1
    return args, flags


def _settings(ws, flags):
    try:
        fuel = parse_fuel(flags["fuel"]) if "fuel" in flags else ws.config.fuel
    except ValueError as bad:
        raise UsageError(f"--fuel {bad}")
    if "bound" in flags:
        try:
            bound = parse_bound(flags["bound"])
            check_bound(bound, ws.base.objects)
        except ValueError as bad:
            raise UsageError(f"--bound: {bad}")
    else:
        bound = ws.config.bound
    cross = bool(flags.get("cross-check", ws.config.cross_check))
    return fuel, bound, cross


class _Run:
    """Collects per-invocation state shared by the command handlers."""

    def __init__(self, command, path, arguments, flags):
        self.command = command
        self.path = path
        self.arguments = list(arguments)
        self.flags = flags
        self.workspace = None
        self.fuel = None
        self.bound = None
        self.cross_check = False
        self.bounds = None

    def load(self):
        self.workspace = parse_workspace(self.path)
        self.fuel, self.bound, self.cross_check = _settings(
            self.workspace, self.flags
        )
        return self.workspace

    def report(self, verdict, *, witnesses=(), counterexample=None,
               details=None, fuel_used=None):
        return {
            "command": self.command,
            "parameters": {
                "workspace": os.path.basename(self.path),
                "arguments": self.arguments,
                "fuel": self.fuel,
                "bound": render(self.bound),
                "cross-check": self.cross_check,
            },
            "verdict": verdict,
            "witnesses": [render(w) for w in witnesses],
            "counterexample": render(counterexample),
            "details": render(details),
            "bounds": self.bounds,
            "fuel_used": fuel_used,
            "timing": {"solver-calls": lifting.STATS["solver_calls"]},
        }, _EXIT[verdict]


def _cmd_validate(run):
    if run.arguments:
        raise UsageError("validate takes no arguments")
    try:
        ws = run.load()
    except ValidationError as err:
        # syntax parses but the contents are inconsistent: that is the
        # finding this command exists to report, not a usage error
        return run.report(
            "fail",
            counterexample={
                "error": type(err).__name__,
                "detail": str(err),
                "section": err.section,
                "line": err.line,
            },
        )
    summary = {
        "base-objects": list(ws.base.objects),
        "presheaves": sorted(ws.presheaves),
        "maps": sorted(ws.maps),
        "gensets": sorted(ws.gensets),
        "config": {
            "fuel": ws.config.fuel,
            "bound": render(ws.config.bound),
            "cross-check": ws.config.cross_check,
        },
    }
    return run.report("pass", details=summary)


def _map_and_genset(run):
    ws = run.load()
    if len(run.arguments) != 2:
        raise UsageError(f"{run.command} takes MAP GENSET")
    return ws.map(run.arguments[0]), ws.genset(run.arguments[1])


def _cmd_factor(run):
    f, I = _map_and_genset(run)
    fact = soa_factorize(f, I, run.fuel)
    verdict = "pass" if fact.status is Status.COMPLETE else "inconclusive"
    return run.report(
        verdict,
        witnesses=[fact.left, fact.right],
        details=fact,
        fuel_used=fact.fuel_used,
    )


def _cmd_cylinder(run):
    i, I = _map_and_genset(run)
    cyl = cylinder(i, I, run.fuel)
    return run.report(
        "pass",
        witnesses=[cyl.incl0, cyl.incl1, cyl.collapse],
        details=cyl,
        fuel_used=cyl.provenance.fuel_used,
    )


def _cmd_homotopic(run):
    ws = run.load()
    args = run.arguments
    if len(args) == 3:
        rel = None
        f0, f1, I = ws.map(args[0]), ws.map(args[1]), ws.genset(args[2])
    elif len(args) == 5 and args[2] == "rel":
        f0, f1 = ws.map(args[0]), ws.map(args[1])
        rel = ws.map(args[3])
        I = ws.genset(args[4])
    else:
        raise UsageError("homotopic takes MAP MAP [rel MAP] GENSET")
    if run.cross_check:
        witness, agree = homotopic_cross_check(f0, f1, rel, I, run.fuel)
        if not agree:
            return run.report(
                "inconclusive",
                counterexample={"error": "cross-check disagreement"},
                details={"cylinder-order-agreement": False},
            )
    else:
        witness = homotopic(f0, f1, rel, I, run.fuel)
    if witness is None:
        # the two ends as one map out of the end pushout of the cylinder
        # over rel: it has no extension along the cylinder
        if rel is None:
            rel = initial_map(f0.source)
        ends = pushout(rel, rel).mediator(f0, f1)
        return run.report(
            "fail", counterexample={"ends": ends}, details={"homotopic": False}
        )
    return run.report("pass", witnesses=[witness.map], details=witness)


def _universe(run, I):
    U = BoundedUniverse(run.workspace.base, run.bound, I, run.fuel)
    run.bounds = {"bound": render(run.bound), "objects": len(U.objects)}
    return U


def _cmd_classify(run):
    f, I = _map_and_genset(run)
    result = classify_map(f, _universe(run, I))
    parts = result.as_dict()
    del parts["sdr-consistent"]
    counterexample = None
    if result.consistent is False:
        verdict = "fail"
        counterexample = {
            "map": f,
            "trivial-cofibration": result.trivial_cofibration,
            "strong-deformation-retract": result.strong_deformation_retract,
        }
    elif Verdict.INCONCLUSIVE in parts.values():
        verdict = "inconclusive"
    else:
        verdict = "pass"
    return run.report(verdict, counterexample=counterexample, details=result)


_CHECKERS = {
    "check-appropriate": check_appropriate,
    "check-main": check_main_condition,
    "check-properness": check_properness_condition,
    "verify-axioms": verify_axioms,
    "enumerate-we": enumerate_weak_equivalences,
}


def _cmd_checker(run):
    ws = run.load()
    if len(run.arguments) != 1:
        raise UsageError(f"{run.command} takes GENSET")
    outcome = _CHECKERS[run.command](_universe(run, ws.genset(run.arguments[0])))
    return run.report(
        _VERDICT[outcome.verdict],
        witnesses=outcome.witnesses,
        counterexample=outcome.counterexample,
        details=outcome,
    )


_COMMANDS = {
    "validate": _cmd_validate,
    "factor": _cmd_factor,
    "cylinder": _cmd_cylinder,
    "homotopic": _cmd_homotopic,
    "classify": _cmd_classify,
    **dict.fromkeys(_CHECKERS, _cmd_checker),
}


def _usage_text():
    return __doc__.strip()


def run(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    lifting.reset_stats()
    try:
        args, flags = _split_flags(argv)
        if not args:
            raise UsageError("missing command")
        command, rest = args[0], args[1:]
        if command not in _COMMANDS:
            raise UsageError(f"unknown command {command!r}")
        if not rest:
            raise UsageError("missing workspace path")
        runner = _Run(command, rest[0], rest[1:], flags)
        try:
            report, code = _COMMANDS[command](runner)
        except FuelExhausted as err:
            # a guarded construction ran dry: the question stays open
            report, code = runner.report(
                "inconclusive",
                counterexample={"error": "FuelExhausted", "detail": str(err)},
            )
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        out = flags.get("out")
        if out:
            tmp = out + ".tmp"
            handle = open(tmp, "w", encoding="utf-8")
            try:
                with handle:
                    handle.write(text)
                os.replace(tmp, out)
            except OSError:
                os.remove(tmp)
                raise
        else:
            sys.stdout.write(text)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        print(_usage_text(), file=sys.stderr)
        return 3
    except (EngineError, OSError) as err:
        # covers unreadable files, parse errors, bad names, semantic
        # validation failures outside the validate command, and a report
        # that cannot be written: none of them is the "fail" of exit 1
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
