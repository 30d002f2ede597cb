"""minmodel benchmark: time to verdict of CLI commands on fixture workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a minmodel checkout.  The loop is closed with one
client: the commands of a workload run one after another, each in a fresh
interpreter (`child.py`), as the CLI is used.  One pass runs every command
of the workload once; passes repeat until S seconds have gone by.  Reports
go to a temporary directory inside the checkout and every report is
checked (`check.py`) after its pass, outside the timed region.  Times are
reported in reference seconds, scaled by a calibration measured in the
same pass (see `Pass`).

With --trace 0 the end-to-end metrics of BENCHMARK.json are reported.
With --trace 1 untraced and traced passes alternate, and the per-layer
metrics come from the spans of the traced passes (`spans.py`).  The last
line of stdout is the result as one JSON object; problems found by the
checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
REQUIRED = (
    "BENCHMARK.json",
    os.path.join("src", "minmodel", "cli.py"),
    os.path.join("tests", "oracle_gph.py"),
    os.path.join("tests", "oracle_finset.py"),
    os.path.join("tests", "helpers.py"),
    os.path.join("tests", "golden", "gph_ig_check_main.json"),
)
COMMAND_TIMEOUT = 120
# probes (set-up time and machine calibration) spread over each pass
PROBES = 9
# calibration seconds of the machine the reference times refer to: a
# 2-core x86-64 VM, CPython 3.11
REFERENCE_CALIBRATION_S = 0.1
LAYERS = ("presheaf", "lifting", "factorization", "homotopy", "analyzer", "cli")
# spans around whole commands and checks: their self time is whatever the
# named functions below them do not account for, so coverage leaves it out
CATCH_ALL = ("cli.run", "cli.command", "analyzer.check")


class Outcome:
    """What one command did in one pass."""

    def __init__(self, command):
        self.command = command
        self.seconds = 0.0
        self.setup = None
        self.rss_kb = 0
        self.solver_calls = 0
        self.report_bytes = 0
        self.spans: dict[str, list] = {}
        self.problems: list[str] = []


def _run_command(command, workdir: str, trace: bool, env: dict, verify) -> Outcome:
    outcome = Outcome(command)
    path = os.path.join(workdir, "report.json")
    argv = [sys.executable, CHILD, "1" if trace else "0", path, *command.argv]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT)
    except subprocess.TimeoutExpired:
        outcome.problems.append(f"timed out after {COMMAND_TIMEOUT} s")
        return outcome
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or "Traceback" in proc.stderr:
        outcome.problems.append(
            f"child exited {proc.returncode}: {proc.stderr.strip()[-300:]}"
        )
        return outcome
    record = json.loads(lines[-1])
    outcome.seconds = record["seconds"]
    outcome.setup = record["imported"] - spawned
    outcome.rss_kb = record["rss_kb"]
    outcome.spans = record.get("spans", {})
    report = None
    if os.path.exists(path):
        outcome.report_bytes = os.path.getsize(path)
        with open(path, encoding="utf-8") as handle:
            report = json.load(handle)
        os.remove(path)
        outcome.solver_calls = report.get("timing", {}).get("solver-calls", 0)
    outcome.problems += verify(command, record["code"], report)
    return outcome


def _probe(env: dict) -> tuple[float, float] | None:
    """(set-up seconds, calibration seconds) of one probe child."""
    spawned = time.monotonic()
    proc = subprocess.run([sys.executable, CHILD], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=COMMAND_TIMEOUT)
    if proc.returncode != 0:
        return None  # the commands of the pass fail and are counted
    record = json.loads(proc.stdout)
    return record["imported"] - spawned, record["calibration"]


class Pass:
    """One run of every command, with probes spread before, between and
    after the commands.

    Times are scaled to reference seconds: measured seconds times the
    reference calibration over the mean calibration of the pass's probes.
    The machine switches between a fast and a slow state every few
    seconds, and its speed differs by tens of percent between them.  The
    mean calibration tracks the share of the pass spent in each state;
    the median jumps between the two.  The probes calibrate before they
    import the program, so no change to the program moves the scale.
    """

    def __init__(self, commands, workdir, trace, env, verify):
        n = len(commands)
        probe_at = [round(j * n / (PROBES - 1)) for j in range(PROBES)]
        probes, self.outcomes = [], []
        for k in range(n + 1):
            probes += [p for p in (_probe(env) for _ in range(probe_at.count(k))) if p]
            if k < n:
                self.outcomes.append(_run_command(commands[k], workdir, trace, env, verify))
        self.calibration = statistics.mean(c for _, c in probes) if probes else None
        self.scale = REFERENCE_CALIBRATION_S / self.calibration if probes else 1.0
        self.setups = [self.scale * s for s, _ in probes] + [
            self.scale * o.setup for o in self.outcomes if o.setup is not None
        ]

    def times(self) -> list[float]:
        return [self.scale * o.seconds for o in self.outcomes]

    def wall(self) -> float:
        return sum(self.times())

    def slowest(self) -> float:
        return max(self.times())


def measure(commands, workdir: str, seconds: float, trace: bool, verify):
    """Untraced and traced passes, alternating, for about `seconds`: a
    pass starts only if it should end less than half a pass past the
    deadline.  There is at least one untraced pass, and with `trace` at
    least one traced pass.  `verify(command, code, report)` lists problems.
    """
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    deadline = time.monotonic() + seconds
    untraced, traced = [], []
    while True:
        traced_pass = trace and len(traced) < len(untraced)
        started = time.monotonic()
        (traced if traced_pass else untraced).append(
            Pass(commands, workdir, traced_pass, env, verify)
        )
        now = time.monotonic()
        if now + (now - started) / 2 >= deadline and (traced or not trace):
            return untraced, traced


def end_to_end(untraced: list[Pass], attempted: int, failed: int) -> dict:
    """Times are in reference seconds (see `Pass`)."""
    setups = [s for p in untraced for s in p.setups]
    return {
        "wall_s": statistics.median(p.wall() for p in untraced),
        "slowest_cmd_s": statistics.median(p.slowest() for p in untraced),
        "solver_calls": statistics.median(
            sum(o.solver_calls for o in p.outcomes) for p in untraced
        ),
        "peak_rss_mb": max(o.rss_kb for p in untraced for o in p.outcomes) / 1024,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "correct_ratio": (attempted - failed) / attempted,
    }


def _summed_spans(outcomes) -> dict[str, list]:
    table: dict[str, list] = {}
    for o in outcomes:
        for name, stat in o.spans.items():
            acc = table.setdefault(name, [0, 0, 0.0, 0.0])
            for k, v in enumerate(stat):
                acc[k] += v
    return table


def _layer_metrics(run: Pass) -> dict:
    """Per-layer metrics of one traced pass; times in reference seconds."""
    outcomes = run.outcomes
    table = _summed_spans(outcomes)

    def get(name, k):
        return table.get(name, (0, 0, 0.0, 0.0))[k]

    def calls(name):
        return get(name, 0)

    def items(name):
        return get(name, 1)

    def self_s(name):
        return get(name, 2)

    def ratio(a, b):
        return a / b if b else 0.0

    wall = sum(o.seconds for o in outcomes)
    covered = sum(s[2] for n, s in table.items() if n not in CATCH_ALL)
    metrics = {
        "workspace.parse.calls": calls("workspace.parse"),
        "workspace.parse.self_s": self_s("workspace.parse"),
        "presheaf.enum.calls": calls("presheaf.enum"),
        "presheaf.enum.tables": items("presheaf.enum"),
        "presheaf.enum.self_s": self_s("presheaf.enum"),
        "presheaf.compose.calls": calls("presheaf.compose"),
        "presheaf.compose.self_s": self_s("presheaf.compose"),
        "presheaf.retract.calls": calls("presheaf.retract"),
        "presheaf.retract.self_s": self_s("presheaf.retract"),
        "colimits.pushout.calls": calls("colimits.pushout"),
        "colimits.pushout.self_s": self_s("colimits.pushout"),
        "colimits.coproduct.calls": calls("colimits.coproduct"),
        "colimits.coproduct.self_s": self_s("colimits.coproduct"),
        "lifting.problem.calls": calls("lifting.problem"),
        "lifting.problem.self_s": self_s("lifting.problem"),
        "lifting.solve.calls": calls("lifting.solve"),
        "lifting.solve.self_s": self_s("lifting.solve"),
        "lifting.solve.found_ratio": ratio(items("lifting.solve"), calls("lifting.solve")),
        "lifting.squares": items("lifting.square_enum"),
        "lifting.square_enum.self_s": self_s("lifting.square_enum"),
        "lifting.rlp.calls": calls("lifting.rlp"),
        "lifting.rlp.memo_ratio": ratio(items("lifting.rlp"), calls("lifting.rlp")),
        "lifting.upto.calls": calls("lifting.upto"),
        "lifting.upto.self_s": self_s("lifting.upto") + self_s("lifting.upto_solve"),
        "factorization.soa.calls": calls("factorization.soa"),
        "factorization.soa.self_s": self_s("factorization.soa"),
        "factorization.attachments": items("factorization.soa"),
        "factorization.in_cof.calls": calls("factorization.in_cof"),
        "factorization.in_inj.calls": calls("factorization.in_inj"),
        "homotopy.cylinder.calls": calls("homotopy.cylinder"),
        "homotopy.cylinder.self_s": self_s("homotopy.cylinder"),
        "homotopy.homotopic.calls": calls("homotopy.homotopic"),
        "homotopy.homotopic.self_s": self_s("homotopy.homotopic"),
        "analyzer.universe.build_s": get("analyzer.universe", 3),
        "analyzer.universe.objects": items("analyzer.universe"),
        "analyzer.pure.calls": calls("analyzer.pure"),
        "analyzer.we.calls": calls("analyzer.we"),
        "cli.render.self_s": self_s("cli.render"),
        "cli.emit.self_s": self_s("cli.run"),
        "cli.report_bytes": sum(o.report_bytes for o in outcomes),
        "trace.coverage": ratio(covered, wall),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            s[2] for n, s in table.items() if n.startswith(layer + ".")
        )
    for name in metrics:
        if name.endswith("_s"):
            metrics[name] *= run.scale
    return metrics


def per_layer(untraced: list[Pass], traced: list[Pass]) -> dict:
    each = [_layer_metrics(p) for p in traced]
    metrics = {k: statistics.median(m[k] for m in each) for k in each[0]}
    metrics["trace.overhead"] = (
        statistics.median(p.wall() for p in traced)
        / statistics.median(p.wall() for p in untraced)
    )
    calibrations = [p.calibration for p in untraced + traced if p.calibration]
    metrics["machine.calibration_s"] = statistics.median(calibrations) if calibrations else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"perfbench: not a minmodel checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    from check import problems
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end" if not args.trace else "per_layer"]}

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        commands = WORKLOADS[args.workload](args.seed, workdir)
        untraced, traced = measure(
            commands, workdir, args.seconds, bool(args.trace), problems
        )

    outcomes = [o for p in untraced + traced for o in p.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    for o in outcomes:
        for problem in o.problems:
            print(f"FAILED {' '.join(o.command.argv)}: {problem}", file=sys.stderr)
    if args.trace:
        values = per_layer(untraced, traced)
    else:
        values = end_to_end(untraced, len(outcomes), failed)
    if set(values) != set(units):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(values) ^ set(units))}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
