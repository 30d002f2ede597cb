"""Run the benchmark over several workloads and seeds and keep every result.

    python3 perfbench/sweep.py --out FILE [--seeds 1-10] [--trace 0|1]

Appends one JSON line per run to FILE, {"workload", "seed", "trace",
"result"}, after a first line {"machine": {...}} when FILE is new.
Every workload of BENCHMARK.json runs for the benchmark's run_seconds, so
result sets always compare like with like.  Defaults: seeds 1-10 and
--trace 0.  Read the file with `compare.py`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seeds", default="1-10", type=_seeds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.exists(args.out):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"machine": machine()}) + "\n")
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as handle:
                handle.write(json.dumps({"workload": workload, "seed": seed,
                                         "trace": args.trace, "result": result}) + "\n")
            shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in
                              list(result["metrics"].items())[:6])
            print(f"{workload} seed {seed}: failed {result['failed']}/"
                  f"{result['attempted']} {shown}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
