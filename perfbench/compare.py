"""Summarise one result set, or compare two, per workload and metric.

    python3 perfbench/compare.py BASE.jsonl [NEW.jsonl]

Result sets are files written by `sweep.py`.  For each workload and metric
this prints the median and quartiles of each set and the spread, the
distance between the quartiles as a share of the median.  An end-to-end
metric whose spread is wider than its bound in BENCHMARK.json is
"unresolved".  With two sets it also prints the share of pairs (runs with
the same seed) that NEW won, ties counting for neither, and a verdict:

- "unresolved": a spread exceeds the bound and not every NEW run beats
  every BASE run;
- "REGRESSION": NEW's median is worse than BASE's by more than the bound;
- "gain": NEW won at least nine tenths of the pairs and the medians differ
  by more than BASE's quartile distance;
- "same": otherwise.

Per-layer metrics have no bound and get no verdict.  A workload with a
run whose commands failed (`failed` > 0) is reported by seed, whatever the
medians say.  The exit status is 1 if NEW (or the only set) has such a run,
or if a verdict is "REGRESSION" or "unresolved".
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load(path: str) -> tuple[dict, dict]:
    """({(workload, metric): {seed: value}}, {workload: [seeds of runs with
    failed commands]}) from a sweep file."""
    out: dict = {}
    failed: dict = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            if "workload" not in row:
                continue
            result = row["result"]
            if result["failed"] or not result["correct"]:
                failed.setdefault(row["workload"], []).append(row["seed"])
            for name, m in result["metrics"].items():
                out.setdefault((row["workload"], name), {})[row["seed"]] = m["value"]
    return out, failed


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> tuple[str, float]:
    sign = 1 if better == "lower" else -1
    pairs = [(base[s], new[s]) for s in base if s in new]
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    won = wins / len(pairs) if pairs else 0.0
    bq1, bmed, bq3 = quartiles(list(base.values()))
    nmed = statistics.median(new.values())
    if bound is None:
        return "", won
    if spread(list(base.values())) > bound or spread(list(new.values())) > bound:
        if sign > 0:
            every = max(new.values()) < min(base.values())
        else:
            every = min(new.values()) > max(base.values())
        return ("better in every run" if every else "unresolved"), won
    worse = sign * (nmed - bmed) / abs(bmed) if bmed else 0.0
    if worse > bound:
        return "REGRESSION", won
    if won >= 0.9 and abs(nmed - bmed) > (bq3 - bq1):
        return "gain", won
    return "same", won


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    sets, failures = zip(*(load(p) for p in argv))
    workloads = [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in workloads:
        keys = [k for k in metrics if any((workload, k) in s for s in sets)]
        if not keys:
            continue
        print(f"== {workload}")
        for path, failed in zip(argv, failures):
            if workload in failed:
                print(f"  FAILED commands in {path}, seeds {sorted(failed[workload])}")
        status |= workload in failures[-1]
        for name in keys:
            m = metrics[name]
            bound = m.get("bound")
            cells = []
            for s in sets:
                values = list(s.get((workload, name), {}).values())
                if not values:
                    cells.append("-")
                    continue
                q1, q2, q3 = quartiles(values)
                note = " unresolved" if bound is not None and spread(values) > bound else ""
                cells.append(f"{q2:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)} "
                             f"spread {spread(values):.3f}{note}")
            line = f"  {name} ({m['unit']}, {m['better']}"
            line += f", bound {bound})" if bound is not None else ")"
            line += "  " + "  |  ".join(cells)
            if len(sets) == 2 and all((workload, name) in s for s in sets):
                v, won = verdict(sets[0][(workload, name)], sets[1][(workload, name)],
                                 m["better"], bound)
                line += f"  won {won:.0%} {v}"
                status |= v in ("REGRESSION", "unresolved")
            print(line)
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
