"""Tooling that reaches into the engine by name keeps finding it."""

import importlib
import importlib.util
import inspect
import json
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _target(module, attr):
    owner = importlib.import_module(f"minmodel.{module}")
    for part in attr.split("."):
        assert hasattr(owner, part), f"minmodel.{module}.{attr}"
        owner = getattr(owner, part)
    return owner


def test_every_benchmark_span_target_resolves():
    # the tracer getattr()s each (module, attribute) target when a traced
    # benchmark run starts, so a renamed engine function breaks every run
    spans = _spans()
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        assert callable(_target(module, attr)), f"minmodel.{module}.{attr}"


def test_generator_span_targets_are_exactly_the_generator_functions():
    # a GEN target is timed per resumption, any other per call: a mismatch
    # would time a layer as returning at once, or never close its span
    spans = _spans()
    for module, attr, _, kind, _ in spans.TARGETS:
        is_gen = inspect.isgeneratorfunction(_target(module, attr))
        assert is_gen == (kind == spans.GEN), f"minmodel.{module}.{attr}"


def test_every_bench_record_carries_the_standing_fields():
    # a committed BENCH_<n>.json is the evidence of a perf change: where it
    # ran, against what, how each workload moved, and a traced run per side
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        workloads = {w["name"] for w in json.load(handle)["workloads"]}
    records = sorted(ROOT.glob("BENCH_*.json"))
    assert records
    for path in records:
        assert re.fullmatch(r"BENCH_\d+\.json", path.name), path.name
        with open(path, encoding="utf-8") as handle:
            record = json.load(handle)
        assert isinstance(record["parent_commit"], str) and record["parent_commit"]
        assert record["machine"]["nproc"] and record["machine"]["python"]
        assert record["summary"] and set(record["summary"]) <= workloads, path.name
        for workload, metrics in record["summary"].items():
            assert metrics, (path.name, workload)
            for metric, row in metrics.items():
                where = (path.name, workload, metric)
                for side in ("parent_q1_median_q3", "change_q1_median_q3"):
                    q1, median, q3 = row[side]
                    assert q1 <= median <= q3, where
                won, _, pairs = row["pairs_won"].partition("/")
                assert 0 <= int(won) <= int(pairs) and int(pairs) > 0, where
        for side in ("parent", "change"):
            traced = record["traced"][side]
            assert traced, (path.name, side)
            assert all(run["trace"] == 1 for run in traced), (path.name, side)
            assert {run["workload"] for run in traced} == set(record["summary"])
