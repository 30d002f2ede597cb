"""Tooling that reaches into the engine by name keeps finding it."""

import importlib
import importlib.util
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_benchmark_span_target_resolves():
    # the tracer getattr()s each (module, attribute) target when a traced
    # benchmark run starts, so a renamed engine function breaks every run
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(f"minmodel.{module}")
        for part in attr.split("."):
            assert hasattr(owner, part), f"minmodel.{module}.{attr}"
            owner = getattr(owner, part)
        assert callable(owner), f"minmodel.{module}.{attr}"
