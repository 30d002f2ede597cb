"""Tooling that reaches into the engine by name keeps finding it."""

import importlib
import importlib.util
import inspect
import pathlib

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
