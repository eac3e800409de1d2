"""The traced benchmark run wraps the functions that bench/spans.py names.
It skips a name that no longer resolves and drops that name's metrics
without an error, so each name is checked here instead."""
import importlib
import importlib.util
import pathlib

import pytest

SPANS_PATH = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
TARGETS = [(module, name) for module, names in SPANS.TARGETS.items() for name in names]


@pytest.mark.parametrize("module, name", TARGETS, ids=[f"{m}.{n}" for m, n in TARGETS])
def test_traced_target_is_a_function_of_the_package(module, name):
    assert callable(getattr(importlib.import_module(f"dwdm_qkd.{module}"), name, None))


def test_rate_spans_are_traced_targets():
    assert SPANS.RATE_SPANS <= {f"{module}.{name}" for module, name in TARGETS}


def test_tracer_counts_every_live_layer():
    # a renamed or bypassed function reads 0 calls in the traced run, so
    # each layer that the bench reports is reached here through its span
    from dwdm_qkd import cli
    from dwdm_qkd.scenarios import run_sweep, scenario_by_name

    tracer = SPANS.Tracer()
    tracer.install()
    try:
        run_sweep(scenario_by_name("bb84-0dBm"))
        assert tracer.calls["bb84.optimize_mu"] == 161
        assert cli.main(["noise", "--z", "10"]) == 0
        assert tracer.calls["noise.compute_noise_budget"] == 1
        run_sweep(scenario_by_name("gmcs-38ch"))
        assert tracer.calls["gmcs.gmcs_point"] > 0
    finally:
        tracer.remove()
