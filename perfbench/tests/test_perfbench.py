"""Tests of the benchmark's own machinery: span arithmetic, wrapping at
every binding, clean removal of the wrappers, and the correctness gate.

    python3 -m pytest perfbench/tests
"""

import copy

import numpy as np
import pytest

import spinbath
import spinbath.analysis
import spinbath.cli
import spinbath.engine

import checks
import spans


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent)


def test_self_time_subtracts_direct_children():
    trace = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 5.0, 9.0, 0),
        _span("d", 6.0, 7.0, 2),
    ]
    totals = spans.layer_totals(trace)
    assert totals["a"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert totals["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}
    assert totals["c"] == {"calls": 1, "s": 4.0, "self_s": 3.0}
    assert totals["d"] == {"calls": 1, "s": 1.0, "self_s": 1.0}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_nested_spans_of_one_name_count_once_in_s():
    trace = [
        _span("x", 0.0, 10.0, -1),
        _span("x", 2.0, 5.0, 0),
        _span("y", 3.0, 4.0, 1),
        _span("x", 11.0, 12.0, -1),
    ]
    totals = spans.layer_totals(trace)
    assert totals["x"]["calls"] == 3
    assert totals["x"]["s"] == pytest.approx(11.0)
    assert totals["x"]["self_s"] == pytest.approx(7.0 + 2.0 + 1.0)


def test_engine_counts_use_propagate_meta():
    trace = [
        spans.Span("engine.propagate", 0.0, 1.0, -1,
                   {"realizations": 2, "cycles": 10, "pulses_per_cycle": 2, "dim": 8}),
        spans.Span("pulses.real_pulse", 0.1, 0.2, 0),
        spans.Span("pulses.real_pulse", 2.0, 2.1, -1),
        spans.Span("linalg.eig", 0.3, 0.4, 0, {"dim3": 512}),
    ]
    counts = spans.engine_counts(trace)
    assert counts["realization_cycles"] == 20
    assert counts["pulse_applications"] == 40
    assert counts["real_pulse_builds"] == 1
    assert counts["dense_dim_max"] == 8
    assert counts["dim3"] == {"linalg.eig": 512}


def _tiny_spec():
    model = spinbath.default_model(seed=3, n_bath=2)
    return spinbath.RunSpec(model=model, timeline=spinbath.compile_cpmg(10.0, 0.0, 4))


def test_calls_through_any_binding_count_toward_one_metric():
    spec = _tiny_spec()
    tracer = spans.Tracer()
    tracer.install()
    try:
        direct = spinbath.engine.propagate(spec)
        reexported = spinbath.propagate(spec)
        spinbath.analysis.hahn_decay_trace(spec.model, [5.0])
    finally:
        tracer.uninstall()
    totals = spans.layer_totals(tracer.take())
    assert totals["engine.propagate"]["calls"] == 3
    assert totals["analysis.hahn_decay_trace"]["calls"] == 1
    assert totals["hamiltonians.build_h_free"]["calls"] == 3
    assert totals["linalg.eigh"]["calls"] >= 3
    np.testing.assert_array_equal(direct.s, reexported.s)


def _bindings():
    """Every (owner, attribute, object) the tracer may replace."""
    found = []
    originals = set()
    for _, owner_name, attr, _ in spans.TARGETS:
        owner = spans._resolve(owner_name)
        found.append((owner, attr, owner.__dict__[attr]))
        originals.add(id(owner.__dict__[attr]))
    for module in spans._package_modules():
        for key, value in vars(module).items():
            if id(value) in originals:
                found.append((module, key, value))
    return found


def test_uninstall_restores_every_binding():
    before = _bindings()
    assert spinbath.cli.propagate is spinbath.engine.propagate
    tracer = spans.Tracer()
    tracer.install()
    patched = [(o, a) for o, a, v in before if o.__dict__[a] is not v]
    assert len(patched) == len(before)
    assert spinbath.analysis.propagate is spinbath.engine.propagate is spinbath.cli.propagate
    tracer.uninstall()
    for owner, attr, value in before:
        assert owner.__dict__[attr] is value, f"{owner.__name__}.{attr} not restored"


def _gate_with_reference(outputs):
    return checks.Gate(list(outputs), copy.deepcopy(outputs))


def _outputs():
    return {
        "run.n2": {"times": [0.0, 1.0, 2.0], "s": [1.0, 0.9, 0.7]},
        "point.tau5": {"decay_time": 120.0, "flag": "ok"},
        "tau_b": {"value": 110.0, "reached": True},
    }


def test_matching_outputs_pass():
    gate = _gate_with_reference(_outputs())
    gate.record(_outputs())
    assert (gate.attempted, gate.failed) == (3, 0)


@pytest.mark.parametrize("op_id, key, value", [
    ("run.n2", "s", [1.0, 0.9, 0.7 + 1e-6]),
    ("point.tau5", "flag", "not_reached"),
    ("point.tau5", "decay_time", 120.0 * (1 + 1e-6)),
    ("tau_b", "reached", False),
])
def test_perturbed_output_is_a_failed_op(op_id, key, value):
    gate = _gate_with_reference(_outputs())
    perturbed = _outputs()
    perturbed[op_id][key] = value
    gate.record(perturbed)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert gate.problems[0].startswith(op_id)


def test_invariants_apply_without_reference():
    gate = checks.Gate(["run.n2"], reference=None)
    gate.record({"run.n2": {"times": [0.0, 1.0, 2.0], "s": [1.0, 1.1, 0.7]}})
    assert gate.failed == 1
    gate.record({"run.n2": {"times": [0.0, 1.0, 2.0], "s": [1.0, 0.9, 0.7]}})
    assert (gate.attempted, gate.failed) == (2, 1)


def test_a_pass_that_raises_fails_all_its_ops():
    gate = checks.Gate(["a", "b"])
    gate.record_error(RuntimeError("boom"))
    assert (gate.attempted, gate.failed) == (2, 2)


def test_traced_metrics_are_the_declared_per_layer_metrics():
    import json
    import os

    import run
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    metrics, _ = run.layer_metrics([[]], 1.0, [1.0])
    assert {name: run.unit_of(name) for name in metrics} == declared
