"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))  # the xyzent under test, as run.main does


def _argvs(workload, seed, rounds=3):
    schedule = workloads.Schedule(workload, seed)
    return [[op.argv for op in schedule.round()] for _ in range(rounds)]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_argv(workload):
    assert _argvs(workload, 11) == _argvs(workload, 11)
    assert _argvs(workload, 11) != _argvs(workload, 12)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_round_holds_the_same_op_mix(workload):
    def mix(ops):
        return sorted(op.category for op in ops)

    schedule = workloads.Schedule(workload, 3)
    first = mix(schedule.round())
    assert all(mix(schedule.round()) == first for _ in range(5))


def test_self_time_of_a_hand_built_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["a.child", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        # overlaps b and runs past the root's end: only [9, 10] is new
        ["c", 8.0, 11.0, 0, 0],
    ]
    assert tracing.self_times(spans) == pytest.approx([2.0, 2.0, 1.0, 4.0, 3.0])


def test_import_times_keep_nested_numpy_inside_scipy():
    lines = [
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        30 |         30 |       numpy.fft",
        "import time:        20 |         50 |     scipy",
        "import time:        10 |         10 |     scipy.special",
        "import time:         5 |        215 |   xyzent",
    ]
    got = tracing.import_times("\n".join(lines))
    assert got["setup.numpy_s"] == pytest.approx(150e-6)
    assert got["setup.scipy_s"] == pytest.approx(60e-6)
    assert got["setup.xyzent_s"] == pytest.approx(5e-6)


def test_instrument_rebinds_from_imports_and_restores():
    import xyzent.cli
    import xyzent.criteria
    import xyzent.limits
    import xyzent.meanfield
    import xyzent.model
    import xyzent.states

    bound = [
        (xyzent.states, "eigensystem"),
        (xyzent.limits, "eigensystem"),
        (xyzent.meanfield, "eigensystem"),
        (xyzent.limits, "thermal_probabilities"),
        (xyzent.criteria, "separability_exact"),
        (xyzent.cli, "canonicalize"),
    ]
    before = [getattr(m, name) for m, name in bound]
    restore = tracing.instrument(tracing.Tracer())
    try:
        assert all(getattr(m, name) is not fn for (m, name), fn in zip(bound, before))
    finally:
        restore()
    assert all(getattr(m, name) is fn for (m, name), fn in zip(bound, before))


@pytest.fixture
def work(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def _small_ops():
    model = workloads.Model(vx=1.3, vy=-0.4, vz=0.2, b=0.7)
    temp = workloads._make("temp_sweep", "warm", 0, "sweep_temp", model, 3e5, (0.0, 2.0))
    field = workloads._make("field_scan", "sweep", 0, "sweep_b", model, 2e-3, (0.0, 1.5))
    return temp, field


def test_traced_op_writes_the_same_bytes(work):
    for op in _small_ops():
        plain = run.run_inprocess(op, "plain")
        tracer = tracing.Tracer()
        restore = tracing.instrument(tracer)
        try:
            traced = run.run_inprocess(op, "traced")
        finally:
            restore()
        assert plain["code"] == traced["code"] == 0
        assert traced["outputs"] == plain["outputs"]
        assert len(tracer.spans) > op.items


def test_one_eigensystem_per_temperature_row(work):
    op, _ = _small_ops()
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        run.run_inprocess(op, "traced")
    finally:
        restore()
    m = tracing.layer_metrics(tracer)
    assert m["model.eigensystem.calls"] == op.items
    assert m["states.thermal_mixture.calls"] == op.items
    assert m["limits.self_s"] == 0.0 and m["meanfield.self_s"] == 0.0
    assert m["linalg.calls"] == 0


def test_small_ops_pass_every_check(work):
    import checks

    for op in _small_ops():
        res = run.run_inprocess(op, "plain")
        assert checks.check(op, res["outputs"]) == []


def test_checks_catch_a_wrong_value(work):
    import checks

    op, _ = _small_ops()
    res = run.run_inprocess(op, "plain")
    lines = res["outputs"]["stdout"].decode().splitlines()
    cells = lines[100].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)  # concurrence
    lines[100] = ",".join(cells)
    assert checks.check(op, {"stdout": "\n".join(lines).encode()}) != []


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.metric_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_references_cover_the_pool(workload):
    refs = run.load_references(workload)
    ops = [op for members in workloads.pool(workload).values() for op in members]
    assert sorted(refs) == sorted(op.key for op in ops)
    assert all(refs[op.key]["argv"] == list(op.argv) for op in ops)
