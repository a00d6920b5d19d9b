"""Tests for the benchmark itself (not part of the tacpush suite).

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

import workloads  # first: puts the checkout's src/ on sys.path

import run
import tracer as tracing
from tacpush import exp_harness as eh

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def tiny_workload(workers=1):
    """Two short exp-1 trials: enough to exercise every traced layer."""

    def make_grid(seed, k):
        return [
            eh.exp1_scenario(off, 0.0, eh.derive_seed(seed, k, i), max_taps=3, name=f"tiny{i}_t{k}")
            for i, off in enumerate((-10.0, 20.0))
        ]

    return workloads.Workload("tiny", cycle=1, workers=workers, make_grid=make_grid)


def traced_run(tmp_path, workers=1):
    workload = tiny_workload(workers)
    spool = tmp_path / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(spool)
    passes = run.measure(eh, workload, workload.grids(7), 1e-3, tmp_path / "grid", tracer)
    return run.per_layer(tracer, passes), passes


def bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "tacpush" or name.startswith("tacpush.")
        for attr, value in vars(module).items()
    }


def test_emitted_metric_names_and_units_are_valid(tmp_path):
    workload = tiny_workload()
    passes = run.measure(eh, workload, workload.grids(7), 1e-3, tmp_path / "grid")
    e2e, _ = run.end_to_end(passes, workload.cycle, [0.5], 10.0)
    layer, _ = traced_run(tmp_path)
    units = {**run.END_TO_END, **run.PER_LAYER}
    assert set(e2e) == set(run.END_TO_END)
    assert set(layer) == set(run.PER_LAYER)
    for name in [*e2e, *layer]:
        assert NAME.match(name), name
        assert UNIT.match(units[name]), units[name]


def test_benchmark_json_lists_what_the_run_emits():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_traced_counts_repeat_exactly(tmp_path):
    first, _ = traced_run(tmp_path / "a")
    second, _ = traced_run(tmp_path / "b")
    counts = [n for n, unit in run.PER_LAYER.items() if unit in ("count", "ratio")]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["scene.boundary_probe.calls_per_tap"] > 0
    assert first["push_dynamics.substeps_per_tap"] > 0


def test_tracing_does_not_change_outputs(tmp_path):
    _, passes = traced_run(tmp_path)
    assert [p.traced for p in passes] == [False, True]
    checks = run.gate(passes)
    assert checks["repeats_agree"] and checks["traced_agrees_with_untraced"]
    assert checks["problems"] == []


def test_repeats_keep_counts_but_drop_their_records(tmp_path):
    workload = tiny_workload()
    passes = run.measure(eh, workload, workload.grids(7), 1e-3, tmp_path / "grid")
    assert [p.grid for p in passes] == [0, 0]
    first, repeat = passes
    assert repeat.records is None
    assert repeat.failed == first.failed == sum(r.outcome != "reached" for r in first.records)
    assert len(repeat.trial_ms) == len(first.records)


def test_traced_times_are_scaled_by_their_pass_speed(tmp_path):
    workload = tiny_workload()
    spool = tmp_path / "spool"
    spool.mkdir()
    tracer = tracing.Tracer(spool)
    passes = run.measure(eh, workload, workload.grids(7), 1e-3, tmp_path / "grid", tracer)
    (traced,) = [p for p in passes if p.traced]
    name = "push_dynamics.simulate_tap"
    raw_us = tracer.total_ns[name] / tracer.calls[name] / 1000.0
    scaled = run.per_layer(tracer, passes)[name + ".us_per_call"]
    assert scaled == pytest.approx(raw_us * traced.speed)


def test_tracer_patches_every_binding_and_restores_them(tmp_path):
    before = bindings()
    originals = {before[("tacpush." + module, fn)] for module, fn in tracing.TARGETS}
    tracer = tracing.Tracer(tmp_path)
    with tracer:
        during = bindings()
        patched = [key for key, value in before.items() if any(value is o for o in originals)]
        for key in patched:
            assert during[key] is not before[key], f"{key} not patched"
        assert ("tacpush.push_dynamics", "boundary_probe") in patched
        assert ("tacpush.scene", "euler_to_transform") in patched
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_is_restored_when_a_traced_pass_raises(tmp_path):
    before = bindings()
    tracer = tracing.Tracer(tmp_path)
    with pytest.raises(ZeroDivisionError):
        with tracer:
            1 / 0
    assert all(bindings()[key] is value for key, value in before.items())


def test_pool_workers_send_their_counts_back(tmp_path):
    sequential, _ = traced_run(tmp_path / "seq")
    pooled, _ = traced_run(tmp_path / "pool", workers=2)
    for name in ("scene.boundary_probe.calls_per_tap", "push_dynamics.substeps_per_tap",
                 "pose_math.euler_to_transform.calls_per_tap"):
        assert pooled[name] == sequential[name]
    assert list((tmp_path / "pool" / "spool").iterdir()) == []


def child_pids() -> list:
    """Processes whose parent is this one (Linux only)."""
    tasks = Path("/proc/self/task")
    return [int(pid) for task in tasks.iterdir() for pid in (task / "children").read_text().split()]


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_pool_run_leaves_no_process_behind(tmp_path):
    traced_run(tmp_path, workers=2)
    assert child_pids() == []


def test_every_workload_pushes_the_probe_metric_shape():
    for workload in workloads.WORKLOADS.values():
        pushed = {sc.object.name for grid in workload.grids(1) for sc in grid}
        assert run.PROBE_SHAPE in pushed, workload.name
