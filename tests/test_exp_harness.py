import contextlib
import dataclasses
import importlib.util
import json
import math
import os
import re
import signal
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tacpush import exp_harness, push_dynamics
from tacpush.cli import main as cli_main
from tacpush.exp_harness import (
    EXP1_ANGULAR_OFFSETS_DEG,
    EXP1_SPATIAL_OFFSETS_MM,
    EXP2_SHAPE_NAMES,
    EXP3_SHAPE_NAMES,
    EXP_START_POSES,
    Tap,
    compute_metrics,
    compute_y_targ,
    derive_seed,
    exp1_grid,
    exp1_scenario,
    exp2_grid,
    exp2_scenario,
    exp3_grid,
    export,
    load_records,
    place_corner_contact,
    place_offset_contact,
    place_random_orientation,
    plot,
    read_taps_csv,
    run_trial,
    run_trials,
)
from tacpush.scenario import load_scenario
from tacpush.scene import (
    TIP_RADIUS_MM,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
    heading_dir,
)
from tacpush.tactile_sense import NoiseModel

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "exp1_baseline.json"
# seconds a forked batch may take, hung workers included
WORKER_BOUND_S = 60
# the scenario whose worker run_trial_or_exit ends
DOOMED = "batch_1"
# the smallest records.json summary that plot draws, of a trial with no taps
PLOTTABLE = {
    "scenario_id": "p",
    "seed": 0,
    "outcome": "max_taps",
    "y_targ": None,
    "tap_total": 0,
    "final_pusher_pose": [0.0] * 6,
    "final_object_pose": [0.0] * 3,
    "meta": {
        "target_pose_mm_deg": [0.0, 200.0, 400.0, 0.0, 0.0, 0.0],
        "shape": {"circle_radius_mm": 35.0},
        "approach_zone_radius_mm": 60.0,
        "termination_radius_mm": 20.0,
    },
}
SIX = ("x_mm", "y_mm", "z_mm", "alpha_deg", "beta_deg", "gamma_deg")
# tap 0 of PLOTTABLE's trial as a taps.csv (v2) row, by column
TAP = {
    "scenario_id": "p", "seed": "0", "tap": "0",
    "pusher_y_mm": "0.0", "pusher_z_mm": "0.0", "pusher_alpha_deg": "0.0",
    "object_y_mm": "0.0", "object_z_mm": "0.0", "object_alpha_deg": "0.0",
    "in_contact": "1", "z_depth_mm": "1.0", "alpha_pred_deg": "0.0", "clamped": "0",
    "theta_deg": "0.0", "r_mm": "400.0", "v_mm": "0.0", **{f"err_{c}": "0.0" for c in SIX},
    "contact_mode": "sticking", "status": "continue", **{f"int_{c}": "0.0" for c in SIX},
}
TAP_ROW = ",".join(TAP.values())


def write_run(directory: Path, summaries, taps=(), drop=()) -> Path:
    """Write a records.json (version 2) of `summaries` and the taps.csv beside
    it; `taps` is a list of rows, each a TAP-like dict or a raw line, without
    the columns in `drop`, or the whole file's text. Returns the records path."""
    if isinstance(taps, str):
        text = taps
    else:
        columns = [c for c in TAP if c not in drop]
        lines = ["# tacpush-taps-v2", ",".join(columns)]
        lines += [r if isinstance(r, str) else ",".join(r[c] for c in columns) for r in taps]
        text = "\n".join(lines) + "\n"
    (directory / "taps.csv").write_text(text)
    path = directory / "records.json"
    path.write_text(json.dumps({"version": 2, "records": summaries}))
    return path


def child_pids() -> list:
    """Processes whose parent is this one (Linux only)."""
    tasks = Path("/proc/self/task")
    return [int(pid) for task in tasks.iterdir() for pid in (task / "children").read_text().split()]


@contextlib.contextmanager
def time_bound(seconds: int):
    """Raise TimeoutError in the block if it runs longer than `seconds`."""
    def give_up(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, give_up)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run_trial_or_exit(scenario):
    """run_trial, but the process exits on the DOOMED scenario, as a worker
    killed mid-trial would."""
    if scenario.name == DOOMED:
        os._exit(1)
    return run_trial(scenario)


def planar(pose6) -> PlanarPose:
    """Read a recorded (x, y, z, alpha, beta, gamma) pose that must lie in the plane."""
    x, y, z, alpha, beta, gamma = pose6
    assert (x, beta, gamma) == (0.0, 0.0, 0.0)
    return PlanarPose(y, z, alpha)


class TestComputeYTarg:
    def test_axis_through_target(self):
        pusher = PlanarPose(0, 0, 0)
        target = PlanarPose(0, 123.0, 0)
        assert compute_y_targ(pusher, target) == pytest.approx(0.0)

    def test_lateral_offset(self):
        pusher = PlanarPose(0, 0, 0)
        target = PlanarPose(5.0, 100.0, 0)
        assert compute_y_targ(pusher, target) == pytest.approx(5.0)

    def test_matches_line_sampling(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pusher_p = PlanarPose(*rng.uniform(-200, 200, size=2),
                                  float(rng.uniform(-180, 180)))
            target_p = PlanarPose(*rng.uniform(-200, 200, size=2))
            axis = np.array(heading_dir(pusher_p.alpha))
            ts = np.linspace(-2_000, 2_000, 200_001)
            pts = np.array([pusher_p.y, pusher_p.z]) + ts[:, None] * axis
            brute = float(np.min(np.linalg.norm(pts - [target_p.y, target_p.z], axis=1)))
            assert compute_y_targ(pusher_p, target_p) == pytest.approx(brute, abs=1e-3)


class TestRunTrial:
    def test_baseline_reaches_with_noise_off(self):
        sc = dataclasses.replace(exp1_scenario(0.0, 0.0, seed=7), noise=NoiseModel(enabled=False))
        rec = run_trial(sc)
        assert rec.outcome == "reached"
        assert rec.y_targ is not None and rec.y_targ < 5.0
        assert rec.tap_total == len(rec.taps)
        assert [t.tap for t in rec.taps] == list(range(rec.tap_total))
        assert rec.tap_total < 300

    def test_far_target_hits_tap_budget(self):
        sc = dataclasses.replace(
            exp1_scenario(0.0, 0.0, seed=1),
            target_pose=PlanarPose(500.0, 1_000.0, 0.0),
            max_taps=3,
        )
        rec = run_trial(sc)
        assert rec.outcome == "max_taps"
        assert rec.tap_total == 3
        assert rec.y_targ is None

    def test_deterministic_given_seed(self):
        sc = exp1_scenario(10.0, -20.0, seed=99)
        a = json.dumps(dataclasses.asdict(run_trial(sc)), sort_keys=True)
        b = json.dumps(dataclasses.asdict(run_trial(sc)), sort_keys=True)
        # wall time differs between runs; strip it before comparing
        da, db = json.loads(a), json.loads(b)
        da.pop("wall_time_ms"), db.pop("wall_time_ms")
        assert da == db

    def test_y_targ_consistent_with_final_pose(self):
        rec = run_trial(exp1_scenario(20.0, 0.0, seed=3))
        assert rec.outcome == "reached"
        recomputed = compute_y_targ(
            planar(rec.final_pusher_pose), planar(rec.meta["target_pose_mm_deg"])
        )
        assert recomputed == rec.y_targ

    def test_records_hold_python_floats(self):
        # the object starts 2 mm clear of the tip, so the first reading has no
        # contact and the first command is a reacquire move
        sc = exp1_scenario(0.0, 0.0, seed=1, max_taps=4)
        start = sc.object_start_pose
        sc = dataclasses.replace(
            sc, object_start_pose=PlanarPose(start.y, start.z + 3.0, start.alpha)
        )
        rec = run_trial(sc)
        assert rec.taps[0].in_contact is False and rec.taps[1].in_contact is True
        values = [*rec.final_pusher_pose, *rec.final_object_pose]
        values += [value for tap in rec.taps for value in tap]
        assert not [x for x in values if isinstance(x, np.generic)]

    def test_scenario_file_round_trip(self):
        rec = run_trial(load_scenario(BASELINE))
        assert rec.outcome == "reached"

    def test_pusher_start_too_far_for_the_probe_ends_the_trial_by_name(self, tmp_path):
        # a finite start that validates, but whose squared distance to the
        # square overflows in the probe
        spec = json.loads(BASELINE.read_text())
        spec["pusher_start_pose_mm_deg"][2] = 1e160
        path = tmp_path / "far.json"
        path.write_text(json.dumps(spec))
        rec = run_trial(load_scenario(path))
        assert rec.outcome == "error"
        assert rec.meta["error"].startswith("ValueError: boundary_probe: p_work (0.0, 1e+160)")

    def test_unexpected_exception_ends_only_its_trial(self, monkeypatch):
        real_simulate_tap = exp_harness.simulate_tap

        def simulate_tap(world, shape, *args, **kwargs):
            if shape.name == "rectangle":
                raise ZeroDivisionError("forced failure")
            return real_simulate_tap(world, shape, *args, **kwargs)

        monkeypatch.setattr(exp_harness, "simulate_tap", simulate_tap)
        scenarios = [exp2_scenario(name, 0, seed=5) for name in ("red_square", "rectangle")]
        good, bad = run_trials(scenarios)
        assert good.outcome == "reached"
        assert bad.outcome == "error"
        assert bad.meta["error"] == "ZeroDivisionError: forced failure"
        assert bad.tap_total == 0 and bad.y_targ is None

    def test_physics_fault_ends_the_trial_and_loads_back_equal(self, monkeypatch, tmp_path):
        # the third tap's resolution may take no step, so its first
        # overlapping substep raises resolve_substep's own fault
        real_simulate_tap = exp_harness.simulate_tap
        calls = []

        def simulate_tap(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                monkeypatch.setattr(push_dynamics, "MAX_RESOLVE_ITERS", 0)
            return real_simulate_tap(*args, **kwargs)

        monkeypatch.setattr(exp_harness, "simulate_tap", simulate_tap)
        rec = run_trial(exp1_scenario(0.0, 0.0, seed=11))
        assert rec.outcome == "physics_fault" and len(calls) == 3
        assert rec.tap_total == len(rec.taps) == 2 and rec.y_targ is None
        fault = rec.meta["fault"]
        assert sorted(fault) == ["object_pose", "penetration", "tip"]
        assert fault["penetration"] > push_dynamics.PENETRATION_TOL_MM
        assert [len(fault["tip"]), len(fault["object_pose"])] == [2, 3]
        loaded = load_records(export([rec], tmp_path)["records"])
        assert loaded == [dataclasses.replace(rec, wall_time_ms=None)]


class TestSeedDerivation:
    def test_golden_values(self):
        assert derive_seed(0) == 16294208416658607535
        assert derive_seed(0, 1, 2) == 11994755310158905061
        assert derive_seed(123456789, 20, 9) == 10543273230160428002

    def test_distinct_across_grid(self):
        seeds = {derive_seed(0, c, t) for c in range(30) for t in range(30)}
        assert len(seeds) == 900


class TestExperimentGrids:
    def test_exp1_cell_count(self):
        records = run_trials(exp1_grid(1, 0))
        assert len(records) == len(EXP1_SPATIAL_OFFSETS_MM) * len(EXP1_ANGULAR_OFFSETS_DEG)
        assert compute_metrics(records).n_trials == 21
        ids = [r.scenario_id for r in records]
        assert len(set(ids)) == 21

    @pytest.mark.parametrize("grid", [exp1_grid, exp2_grid, exp3_grid])
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 3, True, 1.5])
    def test_master_seed_outside_64_bits_rejected(self, grid, seed):
        # a bool or a float is no 64-bit seed either: True would run the
        # grid of seed 1
        with pytest.raises(
            ValueError, match=rf"^master_seed: expected an integer in \[0, 2\*\*64\), got {seed}$"
        ):
            grid(1, seed)

    @pytest.mark.parametrize("grid", [exp1_grid, exp2_grid, exp3_grid])
    def test_largest_master_seed_accepted(self, grid):
        top = [s.rng_seed for s in grid(1, (1 << 64) - 1)]
        assert top != [s.rng_seed for s in grid(1, 0)]

    def test_grids_seed_each_cell_and_trial(self):
        exp1 = exp1_grid(2, 3)
        assert [s.rng_seed for s in exp1] == [
            derive_seed(3, cell, t) for cell in range(21) for t in range(2)
        ]
        assert exp1[5].name == "exp1_o-30_a+20_t1"
        exp2 = exp2_grid(2, 3)
        assert [s.rng_seed for s in exp2] == [
            derive_seed(4, cell, t) for cell in range(15) for t in range(2)
        ]
        assert [s.name for s in exp2[6:8]] == [
            "exp2_red_square_start1_t0", "exp2_red_square_start1_t1"
        ]
        assert [s.object.name for s in exp2[::6]] == list(EXP2_SHAPE_NAMES)
        exp3 = exp3_grid(2, 3)
        assert [s.rng_seed for s in exp3] == [
            derive_seed(5, i, t, 1) for i in range(5) for t in range(2)
        ]
        assert [s.object.name for s in exp3[::2]] == list(EXP3_SHAPE_NAMES)
        assert {s.max_taps for s in exp3} == {600}
        assert {s.pusher_start_pose for s in exp3} == {EXP_START_POSES[1]}
        assert len({s.object_start_pose.alpha for s in exp3}) == 10

    def test_exp2_single_cell(self):
        grid = [s for s in exp2_grid(2, 4) if s.name.startswith("exp2_red_square_start1_")]
        records = run_trials(grid)
        assert len(records) == 2
        assert [r.seed for r in records] == [derive_seed(5, 3, t) for t in range(2)]

    def test_exp3_orientation_reproducible(self):
        grid = [s for s in exp3_grid(2, 5) if s.object.name == "circle"]
        a, b = run_trials(grid), run_trials(grid)
        assert len(a) == 2
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.final_object_pose == rb.final_object_pose

    def test_worker_pool_matches_sequential(self):
        scenarios = [exp1_scenario(off, 0.0, seed=derive_seed(8, i))
                     for i, off in enumerate((-10.0, 0.0, 10.0))]
        seq = run_trials(scenarios, workers=1)
        par = run_trials(scenarios, workers=2)
        for a, b in zip(seq, par):
            da, db = dataclasses.asdict(a), dataclasses.asdict(b)
            da.pop("wall_time_ms"), db.pop("wall_time_ms")
            assert da == db

    def test_worker_pool_is_no_larger_than_the_batch(self, monkeypatch):
        # a recording stand-in for the forked workers runs the batch in this
        # process, so no real process is started
        sizes = []

        def run_forked(scenarios, workers):
            sizes.append(workers)
            return [run_trial(s) for s in scenarios]

        monkeypatch.setattr(exp_harness, "_run_forked", run_forked)
        scenarios = [exp1_scenario(off, 0.0, seed=derive_seed(8, i), max_taps=2)
                     for i, off in enumerate((-10.0, 10.0))]
        records = run_trials(scenarios, workers=5000)
        assert sizes == [2]
        assert [r.scenario_id for r in records] == [s.name for s in scenarios]
        run_trials(scenarios[:1], workers=5000)
        assert sizes == [2]

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
    def test_a_lost_worker_is_named_and_never_hangs(self, monkeypatch):
        scenarios = [exp1_scenario(off, 0.0, seed=derive_seed(8, i), max_taps=2, name=f"batch_{i}")
                     for i, off in enumerate((-10.0, 0.0, 10.0, 20.0))]
        assert scenarios[1].name == DOOMED
        # the forked workers inherit the patched run_trial
        monkeypatch.setattr(exp_harness, "run_trial", run_trial_or_exit)
        before = set(child_pids())
        with time_bound(WORKER_BOUND_S), pytest.raises(RuntimeError) as info:
            run_trials(scenarios, workers=2)
        message = str(info.value)
        assert [s.name for s in scenarios if s.name in message] == [DOOMED]
        assert set(child_pids()) <= before

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
    def test_more_workers_than_cores_run_each_scenario_once(self, monkeypatch, tmp_path):
        # trials that take no time, so the workers contend for the shared
        # counter; a lost update would run an index twice or never
        log = tmp_path / "runs.txt"

        def run_trial(scenario):
            with open(log, "a") as f:
                f.write(scenario.name + "\n")
            return scenario.name

        monkeypatch.setattr(exp_harness, "run_trial", run_trial)
        scenarios = [SimpleNamespace(name=f"s{i}") for i in range(400)]
        before = set(child_pids())
        with time_bound(WORKER_BOUND_S):
            records = run_trials(scenarios, workers=min(os.cpu_count() or 1, 15) + 1)
        assert records == [s.name for s in scenarios]
        assert sorted(log.read_text().split()) == sorted(records)
        assert set(child_pids()) <= before

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True, "2", None])
    def test_workers_must_be_an_int_of_at_least_1(self, workers):
        scenarios = [exp1_scenario(off, 0.0, seed=derive_seed(8, i), max_taps=2)
                     for i, off in enumerate((-10.0, 10.0))]
        with pytest.raises(ValueError, match=re.escape(
            f"run_trials: workers must be an int of at least 1, got {workers!r}"
        )):
            run_trials(scenarios, workers)


class TestPlacement:
    def test_corner_centred_polygon(self):
        shape = builtin_shapes()["blue_square"]
        pose = place_corner_contact(shape, PlanarPose())
        sd, point, n_out, feature = boundary_probe(shape, pose, np.zeros(2))
        assert feature[0] == "vertex"
        assert TIP_RADIUS_MM - sd == pytest.approx(1.0, abs=1e-6)
        # corner dead ahead of the axis
        assert point == pytest.approx([0.0, 19.0], abs=1e-9)

    @pytest.mark.parametrize("start", EXP_START_POSES)
    def test_offset_contact_seats_the_offset_point_dead_ahead(self, start):
        shape = builtin_shapes()["rectangle"]
        (y0, z0), (y1, z1) = shape.polygon[:2].tolist()
        length = math.hypot(y1 - y0, z1 - z0)
        ay, az = heading_dir(start.alpha)
        tip = np.array([start.y, start.z])
        for off in (-20.0, 0.0, 10.0):
            # the object-frame point `off` mm from the first edge's midpoint, along it
            py = 0.5 * (y0 + y1) + off * (y1 - y0) / length
            pz = 0.5 * (z0 + z1) + off * (z1 - z0) / length
            level = place_offset_contact(shape, start, off, 0.0)
            sd, point, n_out, feature = boundary_probe(shape, level, tip)
            assert feature == ("edge", 0)
            assert TIP_RADIUS_MM - sd == pytest.approx(1.0, abs=1e-9)
            assert n_out == pytest.approx((-ay, -az), abs=1e-12)
            for ang in EXP1_ANGULAR_OFFSETS_DEG:
                pose = place_offset_contact(shape, start, off, ang)
                c, s = math.cos(math.radians(pose.alpha)), math.sin(math.radians(pose.alpha))
                seated = (pose.y + c * py - s * pz, pose.z + s * py + c * pz)
                assert seated == pytest.approx(
                    (start.y + (TIP_RADIUS_MM - 1.0) * ay, start.z + (TIP_RADIUS_MM - 1.0) * az),
                    abs=1e-9,
                )
                turn = (pose.alpha - level.alpha - ang + 180.0) % 360.0 - 180.0
                assert turn == pytest.approx(0.0, abs=1e-9)

    def test_corner_centred_circle(self):
        shape = builtin_shapes()["circle"]
        pose = place_corner_contact(shape, PlanarPose())
        sd, _, _, _ = boundary_probe(shape, pose, np.zeros(2))
        assert TIP_RADIUS_MM - sd == pytest.approx(1.0, abs=1e-9)

    def test_random_orientation_depth(self):
        shape = builtin_shapes()["mug"]
        for heading in (0.0, 73.0, 201.0, 340.0):
            pose = place_random_orientation(shape, PlanarPose(), heading)
            sd, _, _, _ = boundary_probe(shape, pose, np.zeros(2))
            assert TIP_RADIUS_MM - sd == pytest.approx(1.0, abs=1e-3)
            assert pose.alpha == pytest.approx(
                heading if heading <= 180 else heading - 360
            )


class TestMetrics:
    def test_two_pass_agreement(self):
        records = run_trials(exp1_grid(1, 2))
        metrics = compute_metrics(records)
        ys = [r.y_targ for r in records if r.outcome == "reached"]
        mean = sum(ys) / len(ys)
        var = sum((y - mean) ** 2 for y in ys) / len(ys)
        assert abs(metrics.mean_y_targ - mean) < 1e-12
        assert abs(metrics.std_y_targ - math.sqrt(var)) < 1e-12
        assert metrics.success_rate == len(ys) / len(records)
        assert metrics.tap_counts == [r.tap_total for r in records]

    def test_empty_and_all_failed(self):
        empty = compute_metrics([])
        assert empty.n_trials == 0 and empty.mean_y_targ is None


@pytest.fixture(scope="module")
def records():
    return [
        run_trial(exp1_scenario(0.0, 0.0, seed=11)),
        run_trial(exp1_scenario(10.0, 20.0, seed=12)),
    ]


class TestExport:

    def test_writes_all_files(self, records, tmp_path):
        paths = export(records, tmp_path)
        for key in ("records", "taps", "timings", "metrics"):
            assert paths[key].exists()
        data = json.loads(paths["records"].read_text())
        assert data["version"] == 2 and len(data["records"]) == 2
        # each trial's summary: every field but its taps and its wall time
        summary = {f.name for f in dataclasses.fields(records[0])} - {"taps", "wall_time_ms"}
        assert [set(r) for r in data["records"]] == [summary, summary]
        timings = json.loads(paths["timings"].read_text())
        assert timings == [
            {"scenario_id": r.scenario_id, "wall_time_ms": r.wall_time_ms} for r in records
        ]
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["n_trials"] == 2
        # a tap's fields are its taps.csv columns after scenario_id and seed
        header = paths["taps"].read_text().splitlines()[1]
        assert header.split(",") == ["scenario_id", "seed", *Tap._fields]

    def test_csv_round_trip_y_targ(self, records, tmp_path):
        paths = export(records, tmp_path)
        rows = read_taps_csv(paths["taps"])
        for rec in records:
            last = [r for r in rows if r["scenario_id"] == rec.scenario_id][-1]
            pusher = PlanarPose(
                float(last["pusher_y_mm"]),
                float(last["pusher_z_mm"]),
                float(last["pusher_alpha_deg"]),
            )
            target = planar(rec.meta["target_pose_mm_deg"])
            assert compute_y_targ(pusher, target) == rec.y_targ

    def test_empty_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no records"):
            export([], tmp_path)

    def test_byte_identical_rewrites(self, records, tmp_path):
        p1 = export(records, tmp_path / "a")["taps"].read_bytes()
        p2 = export(records, tmp_path / "b")["taps"].read_bytes()
        assert p1 == p2

    def test_rerun_writes_the_same_records_json(self, records, tmp_path):
        # the wall times of a rerun differ, and only timings.json holds them
        rerun = [run_trial(exp1_scenario(0.0, 0.0, seed=11)),
                 run_trial(exp1_scenario(10.0, 20.0, seed=12))]
        first, second = export(records, tmp_path / "a"), export(rerun, tmp_path / "b")
        for key in ("records", "taps", "metrics"):
            assert first[key].read_bytes() == second[key].read_bytes()

    def test_files_load_back_every_tap_value(self, records, tmp_path):
        # the object starts 3 mm further off, so the first reading has no
        # contact and the first tap has no servo error, theta or r
        sc = exp1_scenario(0.0, 0.0, seed=1, max_taps=4)
        start = sc.object_start_pose
        sc = dataclasses.replace(
            sc, object_start_pose=PlanarPose(start.y, start.z + 3.0, start.alpha)
        )
        written = [*records, run_trial(sc)]
        assert {getattr(written[-1].taps[0], f"err_{c}") for c in SIX} == {None}
        assert all(any(tap[-6:]) for tap in records[0].taps[1:])  # the int_* channels
        loaded = load_records(export(written, tmp_path)["records"])
        assert len(loaded) == len(written)
        for rec, back in zip(written, loaded):
            # repr tells apart the types, the signs of zeros and every digit
            assert repr(back.taps) == repr(rec.taps)
            assert back == dataclasses.replace(rec, wall_time_ms=None)
        svg = plot(written, tmp_path / "a.svg").read_bytes()
        assert plot(loaded, tmp_path / "b.svg").read_bytes() == svg

    @pytest.mark.parametrize("cut", [-1, 1], ids=["short_row", "long_row"])
    def test_read_taps_csv_names_a_row_of_another_width(self, records, tmp_path, cut):
        path = export(records, tmp_path)["taps"]
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        lines[3] = ",".join(fields[:-1] if cut < 0 else fields + ["0.0"])
        path.write_text("\n".join(lines) + "\n")
        n = len(fields) + cut
        with pytest.raises(ValueError, match=f"line 4: expected {len(fields)} fields, got {n}$"):
            read_taps_csv(path)

    def test_plot_svg(self, records, tmp_path):
        out = plot(records, tmp_path / "traj.svg")
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "<circle" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        # the files export writes re-plot to the same bytes
        out2 = plot(load_records(export(records, tmp_path)["records"]), tmp_path / "traj2.svg")
        assert out2.read_bytes() == out.read_bytes()

    def test_plot_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot([], tmp_path / "x.svg")


class TestCli:
    def test_validate_ok(self, capsys):
        assert cli_main(["validate", "--scenario", str(BASELINE)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_validate_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert cli_main(["validate", "--scenario", str(bad)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_validate_rejects_out_of_plane_pusher_start(self, tmp_path, capsys):
        data = json.loads(BASELINE.read_text())
        data["pusher_start_pose_mm_deg"][4] = 10.0
        path = tmp_path / "beta.json"
        path.write_text(json.dumps(data))
        assert cli_main(["validate", "--scenario", str(path)]) == 2
        assert "pusher_start_pose" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "override, field",
        [({"noise_enabled": "false"}, "noise_enabled"),
         ({"rng_seed": 1.7}, "rng_seed"),
         ({"rng_seed": "abc"}, "rng_seed"),
         ({"rng_seed": -5}, "rng_seed"),
         ({"rng_seed": 1 << 64}, "rng_seed: expected an integer in [0, 2**64)"),
         ({"controller": {"reacquire_limit": 2.9}}, "reacquire_limit"),
         ({"controller": {"tap_forward_mm": "8"}}, "controller.tap_forward_mm"),
         ({"controller": {"kp_align": True}}, "controller.kp_align"),
         ({"object_start_pose_mm_deg": ["0", "49", False]}, "object_start_pose"),
         ({"controller": {"kp_align": math.inf}}, "controller.kp_align"),
         ({"object": {"shape": "blue_square", "f_max_n": math.nan}}, "object.f_max_n"),
         ({"controller": {"ref_pose_mm_deg": [0, 0, math.nan, 0, 0, 0]}},
          "controller.ref_pose has a non-finite value"),
         ({"controller": {"ref_pose_mm_deg": [0, 0, 2, 0, 5, 0]}},
          "controller.ref_pose: pose is not planar"),
         ({"max_tap": 3}, "unknown field 'max_tap'"),
         ({"object": {"shape": "blue_square", "mu_contac": 0.3}},
          "object: unknown field 'mu_contac'"),
         ({"noise_sigmas": {"z": 5}}, "noise_sigmas: unknown field 'z'"),
         ({"noise_sigmas": {"beta_deg": 0.34}}, "noise_sigmas: unknown field 'beta_deg'"),
         ({"name": 5}, "name: expected a string"),
         ({"max_taps": 2.5}, "max_taps"),
         ({"max_taps": True}, "max_taps"),
         ({"max_taps": 1e400}, "max_taps"),
         ({"name": "a,b"}, "name"),
         ({"name": "two\nlines"}, "name"),
         ({"controller": {"kp_servo_diag": [0, 0, 0.9, 0.9, 0.9, 0]}}, "kp_servo")],
        ids=["noise_enabled_string", "rng_seed_float", "rng_seed_string",
             "rng_seed_negative", "rng_seed_2_64", "reacquire_limit_float", "tap_forward_string",
             "kp_align_bool", "object_start_pose_strings", "kp_align_infinity",
             "f_max_nan", "ref_pose_nan", "ref_pose_non_planar", "unknown_top_level_key",
             "unknown_object_key", "unknown_noise_key", "beta_deg", "name_not_string",
             "max_taps_float", "max_taps_bool", "max_taps_infinity", "name_comma",
             "name_newline", "kp_servo_beta"],
    )
    def test_validate_rejects_ill_typed_field(self, override, field, tmp_path, capsys):
        data = json.loads(BASELINE.read_text())
        data.update(override)
        path = tmp_path / "ill_typed.json"
        path.write_text(json.dumps(data))
        assert cli_main(["validate", "--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenario error" in err and field in err

    def test_run_rejects_negative_seed(self, tmp_path, capsys):
        argv = ["run", "--scenario", str(BASELINE), "--seed", "-1", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert "argument --seed: must be in [0, 2**64)" in capsys.readouterr().err
        assert not (tmp_path / "records.json").exists()

    @pytest.mark.parametrize("command", [["run", "--scenario", str(BASELINE)],
                                         ["exp1"], ["exp2"], ["exp3"]],
                             ids=["run", "exp1", "exp2", "exp3"])
    @pytest.mark.parametrize("seed", [-1, 1 << 64, (1 << 64) + 3])
    def test_seed_outside_64_bits_rejected(self, command, seed, tmp_path, capsys):
        # derived seeds read the seed modulo 2**64: -1, 2**64 and 2**64 + 3
        # would run the trials of 2**64 - 1, 0 and 3
        argv = [*command, "--seed", str(seed), "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        assert f"argument --seed: must be in [0, 2**64), got {seed}" in capsys.readouterr().err
        assert not (tmp_path / "records.json").exists()

    @pytest.mark.parametrize("tool, checkouts", [
        ("trial_digest.py", False), ("tap_replay.py", True), ("bench_compare.py", True)])
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_tools_reject_a_seed_outside_64_bits(self, tool, checkouts, seed, tmp_path):
        # the benchmark's grids read the seed modulo 2**64, so -1 would give
        # the grids of 2**64 - 1; the comparing tools are pointed at empty
        # checkouts, so that one that took the seed would fail at once
        args = ["--parent", str(tmp_path), "--change", str(tmp_path)] if checkouts else []
        if tool == "bench_compare.py":
            args += ["--pairs", "offset_grid=1", "--out", str(tmp_path / "bench.json")]
        proc = subprocess.run([sys.executable, f"tools/{tool}", "--seed", str(seed), *args],
                              cwd=BASELINE.parent.parent, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 2
        assert f"argument --seed: must be in [0, 2**64), got {seed}" in proc.stderr

    def test_bench_compare_rejects_a_pair_seed_outside_64_bits(self):
        # a W@SEED pair spec is a master seed too (the pattern admits no sign)
        path = BASELINE.parent.parent / "tools" / "bench_compare.py"
        spec = importlib.util.spec_from_file_location("bench_compare", path)
        bench_compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench_compare)
        assert bench_compare.parse_pairs([f"offset_grid@{(1 << 64) - 1}=1"], 3) == [
            (f"offset_grid@{(1 << 64) - 1}", "offset_grid", (1 << 64) - 1, 1)]
        with pytest.raises(SystemExit, match="SEED must be below 2"):
            bench_compare.parse_pairs([f"offset_grid@{1 << 64}=1"], 3)

    @pytest.mark.parametrize(
        "argv",
        [["run", "--scenario", str(BASELINE), "--trials", "0"],
         ["run", "--scenario", str(BASELINE), "--workers", "-3"],
         ["exp1", "--trials", "0"],
         ["exp2", "--workers", "0"]],
    )
    def test_counts_below_one_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv)
        assert exc.value.code == 2
        flag = argv[-2]
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err

    def test_run_writes_outputs(self, tmp_path):
        out = tmp_path / "out"
        rc = cli_main(
            ["run", "--scenario", str(BASELINE), "--trials", "1", "--seed", "3",
             "--out", str(out)]
        )
        assert rc == 0
        for name in ("records.json", "taps.csv", "timings.json", "metrics.json",
                     "trajectories.svg"):
            assert (out / name).exists()

    def test_shapes_export(self, tmp_path):
        out = tmp_path / "catalog.json"
        assert cli_main(["shapes", "--out", str(out)]) == 0
        catalog = json.loads(out.read_text())
        assert "blue_square" in catalog and "mug" in catalog

    def test_plot_command(self, tmp_path):
        out = tmp_path / "out"
        cli_main(["run", "--scenario", str(BASELINE), "--out", str(out)])
        svg = tmp_path / "re.svg"
        assert cli_main(
            ["plot", "--records", str(out / "records.json"), "--out", str(svg)]
        ) == 0
        assert svg.exists()

    @pytest.mark.parametrize(
        "payload", [{"version": 1}, {"version": 2, "records": 3}, "records", [1, 2], {"version": 2}]
    )
    def test_plot_without_records_list_fails_cleanly(self, payload, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(payload))
        argv = ["plot", "--records", str(path), "--out", str(tmp_path / "x.svg")]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "records" in err

    @pytest.mark.parametrize("version", [1, None, "2"])
    def test_plot_names_the_records_version_it_rejects(self, version, tmp_path, capsys):
        path = write_run(tmp_path, [PLOTTABLE])
        path.write_text(json.dumps({"version": version, "records": [PLOTTABLE]}))
        argv = ["plot", "--records", str(path), "--out", str(tmp_path / "x.svg")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: records version {version!r}, expected 2\n"
        )

    def test_plot_names_a_records_file_that_is_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{'records': []}")
        argv = ["plot", "--records", str(path), "--out", str(tmp_path / "x.svg")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: invalid JSON: ")
        assert not (tmp_path / "x.svg").exists()

    def test_plot_names_the_first_entry_that_is_not_a_record(self, tmp_path, capsys):
        path = write_run(tmp_path, [{}, [3], 4])
        argv = ["plot", "--records", str(path), "--out", str(tmp_path / "x.svg")]
        assert cli_main(argv) == 1
        assert "records[1] is not a JSON object" in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    @pytest.mark.parametrize(
        "path",
        [("meta",), ("meta", "shape"), ("meta", "approach_zone_radius_mm"),
         ("meta", "termination_radius_mm"), ("tap_total",)],
    )
    def test_plot_names_the_missing_field(self, path, tmp_path, capsys):
        good = PLOTTABLE
        bad = json.loads(json.dumps(good))
        table = bad
        for key in path[:-1]:
            table = table[key]
        del table[path[-1]]
        svg = tmp_path / "x.svg"
        for records, rc in (([good], 0), ([good, bad], 1), ([{}], 1)):
            svg.unlink(missing_ok=True)
            in_path = write_run(tmp_path, records)
            assert cli_main(["plot", "--records", str(in_path), "--out", str(svg)]) == rc
            assert svg.exists() == (rc == 0)
        err = capsys.readouterr().err
        assert f"error: {in_path}: records[1] has no field {'.'.join(path)!r}" in err
        assert f"error: {in_path}: records[0] has no field 'meta'" in err

    @pytest.mark.parametrize("seed", [-1, 1 << 64, 1.0, "0", True, None],
                             ids=["negative", "2_64", "float", "string", "bool", "null"])
    def test_plot_names_a_record_seed_that_is_not_a_64_bit_integer(self, seed, tmp_path, capsys):
        # export writes the record's seed into each of its taps.csv rows
        in_path = write_run(tmp_path, [PLOTTABLE | {"seed": seed}])
        svg = tmp_path / "x.svg"
        assert cli_main(["plot", "--records", str(in_path), "--out", str(svg)]) == 1
        assert not svg.exists()
        assert capsys.readouterr().err == (
            f"error: {in_path}: records[0].seed: expected an integer in [0, 2**64), got {seed!r}\n"
        )

    @pytest.mark.parametrize(
        "fields, message",
        [({"outcome": 7, "y_targ": "abc"}, "outcome: expected one of reached, lost_contact, "
          "max_taps, physics_fault, error, got 7"),
         ({"outcome": "done"}, "outcome: expected one of reached, lost_contact, max_taps, "
          "physics_fault, error, got 'done'"),
         ({"outcome": "reached", "y_targ": "abc"}, "y_targ: expected a number, got 'abc'"),
         ({"outcome": "reached"}, "y_targ: expected a number, got None"),
         ({"outcome": "reached", "y_targ": math.inf}, "y_targ has a non-finite value"),
         ({"y_targ": 3.5}, "y_targ: expected null for outcome 'max_taps', got 3.5"),
         ({"scenario_id": 5}, "scenario_id: expected a string, got 5")],
        ids=["outcome_not_a_string", "unknown_outcome", "y_targ_not_a_number",
             "reached_without_y_targ", "infinite_y_targ", "y_targ_without_reaching",
             "scenario_id_not_a_string"],
    )
    def test_load_records_names_a_bad_outcome_y_targ_or_scenario_id(
        self, fields, message, tmp_path
    ):
        # export and compute_metrics read these three; a reached trial's
        # y_targ is a finite number and every other trial's is null
        in_path = write_run(tmp_path, [PLOTTABLE | fields])
        with pytest.raises(ValueError) as exc:
            load_records(in_path)
        assert str(exc.value) == f"{in_path}: records[0].{message}"
        good = PLOTTABLE | {"outcome": "reached", "y_targ": 3.5}
        assert load_records(write_run(tmp_path, [good]))[0].y_targ == 3.5

    @pytest.mark.parametrize(
        "taps, drop, meta, message",
        [([dict.fromkeys(TAP, "") | {"scenario_id": "p", "seed": "0", "tap": "0"}],
          (), {}, "{csv}: line 3, column 'pusher_y_mm': expected a finite number, got ''"),
         ([TAP], ("object_y_mm", "object_z_mm", "object_alpha_deg"), {},
          "{csv}: line 2, column 7: expected 'object_y_mm', got 'in_contact'"),
         ([TAP, "7"], (), {}, "{csv}: line 4: expected 30 fields, got 1"),
         ([TAP], (), {"shape": {}},
          "{records}: records[0].meta.shape has no field 'polygon_mm' or 'circle_radius_mm'"),
         ('{"taps": {}}\n', (), {}, "{csv}: not a # tacpush-taps-v2 file"),
         ([TAP], ("pusher_z_mm", "pusher_alpha_deg"), {},
          "{csv}: line 2, column 5: expected 'pusher_z_mm', got 'object_y_mm'"),
         ([TAP], ("object_alpha_deg",), {},
          "{csv}: line 2, column 9: expected 'object_alpha_deg', got 'in_contact'"),
         ([TAP], (), {"approach_zone_radius_mm": [60]},
          "{records}: records[0].meta.approach_zone_radius_mm: expected a number, got [60]"),
         ([TAP], (), {"target_pose_mm_deg": 5},
          "{records}: records[0].meta.target_pose_mm_deg: expected a list of 6 numbers"),
         ([TAP], (), {"shape": {"polygon_mm": [[0, 0], [1, 0, 2], [0, 1]]}},
          "{records}: records[0].meta.shape.polygon_mm: expected 2 values, got 3"),
         ([TAP], (), {"shape": {"polygon_mm": []}},
          "{records}: records[0].meta.shape.polygon_mm: "
          "expected at least 3 [y, z] vertices, got 0"),
         ([TAP], (), {"shape": {"polygon_mm": [[0, 0], [1, 0]]}},
          "{records}: records[0].meta.shape.polygon_mm: "
          "expected at least 3 [y, z] vertices, got 2"),
         ([TAP, TAP_ROW.rsplit(",", 1)[0]], (), {}, "{csv}: line 4: expected 30 fields, got 29"),
         ([TAP | {"pusher_y_mm": "abc"}], (), {},
          "{csv}: line 3, column 'pusher_y_mm': expected a finite number, got 'abc'"),
         ([TAP | {"object_alpha_deg": "nan"}], (), {},
          "{csv}: line 3, column 'object_alpha_deg': expected a finite number, got 'nan'"),
         ([TAP | {"int_gamma_deg": "-inf"}], (), {},
          "{csv}: line 3, column 'int_gamma_deg': expected a finite number, got '-inf'"),
         ([TAP | {"in_contact": "yes"}], (), {},
          "{csv}: line 3, column 'in_contact': expected 0 or 1, got 'yes'"),
         ([TAP | {"err_y_mm": ""}], (), {},
          "{csv}: line 3, column 'err_y_mm': expected a finite number, got ''"),
         ([TAP | {"int_x_mm": ""}], (), {},
          "{csv}: line 3, column 'int_x_mm': expected a finite number, got ''"),
         ([TAP | {"clamped": "2"}], (), {},
          "{csv}: line 3, column 'clamped': expected 0 or 1, got '2'"),
         ([TAP, TAP | {"tap": "1", "seed": "not-a-seed"}], (), {},
          "{csv}: line 4, column 'seed': expected 0, the seed of 'p', got 'not-a-seed'")],
        ids=["empty_tap", "tap_without_object_pose", "tap_not_an_object", "empty_shape",
             "taps_not_a_list", "short_pusher_pose", "short_object_pose", "radius_not_a_number",
             "target_not_a_list", "ragged_polygon", "empty_polygon", "two_vertex_polygon",
             "short_row", "non_numeric_value", "nan_value", "infinite_value", "flag_not_0_or_1",
             "error_group_partly_blank", "integral_group_partly_blank", "clamped_not_0_or_1",
             "seed_not_the_records"],
    )
    def test_plot_names_the_missing_tap_or_outline_field(
        self, taps, drop, meta, message, tmp_path, capsys
    ):
        # a tap value is named by its taps.csv line and column, a summary
        # value by its records.json path
        bad = json.loads(json.dumps(PLOTTABLE))
        bad["meta"].update(meta)
        if not isinstance(taps, str):
            bad["tap_total"] = len(taps)
        in_path = write_run(tmp_path, [bad], taps, drop)
        svg = tmp_path / "x.svg"
        assert cli_main(["plot", "--records", str(in_path), "--out", str(svg)]) == 1
        assert not svg.exists()
        expected = message.format(csv=tmp_path / "taps.csv", records=in_path)
        assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize(
        "column, value, message",
        [("pusher_y_mm", "12345.0", "expected the end of the header, got 'pusher_y_mm'"),
         ("force_n", "1.0", "expected the end of the header, got 'force_n'")],
        ids=["repeated_column", "unknown_column"],
    )
    def test_plot_names_a_repeated_or_unknown_taps_column(
        self, column, value, message, tmp_path, capsys
    ):
        # every column but the extra one is a good tap, so only the header is wrong
        text = f"# tacpush-taps-v2\n{','.join(TAP)},{column}\n{TAP_ROW},{value}\n"
        in_path = write_run(tmp_path, [PLOTTABLE | {"tap_total": 1}], text)
        svg = tmp_path / "x.svg"
        assert cli_main(["plot", "--records", str(in_path), "--out", str(svg)]) == 1
        assert not svg.exists()
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'taps.csv'}: line 2, column 31: {message}\n"
        )

    @pytest.mark.parametrize(
        "tap_total, taps, message",
        [(2, [TAP], "line 4: expected tap 1 of 'p', got the end of the file"),
         (0, [TAP], "line 3: expected the end of the file, got tap 0 of 'p'"),
         (2, [TAP, TAP | {"tap": "2"}], "line 4: expected tap 1 of 'p', got tap 2 of 'p'"),
         (1, [TAP | {"scenario_id": "q"}], "line 3: expected tap 0 of 'p', got tap 0 of 'q'")],
        ids=["too_few_rows", "too_many_rows", "wrong_tap_index", "wrong_scenario_id"],
    )
    def test_plot_names_the_taps_row_that_disagrees_with_the_records(
        self, tap_total, taps, message, tmp_path, capsys
    ):
        in_path = write_run(tmp_path, [PLOTTABLE | {"tap_total": tap_total}], taps)
        svg = tmp_path / "x.svg"
        assert cli_main(["plot", "--records", str(in_path), "--out", str(svg)]) == 1
        assert not svg.exists()
        assert capsys.readouterr().err == f"error: {tmp_path / 'taps.csv'}: {message}\n"

    def test_exp_subcommand_runs_its_grid(self, tmp_path):
        out = tmp_path / "exp3"
        assert cli_main(["exp3", "--trials", "1", "--seed", "3", "--out", str(out)]) == 0
        records = json.loads((out / "records.json").read_text())["records"]
        assert [(r["scenario_id"], r["seed"]) for r in records] == [
            (s.name, s.rng_seed) for s in exp3_grid(1, 3)
        ]
        assert len(records) == 5
        assert (out / "trajectories.svg").exists()
