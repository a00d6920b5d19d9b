import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from tacpush import exp_harness
from tacpush.cli import main as cli_main
from tacpush.exp_harness import (
    EXP1_ANGULAR_OFFSETS_DEG,
    EXP1_SPATIAL_OFFSETS_MM,
    compute_metrics,
    compute_y_targ,
    derive_seed,
    exp1_scenario,
    exp2_scenario,
    exp3_scenario,
    export,
    place_corner_contact,
    place_random_orientation,
    plot,
    read_taps_csv,
    record_to_dict,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
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
            axis = heading_dir(pusher_p.alpha)
            ts = np.linspace(-2_000, 2_000, 200_001)
            pts = pusher_p.position[None, :] + ts[:, None] * axis[None, :]
            brute = float(np.min(np.linalg.norm(pts - target_p.position, axis=1)))
            assert compute_y_targ(pusher_p, target_p) == pytest.approx(brute, abs=1e-3)


class TestRunTrial:
    def test_baseline_reaches_with_noise_off(self):
        rec = run_trial(exp1_scenario(0.0, 0.0, seed=7, noise=NoiseModel(enabled=False)))
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
        a = json.dumps(record_to_dict(run_trial(sc)), sort_keys=True)
        b = json.dumps(record_to_dict(run_trial(sc)), sort_keys=True)
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

    def test_scenario_file_round_trip(self):
        rec = run_trial(load_scenario(BASELINE))
        assert rec.outcome == "reached"

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
        metrics, records = run_experiment_1(trials_per_cell=1, master_seed=0)
        assert len(records) == len(EXP1_SPATIAL_OFFSETS_MM) * len(EXP1_ANGULAR_OFFSETS_DEG)
        assert metrics.n_trials == 21
        ids = [r.scenario_id for r in records]
        assert len(set(ids)) == 21

    def test_exp2_single_cell(self):
        metrics, records = run_experiment_2(
            shape_names=("red_square",), start_indices=(0,), trials_per_cell=2,
            master_seed=4,
        )
        assert len(records) == 2
        assert all(r.scenario_id.startswith("exp2_red_square_start1") for r in records)

    def test_exp3_orientation_reproducible(self):
        _, a = run_experiment_3(shape_names=("circle",), trials_per_shape=2, master_seed=5)
        _, b = run_experiment_3(shape_names=("circle",), trials_per_shape=2, master_seed=5)
        for ra, rb in zip(a, b):
            assert ra.seed == rb.seed
            assert ra.final_object_pose == rb.final_object_pose

    def test_worker_pool_matches_sequential(self):
        scenarios = [exp1_scenario(off, 0.0, seed=derive_seed(8, i))
                     for i, off in enumerate((-10.0, 0.0, 10.0))]
        seq = run_trials(scenarios, workers=1)
        par = run_trials(scenarios, workers=2)
        for a, b in zip(seq, par):
            da, db = record_to_dict(a), record_to_dict(b)
            da.pop("wall_time_ms"), db.pop("wall_time_ms")
            assert da == db


class TestPlacement:
    def test_corner_centred_polygon(self):
        shape = builtin_shapes()["blue_square"]
        pose = place_corner_contact(shape, PlanarPose())
        sd, point, n_out, feature = boundary_probe(shape, pose, np.zeros(2))
        assert feature[0] == "vertex"
        assert TIP_RADIUS_MM - sd == pytest.approx(1.0, abs=1e-6)
        # corner dead ahead of the axis
        assert point == pytest.approx([0.0, 19.0], abs=1e-9)

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
        _, records = run_experiment_1(trials_per_cell=1, master_seed=2)
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
        for key in ("records", "taps", "metrics"):
            assert paths[key].exists()
        data = json.loads(paths["records"].read_text())
        assert len(data["records"]) == 2
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["n_trials"] == 2

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

    def test_plot_svg(self, records, tmp_path):
        out = plot(records, tmp_path / "traj.svg")
        text = out.read_text()
        assert text.startswith("<svg")
        assert "<polyline" in text
        assert "<circle" in text
        assert "http" not in text.replace("http://www.w3.org/2000/svg", "")
        # also renders from serialized dicts
        out2 = plot([record_to_dict(r) for r in records], tmp_path / "traj2.svg")
        assert out2.read_text() == text

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
         ({"name": 5}, "name: expected a string")],
        ids=["noise_enabled_string", "rng_seed_float", "rng_seed_string",
             "rng_seed_negative", "reacquire_limit_float", "tap_forward_string",
             "kp_align_bool", "object_start_pose_strings", "kp_align_infinity",
             "f_max_nan", "ref_pose_nan", "ref_pose_non_planar", "unknown_top_level_key",
             "unknown_object_key", "unknown_noise_key", "beta_deg", "name_not_string"],
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
        assert cli_main(argv) == 2
        assert "rng_seed" in capsys.readouterr().err
        assert not (tmp_path / "records.json").exists()

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
        for name in ("records.json", "taps.csv", "metrics.json", "trajectories.svg"):
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
