"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The experiment fixtures are session-scoped so the grid runs are
shared between the quantitative criteria and the invariant sweeps.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from tacpush.exp_harness import (
    compute_metrics,
    exp1_grid,
    exp1_scenario,
    exp2_grid,
    exp3_grid,
    export,
    run_trial,
    run_trials,
)
from tacpush.pose_math import (
    EulerPose,
    euler_to_transform,
    normalize_angle_deg,
    transform_to_euler,
)
from tacpush.push_dynamics import ContactMode, resolve_substep
from tacpush.scene import PlanarPose, boundary_probe, builtin_shapes
from tacpush.tactile_sense import NoiseModel

from physics_oracle import (
    brute_force_push,
    lever,
    limit_surface,
    motion_cone_margin_deg,
    random_contact_configs,
    to_work,
)
from test_push_dynamics import resolved_twist


def report(name: str, detail: str):
    print(f"\nACCEPTANCE PASS: {name} ({detail})")


# ---------------------------------------------------------------------------
# shared experiment runs
# ---------------------------------------------------------------------------

def run_grid(grid, workers=1):
    records = run_trials(grid, workers)
    return compute_metrics(records), records


@pytest.fixture(scope="session")
def exp1_results():
    return run_grid(exp1_grid(3, 2024))


@pytest.fixture(scope="session")
def exp2_results():
    return run_grid(exp2_grid(3, 2024))


@pytest.fixture(scope="session")
def exp3_results():
    return run_grid(exp3_grid(5, 2024))


@pytest.fixture(scope="session")
def robustness_results():
    """Offset grid with support/contact friction perturbed +/-50 percent and
    sensor noise at twice the calibrated sigmas; controller gains untouched."""
    double_noise = NoiseModel(sigma_z=0.2, sigma_alpha=0.78)
    corners = list(itertools.product((0.5, 1.5), repeat=3))
    scenarios = []
    for k, sc in enumerate(exp1_grid(3, 77)):
        fa, fb, fc = corners[k % len(corners)]
        base = sc.object
        shape = dataclasses.replace(
            base,
            f_max=base.f_max * fa,
            m_max=base.m_max * fb,
            mu_contact=base.mu_contact * fc,
        )
        scenarios.append(
            dataclasses.replace(
                sc,
                name=sc.name.replace("exp1_", "robust_", 1),
                object=shape,
                noise=double_noise,
            )
        )
    return run_grid(scenarios)


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_pose_math_round_trips():
    rng = np.random.default_rng(0)
    n = 100_000
    t0 = time.perf_counter()
    xyz = rng.uniform(-500.0, 500.0, size=(n, 3))
    alphas = rng.uniform(-180.0, 180.0, size=n)
    betas = rng.uniform(-85.0, 85.0, size=n)
    gammas = rng.uniform(-180.0, 180.0, size=n)
    worst_angle = 0.0
    worst_matrix = 0.0
    for i in range(n):
        e = EulerPose(*xyz[i], alphas[i], betas[i], gammas[i])
        t = euler_to_transform(e)
        back = transform_to_euler(t)
        worst_angle = max(
            worst_angle,
            abs(normalize_angle_deg(back.alpha - e.alpha)),
            abs(normalize_angle_deg(back.beta - e.beta)),
            abs(normalize_angle_deg(back.gamma - e.gamma)),
        )
        t2 = euler_to_transform(back)
        worst_matrix = max(
            worst_matrix,
            float(np.max(np.abs(t2.rotation - t.rotation))),
            float(np.max(np.abs(t2.translation - t.translation))),
        )
    # gimbal-lock coverage: matrix round trip must hold at beta = +/-90
    for _ in range(2_000):
        e = EulerPose(0, 0, 0, float(rng.uniform(-180, 180)),
                      90.0 if rng.uniform() < 0.5 else -90.0,
                      float(rng.uniform(-180, 180)))
        t = euler_to_transform(e)
        back = transform_to_euler(t)
        assert back.gamma == 0.0
        t2 = euler_to_transform(back)
        worst_matrix = max(worst_matrix, float(np.max(np.abs(t2.rotation - t.rotation))))
    elapsed = time.perf_counter() - t0
    assert worst_angle < 1e-6
    assert worst_matrix < 1e-9
    assert elapsed < 5.0
    report(
        "pose-math round trips",
        f"1e5 poses, worst angle {worst_angle:.2e} deg, "
        f"worst matrix {worst_matrix:.2e}, {elapsed:.1f}s",
    )


def test_criterion_physics_oracle_equivalence():
    t0 = time.perf_counter()
    configs = random_contact_configs(1_000, seed=1)
    checked = 0
    mode_matches = 0
    worst_cos = 1.0
    for cfg in configs:
        tip_new = cfg.tip + cfg.disp
        _, point, n_out, _ = boundary_probe(cfg.shape, cfg.object_pose, tip_new)
        n_in = -np.asarray(n_out)
        cof, p = lever(cfg.shape, cfg.object_pose, point)
        a, b = limit_surface(cfg.shape)
        # ties at the motion-cone edges are excluded per the criterion
        if motion_cone_margin_deg(cfg.v_p, n_in, cfg.shape.mu_contact, a, b, p) < 0.5:
            continue
        oracle_twist, oracle_mode = brute_force_push(
            cfg.v_p, n_in, cfg.shape.mu_contact, a, b, p, n_candidates=10_000
        )
        if oracle_twist is None:
            continue
        pose, contact = resolve_substep(cfg.shape, cfg.object_pose, cfg.tip, cfg.disp)
        if contact.mode is ContactMode.SEPARATED:
            continue
        moved = np.array(
            [
                *(np.asarray(to_work(pose, cfg.shape.cof_offset)) - cof),
                math.radians(normalize_angle_deg(pose.alpha - cfg.object_pose.alpha)),
            ]
        )
        norm = np.linalg.norm(moved)
        if norm < 1e-9:
            continue
        checked += 1
        cos = float((moved / norm) @ oracle_twist)
        worst_cos = min(worst_cos, cos)
        assert cos > 0.999
        mode_matches += contact.mode.value == oracle_mode
    elapsed = time.perf_counter() - t0
    assert checked >= 800
    match_rate = mode_matches / checked
    assert match_rate >= 0.99
    assert elapsed < 60.0
    report(
        "physics oracle equivalence",
        f"{checked} configs, worst cosine {worst_cos:.6f}, "
        f"mode match {match_rate:.1%}, {elapsed:.1f}s",
    )


def test_criterion_limit_surface_gradient():
    rng = np.random.default_rng(2)
    shapes = list(builtin_shapes().values())
    step = 1e-6
    worst = 0.0
    for _ in range(1_000):
        shape = shapes[int(rng.integers(len(shapes)))]

        def ellipsoid(w):
            return (
                (w[0] / shape.f_max) ** 2
                + (w[1] / shape.f_max) ** 2
                + (w[2] / shape.m_max) ** 2
            )

        w = rng.uniform(-2.0, 2.0, size=3)
        if np.linalg.norm(w) < 0.1:
            continue
        grad = np.array(
            [
                (ellipsoid(w + step * e) - ellipsoid(w - step * e)) / (2 * step)
                for e in np.eye(3)
            ]
        )
        grad /= np.linalg.norm(grad)
        twist = resolved_twist(w, shape)
        rel = float(np.linalg.norm(twist - grad) / np.linalg.norm(grad))
        worst = max(worst, rel)
        assert rel < 1e-4
    report("limit-surface gradient", f"1e3 wrenches, worst relative error {worst:.2e}")


def test_criterion_symmetric_push():
    sc = dataclasses.replace(
        exp1_scenario(0.0, 0.0, seed=0),
        name="symmetric_push",
        noise=NoiseModel(enabled=False),
        target_pose=PlanarPose(0.0, 400.0, 0.0),
    )
    rec = run_trial(sc)
    assert rec.outcome == "reached"
    worst = max(abs(t.object_alpha_deg) for t in rec.taps)
    assert worst < 0.5
    report(
        "symmetric push invariant",
        f"max |object rotation| {worst:.4f} deg over {rec.tap_total} taps",
    )


def test_criterion_experiment_1(exp1_results):
    t0 = time.perf_counter()
    metrics, records = exp1_results
    elapsed = time.perf_counter() - t0  # fixture may already be built
    assert metrics.n_trials == 63
    assert metrics.success_rate == 1.0
    assert all(r.tap_total <= 300 for r in records)
    assert metrics.mean_y_targ <= 10.0
    report(
        "experiment-1 analog",
        f"63 trials, success 100%, y_targ {metrics.mean_y_targ:.2f} "
        f"+/- {metrics.std_y_targ:.2f} mm (hardware reference 1.27 +/- 0.51)",
    )
    del elapsed


def test_criterion_experiment_1_runtime():
    t0 = time.perf_counter()
    metrics, _ = run_grid(exp1_grid(3, 512))
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    assert metrics.success_rate == 1.0
    report("experiment-1 runtime", f"full grid in {elapsed:.1f}s (< 2 min)")


def test_criterion_experiment_2(exp2_results):
    metrics, records = exp2_results
    assert metrics.n_trials == 45
    assert metrics.success_rate == 1.0
    assert metrics.mean_y_targ <= 10.0
    report(
        "experiment-2 analog",
        f"45 trials, success 100%, y_targ {metrics.mean_y_targ:.2f} "
        f"+/- {metrics.std_y_targ:.2f} mm (hardware planar reference 1.18 +/- 1.10)",
    )


def test_criterion_experiment_3(exp3_results):
    metrics, records = exp3_results
    assert metrics.n_trials == 25
    assert metrics.success_rate >= 0.9
    assert metrics.mean_y_targ <= 15.0
    report(
        "experiment-3 analog",
        f"25 trials, success {metrics.success_rate:.0%}, y_targ over successes "
        f"{metrics.mean_y_targ:.2f} +/- {metrics.std_y_targ:.2f} mm "
        f"(hardware reference 3.05 +/- 3.36)",
    )


def test_criterion_robustness_sweep(robustness_results):
    metrics, records = robustness_results
    assert metrics.n_trials == 63
    assert metrics.success_rate >= 0.9
    report(
        "robustness sweep",
        f"friction +/-50%, noise x2: success {metrics.success_rate:.0%} "
        f"({sum(r.outcome == 'reached' for r in records)}/63), no gain retuning",
    )


def test_criterion_logged_invariants(
    exp1_results, exp2_results, exp3_results, robustness_results
):
    all_records = (
        exp1_results[1] + exp2_results[1] + exp3_results[1] + robustness_results[1]
    )
    taps = 0
    for rec in all_records:
        zone = rec.meta["approach_zone_radius_mm"]
        for tap in rec.taps:
            taps += 1
            assert abs(tap.v_mm) <= 5.0
            if tap.r_mm is not None and tap.r_mm <= zone:
                assert tap.v_mm == 0.0
            integral = np.asarray(tap[-6:])  # the int_* channels
            assert np.all(np.abs(integral[:3]) <= 5.0 + 1e-12)
            assert np.all(np.abs(integral[3:]) <= 25.0 + 1e-12)
    assert taps > 5_000
    report(
        "approach-zone and clipping invariants",
        f"{taps} logged taps across {len(all_records)} trials",
    )


def test_criterion_determinism_across_workers(tmp_path):
    seq_records = run_trials(exp1_grid(1, 99), workers=1)
    par_records = run_trials(exp1_grid(1, 99), workers=2)
    seq = export(seq_records, tmp_path / "seq")["taps"].read_bytes()
    par = export(par_records, tmp_path / "par")["taps"].read_bytes()
    assert seq == par
    rerun_records = run_trials(exp1_grid(1, 99), workers=1)
    rerun = export(rerun_records, tmp_path / "rerun")["taps"].read_bytes()
    assert rerun == seq
    report(
        "determinism across workers",
        f"taps.csv byte-identical for 1 vs 2 workers and on rerun "
        f"({len(seq)} bytes)",
    )
