"""Run source mutants against the Tier-1 tests that are not goldens.

The mutants cover the simulator (`push_dynamics`, `scene`), the controller
(`push_controller`) and the sensor (`tactile_sense`). Each mutant is a text
replacement in one file of `src/tacpush/` that must
match exactly once. For each mutant the tool copies the checkout to a
temporary directory, applies the replacement, and runs every Tier-1 test
file with `-x`, except the three goldens and `test_mutants.py` (which checks
that each text matches the unmutated source). Most mutants fall to the test
file of the module they mutate, so that file runs first, then the others by
name, and the three slowest last. The strict xfails (the overshoot and the
tap's symmetries) are deselected, since an XPASS is no kill. It prints a
kill table, with the first failing test of each killed mutant and, for each
survivor, whether the trial digest at `--seed 1` moved:

    python3 tools/mutants.py [--checkout PATH]

A mutant that does not match exactly once is reported as such, and the tool
then exits with status 1. The mutants take about three minutes on a 2-core
host, so the tool is run by hand for a change to the kernel, the controller
or the sensor, not in CI.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the goldens, and the check that each mutant's text matches the unmutated source
NOT_RUN = {"test_probe_golden.py", "test_physics_golden.py", "test_closed_loop_golden.py",
           "test_mutants.py"}
# the slowest files, slowest last: they run after every other file
SLOW = ("test_exp_harness.py", "test_acceptance.py", "test_properties.py")
XFAILS = [f"tests/test_properties.py::{name}" for name in (
    "test_resolve_substep_keeps_pushing_contacts_overlapping",
    "test_simulate_tap_commutes_with_planar_rigid_motions",
    "test_simulate_tap_commutes_with_the_mirror",
)]
# one mutant test run; a mutant that makes the suite hang counts as killed
TIMEOUT_S = 900

# (what the mutant does, file under src/tacpush, text, replacement); where a
# mutant is expected to survive, the description says why
MUTANTS = [
    ("report the last step's mode, not the first's", "push_dynamics.py",
     "        if mode is None:\n            mode = step_mode\n",
     "        mode = step_mode\n"),
    ("flip the reflex-corner side test in _resolve", "push_dynamics.py",
     "if (uly + ury) * vz - (ulz + urz) * vy > 0.0:",
     "if (uly + ury) * vz - (ulz + urz) * vy < 0.0:"),
    ("the free-space certificate's radius adds the tolerance, not subtracts it, so a world "
     "without a contact, or a contact that overlaps by less than the tolerance, frees tips",
     "push_dynamics.py",
     "sd - clear - math.hypot",
     "sd - TIP_RADIUS_MM + PENETRATION_TOL_MM - math.hypot"),
    ("mu_contact == 0 sticks within 1e-3, not 1e-12", "push_dynamics.py",
     "if abs(side) < 1e-12:",
     "if abs(side) < 1e-3:"),
    ("scale _resolve's sticking force by 0.999", "push_dynamics.py",
     "py, pz, (vy - k * py) / a, (vz - k * pz) / a, _STICKING",
     "py, pz, 0.999 * (vy - k * py) / a, 0.999 * (vz - k * pz) / a, _STICKING"),
    ("scale the twist's spin by 1.01", "push_dynamics.py",
     "spin = t * b * pf",
     "spin = 1.01 * t * b * pf"),
    ("disable the rate <= 1e-12 normal-push fallback", "push_dynamics.py",
     "if rate <= 1e-12:",
     "if False:"),
    ("a vertex's inside test <= in place of <", "scene.py",
     "inside = dvy * by + dvz * bz < 0.0",
     "inside = dvy * by + dvz * bz <= 0.0"),
    ("resolution residual 0.9 x tolerance, not 0.5 x", "push_dynamics.py",
     "_RESOLVE_RESIDUAL_MM = 0.5 * PENETRATION_TOL_MM",
     "_RESOLVE_RESIDUAL_MM = 0.9 * PENETRATION_TOL_MM"),
    ("scale the pose advance's rotation by 0.98", "push_dynamics.py",
     "        c, s = math.cos(spin), math.sin(spin)\n",
     "        spin *= 0.98\n        c, s = math.cos(spin), math.sin(spin)\n"),
    ("drop the probe's guard against an overflowing squared distance", "scene.py",
     "if best == math.inf:",
     "if False:"),
    ("swap the frictionless contact's sliding sides", "push_dynamics.py",
     "_SLIDING_LEFT if side > 0.0 else _SLIDING_RIGHT",
     "_SLIDING_RIGHT if side > 0.0 else _SLIDING_LEFT"),
    ("drop - s * oz from _resolve's CoF", "push_dynamics.py",
     "cy = y + c * oy - s * oz",
     "cy = y + c * oy"),
    ("drop a + from the sticking solve's denominator", "push_dynamics.py",
     "/ (a + b * (py * py + pz * pz))",
     "/ (b * (py * py + pz * pz))"),
    ("conservative advancement may skip the advance's last substep (off by one)",
     "push_dynamics.py",
     "last = n - 1 if reported else n",
     "last = n"),
    ("every outline is convex, so the supporting-line certificate holds on l_shape and mug",
     "scene.py",
     '("_convex", convex),',
     '("_convex", True),'),
    ("flip the sign of the supporting line's drop per substep (its approach rate)",
     "push_dynamics.py",
     "drop = (dy * my + dz * mz) / n",
     "drop = -(dy * my + dz * mz) / n"),
    ("the ball's drop per substep is 0, so a tip in the ball frees every tip ahead",
     "push_dynamics.py",
     "drop = dist / n",
     "drop = 0.0"),
    ("an empty advance runs no substep", "push_dynamics.py",
     "if not reported and dist < 1e-12 and abs(dalpha) < 1e-12:",
     "if dist < 1e-12 and abs(dalpha) < 1e-12:"),
    ("the half-plane limit is the tip radius, without the tolerance", "push_dynamics.py",
     "clear = TIP_RADIUS_MM + PENETRATION_TOL_MM",
     "clear = TIP_RADIUS_MM"),
    ("the reacquire creep heads along pusher + reading alpha, not the contact normal",
     "push_controller.py",
     "normalize_angle_deg(pusher.alpha - pred.alpha)",
     "normalize_angle_deg(pusher.alpha + pred.alpha)"),
    ("apply_noise draws alpha with 1.5 x sigma_alpha", "tactile_sense.py",
     "noise.sigma_alpha * rng.standard_normal()",
     "1.5 * noise.sigma_alpha * rng.standard_normal()"),
    ("the servo derivative acts on e, not e - prev", "push_controller.py",
     "kdy * (ey - py),\n            kpz * ez + kiz * iz + kdz * (ez - pz),\n"
     "            kpa * ea + kia * ia + kda * (ea - pa))",
     "kdy * ey,\n            kpz * ez + kiz * iz + kdz * ez,\n"
     "            kpa * ea + kia * ia + kda * ea)"),
    ("contact is lost one no-contact reading early (reacquire limit off by one)",
     "push_controller.py",
     "if state.no_contact_streak > cfg.reacquire_limit:",
     "if state.no_contact_streak >= cfg.reacquire_limit:"),
    ("pid_step clips the alpha integral with the translation clip", "push_controller.py",
     "ia = min(max(ia + ea, rlo), rhi)",
     "ia = min(max(ia + ea, tlo), thi)"),
    ("flip the sign of servo_error's alpha", "push_controller.py",
     "return y, z, normalize_angle_deg(",
     "return y, z, -normalize_angle_deg("),
    ("swap y and z of the servo correction", "push_controller.py",
     "u_servo = _frame(*pid_step(state, error, cfg))",
     "uy, uz, ua = pid_step(state, error, cfg)\n    u_servo = _frame(uz, uy, ua)"),
    ("flip the sign of target_bearing's heading", "push_controller.py",
     "return math.degrees(math.atan2(y, z)), math.hypot(y, z)",
     "return -math.degrees(math.atan2(y, z)), math.hypot(y, z)"),
    ("a vertex's pseudonormal pairs the wrong rows: the vertex row is the previous edge's",
     "scene.py",
     "row, prev = rows[vi], rows[vi - 1]",
     "row, prev = rows[vi - 1], rows[vi]"),
    ("every tap starts cold: the world's contact is not carried", "push_dynamics.py",
     "pen = contact or (",
     "pen = ("),
    ("the world carries the advance's contact, not the last substep's that ran",
     "push_dynamics.py",
     "PlanarPose(ty, tz, alpha), contact)",
     "PlanarPose(ty, tz, alpha), advance_contact)"),
    ("the ball about the contact point, not the substep's tip", "push_dynamics.py",
     "math.hypot(ty - (qy - sd * my), tz - (qz - sd * mz))",
     "math.hypot(ty - qy, tz - qz)"),
    ("apply_noise's alpha draw drops numpy's 0.0 +, which fixes the sign of a zero draw",
     "tactile_sense.py",
     "pred.alpha + (0.0 + noise.sigma_alpha * rng.standard_normal())",
     "pred.alpha + noise.sigma_alpha * rng.standard_normal()"),
    ("flip the sign of the heading change in the pose advance", "push_dynamics.py",
     "alpha + math.degrees(spin))",
     "alpha - math.degrees(spin))"),
    ("flip the sign of _compose's sine term: the chained heading turns the wrong way",
     "push_controller.py",
     "s * bc + c * bs, *_apply(a, by, bz)",
     "s * bc - c * bs, *_apply(a, by, bz)"),
    ("flip the s * y term of _inverse's translation", "push_controller.py",
     "-(c * z - s * y))",
     "-(c * z + s * y))"),
    ("transpose the rotation of _resolve's CoF", "push_dynamics.py",
     "cy = y + c * oy - s * oz\n    cz = z + s * oy + c * oz",
     "cy = y + c * oy + s * oz\n    cz = z - s * oy + c * oz"),
]

_IGNORE = shutil.ignore_patterns(".git", "out", "__pycache__", ".hypothesis", ".pytest_cache",
                                 ".benchmarks", "*.egg-info")


def _env(checkout: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(checkout / "src")}


def digest(checkout: Path) -> str:
    """The last line of the trial digest at seed 1."""
    proc = subprocess.run([sys.executable, "tools/trial_digest.py", "--seed", "1"],
                          cwd=checkout, env=_env(checkout), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if proc.returncode == 0 and lines else f"exit {proc.returncode}"


def run_tests(checkout: Path, mutated: str) -> tuple[bool, str]:
    """(killed, first failing test or pytest's last line) of one mutant copy
    of the module file `mutated`."""
    own = f"test_{mutated}"
    files = sorted((p.name for p in (checkout / "tests").glob("test_*.py") if p.name not in NOT_RUN),
                   key=lambda f: (f != own, SLOW.index(f) if f in SLOW else -1, f))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           *(f"--deselect={x}" for x in XFAILS), *(f"tests/{f}" for f in files)]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=_env(checkout), capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    failed = [m.group(1) for m in map(re.compile(r"^(?:FAILED|ERROR) (\S+)").match, lines) if m]
    if proc.returncode == 0:
        return False, lines[-1] if lines else ""
    return True, failed[0] if failed else f"pytest exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="checkout to mutate (default: the one this tool sits in)")
    args = parser.parse_args(argv)
    checkout = args.checkout.resolve()

    base_digest = digest(checkout)
    print(f"checkout {checkout}\nunmutated digest: {base_digest}\n")
    print("| # | mutant | non-golden tests | digest at seed 1 | s |\n"
          "| --- | --- | --- | --- | --- |", flush=True)
    stale = 0
    for k in range(len(MUTANTS)):
        what, name, text, replacement = MUTANTS[k]
        source = (checkout / "src" / "tacpush" / name).read_text()
        matches = source.count(text)
        if matches != 1:
            stale += 1
            print(f"| {k} | {what} | not applied: {matches} matches in {name} | | |", flush=True)
            continue
        t0 = time.perf_counter()
        with tempfile.TemporaryDirectory() as tmp:
            copy = Path(tmp) / "checkout"
            shutil.copytree(checkout, copy, ignore=_IGNORE)
            (copy / "src" / "tacpush" / name).write_text(source.replace(text, replacement))
            killed, detail = run_tests(copy, name)
            if killed:
                verdict, moved = f"killed by `{detail}`", ""
            else:
                mutant_digest = digest(copy)
                verdict = "survives"
                moved = "same" if mutant_digest == base_digest else f"changes: {mutant_digest}"
        print(f"| {k} | {what} | {verdict} | {moved} | {time.perf_counter() - t0:.0f} |",
              flush=True)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
