"""Benchmark workloads: experiment grids generated from a master seed.

A workload is a cycle of grids. Grid k is a list of scenarios, a pure
function of (master seed, k). A run passes through the cycle and then
repeats its grids, so it can go on for as long as it is asked to while its
correctness metrics come from one fixed set of trials. Scenario generation
is the only place the seed enters: the simulator receives finished
scenarios.

See NOTES.md for why each workload was chosen.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from tacpush import exp_harness as eh  # noqa: E402
from tacpush.scenario import Scenario  # noqa: E402
from tacpush.scene import builtin_shapes  # noqa: E402
from tacpush.tactile_sense import NoiseModel  # noqa: E402

# distinct first index per workload keeps their derived seeds apart
_OFFSET_TAG, _SHAPE_TAG, _IRREGULAR_TAG = 1, 2, 3

# exp-3's shapes less l_shape, pushed from start pose 1 rather than 2; see
# NOTES.md for why
IRREGULAR_SHAPES = ("mug", "blue_square", "yellow_triangle", "circle")
IRREGULAR_START = 0
IRREGULAR_CYCLE = 5
IRREGULAR_PER_GRID = 2


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: int  # distinct grids; their trials are the correctness set
    workers: int  # 1: run_trial per scenario; more: run_trials on a pool
    make_grid: Callable[[int, int], list]

    def grids(self, seed: int) -> list:
        """The cycle's grids, each a list of scenarios."""
        return [self.make_grid(seed, k) for k in range(self.cycle)]


def offset_grid(seed: int, k: int) -> list:
    """Exp-1 grid: blue_square, 7 spatial x 3 angular contact offsets, noise on."""
    scenarios = []
    n_ang = len(eh.EXP1_ANGULAR_OFFSETS_DEG)
    for i, off in enumerate(eh.EXP1_SPATIAL_OFFSETS_MM):
        for j, ang in enumerate(eh.EXP1_ANGULAR_OFFSETS_DEG):
            cell = i * n_ang + j
            scenarios.append(
                eh.exp1_scenario(
                    off, ang, eh.derive_seed(seed, _OFFSET_TAG, cell, k),
                    name=f"exp1_o{off:+.0f}_a{ang:+.0f}_t{k}",
                )
            )
    return scenarios


def shape_grid(seed: int, k: int) -> list:
    """Exp-2 grid: 5 convex shapes x 3 start poses, corner-centred starts."""
    scenarios = []
    for i, shape_name in enumerate(eh.EXP2_SHAPE_NAMES):
        for j in range(len(eh.EXP_START_POSES)):
            cell = i * len(eh.EXP_START_POSES) + j
            sc = eh.exp2_scenario(shape_name, j, eh.derive_seed(seed, _SHAPE_TAG, cell, k))
            sc.name = f"exp2_{shape_name}_start{j + 1}_t{k}"
            scenarios.append(sc)
    return scenarios


def irregular_heading(seed: int, shape_index: int, k: int, slot: int) -> float:
    """Stratified random heading: over one cycle every shape gets one heading
    in each of IRREGULAR_CYCLE * IRREGULAR_PER_GRID equal sectors, shifted
    by a random phase drawn per shape."""
    sectors = IRREGULAR_CYCLE * IRREGULAR_PER_GRID
    phase = np.random.default_rng(eh.derive_seed(seed, _IRREGULAR_TAG, shape_index)).uniform()
    sector = k % IRREGULAR_CYCLE + IRREGULAR_CYCLE * slot
    return (sector + phase) * 360.0 / sectors


def irregular_grid(seed: int, k: int) -> list:
    """Irregular and control shapes at random headings, seated by bisection,
    noise on."""
    catalog = builtin_shapes()
    start = eh.EXP_START_POSES[IRREGULAR_START]
    scenarios = []
    for i, shape_name in enumerate(IRREGULAR_SHAPES):
        shape = catalog[shape_name]
        for slot in range(IRREGULAR_PER_GRID):
            heading = irregular_heading(seed, i, k, slot)
            scenarios.append(
                Scenario(
                    name=f"irr_{shape_name}_h{heading:05.1f}_t{k}",
                    object=shape,
                    object_start_pose=eh.place_random_orientation(shape, start, heading),
                    pusher_start_pose=start,
                    target_pose=eh.EXP_TARGET_POSE,
                    noise=NoiseModel(enabled=True),
                    rng_seed=eh.derive_seed(seed, _IRREGULAR_TAG, i, k, slot),
                    max_taps=600,
                )
            )
    return scenarios


WORKLOADS = {
    w.name: w
    for w in (
        Workload("offset_grid", cycle=3, workers=1, make_grid=offset_grid),
        Workload("irregular_grid", cycle=IRREGULAR_CYCLE, workers=1, make_grid=irregular_grid),
        Workload("shape_grid_pool", cycle=6, workers=2, make_grid=shape_grid),
    )
}
