"""Closed-loop golden: the three experiment grids at one trial per cell.

exp1_grid, exp2_grid and exp3_grid at master seed 0 hold 41 trials
(21 + 15 + 5), run in that order with run_trials. For
each, data/closed_loop_golden.json stores the outcome, the tap count, the
final pusher and object poses and y_targ, with every float as its repr.
Outcomes and tap counts must match exactly and floats to 1e-9, so a change
anywhere in sensing, control, physics or set-up that moves a trajectory
fails this test. Several trials are chaotic (the exp3 l_shape trial takes
hundreds of taps), so in practice only a bit-identical change keeps them.

Regenerate the file only for an intended change of behaviour:
`PYTHONPATH=src python tests/test_closed_loop_golden.py`.
"""

import json
from pathlib import Path

import pytest

from tacpush.exp_harness import exp1_grid, exp2_grid, exp3_grid, run_trials

GOLDEN = Path(__file__).parent / "data" / "closed_loop_golden.json"
MASTER_SEED = 0
FLOAT_TOL = 1e-9


def run_grids():
    return run_trials(
        [*exp1_grid(1, MASTER_SEED), *exp2_grid(1, MASTER_SEED), *exp3_grid(1, MASTER_SEED)]
    )


def summarize(record) -> dict:
    return {
        "scenario_id": record.scenario_id,
        "outcome": record.outcome,
        "tap_total": record.tap_total,
        "final_pusher_pose": [repr(float(v)) for v in record.final_pusher_pose],
        "final_object_pose": [repr(float(v)) for v in record.final_object_pose],
        "y_targ": None if record.y_targ is None else repr(float(record.y_targ)),
    }


@pytest.fixture(scope="module")
def trials():
    golden = json.loads(GOLDEN.read_text())
    assert golden["master_seed"] == MASTER_SEED
    return golden["trials"], [summarize(r) for r in run_grids()]


def test_outcomes_and_tap_counts_match_exactly(trials):
    expected, got = trials
    assert [t["scenario_id"] for t in got] == [t["scenario_id"] for t in expected]
    assert [(t["outcome"], t["tap_total"]) for t in got] == [
        (t["outcome"], t["tap_total"]) for t in expected
    ]


def test_final_poses_and_y_targ_match(trials):
    expected, got = trials
    for exp, run in zip(expected, got):
        for key in ("final_pusher_pose", "final_object_pose"):
            assert [float(v) for v in run[key]] == pytest.approx(
                [float(v) for v in exp[key]], rel=0.0, abs=FLOAT_TOL
            ), (exp["scenario_id"], key)
        if exp["y_targ"] is None:
            assert run["y_targ"] is None, exp["scenario_id"]
        else:
            assert float(run["y_targ"]) == pytest.approx(
                float(exp["y_targ"]), rel=0.0, abs=FLOAT_TOL
            ), exp["scenario_id"]


def test_golden_covers_every_grid_cell():
    trials = json.loads(GOLDEN.read_text())["trials"]
    assert len(trials) == 41
    assert sum(t["scenario_id"].startswith("exp1_") for t in trials) == 21
    assert sum(t["scenario_id"].startswith("exp2_") for t in trials) == 15
    assert sum(t["scenario_id"].startswith("exp3_") for t in trials) == 5


if __name__ == "__main__":
    summaries = [summarize(r) for r in run_grids()]
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = ",\n".join(json.dumps(s) for s in summaries)
    GOLDEN.write_text(f'{{"master_seed": {MASTER_SEED}, "trials": [\n{lines}\n]}}\n')
    print(f"wrote {len(summaries)} trials to {GOLDEN}")
