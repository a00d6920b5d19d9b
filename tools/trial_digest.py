"""Digest of every benchmark trial, for checking that a change is bit-identical.

Runs every grid of every workload in `perfbench/workloads.py` through
`run_trial`, one trial after another, and prints one sha256 per workload and
one over all of them. Each trial contributes its `taps.csv` rows (version 2:
every value of every tap, the `int_*` columns included) and `trial_bytes`: its
outcome, final pusher and object poses, `y_targ` and its meta (target pose,
shape, zone radii, noise flag and any fault or error), all floats at full
precision. Run it on two checkouts and compare the last line:

    python3 tools/trial_digest.py --seed 1

It uses tacpush from `src/` of the checkout it sits in and only reads
`perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402
from tacpush import exp_harness as eh  # noqa: E402
from tacpush.cli import seed_int  # noqa: E402


def trial_bytes(record) -> bytes:
    """Everything a trial decided apart from its taps, in a fixed order."""
    return json.dumps(
        [
            record.scenario_id,
            record.outcome,
            [repr(v) for v in record.final_pusher_pose],
            [repr(v) for v in record.final_object_pose],
            repr(record.y_targ),
            record.meta,
        ],
        sort_keys=True,
    ).encode()


def grid_digest(scenarios, scratch: Path, h) -> Counter:
    """Feed one grid's trials into `h`; returns their outcome counts."""
    records = [eh.run_trial(s) for s in scenarios]
    h.update(eh.export(records, scratch)["taps"].read_bytes())
    for record in records:
        h.update(trial_bytes(record))
    return Counter(r.outcome for r in records)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=seed_int, required=True, help="master seed of the grids")
    args = parser.parse_args(argv)
    total = hashlib.sha256()
    n_total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            t0 = time.perf_counter()
            h = hashlib.sha256()
            outcomes = Counter()
            for grid in workload.grids(args.seed):
                outcomes += grid_digest(grid, Path(tmp), h)
            total.update(h.digest())
            n = sum(outcomes.values())
            n_total += n
            print(
                f"{name}: {n} trials, {json.dumps(outcomes, sort_keys=True)}, "
                f"{time.perf_counter() - t0:.1f} s, sha256 {h.hexdigest()}"
            )
    print(f"all: {n_total} trials at seed {args.seed}, sha256 {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
