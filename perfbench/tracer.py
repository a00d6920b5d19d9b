"""Call tracing for the benchmark's traced runs.

The tracer times calls into tacpush's public functions from outside the
package. It replaces every module-level binding of each traced function
with a timing wrapper and puts the originals back when it is uninstalled.
Binding by binding matters: the modules import what they call
(`from .scene import boundary_probe`), so patching `scene.boundary_probe`
alone would miss every probe the physics makes.

Each call is a span (id, parent id, name, start ns, end ns). Aggregates
per span name (calls, total and self time) and a few event counts are kept
for every call; the spans themselves are kept in memory up to a limit and
written out once, when the run ends.

Process-pool workers forked by `exp_harness.run_trials` inherit the
installed wrappers. A worker resets its copy of the aggregates on its first
trial and, after every trial, writes them to the spool directory, from
which the parent merges them once the pool has shut down. Spans recorded in
workers stay there; only their aggregates come back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from pathlib import Path

from tacpush.push_dynamics import PhysicsFault

SPAN_LIMIT = 50_000

# (module under tacpush, function) for every traced function
TARGETS = (
    ("scene", "boundary_probe"),
    ("push_dynamics", "resolve_substep"),
    ("push_dynamics", "simulate_tap"),
    ("tactile_sense", "sense_contact"),
    ("tactile_sense", "apply_noise"),
    ("push_controller", "control_step"),
    ("pose_math", "compose"),
    ("pose_math", "inverse"),
    ("pose_math", "euler_to_transform"),
    ("pose_math", "transform_to_euler"),
    ("exp_harness", "run_trial"),
    ("exp_harness", "export"),
    ("exp_harness", "plot"),
)


class _Frame:
    __slots__ = ("span_id", "child_ns", "probes")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child_ns = 0
        self.probes = 0


# Span names. Most are "<module>.<function>"; a few split a function's calls
# by argument or result so that each part gets its own time per call.

def _probe_name(args, kwargs, result, exc, frame, parent, counts):
    if parent is not None:
        parent.probes += 1
    shape = args[0] if args else kwargs["shape"]
    return "scene.boundary_probe." + shape.name


def _resolve_name(args, kwargs, result, exc, frame, parent, counts):
    if exc is not None:
        return "push_dynamics.resolve_substep.fault"
    if result[1].mode.value == "separated":
        return "push_dynamics.resolve_substep.separated"
    counts["push_dynamics.contact_substep_probes"] += frame.probes
    return "push_dynamics.resolve_substep.contact"


def _tap_name(args, kwargs, result, exc, frame, parent, counts):
    if isinstance(exc, PhysicsFault):
        counts["push_dynamics.physics_faults"] += 1
    return "push_dynamics.simulate_tap"


def _sense_name(args, kwargs, result, exc, frame, parent, counts):
    if exc is None and not result.in_contact:
        counts["tactile_sense.no_contact"] += 1
    return "tactile_sense.sense_contact"


def _noise_name(args, kwargs, result, exc, frame, parent, counts):
    if exc is None and result.in_contact:
        counts["tactile_sense.noisy_readings"] += 1
        if result.clamped:
            counts["tactile_sense.clamped"] += 1
    return "tactile_sense.apply_noise"


_NAMERS = {
    "boundary_probe": _probe_name,
    "resolve_substep": _resolve_name,
    "simulate_tap": _tap_name,
    "sense_contact": _sense_name,
    "apply_noise": _noise_name,
}


def _fixed_name(name):
    def namer(*_):
        return name

    return namer


class Tracer:
    """Aggregates, event counts and a bounded span buffer for traced calls."""

    def __init__(self, spool_dir):
        self.spool_dir = Path(spool_dir)
        self._patches = []
        self._pid = os.getpid()
        self._in_worker = False
        self.reset()

    def reset(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.self_ns = Counter()
        self.counts = Counter()
        self.spans = []
        self.span_total = 0
        self._stack = []

    # -- patching -----------------------------------------------------------

    def install(self):
        """Replace every tacpush binding of each target with a traced wrapper."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "tacpush" or name.startswith("tacpush.")
        ]
        for module_name, fn_name in TARGETS:
            original = getattr(sys.modules["tacpush." + module_name], fn_name)
            namer = _NAMERS.get(fn_name, _fixed_name(f"{module_name}.{fn_name}"))
            wrapper = self._wrap(original, namer)
            if fn_name == "run_trial":
                wrapper = self._worker_aware(wrapper)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        """Put every original binding back."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def _wrap(self, fn, namer):
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = _Frame(tracer.span_total)
            tracer.span_total += 1
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if parent is not None:
                    parent.child_ns += dur
                name = namer(args, kwargs, result, exc, frame, parent, tracer.counts)
                tracer.calls[name] += 1
                tracer.total_ns[name] += dur
                tracer.self_ns[name] += dur - frame.child_ns
                if len(tracer.spans) < SPAN_LIMIT:
                    tracer.spans.append(
                        (frame.span_id, -1 if parent is None else parent.span_id,
                         name, t0, t1)
                    )

        return traced

    # -- process-pool workers -----------------------------------------------

    def _worker_aware(self, traced_run_trial):
        tracer = self

        @functools.wraps(traced_run_trial)
        def run_trial(*args, **kwargs):
            if os.getpid() != tracer._pid:
                # first trial in a forked worker: drop the parent's aggregates
                tracer._pid = os.getpid()
                tracer._in_worker = True
                tracer.reset()
            record = traced_run_trial(*args, **kwargs)
            if tracer._in_worker:
                tracer._spool()
            return record

        return run_trial

    def _spool(self):
        payload = {
            "calls": self.calls,
            "total_ns": self.total_ns,
            "self_ns": self.self_ns,
            "counts": self.counts,
        }
        path = self.spool_dir / f"worker-{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload))
        os.replace(tmp, path)

    def merge_workers(self) -> int:
        """Fold in the aggregates that pool workers spooled; returns how many."""
        files = sorted(self.spool_dir.glob("worker-*.json"))
        for path in files:
            payload = json.loads(path.read_text())
            self.calls.update(payload["calls"])
            self.total_ns.update(payload["total_ns"])
            self.self_ns.update(payload["self_ns"])
            self.counts.update(payload["counts"])
            path.unlink()
        return len(files)

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """Calls, total and self time (µs) per span name."""
        return {
            name: {
                "calls": self.calls[name],
                "total_us": self.total_ns[name] / 1000.0,
                "self_us": self.self_ns[name] / 1000.0,
            }
            for name in sorted(self.calls)
        }

    def write_spans(self, path):
        """Write the buffered spans (parent process only) as JSON."""
        Path(path).write_text(
            json.dumps(
                {
                    "clock": "perf_counter_ns",
                    "columns": ["id", "parent", "name", "start_ns", "end_ns"],
                    "recorded": len(self.spans),
                    "total": self.span_total,
                    "spans": self.spans,
                }
            )
        )
