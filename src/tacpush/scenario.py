"""Scenario files: JSON schema, validation and defaults for one push trial.

A scenario fixes the object (catalog name or inline outline), its start
pose, the pusher start pose, the target pose, controller gains, the sensor
noise model, the RNG seed and the tap budget. Field names carry units
(mm/deg/N) so config diffs stay unambiguous; missing controller/noise
fields fall back to the built-in defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .inputs import Row, ScenarioError, _count, _numbers, _seed, _string, check, read
from .push_controller import ControllerConfig
from .scene import ObjectShape, PlanarPose, builtin_shapes
from .tactile_sense import NoiseModel

__all__ = ["Scenario", "ScenarioError", "load_scenario", "scenario_from_dict", "shape_to_dict"]


@dataclass
class Scenario:
    """One fully specified push trial."""

    name: str
    object: ObjectShape
    object_start_pose: PlanarPose
    pusher_start_pose: PlanarPose
    target_pose: PlanarPose
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    rng_seed: int = 0
    max_taps: int = 300

    # noise_sigmas and the top level's noise_enabled give the NoiseModel
    KEYS = {
        "name": Row("name", _string),
        "object": Row("object", ObjectShape),
        "object_start_pose_mm_deg": Row("object_start_pose", PlanarPose),
        "pusher_start_pose_mm_deg": Row("pusher_start_pose", PlanarPose),
        "target_pose_mm_deg": Row("target_pose", PlanarPose),
        "controller": Row("controller", ControllerConfig),
        "noise_sigmas": Row("noise", NoiseModel),
        "max_taps": Row("max_taps", _count, ">= 1"),
        "rng_seed": Row("rng_seed", _seed),
    }

    def __post_init__(self):
        check(self)
        if any(c in self.name for c in ',"\n\r'):
            raise ScenarioError(  # the name is an unquoted taps.csv field
                f"scenario name must have no comma, quote or line break, got {self.name!r}"
            )
        target, start = self.target_pose, self.pusher_start_pose
        if math.hypot(target.y - start.y, target.z - start.z) < 1e-9:
            raise ScenarioError(
                f"scenario {self.name!r}: target coincides with the pusher start"
            )


def _construct(make, ctx: str, **kwargs):
    """make(**kwargs) from values `read` has checked, with a ValueError from
    a check across fields raised as a ScenarioError that names the section."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _planar(value, ctx: str, what: str = "pose") -> tuple:
    """The (y, z, alpha) entries of a 6-value (x, y, z, alpha, beta, gamma)
    field that must lie in the plane: x, beta and gamma are 0."""
    x, y, z, alpha, beta, gamma = _numbers(value, 6, ctx)
    if x != 0.0 or beta != 0.0 or gamma != 0.0:
        raise ScenarioError(f"{ctx}: {what} is not planar: x, beta and gamma must be 0")
    return y, z, alpha


def _planar_pose(value, ctx: str) -> PlanarPose:
    return PlanarPose(*_planar(value, ctx))


def _catalog_shape(value, ctx: str) -> ObjectShape:
    catalog = builtin_shapes()
    if not isinstance(value, str) or value not in catalog:
        raise ScenarioError(
            f"{ctx}: unknown shape {value!r} (known: {', '.join(sorted(catalog))})"
        )
    return catalog[value]


_CATALOG_OBJECT = {
    "shape": Row("shape", ObjectShape),
    **{key: ObjectShape.KEYS[key] for key in ("f_max_n", "m_max_nmm", "mu_contact")},
}


def shape_to_dict(shape: ObjectShape) -> dict:
    """The inline object table that reads back as `shape`."""
    out = {}
    for key, row in ObjectShape.KEYS.items():
        value = getattr(shape, row.field)
        if value is not None:
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _object(value, ctx: str) -> ObjectShape:
    """A catalog shape by name, or an inline outline. A catalog shape given
    without friction fields is the catalog instance itself."""
    if isinstance(value, dict) and "shape" in value:
        kwargs = read(value, _CATALOG_OBJECT, ctx, _CONVERT)
        shape = kwargs.pop("shape")
        if not kwargs:
            return shape
        return _construct(lambda **kw: replace(shape, **kw), ctx, **kwargs)
    kwargs = read(value, ObjectShape.KEYS, ctx, _CONVERT)
    return _construct(ObjectShape, ctx, **{"name": "custom", **kwargs})


def _controller(value, ctx: str) -> ControllerConfig:
    return ControllerConfig(**read(value, ControllerConfig.KEYS, ctx, _CONVERT, ControllerConfig()))


_SIGMAS = {key: row for key, row in NoiseModel.KEYS.items() if key != "noise_enabled"}
_TOP = {**Scenario.KEYS, "noise_enabled": NoiseModel.KEYS["noise_enabled"]}
# the keys with a file format of their own: the 6-value planar poses, the
# 6-entry gain diagonals, the 3-value object pose, the catalog name, and the
# sections
_CONVERT = {
    "pusher_start_pose_mm_deg": _planar_pose,
    "target_pose_mm_deg": _planar_pose,
    "ref_pose_mm_deg": _planar_pose,
    **dict.fromkeys(("kp_servo_diag", "ki_servo_diag", "kd_servo_diag"),
                    lambda value, ctx: _planar(value, ctx, "gain diagonal")),
    "object_start_pose_mm_deg": lambda value, ctx: PlanarPose(*_numbers(value, 3, ctx)),
    "shape": _catalog_shape,
    "object": _object,
    "controller": _controller,
    "noise_sigmas": lambda value, ctx: NoiseModel(**read(value, _SIGMAS, ctx, _CONVERT)),
}
# Scenario arguments a file must give
_REQUIRED = ("object", "object_start_pose", "target_pose")


def scenario_from_dict(data: dict, ctx: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    Pose fields are named without their `_mm_deg` suffix in error messages.
    """
    kwargs = {"name": "unnamed", "pusher_start_pose": PlanarPose(),
              **read(data, _TOP, ctx, _CONVERT)}
    for key, row in _TOP.items():
        if row.field in _REQUIRED and row.field not in kwargs:
            raise ScenarioError(f"{ctx}: missing required field {key!r}")
    if "enabled" in kwargs:
        kwargs["noise"] = replace(kwargs.get("noise", NoiseModel()), enabled=kwargs.pop("enabled"))
    return _construct(Scenario, ctx, **kwargs)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON: {exc}") from exc
    return scenario_from_dict(data, ctx=str(path))
