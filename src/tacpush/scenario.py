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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .push_controller import ControllerConfig
from .scene import ObjectShape, PlanarPose, builtin_shapes
from .tactile_sense import NoiseModel

__all__ = ["Scenario", "ScenarioError", "load_scenario", "scenario_from_dict"]


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; the message names the field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# scenario keys -> ControllerConfig attributes
_CONTROLLER_KEYS = {
    "ref_pose_mm_deg": "ref_pose",
    "kp_servo_diag": "kp_servo",
    "ki_servo_diag": "ki_servo",
    "kd_servo_diag": "kd_servo",
    "integral_clip_translation_mm": "integral_clip_translation",
    "integral_clip_rotation_deg": "integral_clip_rotation",
    "kp_align": "kp_align",
    "ki_align": "ki_align",
    "kd_align": "kd_align",
    "alignment_clip_mm": "alignment_clip",
    "theta_ref_deg": "theta_ref",
    "approach_zone_radius_mm": "approach_zone_radius",
    "termination_radius_mm": "termination_radius",
    "tap_forward_mm": "tap_forward",
    "tap_back_mm": "tap_back",
    "reacquire_limit": "reacquire_limit",
    "reacquire_advance_mm": "reacquire_advance",
}


# every key each table may hold
_TOP_KEYS = {
    "name",
    "object",
    "object_start_pose_mm_deg",
    "pusher_start_pose_mm_deg",
    "target_pose_mm_deg",
    "controller",
    "noise_enabled",
    "noise_sigmas",
    "rng_seed",
    "max_taps",
}
_FRICTION_KEYS = {"f_max_n": "f_max", "m_max_nmm": "m_max", "mu_contact": "mu_contact"}
_CATALOG_OBJECT_KEYS = {"shape", *_FRICTION_KEYS}
_INLINE_OBJECT_KEYS = {
    "name", "polygon_mm", "circle_radius_mm", "cof_offset_mm", *_FRICTION_KEYS
}
_NOISE_KEYS = {"z_mm": "sigma_z", "alpha_deg": "sigma_alpha"}


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

    def __post_init__(self):
        if not isinstance(self.name, str) or any(c in self.name for c in ',"\n\r'):
            raise ScenarioError(  # the name is an unquoted taps.csv field
                f"scenario name must have no comma, quote or line break, got {self.name!r}"
            )
        if not _is_int(self.max_taps) or self.max_taps < 1:
            raise ScenarioError(
                f"scenario {self.name!r}: max_taps must be an integer >= 1, got {self.max_taps!r}"
            )
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ScenarioError(
                f"scenario {self.name!r}: rng_seed must be an integer >= 0, "
                f"got {self.rng_seed!r}"
            )
        target, start = self.target_pose, self.pusher_start_pose
        if math.hypot(target.y - start.y, target.z - start.z) < 1e-9:
            raise ScenarioError(
                f"scenario {self.name!r}: target coincides with the pusher start"
            )


def _require(data: dict, key: str, ctx: str):
    if key not in data:
        raise ScenarioError(f"{ctx}: missing required field {key!r}")
    return data[key]


def _check_keys(data: dict, known, ctx: str):
    for key in data:
        if key not in known:
            raise ScenarioError(f"{ctx}: unknown field {key!r}")


def _number(value, ctx: str) -> float:
    """The one reader for numeric fields: a finite JSON number. Strings,
    booleans, NaN and infinities are rejected with the field named."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{ctx}: expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:  # an integer beyond the float range
        out = math.inf
    if not math.isfinite(out):
        raise ScenarioError(f"{ctx} has a non-finite value")
    return out


def _numbers(value, n: int, ctx: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{ctx}: expected a list of {n} numbers")
    if len(value) != n:
        raise ScenarioError(f"{ctx}: expected {n} values, got {len(value)}")
    return [_number(v, ctx) for v in value]


def _planar_pose(value, ctx: str) -> PlanarPose:
    """A 6-value (x, y, z, alpha, beta, gamma) pose field that must lie in the
    plane: x, beta and gamma are 0."""
    x, y, z, alpha, beta, gamma = _numbers(value, 6, ctx)
    if x != 0.0 or beta != 0.0 or gamma != 0.0:
        raise ScenarioError(f"{ctx}: pose is not planar: x, beta and gamma must be 0")
    return PlanarPose(y, z, alpha)


def _name(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{ctx}: expected a string, got {value!r}")
    return value


def _parse_object(data, ctx: str) -> ObjectShape:
    ctx = f"{ctx}.object"
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}: expected an object table")
    friction = {
        attr: _number(data[key], f"{ctx}.{key}")
        for key, attr in _FRICTION_KEYS.items()
        if key in data
    }
    if "shape" in data:
        _check_keys(data, _CATALOG_OBJECT_KEYS, ctx)
        catalog = builtin_shapes()
        name = data["shape"]
        if not isinstance(name, str) or name not in catalog:
            raise ScenarioError(
                f"{ctx}.shape: unknown shape {name!r} "
                f"(known: {', '.join(sorted(catalog))})"
            )
        shape = catalog[name]
        try:
            return shape.with_friction(**friction) if friction else shape
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc
    if "polygon_mm" not in data and "circle_radius_mm" not in data:
        raise ScenarioError(f"{ctx}: needs 'shape', 'polygon_mm' or 'circle_radius_mm'")
    _check_keys(data, _INLINE_OBJECT_KEYS, ctx)
    kwargs = {
        "name": _name(data.get("name", "custom"), f"{ctx}.name"),
        "cof_offset": _numbers(
            data.get("cof_offset_mm", (0.0, 0.0)), 2, f"{ctx}.cof_offset_mm"
        ),
        **friction,
    }
    if "polygon_mm" in data:
        rows = data["polygon_mm"]
        if not isinstance(rows, list):
            raise ScenarioError(f"{ctx}.polygon_mm: expected a list of [y, z] vertices")
        kwargs["polygon"] = np.array([_numbers(v, 2, f"{ctx}.polygon_mm") for v in rows])
    if "circle_radius_mm" in data:
        kwargs["radius"] = _number(data["circle_radius_mm"], f"{ctx}.circle_radius_mm")
    try:
        return ObjectShape(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _parse_controller(data, ctx: str) -> ControllerConfig:
    ctx = f"{ctx}.controller"
    if data is None:
        return ControllerConfig()
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}: expected an object table")
    _check_keys(data, _CONTROLLER_KEYS, ctx)
    kwargs = {}
    for key, value in data.items():
        attr = _CONTROLLER_KEYS[key]
        if attr == "ref_pose":
            kwargs[attr] = _planar_pose(value, f"{ctx}.ref_pose")
        elif attr in ("kp_servo", "ki_servo", "kd_servo"):
            kwargs[attr] = tuple(_numbers(value, 6, f"{ctx}.{key}"))
        elif attr in (
            "integral_clip_translation",
            "integral_clip_rotation",
            "alignment_clip",
        ):
            kwargs[attr] = tuple(_numbers(value, 2, f"{ctx}.{key}"))
        elif attr == "reacquire_limit":
            if not _is_int(value):
                raise ScenarioError(f"{ctx}.{key}: expected an integer")
            kwargs[attr] = value
        else:
            kwargs[attr] = _number(value, f"{ctx}.{key}")
    try:
        return ControllerConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _parse_noise(data: dict, ctx: str) -> NoiseModel:
    enabled = data.get("noise_enabled", True)
    if not isinstance(enabled, bool):
        raise ScenarioError(f"{ctx}.noise_enabled: expected true or false")
    ctx = f"{ctx}.noise_sigmas"
    sigmas = data.get("noise_sigmas", {})
    if not isinstance(sigmas, dict):
        raise ScenarioError(f"{ctx}: expected an object table")
    _check_keys(sigmas, _NOISE_KEYS, ctx)
    kwargs = {_NOISE_KEYS[k]: _number(v, f"{ctx}.{k}") for k, v in sigmas.items()}
    try:
        return NoiseModel(enabled=enabled, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def scenario_from_dict(data: dict, ctx: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    Pose fields are named without their `_mm_deg` suffix in error messages.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}: top level must be an object table")
    _check_keys(data, _TOP_KEYS, ctx)
    osp = _require(data, "object_start_pose_mm_deg", ctx)
    return Scenario(
        name=_name(data.get("name", "unnamed"), f"{ctx}.name"),
        object=_parse_object(_require(data, "object", ctx), ctx),
        object_start_pose=PlanarPose(*_numbers(osp, 3, f"{ctx}.object_start_pose")),
        pusher_start_pose=_planar_pose(
            data.get("pusher_start_pose_mm_deg", (0.0,) * 6), f"{ctx}.pusher_start_pose"
        ),
        target_pose=_planar_pose(
            _require(data, "target_pose_mm_deg", ctx), f"{ctx}.target_pose"
        ),
        controller=_parse_controller(data.get("controller"), ctx),
        noise=_parse_noise(data, ctx),
        rng_seed=data.get("rng_seed", 0),
        max_taps=data.get("max_taps", 300),
    )


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
