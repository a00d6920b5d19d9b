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

from .push_controller import ControllerConfig
from .scene import ObjectShape, PlanarPose, builtin_shapes
from .tactile_sense import NoiseModel

__all__ = ["Scenario", "ScenarioError", "load_scenario", "scenario_from_dict", "shape_to_dict"]


class ScenarioError(ValueError):
    """Scenario file failed to parse or validate; the message names the field."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _seed(value, ctx: str) -> int:
    """The one seed rule: an integer in [0, 2**64), so that no two seeds alias."""
    if not _is_int(value) or not 0 <= value < 1 << 64:
        raise ScenarioError(f"{ctx}: expected an integer in [0, 2**64), got {value!r}")
    return value


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
        _seed(self.rng_seed, f"scenario {self.name!r}: rng_seed")
        target, start = self.target_pose, self.pusher_start_pose
        if math.hypot(target.y - start.y, target.z - start.z) < 1e-9:
            raise ScenarioError(
                f"scenario {self.name!r}: target coincides with the pusher start"
            )


def _construct(make, ctx: str, **kwargs):
    """make(**kwargs), with a ValueError from its checks raised as a
    ScenarioError that names the section."""
    try:
        return make(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}: {exc}") from exc


def _read(data, table: dict, ctx: str) -> dict:
    """Constructor arguments from one file section.

    `table` maps each file key to (constructor argument, reader); a reader
    takes (value, ctx) and returns the argument. Unknown keys are rejected,
    absent keys are left to the constructor's defaults, and a pose field is
    named without its `_mm_deg` suffix.
    """
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}: expected an object table")
    for key in data:
        if key not in table:
            raise ScenarioError(f"{ctx}: unknown field {key!r}")
    return {
        arg: reader(data[key], f"{ctx}.{key.removesuffix('_mm_deg')}")
        for key, (arg, reader) in table.items()
        if key in data
    }


def _as_is(value, ctx: str):
    """Reader for a field the constructor checks itself."""
    return value


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


def _vector(n: int):
    """Reader for a field of n numbers."""
    return lambda value, ctx: tuple(_numbers(value, n, ctx))


def _planar(value, ctx: str, what: str = "pose") -> tuple:
    """The (y, z, alpha) entries of a 6-value (x, y, z, alpha, beta, gamma)
    field that must lie in the plane: x, beta and gamma are 0."""
    x, y, z, alpha, beta, gamma = _numbers(value, 6, ctx)
    if x != 0.0 or beta != 0.0 or gamma != 0.0:
        raise ScenarioError(f"{ctx}: {what} is not planar: x, beta and gamma must be 0")
    return y, z, alpha


def _planar_pose(value, ctx: str) -> PlanarPose:
    return PlanarPose(*_planar(value, ctx))


def _planar_gains(value, ctx: str) -> tuple:
    """A servo gain diagonal: files give all six channels, the controller
    takes (y, z, alpha)."""
    return _planar(value, ctx, "gain diagonal")


def _object_pose(value, ctx: str) -> PlanarPose:
    """A 3-value (y, z, heading) object pose field."""
    return PlanarPose(*_numbers(value, 3, ctx))


def _string(value, ctx: str) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{ctx}: expected a string, got {value!r}")
    return value


def _flag(value, ctx: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{ctx}: expected true or false")
    return value


def _catalog_shape(value, ctx: str) -> ObjectShape:
    catalog = builtin_shapes()
    if not isinstance(value, str) or value not in catalog:
        raise ScenarioError(
            f"{ctx}: unknown shape {value!r} (known: {', '.join(sorted(catalog))})"
        )
    return catalog[value]


def _polygon(value, ctx: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ScenarioError(f"{ctx}: expected a list of [y, z] vertices")
    if len(value) < 3:
        raise ScenarioError(f"{ctx}: expected at least 3 [y, z] vertices, got {len(value)}")
    return np.array([_numbers(v, 2, ctx) for v in value])


_FRICTION = {
    "f_max_n": ("f_max", _number),
    "m_max_nmm": ("m_max", _number),
    "mu_contact": ("mu_contact", _number),
}
_CATALOG_OBJECT = {"shape": ("shape", _catalog_shape), **_FRICTION}
# in the key order shape_to_dict writes
_INLINE_OBJECT = {
    "name": ("name", _string),
    "cof_offset_mm": ("cof_offset", _vector(2)),
    **_FRICTION,
    "circle_radius_mm": ("radius", _number),
    "polygon_mm": ("polygon", _polygon),
}
_CONTROLLER = {
    "ref_pose_mm_deg": ("ref_pose", _planar_pose),
    "kp_servo_diag": ("kp_servo", _planar_gains),
    "ki_servo_diag": ("ki_servo", _planar_gains),
    "kd_servo_diag": ("kd_servo", _planar_gains),
    "integral_clip_translation_mm": ("integral_clip_translation", _vector(2)),
    "integral_clip_rotation_deg": ("integral_clip_rotation", _vector(2)),
    "kp_align": ("kp_align", _number),
    "ki_align": ("ki_align", _number),
    "kd_align": ("kd_align", _number),
    "alignment_clip_mm": ("alignment_clip", _vector(2)),
    "theta_ref_deg": ("theta_ref", _number),
    "approach_zone_radius_mm": ("approach_zone_radius", _number),
    "termination_radius_mm": ("termination_radius", _number),
    "tap_forward_mm": ("tap_forward", _number),
    "tap_back_mm": ("tap_back", _number),
    "reacquire_limit": ("reacquire_limit", _as_is),
    "reacquire_advance_mm": ("reacquire_advance", _number),
}
_NOISE_SIGMAS = {"z_mm": ("sigma_z", _number), "alpha_deg": ("sigma_alpha", _number)}


def shape_to_dict(shape: ObjectShape) -> dict:
    """The inline object table that reads back as `shape`."""
    out = {}
    for key, (arg, _) in _INLINE_OBJECT.items():
        value = getattr(shape, arg)
        if value is not None:
            out[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return out


def _object(value, ctx: str) -> ObjectShape:
    """A catalog shape by name, or an inline outline. A catalog shape given
    without friction fields is the catalog instance itself."""
    if isinstance(value, dict) and "shape" in value:
        kwargs = _read(value, _CATALOG_OBJECT, ctx)
        shape = kwargs.pop("shape")
        if not kwargs:
            return shape
        return _construct(lambda **kw: replace(shape, **kw), ctx, **kwargs)
    kwargs = _read(value, _INLINE_OBJECT, ctx)
    if "polygon" not in kwargs and "radius" not in kwargs:
        raise ScenarioError(f"{ctx}: needs 'shape', 'polygon_mm' or 'circle_radius_mm'")
    return _construct(ObjectShape, ctx, **{"name": "custom", **kwargs})


def _controller(value, ctx: str) -> ControllerConfig:
    return _construct(ControllerConfig, ctx, **_read(value, _CONTROLLER, ctx))


_TOP = {
    "name": ("name", _string),
    "object": ("object", _object),
    "object_start_pose_mm_deg": ("object_start_pose", _object_pose),
    "pusher_start_pose_mm_deg": ("pusher_start_pose", _planar_pose),
    "target_pose_mm_deg": ("target_pose", _planar_pose),
    "controller": ("controller", _controller),
    "noise_enabled": ("noise_enabled", _flag),
    "noise_sigmas": ("noise_sigmas", lambda value, ctx: _read(value, _NOISE_SIGMAS, ctx)),
    "rng_seed": ("rng_seed", _as_is),
    "max_taps": ("max_taps", _as_is),
}
# Scenario arguments a file must give
_REQUIRED = ("object", "object_start_pose", "target_pose")


def scenario_from_dict(data: dict, ctx: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON data.

    Pose fields are named without their `_mm_deg` suffix in error messages.
    """
    kwargs = {"name": "unnamed", "pusher_start_pose": PlanarPose(), **_read(data, _TOP, ctx)}
    for key, (arg, _) in _TOP.items():
        if arg in _REQUIRED and arg not in kwargs:
            raise ScenarioError(f"{ctx}: missing required field {key!r}")
    noise = _construct(
        NoiseModel,
        f"{ctx}.noise_sigmas",
        enabled=kwargs.pop("noise_enabled", True),
        **kwargs.pop("noise_sigmas", {}),
    )
    return Scenario(noise=noise, **kwargs)


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
