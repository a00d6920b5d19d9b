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

from .pose_math import EulerPose
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


@dataclass
class Scenario:
    """One fully specified push trial."""

    name: str
    object: ObjectShape
    object_start_pose: PlanarPose
    pusher_start_pose: EulerPose
    target_pose: EulerPose
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    noise: NoiseModel = field(default_factory=NoiseModel)
    rng_seed: int = 0
    max_taps: int = 300

    def __post_init__(self):
        if self.max_taps <= 0:
            raise ScenarioError(f"scenario {self.name!r}: max_taps must be > 0")
        if not _is_int(self.rng_seed) or self.rng_seed < 0:
            raise ScenarioError(
                f"scenario {self.name!r}: rng_seed must be an integer >= 0, "
                f"got {self.rng_seed!r}"
            )
        osp = self.object_start_pose
        for label, values in (
            ("object_start_pose", (osp.y, osp.z, osp.alpha)),
            ("pusher_start_pose", self.pusher_start_pose.as_array()),
            ("target_pose", self.target_pose.as_array()),
        ):
            if not all(math.isfinite(v) for v in values):
                raise ScenarioError(f"scenario {self.name!r}: {label} has a non-finite value")
        # the simulator is planar: these poses may only carry (y, z, alpha)
        for label in ("pusher_start_pose", "target_pose"):
            try:
                PlanarPose.from_euler(getattr(self, label))
            except ValueError as exc:
                raise ScenarioError(f"scenario {self.name!r}: {label}: {exc}") from exc
        dp = self.target_pose.as_array()[:3] - self.pusher_start_pose.as_array()[:3]
        if float(np.linalg.norm(dp)) < 1e-9:
            raise ScenarioError(
                f"scenario {self.name!r}: target coincides with the pusher start"
            )


def _require(data: dict, key: str, ctx: str):
    if key not in data:
        raise ScenarioError(f"{ctx}: missing required field {key!r}")
    return data[key]


def _as_floats(value, n: int, ctx: str):
    try:
        out = [float(v) for v in value]
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{ctx}: expected a list of {n} numbers") from exc
    if len(out) != n:
        raise ScenarioError(f"{ctx}: expected {n} values, got {len(out)}")
    return out


def _parse_object(data, ctx: str) -> ObjectShape:
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}.object: expected an object table")
    catalog = builtin_shapes()
    if "shape" in data:
        name = data["shape"]
        if name not in catalog:
            raise ScenarioError(
                f"{ctx}.object.shape: unknown shape {name!r} "
                f"(known: {', '.join(sorted(catalog))})"
            )
        shape = catalog[name]
    elif "polygon_mm" in data or "circle_radius_mm" in data:
        kwargs = {
            "name": data.get("name", "custom"),
            "cof_offset": _as_floats(
                data.get("cof_offset_mm", (0.0, 0.0)), 2, f"{ctx}.object.cof_offset_mm"
            ),
        }
        if "polygon_mm" in data:
            kwargs["polygon"] = np.asarray(data["polygon_mm"], dtype=float)
        else:
            kwargs["radius"] = float(data["circle_radius_mm"])
        try:
            shape = ObjectShape(
                f_max=float(data.get("f_max_n", 1.0)),
                m_max=float(data.get("m_max_nmm", 15.0)),
                mu_contact=float(data.get("mu_contact", 0.5)),
                **kwargs,
            )
        except ValueError as exc:
            raise ScenarioError(f"{ctx}.object: {exc}") from exc
        return shape
    else:
        raise ScenarioError(
            f"{ctx}.object: needs 'shape', 'polygon_mm' or 'circle_radius_mm'"
        )
    overrides = {}
    for src, dst in (
        ("f_max_n", "f_max"),
        ("m_max_nmm", "m_max"),
        ("mu_contact", "mu_contact"),
    ):
        if src in data:
            overrides[dst] = float(data[src])
    if overrides:
        try:
            shape = shape.with_friction(**overrides)
        except ValueError as exc:
            raise ScenarioError(f"{ctx}.object: {exc}") from exc
    return shape


def _parse_controller(data, ctx: str) -> ControllerConfig:
    if data is None:
        return ControllerConfig()
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}.controller: expected an object table")
    kwargs = {}
    for key, value in data.items():
        if key not in _CONTROLLER_KEYS:
            raise ScenarioError(f"{ctx}.controller: unknown field {key!r}")
        attr = _CONTROLLER_KEYS[key]
        if attr == "ref_pose":
            kwargs[attr] = EulerPose.from_array(
                _as_floats(value, 6, f"{ctx}.controller.{key}")
            )
        elif attr in ("kp_servo", "ki_servo", "kd_servo"):
            kwargs[attr] = tuple(_as_floats(value, 6, f"{ctx}.controller.{key}"))
        elif attr in (
            "integral_clip_translation",
            "integral_clip_rotation",
            "alignment_clip",
        ):
            kwargs[attr] = tuple(_as_floats(value, 2, f"{ctx}.controller.{key}"))
        elif attr == "reacquire_limit":
            if not _is_int(value):
                raise ScenarioError(f"{ctx}.controller.{key}: expected an integer")
            kwargs[attr] = value
        else:
            kwargs[attr] = float(value)
    try:
        return ControllerConfig(**kwargs)
    except ValueError as exc:
        raise ScenarioError(f"{ctx}.controller: {exc}") from exc


def scenario_from_dict(data: dict, ctx: str = "scenario") -> Scenario:
    """Build and validate a Scenario from parsed JSON data."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{ctx}: top level must be an object table")
    name = data.get("name", "unnamed")
    shape = _parse_object(_require(data, "object", ctx), ctx)
    osp = _as_floats(
        _require(data, "object_start_pose_mm_deg", ctx),
        3,
        f"{ctx}.object_start_pose_mm_deg",
    )
    psp = _as_floats(
        data.get("pusher_start_pose_mm_deg", (0.0,) * 6),
        6,
        f"{ctx}.pusher_start_pose_mm_deg",
    )
    tgt = _as_floats(
        _require(data, "target_pose_mm_deg", ctx), 6, f"{ctx}.target_pose_mm_deg"
    )
    noise_enabled = data.get("noise_enabled", True)
    if not isinstance(noise_enabled, bool):
        raise ScenarioError(f"{ctx}.noise_enabled: expected true or false")
    noise_sigmas = data.get("noise_sigmas", {})
    if not isinstance(noise_sigmas, dict):
        raise ScenarioError(f"{ctx}.noise_sigmas: expected an object table")
    try:
        noise = NoiseModel(
            sigma_z=float(noise_sigmas.get("z_mm", 0.1)),
            sigma_alpha=float(noise_sigmas.get("alpha_deg", 0.39)),
            sigma_beta=float(noise_sigmas.get("beta_deg", 0.34)),
            enabled=noise_enabled,
        )
    except ValueError as exc:
        raise ScenarioError(f"{ctx}.noise_sigmas: {exc}") from exc
    max_taps = data.get("max_taps", 300)
    if not _is_int(max_taps):
        raise ScenarioError(f"{ctx}.max_taps: expected an integer")
    return Scenario(
        name=name,
        object=shape,
        object_start_pose=PlanarPose(*osp),
        pusher_start_pose=EulerPose.from_array(psp),
        target_pose=EulerPose.from_array(tgt),
        controller=_parse_controller(data.get("controller"), ctx),
        noise=noise,
        rng_seed=data.get("rng_seed", 0),
        max_taps=max_taps,
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
