import json
import math
from pathlib import Path

import numpy as np
import pytest

from tacpush.pose_math import EulerPose, euler_to_transform
from tacpush.scenario import ScenarioError, load_scenario, scenario_from_dict
from tacpush.scene import (
    ObjectShape,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
    cross2,
    dir_heading,
    heading_dir,
)

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "exp1_baseline.json"


def unit_square(side=1.0):
    h = side / 2
    return ObjectShape("sq", polygon=[[-h, -h], [h, -h], [h, h], [-h, h]])


def polygon_is_convex(verts):
    n = len(verts)
    signs = []
    for i in range(n):
        a, b, c = verts[i], verts[(i + 1) % n], verts[(i + 2) % n]
        signs.append(np.sign(cross2(b - a, c - b)))
    return all(s >= 0 for s in signs)


class TestPlanarPose:
    def test_transform_round_trip(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = PlanarPose(*rng.uniform(-300, 300, size=2), float(rng.uniform(-180, 180)))
            back = PlanarPose.from_transform(p.to_transform())
            assert back.y == pytest.approx(p.y, abs=1e-9)
            assert back.z == pytest.approx(p.z, abs=1e-9)
            assert back.alpha == pytest.approx(p.alpha, abs=1e-9)

    def test_rejects_out_of_plane(self):
        with pytest.raises(ValueError):
            PlanarPose.from_transform(euler_to_transform(EulerPose(x=1.0)))
        with pytest.raises(ValueError):
            PlanarPose.from_transform(euler_to_transform(EulerPose(beta=5.0)))

    @pytest.mark.parametrize("alpha", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_heading(self, alpha):
        with pytest.raises(ValueError, match="PlanarPose.alpha must be finite"):
            PlanarPose(0.0, 0.0, alpha)

    def test_heading_directions(self):
        assert heading_dir(0.0) == pytest.approx([0.0, 1.0])
        assert heading_dir(90.0) == pytest.approx([-1.0, 0.0])
        assert dir_heading([0.0, 1.0]) == pytest.approx(0.0)
        assert dir_heading([-1.0, 0.0]) == pytest.approx(90.0)

    def test_point_mapping_round_trip(self):
        pose = PlanarPose(10.0, -20.0, 33.0)
        p = np.array([4.0, 7.0])
        assert pose.inverse_transform_point(pose.transform_point(p)) == pytest.approx(p)


class TestObjectShapeValidation:
    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError, match="counter-clockwise"):
            ObjectShape("cw", polygon=[[-1, -1], [-1, 1], [1, 1], [1, -1]])

    def test_self_intersection_rejected(self):
        with pytest.raises(ValueError, match="self-intersecting"):
            ObjectShape("bow", polygon=[[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]])

    def test_bad_friction_rejected(self):
        with pytest.raises(ValueError, match="f_max"):
            unit_square().with_friction(f_max=0.0)
        with pytest.raises(ValueError, match="m_max"):
            unit_square().with_friction(m_max=-1.0)
        with pytest.raises(ValueError, match="mu_contact"):
            unit_square().with_friction(mu_contact=-0.1)
        # NaN fails every bound, through the constructor too
        with pytest.raises(ValueError, match="f_max"):
            ObjectShape("sq", polygon=[[-1, -1], [1, -1], [1, 1], [-1, 1]], f_max=math.nan)
        with pytest.raises(ValueError, match="m_max"):
            unit_square().with_friction(m_max=math.nan)
        with pytest.raises(ValueError, match="mu_contact"):
            unit_square().with_friction(mu_contact=math.nan)

    def test_cof_outside_rejected(self):
        with pytest.raises(ValueError, match="cof_offset"):
            ObjectShape("sq", polygon=[[-1, -1], [1, -1], [1, 1], [-1, 1]],
                        cof_offset=[5.0, 0.0])
        with pytest.raises(ValueError, match="cof_offset"):
            ObjectShape("c", radius=2.0, cof_offset=[3.0, 0.0])

    def test_with_friction_shares_geometry(self):
        base = builtin_shapes()["mug"]
        variant = base.with_friction(f_max=2.0, mu_contact=0.3)
        assert variant.polygon is base.polygon
        assert variant.edge_normals is base.edge_normals
        assert (variant.f_max, variant.m_max, variant.mu_contact) == (2.0, base.m_max, 0.3)
        assert (base.f_max, base.mu_contact) != (2.0, 0.3)


class TestCatalog:
    def test_composition(self):
        shapes = builtin_shapes()
        convex = [s for s in shapes.values() if s.radius is not None
                  or polygon_is_convex(s.polygon)]
        nonconvex = [s for s in shapes.values() if s.radius is None
                     and not polygon_is_convex(s.polygon)]
        assert len(convex) >= 5
        assert len(nonconvex) >= 2
        assert {"l_shape", "mug"} <= {s.name for s in nonconvex}

    def test_blue_square_dimensions(self):
        sq = builtin_shapes()["blue_square"]
        assert np.allclose(sorted(np.abs(sq.polygon).ravel()), 30.0)
        assert np.allclose(sq.cof_offset, 0.0)

    def test_circle_dimensions(self):
        c = builtin_shapes()["circle"]
        assert c.radius == 35.0

    def test_friction_parameters_positive(self):
        for s in builtin_shapes().values():
            assert s.f_max > 0
            assert s.m_max > 0
            assert 0 <= s.mu_contact

    def test_circle_moment_ratio_closed_form(self):
        c = builtin_shapes()["circle"]
        # m_max = 0.6 * (2R/3) * f_max for a uniform disc
        assert c.m_max / c.f_max == pytest.approx(0.6 * 2.0 * 35.0 / 3.0, rel=1e-9)


class TestClosestBoundaryPoint:
    def test_square_edge(self):
        sq = unit_square()
        _, point, normal, feature = boundary_probe(sq, PlanarPose(), [10.0, 0.0])
        assert point == pytest.approx([0.5, 0.0])
        assert normal == pytest.approx([1.0, 0.0])
        assert feature[0] == "edge"

    def test_square_corner_diagonal(self):
        sq = unit_square()
        _, point, normal, feature = boundary_probe(sq, PlanarPose(), [2.0, 2.0])
        assert point == pytest.approx([0.5, 0.5])
        assert normal == pytest.approx([math.sqrt(0.5)] * 2)
        assert feature[0] == "vertex"

    def test_circle(self):
        c = ObjectShape("c", radius=2.0)
        _, point, normal, feature = boundary_probe(c, PlanarPose(), [6.0, 8.0])
        assert normal == pytest.approx([0.6, 0.8])
        assert point == pytest.approx([1.2, 1.6])
        assert feature == ("arc", 0)

    def test_interior_query_normal_outward(self):
        sq = unit_square(side=4.0)
        sd, point, normal, _ = boundary_probe(sq, PlanarPose(), [1.5, 0.0])
        assert sd == pytest.approx(-0.5)
        assert normal == pytest.approx([1.0, 0.0])
        assert point == pytest.approx([2.0, 0.0])

    def test_posed_shape(self):
        sq = unit_square(side=2.0)
        pose = PlanarPose(10.0, 0.0, 90.0)
        sd, point, normal, _ = boundary_probe(sq, pose, [15.0, 0.0])
        assert sd == pytest.approx(4.0)
        assert point == pytest.approx([11.0, 0.0])
        assert normal == pytest.approx([1.0, 0.0], abs=1e-12)

    def test_normal_constant_along_edge(self):
        sq = unit_square(side=2.0)
        normals = [
            boundary_probe(sq, PlanarPose(), [t, -5.0])[2]
            for t in np.linspace(-0.9, 0.9, 15)
        ]
        assert np.allclose(normals, [0.0, -1.0], atol=1e-12)

    def test_normal_sweeps_at_vertex(self):
        sq = unit_square(side=2.0)
        angles = []
        for phi in np.linspace(-80, 80, 17):
            d = np.array([1.0, 1.0]) + 3.0 * np.array(
                [math.cos(math.radians(45 + phi)), math.sin(math.radians(45 + phi))]
            )
            _, _, normal, feature = boundary_probe(sq, PlanarPose(), d)
            if feature[0] == "vertex":
                angles.append(math.degrees(math.atan2(normal[1], normal[0])))
        assert len(angles) > 5
        assert min(angles) < 10.0
        assert max(angles) > 80.0

    def test_point_in_shape(self):
        # the signed distance is negative exactly inside the outline
        sq = unit_square(side=2.0)
        assert boundary_probe(sq, PlanarPose(), [0.0, 0.0])[0] < 0.0
        assert boundary_probe(sq, PlanarPose(), [2.0, 0.0])[0] > 0.0
        c = ObjectShape("c", radius=1.0)
        assert boundary_probe(c, PlanarPose(5.0, 0.0, 0.0), [5.5, 0.0])[0] < 0.0

    def test_against_boundary_discretization(self):
        # nearest distance agrees with brute-force search over 1e4 samples
        rng = np.random.default_rng(11)
        for shape in builtin_shapes().values():
            samples = _boundary_samples(shape, 10_000)
            pose = PlanarPose(
                float(rng.uniform(-30, 30)),
                float(rng.uniform(-30, 30)),
                float(rng.uniform(-180, 180)),
            )
            world_samples = np.array([pose.transform_point(p) for p in samples])
            extent = shape.max_extent()
            queries = pose.position + rng.uniform(
                -2.2 * extent, 2.2 * extent, size=(1_000, 2)
            )
            for q in queries:
                sd, point, _, _ = boundary_probe(shape, pose, q)
                brute = float(np.min(np.linalg.norm(world_samples - q, axis=1)))
                assert abs(abs(sd) - brute) < 0.01


def _boundary_samples(shape, n):
    if shape.radius is not None:
        ang = np.linspace(0.0, 2 * math.pi, n, endpoint=False)
        return shape.radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)
    verts = shape.polygon
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.linalg.norm(edges, axis=1)
    counts = np.maximum((lengths / lengths.sum() * n).astype(int), 2)
    pts = []
    for v, e, c in zip(verts, edges, counts):
        ts = np.linspace(0.0, 1.0, c, endpoint=False)
        pts.append(v + ts[:, None] * e)
    return np.vstack(pts)


class TestScenarioFiles:
    def test_baseline_file(self):
        sc = load_scenario(BASELINE)
        assert sc.target_pose == PlanarPose(200.0, 400.0, 0.0)
        assert sc.object.name == "blue_square"
        assert sc.max_taps == 300
        assert sc.noise.enabled

    def test_defaults_fill_gains(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        sc = load_scenario(path)
        assert sc.controller.kp_servo == (0.0, 0.0, 0.9, 0.9, 0.9, 0.0)
        assert sc.controller.ki_servo == (0.0, 0.0, 0.1, 0.1, 0.1, 0.0)
        assert sc.controller.kd_servo == (0.0,) * 6
        assert sc.controller.integral_clip_translation == (-5.0, 5.0)
        assert sc.controller.integral_clip_rotation == (-25.0, 25.0)
        assert sc.controller.kp_align == 0.2
        assert sc.controller.kd_align == 0.5
        assert sc.controller.alignment_clip == (-5.0, 5.0)
        assert sc.controller.approach_zone_radius == 60.0
        assert sc.controller.termination_radius == 20.0
        assert sc.noise.sigma_z == 0.1
        assert sc.noise.sigma_alpha == 0.39
        assert sc.controller.ref_pose == PlanarPose(z=2.0)

    def test_zero_max_taps_rejected(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        data["max_taps"] = 0
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="max_taps"):
            load_scenario(path)

    def test_unknown_shape_names_field(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        data["object"] = {"shape": "dodecahedron"}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="object.shape"):
            load_scenario(path)

    def test_parse_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_inline_polygon_object(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        data["object"] = {
            "name": "plank",
            "polygon_mm": [[-40, -10], [40, -10], [40, 10], [-40, 10]],
            "f_max_n": 1.0,
            "m_max_nmm": 20.0,
            "mu_contact": 0.4,
        }
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        sc = load_scenario(path)
        assert sc.object.name == "plank"
        assert sc.object.mu_contact == 0.4

    @pytest.mark.parametrize(
        "key, index",
        [("object_start_pose_mm_deg", 0), ("pusher_start_pose_mm_deg", 2),
         ("target_pose_mm_deg", 3)],
    )
    def test_non_finite_pose_rejected(self, key, index):
        data = json.loads(BASELINE.read_text())
        data[key][index] = float("nan")
        field = key.removesuffix("_mm_deg")
        with pytest.raises(ScenarioError, match=f"{field} has a non-finite value"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("key", ["pusher_start_pose_mm_deg", "target_pose_mm_deg"])
    @pytest.mark.parametrize("index", [0, 4, 5])  # x, beta, gamma
    def test_out_of_plane_pose_rejected(self, key, index):
        data = json.loads(BASELINE.read_text())
        data[key][index] = 5.0
        field = key.removesuffix("_mm_deg")
        with pytest.raises(ScenarioError, match=f"{field}: pose is not planar"):
            scenario_from_dict(data)

    def test_controller_override_and_unknown_key(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        data["controller"] = {"tap_forward_mm": 8.0}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        assert load_scenario(path).controller.tap_forward == 8.0
        data["controller"] = {"bogus": 1}
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="bogus"):
            load_scenario(path)
