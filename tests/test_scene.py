import dataclasses
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from tacpush import scenario
from tacpush.pose_math import transform_to_euler
from tacpush.push_controller import ControllerConfig
from tacpush.scenario import ScenarioError, load_scenario, scenario_from_dict, shape_to_dict
from tacpush.scene import (
    ObjectShape,
    PlanarPose,
    boundary_probe,
    builtin_shapes,
    dir_heading,
    heading_dir,
)
from tacpush.tactile_sense import NoiseModel

from physics_oracle import to_work

BASELINE = Path(__file__).resolve().parent.parent / "scenarios" / "exp1_baseline.json"


def unit_square(side=1.0):
    h = side / 2
    return ObjectShape("sq", polygon=[[-h, -h], [h, -h], [h, h], [-h, h]])


class TestPlanarPose:
    def test_transform_round_trip(self):
        # the SE(3) embedding reads back as the Euler vector (0, y, z, alpha, 0, 0)
        rng = np.random.default_rng(0)
        for _ in range(500):
            p = PlanarPose(*rng.uniform(-300, 300, size=2), float(rng.uniform(-180, 180)))
            back = dataclasses.astuple(transform_to_euler(p.to_transform()))
            assert back == pytest.approx((0.0, p.y, p.z, p.alpha, 0.0, 0.0), abs=1e-9)

    @pytest.mark.parametrize(
        "name, value",
        [("alpha", math.inf), ("alpha", -math.inf), ("alpha", math.nan),
         ("y", math.nan), ("y", -math.inf), ("z", math.nan), ("z", math.inf)],
        ids=["inf", "-inf", "nan", "y_nan", "y_-inf", "z_nan", "z_inf"],
    )
    def test_rejects_non_finite_heading(self, name, value):
        # the position is checked with the heading
        with pytest.raises(ValueError, match=f"PlanarPose.{name} must be finite"):
            PlanarPose(**{name: value})

    def test_heading_directions(self):
        assert [type(v) for v in heading_dir(30.0)] == [float, float]
        assert heading_dir(0.0) == pytest.approx([0.0, 1.0])
        assert heading_dir(90.0) == pytest.approx([-1.0, 0.0])
        assert dir_heading([0.0, 1.0]) == pytest.approx(0.0)
        assert dir_heading([-1.0, 0.0]) == pytest.approx(90.0)

    def test_point_mapping_round_trip(self):
        # the probe maps its query back into the object frame: a vertex mapped
        # out into the work frame is found again as that vertex, at distance 0
        pose = PlanarPose(10.0, -20.0, 33.0)
        sq = unit_square(side=8.0)
        for i, v in enumerate(sq.polygon):
            sd, point, _, feature = boundary_probe(sq, pose, to_work(pose, v))
            assert sd == pytest.approx(0.0, abs=1e-12)
            assert point == pytest.approx(to_work(pose, v))
            assert feature == ("vertex", i)


class TestObjectShapeValidation:
    def test_clockwise_polygon_rejected(self):
        with pytest.raises(ValueError, match="counter-clockwise"):
            ObjectShape("cw", polygon=[[-1, -1], [-1, 1], [1, 1], [1, -1]])

    @pytest.mark.parametrize(
        "polygon",
        [
            [[0, 0], [4, 0], [4, 4], [2, -1], [0, 4]],
            # two triangles pinched at the repeated vertex (2, 2)
            [[0, 0], [4, 0], [2, 2], [4, 4], [0, 4], [2, 2]],
            # a notch whose last edge crosses the notch's wall at (3, 4)
            [[0, 0], [6, 0], [6, 6], [3, 6], [3, 2], [5, 2], [5, 4], [0, 4]],
        ],
        ids=["bow", "repeated_vertex", "notch_crossing"],
    )
    def test_self_intersection_rejected(self, polygon):
        with pytest.raises(ValueError, match="self-intersecting"):
            ObjectShape("bad", polygon=polygon)

    @pytest.mark.parametrize(
        "polygon",
        [
            builtin_shapes()["l_shape"].polygon,
            builtin_shapes()["mug"].polygon,
            # (0, -2) lies on the straight line from (-2, -2) to (2, -2)
            [[-2, -2], [0, -2], [2, -2], [2, 2], [-2, 2]],
        ],
        ids=["l_shape", "mug", "collinear_vertex"],
    )
    def test_simple_outline_accepted(self, polygon):
        assert np.array_equal(ObjectShape("ok", polygon=polygon).polygon, polygon)

    def test_bad_friction_rejected(self):
        with pytest.raises(ValueError, match="f_max"):
            dataclasses.replace(unit_square(), f_max=0.0)
        with pytest.raises(ValueError, match="m_max"):
            dataclasses.replace(unit_square(), m_max=-1.0)
        with pytest.raises(ValueError, match="mu_contact"):
            dataclasses.replace(unit_square(), mu_contact=-0.1)
        # NaN fails every bound
        with pytest.raises(ValueError, match="f_max"):
            ObjectShape("sq", polygon=[[-1, -1], [1, -1], [1, 1], [-1, 1]], f_max=math.nan)
        with pytest.raises(ValueError, match="m_max"):
            dataclasses.replace(unit_square(), m_max=math.nan)
        with pytest.raises(ValueError, match="mu_contact"):
            dataclasses.replace(unit_square(), mu_contact=math.nan)
        # the contact matrix divides by their squares
        for bad in (math.inf, 1e200, 1e-200):
            with pytest.raises(ValueError, match="f_max"):
                dataclasses.replace(unit_square(), f_max=bad)
            with pytest.raises(ValueError, match="m_max"):
                dataclasses.replace(unit_square(), m_max=bad)

    def test_cof_outside_rejected(self):
        with pytest.raises(ValueError, match="cof_offset"):
            ObjectShape("sq", polygon=[[-1, -1], [1, -1], [1, 1], [-1, 1]],
                        cof_offset=[5.0, 0.0])
        with pytest.raises(ValueError, match="cof_offset"):
            ObjectShape("c", radius=2.0, cof_offset=[3.0, 0.0])

    def test_non_finite_geometry_rejected(self):
        # the field is named, and no numpy warning is raised on the way
        square = [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]]
        cases = [({"radius": r}, "radius") for r in (math.inf, math.nan)]
        for value in (math.nan, math.inf, -math.inf):
            for i in range(2):
                verts = [list(v) for v in square]
                verts[2][i] = value
                cases.append(({"polygon": verts}, "polygon vertices must be finite"))
            for kwargs in ({"polygon": square}, {"radius": 2.0}):
                cases.append(({**kwargs, "cof_offset": [0.0, value]}, "cof_offset"))
        for kwargs, match in cases:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match=match):
                    ObjectShape("bad", **kwargs)

    def test_friction_variant_rederives_geometry(self):
        # a variant is built by the constructor: equal outline, its own edge
        # arrays re-derived from it, and the new friction values
        base = builtin_shapes()["mug"]
        variant = dataclasses.replace(base, f_max=2.0, mu_contact=0.3)
        assert np.array_equal(variant.polygon, base.polygon)
        assert variant.edge_normals is not base.edge_normals
        assert np.array_equal(variant.edge_normals, base.edge_normals)
        assert (variant.f_max, variant.m_max, variant.mu_contact) == (2.0, base.m_max, 0.3)
        assert (base.f_max, base.mu_contact) != (2.0, 0.3)

    def test_outline_cannot_be_reassigned(self):
        # the probe's tables are derived from the outline at construction
        shape = unit_square()
        with pytest.raises(dataclasses.FrozenInstanceError):
            shape.polygon = 2.0 * shape.polygon

    def test_outline_and_cof_cannot_be_written_in_place(self):
        shape = builtin_shapes()["blue_square"]
        with pytest.raises(ValueError, match="read-only"):
            shape.polygon[:] *= 2
        with pytest.raises(ValueError, match="read-only"):
            shape.cof_offset[0] = 1e6
        assert shape.max_extent() == pytest.approx(30.0 * math.sqrt(2.0))


class TestCatalog:
    def test_composition(self):
        shapes = builtin_shapes()
        assert {name for name, s in shapes.items() if s._convex} == {
            "blue_square", "red_square", "yellow_triangle", "rectangle", "circle"
        }
        assert {name for name, s in shapes.items() if not s._convex} == {"l_shape", "mug"}

    def test_convexity_is_derived_from_the_outline(self):
        # simulate_tap's supporting-line certificate reads it: a circle, or a
        # polygon with no right turn, collinear vertices included
        collinear = ObjectShape("collinear", polygon=[[0, 0], [1, 0], [2, 0], [2, 1], [0, 1]],
                                cof_offset=[1.0, 0.5])
        dart = ObjectShape("dart", polygon=[[0, 0], [2, 1], [4, 0], [2, 3]],
                           cof_offset=[2.0, 1.5])
        assert collinear._convex is True
        assert dart._convex is False
        # a shape rebuilt by dataclasses.replace derives it again
        shapes = builtin_shapes()
        assert dataclasses.replace(shapes["mug"], f_max=2.0)._convex is False
        assert dataclasses.replace(shapes["circle"], mu_contact=0.1)._convex is True
        assert dataclasses.replace(shapes["blue_square"], mu_contact=0.1)._convex is True
        assert dataclasses.replace(shapes["blue_square"],
                                   polygon=shapes["l_shape"].polygon)._convex is False
        assert dataclasses.replace(dart, polygon=collinear.polygon,
                                   cof_offset=[1.0, 0.5])._convex is True

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_query_rejected(self, bad):
        # named, for polygons and circles alike, instead of a NaN result
        for shape in (unit_square(), ObjectShape("c", radius=1.0)):
            for p_work in ([bad, 0.0], np.array([0.0, bad])):
                with pytest.raises(ValueError, match="p_work must be finite"):
                    boundary_probe(shape, PlanarPose(), p_work)

    def test_query_off_a_vertex_square_to_its_pseudonormal_is_outside(self):
        # within 1e-9 of an edge's end the nearest feature is the vertex; this
        # query lies on the line through the vertex square to its pseudonormal
        # (their dot product is exactly 0), and outside the square
        sq = builtin_shapes()["blue_square"]
        sd, _, normal, feature = boundary_probe(sq, PlanarPose(), (30.0 + 5e-8, 30.0 - 5e-8))
        assert feature == ("vertex", 2)
        assert sd > 0.0 and normal[0] > 0.0

    @pytest.mark.parametrize("p_work", [(0.0, 1e160), (1e200, 0.0)])
    def test_query_whose_squared_distance_overflows_rejected(self, p_work):
        # no polygon edge's squared distance is finite, so none is nearest:
        # named instead of an unbound edge index; a circle needs no square
        for name in ("blue_square", "mug"):
            with pytest.raises(ValueError, match=r"p_work \(.*\) is too far from shape"):
                boundary_probe(builtin_shapes()[name], PlanarPose(), p_work)
        sd = boundary_probe(builtin_shapes()["circle"], PlanarPose(), p_work)[0]
        assert sd == max(p_work) - 35.0

    def test_grid_cells_with_the_same_edges_share_one_tuple(self):
        # so that a grid near its entry limit holds each distinct list once
        for shape in builtin_shapes().values():
            if shape.polygon is not None:
                cells = shape._edge_grid[4]
                assert len({id(c) for c in cells}) == len(set(cells)) < len(cells)

    def test_outline_too_large_for_a_grid(self):
        # a 2 m square would need a million grid entries, so it has no grid
        # and every query tries every edge
        big = unit_square(2000.0)
        assert big._edge_grid[2:] == (0, 0, ())
        sd, point, normal, feature = boundary_probe(big, PlanarPose(), [999.0, 10.0])
        assert (sd, feature) == (-1.0, ("edge", 1))
        assert np.array_equal(point, [1000.0, 10.0]) and np.array_equal(normal, [1.0, 0.0])

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
            world_samples = np.array([to_work(pose, p) for p in samples])
            extent = shape.max_extent()
            queries = np.array([pose.y, pose.z]) + rng.uniform(
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
        assert sc.controller.kp_servo == (0.0, 0.9, 0.9)
        assert sc.controller.ki_servo == (0.0, 0.1, 0.1)
        assert sc.controller.kd_servo == (0.0,) * 3
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
        # built in code: no tap budget may be NaN, infinite, fractional or a bool
        base = scenario_from_dict(data | {"max_taps": 300})
        for bad in (math.nan, math.inf, 2.5, True, -1):
            with pytest.raises(ScenarioError, match="max_taps"):
                dataclasses.replace(base, max_taps=bad)
        data["max_taps"] = 2.5
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="max_taps"):
            load_scenario(path)

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_name_that_breaks_taps_csv_rejected(self, name, tmp_path):
        data = json.loads(BASELINE.read_text())
        base = scenario_from_dict(data)
        with pytest.raises(ScenarioError, match="name"):
            dataclasses.replace(base, name=name)
        with pytest.raises(ScenarioError, match="name"):
            scenario_from_dict(data | {"name": name})

    def test_unknown_shape_names_field(self, tmp_path):
        data = json.loads(BASELINE.read_text())
        data["object"] = {"shape": "dodecahedron"}
        path = tmp_path / "sc.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ScenarioError, match="object.shape"):
            load_scenario(path)

    def test_catalog_shape_without_friction_is_the_catalog_instance(self):
        data = json.loads(BASELINE.read_text())
        data["object"] = {"shape": "mug"}
        assert scenario_from_dict(data).object is builtin_shapes()["mug"]

    def test_short_polygon_names_field(self):
        data = json.loads(BASELINE.read_text())
        data["object"] = {"polygon_mm": [[0, 0], [1, 0]]}
        with pytest.raises(ScenarioError) as exc:
            scenario_from_dict(data)
        assert str(exc.value) == (
            "scenario.object.polygon_mm: expected at least 3 [y, z] vertices, got 2"
        )

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

    @pytest.mark.parametrize("key", ["kp_servo_diag", "ki_servo_diag", "kd_servo_diag"])
    @pytest.mark.parametrize("index", [0, 4, 5])  # x, beta, gamma
    def test_out_of_plane_servo_gain_rejected(self, key, index):
        data = json.loads(BASELINE.read_text())
        gains = [0.0] * 6
        gains[index] = 0.5
        data["controller"] = {key: gains}
        with pytest.raises(ScenarioError, match=f"controller.{key}: gain diagonal is not planar"):
            scenario_from_dict(data)

    def test_servo_gain_diagonal_reads_its_planar_channels(self):
        # files give (x, y, z, alpha, beta, gamma); the config holds (y, z, alpha)
        data = json.loads(BASELINE.read_text())
        data["controller"] = {"kp_servo_diag": [0, 0.25, 0.5, 0.75, 0, 0],
                              "kd_servo_diag": [0, 0, 0, 1.5, 0, 0]}
        cfg = scenario_from_dict(data).controller
        assert (cfg.kp_servo, cfg.kd_servo) == ((0.25, 0.5, 0.75), (0.0, 0.0, 1.5))
        data["controller"] = {"ki_servo_diag": [0.1, 0.1, 0.1]}
        with pytest.raises(ScenarioError, match="ki_servo_diag: expected 6 values, got 3"):
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

    def test_tables_cover_the_config_types(self):
        # a config field with no table row could not be set from a file
        def args(table):
            return sorted(arg for arg, _ in table.values())

        def names(cls):
            return sorted(f.name for f in dataclasses.fields(cls))

        assert args(scenario._CONTROLLER) == names(ControllerConfig)
        # the top level's noise_enabled sets NoiseModel.enabled
        assert sorted(args(scenario._NOISE_SIGMAS) + ["enabled"]) == names(NoiseModel)
        assert args(scenario._INLINE_OBJECT) == names(ObjectShape)

    def test_shape_format_key_order(self):
        # the order tacpush shapes and meta.shape have always written
        head = ["name", "cof_offset_mm", "f_max_n", "m_max_nmm", "mu_contact"]
        catalog = builtin_shapes()
        assert list(shape_to_dict(catalog["mug"])) == [*head, "polygon_mm"]
        assert list(shape_to_dict(catalog["circle"])) == [*head, "circle_radius_mm"]

    def test_shape_format_round_trips(self):
        # shape_to_dict writes the format the inline object table reads; the
        # catalog's mu_contact is the reader's default, so vary it as well
        data = json.loads(BASELINE.read_text())
        catalog = builtin_shapes().values()
        for shape in [*catalog, *(dataclasses.replace(s, mu_contact=0.3) for s in catalog)]:
            data["object"] = json.loads(json.dumps(shape_to_dict(shape)))
            back = scenario_from_dict(data).object
            assert back.name == shape.name
            if shape.radius is None:
                assert back.radius is None
                assert np.array_equal(back.polygon, shape.polygon), shape.name
            else:
                assert back.polygon is None and back.radius == shape.radius
            assert np.array_equal(back.cof_offset, shape.cof_offset), shape.name
            assert (back.f_max, back.m_max, back.mu_contact) == (
                shape.f_max, shape.m_max, shape.mu_contact
            )
