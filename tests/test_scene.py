import hashlib
import math
import re

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import oracles
from bevkit import scene as sc
from bevkit.geometry import BEVConfig
from bevkit.scene import ObjectBox, PlacementError, Scene


DESK = geo.desk_bev_config()


def box(center, size=(1.0, 1.0, 1.0), yaw=0.0, vel=(0.0, 0.0), cls=0):
    return ObjectBox(
        center=np.asarray(center, dtype=float),
        size=np.asarray(size, dtype=float),
        yaw=yaw,
        velocity=np.asarray(vel, dtype=float),
        class_id=cls,
    )


class TestGenerateScene:
    def test_empty(self):
        scene = sc.generate_scene(0, DESK, seed=1)
        assert scene.boxes == ()

    @pytest.mark.parametrize("class_count", [0, -1])
    def test_class_count_below_one_rejected(self, class_count):
        with pytest.raises(ValueError, match="class_count"):
            sc.generate_scene(2, DESK, class_count=class_count)

    @pytest.mark.parametrize("num_boxes, message", [
        (-1, "must be >= 0, got -1"), (2.5, "must be an integer, not float"),
        (True, "must be an integer, not bool"),
    ])
    def test_num_boxes_must_be_a_non_negative_integer(self, num_boxes, message):
        with pytest.raises(ValueError, match=f"generate_scene: num_boxes {message}"):
            sc.generate_scene(num_boxes, DESK, seed=1)

    def test_scene_with_class_count_below_one_rejected(self):
        with pytest.raises(ValueError, match="class_count"):
            Scene(boxes=(), seed=0, class_count=-1)

    @pytest.mark.parametrize("class_count", [2.5, 2.0, "2", True])
    def test_non_integer_class_count_rejected_before_any_draw(self, class_count, monkeypatch):
        """numpy would draw class ids below 2.5 as if the count were 2; the check runs first."""
        monkeypatch.setattr(np.random, "default_rng", lambda *_: pytest.fail("drew first"))
        expected = f"Scene: class_count must be an integer, not {type(class_count).__name__}"
        with pytest.raises(ValueError, match=expected):
            sc.generate_scene(3, DESK, class_count=class_count, seed=1)

    def test_negative_seed_rejected_by_name_before_any_draw(self, monkeypatch):
        """numpy would reject seed -1 inside default_rng, with a message naming no field."""
        monkeypatch.setattr(np.random, "default_rng", lambda *_: pytest.fail("drew first"))
        with pytest.raises(ValueError, match="^Scene: seed must be >= 0, got -1$"):
            Scene(boxes=(), seed=-1, class_count=3)
        with pytest.raises(ValueError, match="^Scene: seed must be >= 0, got -1$"):
            sc.generate_scene(3, DESK, seed=-1)

    @pytest.mark.parametrize("field", ["seed", "class_count"])
    @pytest.mark.parametrize("value", [2.5, np.float64(3), "2"])
    def test_scene_with_a_non_integer_field_rejected(self, field, value):
        """A scene is re-simulated from its seed, and numpy seeds only from integers."""
        kind = type(value).__name__
        with pytest.raises(ValueError, match=f"Scene: {field} must be an integer, not {kind}"):
            Scene(**{"boxes": (), "seed": 0, "class_count": 3, field: value})

    @pytest.mark.parametrize("class_id", [2.0, np.float32(1), True])
    def test_box_with_a_non_integer_class_id_rejected(self, class_id):
        kind = type(class_id).__name__
        with pytest.raises(ValueError, match=f"ObjectBox: class_id must be an integer, not {kind}"):
            box((0.0, 0.0, 0.5), cls=class_id)

    def test_numpy_integer_class_count_accepted(self):
        a = sc.generate_scene(3, DESK, class_count=np.int32(4), seed=1)
        b = sc.generate_scene(3, DESK, class_count=4, seed=1)
        assert a.class_count == 4
        assert [box.class_id for box in a.boxes] == [box.class_id for box in b.boxes]

    # sha256 over every field of every box of generate_scene(n, DESK, 10, seed) for seeds
    # 0..199; a change to the draw order or the rejection rule changes it.
    BOX_DIGESTS = {
        8: "c41920f945263980abf1f15a5eb15abd69987a7899cfde3e4cf5d8a55838613e",
        16: "78010ddda8f220c98d0acf597e385e2d9f71b46cf6efd8ab2653735294aac2dc",
    }

    @pytest.mark.parametrize("num_boxes", sorted(BOX_DIGESTS))
    def test_boxes_are_bit_identical_on_200_seeds(self, num_boxes):
        digest = hashlib.sha256()
        for seed in range(200):
            for b in sc.generate_scene(num_boxes, DESK, class_count=10, seed=seed).boxes:
                for field in (b.center, b.size, np.float64(b.yaw), b.velocity, np.int64(b.class_id)):
                    digest.update(np.asarray(field).tobytes())
        assert digest.hexdigest() == self.BOX_DIGESTS[num_boxes]

    def test_only_kept_boxes_are_built(self, monkeypatch):
        """A rejected attempt is judged on its footprint; no ObjectBox is built for it."""
        built = []

        def build(*args):
            built.append(ObjectBox(*args))
            return built[-1]

        monkeypatch.setattr(sc, "ObjectBox", build)
        scene = sc.generate_scene(16, DESK, seed=4)
        assert len(built) == len(scene.boxes) == 16
        assert all(a is b for a, b in zip(built, scene.boxes))

    def test_deterministic(self):
        a = sc.generate_scene(5, DESK, seed=7)
        b = sc.generate_scene(5, DESK, seed=7)
        assert len(a.boxes) == len(b.boxes) == 5
        for ba, bb in zip(a.boxes, b.boxes):
            assert np.array_equal(ba.center, bb.center)
            assert np.array_equal(ba.size, bb.size)
            assert ba.yaw == bb.yaw
            assert np.array_equal(ba.velocity, bb.velocity)
            assert ba.class_id == bb.class_id

    def test_footprints_disjoint_shapely_oracle(self):
        # independent overlap oracle: exact polygon intersection
        shapely = pytest.importorskip("shapely.geometry")
        scene = sc.generate_scene(5, DESK, seed=7)
        polys = [shapely.Polygon(sc.footprint_corners(b.center[:2], b.size, b.yaw))
                 for b in scene.boxes]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert polys[i].intersection(polys[j]).area < 1e-12

    def test_boxes_inside_range(self):
        scene = sc.generate_scene(6, DESK, seed=3)
        for b in scene.boxes:
            fp = sc.footprint_corners(b.center[:2], b.size, b.yaw)
            assert fp[:, 0].min() >= DESK.x_min and fp[:, 0].max() < DESK.x_max
            assert fp[:, 1].min() >= DESK.y_min and fp[:, 1].max() < DESK.y_max

    def test_placement_error_when_impossible(self):
        tiny = BEVConfig(-2.0, 2.0, -2.0, 2.0, 4)
        with pytest.raises(PlacementError):
            sc.generate_scene(30, tiny, seed=0)

    def test_footprints_disjoint_overlap_oracle(self):
        scene = sc.generate_scene(5, DESK, seed=7)
        fps = [sc.footprint_corners(b.center[:2], b.size, b.yaw) for b in scene.boxes]
        for i in range(len(fps)):
            for j in range(i + 1, len(fps)):
                assert oracles.convex_overlap_area(fps[i], fps[j]) < 1e-12

    def test_sat_agrees_with_overlap_oracle_on_random_pairs(self):
        rng = np.random.default_rng(11)
        overlapping = 0
        for _ in range(200):
            a = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            b = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            fa = sc.footprint_corners(a.center[:2], a.size, a.yaw)
            fb = sc.footprint_corners(b.center[:2], b.size, b.yaw)
            ours = sc.footprints_overlap(fa, fb)
            assert ours == (oracles.convex_overlap_area(fa, fb) > 1e-12)
            overlapping += ours
        assert 0 < overlapping < 200

    def test_sat_agrees_with_shapely_on_random_pairs(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            b = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            fa = sc.footprint_corners(a.center[:2], a.size, a.yaw)
            fb = sc.footprint_corners(b.center[:2], b.size, b.yaw)
            ours = sc.footprints_overlap(fa, fb)
            theirs = shapely.Polygon(fa).intersection(shapely.Polygon(fb)).area > 1e-12
            assert ours == theirs



UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestConvexOverlapOracle:
    @pytest.mark.parametrize("other, area", [
        (UNIT_SQUARE + [0.5, 0.0], 0.5),  # half covered
        (UNIT_SQUARE + [0.5, 0.5], 0.25),  # a corner quarter
        (UNIT_SQUARE * 0.5 + 0.25, 0.25),  # nested
        (UNIT_SQUARE, 1.0),  # identical
        (UNIT_SQUARE + [1.0, 0.0], 0.0),  # sharing an edge
        (UNIT_SQUARE + [1.0, 1.0], 0.0),  # sharing a corner
        (UNIT_SQUARE + [3.0, 0.0], 0.0),  # apart
        (np.array([[0.5, 0.0], [1.0, 0.5], [0.5, 1.0], [0.0, 0.5]]), 0.5),  # inscribed diamond
    ])
    def test_known_areas_in_either_order_and_winding(self, other, area):
        for a, b in ((UNIT_SQUARE, other), (other, UNIT_SQUARE)):
            for a_w, b_w in ((a, b), (a[::-1], b), (a, b[::-1]), (a[::-1], b[::-1])):
                assert oracles.convex_overlap_area(a_w, b_w) == pytest.approx(area, abs=1e-15)

def circle_of(b):
    return b.center[:2], 0.5 * math.hypot(b.size[0], b.size[1])


def touching_and_nested_pairs():
    """Pairs sharing an edge or a corner, and pairs one inside the other, at several yaws."""
    pairs = []
    for yaw in np.linspace(-np.pi, np.pi, 13):
        rot = geo.rotation_z(yaw)
        for l, w in ((2.0, 1.0), (1.3, 0.9), (2.4, 1.6)):
            for offset in ((l, 0.0), (0.0, w), (l, w), (-l, w), (0.5 * l, w)):
                shift = rot @ np.array([offset[0], offset[1], 0.0])
                pairs.append((box([0.3, -0.2, 1.0], (l, w, 1.0), yaw),
                              box(np.array([0.3, -0.2, 1.0]) + shift, (l, w, 1.0), yaw)))
            inner = (0.4 * l, 0.4 * w, 1.0)
            pairs.append((box([1.0, 1.0, 1.0], (l, w, 1.0), yaw), box([1.0, 1.0, 1.0], inner, -yaw)))
            pairs.append((box([1.0, 1.0, 1.0], (l, w, 1.0), yaw),
                          box(np.array([1.0, 1.0, 1.0]) + rot @ [0.25 * l, 0.25 * w, 0.0],
                              inner, yaw + 0.3)))
    return pairs


class TestCirclePreCheck:
    def test_never_apart_when_the_footprints_overlap(self):
        rng = np.random.default_rng(12)
        def random_box():
            return box(rng.uniform(-3, 3, 3) + [0, 0, 3], rng.uniform(0.5, 2.5, 3), rng.uniform(-4, 4))

        pairs = [(random_box(), random_box()) for _ in range(3000)]
        apart = overlapping = 0
        for a, b in pairs + touching_and_nested_pairs():
            overlap = sc.footprints_overlap(sc.footprint_corners(a.center[:2], a.size, a.yaw),
                                            sc.footprint_corners(b.center[:2], b.size, b.yaw))
            is_apart = sc.circles_apart(*circle_of(a), *circle_of(b))
            assert not (overlap and is_apart)
            apart += is_apart
            overlapping += overlap
        assert apart > 100 and overlapping > 100

    def test_touching_circles_are_not_apart(self):
        a, b = box([0.0, 0.0, 1.0], (2.0, 1.0, 1.0)), box([2.0, 1.0, 1.0], (2.0, 1.0, 1.0))
        assert not sc.circles_apart(*circle_of(a), *circle_of(b))
        assert sc.circles_apart(*circle_of(a), [2.0 + 1e-6, 1.0], circle_of(b)[1])

    def test_scenes_equal_those_of_the_plain_separating_axis_test(self, monkeypatch):
        bev = BEVConfig(-8.0, 8.0, -8.0, 8.0, 64)
        fast = [sc.generate_scene(16, bev, seed=seed) for seed in range(20)]
        monkeypatch.setattr(sc, "circles_apart", lambda *args: False)
        plain = [sc.generate_scene(16, bev, seed=seed) for seed in range(20)]
        for x, y in zip(fast, plain):
            assert len(x.boxes) == len(y.boxes) == 16
            for bx, by in zip(x.boxes, y.boxes):
                assert np.array_equal(bx.center, by.center) and bx.yaw == by.yaw
                assert np.array_equal(bx.size, by.size) and bx.class_id == by.class_id


class TestLidarScan:
    def test_empty_scene_points_on_ground(self):
        scene = Scene(boxes=(), seed=0)
        pc = sc.lidar_scan(scene, [0, 0, 2.0], 16, np.deg2rad([-40, -20]))
        assert len(pc) == 32
        np.testing.assert_allclose(pc.points[:, 2], 0.0, atol=1e-9)
        np.testing.assert_array_equal(pc.points[:, 3], 1.0)
        np.testing.assert_array_equal(pc.points[:, 4], 0.0)

    def test_first_hit_occlusion(self):
        near = box([2.0, 0.0, 0.5], (0.5, 2.0, 1.0))
        far = box([4.0, 0.0, 0.5], (0.5, 2.0, 1.0))
        scene = Scene(boxes=(near, far), seed=0)
        pc = sc.lidar_scan(scene, [0, 0, 0.5], 64, [0.0])
        forward = pc.points[np.abs(pc.points[:, 1]) < 0.05]
        assert len(forward) > 0
        # every forward return lies on the near box's front face
        np.testing.assert_allclose(forward[:, 0], 1.75, atol=1e-9)

    def test_horizontal_ray_empty_scene_no_return(self):
        scene = Scene(boxes=(), seed=0)
        pc = sc.lidar_scan(scene, [0, 0, 2.0], 8, [0.0])
        assert len(pc) == 0

    def test_deterministic(self):
        scene = sc.generate_scene(4, DESK, seed=5)
        a = sc.lidar_scan(scene, sc.default_lidar_origin(), 64, sc.default_elevations(8))
        b = sc.lidar_scan(scene, sc.default_lidar_origin(), 64, sc.default_elevations(8))
        assert np.array_equal(a.points, b.points)

    @pytest.mark.parametrize(
        "beams, azimuths, boxes, bev",
        [(16, 360, 8, DESK), (32, 1024, 16, BEVConfig(-8.0, 8.0, -8.0, 8.0, 64))],
        ids=["desk", "dense"],
    )
    def test_points_equal_the_meshgrid_sweep_exactly(self, beams, azimuths, boxes, bev):
        # lidar_scan builds its sweep from 1-D cosines and sines; the points
        # must equal origin + t * d for the meshgrid sweep bit for bit.
        origin = sc.default_lidar_origin()
        elevations = sc.default_elevations(beams)
        dirs = lidar_rays(azimuths, elevations)
        for seed in (1, 2):
            scene = sc.generate_scene(boxes, bev, seed=seed)
            t, kind, _ = sc.first_hits(origin, dirs, scene)
            hit = kind != sc.HIT_NONE
            pc = sc.lidar_scan(scene, origin, azimuths, elevations)
            assert np.array_equal(pc.points[:, :3], origin + t[hit, None] * dirs[hit])
            assert (kind >= 0).sum() > 100


def ground_camera(width=32, height=32):
    R, t = geo.look_at_pose([0, 0, 2.0], [4.0, 0.0, 0.0])
    return geo.CameraParams(
        fx=16.0, fy=16.0, cx=16.0, cy=16.0, width=width, height=height,
        rotation=R, translation=t, name="test",
    )


class TestRenderCamera:
    @pytest.mark.parametrize("channels, message", [
        (2.0, "must be an integer, not float"), (True, "must be an integer, not bool"),
        (0, "must be >= 1, got 0"),
    ])
    def test_channels_must_be_a_positive_integer(self, channels, message):
        """2.0 and True used to fail inside numpy with an untyped TypeError."""
        with pytest.raises(ValueError, match=f"^render_camera: channels {message}$"):
            sc.render_camera(Scene(boxes=(), seed=0), ground_camera(), channels)

    def test_ground_depth_matches_analytic_plane(self):
        scene = Scene(boxes=(), seed=0)
        cam = ground_camera()
        _, depth = sc.render_camera(scene, cam, 4)
        # analytic: ray through pixel (u, v) has world direction R^T d_cam;
        # depth to z=0 plane along optical axis = -origin_z / dir_z (unit-z dir)
        origin = cam.center
        for u, v in [(16, 16), (3, 28), (30, 30), (0, 17)]:
            d_cam = np.array([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, 1.0])
            d_world = cam.rotation.T @ d_cam
            if d_world[2] < -1e-9:
                expected = -origin[2] / d_world[2]
                assert abs(depth[v, u] - expected) < 1e-9

    def test_sky_pixels(self):
        scene = Scene(boxes=(), seed=0)
        cam = ground_camera()
        feats, depth = sc.render_camera(scene, cam, 4)
        sky = ~np.isfinite(depth)
        assert sky.any()
        assert np.all(feats[sky] == 0.0)

    def test_box_filling_view_depth_bounded(self):
        big = box([3.0, 0.0, 1.0], (1.0, 8.0, 2.0))
        scene = Scene(boxes=(big,), seed=0)
        R, t = geo.look_at_pose([0, 0, 1.0], [3.0, 0.0, 1.0])
        cam = geo.CameraParams(fx=64, fy=64, cx=16, cy=16, width=32, height=32,
                               rotation=R, translation=t)
        _, depth = sc.render_camera(scene, cam, 2)
        # far face is at x = 3.5; optical axis depth can never exceed the
        # slant distance to it
        assert np.all(depth[np.isfinite(depth)] <= np.hypot(3.5, 4.6) + 1e-9)
        assert np.isfinite(depth).all()

    def test_features_code_class(self):
        b0 = box([3.0, 0.0, 0.5], (1.0, 1.0, 1.0), cls=2)
        scene = Scene(boxes=(b0,), seed=0)
        cam = ground_camera()
        feats, depth = sc.render_camera(scene, cam, 4)
        hit = np.isfinite(depth)
        box_px = feats[..., 2] > 0.5
        assert box_px.any()
        assert np.all(hit[box_px])

    def test_deterministic(self):
        scene = sc.generate_scene(3, DESK, seed=9)
        cam = sc.default_rig()[0]
        f1, d1 = sc.render_camera(scene, cam, 6)
        f2, d2 = sc.render_camera(scene, cam, 6)
        assert np.array_equal(f1, f2) and np.array_equal(d1, d2)


def test_lidar_camera_occlusion_consistency():
    """The exact camera ray through a LiDAR point's projection hits a surface
    no farther than the point itself (shared occlusion structure)."""
    for seed in (1, 2, 3):
        scene = sc.generate_scene(5, DESK, seed=seed)
        pc = sc.lidar_scan(scene, sc.default_lidar_origin(), 128, sc.default_elevations(8))
        for cam in sc.default_rig():
            uv, depth, ok = geo.project_points(pc.points[:, :3], cam)
            if not ok.any():
                continue
            origin = cam.center
            d_cam = np.stack(
                [(uv[ok, 0] - cam.cx) / cam.fx, (uv[ok, 1] - cam.cy) / cam.fy, np.ones(ok.sum())],
                axis=1,
            )
            d_world = d_cam @ cam.rotation
            t, kind, _ = sc.first_hits(origin, d_world, scene)
            hit = kind != sc.HIT_NONE
            assert np.all(t[hit] <= depth[ok][hit] + 1e-6)


def slab_reference(origin, direction, scene):
    """First hit of one ray, one box at a time in plain floats: (t, kind, normal).

    The ground plane z = 0 is hit from above going down; each box is tested
    in its own frame slab by slab. A box counts only if it is entered
    strictly ahead of the origin and strictly before the best hit so far.
    """
    ox, oy, oz = (float(v) for v in origin)
    dx, dy, dz = (float(v) for v in direction)
    best = (math.inf, sc.HIT_NONE, (0.0, 0.0, 0.0))
    if dz < -1e-12 and oz > 0:
        t = -oz / dz
        if t > 1e-9:
            best = (t, sc.HIT_GROUND, (0.0, 0.0, 1.0))
    for b in scene.boxes:
        c, s = math.cos(b.yaw), math.sin(b.yaw)
        rx, ry, rz = ox - b.center[0], oy - b.center[1], oz - b.center[2]
        o_b = (c * rx + s * ry, -s * rx + c * ry, rz)
        d_b = (c * dx + s * dy, -s * dx + c * dy, dz)
        enter, leave, axis = -math.inf, math.inf, None
        for k in range(3):
            half = b.size[k] / 2.0
            if abs(d_b[k]) < 1e-12:
                if abs(o_b[k]) > half:
                    break  # parallel to the slab and outside it: a miss
                continue
            near = min((-half - o_b[k]) / d_b[k], (half - o_b[k]) / d_b[k])
            far = max((-half - o_b[k]) / d_b[k], (half - o_b[k]) / d_b[k])
            if near > enter:
                enter, axis = near, k
            leave = min(leave, far)
        else:
            if enter <= leave and 1e-9 < enter < best[0]:
                n_b = [0.0, 0.0, 0.0]
                n_b[axis] = -math.copysign(1.0, d_b[axis])
                world = (c * n_b[0] - s * n_b[1], s * n_b[0] + c * n_b[1], n_b[2])
                best = (enter, b.class_id, world)
    return best


def first_hits_per_origin(origins, dirs, scene):
    """first_hits on rays with per-ray origins [N, 3]: one call per distinct origin, in ray order."""
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    dirs = np.asarray(dirs, dtype=np.float64)
    n = len(dirs)
    t, kind, normal = np.full(n, np.inf), np.full(n, sc.HIT_NONE, dtype=np.int64), np.zeros((n, 3))
    # Group by the origin's bytes, so 0.0 and -0.0 stay apart.
    keys = origins.view(np.dtype((np.void, 3 * origins.itemsize))).ravel()
    _, first, which = np.unique(keys, return_index=True, return_inverse=True)
    for group, row in enumerate(first):
        rays = np.flatnonzero(which == group)
        t[rays], kind[rays], normal[rays] = sc.first_hits(origins[row], dirs[rays], scene)
    return t, kind, normal


def check_against_reference(origins, dirs, scene):
    t, kind, normal = first_hits_per_origin(origins, dirs, scene)
    ref = [slab_reference(o, d, scene) for o, d in zip(origins, dirs)]
    np.testing.assert_array_equal(kind, [r[1] for r in ref])
    np.testing.assert_allclose(t, [r[0] for r in ref], rtol=0, atol=1e-12)
    np.testing.assert_allclose(normal, np.array([r[2] for r in ref]).reshape(-1, 3), rtol=0, atol=1e-12)
    return t, kind, normal


def lidar_rays(azimuth_count, elevations):
    """The sweep of lidar_scan: azimuth fastest within each elevation ring."""
    el, az = np.meshgrid(elevations, 2.0 * np.pi * np.arange(azimuth_count) / azimuth_count, indexing="ij")
    return np.stack([np.cos(el) * np.cos(az), np.cos(el) * np.sin(az), np.sin(el)], axis=-1).reshape(-1, 3)


def camera_rays(cam):
    """World directions through the integer pixels of cam, unit optical-axis depth."""
    u, v = np.meshgrid(np.arange(cam.width, dtype=float), np.arange(cam.height, dtype=float))
    d_cam = np.stack([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones_like(u)], axis=-1)
    return d_cam.reshape(-1, 3) @ cam.rotation


def unculled_first_hits(origins, dirs, scene):
    """first_hits as it was before the sphere cull: the slab test on every ray for every box."""
    origins = np.ascontiguousarray(origins, dtype=np.float64)
    dirs = np.ascontiguousarray(dirs, dtype=np.float64)
    n = origins.shape[0]
    t_best = np.full(n, np.inf)
    kind = np.full(n, sc.HIT_NONE, dtype=np.int64)
    normal = np.zeros((n, 3))

    # Ground plane z = 0, only reachable from above going down.
    dz = dirs[:, 2]
    oz = origins[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_ground = np.where(dz < -1e-12, -oz / dz, np.inf)
    hit = (t_ground > sc._RAY_EPS) & (t_ground < t_best) & (oz > 0)
    t_best[hit] = t_ground[hit]
    kind[hit] = sc.HIT_GROUND
    normal[hit] = (0.0, 0.0, 1.0)

    for b in scene.boxes:
        R = geo.rotation_z(b.yaw)  # box -> world
        o_b = np.ascontiguousarray(((origins - b.center) @ R).T)
        d_b = np.ascontiguousarray((dirs @ R).T)
        half = (b.size / 2.0)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / d_b
            t1 = (-half - o_b) * inv
            t2 = (half - o_b) * inv
            lo = np.minimum(t1, t2)
            hi = np.maximum(t1, t2)
        # Rays parallel to a slab: inside -> unconstrained, outside -> miss.
        par = np.abs(d_b) < 1e-12
        inside = np.abs(o_b) <= half
        lo = np.where(par, np.where(inside, -np.inf, np.inf), lo)
        hi = np.where(par, np.where(inside, np.inf, -np.inf), hi)
        t_enter = np.maximum(np.maximum(lo[0], lo[1]), lo[2])
        t_exit = np.minimum(np.minimum(hi[0], hi[1]), hi[2])
        ok = (t_enter <= t_exit) & (t_enter > sc._RAY_EPS) & (t_enter < t_best)
        idx = np.flatnonzero(ok)
        if idx.size == 0:
            continue
        axis = np.argmax(lo[:, idx], axis=0)
        n_b = np.zeros((idx.size, 3))
        n_b[np.arange(idx.size), axis] = -np.sign(d_b[axis, idx])
        t_best[idx] = t_enter[idx]
        kind[idx] = b.class_id
        normal[idx] = n_b @ R.T

    return t_best, kind, normal


def assert_same_as_unculled(origins, dirs, scene):
    """first_hits, once per distinct origin, equals the un-culled slab test bit for bit; returns it."""
    got = first_hits_per_origin(origins, dirs, scene)
    want = unculled_first_hits(origins, dirs, scene)
    for name, a, b in zip(("t", "kind", "normal"), got, want):
        assert np.array_equal(a, b), f"{name} differs on {np.count_nonzero(a != b)} entries"
    return got


def box_points(b, unit_coords):
    """World points c + R (u * size / 2) for box-frame coordinates u in [-1, 1]^3."""
    return b.center + (np.asarray(unit_coords) * b.size / 2.0) @ geo.rotation_z(b.yaw).T


CORNERS = np.array([[x, y, z] for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)], dtype=float)


def corners_and_edges(b, rng, per_edge=4):
    """The 8 corners of b and points along each of its 12 edges, edge midpoints included."""
    points = [CORNERS]
    for axis in range(3):
        for corner in CORNERS[CORNERS[:, axis] < 0]:
            along = np.repeat(corner[None], per_edge + 1, axis=0)
            along[:, axis] = np.concatenate([[0.0], rng.uniform(-1.0, 1.0, per_edge)])
            points.append(along)
    return box_points(b, np.concatenate(points))


@pytest.mark.filterwarnings("error")
class TestFirstHits:
    def test_lidar_rays_match_reference(self):
        scene = sc.generate_scene(6, DESK, seed=21)
        origin = sc.default_lidar_origin()
        elevations = sc.default_elevations(8)
        dirs = lidar_rays(90, elevations)
        origins = np.broadcast_to(origin, dirs.shape)
        t, kind, _ = check_against_reference(origins, dirs, scene)
        hit = kind != sc.HIT_NONE
        assert (kind >= 0).sum() > 20 and (kind == sc.HIT_GROUND).sum() > 20
        pc = sc.lidar_scan(scene, origin, 90, elevations)
        np.testing.assert_allclose(pc.points[:, :3], origin + t[hit, None] * dirs[hit], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("cam_index", [0, 1])
    def test_camera_rays_match_reference(self, cam_index):
        scene = sc.generate_scene(6, DESK, seed=22)
        cam = sc.default_rig(16, 16)[cam_index]
        dirs = camera_rays(cam)
        t, kind, _ = check_against_reference(np.broadcast_to(cam.center, dirs.shape), dirs, scene)
        assert (kind >= 0).any()
        _, depth = sc.render_camera(scene, cam, 4)
        np.testing.assert_array_equal(depth.ravel(), np.where(kind == sc.HIT_NONE, np.inf, t))

    @pytest.mark.parametrize("origin, direction, expected_kind, expected_t", [
        ((0.0, 0.2, 0.5), (1.0, 0.0, 0.0), 3, 2.5),  # inside the y and z slabs
        ((0.0, 0.8, 0.5), (1.0, 0.0, 0.0), sc.HIT_NONE, np.inf),  # outside the y slab
        ((0.0, 0.5, 0.5), (1.0, 0.0, 0.0), 3, 2.5),  # on the y face counts as inside
        ((3.0, -0.8, 0.5), (0.0, 1e-13, 0.0), sc.HIT_NONE, np.inf),  # below 1e-12 is parallel
    ])
    def test_zero_direction_component(self, origin, direction, expected_kind, expected_t):
        # The box spans [2.5, 3.5] x [-0.5, 0.5] x [0, 1].
        scene = Scene(boxes=(box([3.0, 0.0, 0.5], cls=3),), seed=0)
        origins = np.array([origin, origin])
        dirs = np.array([direction, 2.0 * np.asarray(direction)])
        t, kind, normal = check_against_reference(origins, dirs, scene)
        assert list(kind) == [expected_kind] * 2
        np.testing.assert_array_equal(t, [expected_t, expected_t / 2.0])
        if expected_kind == sc.HIT_NONE:
            assert np.all(normal == 0.0)
        else:
            np.testing.assert_array_equal(normal, [[-1.0, 0.0, 0.0]] * 2)

    def test_zero_components_on_random_rays(self):
        rng = np.random.default_rng(5)
        scene = sc.generate_scene(6, DESK, seed=23)
        origins = np.column_stack([rng.uniform(-8, 8, (300, 2)), rng.uniform(0.1, 2.5, 300)])
        dirs = rng.normal(size=(300, 3))
        dirs[rng.random((300, 3)) < 0.3] = 0.0
        check_against_reference(origins, dirs, scene)

    def test_origin_inside_box_hits_next_surface(self):
        inner = box([2.0, 0.0, 0.5], cls=1)
        outer = box([5.0, 0.0, 0.5], cls=2)
        scene = Scene(boxes=(inner, outer), seed=0)
        t, kind, normal = check_against_reference(np.array([[2.0, 0.1, 0.5]]), np.array([[1.0, 0.0, 0.0]]), scene)
        assert kind[0] == 2 and t[0] == 2.5
        np.testing.assert_array_equal(normal, [[-1.0, 0.0, 0.0]])

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_equal_entry_earlier_box_wins(self, order):
        # Both front faces lie at x = 2.5 and the boxes overlap.
        pair = (box([3.0, 0.0, 0.5], cls=4), box([3.25, 0.1, 0.5], size=(1.5, 1.0, 1.0), cls=7))
        scene = Scene(boxes=tuple(pair[i] for i in order), seed=0)
        t, kind, _ = check_against_reference(np.array([[0.0, 0.0, 0.5]]), np.array([[1.0, 0.0, 0.0]]), scene)
        assert t[0] == 2.5 and kind[0] == pair[order[0]].class_id

    def test_no_rays(self):
        scene = sc.generate_scene(3, DESK, seed=24)
        t, kind, normal = sc.first_hits(np.zeros(3), np.zeros((0, 3)), scene)
        assert t.shape == (0,) and kind.shape == (0,) and normal.shape == (0, 3)
        assert (t.dtype, kind.dtype, normal.dtype) == (np.float64, np.int64, np.float64)

    @pytest.mark.parametrize("shape", [(5, 3), (1, 3), (2,)], ids=["5x3", "1x3", "2"])
    def test_origin_not_one_3_vector_rejected(self, shape):
        shown = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"origin must be one 3-vector for all rays, got shape {shown}"):
            sc.first_hits(np.zeros(shape), np.ones((5, 3)), Scene(boxes=(), seed=0))

    @pytest.mark.parametrize("shape", [(3,), (5, 2), (2, 5, 3)], ids=["3", "5x2", "2x5x3"])
    def test_dirs_not_n_by_3_rejected(self, shape):
        shown = re.escape(str(shape))
        with pytest.raises(ValueError, match=rf"dirs must be \[N, 3\], got shape {shown}"):
            sc.first_hits(np.zeros(3), np.ones(shape), Scene(boxes=(), seed=0))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_desk_lidar_sweep_same_as_unculled(self, seed):
        scene = sc.generate_scene(8, DESK, seed=seed)
        dirs = lidar_rays(360, sc.default_elevations(16))
        _, kind, _ = assert_same_as_unculled(np.broadcast_to(sc.default_lidar_origin(), dirs.shape), dirs, scene)
        assert (kind >= 0).sum() > 100

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dense_lidar_sweep_same_as_unculled(self, seed):
        scene = sc.generate_scene(16, BEVConfig(-8.0, 8.0, -8.0, 8.0, 64), seed=seed)
        dirs = lidar_rays(1024, sc.default_elevations(32))
        _, kind, _ = assert_same_as_unculled(np.broadcast_to(sc.default_lidar_origin(), dirs.shape), dirs, scene)
        assert (kind >= 0).sum() > 1000

    @pytest.mark.parametrize("cam_index", [0, 1])
    def test_rig_cameras_same_as_unculled(self, cam_index):
        cam = sc.default_rig()[cam_index]
        for seed in (6, 7):
            scene = sc.generate_scene(8, DESK, seed=seed)
            dirs = camera_rays(cam)
            assert_same_as_unculled(np.broadcast_to(cam.center, dirs.shape), dirs, scene)

    def test_rays_at_corners_and_edges_same_as_unculled(self):
        rng = np.random.default_rng(11)
        scene = Scene(
            boxes=(
                box([3.0, 0.0, 0.5], cls=1),
                box([3.0, 3.0, 0.8], size=(2.4, 0.8, 1.6), yaw=0.7, cls=2),
                box([-2.0, 2.5, 0.4], size=(1.2, 1.6, 0.8), yaw=-2.1, cls=3),
                box([0.5, -3.0, 1.0], size=(1e-3, 2.0, 2.0), yaw=0.3, cls=4),
            ),
            seed=0,
        )
        targets = np.concatenate([corners_and_edges(b, rng) for b in scene.boxes])
        outside = np.column_stack([rng.uniform(-9, 9, (6, 2)), rng.uniform(0.1, 3.0, 6)])
        inside = np.concatenate([box_points(b, rng.uniform(-0.9, 0.9, (2, 3))) for b in scene.boxes])
        for origin in np.concatenate([outside, inside]):
            dirs = (targets - origin) * rng.uniform(0.01, 100.0, (len(targets), 1))
            assert_same_as_unculled(np.broadcast_to(origin, dirs.shape), dirs, scene)
        _, kind, _ = assert_same_as_unculled(
            np.broadcast_to(outside[0], targets.shape), targets - outside[0], scene
        )
        assert (kind >= 0).sum() > len(targets) // 4

    def test_rays_tangent_to_the_sphere_at_corners_same_as_unculled(self):
        # A corner lies on its box's bounding sphere, so a line through it
        # at right angles to the radius touches the sphere only there: the
        # cull's margin decides the rays the slab test reports as corner hits.
        rng = np.random.default_rng(16)
        scene = Scene(
            boxes=(box([3.0, 0.0, 0.5], cls=1), box([3.0, 3.0, 0.8], size=(2.4, 0.8, 1.6), yaw=0.7, cls=2)),
            seed=0,
        )
        corner_hits = 0
        for b in scene.boxes:
            for corner in box_points(b, CORNERS):
                radial = corner - b.center
                dirs = rng.normal(size=(200, 3))
                dirs -= np.outer(dirs @ radial, radial) / (radial @ radial)
                dirs *= 10.0 ** rng.uniform(-3.0, 6.0, (200, 1))
                origins = corner - dirs * rng.uniform(0.2, 3.0, (200, 1))
                _, kind, _ = assert_same_as_unculled(origins, dirs, scene)
                corner_hits += np.count_nonzero(kind >= 0)
        assert corner_hits > 100

    def test_zeroed_components_same_as_unculled(self):
        rng = np.random.default_rng(12)
        for seed in (8, 9):
            scene = sc.generate_scene(8, DESK, seed=seed)
            origins = np.column_stack([rng.uniform(-8, 8, (4000, 2)), rng.uniform(0.05, 2.5, 4000)])
            dirs = rng.normal(size=(4000, 3))
            dirs[rng.random((4000, 3)) < 0.1] = 0.0
            _, kind, _ = assert_same_as_unculled(origins, dirs, scene)
            assert (kind >= 0).sum() > 100

    def test_direction_norms_from_1e_minus_150_to_1e150_same_as_unculled(self):
        scene = sc.generate_scene(8, DESK, seed=13)
        unit = lidar_rays(90, sc.default_elevations(16))
        origins = np.broadcast_to(sc.default_lidar_origin(), unit.shape)
        for exponent in range(-150, 151):
            assert_same_as_unculled(origins, unit * 10.0**exponent, scene)

    def test_parallel_rule_at_tiny_norms_same_as_unculled(self):
        # Near |d| ~ 1e-11 some box-frame components fall under the slab
        # test's 1e-12 parallel threshold and others do not, so it reports
        # hits well off the true line; the cull must still keep them.
        scene = sc.generate_scene(8, DESK, seed=14)
        unit = lidar_rays(90, sc.default_elevations(16))
        origins = np.broadcast_to(sc.default_lidar_origin(), unit.shape)
        _, unit_kind, _ = sc.first_hits(sc.default_lidar_origin(), unit, scene)
        off_line = 0
        for norm in np.geomspace(1e-13, 1e-10, 31):
            _, kind, _ = assert_same_as_unculled(origins, unit * norm, scene)
            off_line += np.count_nonzero(kind != unit_kind)
        assert off_line > 0

    def test_squares_leaving_the_float_range_same_as_unculled(self):
        # Past ~1.3e154 a square overflows: a dir that long has a unit dir of
        # 0 in the cull, and a box that far a squared distance of inf. Under
        # ~1e-162 |d|^2 underflows and the unit dir is inf or NaN, but then
        # every component is parallel to its slab and nothing is hit.
        unit = lidar_rays(90, sc.default_elevations(16))
        origins = np.broadcast_to(sc.default_lidar_origin(), unit.shape)
        near = sc.generate_scene(8, DESK, seed=17)
        for exponent in (-175, -170, -165, -163):
            _, kind, _ = assert_same_as_unculled(origins, unit * 10.0**exponent, near)
            assert (kind == sc.HIT_NONE).all()
        # Dirs past 1e154 meet a box 4e148 m out (within 1e150) at t ~ 1e-7.
        far = Scene(boxes=(box([4e148, 0.0, 0.0], size=(1e147, 4e148, 4e148), cls=2),), seed=0)
        for exponent in (155, 156):
            _, kind, _ = assert_same_as_unculled(origins, unit * 10.0**exponent, far)
            assert (kind == 2).sum() > 20
        # Unit dirs meet a box whose centre is 1.4e154 m out.
        farther = Scene(boxes=(box([1.4e154, 0.0, 0.0], size=(1.5e154,) * 3, cls=3),), seed=0)
        _, kind, _ = assert_same_as_unculled(origins, unit, farther)
        assert (kind == 3).sum() > 20

    def test_far_from_the_world_origin_same_as_unculled(self):
        shift = np.array([1e6, -3e5, 0.0])
        near = sc.generate_scene(8, DESK, seed=15)
        scene = Scene(
            boxes=tuple(box(b.center + shift, b.size, b.yaw, cls=b.class_id) for b in near.boxes),
            seed=0,
        )
        dirs = lidar_rays(360, sc.default_elevations(16))
        _, kind, _ = assert_same_as_unculled(
            np.broadcast_to(sc.default_lidar_origin() + shift, dirs.shape), dirs, scene
        )
        assert (kind >= 0).sum() > 100

    def test_huge_coordinates_same_as_unculled(self):
        scene = Scene(boxes=(box([3.0, 0.0, 0.5]), box([1e200, 0.0, 1.0], cls=2)), seed=0)
        origins = np.array([[0.0, 0.0, 0.5], [1e160, 0.0, 0.5], [0.0, 0.0, 0.5]])
        dirs = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [1e160, 1.0, 0.0]])
        assert_same_as_unculled(origins, dirs, scene)

    @pytest.mark.parametrize("name", ["origins", "dirs"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_ray_rejected(self, name, bad):
        # "origins" spoils the origin vector every ray shares, "dirs" row 3 of the dirs.
        origin, dirs = np.zeros(3), np.ones((5, 3))
        if name == "origins":
            origin[1] = bad
            match = r"origin must be finite, got \[ *0\. +-?(nan|inf) +0\. *\]"
        else:
            dirs[3, 1] = bad
            match = r"dirs must be finite, row 3 is"
        with pytest.raises(ValueError, match=match):
            sc.first_hits(origin, dirs, Scene(boxes=(box([3.0, 0.0, 0.5]),), seed=0))


class TestLidarScanInput:
    SCENE = Scene(boxes=(), seed=0)

    def test_nan_origin_rejected(self):
        with pytest.raises(ValueError, match=r"sensor_origin must be 3 finite values, got shape \(3,\)"):
            sc.lidar_scan(self.SCENE, [0.0, np.nan, 1.6], 16, [-0.2])

    def test_two_vector_origin_rejected(self):
        with pytest.raises(ValueError, match=r"sensor_origin must be 3 finite values, got shape \(2,\)"):
            sc.lidar_scan(self.SCENE, [0.0, 1.6], 16, [-0.2])

    @pytest.mark.parametrize("count", [True, 8.0, "8"])
    def test_non_integer_azimuth_count_rejected(self, count):
        """True used to pass the check and fail in numpy with an untyped TypeError."""
        kind = type(count).__name__
        with pytest.raises(ValueError, match=f"lidar_scan: azimuth_count must be an integer, not {kind}"):
            sc.lidar_scan(self.SCENE, [0.0, 0.0, 1.6], count, [-0.2])

    def test_negative_azimuth_count_rejected(self):
        with pytest.raises(ValueError, match="lidar_scan: azimuth_count must be >= 1, got -3"):
            sc.lidar_scan(self.SCENE, [0.0, 0.0, 1.6], -3, [-0.2])

    def test_nan_elevation_rejected(self):
        with pytest.raises(ValueError, match="elevation_angles must be finite"):
            sc.lidar_scan(self.SCENE, [0.0, 0.0, 1.6], 16, [-0.2, np.nan])

    @pytest.mark.parametrize("elevations", [[[-0.2, -0.1]], np.zeros((2, 3)), -0.2], ids=["1x2", "2x3", "scalar"])
    def test_elevations_not_1d_rejected(self, elevations):
        shown = re.escape(str(np.shape(elevations)))
        with pytest.raises(ValueError, match=rf"elevation_angles must be 1-D, got shape {shown}"):
            sc.lidar_scan(self.SCENE, [0.0, 0.0, 1.6], 16, elevations)


class TestBoxValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("center", (np.nan, 0.0, 0.5)),
            ("size", (1.0, np.inf, 1.0)),
            ("vel", (0.0, -np.inf)),
            ("yaw", np.inf),
        ],
    )
    def test_non_finite_rejected(self, field, value):
        kwargs = {"center": (0.0, 0.0, 0.5), field: value}
        with pytest.raises(ValueError, match="finite"):
            box(**kwargs)

    @pytest.mark.parametrize("class_id", [4, 12])
    def test_scene_rejects_a_class_id_past_class_count(self, class_id):
        boxes = (box((1.0, 2.0, 0.5), cls=3), box((-3.0, 2.0, 0.5), cls=class_id))
        with pytest.raises(
            ValueError, match=f"^Scene: box 1 has class_id {class_id} >= class_count 4$"
        ):
            Scene(boxes, seed=0, class_count=4)
        assert Scene(boxes, seed=0, class_count=class_id + 1).boxes is boxes
