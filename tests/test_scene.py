import numpy as np
import pytest

from bevkit import geometry as geo
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
        polys = [shapely.Polygon(b.footprint()) for b in scene.boxes]
        for i in range(len(polys)):
            for j in range(i + 1, len(polys)):
                assert polys[i].intersection(polys[j]).area < 1e-12

    def test_boxes_inside_range(self):
        scene = sc.generate_scene(6, DESK, seed=3)
        for b in scene.boxes:
            fp = b.footprint()
            assert fp[:, 0].min() >= DESK.x_min and fp[:, 0].max() < DESK.x_max
            assert fp[:, 1].min() >= DESK.y_min and fp[:, 1].max() < DESK.y_max

    def test_placement_error_when_impossible(self):
        tiny = BEVConfig(-2.0, 2.0, -2.0, 2.0, 4)
        with pytest.raises(PlacementError):
            sc.generate_scene(30, tiny, seed=0)

    def test_sat_agrees_with_shapely_on_random_pairs(self):
        shapely = pytest.importorskip("shapely.geometry")
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            b = box(rng.uniform(-2, 2, 3) + [0, 0, 3], rng.uniform(0.5, 2, 3), rng.uniform(-3, 3))
            ours = sc.footprints_overlap(a.footprint(), b.footprint())
            theirs = shapely.Polygon(a.footprint()).intersection(shapely.Polygon(b.footprint())).area > 1e-12
            assert ours == theirs


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


def ground_camera(width=32, height=32):
    R, t = geo.look_at_pose([0, 0, 2.0], [4.0, 0.0, 0.0])
    return geo.CameraParams(
        fx=16.0, fy=16.0, cx=16.0, cy=16.0, width=width, height=height,
        rotation=R, translation=t, name="test",
    )


class TestRenderCamera:
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
            t, kind, _ = sc.first_hits(np.broadcast_to(origin, d_world.shape), d_world, scene)
            hit = kind != sc.HIT_NONE
            assert np.all(t[hit] <= depth[ok][hit] + 1e-6)


class TestPointCloudIO:
    def test_roundtrip(self, tmp_path):
        scene = sc.generate_scene(3, DESK, seed=2)
        pc = sc.lidar_scan(scene, sc.default_lidar_origin(), 32, sc.default_elevations(4))
        path = tmp_path / "cloud.bkp"
        sc.save_point_cloud(path, pc)
        back = sc.load_point_cloud(path)
        assert len(back) == len(pc)
        # stored as f32; roundtrip is exact at f32 resolution
        np.testing.assert_allclose(back.points, pc.points, atol=1e-5)

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.bkp"
        p.write_bytes(b"XXXX" + b"\x00" * 8)
        with pytest.raises(ValueError, match="magic"):
            sc.load_point_cloud(p)

    def test_truncated_header(self, tmp_path):
        p = tmp_path / "short.bkp"
        p.write_bytes(b"BKP1\x00\x00")
        with pytest.raises(ValueError, match="short.bkp: truncated point cloud header"):
            sc.load_point_cloud(p)


def test_scene_file_roundtrip(tmp_path):
    scene = sc.generate_scene(4, DESK, class_count=6, seed=13)
    path = tmp_path / "scene.txt"
    sc.save_scene(path, scene)
    back = sc.load_scene(path)
    assert back.seed == 13 and back.class_count == 6
    assert len(back.boxes) == 4
    for a, b in zip(scene.boxes, back.boxes):
        np.testing.assert_array_equal(a.center, b.center)
        np.testing.assert_array_equal(a.size, b.size)
        assert a.yaw == b.yaw and a.class_id == b.class_id


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

    def scene_text(self, tmp_path, **edits):
        path = tmp_path / "scene.txt"
        sc.save_scene(path, Scene(boxes=(box((1.0, 2.0, 0.5), cls=3),), seed=0, class_count=10))
        text = path.read_text()
        for key, value in edits.items():
            line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
            text = text.replace(line, f"{key} = {value}")
        path.write_text(text)
        return path

    def test_class_id_at_class_count_rejected(self, tmp_path):
        path = self.scene_text(tmp_path, class_id=12)
        with pytest.raises(ValueError, match=r"\[box 0\] class_id 12 >= class_count 10"):
            sc.load_scene(path)

    def test_nan_center_in_file_names_section(self, tmp_path):
        path = self.scene_text(tmp_path, center="nan 2.0 0.5")
        with pytest.raises(ValueError, match=r"\[box 0\] .*finite"):
            sc.load_scene(path)

    def test_valid_file_still_loads(self, tmp_path):
        back = sc.load_scene(self.scene_text(tmp_path, class_id=9))
        assert back.boxes[0].class_id == 9
