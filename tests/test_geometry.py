import time

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import scene as sc
from bevkit.geometry import BEVConfig, CameraParams, DepthBins


def random_camera(rng, width=64, height=48):
    # random rotation via QR, fixed to det +1
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return CameraParams(
        fx=rng.uniform(20, 80),
        fy=rng.uniform(20, 80),
        cx=width / 2 + rng.uniform(-3, 3),
        cy=height / 2 + rng.uniform(-3, 3),
        width=width,
        height=height,
        rotation=q,
        translation=rng.uniform(-2, 2, size=3),
    )


def identity_camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=100, height=100):
    return CameraParams(
        fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height,
        rotation=np.eye(3), translation=np.zeros(3),
    )


class TestProject:
    def test_optical_axis(self):
        cam = identity_camera()
        assert geo.project(np.array([0.0, 0.0, 5.0]), cam) == (0.0, 0.0, 5.0)

    def test_forced_values(self):
        cam = identity_camera(fx=2.0, fy=2.0, cx=10.0, cy=10.0)
        u, v, d = geo.project(np.array([1.0, 1.0, 2.0]), cam)
        assert (u, v, d) == (11.0, 11.0, 2.0)

    def test_behind_camera(self):
        cam = identity_camera(cx=50.0, cy=50.0)
        assert geo.project(np.array([0.0, 0.0, -1.0]), cam) is None

    def test_outside_image_bounds(self):
        cam = identity_camera(fx=1.0, cx=0.0, cy=0.0)
        assert geo.project(np.array([500.0, 0.0, 1.0]), cam) is None


class TestUnproject:
    def test_principal_point(self):
        cam = identity_camera(cx=5.0, cy=7.0)
        np.testing.assert_allclose(geo.unproject(5.0, 7.0, 3.0, cam), [0, 0, 3], atol=1e-12)

    def test_similar_triangles(self):
        cam = identity_camera()
        np.testing.assert_allclose(geo.unproject(2.0, 0.0, 3.0, cam), [6.0, 0.0, 3.0], atol=1e-12)

    def test_rejects_non_positive_depth(self):
        cam = identity_camera()
        with pytest.raises(ValueError):
            geo.unproject(0.0, 0.0, 0.0, cam)

    def test_roundtrip_random_cameras(self):
        rng = np.random.default_rng(5)
        cam = random_camera(rng)
        p = np.array([3.0, 4.0, 7.0])
        res = geo.project(p, cam)
        if res is not None:
            u, v, d = res
            np.testing.assert_allclose(geo.unproject(u, v, d, cam), p, atol=1e-9)


def test_roundtrip_acceptance_scale():
    """1000 in-view points per camera over 20 random cameras, < 1e-9 m, < 1 s."""
    start = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        cam = random_camera(rng)
        # sample in-view by construction: pick pixel + depth, unproject
        uv = np.stack(
            [rng.uniform(0, cam.width - 1e-6, 1000), rng.uniform(0, cam.height - 1e-6, 1000)],
            axis=1,
        )
        depth = rng.uniform(0.5, 50.0, 1000)
        world = geo.unproject_points(uv, depth, cam)
        uv2, d2, ok = geo.project_points(world, cam)
        assert ok.all()
        back = geo.unproject_points(uv2, d2, cam)
        worst = max(worst, float(np.max(np.linalg.norm(back - world, axis=1))))
    assert worst < 1e-9
    assert time.monotonic() - start < 1.0


class TestDepthBins:
    BINS = DepthBins(1.0, 5.0, 4)

    def test_interior(self):
        assert geo.depth_to_bin(2.5, self.BINS) == 1

    def test_boundaries(self):
        assert geo.depth_to_bin(1.0, self.BINS) == 0
        assert geo.depth_to_bin(5.0 - 1e-9, self.BINS) == 3

    def test_half_open_top(self):
        assert geo.depth_to_bin(5.0, self.BINS) is None
        assert geo.depth_to_bin(0.5, self.BINS) is None

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        depths = rng.uniform(0.0, 6.0, 500)
        idx, ok = geo.depth_to_bins(depths, self.BINS)
        for d, i, o in zip(depths, idx, ok):
            scalar = geo.depth_to_bin(float(d), self.BINS)
            assert (scalar is None) == (not o)
            if o:
                assert scalar == i
                assert 0 <= i < self.BINS.count


class TestBevIndex:
    def test_full_scale_center_cell(self):
        cfg = geo.full_scale_bev_config()
        assert cfg.n == 180
        assert geo.bev_index(0.0, 0.0, cfg) == (90, 90)

    def test_lower_edge(self):
        cfg = BEVConfig(-54.0, 54.0, -54.0, 54.0, 180)
        assert geo.bev_index(-54.0, 0.0, cfg)[0] == 0

    def test_upper_edge_out_of_range(self):
        cfg = BEVConfig(-54.0, 54.0, -54.0, 54.0, 180)
        assert geo.bev_index(54.0, 0.0, cfg) is None

    def test_partition_property(self):
        cfg = geo.desk_bev_config()
        rng = np.random.default_rng(3)
        xy = rng.uniform(-10, 10, size=(500, 2))
        gx, gy, ok = geo.bev_indices(xy, cfg)
        for (x, y), a, b, o in zip(xy, gx, gy, ok):
            scalar = geo.bev_index(float(x), float(y), cfg)
            assert (scalar is None) == (not o)
            if o:
                assert scalar == (a, b)
                assert 0 <= a < cfg.n and 0 <= b < cfg.n


class TestCameraValidation:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            CameraParams(1, 1, 0, 0, 10, 10, rotation=np.eye(3) * 2, translation=np.zeros(3))

    def test_rejects_reflection(self):
        R = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            CameraParams(1, 1, 0, 0, 10, 10, rotation=R, translation=np.zeros(3))

    def test_rejects_bad_focal(self):
        with pytest.raises(ValueError):
            CameraParams(-1, 1, 0, 0, 10, 10, rotation=np.eye(3), translation=np.zeros(3))


def test_rig_file_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    cams = [random_camera(rng), random_camera(rng)]
    cams[0] = CameraParams(**{**cams[0].__dict__, "name": "front"})
    path = tmp_path / "rig.txt"
    geo.save_rig(path, cams)
    back = geo.load_rig(path)
    assert len(back) == 2
    assert back[0].name == "front"
    for a, b in zip(cams, back):
        assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == (b.fx, b.fy, b.cx, b.cy, b.width, b.height)
        np.testing.assert_array_equal(a.rotation, b.rotation)
        np.testing.assert_array_equal(a.translation, b.translation)


def _rig_with(tmp_path, key, value):
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3),
                                     translation=np.zeros(3), name="front")])
    text = path.read_text()
    line = next(ln for ln in text.splitlines() if ln.startswith(f"{key} = "))
    path.write_text(text.replace(line, f"{key} = {value}"))
    return path


@pytest.mark.filterwarnings("error")  # an overflow warning is an escape too
@pytest.mark.parametrize("key, value, message", [
    ("fx", "nan", "fx, fy, cx and cy must be finite"),
    ("width", "0", "image size must be at least 1x1, got 0x16"),
    ("rotation", "1e200 0 0 0 1 0 0 0 1", "rotation must be orthonormal"),
    ("translation", "inf 0 0", "translation must be finite"),
])
def test_rig_file_bad_camera_rejected(tmp_path, key, value, message):
    path = _rig_with(tmp_path, key, value)
    with pytest.raises(ValueError, match=rf"rig.txt: \[camera front\] {message}"):
        geo.load_rig(path)


def test_scene_file_is_not_a_rig(tmp_path):
    path = tmp_path / "scene.txt"
    sc.save_scene(path, sc.generate_scene(2, geo.desk_bev_config(), seed=3))
    with pytest.raises(ValueError, match=r"scene.txt: unknown section \[scene\]"):
        geo.load_rig(path)


def test_damaged_camera_header_rejected(tmp_path):
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3),
                                     translation=np.zeros(3), name=name)
                        for name in ("front", "back")])
    path.write_text(path.read_text().replace("[camera front]", "[damera front]"))
    with pytest.raises(ValueError, match=r"rig.txt: unknown section \[damera front\]"):
        geo.load_rig(path)


def test_rig_with_no_cameras_rejected(tmp_path):
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [])
    with pytest.raises(ValueError, match=r"rig.txt: no \[camera \.\.\.\] section"):
        geo.load_rig(path)
