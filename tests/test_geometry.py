import time

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import oracles
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


def project_one(point, cam):
    """(u, v, depth, in_view) of one world point through project_points."""
    uv, z, ok = geo.project_points(np.asarray(point, dtype=np.float64)[None, :], cam)
    assert uv.shape == (1, 2) and z.shape == (1,) and ok.shape == (1,)
    return float(uv[0, 0]), float(uv[0, 1]), float(z[0]), bool(ok[0])


def unproject_one(u, v, depth, cam):
    """World point of pixel (u, v) at one depth through unproject_points."""
    world = geo.unproject_points(np.array([[u, v]]), np.array([depth]), cam)
    assert world.shape == (1, 3)
    return world[0]


class TestProject:
    def test_optical_axis(self):
        cam = identity_camera()
        assert project_one([0.0, 0.0, 5.0], cam) == (0.0, 0.0, 5.0, True)

    def test_forced_values(self):
        cam = identity_camera(fx=2.0, fy=2.0, cx=10.0, cy=10.0)
        assert project_one([1.0, 1.0, 2.0], cam) == (11.0, 11.0, 2.0, True)

    def test_behind_camera(self):
        cam = identity_camera(cx=50.0, cy=50.0)
        assert project_one([0.0, 0.0, -1.0], cam)[3] is False

    def test_outside_image_bounds(self):
        cam = identity_camera(fx=1.0, cx=0.0, cy=0.0)
        assert project_one([500.0, 0.0, 1.0], cam)[3] is False

    def test_mask_flags_each_point(self):
        cam = identity_camera(cx=50.0, cy=50.0)
        points = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -1.0], [500.0, 0.0, 1.0], [1.0, -2.0, 4.0]])
        _, _, ok = geo.project_points(points, cam)
        assert ok.tolist() == [True, False, False, True]


class TestUnproject:
    def test_principal_point(self):
        cam = identity_camera(cx=5.0, cy=7.0)
        np.testing.assert_allclose(unproject_one(5.0, 7.0, 3.0, cam), [0, 0, 3], atol=1e-12)

    def test_similar_triangles(self):
        cam = identity_camera()
        np.testing.assert_allclose(unproject_one(2.0, 0.0, 3.0, cam), [6.0, 0.0, 3.0], atol=1e-12)

    def test_rejects_non_positive_depth(self):
        cam = identity_camera()
        for depth in (0.0, -1.0):
            with pytest.raises(ValueError, match="positive depth"):
                unproject_one(0.0, 0.0, depth, cam)
            with pytest.raises(ValueError, match="positive depth"):
                geo.unproject_points(np.zeros((3, 2)), np.array([1.0, depth, 2.0]), cam)

    def test_roundtrip_random_cameras(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            cam = random_camera(rng)
            # 7 m down the optical axis, off it by up to 1 m: in view for these cameras
            p = cam.center + cam.rotation.T @ np.array([*rng.uniform(-1, 1, 2), 7.0])
            u, v, d, ok = project_one(p, cam)
            assert ok
            np.testing.assert_allclose(unproject_one(u, v, d, cam), p, atol=1e-9)


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


def depth_bin(depth, bins):
    """(index, in_range) of one depth through depth_to_bins."""
    idx, ok = geo.depth_to_bins(np.array([depth]), bins)
    return int(idx[0]), bool(ok[0])


class TestDepthBins:
    BINS = DepthBins(1.0, 5.0, 4)
    # Rounding just below d_max reaches count: (d - d_min) / delta == 166.0 here.
    TOP_EDGE = DepthBins(0.5580411514589055, 31.808839825241403, 166)

    def test_interior(self):
        assert depth_bin(2.5, self.BINS) == (1, True)

    def test_boundaries(self):
        assert depth_bin(1.0, self.BINS) == (0, True)
        assert depth_bin(5.0 - 1e-9, self.BINS) == (3, True)

    def test_half_open_top(self):
        assert depth_bin(5.0, self.BINS) == (-1, False)
        assert depth_bin(0.5, self.BINS) == (-1, False)

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        for bins in (self.BINS, self.TOP_EDGE):
            depths = rng.uniform(0.0, bins.d_max * 1.2, 500)
            idx, ok = geo.depth_to_bins(depths, bins)
            assert np.array_equal(ok, (bins.d_min <= depths) & (depths < bins.d_max))
            assert (idx[~ok] == -1).all()
            assert ((idx[ok] >= 0) & (idx[ok] < bins.count)).all()
            offset = np.abs(depths[ok] - bins.centers()[idx[ok]])
            assert (offset <= bins.delta / 2 * (1 + 1e-9)).all()

    def test_just_below_d_max_is_the_last_bin(self):
        rng = np.random.default_rng(17)
        configs = [self.BINS, self.TOP_EDGE]
        for _ in range(200):
            d_min = rng.uniform(0.01, 5.0)
            configs.append(DepthBins(d_min, d_min + rng.uniform(0.1, 60.0), int(rng.integers(1, 300))))
        for bins in configs:
            top = np.nextafter(bins.d_max, 0.0)
            assert depth_bin(top, bins) == (bins.count - 1, True), bins
            assert depth_bin(bins.d_max, bins) == (-1, False)
        assert (31.8088398252414 - self.TOP_EDGE.d_min) / self.TOP_EDGE.delta == 166.0

    def test_far_depths_are_out_of_range(self):
        idx, ok = geo.depth_to_bins(np.array([-1e300, 1e300]), self.BINS)
        assert idx.tolist() == [-1, -1] and not ok.any()


class TestBevIndex:
    def test_full_scale_center_cell(self):
        cfg = geo.full_scale_bev_config()
        assert cfg.n == 180
        gx, gy, ok = geo.bev_indices([[0.0, 0.0]], cfg)
        assert (gx.tolist(), gy.tolist(), ok.tolist()) == ([90], [90], [True])

    def test_lower_edge(self):
        cfg = BEVConfig(-54.0, 54.0, -54.0, 54.0, 180)
        gx, _, ok = geo.bev_indices([[-54.0, 0.0]], cfg)
        assert gx[0] == 0 and ok[0]

    def test_upper_edge_out_of_range(self):
        cfg = BEVConfig(-54.0, 54.0, -54.0, 54.0, 180)
        gx, gy, ok = geo.bev_indices([[54.0, 0.0], [0.0, 54.0]], cfg)
        assert gx.tolist() == gy.tolist() == [-1, -1] and not ok.any()

    def test_far_points_are_out_of_range(self):
        gx, gy, ok = geo.bev_indices([[1e300, 0.0], [0.0, -1e19]], geo.desk_bev_config())
        assert gx.tolist() == gy.tolist() == [-1, -1] and not ok.any()

    def test_partition_property(self):
        """Every point agrees with the oracle's hand-written cell lookup."""
        rng = np.random.default_rng(3)
        for cfg in (geo.desk_bev_config(), BEVConfig(-2.0, 1.5, -1.0, 2.5, 7)):
            xy = rng.uniform(-10, 10, size=(500, 2))
            gx, gy, ok = geo.bev_indices(xy, cfg)
            for (x, y), a, b, o in zip(xy, gx, gy, ok):
                expected = oracles.bev_index(float(x), float(y), cfg)
                assert (expected is None) == (not o)
                if o:
                    assert expected == (a, b)
                    assert 0 <= a < cfg.n and 0 <= b < cfg.n
                else:
                    assert a == b == -1


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


def test_rig_file_text_layout(tmp_path):
    """Floats by repr (an int focal length too), ints as they are, arrays space-separated."""
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [CameraParams(8, 8, 8.5, 8, 16, 12, rotation=np.eye(3),
                                     translation=np.array([0.0, -1.5, 2.0]), name="front")])
    assert path.read_text() == (
        "[camera front]\nfx = 8.0\nfy = 8.0\ncx = 8.5\ncy = 8.0\nwidth = 16\nheight = 12\n"
        "rotation = 1.0 0.0 0.0 0.0 1.0 0.0 0.0 0.0 1.0\ntranslation = 0.0 -1.5 2.0\n"
    )


@pytest.mark.parametrize("old, new, message", [
    ("[camera front]", "[cameras front]", r"unknown section \[cameras front\]"),
    ("[camera front]", "[camera]", r"unknown section \[camera\]"),
    ("[camera front]", "[camera ]", r"unknown section \[camera \]"),
    ("[camera front]", "[DEFAULT]", r"unknown section \[DEFAULT\]"),
    ("[camera back]", "[camera back] 2", r".*\[line 1[0-9]\]"),  # text after a header
    ("fx = 8.0\n", "", r"\[camera front\] missing key 'fx'"),
    ("fx = 8.0\n", "fx = 8.0\nskew = 0.0\n", r"\[camera front\] unknown key 'skew'"),
    ("width = 16", "width = 16.5", r"\[camera front\] invalid literal for int\(\)"),
    ("rotation = 1.0 0.0 0.0", "rotation = 1.0 0.0", r"\[camera front\] cannot reshape"),
])
def test_rig_section_rule(tmp_path, old, new, message):
    """A header is exactly "camera NAME" and a section holds exactly the camera keys."""
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3),
                                     translation=np.zeros(3), name=name)
                        for name in ("front", "back")])
    path.write_text(path.read_text().replace(old, new, 1))
    with pytest.raises(ValueError, match=rf"rig.txt: {message}"):
        geo.load_rig(path)


@pytest.mark.parametrize("damaged", ["[camera back] 2", "  [camera back]"])
def test_rig_damaged_header_names_its_own_line(tmp_path, damaged):
    """A header with text after its "]", or indented, is reported at its own line, not
    as keys filed under the section before it."""
    path = tmp_path / "rig.txt"
    geo.save_rig(path, [CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3),
                                     translation=np.zeros(3), name=name)
                        for name in ("front", "back")])
    path.write_text(path.read_text().replace("[camera back]", damaged))
    with pytest.raises(ValueError) as err:
        geo.load_rig(path)
    assert str(err.value) == f"{path}: [line 11] damaged section header {damaged!r}"
    assert "camera front" not in str(err.value)


def test_rig_camera_name_is_the_rest_of_the_header(tmp_path):
    path = tmp_path / "rig.txt"
    cams = [CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3), translation=np.zeros(3),
                         name=name) for name in ("front left", "back")]
    geo.save_rig(path, cams)
    assert [cam.name for cam in geo.load_rig(path)] == ["front left", "back"]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value", [("x_min", NAN), ("x_max", INF), ("y_min", -INF), ("y_max", NAN), ("n", NAN)]
)
def test_bev_config_rejects_non_finite_values(field, value):
    """A non-finite bound fails at construction, not later as a cast warning in bev_indices."""
    args = {"x_min": -8.0, "x_max": 8.0, "y_min": -8.0, "y_max": 8.0, "n": 32, field: value}
    with pytest.raises(ValueError, match=f"BEVConfig: {field} must be finite, got {value}"):
        BEVConfig(**args)


@pytest.mark.parametrize("field, value", [("d_min", NAN), ("d_max", INF), ("count", INF)])
def test_depth_bins_reject_non_finite_values(field, value):
    args = {"d_min": 0.5, "d_max": 8.5, "count": 16, field: value}
    with pytest.raises(ValueError, match=f"DepthBins: {field} must be finite, got {value}"):
        DepthBins(**args)
