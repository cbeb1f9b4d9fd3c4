import time

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import oracles
from bevkit.geometry import BEVConfig, CameraParams, DepthBins
from bevkit.numerics import Tensor
from bevkit.scene import ObjectBox, PointCloud


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

    @pytest.mark.parametrize("field, value, message", [
        ("fx", float("nan"), "fx, fy, cx and cy must be finite"),
        ("width", 0, "CameraParams: width must be >= 1, got 0"),
        ("translation", np.array([np.inf, 0.0, 0.0]), "translation must be finite"),
    ], ids=["fx-nan", "width-0", "translation-inf"])
    def test_rejects_a_bad_field(self, field, value, message):
        args = {"fx": 8, "fy": 8, "cx": 8, "cy": 8, "width": 16, "height": 16,
                "rotation": np.eye(3), "translation": np.zeros(3), field: value}
        with pytest.raises(ValueError, match=f"^{message}$"):
            CameraParams(**args)

    @pytest.mark.filterwarnings("error")  # the |R| <= 1 guard keeps R @ R.T from overflowing
    def test_rejects_a_huge_rotation_entry_without_overflow(self):
        R = np.eye(3)
        R[0, 0] = 1e200
        with pytest.raises(ValueError, match="^rotation must be orthonormal with det \\+1$"):
            CameraParams(8, 8, 8, 8, 16, 16, rotation=R, translation=np.zeros(3))


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


@pytest.mark.parametrize("value", [32.5, 32.0, "32", True, np.float64(32)])
def test_bev_config_rejects_a_non_integer_n(value):
    """n = 32.5 used to fail only in heatmap_target, with numpy's untyped TypeError."""
    with pytest.raises(ValueError, match=f"BEVConfig: n must be .*, not {type(value).__name__}"):
        BEVConfig(-8, 8, -8, 8, value)


@pytest.mark.parametrize("value", [16.5, 16.0, True, "16"])
def test_depth_bins_reject_a_non_integer_count(value):
    """count = 16.5 used to give 17 centres, the last at d_max."""
    with pytest.raises(ValueError, match=f"DepthBins: count must be .*, not {type(value).__name__}"):
        DepthBins(0.5, 8.5, value)


@pytest.mark.parametrize("field", ["width", "height"])
@pytest.mark.parametrize("value", [64.0, np.float32(64), "64"])
def test_camera_rejects_a_non_integer_image_size(field, value):
    args = dict(fx=8, fy=8, cx=8, cy=8, width=64, height=48, rotation=np.eye(3),
                translation=np.zeros(3))
    expected = f"CameraParams: {field} must be an integer, not {type(value).__name__}"
    with pytest.raises(ValueError, match=expected):
        CameraParams(**{**args, field: value})


@pytest.mark.parametrize("integer", [int, np.int8, np.int64, np.uint16])
def test_integer_fields_take_python_and_numpy_integers(integer):
    assert BEVConfig(-8, 8, -8, 8, integer(32)).cell_w == 0.5
    assert DepthBins(0.5, 8.5, integer(16)).centers()[-1] == 8.25
    cam = CameraParams(8, 8, 8, 8, integer(16), integer(12), rotation=np.eye(3),
                       translation=np.zeros(3))
    assert (cam.width, cam.height) == (16, 12)


# Each value that holds an array, built from one float64 array given as shape, and the field
# that holds its copy.
FROZEN_VALUES = {
    "Tensor": (lambda a: Tensor(a), "data", (2, 3)),
    "CameraParams": (lambda a: CameraParams(8, 8, 8, 8, 16, 16, rotation=np.eye(3), translation=a),
                     "translation", (3,)),
    "ObjectBox": (lambda a: ObjectBox(a, np.ones(3), 0.0, np.zeros(2), 0), "center", (3,)),
    "PointCloud": (lambda a: PointCloud(a), "points", (4, 5)),
}


@pytest.mark.parametrize("build, field, shape", FROZEN_VALUES.values(), ids=FROZEN_VALUES.keys())
def test_a_frozen_value_leaves_the_callers_array_writable(build, field, shape):
    given = np.ones(shape)
    value = build(given)
    assert given.flags.writeable
    given[...] = 7.0
    np.testing.assert_array_equal(getattr(value, field), np.ones(shape))
    assert not getattr(value, field).flags.writeable


@pytest.mark.parametrize("build, field, shape", FROZEN_VALUES.values(), ids=FROZEN_VALUES.keys())
def test_a_frozen_value_ignores_writes_to_its_views_base(build, field, shape):
    base = np.ones(1 + int(np.prod(shape)))
    value = build(base[1:].reshape(shape))  # a C-contiguous float64 view, so no copy is needed
    base[...] = 7.0
    np.testing.assert_array_equal(getattr(value, field), np.ones(shape))
