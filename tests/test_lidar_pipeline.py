import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import lidar_pipeline as lp
from bevkit import numerics as nm
from bevkit import oracles
from bevkit import scene as sc
from bevkit.layers import linear_init
from bevkit.numerics import LinearParams, Tensor
from bevkit.scene import PointCloud


DESK = lp.desk_voxel_config()


def cloud(rows):
    return PointCloud(np.asarray(rows, dtype=np.float64))


def encoder(rng, c_m=6, hidden=8):
    return lp.VoxelEncoderParams(
        hidden=linear_init(rng, hidden, 5),
        out=linear_init(rng, c_m, hidden),
    )


class TestVoxelConfig:
    def test_counts(self):
        assert DESK.counts == (32, 32, 8)
        assert lp.full_scale_voxel_config().counts[:2] == (1440, 1440)

    def test_cell_cap(self):
        with pytest.raises(ValueError, match="cap"):
            lp.VoxelConfig(size=(0.001, 0.001, 0.001), x_min=0, x_max=100,
                           y_min=0, y_max=100, z_min=0, z_max=100)

    def test_full_scale_encoding_holds_only_the_occupied_voxels(self):
        """No [1440, 1440, 40, 8] middle (5.3 GB) is built: one point, one feature row."""
        start = time.perf_counter()
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0]]), lp.full_scale_voxel_config())
        vf = lp.encode_voxels(vg, encoder(np.random.default_rng(0), c_m=8))
        assert vf.features.shape == (1, 8) and vf.grid is vg
        assert time.perf_counter() - start < 1.0

    def test_full_scale_bev_over_the_limit_rejected_before_allocating(self):
        """A 1440 x 1440 BEV of 65 channels needs 1,078,272,000 bytes, over 1 GiB."""
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0]]), lp.full_scale_voxel_config())
        rng = np.random.default_rng(0)
        vf = lp.encode_voxels(vg, encoder(rng, c_m=2))
        proj = linear_init(rng, 65, 40 * 2)
        message = r"compress_z: output \[1440, 1440, 65\] needs 1,078,272,000 bytes, over the 1 GiB"
        tracemalloc.start()
        try:
            with pytest.raises(nm.DimensionError, match=message):
                lp.compress_z(vf, proj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6


class TestVoxelize:
    def test_corner_point(self):
        pc = cloud([[-8.0, -8.0, -0.4, 1.0, 0.0]])
        vg = lp.voxelize(pc, DESK)
        assert vg.occupied.tolist() == [[0, 0, 0]]
        assert vg.counts.tolist() == [1]
        np.testing.assert_array_equal(vg.means[0], pc.points[0])

    def test_mean_of_two(self):
        pc = cloud([[0.1, 0.1, 0.1, 1.0, 0.0], [0.2, 0.2, 0.1, 3.0, 0.5]])
        vg = lp.voxelize(pc, DESK)
        assert len(vg.occupied) == 1
        assert vg.counts.tolist() == [2]
        np.testing.assert_allclose(vg.means[0], [0.15, 0.15, 0.1, 2.0, 0.25], atol=1e-12)

    def test_full_scale_floor_mapping(self):
        cfg = lp.full_scale_voxel_config()
        pc = cloud([[cfg.x_min + 0.1, cfg.y_min + 0.01, cfg.z_min + 0.01, 1, 0]])
        vg = lp.voxelize(pc, cfg)
        (key,) = vg.occupied.tolist()
        assert key[0] == 1  # 0.1 m / 0.075 m -> voxel 1

    def test_out_of_range_dropped(self):
        pc = cloud([[100.0, 0.0, 0.0, 1.0, 0.0], [0.1, 0.1, 0.1, 1.0, 0.0]])
        vg = lp.voxelize(pc, DESK)
        assert vg.counts.sum() == 1

    def test_point_count_conservation(self):
        rng = np.random.default_rng(4)
        pts = np.concatenate(
            [rng.uniform(-8, 8, size=(200, 2)), rng.uniform(-0.4, 2.8, size=(200, 1)),
             rng.uniform(0, 1, size=(200, 2))], axis=1,
        )
        vg = lp.voxelize(cloud(pts), DESK)
        assert vg.counts.sum() == 200

    def test_permutation_invariance_bit_exact(self):
        rng = np.random.default_rng(8)
        pts = np.concatenate(
            [rng.uniform(-2, 2, size=(100, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(100, 2))],
            axis=1,
        )
        vg1 = lp.voxelize(cloud(pts), DESK)
        vg2 = lp.voxelize(cloud(pts[rng.permutation(100)]), DESK)
        assert vg1.occupied.tolist() == vg2.occupied.tolist()
        assert np.array_equal(vg1.counts, vg2.counts)
        assert np.array_equal(vg1.means, vg2.means)

    def test_cloud_with_no_point_in_range_gives_empty_grid(self):
        vg = lp.voxelize(cloud([[100.0, 0.0, 0.0, 1.0, 0.0]]), DESK)
        assert vg.occupied.shape == (0, 3)
        assert vg.means.shape == (0, 5)
        assert vg.counts.shape == (0,)
        rng = np.random.default_rng(0)
        vf = lp.encode_voxels(vg, encoder(rng))
        assert vf.features.shape == (0, 6)
        proj = LinearParams(Tensor(rng.normal(size=(4, 8 * 6))), Tensor(rng.normal(size=4)))
        bev = lp.compress_z(vf, proj)
        assert bev.shape == (32, 32, 4)
        assert np.array_equal(bev.data, np.broadcast_to(proj.bias.data, (32, 32, 4)))

    def test_means_match_one_at_a_time_loop_in_canonical_order(self):
        rng = np.random.default_rng(10)
        pts = np.concatenate(
            [rng.uniform(-1, 1, size=(2000, 2)), rng.uniform(0, 0.8, size=(2000, 1)),
             rng.uniform(0, 1, size=(2000, 2)) * 10.0 ** rng.integers(-4, 4, size=(2000, 2))],
            axis=1,
        )
        groups = {}
        for row in pts.tolist():
            key = tuple(math.floor((row[a] - lo) / DESK.size[a])
                        for a, lo in enumerate((DESK.x_min, DESK.y_min, DESK.z_min)))
            groups.setdefault(key, []).append(row)
        keys = sorted(groups)
        means = []
        for key in keys:
            acc = np.zeros(5)
            for row in sorted(groups[key]):
                acc = acc + row
            means.append(acc / len(groups[key]))
        vg = lp.voxelize(cloud(pts), DESK)
        assert vg.occupied.tolist() == [list(k) for k in keys]
        assert vg.counts.tolist() == [len(groups[k]) for k in keys]
        assert min(vg.counts) > 20
        assert np.array_equal(vg.means, np.array(means))


# The dense grid (64 x 64 x 16 = 65,536 cells, the largest 16-bit sort key) and one past
# it (160 x 160 x 16 = 409,600 cells, a 32-bit key).
DENSE = lp.VoxelConfig(size=(0.25, 0.25, 0.2), x_min=-8, x_max=8, y_min=-8, y_max=8,
                       z_min=-0.4, z_max=2.8)
FINE = lp.VoxelConfig(size=(0.1, 0.1, 0.2), x_min=-8, x_max=8, y_min=-8, y_max=8,
                      z_min=-0.4, z_max=2.8)


def sweep(seed):
    scene = sc.generate_scene(8, geo.desk_bev_config(), seed=seed)
    return sc.lidar_scan(scene, sc.default_lidar_origin(), 360, sc.default_elevations(16))


def ties(pc, cfg, columns):
    """Rows that share their voxel and their first `columns` values with another row."""
    lows = (cfg.x_min, cfg.y_min, cfg.z_min)
    keys = Counter(
        tuple(math.floor((row[a] - lows[a]) / cfg.size[a]) for a in range(3)) + tuple(row[:columns])
        for row in pc.points.tolist()
    )
    return sum(n for n in keys.values() if n > 1)


def assert_matches_oracle(pc, cfg):
    vg = lp.voxelize(pc, cfg)
    occupied, means, counts = oracles.voxel_means_oracle(pc.points, cfg)
    assert np.array_equal(vg.occupied, occupied)
    assert np.array_equal(vg.counts, counts)
    assert vg.means.tobytes() == means.tobytes()
    return vg


class TestVoxelizeMatchesOracle:
    """Byte for byte against the per-voxel loop, on clouds whose rows tie in their voxel
    and x (the runs voxelize sorts by the later columns) and beyond."""

    @pytest.mark.parametrize("cfg", [DESK, DENSE, FINE], ids=["desk", "dense", "fine"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_lidar_sweep(self, seed, cfg):
        pc = sweep(seed)
        assert ties(pc, cfg, 1) >= 100 and ties(pc, cfg, 2) >= 50
        assert_matches_oracle(pc, cfg)

    def test_permuted_sweep_gives_the_same_bytes(self):
        pc = sweep(4)
        vg = assert_matches_oracle(pc, DENSE)
        shuffled = assert_matches_oracle(
            cloud(pc.points[np.random.default_rng(4).permutation(len(pc))]), DENSE
        )
        assert vg.means.tobytes() == shuffled.means.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_tied_up_to_the_last_column(self, seed):
        """Duplicates, rows equal except intensity or time offset, and sums whose value
        depends on the order the rows are added in (1e16 + 1 - 1e16 is not 1)."""
        base = [0.1, 0.1, 0.1]
        rows = (
            [base + [1.0, 0.0]] * 3
            + [base + [i, 0.0] for i in (1e16, 1.0, -1e16, 3.0)]
            + [base + [1.0, t] for t in (1e16, 0.5, -1e16, 0.25)]
            + [[0.1, 0.2, 0.1, 1.0, 0.0], [0.1, 0.1, 0.3, 1.0, 0.0], [0.2, 0.1, 0.1, 1.0, 0.0]]
            + [[-0.0, 0.0, 0.1, 1.0, 0.0], [0.0, -0.0, 0.1, 1.0, 0.0], [0.0, 0.0, 0.1, -0.0, 0.0]]
        )
        pts = np.array(rows)[np.random.default_rng(seed).permutation(len(rows))]
        assert ties(cloud(pts), DESK, 4) >= 4
        vg = assert_matches_oracle(cloud(pts), DESK)
        assert vg.counts.tolist() == [len(rows)]


class TestEncodeVoxels:
    def test_empty_grid(self):
        rng = np.random.default_rng(0)
        vg = lp.voxelize(cloud(np.zeros((0, 5))), DESK)
        vf = lp.encode_voxels(vg, encoder(rng))
        assert vf.grid is vg
        assert vf.features.shape == (0, 6)

    def test_single_voxel_locality(self):
        """Each row depends on its own voxel only: moving a point inside one voxel
        changes that voxel's row and leaves every other row bit for bit."""
        rng = np.random.default_rng(1)
        p = encoder(rng)
        near = [[0.1, 0.1, 0.1, 1.0, 0.0], [-3.2, 5.0, 1.3, 0.5, 0.2], [7.9, -7.9, 2.7, 2.0, 0.1]]
        moved = [near[0], [-3.1, 5.1, 1.4, 0.7, 0.3], near[2]]
        a = lp.encode_voxels(lp.voxelize(cloud(near), DESK), p)
        b = lp.encode_voxels(lp.voxelize(cloud(moved), DESK), p)
        assert np.array_equal(a.grid.occupied, b.grid.occupied)
        differs = np.any(a.features.data != b.features.data, axis=1)
        moved_voxel = lp.voxelize(cloud([moved[1]]), DESK).occupied[0]
        assert differs.tolist() == np.all(a.grid.occupied == moved_voxel, axis=1).tolist()
        assert differs.sum() == 1

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate(
            [rng.uniform(-3, 3, size=(50, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(50, 2))],
            axis=1,
        )
        vg = lp.voxelize(cloud(pts), DESK)
        p = encoder(rng)
        vf = lp.encode_voxels(vg, p)
        w1, b1 = p.hidden.weight.data, p.hidden.bias.data
        w2, b2 = p.out.weight.data, p.out.bias.data
        assert vf.features.shape == (len(vg.occupied), 6)
        for row, feat in zip(vf.features.data, vg.means):
            h = np.maximum(0.0, w1 @ feat + b1)
            expected = w2 @ h + b2
            np.testing.assert_allclose(row, expected, atol=1e-12)

    def test_features_must_align_with_the_grid(self):
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0]]), DESK)
        with pytest.raises(nm.DimensionError, match=r"features \(2, 6\) must be \[V, C\] .* 1 occ"):
            lp.VoxelFeatures(vg, Tensor(np.zeros((2, 6))))


class TestCompressZ:
    def test_zero_in_zero_out(self):
        """Zero encodings give the bias in every cell, occupied or not."""
        rng = np.random.default_rng(0)
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0], [1.3, -2.2, 0.5, 1.0, 0.0]]), DESK)
        proj = LinearParams(Tensor(rng.normal(size=(4, 8 * 6))), Tensor(rng.normal(size=4)))
        out = lp.compress_z(lp.VoxelFeatures(vg, Tensor(np.zeros((2, 6)))), proj)
        assert out.shape == (32, 32, 4)
        assert np.array_equal(out.data, np.broadcast_to(proj.bias.data, (32, 32, 4)))

    def test_single_voxel_single_cell(self):
        rng = np.random.default_rng(3)
        vg = lp.voxelize(cloud([[1.3, -2.2, 0.5, 1.0, 0.0]]), DESK)
        p = encoder(rng)
        proj = LinearParams(
            Tensor(rng.normal(size=(4, 8 * 6))), Tensor(np.zeros(4))
        )
        bev = lp.compress_z(lp.encode_voxels(vg, p), proj)
        nz = np.argwhere(np.abs(bev.data).sum(axis=2) > 0)
        (key,) = vg.occupied.tolist()
        assert len(nz) == 1 and nz[0].tolist() == key[:2]

    def test_matches_reshape_matmul_oracle(self):
        """Random voxels on a 4 x 5 x 3 grid, several per pillar, against the dense
        middle's reshape and matmul."""
        rng = np.random.default_rng(5)
        cfg = lp.VoxelConfig(size=(1.0, 1.0, 1.0), x_min=0, x_max=4, y_min=0, y_max=5,
                             z_min=0, z_max=3)
        pts = np.concatenate([rng.uniform(0, 1, size=(25, 3)) * [4, 5, 3],
                              rng.uniform(0, 1, size=(25, 2))], axis=1)
        vg = lp.voxelize(cloud(pts), cfg)
        p, proj = encoder(rng, c_m=2), linear_init(rng, 7, 6)
        out = lp.compress_z(lp.encode_voxels(vg, p), proj)
        expected, _ = oracles.dense_lidar_bev_oracle(
            vg.occupied, vg.means, cfg.counts, weights(p, proj), np.zeros((4, 5, 7))
        )
        assert len({tuple(k[:2]) for k in vg.occupied.tolist()}) < len(vg.occupied) < 60
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_locality_invariant(self):
        rng = np.random.default_rng(6)
        pts = np.concatenate(
            [rng.uniform(-6, 6, size=(80, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(80, 2))],
            axis=1,
        )
        vg = lp.voxelize(cloud(pts), DESK)
        proj = linear_init(rng, 4, 8 * 6)
        bev = lp.compress_z(lp.encode_voxels(vg, encoder(rng)), proj)
        occupied_cells = {(k[0], k[1]) for k in vg.occupied.tolist()}
        nz_cells = {tuple(c) for c in np.argwhere(np.abs(bev.data).sum(axis=2) > 1e-15)}
        assert nz_cells <= occupied_cells

    def test_bev_permutation_invariance(self):
        rng = np.random.default_rng(7)
        pts = np.concatenate(
            [rng.uniform(-6, 6, size=(60, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(60, 2))],
            axis=1,
        )
        p = encoder(rng)
        proj = linear_init(rng, 4, 8 * 6)
        a = lp.compress_z(lp.encode_voxels(lp.voxelize(cloud(pts), DESK), p), proj)
        shuffled = pts[rng.permutation(60)]
        b = lp.compress_z(lp.encode_voxels(lp.voxelize(cloud(shuffled), DESK), p), proj)
        assert np.array_equal(a.data, b.data)


def weights(p, proj):
    """(w1, b1, w2, b2, wp, bp) as arrays, dense_lidar_bev_oracle's order."""
    return tuple(t.data for lin in (p.hidden, p.out, proj) for t in (lin.weight, lin.bias))


def dense_sweep(seed):
    """An infer_dense_lidar sweep: 16 boxes, 32 beams x 1024 azimuths (about 31k points)."""
    scene = sc.generate_scene(16, geo.desk_bev_config(), seed=seed)
    return sc.lidar_scan(scene, sc.default_lidar_origin(), 1024, sc.default_elevations(32))


@pytest.mark.parametrize("cfg, scan", [(DESK, sweep), (DENSE, dense_sweep)], ids=["desk", "dense"])
@pytest.mark.parametrize("seed", [1, 2])
def test_bev_and_gradients_match_the_dense_oracle(seed, cfg, scan):
    """The pillar path against a dense middle, on the training and the dense LiDAR
    sweeps: the BEV within 1e-12 of its largest |entry|, and the six parameter gradients
    of mean(bev * g) within 1e-12 of the largest gradient entry."""
    rng = np.random.default_rng(seed)
    vg = lp.voxelize(scan(seed), cfg)
    c_l = 16
    p, proj = encoder(rng, c_m=8, hidden=16), linear_init(rng, c_l, cfg.counts[2] * 8)
    proj = LinearParams(proj.weight, Tensor(rng.normal(size=c_l)))
    g = rng.normal(size=cfg.counts[:2] + (c_l,))
    with nm.Tape() as tape:
        bev = lp.compress_z(lp.encode_voxels(vg, p), proj)
        nm.backward(tape, nm.mean(nm.mul(bev, g)))
    expected, expected_grads = oracles.dense_lidar_bev_oracle(
        vg.occupied, vg.means, cfg.counts, weights(p, proj), g / g.size
    )
    assert np.abs(bev.data - expected).max() <= 1e-12 * np.abs(expected).max()
    params = [t for lin in (p.hidden, p.out, proj) for t in (lin.weight, lin.bias)]
    largest = max(np.abs(e).max() for e in expected_grads)
    for t, e in zip(params, expected_grads):
        assert np.abs(tape.grad(t).data - e).max() <= 1e-12 * largest


def test_lidar_branch_peak_memory_at_dense_scale():
    """compress_z(encode_voxels(...)) on a 64 x 64 x 16 grid (C_m 8, C_l 16) holds no
    [64, 64, 16, 8] middle (4.2 MB). Measured 2.29 MB forward and 2.10 MB backward;
    the dense middle took 5.31 and 5.26."""
    rng = np.random.default_rng(3)
    vg = lp.voxelize(dense_sweep(3), DENSE)
    p, proj = encoder(rng, c_m=8, hidden=16), linear_init(rng, 16, 16 * 8)
    g = rng.normal(size=(64, 64, 16))
    assert len(vg.occupied) > 1500
    with nm.Tape() as tape:
        tracemalloc.start()
        try:
            bev = lp.compress_z(lp.encode_voxels(vg, p), proj)
            forward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        loss = nm.mean(nm.mul(bev, g))
        tracemalloc.start()
        try:
            nm.backward(tape, loss)
            backward_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert forward_peak < 3.5e6
    assert backward_peak < 3.5e6


def test_gradients_flow_to_encoder_params():
    rng = np.random.default_rng(9)
    pts = np.concatenate(
        [rng.uniform(-3, 3, size=(20, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(20, 2))],
        axis=1,
    )
    vg = lp.voxelize(cloud(pts), DESK)
    p = encoder(rng)
    proj = linear_init(rng, 4, 8 * 6)
    with nm.Tape() as tape:
        bev = lp.compress_z(lp.encode_voxels(vg, p), proj)
        loss = nm.mean(nm.mul(bev, bev))
        nm.backward(tape, loss)
    for t in (p.hidden.weight, p.out.weight, proj.weight):
        assert np.any(tape.grad(t).data != 0.0)


def test_voxel_features_are_a_constant_on_the_tape():
    rng = np.random.default_rng(10)
    pts = np.concatenate(
        [rng.uniform(-3, 3, size=(20, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(20, 2))],
        axis=1,
    )
    p = encoder(rng)
    with nm.Tape() as tape:
        lp.encode_voxels(lp.voxelize(cloud(pts), DESK), p)
    produced = {n.output_id for n in tape.nodes}
    leaves = {i for n in tape.nodes for i in n.input_ids} - produced
    assert leaves == {t.id for lin in (p.hidden, p.out) for t in (lin.weight, lin.bias)}


@pytest.mark.filterwarnings("error")  # numpy's "invalid value encountered in cast" is the fault
@pytest.mark.parametrize("far", [(1e19, 0.0, 1.0), (0.0, -1e19, 1.0), (0.0, 0.0, 1e300)])
def test_far_point_dropped_without_a_cast(far):
    near = [[0.1, 0.1, 0.1, 1.0, 0.0], [-3.2, 5.0, 1.3, 0.5, 0.2], [7.9, -7.9, 2.7, 2.0, 0.1]]
    expected = lp.voxelize(cloud(near), DESK)
    got = lp.voxelize(cloud(near + [[*far, 1.0, 0.0]]), DESK)
    for field in ("occupied", "means", "counts"):
        np.testing.assert_array_equal(getattr(got, field), getattr(expected, field))


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("size", (0.5, float("nan"), 0.4), r"\(0.5, nan, 0.4\)"),
        ("x_max", float("inf"), "inf"),
        ("z_min", float("-inf"), "-inf"),
        ("y_min", float("nan"), "nan"),
    ],
)
def test_voxel_config_rejects_non_finite_values(field, value, shown):
    """Named before the grid size is computed, which would raise a bare OverflowError."""
    args = {"size": (0.5, 0.5, 0.4), "x_min": -8, "x_max": 8, "y_min": -8, "y_max": 8,
            "z_min": -0.4, "z_max": 2.8, field: value}
    with pytest.raises(ValueError, match=f"VoxelConfig: {field} must be finite, got {shown}"):
        lp.VoxelConfig(**args)
