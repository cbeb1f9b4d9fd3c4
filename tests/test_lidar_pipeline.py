import math
import time
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

    def test_full_scale_dense_middle_rejected_before_allocating(self):
        start = time.perf_counter()
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0]]), lp.full_scale_voxel_config())
        message = r"\[1440, 1440, 40, 8\] needs 5,308,416,000 bytes"
        with pytest.raises(nm.DimensionError, match=message):
            lp.encode_voxels(vg, encoder(np.random.default_rng(0), c_m=8))
        assert time.perf_counter() - start < 1.0


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
        m = lp.encode_voxels(vg, encoder(np.random.default_rng(0)))
        assert m.shape == (32, 32, 8, 6)
        assert np.all(m.data == 0.0)

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
        m = lp.encode_voxels(vg, encoder(rng))
        assert m.shape == (32, 32, 8, 6)
        assert np.all(m.data == 0.0)

    def test_single_voxel_locality(self):
        rng = np.random.default_rng(1)
        vg = lp.voxelize(cloud([[0.1, 0.1, 0.1, 1.0, 0.0]]), DESK)
        m = lp.encode_voxels(vg, encoder(rng))
        nonzero = np.argwhere(np.abs(m.data).sum(axis=3) > 0)
        assert len(nonzero) == 1
        (key,) = vg.occupied.tolist()
        assert nonzero[0].tolist() == key

    def test_matches_scalar_loop_oracle(self):
        rng = np.random.default_rng(2)
        pts = np.concatenate(
            [rng.uniform(-3, 3, size=(50, 3)) + [0, 0, 1], rng.uniform(0, 1, size=(50, 2))],
            axis=1,
        )
        vg = lp.voxelize(cloud(pts), DESK)
        p = encoder(rng)
        m = lp.encode_voxels(vg, p)
        w1, b1 = p.hidden.weight.data, p.hidden.bias.data
        w2, b2 = p.out.weight.data, p.out.bias.data
        for key, feat in zip(vg.occupied.tolist(), vg.means):
            h = np.maximum(0.0, w1 @ feat + b1)
            expected = w2 @ h + b2
            np.testing.assert_allclose(m.data[tuple(key)], expected, atol=1e-12)


class TestCompressZ:
    def test_zero_in_zero_out(self):
        proj = linear_init(np.random.default_rng(0), 4, 8 * 6)
        m = Tensor(np.zeros((32, 32, 8, 6)))
        out = lp.compress_z(m, proj)
        assert out.shape == (32, 32, 4)
        assert np.all(out.data == 0.0)

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
        rng = np.random.default_rng(5)
        m_arr = rng.normal(size=(4, 5, 3, 2))
        proj = linear_init(rng, 7, 6)
        out = lp.compress_z(Tensor(m_arr), proj)
        expected = m_arr.reshape(4, 5, 6) @ proj.weight.data.T + proj.bias.data
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
        loss = nm.sum(nm.mul(bev, bev))
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
