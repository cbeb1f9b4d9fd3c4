"""Seeded fuzz of the file loaders: a damaged file loads or raises ValueError.

Every truncation of a valid file and 200 seeded single-byte flips of it go
through each loader. Anything other than a clean load or a ValueError (a
struct.error, an IndexError, a numpy or parser error) is a loader bug.
"""

import numpy as np
import pytest

from bevkit import geometry as geo
from bevkit import numerics as nm
from bevkit import scene as sc
from bevkit.geometry import desk_bev_config

FLIPS = 200


def write_tensor(path):
    nm.save_tensor(path, nm.Tensor(np.random.default_rng(0).normal(size=(3, 2))))


def write_scene(path):
    sc.save_scene(path, sc.generate_scene(2, desk_bev_config(), seed=3))


def write_rig(path):
    geo.save_rig(path, sc.default_rig(16, 16))


LOADERS = {
    "tensor": (write_tensor, nm.load_tensor),
    "scene": (write_scene, sc.load_scene),
    "rig": (write_rig, geo.load_rig),
}


def damaged(blob: bytes, seed: int):
    for n in range(len(blob)):
        yield blob[:n]
    rng = np.random.default_rng(seed)
    for _ in range(FLIPS):
        flipped = bytearray(blob)
        flipped[rng.integers(len(blob))] ^= int(rng.integers(1, 256))
        yield bytes(flipped)


@pytest.mark.filterwarnings("error")  # a numpy warning is an escape too
@pytest.mark.parametrize("name", LOADERS)
def test_damaged_file_loads_or_raises_value_error(name, tmp_path):
    write, load = LOADERS[name]
    path = tmp_path / name
    write(path)
    load(path)  # the undamaged file loads
    escaped = []
    for data in damaged(path.read_bytes(), seed=len(name)):
        path.write_bytes(data)
        try:
            load(path)
        except ValueError:
            pass
        except Exception as err:  # noqa: BLE001 - any other type is the failure
            escaped.append(f"{type(err).__name__}: {err} <- {data!r}")
    assert not escaped, f"{len(escaped)} inputs escaped; first: {escaped[0]}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["tensor"])
def test_non_finite_payload_names_the_file(name, tmp_path):
    write, load = LOADERS[name]
    path = tmp_path / name
    write(path)
    # All-ones high bytes make the last stored float a NaN, f4 or f8 alike.
    path.write_bytes(path.read_bytes()[:-4] + b"\xff" * 4)
    with pytest.raises(ValueError, match=f"{name}: .*(NaN|non-finite)"):
        load(path)
