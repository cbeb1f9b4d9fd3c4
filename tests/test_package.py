"""Packaging checks: declared entry points resolve, and the oracles and the evaluator
stay independent."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import bevkit

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_declared_script_resolves_to_a_callable():
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module_name, _, attr_path = target.partition(":")
        obj = importlib.import_module(module_name)
        for attr in attr_path.split("."):
            obj = getattr(obj, attr)
        assert callable(obj), f"script {name!r}: {target} is not callable"


def _bevkit_modules_imported(tree):
    """Names of the bevkit modules an AST imports, relative or absolute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif node.module and node.module.split(".")[0] == "bevkit":
                parts = node.module.split(".")[1:]
            else:
                continue
            yield from parts[:1] or [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "bevkit":
                    yield parts[1] if len(parts) > 1 else "bevkit"


def test_oracles_import_only_geometry_from_bevkit():
    tree = ast.parse((Path(bevkit.__file__).parent / "oracles.py").read_text())
    assert set(_bevkit_modules_imported(tree)) == {"geometry"}


def test_scene_imports_only_geometry_from_bevkit():
    """The simulator (scenes, the ray caster and both sensors) stays off the tape: a point
    cloud is re-simulated from its scene, never stored as a tensor file."""
    tree = ast.parse((Path(bevkit.__file__).parent / "scene.py").read_text())
    assert set(_bevkit_modules_imported(tree)) == {"geometry"}


def test_oracles_import_no_production_geometry():
    """The oracles take only config and camera types from geometry and write every
    rule they check by hand; project_points, unproject_points, depth_to_bins and
    bev_indices are what the production paths compute with."""
    tree = ast.parse((Path(bevkit.__file__).parent / "oracles.py").read_text())
    names = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "geometry"
        for alias in node.names
    }
    assert names == {"BEVConfig", "CameraParams", "DepthBins"}


def test_no_production_module_imports_the_oracles():
    package = Path(bevkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name != "oracles.py":
            imported = set(_bevkit_modules_imported(ast.parse(path.read_text())))
            assert "oracles" not in imported, path.name


def test_view_transform_imports_nothing_from_losses():
    """The camera branch does not depend on the losses, nor through them on the heads."""
    tree = ast.parse((Path(bevkit.__file__).parent / "view_transform.py").read_text())
    assert "losses" not in set(_bevkit_modules_imported(tree))


def test_metrics_import_nothing_from_bevkit():
    """The evaluator stays a leaf: predictor imports it, and it scores any model."""
    tree = ast.parse((Path(bevkit.__file__).parent / "metrics.py").read_text())
    assert set(_bevkit_modules_imported(tree)) == set()


def test_importing_one_module_loads_only_its_imports():
    """The package imports submodules on first access, not all at once."""
    src = str(Path(bevkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = "import sys, bevkit.view_transform; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    assert "bevkit.view_transform" in loaded
    assert not {"bevkit.losses", "bevkit.predictor", "bevkit.metrics"} & set(loaded)


def test_importing_the_simulator_leaves_the_tape_unloaded():
    src = str(Path(bevkit.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, bevkit.scene; print(' '.join(sorted(sys.modules)))"
    loaded = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "bevkit.scene" in loaded and "bevkit.numerics" not in loaded


def test_submodules_resolve_as_package_attributes():
    assert bevkit.scene is importlib.import_module("bevkit.scene")
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        bevkit.nope  # noqa: B018


def test_only_layers_clamps_before_a_log():
    """binary_log_loss is the one clamped log-likelihood: no other production module
    calls clamp, and the camera branch no longer takes the floor to clamp with."""
    package = Path(bevkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("layers.py", "oracles.py"):
            continue
        calls = {
            getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
        }
        assert "clamp" not in calls, path.name
    tree = ast.parse((package / "view_transform.py").read_text())
    imported = {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert "PROB_FLOOR" not in imported


def test_no_two_params_dataclasses_share_a_field_list():
    """A parameter block with another's fields is an alias of it, as HeatmapParams is of
    ConvBlockParams, not a second dataclass."""
    owners = {}
    for info in pkgutil.iter_modules(bevkit.__path__):
        for obj in vars(importlib.import_module(f"bevkit.{info.name}")).values():
            if dataclasses.is_dataclass(obj) and isinstance(obj, type) and obj.__name__.endswith("Params"):
                fields = tuple(f.name for f in dataclasses.fields(obj))
                owners.setdefault(fields, set()).add(obj)
    shared = {names: sorted(map(str, cls)) for names, cls in owners.items() if len(cls) > 1}
    assert shared == {}
