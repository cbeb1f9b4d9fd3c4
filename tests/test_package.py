"""Packaging checks: declared entry points resolve, the oracles and the evaluator stay
independent, and every public name is on a production path."""

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
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names no production path reaches yet, each kept for the client named beside it.
NOT_YET_REACHED = {
    "metrics.evaluate",  # ROADMAP items 12 and 16: training and the eval set score with it
    "predictor.decode_detections",  # ROADMAP items 12 and 16: the evaluator's rows from the heads
    "metrics.BoxRecord.from_object_box",  # ROADMAP items 12 and 16: the ground-truth rows
    "geometry.full_scale_bev_config",  # ROADMAP item 5: full scale runs or is rejected up front
    "lidar_pipeline.full_scale_voxel_config",  # ROADMAP item 5
}


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


def test_every_module_of_the_package_resolves_as_an_attribute():
    """Submodules are found, not listed: each *.py module pkgutil finds is bevkit.<name>."""
    names = [info.name for info in pkgutil.iter_modules(bevkit.__path__)]
    assert "numerics" in names and "scene" in names
    for name in names:
        module = importlib.import_module(f"bevkit.{name}")
        assert bevkit.__getattr__(name) is module and getattr(bevkit, name) is module


def test_a_missing_module_inside_a_submodule_propagates(monkeypatch):
    """Only bevkit.<name>'s own ModuleNotFoundError becomes an AttributeError."""
    def import_module(name):
        raise ModuleNotFoundError(f"No module named {'shapely'!r}", name="shapely")

    monkeypatch.setattr(importlib, "import_module", import_module)
    with pytest.raises(ModuleNotFoundError, match="No module named 'shapely'") as err:
        bevkit.__getattr__("scene")
    assert err.value.name == "shapely"


@pytest.mark.parametrize("name", ["nope", "geometry.nope", "", "__wrapped__"])
def test_a_name_with_no_module_is_an_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute {name!r}"):
        getattr(bevkit, name)
    assert not hasattr(bevkit, name)


def test_only_geometry_freeze_and_the_tensor_set_writeable():
    """One rule makes a value's arrays read-only: geometry.freeze, plus Tensor._unscanned for
    the arrays only the library holds. No other production module sets flags.writeable."""
    package = Path(bevkit.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name in ("geometry.py", "numerics.py"):
            continue
        nodes = list(ast.walk(ast.parse(path.read_text())))
        assigned = {
            getattr(target, "attr", None)
            for node in nodes if isinstance(node, ast.Assign) for target in node.targets
        }
        called = {getattr(node.func, "attr", None) for node in nodes if isinstance(node, ast.Call)}
        assert "writeable" not in assigned and "setflags" not in called, path.name


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


def _imports(tree):
    """{bound name: what it binds} for a module's bevkit imports, relative or absolute: a
    bevkit module's name for a module alias (nm for numerics), (module, name) for a name."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                parts = node.module.split(".") if node.module else []
            elif (node.module or "").split(".")[0] == "bevkit":
                parts = node.module.split(".")[1:]
            else:
                continue
            for alias in node.names:
                bound[alias.asname or alias.name] = (parts[0], alias.name) if parts else alias.name
    return bound


def _definitions(tree):
    """(name, nodes) of each module-level def, class and assignment target, and of each
    public method and property of a class, named Class.member: a class's own nodes leave
    those members out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            members = [sub for sub in node.body
                       if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
            yield from ((f"{node.name}.{member.name}", [member]) for member in members)
            rest = [sub for sub in node.body if sub not in members]
            yield node.name, rest + node.bases + node.decorator_list
        elif isinstance(node, ast.FunctionDef):
            yield node.name, [node]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, [node]


def _reference_graph(package, roots):
    """({"module.name": the definitions its nodes reference}, the definitions the roots
    reference) for package, {module: source}, and roots, a list of sources. A bare name
    resolves to its module's own definition or to its bevkit from-import, followed through
    re-exports; alias.attr on a bevkit module alias to that module's attr; any other
    attribute to every public method and property of that name. Builtins and locals
    resolve to nothing."""
    root_names = [f"<root {i}>" for i in range(len(roots))]
    trees = {module: ast.parse(source) for module, source in package.items()}
    trees.update(zip(root_names, map(ast.parse, roots)))
    imports = {module: _imports(tree) for module, tree in trees.items()}
    nodes = {
        (module, name): defined
        for module in package for name, defined in _definitions(trees[module])
    }
    members = {}
    for module, name in nodes:
        if "." in name:
            members.setdefault(name.split(".")[1], set()).add((module, name))

    def resolve(module, name):
        while (module, name) not in nodes:
            target = imports.get(module, {}).get(name)
            if not isinstance(target, tuple):
                return None
            module, name = target
        return module, name

    def references(module, *defined):
        found = set()
        for sub in (sub for node in defined for sub in ast.walk(node)):
            if isinstance(sub, ast.Name):
                found.add(resolve(module, sub.id))
            elif isinstance(sub, ast.Attribute):
                alias = imports[module].get(getattr(sub.value, "id", None))
                if isinstance(alias, str):
                    found.add(resolve(alias, sub.attr))
                else:
                    found |= members.get(sub.attr, set())
        return {".".join(key) for key in found - {None}}

    refs = {".".join(key): references(key[0], *defined) for key, defined in nodes.items()}
    return refs, set().union(*(references(name, trees[name]) for name in root_names))


def _reach(refs, frontier):
    """Every definition the frontier's definitions reach, themselves included."""
    found = set()
    while frontier:
        new = frontier - found
        found |= new
        frontier = set().union(*(refs[name] for name in new))
    return found


TOY_PACKAGE = {
    "numerics": "def sum(x):\n    return x\n\n\ndef item(x):\n    return x.value\n\n\n"
                "class Tensor:\n    @property\n    def value(self):\n        return 0\n",
    "layers": "from .numerics import sum\n",
}
RESOLVER_CASES = {
    "array_method": ("from bevkit import numerics as nm\nnm.item(x.sum())",
                     {"numerics.item", "numerics.Tensor.value"}),
    "builtin": ("sum([1, 2])", set()),
    "local": ("def f(sum):\n    return sum(1)", set()),
    "module_alias": ("from bevkit import numerics as nm\nnm.sum(x)", {"numerics.sum"}),
    "from_import": ("from bevkit.numerics import sum\nsum(x)", {"numerics.sum"}),
    "relative_from_import": ("from .numerics import sum as total\ntotal(x)", {"numerics.sum"}),
    "re_export": ("from bevkit import layers as ly\nly.sum(x)", {"numerics.sum"}),
    "method_by_name": ("anything.value", {"numerics.Tensor.value"}),
}


@pytest.mark.parametrize("root, expected", RESOLVER_CASES.values(), ids=RESOLVER_CASES.keys())
def test_the_reference_walk_resolves_names(root, expected):
    """numerics.sum is reached only through a module alias or an import of it, never by an
    array's .sum or the builtin; a method reached only as an attribute is live by name."""
    refs, root_refs = _reference_graph(TOY_PACKAGE, [root])
    assert _reach(refs, root_refs) == expected


def test_every_public_name_is_on_a_production_path():
    """The benchmark's pipeline is the production path. A definition is live if a benchmark
    module or a live definition references it, and names only an allow-listed definition
    uses are kept with it. A public method or property is its own definition, live when
    its name is referenced so; a class keeps only its fields and private members alive. A
    name neither live nor kept has no caller but tests; an allow-listed name that has
    become live leaves the list."""
    package = {
        path.stem: path.read_text() for path in sorted(Path(bevkit.__file__).parent.glob("*.py"))
        if path.name not in ("oracles.py", "__init__.py")
    }
    bench = [path for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")]
    assert bench, f"no benchmark modules under {PERFBENCH}"
    refs, root_refs = _reference_graph(package, [path.read_text() for path in bench])
    live = _reach(refs, root_refs)
    kept = _reach(refs, live | NOT_YET_REACHED)
    orphans = sorted(refs.keys() - kept)
    assert orphans == [], f"names with no production caller: {orphans}"
    reached = sorted(NOT_YET_REACHED & live)
    assert reached == [], f"now on a production path, take off NOT_YET_REACHED: {reached}"
    assert NOT_YET_REACHED <= refs.keys()
