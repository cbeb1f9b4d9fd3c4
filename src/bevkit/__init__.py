"""Desk-scale LiDAR-camera BEV detection pipeline.

A numpy-backed library: synthetic scenes with ray-cast sensors, a dual-route
camera-to-BEV transformation guided by LiDAR, candidate-based prediction with
task-separated queries, Hungarian-matched losses on a minimal reverse-mode
tape, and center-distance detection metrics. Every geometric or numerical
claim is paired with a brute-force oracle in the check suite.
"""

import importlib

__version__ = "0.1.0"

_SUBMODULES = frozenset({
    "geometry", "layers", "lidar_pipeline", "losses", "metrics", "numerics", "oracles",
    "predictor", "scene", "view_transform",
})


def __getattr__(name):
    """Import a submodule on first access (PEP 562), so importing one loads only what it needs."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
