"""Desk-scale LiDAR-camera BEV detection pipeline.

A numpy-backed library: synthetic scenes with ray-cast sensors, a dual-route
camera-to-BEV transformation guided by LiDAR, candidate-based prediction with
task-separated queries, Hungarian-matched losses on a minimal reverse-mode
tape, and center-distance detection metrics. Every geometric or numerical
claim is paired with a brute-force oracle in the check suite. Submodules are
found, not listed: bevkit.<name> imports <name>.py on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"


def __getattr__(name):
    """Import bevkit.<name>; only its own ModuleNotFoundError becomes an AttributeError."""
    try:
        return importlib.import_module(f"{__name__}.{name}")
    except ModuleNotFoundError as err:
        if err.name != f"{__name__}.{name}":
            raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
