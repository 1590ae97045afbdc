"""Import `hasseweil` from the checkout's own `src/`."""

from __future__ import annotations

import importlib
import os
import sys
from types import SimpleNamespace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
MODULES = ("kernels", "curves", "localdata", "lseries", "analytic", "heights", "bsd", "cli")


def import_program() -> SimpleNamespace:
    """The layer modules of `hasseweil`, imported from SRC and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    package = importlib.import_module("hasseweil")
    if not os.path.abspath(package.__file__).startswith(SRC + os.sep):
        raise ImportError(f"hasseweil came from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hasseweil.{m}") for m in MODULES})
