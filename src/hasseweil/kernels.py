"""The point-counting kernel: the hot loops of the a_p computation.

The implementation lives in `_kernels_py`; this module is the name the rest
of the package calls through, so that a caller (or a test) can replace one
kernel entry point without touching the others.
"""

from __future__ import annotations

from ._kernels_py import ap_bsgs, ap_sweep, count_points_mod_p


def backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"
