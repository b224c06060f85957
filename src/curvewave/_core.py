"""Kernel module and shared runtime knobs.

The wrapping transform's inner loops (the wedge gather and scatter) live in
``_kernels_py`` as NumPy fancy-indexing, imported here as ``kernels``;
``analyze`` and ``synthesize`` call through it.  ``BACKEND`` names that
implementation in benchmark provenance.  CURVEWAVE_THREADS caps the FFT
worker pool and column-level parallelism.
"""

import os

from . import _kernels_py as kernels

BACKEND = kernels.BACKEND


def thread_count() -> int:
    raw = os.environ.get("CURVEWAVE_THREADS", "")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    if n <= 0:
        n = os.cpu_count() or 1
    return n


def fft_workers() -> int | None:
    n = thread_count()
    return n if n > 1 else None
