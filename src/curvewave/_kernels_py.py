"""Gather and scatter through the wrapping matrix: the real sparse matrix
``wrap`` (packed position x spectrum position) applied to stacks of complex
rows, on their float views so that one pass covers both parts."""

import numpy as np

BACKEND = "python"


def wedge_gather(wrap, spectra):
    """Packed coefficients ``wrap @ s`` of each row s of the (B, N*N) ``spectra``."""
    return _times(wrap, spectra)


def wedge_scatter(wrap, rects):
    """Spectra ``wrap.T @ r`` of each row r of the (B, size) ``rects``."""
    return _times(wrap.T, rects)


def _times(mat, rows):
    b, m = rows.shape
    cols = rows.view(np.float64).reshape(b, m, 2).transpose(1, 0, 2).reshape(m, 2 * b)  # copies only if b > 1
    return np.ascontiguousarray((mat @ cols).reshape(-1, b, 2).transpose(1, 0, 2)).view(np.complex128)[..., 0]
