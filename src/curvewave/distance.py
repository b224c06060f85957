"""Dyadic-parabolic pseudo-distance on phase-space points; a frame index's
point is ``FrameTable.phase_point``.

    d(p, q)     = |dtheta mod pi|^2 + |dx|^2 + |<e_p, dx>|
    omega(p, q) = 2^|j - j'| * (1 + min(2^j, 2^j') d(p, q))

Positions live on the unit torus (shortest displacement per component);
angle differences are taken modulo pi; the effective scale of a point is
log2 of its frequency magnitude in grid units.  Undirected (isotropic)
points drop the angular and along-ridge terms.  All functions broadcast
over stacked points.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["PhasePoint", "d", "omega"]


@dataclass(frozen=True)
class PhasePoint:
    """Point (x, xi) of the torus phase space, xi in grid-frequency units.

    Arrays broadcast: x and xi have shape (..., 2), ``directional`` is a
    boolean (or boolean array) marking whether orientation terms apply.
    ``theta``, ``e`` and ``scale_log2`` are computed on first use and kept,
    so a stack of points measured against several others (one per flow
    branch) pays for them once.
    """

    x: np.ndarray
    xi: np.ndarray
    directional: np.ndarray | bool = True

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise ValueError(f"phase point coordinates must be finite; got x = {x}, xi = {xi}")
        if np.any(np.hypot(xi[..., 0], xi[..., 1]) == 0.0):
            raise ValueError("phase point requires a nonzero frequency")

    @cached_property
    def theta(self):
        return np.arctan2(self.xi[..., 1], self.xi[..., 0])

    @cached_property
    def e(self):
        mag = np.hypot(self.xi[..., 0], self.xi[..., 1])
        return self.xi / mag[..., None]

    @cached_property
    def scale_log2(self):
        return np.log2(np.hypot(self.xi[..., 0], self.xi[..., 1]))


def _torus_delta(a, b):
    # t - floor(t) rounds the same exact value once that np.mod(t, 1.0)
    # does, so it equals it bit for bit, at a fraction of the cost
    t = a - b + 0.5
    return (t - np.floor(t)) - 0.5


def _angle_delta_mod_pi(a, b):
    return np.mod(a - b + 0.5 * np.pi, np.pi) - 0.5 * np.pi


def d(p: PhasePoint, q: PhasePoint):
    """Flat pseudo-distance between phase points (no scale weighting)."""
    dx = _torus_delta(p.x, q.x)
    dx1, dx2 = dx[..., 0], dx[..., 1]
    p_dir = np.asarray(p.directional, dtype=bool)
    q_dir = np.asarray(q.directional, dtype=bool)
    both = p_dir & q_dir
    ang = np.where(both, np.abs(_angle_delta_mod_pi(p.theta, q.theta)), 0.0)
    # The along-ridge term follows the first directional argument.  Sums over
    # the length-2 axis are written out: the same two-term sums, without
    # NumPy's reduction machinery.
    ep, eq = p.e, q.e
    ridge_p = np.abs(ep[..., 0] * dx1 + ep[..., 1] * dx2)
    ridge_q = np.abs(eq[..., 0] * dx1 + eq[..., 1] * dx2)
    ridge = np.where(p_dir, ridge_p, np.where(q_dir, ridge_q, 0.0))
    return ang * ang + (dx1 * dx1 + dx2 * dx2) + ridge


def omega(p: PhasePoint, q: PhasePoint):
    """Scale-weighted pseudo-distance; >= 1, equal to 1 at coincident points."""
    jp, jq = p.scale_log2, q.scale_log2
    return 2.0 ** np.abs(jp - jq) * (1.0 + 2.0 ** np.minimum(jp, jq) * d(p, q))

