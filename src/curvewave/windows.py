"""Radial, angular, and low-pass windows with exact partition-of-unity.

The windows are flat-top bumps built from a polynomial smooth step (a
regularized incomplete beta function) composed with sin/cos, so that the
*squares* of dyadic dilates / integer translates sum to one identically:

    sum_j  W(2^j r)^2  = 1        for every r > 0,
    sum_l  V(t - l)^2  = 1        for every real t,
    W0(r)^2 + sum_{j>=0} W(2^-j r)^2 = 1   for every r >= 0.

W (``radial``) is supported inside r in [1/2, 2] (crossovers at
sqrt(2)^-+1), V (``angular``) inside t in [-1, 1] (crossovers at -+1/2),
W0 (``lowpass``) inside [0, 1).  ``frame.build_frame`` composes them into
the frequency wedges.

``transition`` in (0, 1/2] is the half-width of the crossover band; 1/2
reproduces the classic Meyer windows with no flat top.  With step order
p the windows are C^(p-1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

__all__ = ["WindowFamily", "build_windows"]

_HALF_PI = 0.5 * np.pi


def _smooth_step(t, order: int):
    """Monotone C^(p-1) step: 0 for t<=0, 1 for t>=1 (regularized beta)."""
    t = np.clip(np.asarray(t, dtype=float), 0.0, 1.0)
    return betainc(order, order, t)


@dataclass(frozen=True)
class WindowFamily:
    """Admissible radial/angular/low-pass window triple."""

    smooth_step_order: int
    transition: float = 0.5

    def _falling(self, u):
        """cos-profile crossover: 1 below |u|=1/2-transition, 0 above 1/2+transition."""
        g = self.transition
        t = (np.abs(np.asarray(u, dtype=float)) - (0.5 - g)) / (2.0 * g)
        return np.cos(_HALF_PI * _smooth_step(t, self.smooth_step_order))

    def radial(self, r):
        """W(r): even in log2 r, supported inside [1/2, 2]."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        g = self.transition
        m = (r > 2.0 ** (-0.5 - g)) & (r < 2.0 ** (0.5 + g))
        out[m] = self._falling(np.log2(r[m]))
        return out

    def angular(self, t):
        """V(t): even, supported inside [-1, 1], unit-shift crossovers at +-1/2."""
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        m = t < 0.5 + self.transition
        out[m] = self._falling(t[m])
        return out

    def lowpass(self, r):
        """W0(r): 1 near 0, closing the dyadic ladder from below; support in [0, 1)."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        g = self.transition
        out[r <= 2.0 ** (-0.5 - g)] = 1.0
        m = (r > 2.0 ** (-0.5 - g)) & (r < 2.0 ** (-0.5 + g))
        out[m] = self._falling(np.log2(r[m]) + 1.0)
        return out

    def highpass(self, r):
        """Complement closing the ladder from above: W^2 + highpass^2 = 1 on the top edge."""
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        g = self.transition
        out[r >= 2.0 ** (0.5 + g)] = 1.0
        m = (r > 2.0 ** (0.5 - g)) & (r < 2.0 ** (0.5 + g))
        u = np.log2(r[m])
        t = (u - (0.5 - g)) / (2.0 * g)
        out[m] = np.sin(_HALF_PI * _smooth_step(t, self.smooth_step_order))
        return out


def build_windows(smooth_step_order: int, transition: float = 0.5) -> WindowFamily:
    """Build the admissible window family of the requested regularity.

    Args:
        smooth_step_order: polynomial step order p >= 2; windows are C^(p-1).
        transition: crossover half-width in (0, 1/2]; 1/2 gives the classic
            full-overlap Meyer windows, smaller values a flat top.

    Raises:
        ValueError: on an order below 2 or a transition outside (0, 1/2].
    """
    if int(smooth_step_order) != smooth_step_order or smooth_step_order < 2:
        raise ValueError(f"smooth_step_order must be an integer >= 2, got {smooth_step_order}")
    if not 0.0 < transition <= 0.5:
        raise ValueError(f"transition must lie in (0, 1/2], got {transition}")
    return WindowFamily(int(smooth_step_order), float(transition))
