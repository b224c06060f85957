"""Bicharacteristic flow for the eigenvalue Hamiltonians lambda = s*c(x)|xi|.

Fixed-step RK4 on the torus phase space, moving ``distance.PhasePoint``
stacks (one ray or many per call), the orientation-tracking rotation
U(t) (defined directly by U(t) e(t) = e(0)), and the induced curvelet
index map mu -> mu_nu(t) with deterministic snapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._core import checked_kind, number, pair, required, spec_json
from .distance import PhasePoint
from .frame import CurveletIndex, FrameTable, atom_spectrum, frame_atom

__all__ = [
    "VelocityModel",
    "normalize_branch",
    "rotation",
    "flow_step",
    "flow",
    "flow_trajectory",
    "flow_index",
    "predicted_curvelet",
]


_BRANCHES = {"+": 1, "plus": 1, "-": -1, "minus": -1, "0": 0, "zero": 0}


def normalize_branch(branch) -> int:
    """Map branch labels {+, -, 0} (str or int) to the sign in {+1, -1, 0}."""
    if branch in (1, -1, 0):
        return int(branch)
    if (sign := _BRANCHES.get(str(branch).strip())) is None:
        raise ValueError(f"branch must be one of +, -, 0; got {branch!r}")
    return sign


@dataclass(frozen=True)
class VelocityModel:
    """Smooth positive wave speed c(x) on the torus with analytic gradient."""

    kind: str
    c0: float = 1.0
    amplitude: float = 0.0
    wavevector: tuple[int, int] = (1, 0)
    center: tuple[float, float] = (0.5, 0.5)
    width: float = 0.1

    # JSON keys each kind reads and writes besides "kind"
    _KEYS = {
        "constant": ("c0",),
        "sinusoidal": ("amplitude", "wavevector", "c0"),
        "gaussian-bump": ("center", "width", "amplitude", "c0"),
    }

    @classmethod
    def constant(cls, c0: float = 1.0) -> VelocityModel:
        return cls(kind="constant", c0=c0)

    @classmethod
    def sinusoidal(cls, amplitude: float, wavevector=(1, 0), c0: float = 1.0) -> VelocityModel:
        wavevector = pair("sinusoidal velocity model wavevector", wavevector, int)
        return cls(kind="sinusoidal", c0=c0, amplitude=amplitude, wavevector=wavevector)

    @classmethod
    def gaussian_bump(cls, center=(0.5, 0.5), width: float = 0.1, amplitude: float = 0.2, c0: float = 1.0) -> VelocityModel:
        return cls(kind="gaussian-bump", c0=c0, amplitude=amplitude, center=tuple(center), width=float(width))

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown velocity model kind {self.kind!r}")
        if self.kind == "gaussian-bump" and self.width <= 0:
            raise ValueError("bump width must be positive")
        if self.c_min <= 0:
            raise ValueError("velocity model must satisfy c_min > 0")

    @property
    def c_min(self) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "sinusoidal":
            return self.c0 - abs(self.amplitude)
        return min(self._bump_extremes())

    @property
    def c_max(self) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "sinusoidal":
            return self.c0 + abs(self.amplitude)
        return max(self._bump_extremes())

    def _bump_extremes(self) -> tuple[float, float]:
        # g falls from y = 0 to 1/2, so c = c0 + a g(y1) g(y2) takes its
        # extremes at the center and at the antipode
        g0, g1 = self._bump_factor(np.array([0.0, 0.5]))[0].tolist()
        return self.c0 + self.amplitude * g0**2, self.c0 + self.amplitude * g1**2

    def c(self, x):
        return self.c_and_grad(x)[0]

    def grad_c(self, x):
        return self.c_and_grad(x)[1]

    def c_and_grad(self, x):
        """c(x) and grad c(x) from one evaluation of the phase or bump factor."""
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.c0), x.shape[:-1]).copy(), np.zeros_like(x)
        if self.kind == "sinusoidal":
            phase = self._phase(x)
            k = np.asarray(self.wavevector, dtype=float)
            return self.c0 + self.amplitude * np.sin(phase), 2.0 * np.pi * self.amplitude * np.cos(phase)[..., None] * k
        g, dg = self._bump_factor(x - np.asarray(self.center))
        return self.c0 + self.amplitude * g[..., 0] * g[..., 1], self.amplitude * dg * g[..., ::-1]

    def _phase(self, x):
        # written out, not x @ k: a matrix-vector product may round one
        # stacked point differently from the same point on its own
        k1, k2 = self.wavevector
        return 2.0 * np.pi * (x[..., 0] * k1 + x[..., 1] * k2)

    def _bump_factor(self, y):
        """The periodic factor g(y) = sum_{|m| <= M} exp(-(y+m)^2/2w^2) of the
        bump and its derivative g'(y), per coordinate of y.  y is reduced to
        [-1/2, 1/2) first and M = ceil(1/2 + w sqrt(2 ln 1e17)), so every
        image left out weighs below 1e-17 and c is smooth on the torus."""
        reach = math.ceil(0.5 + self.width * math.sqrt(2.0 * math.log(1e17)))
        y = np.mod(y + 0.5, 1.0) - 0.5
        g = dg = 0.0
        for m in range(-reach, reach + 1):  # one image at a time: memory stays that of y
            e = np.exp(-0.5 * (y + m) ** 2 / self.width**2)
            g, dg = g + e, dg - (y + m) * e
        return g, dg / self.width**2

    def gradient_defect(self, n_check: int = 64, h: float = 1e-6) -> float:
        """Max |analytic - central-difference| gradient over a probe grid."""
        g = np.arange(n_check) / n_check
        x = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        worst = 0.0
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (self.c(x + step) - self.c(x - step)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - self.grad_c(x)[:, axis]))))
        return worst

    def to_json(self) -> dict:
        return spec_json(self, self._KEYS[self.kind])

    @classmethod
    def from_json(cls, spec: dict) -> VelocityModel:
        kind = checked_kind("velocity model", spec, cls._KEYS, default="constant")
        where = f"{kind} velocity model"
        c0 = number(f"{where} c0", spec.get("c0", 1.0))
        if kind == "constant":
            return cls.constant(c0)
        if kind == "sinusoidal":
            amplitude = number(f"{where} amplitude", required(where, spec, "amplitude"))
            return cls.sinusoidal(amplitude, spec.get("wavevector", (1, 0)), c0)
        center = pair(f"{where} center", spec.get("center", (0.5, 0.5)))
        width = number(f"{where} width", spec.get("width", 0.1))
        return cls.gaussian_bump(center, width, number(f"{where} amplitude", spec.get("amplitude", 0.2)), c0)


def rotation(start: PhasePoint, end: PhasePoint) -> np.ndarray:
    """U, shape (..., 2, 2): the rotation with U e(end) = e(start), which
    undoes the orientation drift of rays flowed from start to end."""
    nt, n0 = end.e, start.e
    cos = nt[..., 0] * n0[..., 0] + nt[..., 1] * n0[..., 1]
    sin = nt[..., 0] * n0[..., 1] - nt[..., 1] * n0[..., 0]
    return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)


def _rhs(x, xi, model: VelocityModel, sign: int):
    mag = np.hypot(xi[..., 0], xi[..., 1])[..., None]
    c, grad = model.c_and_grad(x)
    dx = sign * c[..., None] * xi / mag
    dxi = -sign * mag * grad
    return dx, dxi


def flow_step(point: PhasePoint, model: VelocityModel, branch, dt: float) -> PhasePoint:
    """One RK4 step of the bicharacteristic system (branch 0: identity)."""
    sign = normalize_branch(branch)
    if sign == 0:
        return point
    x, xi = point.x, point.xi
    k1x, k1s = _rhs(x, xi, model, sign)
    k2x, k2s = _rhs(x + 0.5 * dt * k1x, xi + 0.5 * dt * k1s, model, sign)
    k3x, k3s = _rhs(x + 0.5 * dt * k2x, xi + 0.5 * dt * k2s, model, sign)
    k4x, k4s = _rhs(x + dt * k3x, xi + dt * k3s, model, sign)
    x_new = np.mod(x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x), 1.0)
    xi_new = xi + dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
    return replace(point, x=x_new, xi=xi_new)


def flow(point: PhasePoint, model: VelocityModel, branch, t: float, dt: float = 1e-3) -> PhasePoint:
    """Integrate the flow for time t (t may be negative) with steps <= dt."""
    if normalize_branch(branch) == 0:
        return point
    return flow_trajectory(point, model, branch, t, dt)[1][-1]


def flow_trajectory(point: PhasePoint, model: VelocityModel, branch, t: float, dt: float = 1e-3):
    """Points after every integrator step, |t| / dt steps rounded up;
    returns (times, points), both starting at time 0 with ``point``."""
    steps = max(1, math.ceil(abs(t) / dt - 1e-12)) if t else 0
    h = t / steps if steps else 0.0
    times, points = [0.0], [point]
    for i in range(steps):
        points.append(flow_step(points[-1], model, branch, h))
        times.append((i + 1) * h)
    return np.array(times), points


def _snap_int(value: float) -> int:
    # round-half-down: equidistant snaps resolve toward the smaller index
    return int(math.ceil(value - 0.5))


def flow_index(table: FrameTable, mu: CurveletIndex, model: VelocityModel, branch, t: float):
    """Flow the phase-space center of mu and snap back to the lattice.

    Returns (PhasePoint, CurveletIndex): the unsnapped flowed point (for
    distance evaluations) and the nearest frame index.  Isotropic indices
    map to themselves.
    """
    w = table.validate_index(mu)
    if w.kind != "directional" or normalize_branch(branch) == 0 or t == 0:
        return table.phase_point(mu), mu
    point = flow(table.phase_point(mu), model, branch, t)
    scales = table.directional_scales()
    log_rho = np.log2([table.wedge(j).rho for j in scales])
    j_new = scales[int(np.argmin(np.abs(log_rho - point.scale_log2)))]
    n_ang = table.angles(j_new)
    theta = float(np.mod(point.theta, 2.0 * np.pi))
    ell_new = _snap_int(theta * n_ang / (2.0 * np.pi)) % n_ang
    rect = table.wedge(j_new, ell_new).rect
    k1 = _snap_int(point.x[0] * rect[0]) % rect[0]
    k2 = _snap_int(point.x[1] * rect[1]) % rect[1]
    return point, CurveletIndex(j_new, ell_new, k1, k2)


def predicted_curvelet(table: FrameTable, mu: CurveletIndex, model: VelocityModel, branch, t: float) -> np.ndarray:
    """Rigid-motion transport of the curvelet along the Hamiltonian flow.

    Returns phi_mu evaluated at U(t)(x - x_mu(t)) + x_mu, i.e. the waveform
    translated to the flowed center and counter-rotated by the orientation
    drift; for branch 0 or t = 0 this is the waveform itself.
    """
    w = table.validate_index(mu)
    if w.kind != "directional":
        raise ValueError("predicted_curvelet requires a directional index")
    sign = normalize_branch(branch)
    norm = math.sqrt(w.atom_norm2)
    if sign == 0 or t == 0:
        return frame_atom(table, mu) / norm

    start = table.phase_point(mu)
    end = flow(start, model, branch, t)
    rot = rotation(start, end)
    n = table.n
    grid = np.arange(n) / n
    # shortest-displacement wrap keeps the motion rigid on the torus
    g1 = np.mod(grid - end.x[0] + 0.5, 1.0) - 0.5
    g2 = np.mod(grid - end.x[1] + 0.5, 1.0) - 0.5
    # q.(U g + x_mu) = (U^T q).g + q.x_mu: the grid offsets g1 (row) and g2
    # (column) meet the rotated frequencies p = U^T q separately
    q1, q2 = w.freqs
    p1 = rot[0, 0] * q1 + rot[1, 0] * q2
    p2 = rot[0, 1] * q1 + rot[1, 1] * q2
    coeff = atom_spectrum(table, mu)[1] * np.exp(2j * np.pi * (q1 * start.x[0] + q2 * start.x[1])) / (n * norm)
    return _scattered_trig_sum(coeff, p1, p2, g1, g2)


def _scattered_trig_sum(coeff, p1, p2, g1, g2):
    """sum_k coeff[k] exp(2pi i (p1[k] g1[a] + p2[k] g2[b])) on the grid (a, b).

    Scattered frequencies on a tensor grid: the phase factors into a row
    and a column part, so the sum is one (rows x K) @ (K x columns)
    product, exact and O(N^2 K).  ``propagators._eval_fourier_at_points``
    is the transpose case (grid frequencies at scattered points) and
    factors over frequency rows instead.
    """
    rows = np.exp(2j * np.pi * np.outer(g1, p1)) * coeff
    return rows @ np.exp(2j * np.pi * np.outer(p2, g2))
