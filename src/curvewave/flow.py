"""Bicharacteristic flow for the eigenvalue Hamiltonians lambda = s*c(x)|xi|.

Fixed-step RK4 on the torus phase space (one ray or a stack of rays per
call), the orientation-tracking rotation U(t) (defined directly by
U(t) n(t) = n(0)), and the induced curvelet index map mu -> mu_nu(t)
with deterministic snapping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._core import checked_kind, required, spec_json
from .frame import CurveletIndex, FrameTable, frame_atom

__all__ = [
    "VelocityModel",
    "FlowState",
    "normalize_branch",
    "flow_step",
    "flow",
    "flow_trajectory",
    "flow_index",
    "predicted_curvelet",
]


def normalize_branch(branch) -> int:
    """Map branch labels {+, -, 0} (str or int) to the sign in {+1, -1, 0}."""
    if branch in (1, -1, 0):
        return int(branch)
    try:
        text = str(branch).strip()
        if text in {"+", "plus"}:
            return 1
        if text in {"-", "minus"}:
            return -1
        if text in {"0", "zero"}:
            return 0
    except Exception:
        pass
    raise ValueError(f"branch must be one of +, -, 0; got {branch!r}")


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
        return cls(kind="sinusoidal", c0=c0, amplitude=amplitude, wavevector=tuple(int(k) for k in wavevector))

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
        return self.c0 + min(0.0, self.amplitude)

    @property
    def c_max(self) -> float:
        if self.kind == "constant":
            return self.c0
        if self.kind == "sinusoidal":
            return self.c0 + abs(self.amplitude)
        return self.c0 + max(0.0, self.amplitude)

    def c(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.broadcast_to(np.float64(self.c0), x.shape[:-1]).copy()
        if self.kind == "sinusoidal":
            return self.c0 + self.amplitude * np.sin(self._phase(x))
        out = np.broadcast_to(np.float64(self.c0), x.shape[:-1]).copy()
        for rel in self._bump_images(x):
            out = out + self.amplitude * np.exp(-0.5 * np.sum(rel * rel, axis=-1) / self.width**2)
        return out

    def grad_c(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            return np.zeros_like(x)
        if self.kind == "sinusoidal":
            k = np.asarray(self.wavevector, dtype=float)
            return 2.0 * np.pi * self.amplitude * np.cos(self._phase(x))[..., None] * k
        out = np.zeros_like(x)
        for rel in self._bump_images(x):
            g = np.exp(-0.5 * np.sum(rel * rel, axis=-1) / self.width**2)
            out = out - (self.amplitude / self.width**2) * g[..., None] * rel
        return out

    def _phase(self, x):
        # written out, not x @ k: a matrix-vector product may round one
        # stacked point differently from the same point on its own
        k1, k2 = self.wavevector
        return 2.0 * np.pi * (x[..., 0] * k1 + x[..., 1] * k2)

    def _bump_images(self, x):
        # periodize over the 3x3 nearest images so c is smooth on the torus
        base = np.mod(x - np.asarray(self.center) + 0.5, 1.0) - 0.5
        for m1 in (-1.0, 0.0, 1.0):
            for m2 in (-1.0, 0.0, 1.0):
                yield base + np.array([m1, m2])

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
        if kind == "constant":
            return cls.constant(spec.get("c0", 1.0))
        if kind == "sinusoidal":
            amplitude = required("sinusoidal velocity model", spec, "amplitude")
            return cls.sinusoidal(amplitude, spec.get("wavevector", (1, 0)), spec.get("c0", 1.0))
        return cls.gaussian_bump(
            spec.get("center", (0.5, 0.5)), spec.get("width", 0.1), spec.get("amplitude", 0.2), spec.get("c0", 1.0)
        )


def _norm(xi):
    return np.hypot(xi[..., 0], xi[..., 1])


@dataclass(frozen=True)
class FlowState:
    """Phase-space points plus the rotations tracking the orientation drift.

    x, xi and n0 have shape (..., 2): one state may carry a stack of rays,
    which every function below advances together.
    """

    x: np.ndarray
    xi: np.ndarray
    n0: np.ndarray  # initial direction xi(0)/|xi(0)|

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "xi", np.asarray(self.xi, dtype=float))
        object.__setattr__(self, "n0", np.asarray(self.n0, dtype=float))
        if np.any(_norm(self.xi) == 0.0):
            raise ValueError("flow state requires |xi| > 0")

    @classmethod
    def initial(cls, x, xi) -> FlowState:
        xi = np.asarray(xi, dtype=float)
        mag = _norm(xi)
        if np.any(mag == 0.0):
            raise ValueError("flow state requires |xi| > 0")
        return cls(x=np.asarray(x, dtype=float), xi=xi, n0=xi / mag[..., None])

    @property
    def n(self) -> np.ndarray:
        return self.xi / _norm(self.xi)[..., None]

    @property
    def rotation(self) -> np.ndarray:
        """U(t), shape (..., 2, 2): the rotation with U(t) n(t) = n(0)."""
        nt, n0 = self.n, self.n0
        cos = nt[..., 0] * n0[..., 0] + nt[..., 1] * n0[..., 1]
        sin = nt[..., 0] * n0[..., 1] - nt[..., 1] * n0[..., 0]
        return np.stack([np.stack([cos, -sin], -1), np.stack([sin, cos], -1)], -2)


def _rhs(x, xi, model: VelocityModel, sign: int):
    mag = _norm(xi)[..., None]
    dx = sign * model.c(x)[..., None] * xi / mag
    dxi = -sign * mag * model.grad_c(x)
    return dx, dxi


def flow_step(state: FlowState, model: VelocityModel, branch, dt: float) -> FlowState:
    """One RK4 step of the bicharacteristic system (branch 0: identity)."""
    sign = normalize_branch(branch)
    if sign == 0:
        return state
    x, xi = state.x, state.xi
    k1x, k1s = _rhs(x, xi, model, sign)
    k2x, k2s = _rhs(x + 0.5 * dt * k1x, xi + 0.5 * dt * k1s, model, sign)
    k3x, k3s = _rhs(x + 0.5 * dt * k2x, xi + 0.5 * dt * k2s, model, sign)
    k4x, k4s = _rhs(x + dt * k3x, xi + dt * k3s, model, sign)
    x_new = np.mod(x + dt / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x), 1.0)
    xi_new = xi + dt / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
    if np.any(_norm(xi_new) == 0.0):  # impossible for c > 0; guards integrator misuse
        raise ArithmeticError("frequency collapsed to zero along the flow")
    return replace(state, x=x_new, xi=xi_new)


def _step_count(t: float, dt: float) -> int:
    return max(1, int(math.ceil(abs(t) / dt - 1e-12)))


def flow(state: FlowState, model: VelocityModel, branch, t: float, dt: float = 1e-3) -> FlowState:
    """Integrate the flow for time t (t may be negative) with steps <= dt."""
    if t == 0 or normalize_branch(branch) == 0:
        return state
    steps = _step_count(t, dt)
    h = t / steps
    for _ in range(steps):
        state = flow_step(state, model, branch, h)
    return state


def flow_trajectory(state: FlowState, model: VelocityModel, branch, t: float, dt: float = 1e-3):
    """States sampled at every integrator step; returns (times, states)."""
    steps = _step_count(t, dt) if t != 0 else 0
    h = t / steps if steps else 0.0
    times = [0.0]
    states = [state]
    for i in range(steps):
        state = flow_step(state, model, branch, h)
        times.append((i + 1) * h)
        states.append(state)
    return np.array(times), states


def _index_dt(table: FrameTable, mu: CurveletIndex) -> float:
    rho = max(table.wedge(mu.j, mu.ell).rho, 1.0)
    return min(1e-3, 1.0 / (4.0 * rho))


def _flow_center(table: FrameTable, mu: CurveletIndex, model: VelocityModel, branch, t: float) -> FlowState:
    """The phase-space center of mu flowed for time t."""
    state = FlowState.initial(table.center(mu), table.xi_center(mu))
    return flow(state, model, branch, t, dt=_index_dt(table, mu))


def _snap_int(value: float) -> int:
    # round-half-down: equidistant snaps resolve toward the smaller index
    return int(math.ceil(value - 0.5))


def flow_index(table: FrameTable, mu: CurveletIndex, model: VelocityModel, branch, t: float):
    """Flow the phase-space center of mu and snap back to the lattice.

    Returns (PhasePoint, CurveletIndex): the unsnapped flowed point (for
    distance evaluations) and the nearest frame index.  Isotropic indices
    map to themselves.
    """
    from .distance import PhasePoint

    w = table.validate_index(mu)
    if w.kind != "directional" or normalize_branch(branch) == 0 or t == 0:
        return table.phase_point(mu), mu

    state = _flow_center(table, mu, model, branch, t)
    point = PhasePoint(x=state.x, xi=state.xi, directional=True)

    scales = table.directional_scales()
    log_rho = np.log2([table.wedge(j).rho for j in scales])
    j_new = scales[int(np.argmin(np.abs(log_rho - point.scale_log2)))]
    n_ang = table.angles(j_new)
    theta = float(np.mod(point.theta, 2.0 * np.pi))
    ell_new = _snap_int(theta * n_ang / (2.0 * np.pi)) % n_ang
    rect = table.wedge(j_new, ell_new).rect
    k1 = _snap_int(state.x[0] * rect[0]) % rect[0]
    k2 = _snap_int(state.x[1] * rect[1]) % rect[1]
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

    state = _flow_center(table, mu, model, branch, t)
    rot = state.rotation
    x_mu = table.center(mu)
    n = table.n
    grid = np.arange(n) / n
    # shortest-displacement wrap keeps the motion rigid on the torus
    g1 = np.mod(grid - state.x[0] + 0.5, 1.0) - 0.5
    g2 = np.mod(grid - state.x[1] + 0.5, 1.0) - 0.5
    # q.(U g + x_mu) = (U^T q).g + q.x_mu: the grid offsets g1 (row) and g2
    # (column) meet the rotated frequencies p = U^T q separately
    q1, q2 = w.freqs
    p1 = rot[0, 0] * q1 + rot[1, 0] * q2
    p2 = rot[0, 1] * q1 + rot[1, 1] * q2
    rect1, rect2 = np.divmod(w.wrapped, w.rect[1])
    phase = q1 * x_mu[0] + q2 * x_mu[1] - rect1 * mu.k1 / w.rect[0] - rect2 * mu.k2 / w.rect[1]
    coeff = w.weights * np.exp(2j * np.pi * phase) / (math.sqrt(w.size) * n * norm)
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
