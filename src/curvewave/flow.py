"""Bicharacteristic flow for the eigenvalue Hamiltonians lambda = s*c(x)|xi|.

Fixed-step RK4 on the torus phase space, moving ``distance.PhasePoint``
stacks (one ray or many per call), the orientation-tracking rotation
U(t) (defined directly by U(t) e(t) = e(0)), and the induced curvelet
index map mu -> mu_nu(t) with deterministic snapping.

The integrator steps the coordinate state (x1, x2, xi1, xi2) component by
component: on one ray each operation acts on a NumPy scalar, on a stack of
B rays on a (B,) array, and both perform the same IEEE operations in the
same order, so a ray moves bit-identically alone or in a stack.  Squares
are written as products: a NumPy scalar's ``**`` calls ``pow``, which may
round differently from an array's ``**``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._core import checked_kind, number, pair, required, spec_json
from .distance import PhasePoint
from .frame import CurveletIndex, FrameTable, atom_spectrum, waveform

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
        """c(x), shape (...), at points x of shape (..., 2)."""
        x = np.asarray(x, dtype=float)
        return self.c_and_partials(x[..., 0], x[..., 1])[0]

    def c_and_partials(self, x1, x2):
        """c and its partials dc/dx1, dc/dx2 at the points (x1, x2), NumPy
        scalars or arrays of one shape, from one evaluation of the phase or
        bump factor.  Every speed formula lives here."""
        if self.kind == "constant":
            zero = np.zeros(np.shape(x1))[()]  # a NumPy scalar for one ray, not a 0-d array
            return zero + self.c0, zero, zero
        if self.kind == "sinusoidal":
            # written out, not x @ k: a matrix-vector product may round one
            # stacked point differently from the same point on its own
            k1, k2 = self.wavevector
            phase = 2.0 * np.pi * (x1 * k1 + x2 * k2)
            slope = 2.0 * np.pi * self.amplitude * np.cos(phase)
            return self.c0 + self.amplitude * np.sin(phase), slope * k1, slope * k2
        g1, dg1 = self._bump_factor(x1 - self.center[0])
        g2, dg2 = self._bump_factor(x2 - self.center[1])
        return self.c0 + self.amplitude * g1 * g2, self.amplitude * dg1 * g2, self.amplitude * dg2 * g1

    def _bump_factor(self, y):
        """The periodic factor g(y) = sum_{|m| <= M} exp(-(y+m)^2/2w^2) of the
        bump and its derivative g'(y), elementwise.  y is reduced to
        [-1/2, 1/2) first and M = ceil(1/2 + w sqrt(2 ln 1e17)), so every
        image left out weighs below 1e-17 and c is smooth on the torus."""
        reach = math.ceil(0.5 + self.width * math.sqrt(2.0 * math.log(1e17)))
        y = np.mod(y + 0.5, 1.0) - 0.5
        g = dg = 0.0
        for m in range(-reach, reach + 1):  # one image at a time: memory stays that of y
            z = y + m
            e = np.exp(-0.5 * (z * z) / self.width**2)
            g, dg = g + e, dg - z * e
        return g, dg / self.width**2

    def gradient_defect(self, n_check: int = 64, h: float = 1e-6) -> float:
        """Max |analytic - central-difference| gradient over a probe grid."""
        g = np.arange(n_check) / n_check
        x = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
        _, *partials = self.c_and_partials(x[:, 0], x[:, 1])
        worst = 0.0
        for axis in range(2):
            step = np.zeros(2)
            step[axis] = h
            fd = (self.c(x + step) - self.c(x - step)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(fd - partials[axis]))))
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


def _rhs(state, model: VelocityModel, sign: int):
    x1, x2, xi1, xi2 = state
    mag = np.hypot(xi1, xi2)
    c, c1, c2 = model.c_and_partials(x1, x2)
    speed, push = sign * c, -sign * mag
    return speed * xi1 / mag, speed * xi2 / mag, push * c1, push * c2


def flow_step(state: tuple, model: VelocityModel, branch, dt: float) -> tuple:
    """One RK4 step of the bicharacteristic system on the coordinate state
    (x1, x2, xi1, xi2): NumPy scalars for one ray, arrays for a stack
    (branch 0: identity)."""
    sign = normalize_branch(branch)
    if sign == 0:
        return state
    k1 = _rhs(state, model, sign)
    k2 = _rhs([y + 0.5 * dt * k for y, k in zip(state, k1)], model, sign)
    k3 = _rhs([y + 0.5 * dt * k for y, k in zip(state, k2)], model, sign)
    k4 = _rhs([y + dt * k for y, k in zip(state, k3)], model, sign)
    x1, x2, xi1, xi2 = (y + dt / 6.0 * (a + 2 * b + 2 * c + d) for y, a, b, c, d in zip(state, k1, k2, k3, k4))
    return np.mod(x1, 1.0), np.mod(x2, 1.0), xi1, xi2


def _steps(point: PhasePoint, model: VelocityModel, branch, t: float, dt: float):
    """Check t and dt, then iterate (time, coordinate state) after each of
    the |t| / dt steps (rounded up) that carry ``point`` to time t.

    Raises:
        ValueError: when dt is not a positive finite number or t / dt is not finite.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"flow dt must be a positive finite number; got {dt!r}")
    if not math.isfinite(abs(t) / dt):
        raise ValueError(f"flow t must be finite (and t / dt too); got t = {t!r}, dt = {dt!r}")
    steps = max(1, math.ceil(abs(t) / dt - 1e-12)) if t else 0
    h = t / steps if steps else 0.0

    def run(state):
        for i in range(steps):
            state = flow_step(state, model, branch, h)
            yield (i + 1) * h, state

    return run((*np.moveaxis(point.x, -1, 0), *np.moveaxis(point.xi, -1, 0)))


def _at(point: PhasePoint, state) -> PhasePoint:
    return replace(point, x=np.stack(state[:2], axis=-1), xi=np.stack(state[2:], axis=-1))


def flow(point: PhasePoint, model: VelocityModel, branch, t: float, dt: float = 1e-3) -> PhasePoint:
    """Integrate the flow for time t (t may be negative) with steps <= dt."""
    steps = _steps(point, model, branch, t, dt)  # checks t and dt before the branch
    if normalize_branch(branch) == 0:
        return point
    end = None
    for _, end in steps:
        pass
    return point if end is None else _at(point, end)


def flow_trajectory(point: PhasePoint, model: VelocityModel, branch, t: float, dt: float = 1e-3):
    """Points after every integrator step, |t| / dt steps rounded up;
    returns (times, points), both starting at time 0 with ``point``."""
    times, points = [0.0], [point]
    for time, state in _steps(point, model, branch, t, dt):
        times.append(time)
        points.append(_at(point, state))
    return np.array(times), points


def flow_index(table: FrameTable, mu, model: VelocityModel, branch, t: float):
    """Flow the phase-space centers of frame indices and snap back to the lattice.

    ``mu`` is a CurveletIndex or an array of packed positions (any shape);
    a whole array flows as one stack.  Returns (PhasePoint, snapped): the
    unsnapped flowed points (for distance evaluations) and the nearest
    frame indices, a CurveletIndex for a CurveletIndex and packed positions
    of mu's shape otherwise.  Isotropic indices map to themselves.

    Raises:
        ValueError: when packed positions are not of an integer dtype.
    """
    if isinstance(mu, CurveletIndex):
        flat = table.flat_of_index(mu)
    else:
        flat = np.asarray(mu)
        if flat.dtype.kind not in "iu":  # a cast would truncate 5.7 to 5 silently
            raise ValueError(f"packed positions must be integers; got dtype {flat.dtype}")
        flat = flat.astype(np.int64)
    start = table.phase_points(flat)
    moved = start.directional & (normalize_branch(branch) != 0) & (t != 0)
    end = flow(start, model, branch, t) if np.any(moved) else start
    point = replace(
        start, x=np.where(moved[..., None], end.x, start.x), xi=np.where(moved[..., None], end.xi, start.xi)
    )
    snapped = np.where(moved, table.nearest_index(end), flat)
    if isinstance(mu, CurveletIndex):
        return point, CurveletIndex(*(int(v) for v in table.index_of_flat(snapped)))
    return point, snapped


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
    if sign == 0 or t == 0:
        return waveform(table, mu)

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
    norm = math.sqrt(w.atom_norm2)
    coeff = atom_spectrum(table, mu)[1] * np.exp(2j * np.pi * (q1 * start.x[0] + q2 * start.x[1])) / (n * norm)
    return _scattered_trig_sum(coeff, p1, p2, g1, g2)


def _scattered_trig_sum(coeff, p1, p2, g1, g2):
    """sum_k coeff[k] exp(2pi i (p1[k] g1[a] + p2[k] g2[b])) on the grid (a, b).

    Scattered frequencies on a tensor grid: the phase factors into a row
    and a column part, so the sum is one (rows x K) @ (K x columns)
    product, exact and O(N^2 K).  ``propagators._eval_fourier_at_points``
    is the transpose case (grid frequencies at scattered points) and
    factors over frequency rows instead; it is now only the tests'
    reference for warps, which ``propagators.warp_spectrum`` computes in
    frequency space.
    """
    rows = np.exp(2j * np.pi * np.outer(g1, p1)) * coeff
    return rows @ np.exp(2j * np.pi * np.outer(p2, g2))
