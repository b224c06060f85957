"""Reference solution operators on the periodic grid.

Exact Fourier-multiplier propagators for constant coefficients (scalar
half-wave, second-order wave, and the 3-component acoustic system), an
RK4 pseudospectral solver for variable c(x), Gaussian smoothing,
separable pseudodifferential multipliers, smooth warpings, and
vector-valued (hyper) curvelets.

Fields are sampled on [0,1)^2, so a grid frequency q corresponds to the
physical wavenumber 2*pi*q; plane waves travel at speed c(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.fft as spfft

from ._core import FFT_WORKERS, checked_kind, required, spec_json
from .flow import VelocityModel, normalize_branch
from .frame import CurveletIndex, FrameTable, waveform

__all__ = [
    "apply_halfwave",
    "apply_cos_wave",
    "acoustic_dispersion_matrix",
    "acoustic_polarization",
    "apply_acoustic",
    "polarization_fractions",
    "solve_variable_wave",
    "oneway_velocity",
    "apply_gaussian_smooth",
    "PsidoSymbol",
    "apply_psido",
    "WarpMap",
    "apply_warp",
    "hyper_curvelet",
    "OperatorSpec",
]

BRANCHES = (1, -1, 0)


@lru_cache(maxsize=8)
def _grids(n: int):
    q = np.fft.fftfreq(n) * n
    q1 = np.broadcast_to(q[:, None], (n, n))
    q2 = np.broadcast_to(q[None, :], (n, n))
    mag = 2.0 * np.pi * np.hypot(q1, q2)  # physical |xi|
    return q1, q2, mag


@lru_cache(maxsize=8)
def _grid_points(n: int) -> np.ndarray:
    """Read-only sample points x[a, b] = (a/N, b/N), shape (N, N, 2)."""
    grid = np.arange(n) / n
    x = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    x.flags.writeable = False
    return x


def _fft2(f):
    return spfft.fft2(f, norm="ortho", workers=FFT_WORKERS)


def _ifft2(F):
    return spfft.ifft2(F, norm="ortho", workers=FFT_WORKERS)


def apply_halfwave(f: np.ndarray, t: float, sign, c0: float = 1.0) -> np.ndarray:
    """Multiply the spectrum by exp(sign * i * c0 |xi| t); unitary."""
    s = normalize_branch(sign)
    if s == 0:
        raise ValueError("half-wave propagator needs sign + or -")
    f = np.asarray(f, dtype=np.complex128)
    _, _, mag = _grids(f.shape[-1])
    return _ifft2(_fft2(f) * np.exp(1j * s * c0 * t * mag))


def apply_cos_wave(u0: np.ndarray, u1: np.ndarray, t: float, c0: float = 1.0) -> np.ndarray:
    """Exact constant-coefficient wave solution u(t) from (u0, u1)."""
    u0 = np.asarray(u0, dtype=np.complex128)
    u1 = np.asarray(u1, dtype=np.complex128)
    _, _, mag = _grids(u0.shape[-1])
    cmag = c0 * mag
    sinc = np.where(cmag > 0, np.sin(cmag * t) / np.where(cmag > 0, cmag, 1.0), t)
    return _ifft2(np.cos(cmag * t) * _fft2(u0) + sinc * _fft2(u1))


def acoustic_dispersion_matrix(xi) -> np.ndarray:
    """3x3 dispersion matrix a(xi) of the unit-coefficient acoustic system.

    Component order (u1, u2, rho); a(xi) is symmetric with eigenvalues
    0 and +-|xi|.
    """
    x1, x2 = float(xi[0]), float(xi[1])
    return np.array([[0.0, 0.0, x1], [0.0, 0.0, x2], [x1, x2, 0.0]])


def _unit_directions(n: int):
    q1, q2, mag = _grids(n)
    safe = np.where(mag > 0, mag / (2.0 * np.pi), 1.0)
    e1 = np.where(mag > 0, q1 / safe, 1.0)
    e2 = np.where(mag > 0, q2 / safe, 0.0)
    return e1, e2


def acoustic_polarization(n: int, branch) -> np.ndarray:
    """Eigenvector field r_branch(xi) on the grid, shape (3, N, N).

    r_0 = (xi_perp/|xi|, 0), r_+- = (+-xi/|xi|, 1)/sqrt(2); at xi = 0 the
    direction defaults to (1, 0) (the zero mode belongs to the isotropic
    channel and is never weighted by these vectors in the frame).
    """
    s = normalize_branch(branch)
    e1, e2 = _unit_directions(n)
    if s == 0:
        return np.stack([-e2, e1, np.zeros_like(e1)])
    inv = 1.0 / math.sqrt(2.0)
    return inv * np.stack([s * e1, s * e2, np.ones_like(e1)])


def apply_acoustic(u: np.ndarray, t: float) -> np.ndarray:
    """Exact propagator of the constant-coefficient acoustic system (m=3).

    Per frequency: u_hat(t) = R diag(exp(-i t lambda_nu)) R* u_hat(0) with
    lambda in {0, +|xi|, -|xi|}; unitary.
    """
    u = np.asarray(u, dtype=np.complex128)
    if u.shape[0] != 3:
        raise ValueError("acoustic propagator expects a 3-component field")
    n = u.shape[-1]
    _, _, mag = _grids(n)
    spec = _fft2(u)
    out = np.zeros_like(spec)
    for branch in BRANCHES:
        r = acoustic_polarization(n, branch)
        lam = normalize_branch(branch) * mag
        proj = np.einsum("cij,cij->ij", r, spec)
        out += np.exp(-1j * t * lam) * proj * r
    return _ifft2(out)


def polarization_fractions(u: np.ndarray) -> dict[int, float]:
    """Energy fractions of a 3-component field in the three polarizations."""
    u = np.asarray(u, dtype=np.complex128)
    n = u.shape[-1]
    spec = _fft2(u)
    total = float(np.vdot(spec, spec).real)
    if total == 0.0:
        raise ValueError("zero field has no polarization split")
    out = {}
    for branch in BRANCHES:
        r = acoustic_polarization(n, branch)
        proj = np.einsum("cij,cij->ij", r, spec)
        out[branch] = float(np.vdot(proj, proj).real) / total
    return out


def _laplacian(f: np.ndarray) -> np.ndarray:
    _, _, mag = _grids(f.shape[-1])
    return _ifft2(-(mag**2) * _fft2(f))


def solve_variable_wave(
    u0: np.ndarray,
    v0: np.ndarray,
    model: VelocityModel,
    t: float,
    dt: float | None = None,
    cfl: float = 0.25,
):
    """RK4 pseudospectral integration of u_tt = c(x)^2 Lap(u) to time t.

    Accepts stacked fields (..., N, N); returns (u, v).  dt defaults to
    the CFL bound cfl/(N*c_max); it must be positive and not exceed it.
    """
    u = np.asarray(u0, dtype=np.complex128)
    v = np.asarray(v0, dtype=np.complex128)
    if u.shape != v.shape:
        raise ValueError("u0 and v0 must have matching shapes")
    n = u.shape[-1]
    limit = cfl / (n * model.c_max)
    if dt is None:
        dt = limit
    if not 0 < dt <= limit * (1 + 1e-12):
        raise ValueError(f"dt={dt} must be positive and within the CFL bound {limit:.3e}")
    if t == 0:
        return u, v
    c2 = np.asarray(model.c(_grid_points(n))) ** 2
    steps = max(1, int(math.ceil(abs(t) / dt - 1e-12)))
    h = t / steps
    for _ in range(steps):
        k1u, k1v = v, c2 * _laplacian(u)
        k2u, k2v = v + 0.5 * h * k1v, c2 * _laplacian(u + 0.5 * h * k1u)
        k3u, k3v = v + 0.5 * h * k2v, c2 * _laplacian(u + 0.5 * h * k2u)
        k4u, k4v = v + h * k3v, c2 * _laplacian(u + h * k3u)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


def oneway_velocity(u0: np.ndarray, model: VelocityModel, sign) -> np.ndarray:
    """Initial velocity pairing u0 with one propagation branch.

    v0 = sign * i * c(x) * |D| u0 makes (u0, v0) a leading-order one-way
    wavefield: for constant c the second-order solution then equals the
    half-wave multiplier exp(sign i c0 |xi| t) applied to u0.
    """
    s = normalize_branch(sign)
    if s == 0:
        raise ValueError("one-way initial data needs sign + or -")
    u0 = np.asarray(u0, dtype=np.complex128)
    n = u0.shape[-1]
    _, _, mag = _grids(n)
    return 1j * s * np.asarray(model.c(_grid_points(n))) * _ifft2(mag * _fft2(u0))


def wave_energy(u: np.ndarray, v: np.ndarray, model: VelocityModel) -> float:
    """E = 1/2 sum(|v|^2 / c^2 + |grad u|^2), conserved by the wave flow."""
    n = u.shape[-1]
    q1, q2, _ = _grids(n)
    c2 = np.asarray(model.c(_grid_points(n))) ** 2
    spec = _fft2(u)
    gx = _ifft2(2j * np.pi * q1 * spec)
    gy = _ifft2(2j * np.pi * q2 * spec)
    kinetic = float(np.sum(np.abs(v) ** 2 / c2))
    potential = float(np.sum(np.abs(gx) ** 2 + np.abs(gy) ** 2))
    return 0.5 * (kinetic + potential)


def apply_gaussian_smooth(f: np.ndarray, width: float) -> np.ndarray:
    """Fourier multiplier exp(-width^2 |xi|^2)."""
    if width <= 0:
        raise ValueError("smoothing width must be positive")
    f = np.asarray(f, dtype=np.complex128)
    _, _, mag = _grids(f.shape[-1])
    return _ifft2(np.exp(-(width**2) * mag**2) * _fft2(f))


@dataclass
class PsidoSymbol:
    """Separable order-0 symbol sigma(x, xi) = sum_q a_q(x) b_q(xi).

    Each term holds an N x N spatial factor (or None for 1) and an N x N
    frequency factor in fft layout (or None for 1).
    """

    terms: list[tuple[np.ndarray | None, np.ndarray | None]]

    @classmethod
    def multiplier(cls, b: np.ndarray) -> PsidoSymbol:
        return cls([(None, np.asarray(b))])

    @classmethod
    def spatial(cls, a: np.ndarray) -> PsidoSymbol:
        return cls([(np.asarray(a), None)])

    @classmethod
    def identity(cls) -> PsidoSymbol:
        return cls([(None, None)])


def apply_psido(f: np.ndarray, symbol: PsidoSymbol) -> np.ndarray:
    """sum_q a_q(x) IFFT(b_q FFT(f)); exact for separable symbols."""
    if not isinstance(symbol, PsidoSymbol):
        raise TypeError("apply_psido accepts separable PsidoSymbol specs only")
    f = np.asarray(f, dtype=np.complex128)
    spec = _fft2(f)
    out = np.zeros_like(f)
    for a, b in symbol.terms:
        g = _ifft2(spec * b) if b is not None else _ifft2(spec)
        out += a * g if a is not None else g
    return out


@dataclass(frozen=True)
class WarpMap:
    """Smooth diffeomorphism of the torus with explicit inverse and Jacobian.

    Every kind is the volume-preserving wiggle x -> x + a sin(2 pi k.x) u
    with u = k_perp/|k|: sinusoidal(amplitude, wavevector) sets a and k,
    identity has a = 0, and shear(s) (a localized horizontal shear whose
    Jacobian at x2 = 1/2 is [[1, s], [0, 1]]) has a = s/2pi along k = (0, 1).
    """

    kind: str
    s: float = 0.0
    amplitude: float = 0.0
    wavevector: tuple[int, int] = (1, 0)

    # JSON keys each kind reads and writes besides "kind"
    _KEYS = {"identity": (), "shear": ("s",), "sinusoidal": ("amplitude", "wavevector")}

    @classmethod
    def identity(cls) -> WarpMap:
        return cls(kind="identity")

    @classmethod
    def shear(cls, s: float) -> WarpMap:
        return cls(kind="shear", s=float(s))

    @classmethod
    def sinusoidal(cls, amplitude: float, wavevector=(1, 0)) -> WarpMap:
        return cls(kind="sinusoidal", amplitude=float(amplitude), wavevector=tuple(int(v) for v in wavevector))

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown warp kind {self.kind!r}")
        if tuple(self.wavevector) == (0, 0):
            raise ValueError("wavevector must be nonzero")

    def _wiggle(self):
        """(a, k, u) of the map x -> x + a sin(2 pi k.x) u."""
        if self.kind == "sinusoidal":
            a, k = self.amplitude, np.asarray(self.wavevector, dtype=float)
        else:
            a, k = (self.s if self.kind == "shear" else 0.0) / (2 * np.pi), np.array([0.0, 1.0])
        return a, k, np.array([-k[1], k[0]]) / np.hypot(*k)

    def phi(self, x):
        x = np.asarray(x, dtype=float)
        a, k, u = self._wiggle()
        return x + a * np.sin(2 * np.pi * (x @ k))[..., None] * u

    def phi_inv(self, y):
        # k.phi(x) = k.x, so the sine factor is known from y alone
        y = np.asarray(y, dtype=float)
        a, k, u = self._wiggle()
        return y - a * np.sin(2 * np.pi * (y @ k))[..., None] * u

    def jacobian(self, x):
        """grad phi at x, shape (..., 2, 2)."""
        x = np.asarray(x, dtype=float)
        a, k, u = self._wiggle()
        factor = 2 * np.pi * a * np.cos(2 * np.pi * (x @ k))
        return np.eye(2) + factor[..., None, None] * np.einsum("i,j->ij", u, k)

    def validate(self, n: int = 64) -> None:
        """Check round-trip inversion and Jacobian-determinant bounds on a grid."""
        x = _grid_points(n)
        err = np.max(np.abs(self.phi(self.phi_inv(x)) - x))
        if not err <= 1e-8:  # NaN fails too
            raise ValueError(f"warp inverse defect {err:.3e}")
        det = np.linalg.det(self.jacobian(x))
        if not 0.5 <= det.min() <= det.max() <= 2.0:
            raise ValueError(f"warp determinant out of [0.5, 2]: [{det.min():.3f}, {det.max():.3f}]")

    def to_json(self) -> dict:
        return spec_json(self, self._KEYS[self.kind])

    @classmethod
    def from_json(cls, spec: dict) -> WarpMap:
        kind = checked_kind("warp map", spec, cls._KEYS, default="identity")
        if kind == "identity":
            return cls.identity()
        if kind == "shear":
            return cls.shear(required("shear warp map", spec, "s"))
        return cls.sinusoidal(required("sinusoidal warp map", spec, "amplitude"), spec.get("wavevector", (1, 0)))


def apply_warp(f: np.ndarray, warp: WarpMap) -> np.ndarray:
    """Composition f(phi(x)) on the grid.

    Evaluates the trigonometric interpolant of f exactly (to rounding) at
    the N^2 warped points by a direct sum over its N^2 Fourier
    coefficients: O(N^4) work, fine at desk scale (N <= 128).
    """
    f = np.asarray(f, dtype=np.complex128)
    warp.validate(min(f.shape[-1], 64))
    y = np.mod(warp.phi(_grid_points(f.shape[-1])), 1.0)
    return _eval_fourier_at_points(_fft2(f), y[..., 0], y[..., 1])


def _eval_fourier_at_points(spec: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Evaluate the trig interpolant with unitary-FFT coefficients at points.

    Grid frequencies at scattered points: the N x N frequencies form a
    tensor grid, so a chunk of points contracts the q2 axis in one matrix
    product and then the q1 axis, O(N^2) per point.
    ``flow._scattered_trig_sum`` is the transpose case (scattered
    frequencies on the tensor sample grid) and factors over grid rows.
    """
    n = spec.shape[-1]
    q = np.fft.fftfreq(n) * n
    shape = y1.shape
    p1 = y1.ravel()
    p2 = y2.ravel()
    out = np.empty(p1.size, dtype=np.complex128)
    chunk = max(1024, int(2e6 / n))
    for start in range(0, p1.size, chunk):
        sl = slice(start, start + chunk)
        e2 = np.exp(2j * np.pi * np.outer(q, p2[sl]))  # (N, P)
        partial = spec @ e2  # (N, P): contract q2
        e1 = np.exp(2j * np.pi * np.outer(q, p1[sl]))
        out[sl] = np.einsum("qp,qp->p", e1, partial)
    return (out / n).reshape(shape)


def hyper_curvelet(table: FrameTable, mu: CurveletIndex, branch, mode: str = "pointwise") -> np.ndarray:
    """Vector curvelet aligned with one dispersion-matrix eigenvector.

    ``pointwise`` multiplies the waveform spectrum by r_branch(xi) per
    frequency (the propagation then decouples exactly for constant
    coefficients); ``center`` uses the constant vector r_branch(xi_mu),
    whose propagation leaks O(2^-j) energy into the other branches.

    Raises:
        ValueError: for isotropic mu (r_branch undefined at xi = 0).
    """
    w = table.validate_index(mu)
    if w.kind != "directional":
        raise ValueError("hyper curvelets require a directional index")
    spec = _fft2(waveform(table, mu))
    if mode == "pointwise":
        r = acoustic_polarization(table.n, branch)
    elif mode == "center":
        xi = table.xi_center(mu)
        r3 = _center_polarization(xi, branch)
        r = np.broadcast_to(r3[:, None, None], (3,) + spec.shape)
    else:
        raise ValueError(f"unknown hyper-curvelet mode {mode!r}")
    return _ifft2(r * spec[None, :, :])


def _center_polarization(xi, branch) -> np.ndarray:
    s = normalize_branch(branch)
    e = np.asarray(xi, dtype=float)
    e = e / np.hypot(*e)
    if s == 0:
        return np.array([-e[1], e[0], 0.0])
    return np.array([s * e[0], s * e[1], 1.0]) / math.sqrt(2.0)


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative operator description with an ``apply``; its fields are
    its JSON keys.

    Kinds: identity, halfwave, cos-wave, acoustic, variable-wave,
    gaussian-smooth, psido, warp.  ``variable-wave`` propagates one-way
    initial data (v0 = sign i c |D| u0) through the pseudospectral solver.
    A psido spec names one of ``SYMBOL_IDS``; ``apply_psido`` takes any
    other symbol.
    """

    kind: str
    t: float = 0.0
    sign: int = 1
    c0: float = 1.0
    width: float = 0.0
    dt: float | None = None
    model: VelocityModel | None = None
    symbol: str = "one"
    map: WarpMap = field(default_factory=WarpMap.identity)

    # JSON keys each kind reads and writes besides "kind"
    _KEYS = {
        "identity": (),
        "halfwave": ("t", "sign", "c0"),
        "cos-wave": ("t", "c0"),
        "acoustic": ("t",),
        "variable-wave": ("t", "sign", "model", "dt"),
        "gaussian-smooth": ("width",),
        "psido": ("symbol",),
        "warp": ("map",),
    }
    # how ``from_json`` reads each key that is not a float
    _READ = {"sign": normalize_branch, "symbol": str, "model": VelocityModel.from_json, "map": WarpMap.from_json}

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"operator sign must be + or -; got {self.sign!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError(f"time step dt must be positive; got {self.dt!r}")
        if self.symbol not in SYMBOL_IDS:
            raise ValueError(f"unknown symbol id {self.symbol!r}; known: {', '.join(SYMBOL_IDS)}")

    @property
    def is_vector(self) -> bool:
        return self.kind == "acoustic"

    @property
    def speed(self) -> VelocityModel:
        """The wave speed: ``model``, or the constant c0 when it is unset."""
        return self.model or VelocityModel.constant(self.c0)

    def apply(self, f: np.ndarray) -> np.ndarray:
        k = self.kind
        if k == "identity":
            return np.array(f, dtype=np.complex128, copy=True)
        if k == "halfwave":
            return apply_halfwave(f, self.t, self.sign, self.c0)
        if k == "cos-wave":
            return apply_cos_wave(f, np.zeros_like(f), self.t, self.c0)
        if k == "acoustic":
            return apply_acoustic(f, self.t)
        if k == "variable-wave":
            return solve_variable_wave(f, oneway_velocity(f, self.speed, self.sign), self.speed, self.t, dt=self.dt)[0]
        if k == "gaussian-smooth":
            return apply_gaussian_smooth(f, self.width)
        if k == "psido":
            return apply_psido(f, named_symbol(self.symbol, f.shape[-1]))
        return apply_warp(f, self.map)

    def adjoint(self) -> OperatorSpec:
        """Adjoint operator, available for the multiplier-type kinds: the
        real multipliers are self-adjoint, and the unitary groups run
        backwards, T(t)* = T(-t)."""
        if self.kind in {"identity", "gaussian-smooth", "cos-wave"}:
            return self
        if self.kind in {"halfwave", "acoustic"}:
            return replace(self, t=-self.t)
        raise ValueError(f"adjoint not available for operator kind {self.kind!r}")

    def to_json(self) -> dict:
        out = spec_json(self, self._KEYS[self.kind], sign="+" if self.sign > 0 else "-", model=self.speed)
        if self.dt is None:
            out.pop("dt", None)
        return out

    @classmethod
    def from_json(cls, spec: dict) -> OperatorSpec:
        kind = checked_kind("operator", spec, cls._KEYS)
        if kind == "gaussian-smooth":
            required("gaussian-smooth operator", spec, "width")
        return cls(kind=kind, **{key: cls._READ.get(key, float)(spec[key]) for key in cls._KEYS[kind] if key in spec})


SYMBOL_IDS = ("one", "space-sine", "freq-lowpass", "mixed")


@lru_cache(maxsize=8)
def named_symbol(name: str, n: int) -> PsidoSymbol:
    """Built-in separable order-0 symbols (``SYMBOL_IDS``) on an N x N grid,
    cached so a psido spec applied column by column builds its symbol once."""
    q1, q2, mag = _grids(n)
    grid = np.arange(n) / n
    x1 = np.broadcast_to(grid[:, None], (n, n))
    x2 = np.broadcast_to(grid[None, :], (n, n))
    if name == "one":
        return PsidoSymbol.identity()
    if name == "space-sine":
        return PsidoSymbol.spatial(1.0 + 0.5 * np.sin(2 * np.pi * x1))
    if name == "freq-lowpass":
        return PsidoSymbol.multiplier(np.exp(-((mag / (2 * np.pi)) / (n / 8.0)) ** 2))
    if name == "mixed":
        return PsidoSymbol(
            [
                (1.0 + 0.3 * np.sin(2 * np.pi * x1), None),
                (0.2 * np.cos(2 * np.pi * x2), np.exp(-((mag / (2 * np.pi)) / (n / 8.0)) ** 2)),
            ]
        )
    raise ValueError(f"unknown symbol id {name!r}")
