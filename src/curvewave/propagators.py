"""Reference solution operators on the periodic grid.

Exact Fourier-multiplier propagators for constant coefficients (scalar
half-wave, second-order wave, and the 3-component acoustic system), a
Chebyshev (rapid-expansion) propagator for variable c(x) with a stated
error bound, the RK4 pseudospectral solver it is checked against,
Gaussian smoothing, separable pseudodifferential multipliers, smooth
warpings, and vector-valued (hyper) curvelets.

Fields are sampled on [0,1)^2, so a grid frequency q corresponds to the
physical wavenumber 2*pi*q; plane waves travel at speed c(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np
import scipy.fft as spfft
from scipy.special import gammaln, jv

from ._core import checked_kind, fft2, ifft2, number, pair, required, spec_json
from .flow import VelocityModel, normalize_branch
from .frame import CurveletIndex, FrameTable, _signed, atom_spectrum

__all__ = [
    "apply_cos_wave",
    "acoustic_dispersion_matrix",
    "acoustic_polarization",
    "polarization_fractions",
    "solve_variable_wave",
    "chebyshev_wave",
    "oneway_velocity",
    "PsidoSymbol",
    "apply_psido",
    "WarpMap",
    "warp_spectrum",
    "hyper_curvelet",
    "OperatorSpec",
]

BRANCHES = (1, -1, 0)

# A Chebyshev expansion keeps every degree up to the last coefficient at or
# above this size; the coefficients of sin(t sqrt(lam))/sqrt(lam) are
# compared after scaling by sqrt(lam_max), the size of L^(1/2) on the grid.
CHEBYSHEV_TAIL = 1e-12

# A Jacobi-Anger expansion keeps the orders |m| <= M, with M the least whose
# bound on sum_{|m|>M} max |J_m| over the arguments met is at most this.
JACOBI_ANGER_TAIL = 1e-16


@lru_cache(maxsize=8)
def _grids(n: int):
    q = _signed(np.arange(n), n)
    q1 = np.broadcast_to(q[:, None], (n, n))
    q2 = np.broadcast_to(q[None, :], (n, n))
    return q1, q2, _magnitude(q1, q2)


def _magnitude(q1, q2) -> np.ndarray:
    """Physical |xi| = 2 pi |q| of integer grid frequencies (q1, q2)."""
    return 2.0 * np.pi * np.hypot(q1, q2)


@lru_cache(maxsize=8)
def _grid_points(n: int) -> np.ndarray:
    """Read-only sample points x[a, b] = (a/N, b/N), shape (N, N, 2)."""
    grid = np.arange(n) / n
    x = np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1)
    x.flags.writeable = False
    return x


def apply_cos_wave(u0: np.ndarray, u1: np.ndarray, t: float, c0: float = 1.0) -> np.ndarray:
    """Exact constant-coefficient wave solution u(t) from (u0, u1)."""
    u0 = np.asarray(u0, dtype=np.complex128)
    u1 = np.asarray(u1, dtype=np.complex128)
    q1, q2, mag = _grids(u0.shape[-1])
    cmag = c0 * mag
    sinc = np.where(cmag > 0, np.sin(cmag * t) / np.where(cmag > 0, cmag, 1.0), t)
    cos = OperatorSpec(kind="cos-wave", t=t, c0=c0).multiplier(q1, q2)
    return ifft2(cos * fft2(u0) + sinc * fft2(u1))


def acoustic_dispersion_matrix(xi) -> np.ndarray:
    """3x3 dispersion matrix a(xi) of the unit-coefficient acoustic system.

    Component order (u1, u2, rho); a(xi) is symmetric with eigenvalues
    0 and +-|xi|.
    """
    x1, x2 = float(xi[0]), float(xi[1])
    return np.array([[0.0, 0.0, x1], [0.0, 0.0, x2], [x1, x2, 0.0]])


def _directions(q1, q2, mag):
    """Unit directions (e1, e2) of integer frequencies (q1, q2) with ``_magnitude`` mag; (1, 0) at 0."""
    safe = np.where(mag > 0, mag / (2.0 * np.pi), 1.0)
    return np.where(mag > 0, q1 / safe, 1.0), np.where(mag > 0, q2 / safe, 0.0)


def acoustic_polarization(n: int, branch) -> np.ndarray:
    """Eigenvector field r_branch(xi) on the grid, shape (3, N, N).

    r_0 = (xi_perp/|xi|, 0), r_+- = (+-xi/|xi|, 1)/sqrt(2); at xi = 0 the
    direction defaults to (1, 0) (the zero mode belongs to the isotropic
    channel and is never weighted by these vectors in the frame).
    """
    return _polarization(*_directions(*_grids(n)), branch)


def _polarization(e1, e2, branch) -> np.ndarray:
    """The r_branch of ``acoustic_polarization`` for unit directions
    (e1, e2) of one shape, stacked along a new leading axis of length 3."""
    s = normalize_branch(branch)
    if s == 0:
        return np.stack([-e2, e1, np.zeros_like(e1)])
    inv = 1.0 / math.sqrt(2.0)
    return inv * np.stack([s * e1, s * e2, np.ones_like(e1)])


def _projections(q1, q2, mag, spectrum: np.ndarray):
    """(r_b, r_b . spectrum) for each b of BRANCHES in turn, at the frequencies of
    ``_directions``; ValueError at once unless the spectrum's shape is (3,) + q1.shape."""
    if spectrum.shape != (3,) + np.shape(q1):
        raise ValueError(f"acoustic propagator expects a 3-component field; got spectrum shape {spectrum.shape}")
    e1, e2 = _directions(q1, q2, mag)
    rs = (_polarization(e1, e2, branch) for branch in BRANCHES)
    return ((r, r[0] * spectrum[0] + r[1] * spectrum[1] + r[2] * spectrum[2]) for r in rs)


def polarization_fractions(u: np.ndarray) -> dict[int, float]:
    """Energy fractions of a 3-component field in the three polarizations."""
    u = np.asarray(u, dtype=np.complex128)
    spec = fft2(u)
    projections = _projections(*_grids(u.shape[-1]), spec)
    total = float(np.vdot(spec, spec).real)
    if total == 0.0:
        raise ValueError("zero field has no polarization split")
    return {branch: float(np.vdot(proj, proj).real) / total for branch, (_, proj) in zip(BRANCHES, projections)}


@lru_cache(maxsize=8)
def _laplacian_symbol(n: int) -> np.ndarray:
    """Read-only -|xi|^2 on the N-grid."""
    symbol = -(_grids(n)[2] ** 2)
    symbol.flags.writeable = False
    return symbol


def _laplacian(f: np.ndarray, overwrite_x: bool = False) -> np.ndarray:
    """Lap f on the grid.  With ``overwrite_x`` the FFTs may reuse ``f``,
    which the caller gives up."""
    spec = fft2(f, overwrite_x=overwrite_x)
    spec *= _laplacian_symbol(f.shape[-1])
    return ifft2(spec, overwrite_x=True)


def solve_variable_wave(
    u0: np.ndarray,
    v0: np.ndarray,
    model: VelocityModel,
    t: float,
    dt: float | None = None,
    cfl: float = 0.25,
):
    """RK4 pseudospectral integration of u_tt = c(x)^2 Lap(u) to time t,
    the reference ``chebyshev_wave`` is checked against.

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
        k2u, k2v = v + 0.5 * h * k1v, c2 * _laplacian(u + 0.5 * h * k1u, overwrite_x=True)
        k3u, k3v = v + 0.5 * h * k2v, c2 * _laplacian(u + 0.5 * h * k2u, overwrite_x=True)
        k4u, k4v = v + h * k3v, c2 * _laplacian(u + h * k3u, overwrite_x=True)
        u = u + (h / 6.0) * (k1u + 2 * k2u + 2 * k3u + k4u)
        v = v + (h / 6.0) * (k1v + 2 * k2v + 2 * k3v + k4v)
    return u, v


@lru_cache(maxsize=32)
def _chebyshev_coefficients(t: float, lam_max: float):
    """Chebyshev coefficients (a, b) of cos(t sqrt(lam)) and
    sin(t sqrt(lam))/sqrt(lam) on [0, lam_max], cut after the last degree
    with |a_k| or sqrt(lam_max) |b_k| at or above CHEBYSHEV_TAIL, and the
    sums of the discarded |a_k| and |b_k|.

    The cosine's coefficients are 2 (-1)^k J_2k(R), R = |t| sqrt(lam_max),
    and both sets decay fast past k = R/2; one DCT-II on 2R + 32 Chebyshev
    nodes computes each, aliased only by degrees past 3R.
    """
    m = int(2 * abs(t) * math.sqrt(lam_max)) + 32
    root = np.sqrt(0.5 * lam_max * (1.0 + np.cos(np.pi * (np.arange(m) + 0.5) / m)))
    a = spfft.dct(np.cos(t * root), type=2) / m
    b = spfft.dct(t * np.sinc(t * root / np.pi), type=2) / m
    a[0] *= 0.5
    b[0] *= 0.5
    above = np.flatnonzero(np.maximum(np.abs(a), math.sqrt(lam_max) * np.abs(b)) >= CHEBYSHEV_TAIL)
    keep = int(above[-1]) + 1  # cos(t sqrt(lam)) = 1 at lam = 0, so some |a_k| is large
    a.flags.writeable = b.flags.writeable = False
    return a[:keep], b[:keep], float(np.abs(a[keep:]).sum()), float(np.abs(b[keep:]).sum())


def _wave_expansion(model: VelocityModel, n: int, t: float):
    """c^2 on the N-grid, lam_max = max c^2 * max |xi|^2 over the grid, and
    the Chebyshev coefficients of the wave group at time t on [0, lam_max]."""
    _, _, mag = _grids(n)
    c2 = np.asarray(model.c(_grid_points(n))) ** 2
    lam_max = float(c2.max()) * float(mag.max()) ** 2
    return c2, lam_max, _chebyshev_coefficients(float(t), lam_max)


def chebyshev_wave(u0: np.ndarray, v0: np.ndarray, model: VelocityModel, t: float):
    """u(t) = cos(t sqrt(L)) u0 + (sin(t sqrt(L))/sqrt(L)) v0 for the
    pseudospectral L = -c(x)^2 Lap, by one Chebyshev expansion in L
    (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 1984; Kosloff et al.,
    Geophysics 54, 1989).

    Accepts stacked fields (..., N, N); returns (u, bound).  L is
    self-adjoint and nonnegative in the c^-2-weighted norm ||.||_w, with
    norm at most lam_max = max c^2 * max |xi|^2 over the grid, so
    X = 2L/lam_max - 1 has ||T_k(X)||_w <= 1.  One Clenshaw recurrence sums
    T_k(X) (a_k u0 + b_k v0): one application of L per degree, the last
    (k = 0) with half of 2X.  Each degree writes s_k = a_k u0 + b_k v0 +
    2X s_k+1 - s_k+2 into the buffer of s_k+2, so three buffers rotate and
    a fourth holds the Laplacian.  ``bound`` is the discarded tail,
    sum_k>K |a_k| ||u0||_w + |b_k| ||v0||_w, taken to the grid l2 norm by
    the factor max c: it bounds the distance to the exact solution with
    this L, rounding aside.
    """
    u0 = np.asarray(u0, dtype=np.complex128)
    v0 = np.asarray(v0, dtype=np.complex128)
    if u0.shape != v0.shape:
        raise ValueError("u0 and v0 must have matching shapes")
    n = u0.shape[-1]
    c2, lam_max, (a, b, tail_a, tail_b) = _wave_expansion(model, n, t)
    two_x_scale = -4.0 / lam_max * c2  # 2X s = two_x_scale * Lap(s) - 2s
    half_scale = 0.5 * two_x_scale
    s0, s1, s2, work = (np.zeros_like(u0) for _ in range(4))
    for k in range(len(a) - 1, -1, -1):
        np.multiply(a[k], u0, out=s0)
        s0 += np.multiply(b[k], v0, out=work)
        np.copyto(work, s1)
        work = _laplacian(work, overwrite_x=True)
        work *= two_x_scale if k else half_scale
        s0 += work
        s0 -= np.multiply(2.0, s1, out=work) if k else s1
        s0 -= s2
        s0, s1, s2 = s2, s0, s1
    weighted = [math.sqrt(float(np.sum(np.abs(f) ** 2 / c2))) for f in (u0, v0)]
    return s1, math.sqrt(c2.max()) * (tail_a * weighted[0] + tail_b * weighted[1])


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
    return 1j * s * np.asarray(model.c(_grid_points(n))) * ifft2(mag * fft2(u0))


def wave_energy(u: np.ndarray, v: np.ndarray, model: VelocityModel) -> float:
    """E = 1/2 sum(|v|^2 / c^2 + |grad u|^2), conserved by the wave flow."""
    n = u.shape[-1]
    q1, q2, _ = _grids(n)
    c2 = np.asarray(model.c(_grid_points(n))) ** 2
    spec = fft2(u)
    gx = ifft2(2j * np.pi * q1 * spec)
    gy = ifft2(2j * np.pi * q2 * spec)
    kinetic = float(np.sum(np.abs(v) ** 2 / c2))
    potential = float(np.sum(np.abs(gx) ** 2 + np.abs(gy) ** 2))
    return 0.5 * (kinetic + potential)


@dataclass
class PsidoSymbol:
    """Separable order-0 symbol sigma(x, xi) = sum_q a_q(x) b_q(xi): each term holds
    the Fourier coefficients {(m1, m2): a_m} of a_q(x) = sum_m a_m exp(2 pi i m.x),
    integer m (or None for 1), and an N x N frequency factor in fft layout (or None for 1)."""

    terms: list[tuple[dict[tuple[int, int], complex] | None, np.ndarray | None]]

    @classmethod
    def multiplier(cls, b: np.ndarray) -> PsidoSymbol:
        return cls([(None, np.asarray(b))])

    @classmethod
    def spatial(cls, coefficients: dict[tuple[int, int], complex]) -> PsidoSymbol:
        return cls([(dict(coefficients), None)])

    @classmethod
    def identity(cls) -> PsidoSymbol:
        return cls([(None, None)])


def apply_psido(f: np.ndarray, symbol: PsidoSymbol) -> np.ndarray:
    """sum_q a_q(x) IFFT(b_q FFT(f)); exact for separable symbols."""
    if not isinstance(symbol, PsidoSymbol):
        raise TypeError("apply_psido accepts separable PsidoSymbol specs only")
    return ifft2(_psido_spectrum(symbol, fft2(np.asarray(f, dtype=np.complex128))), overwrite_x=True)


def _psido_spectrum(symbol: PsidoSymbol, spectrum: np.ndarray) -> np.ndarray:
    """The ortho fft2 of ``apply_psido``'s output from the input's spectrum (..., N, N): as
    exp(2 pi i m.x) shifts a spectrum by m mod N, each a_m adds a_m b_q spectrum so shifted."""
    n = spectrum.shape[-1]
    out, work = np.zeros(spectrum.shape, dtype=np.complex128), np.empty_like(spectrum)  # np.zeros: no memset
    for a, b in symbol.terms:
        g = spectrum if b is None else spectrum * b
        for m, a_m in ({(0, 0): 1.0} if a is None else a).items():
            s1, s2 = (int(v) % n for v in m)
            h = g if a_m == 1 else np.multiply(g, a_m, out=work)
            for to1, from1 in ((slice(s1, None), slice(None, n - s1)), (slice(None, s1), slice(n - s1, None))):
                for to2, from2 in ((slice(s2, None), slice(None, n - s2)), (slice(None, s2), slice(n - s2, None))):
                    out[..., to1, to2] += h[..., from1, from2]
    return out


@dataclass(frozen=True)
class WarpMap:
    """Smooth diffeomorphism of the torus with explicit inverse and Jacobian.

    Every kind is the volume-preserving wiggle x -> x + a sin(2 pi k.x) u
    with integer k and u = k_perp/|k|: sinusoidal(amplitude, wavevector)
    sets a and k, identity has a = 0, and shear(s) (a localized horizontal
    shear whose Jacobian at x2 = 1/2 is [[1, s], [0, 1]]) has a = s/2pi
    along k = (0, 1).
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
        wavevector = pair("sinusoidal warp map wavevector", wavevector, int)
        return cls(kind="sinusoidal", amplitude=float(amplitude), wavevector=wavevector)

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown warp kind {self.kind!r}")
        if tuple(self.wavevector) == (0, 0):
            raise ValueError("wavevector must be nonzero")
        if not all(float(v).is_integer() for v in self.wavevector):
            raise ValueError(f"wavevector must be integer; got {self.wavevector!r}")

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
        jac = self.jacobian(x)
        det = jac[..., 0, 0] * jac[..., 1, 1] - jac[..., 0, 1] * jac[..., 1, 0]
        if not 0.5 <= det.min() <= det.max() <= 2.0:
            raise ValueError(f"warp determinant out of [0.5, 2]: [{det.min():.3f}, {det.max():.3f}]")

    def to_json(self) -> dict:
        return spec_json(self, self._KEYS[self.kind])

    @classmethod
    def from_json(cls, spec: dict) -> WarpMap:
        kind = checked_kind("warp map", spec, cls._KEYS, default="identity")
        if kind == "identity":
            return cls.identity()
        where = f"{kind} warp map"
        if kind == "shear":
            return cls.shear(number(f"{where} s", required(where, spec, "s")))
        amplitude = number(f"{where} amplitude", required(where, spec, "amplitude"))
        return cls.sinusoidal(amplitude, spec.get("wavevector", (1, 0)))


def _jacobi_anger_order(z_max: float) -> tuple[int, float]:
    """The least M with 2 sum_{m>M} (Z/2)^m/m! <= JACOBI_ANGER_TAIL for
    Z = ``z_max``, and that sum: it bounds sum_{|m|>M} max |J_m(z)| over
    real |z| <= Z, as |J_m(z)| <= (|z|/2)^|m|/|m|!.

    The terms are summed in logs, from m = e Z/2 + 60 down; past that m
    each term is below 1/e of the one before, so the last term summed,
    counted once more, bounds all the terms past it.
    """
    x = 0.5 * z_max
    if x == 0:
        return 0, 0.0
    m = np.arange(1, int(math.e * x) + 61)
    log_terms = m * math.log(x) - gammaln(m + 1)
    log_tails = np.logaddexp.accumulate(np.append(log_terms, log_terms[-1])[::-1])[::-1]
    order = int(np.argmax(log_tails <= math.log(0.5 * JACOBI_ANGER_TAIL)))
    return order, 2.0 * math.exp(log_tails[order])


def warp_spectrum(n: int, support: np.ndarray, values: np.ndarray, warp: WarpMap) -> tuple[np.ndarray, float]:
    """(spectrum, error): the ortho fft2 of f(phi(x)) on the N x N grid, for
    the f whose spectrum is ``values`` at the flat positions ``support``
    (zero elsewhere), and a bound on the grid l2 error of that spectrum.

    phi is x + a sin(2 pi k.x) u with u = k_perp/|k|, so by Jacobi-Anger
    f(phi(x)) = sum_m sum_q f^(q) J_m(z_q) exp(2 pi i (q + m k).x), with
    z_q = 2 pi a q.k_perp/|k|.  On the grid, order m moves every support
    point by the same shift m k (mod N), which sends no two points to one
    place, so one indexed add places each order.  z_q depends on q only
    through the integer q.k_perp, so J_m is evaluated once per value of
    it.  Orders |m| > M are dropped (``_jacobi_anger_order`` of max
    |z_q|): each is a unitary shift of a multiplier bounded by max |J_m|,
    so the error is at most that tail bound times ||values||_2.
    O(M * support) work.  ``phi`` is validated first, as for every warp.
    """
    warp.validate(min(n, 64))
    a, k, _ = warp._wiggle()
    k1, k2 = (int(v) for v in k)
    s1, s2 = np.divmod(support, n)
    lines, line_of = np.unique(_signed(s2, n) * k1 - _signed(s1, n) * k2, return_inverse=True)
    z = (2 * np.pi * a / math.hypot(k1, k2)) * lines
    order, tail = _jacobi_anger_order(float(np.max(np.abs(z))))
    bessel = jv(np.arange(-order, order + 1)[:, None], z)
    out = np.zeros(n * n, dtype=np.complex128)
    for m, j_m in zip(range(-order, order + 1), bessel):
        out[(s1 + m * k1) % n * n + (s2 + m * k2) % n] += j_m[line_of] * values
    return out.reshape(n, n), tail * float(np.linalg.norm(values))


def _eval_fourier_at_points(spec: np.ndarray, y1: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """Evaluate the trig interpolant with unitary-FFT coefficients at points.

    Grid frequencies at scattered points: the N x N frequencies form a
    tensor grid, so a chunk of points contracts the q2 axis in one matrix
    product and then the q1 axis, O(N^2) per point, O(N^4) on a whole
    grid.  No library code calls it: it is the tests' direct-sum
    reference for ``warp_spectrum``, and the benchmark's tracer
    (``perfbench/tracer.py``) looks it up by name.
    ``flow._scattered_trig_sum`` is the transpose case (scattered
    frequencies on the tensor sample grid) and factors over grid rows.
    """
    n = spec.shape[-1]
    q = _signed(np.arange(n), n)
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
    w, values = atom_spectrum(table, mu)
    if w.kind != "directional":
        raise ValueError("hyper curvelets require a directional index")
    spec = np.zeros((table.n, table.n), dtype=np.complex128)
    spec.flat[w.support] = values / math.sqrt(w.atom_norm2)
    if mode == "pointwise":
        r = acoustic_polarization(table.n, branch)
    elif mode == "center":
        e = np.asarray(table.xi_center(mu), dtype=float)
        e = e / np.hypot(*e)
        r = _polarization(*(np.broadcast_to(x, spec.shape) for x in e), branch)
    else:
        raise ValueError(f"unknown hyper-curvelet mode {mode!r}")
    return ifft2(r * spec[None, :, :])


def _read_sign(text) -> int:
    if text not in ("+", "-"):
        raise ValueError(f"operator sign must be + or -; got {text!r}")
    return 1 if text == "+" else -1


@dataclass(frozen=True)
class OperatorSpec:
    """Declarative operator description with an ``apply``; its fields are
    its JSON keys.

    Kinds: identity, halfwave, cos-wave, acoustic, variable-wave,
    gaussian-smooth, psido, warp.  ``variable-wave`` propagates one-way
    initial data (v0 = sign i c |D| u0) by ``chebyshev_wave`` on the grid;
    every other kind acts on the spectrum in ``apply_spectrum``: acoustic
    as R diag(exp(-i t lambda)) R* per frequency (lambda 0, +-|xi|), a warp
    as f(phi(x)) in O(M N^2) work by ``warp_spectrum``.  A psido spec names
    one of ``SYMBOL_IDS``; ``apply_psido`` takes any other symbol.
    """

    kind: str
    t: float = 0.0
    sign: int = 1
    c0: float = 1.0
    width: float = 0.0
    model: VelocityModel | None = None
    symbol: str = "one"
    map: WarpMap = field(default_factory=WarpMap.identity)

    # JSON keys each kind reads and writes besides "kind"
    _KEYS = {
        "identity": (),
        "halfwave": ("t", "sign", "c0"),
        "cos-wave": ("t", "c0"),
        "acoustic": ("t",),
        "variable-wave": ("t", "sign", "model"),
        "gaussian-smooth": ("width",),
        "psido": ("symbol",),
        "warp": ("map",),
    }
    # how ``from_json`` reads each key that is not a number
    _READ = {"sign": _read_sign, "symbol": str, "model": VelocityModel.from_json, "map": WarpMap.from_json}

    def __post_init__(self):
        if self.kind not in self._KEYS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"operator sign must be + or -; got {self.sign!r}")
        if self.symbol not in SYMBOL_IDS:
            raise ValueError(f"unknown symbol id {self.symbol!r}; known: {', '.join(SYMBOL_IDS)}")
        if self.kind == "gaussian-smooth" and self.width <= 0:
            raise ValueError("smoothing width must be positive")

    @property
    def is_vector(self) -> bool:
        return self.kind == "acoustic"

    @property
    def speed(self) -> VelocityModel:
        """The wave speed: ``model``, or the constant c0 when it is unset."""
        return self.model or VelocityModel.constant(self.c0)

    def apply(self, f: np.ndarray) -> tuple[np.ndarray, float]:
        """(output, error): the operator applied to ``f``, and a bound on the
        grid l2 distance from that output to the exact operator's: the
        discarded Chebyshev tail of ``variable-wave``, the discarded
        Jacobi-Anger tail of ``warp`` (0.0 for the identity map), 0.0 for
        the kinds applied exactly (to rounding)."""
        if self.kind == "identity":
            return np.array(f, dtype=np.complex128, copy=True), 0.0
        if self.kind == "variable-wave":
            return chebyshev_wave(f, oneway_velocity(f, self.speed, self.sign), self.speed, self.t)
        f = np.asarray(f, dtype=np.complex128)
        n = f.shape[-1]
        spectrum, error = self.apply_spectrum(n, np.arange(n * n), fft2(f).reshape(f.shape[:-2] + (n * n,)))
        return ifft2(spectrum, overwrite_x=True), error  # the spectrum is apply_spectrum's own

    def apply_spectrum(self, n: int, support: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, float]:
        """(spectrum, error): the ortho fft2 of the operator applied to the
        fields whose spectra are ``values``, shape (..., K), (3, K) for
        acoustic or (K,) for a warp, at the flat positions ``support`` of
        the N x N grid (zero elsewhere), and the error bound of
        :meth:`apply`.  A multiplier scales ``values``, the acoustic symbol
        sum_b exp(-i t lambda_b) r_b r_b^T mixes their components and a warp
        moves them, at the support's cost; a psido adds shifted copies of
        the spectrum; variable-wave alone acts through :meth:`apply`."""
        if self.kind == "warp":
            if values.ndim != 1:
                raise ValueError(f"a warp acts on one field: values must have shape (K,); got {values.shape}")
            return warp_spectrum(n, support, values, self.map)
        if self.kind not in {"psido", "variable-wave"}:  # a symbol at the signed frequencies of the support
            q = _signed(np.arange(n), n)
            q1, q2 = (q.take(i) for i in np.divmod(support, n))
            if self.kind == "acoustic":
                mag = _magnitude(q1, q2)
                phase = np.exp(-1j * self.t * mag)  # branch +; branch - has its conjugate, branch 0 has 1
                acted = np.zeros(values.shape, dtype=np.complex128)
                for p, (r, proj) in zip((phase, phase.conj(), None), _projections(q1, q2, mag, values)):
                    acted += r * (proj if p is None else p * proj)
                values = acted
            else:  # np.multiply, not ``*``: NumPy may evaluate ``x * <temporary>`` in the temporary,
                values = np.multiply(values, self.multiplier(q1, q2))  # operands swapped, and x*y, y*x differ in bits
        spectrum = np.zeros(values.shape[:-1] + (n * n,), dtype=np.complex128)
        for row, row_values in zip(spectrum.reshape(-1, n * n), values.reshape(-1, values.shape[-1])):
            row[support] = row_values  # row by row: faster than one fancy assignment over a stack
        spectrum = spectrum.reshape(values.shape[:-1] + (n, n))
        if self.kind == "psido":
            return _psido_spectrum(named_symbol(self.symbol, n), spectrum), 0.0
        if self.kind != "variable-wave":
            return spectrum, 0.0
        out, error = self.apply(ifft2(spectrum))
        return fft2(out), error

    def multiplier(self, q1, q2) -> np.ndarray | None:
        """The symbol of a scalar Fourier-multiplier kind (identity, halfwave,
        cos-wave with zero initial velocity, gaussian-smooth) at integer grid
        frequencies (q1, q2), the factor ``apply_spectrum`` puts on the
        spectrum there; None for the other kinds."""
        k = self.kind
        if k not in {"identity", "halfwave", "cos-wave", "gaussian-smooth"}:
            return None
        mag = _magnitude(q1, q2)
        if k == "identity":
            return np.ones(mag.shape)
        if k == "halfwave":
            return np.exp(1j * self.sign * self.c0 * self.t * mag)
        if k == "cos-wave":
            return np.cos(self.c0 * mag * self.t)
        return np.exp(-(self.width**2) * mag**2)

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
        return spec_json(self, self._KEYS[self.kind], sign="+" if self.sign > 0 else "-", model=self.speed)

    @classmethod
    def from_json(cls, spec: dict) -> OperatorSpec:
        kind = checked_kind("operator", spec, cls._KEYS)
        if kind == "gaussian-smooth":
            required("gaussian-smooth operator", spec, "width")
        return cls(kind=kind, **{
            key: cls._READ[key](spec[key]) if key in cls._READ else number(f"{kind} operator {key}", spec[key])
            for key in cls._KEYS[kind] if key in spec
        })


SYMBOL_IDS = ("one", "space-sine", "freq-lowpass", "mixed")


@lru_cache(maxsize=8)
def named_symbol(name: str, n: int) -> PsidoSymbol:
    """Built-in separable order-0 symbols (``SYMBOL_IDS``) on an N x N grid,
    cached so a psido spec applied column by column builds its symbol once."""
    if name == "one":
        return PsidoSymbol.identity()
    if name == "space-sine":
        return PsidoSymbol.spatial({(0, 0): 1.0, (1, 0): -0.25j, (-1, 0): 0.25j})  # 1 + 0.5 sin(2 pi x1)
    lowpass = np.exp(-((_grids(n)[2] / (2 * np.pi)) / (n / 8.0)) ** 2)
    if name == "freq-lowpass":
        return PsidoSymbol.multiplier(lowpass)
    if name == "mixed":  # 1 + 0.3 sin(2 pi x1), and 0.2 cos(2 pi x2) times the low-pass
        return PsidoSymbol([({(0, 0): 1.0, (1, 0): -0.15j, (-1, 0): 0.15j}, None),
                            ({(0, 1): 0.1, (0, -1): 0.1}, lowpass)])
    raise ValueError(f"unknown symbol id {name!r}")
