"""Digital curvelet tight frame on an N x N periodic grid.

The construction is wrapping-based: the FFT of a field is multiplied by
each wedge window, the wedge support is re-indexed (wrapped) onto a small
axis-aligned rectangle, and that rectangle is inverse-FFT'd.  Squared
windows tile the full frequency grid and the re-indexing is one-to-one,
so Parseval and reconstruction are exact up to float rounding.

Each rectangle follows from its wedge's support alone: its long side is
next_fast_len of the support's extent along the longer axis, its short
side next_fast_len of the widest fiber across it (capped at that axis's
extent).  The translation lattice is the rectangle's, so it is parabolic
(width ~ length^2) like the support.

Scale channels of an S-scale frame:

    j = 0        isotropic low-pass (coarse), square lattice
    j = 1..S-1   directional wedges, L_j = angles_base * 2^floor((j-1)/2)
                 orientations, peak radius rho_j = N * 2^(j-S-2)
    j = S        isotropic high-pass closing the tiling between the finest
                 annulus (outer edge N/4, one-octave anti-alias guard) and
                 the corners of the grid

Fields are N x N complex arrays sampled on [0,1)^2; frequencies are
integer grid frequencies in [-N/2, N/2).  All inner products are plain
discrete l2 (no grid weights).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as spfft
from scipy.sparse import csr_array

from ._core import fft2, ifft2, kernels
from .distance import PhasePoint
from .windows import WindowFamily, build_windows

__all__ = [
    "FrameParams",
    "CurveletIndex",
    "Wedge",
    "FrameTable",
    "CoeffSet",
    "MoleculeProfile",
    "build_frame",
    "analyze",
    "analyze_spectrum",
    "synthesize",
    "waveform",
    "atom_spectrum",
    "frame_atom",
    "molecule_profile",
]


class FrameError(ValueError):
    """Invalid frame parameters or mismatched inputs."""


class UnknownIndexError(FrameError):
    """Curvelet index not present in the frame."""


@dataclass(frozen=True)
class FrameParams:
    """Geometry of a digital curvelet frame.

    Attributes:
        n: grid size, a power of two >= 32.
        scales: number of scales S counting the coarse channel; the frame
            holds S-1 directional scales plus coarse and guard channels.
        angles_base: orientation count at the first directional scale,
            divisible by 4 (full-circle count; antipodal wedges are kept
            separate, the transform is complex-valued).
        smooth_step_order: window regularity parameter (C^(order-1)).
        transition: window crossover half-width in (0, 1/2].
    """

    n: int
    scales: int
    angles_base: int = 8
    smooth_step_order: int = 4
    transition: float = 0.5

    def validate(self) -> None:
        n, s = self.n, self.scales
        if n < 32 or (n & (n - 1)) != 0:
            raise FrameError(f"grid size must be a power of two >= 32, got {n}")
        if s < 1 or s > int(math.log2(n)) - 2:
            raise FrameError(f"scales must satisfy 1 <= S <= log2(N)-2, got S={s} for N={n}")
        if self.angles_base < 4 or self.angles_base % 4 != 0:
            raise FrameError(f"angles_base must be a positive multiple of 4, got {self.angles_base}")
        if self.smooth_step_order < 2:
            raise FrameError("smooth_step_order must be >= 2")
        if not 0.0 < self.transition <= 0.5:
            raise FrameError("transition must lie in (0, 1/2]")


@dataclass(frozen=True, order=True)
class CurveletIndex:
    """Frame subscript (j, ell, k1, k2); ell is 0 on isotropic channels."""

    j: int
    ell: int
    k1: int
    k2: int


@dataclass
class Wedge:
    """One (scale, angle) channel: its rectangle, its place in the packed
    coefficients, and rows offset .. offset + size of the table's wrapping
    matrix ``wrap``, which alone holds its window and wrapping: ``support``
    (flat (N, N) spectrum indices) and ``weights`` (window values there) are
    views of its arrays, in wrapped order, and ``wrapped`` (flat rectangle
    indices) and ``freqs`` (signed integer frequencies) are derived from it."""

    j: int
    ell: int
    kind: str  # "coarse" | "directional" | "guard"
    rho: float  # peak radius in grid frequencies (0 for coarse)
    theta: float  # orientation (nan for isotropic channels)
    rect: tuple[int, int]
    offset: int  # start of this channel in the packed coefficient vector
    atom_norm2: float
    wrap: csr_array | None = field(default=None, repr=False)
    support: np.ndarray | None = field(default=None, repr=False)
    weights: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self) -> int:
        return self.rect[0] * self.rect[1]

    @property
    def wrapped(self) -> np.ndarray:
        return np.flatnonzero(np.diff(self.wrap.indptr[self.offset : self.offset + self.size + 1]))

    @property
    def freqs(self) -> tuple[np.ndarray, np.ndarray]:
        n = math.isqrt(self.wrap.shape[1])
        return tuple(_signed(i, n) for i in np.divmod(self.support, n))


def _signed(i: np.ndarray, n: int) -> np.ndarray:
    """Signed integer frequencies of fft-layout indices; wedges stay clear of Nyquist."""
    return (i + n // 2) % n - n // 2


def _round_half_down(value: np.ndarray) -> np.ndarray:
    return np.ceil(value - 0.5).astype(np.int64)


def _column_extent(primary: np.ndarray, secondary: np.ndarray) -> int:
    """Largest secondary-coordinate spread over fibers of the primary
    coordinate (both nonnegative): one row of the support's bounding-box
    mask per fiber, its first and last points found by argmax."""
    mask = np.zeros((int(primary.max()) + 1, int(secondary.max()) + 1), dtype=bool)
    mask[primary, secondary] = True
    fibers = mask[mask.any(axis=1)]
    last = mask.shape[1] - 1 - np.argmax(fibers[:, ::-1], axis=1)
    return int(np.max(last - np.argmax(fibers, axis=1))) + 1


def _wrap_geometry(q1: np.ndarray, q2: np.ndarray):
    """Rectangle dims and wrapped positions for a wedge support.

    The support is a (possibly curved, sheared) strip of signed frequencies.
    Along its long axis the rectangle covers the full extent, so that
    coordinate is kept as is; across it the support is wrapped modulo a side
    at least as wide as its widest fiber, so two frequencies of one fiber
    never meet.  The map is therefore one-to-one by construction.  The long
    side needs no cap: N is a power of two, so next_fast_len(extent) <= N.
    Wrapping preserves w == q - min (mod side), so the atoms of one channel
    are exact lattice translates of each other.
    """
    lo = (int(q1.min()), int(q2.min()))
    ext = (int(q1.max()) - lo[0] + 1, int(q2.max()) - lo[1] + 1)
    sec = 0 if ext[0] <= ext[1] else 1
    prim = 1 - sec
    coords = (q1 - lo[0], q2 - lo[1])
    sides = [0, 0]
    sides[prim] = spfft.next_fast_len(ext[prim])
    sides[sec] = min(spfft.next_fast_len(_column_extent(coords[prim], coords[sec])), ext[sec])
    return (sides[0], sides[1]), coords[0] % sides[0] * sides[1] + coords[1] % sides[1]


def build_frame(params: FrameParams) -> FrameTable:
    """Precompute windows and wrapping geometry for a fixed grid.

    A directional wedge's window is evaluated only on its sector: the points
    of its scale's ring (where the radial window is nonzero) whose angle lies
    within the angular window's reach 2 pi (1/2 + transition) / L_j of the
    wedge's orientation.  Off it the product is exactly 0, so nothing is
    lost, and each ring is sorted by angle once to find the sectors.  The
    rings, and the low-pass, are found on the square around their disc, not
    on the whole grid.

    Raises:
        FrameError: on invalid parameters or (never in practice) a wrapping
            matrix with two entries in a row or a partition-of-unity
            defect above 1e-12.
    """
    params.validate()
    n, s_total = params.n, params.scales
    fam = build_windows(params.smooth_step_order, params.transition)

    q = _signed(np.arange(n), n)  # integer grid frequencies, fft layout
    radius = np.hypot(q[:, None], q[None, :]).ravel()

    def square(reach: float) -> np.ndarray:
        """Flat indices, ascending, of the points with |q1|, |q2| <= reach + 1
        (a grid step of margin against rounding at the disc's edge)."""
        near = np.flatnonzero(np.abs(q) <= reach + 1.0)
        return (near[:, None] * n + near).ravel()

    wedges: list[Wedge] = []
    entries = []  # per wedge: rows (packed positions), columns (spectrum positions), window values

    def add_channel(points: np.ndarray, vals: np.ndarray, j: int, ell: int, kind: str, rho: float, theta: float) -> None:
        keep = vals > 0.0  # vals: the window at the flat spectrum indices points (ascending), 0 at all others
        sup, w = points[keep], vals[keep]
        if sup.size == 0:
            return
        rect, wrapped = _wrap_geometry(*(_signed(i, n) for i in np.divmod(sup, n)))
        offset = wedges[-1].offset + wedges[-1].size if wedges else 0
        wedges.append(Wedge(j, ell, kind, rho, theta, rect, offset, float(w @ w) / (rect[0] * rect[1])))
        entries.append(((offset + wrapped).astype(np.int32), sup.astype(np.int32), w))

    grid = np.arange(n * n)
    if s_total == 1:
        # Degenerate single-scale frame: one all-pass isotropic channel.
        add_channel(grid, np.ones(n * n), 0, 0, "coarse", 0.0, math.nan)
    else:
        rho = [n * 2.0 ** (j - s_total - 2) for j in range(s_total)]  # rho[1..S-1] used
        g = params.transition
        disc = square(rho[1] * 2.0 ** (g - 0.5))  # the low-pass vanishes from radius rho_1 2^(g - 1/2) on
        add_channel(disc, fam.lowpass(radius[disc] / rho[1]), 0, 0, "coarse", 0.0, math.nan)
        for j in range(1, s_total):
            n_ang = params.angles_base * (1 << ((j - 1) // 2))
            disc = square(rho[j] * 2.0 ** (0.5 + g))  # the radial window vanishes from rho_j 2^(1/2 + g) on
            rad = fam.radial(radius[disc] / rho[j])
            ring, rad = disc[rad > 0.0], rad[rad > 0.0]
            angle = np.arctan2(q[ring % n], q[ring // n])
            order = np.argsort(angle)
            ring, rad, angle = ring[order], rad[order], angle[order]
            # the ring's angles over two turns, so a sector across +-pi is one slice;
            # half, the window's reach plus a rounding margin, is at most pi / 2 + 1e-9
            # (L_j >= 4), so a slice holds no point twice
            turns = np.concatenate([angle, angle + 2.0 * np.pi])
            half = 2.0 * np.pi * (0.5 + g) / n_ang + 1e-9
            for ell in range(n_ang):
                theta0 = 2.0 * np.pi * ell / n_ang
                start = np.mod(theta0 - half + np.pi, 2.0 * np.pi) - np.pi
                a, b = np.searchsorted(turns, [start, start + 2.0 * half])
                sector = np.arange(a, b) % ring.size
                sector = sector[np.argsort(ring[sector])]  # ascending spectrum positions
                dtheta = np.mod(angle[sector] - theta0 + np.pi, 2.0 * np.pi) - np.pi
                vals = rad[sector] * fam.angular(n_ang * dtheta / (2.0 * np.pi))
                add_channel(ring[sector], vals, j, ell, "directional", rho[j], theta0)
        add_channel(grid, fam.highpass(radius / rho[s_total - 1]), s_total, 0, "guard", n / 4.0, math.nan)

    size = wedges[-1].offset + wedges[-1].size
    rows, cols, weights = (np.concatenate(a) for a in zip(*entries))
    wrap = csr_array((weights, (rows, cols)), shape=(size, n * n))
    if np.max(np.diff(wrap.indptr)) > 1:
        raise FrameError("wrapping is not one-to-one")
    defect = float(np.max(np.abs(np.bincount(wrap.indices, wrap.data**2, minlength=n * n) - 1.0)))
    if defect > 1e-12:
        raise FrameError(f"window partition of unity defect {defect:.3e}")
    for w in wedges:
        span = slice(*wrap.indptr[[w.offset, w.offset + w.size]])
        w.wrap, w.support, w.weights = wrap, wrap.indices[span], wrap.data[span]
    return FrameTable(params=params, windows=fam, wedges=wedges, wrap=wrap, size=size, partition_defect=defect)


@dataclass
class FrameTable:
    """Immutable precomputed frame for one grid; share freely across threads.

    ``wrap``, the frame as one map from fft2 spectra to packed rectangles, is
    a sparse (size, N*N) matrix: row = packed position (wedge offset +
    wrapped position), column = spectrum position, value = window weight.
    Each row holds one entry at most and the squared windows sum to one, so
    wrap.T @ wrap = I.  Per-wedge arrays (offset, j, ell, rectangle, rho, xi
    center, directional flag) hold the packed layout; every mapping packed
    position <-> (j, ell, k1, k2) <-> phase-space center reads them.
    """

    params: FrameParams
    windows: WindowFamily
    wedges: list[Wedge]
    wrap: csr_array
    size: int
    partition_defect: float

    def __post_init__(self) -> None:
        ws = self.wedges
        self._offset, self._j, self._ell = (
            np.array([getattr(w, a) for w in ws], dtype=np.int64) for a in ("offset", "j", "ell")
        )
        self._rect = np.array([w.rect for w in ws], dtype=np.int64)
        self._rho = np.array([w.rho for w in ws])
        self._directional = np.array([w.kind == "directional" for w in ws])
        self._xi = np.array(
            [(w.rho * math.cos(w.theta), w.rho * math.sin(w.theta)) if d else (max(w.rho, 1.0), 0.0)
             for w, d in zip(ws, self._directional)]
        )
        self._stride = int(self._ell.max()) + 1  # wedges run in (j, ell) order: _keys is sorted
        self._keys = self._j * self._stride + self._ell

    @property
    def n(self) -> int:
        return self.params.n

    def wedge(self, j: int, ell: int = 0) -> Wedge:
        """The (j, ell) channel; UnknownIndexError if the frame has none."""
        return self.validate_index(CurveletIndex(j, ell, 0, 0))

    def angles(self, j: int) -> int:
        """Number of orientations L_j at scale j (1 on isotropic channels)."""
        self.wedge(j)
        return int(np.count_nonzero(self._j == j))

    def directional_scales(self) -> list[int]:
        return sorted({w.j for w in self.wedges if w.kind == "directional"})

    def validate_index(self, mu: CurveletIndex) -> Wedge:
        return self.wedges[int(self._locate(self.flat_of_index(mu))[0])]

    def center(self, mu: CurveletIndex) -> np.ndarray:
        """Spatial center x_mu in [0,1)^2."""
        return self.phase_point(mu).x

    def xi_center(self, mu: CurveletIndex) -> np.ndarray:
        """Frequency center xi_mu in grid-frequency units."""
        return self.phase_point(mu).xi

    def codirection(self, mu: CurveletIndex) -> np.ndarray:
        w = self.validate_index(mu)
        if w.kind != "directional":
            raise UnknownIndexError(f"index {mu} is not directional")
        return np.array([math.cos(w.theta), math.sin(w.theta)])

    def phase_point(self, mu: CurveletIndex):
        """Phase-space center of the index (isotropic channels are undirected)."""
        return self.phase_points(self.flat_of_index(mu))

    def phase_points(self, flat):
        """Stacked phase-space centers of packed positions: x_mu = (k1/r1, k2/r2)
        and the wedge's xi center (rho_j e_theta, or (max(rho, 1), 0) undirected)."""
        which, k1, k2 = self._locate(flat)
        x = np.stack([k1 / self._rect[which, 0], k2 / self._rect[which, 1]], axis=-1)
        return PhasePoint(x=x, xi=np.take(self._xi, which, axis=0), directional=self._directional[which])

    def nearest_index(self, point: PhasePoint) -> np.ndarray:
        """Packed positions of the directional indices nearest to phase points:
        the scale whose rho_j is nearest |xi| in log2 (the lower on a tie),
        then the angle nearest arg xi and the lattice point nearest x, each
        rounded half down so equidistant points resolve to the smaller index."""
        _, first, counts = np.unique(self._j[self._directional], return_index=True, return_counts=True)
        heads = np.flatnonzero(self._directional)[first]  # the ell = 0 wedge of each directional scale
        pick = np.argmin(np.abs(np.log2(self._rho[heads]) - point.scale_log2[..., None]), axis=-1)
        n_ang = counts[pick]
        ell = _round_half_down(np.mod(point.theta, 2.0 * np.pi) * n_ang / (2.0 * np.pi)) % n_ang
        which = heads[pick] + ell  # wedges run in (j, ell) order
        r1, r2 = self._rect[which, 0], self._rect[which, 1]
        k1 = _round_half_down(point.x[..., 0] * r1) % r1
        k2 = _round_half_down(point.x[..., 1] * r2) % r2
        return self._offset[which] + k1 * r2 + k2

    def index_of_flat(self, flat: np.ndarray):
        """Decode packed coefficient positions to (j, ell, k1, k2) arrays."""
        which, k1, k2 = self._locate(flat)
        return self._j[which], self._ell[which], k1, k2

    def _locate(self, flat):
        flat = np.asarray(flat, dtype=np.int64)
        if flat.size and (flat.min() < 0 or flat.max() >= self.size):
            raise UnknownIndexError(f"packed position outside [0, {self.size})")
        which = np.searchsorted(self._offset, flat, side="right") - 1
        return (which, *np.divmod(flat - self._offset[which], self._rect[which, 1]))

    def flat_of_index(self, mu):
        """Packed position of a CurveletIndex (an int) or of arrays (j, ell, k1, k2).

        Raises:
            UnknownIndexError: naming the first index whose (j, ell) is not a
                wedge or whose translation lies outside the wedge's lattice.
        """
        if isinstance(mu, CurveletIndex):
            return int(self.flat_of_index((mu.j, mu.ell, mu.k1, mu.k2)))
        j, ell, k1, k2 = idx = np.broadcast_arrays(*(np.asarray(a, dtype=np.int64) for a in mu))
        # a key search alone would let ell >= stride alias the next scale: check j and ell too
        which = np.minimum(np.searchsorted(self._keys, j * self._stride + ell), len(self._keys) - 1)
        r1, r2 = self._rect[which, 0], self._rect[which, 1]
        ok = (self._j[which] == j) & (self._ell[which] == ell) & (0 <= k1) & (k1 < r1) & (0 <= k2) & (k2 < r2)
        if not np.all(ok):
            i = np.argmin(np.ravel(ok))
            bad = tuple(int(a.ravel()[i]) for a in idx)
            raise UnknownIndexError(f"no index (j, ell, k1, k2) = {bad} in this frame (no such wedge, or k off its lattice)")
        return self._offset[which] + k1 * r2 + k2

    def random_index(self, rng: np.random.Generator, scales=None) -> CurveletIndex:
        """Uniform random directional index, optionally restricted to given scales."""
        pool = [w for w in self.wedges if w.kind == "directional"]
        if scales is not None:
            pool = [w for w in pool if w.j in set(scales)]
        if not pool:
            raise FrameError("no directional wedges in the requested scale range")
        w = pool[rng.integers(len(pool))]
        return CurveletIndex(w.j, w.ell, int(rng.integers(w.rect[0])), int(rng.integers(w.rect[1])))


class CoeffSet:
    """Curvelet coefficients of a field, or of a stack of fields: one packed
    complex array of shape (..., size) in the frame's layout.

    Supports mapping-style access by CurveletIndex and exact l2 accounting;
    produced by :func:`analyze`, consumed by :func:`synthesize`.
    """

    def __init__(self, table: FrameTable, packed: np.ndarray):
        if packed.shape[-1:] != (table.size,):
            raise FrameError(f"packed coefficients of shape {packed.shape} do not match the frame size {table.size}")
        self.table = table
        self.packed = packed

    @classmethod
    def zeros(cls, table: FrameTable) -> CoeffSet:
        return cls(table, np.zeros(table.size, dtype=np.complex128))

    @property
    def blocks(self) -> list[np.ndarray]:
        """Per-wedge (..., R1, R2) views of the packed array."""
        lead = self.packed.shape[:-1]
        return [self.packed[..., w.offset : w.offset + w.size].reshape(lead + w.rect) for w in self.table.wedges]

    def __getitem__(self, mu: CurveletIndex) -> complex:
        return complex(self.packed[..., self.table.flat_of_index(mu)])

    def __setitem__(self, mu: CurveletIndex, value) -> None:
        self.packed[..., self.table.flat_of_index(mu)] = value

    def pack(self) -> np.ndarray:
        """``packed`` itself; ``perfbench/workloads.py`` still calls this."""
        return self.packed

    def norm2(self, kinds=None) -> float:
        """Sum of squared moduli over the whole stack, optionally over channels of the given kinds."""
        if kinds is None:
            return float(np.vdot(self.packed, self.packed).real)
        return sum(float(np.vdot(b, b).real) for w, b in zip(self.table.wedges, self.blocks) if w.kind in kinds)


def _check_field(table: FrameTable, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f)
    if f.shape[-2:] != (table.n, table.n):
        raise FrameError(f"field shape {f.shape} does not match grid {table.n}")
    return f.astype(np.complex128, copy=False)


def analyze(table: FrameTable, f: np.ndarray) -> CoeffSet:
    """Frame coefficients of an (N, N) field or a (..., N, N) stack; exact
    Parseval per field: sum |c|^2 = sum |f|^2."""
    f = _check_field(table, f)
    return analyze_spectrum(table, fft2(f))


def analyze_spectrum(table: FrameTable, spectra: np.ndarray) -> CoeffSet:
    """Frame coefficients of the fields whose ortho fft2 is ``spectra``, an
    (N, N) spectrum or a (..., N, N) stack: the gather, then the inverse FFT
    of each wedge block.  A block that is exactly zero after the gather is
    left as it is (its inverse FFT is zero), so a spectrum that reaches a
    few wedges costs a few small FFTs."""
    lead, n = spectra.shape[:-2], table.n
    coeffs = CoeffSet(table, kernels.wedge_gather(table.wrap, spectra.reshape(-1, n * n)).reshape(lead + (table.size,)))
    # a nonzero first entry (a dense spectrum's) spares the scan
    _transform_blocks(ifft2, coeffs.blocks, lambda block: block.flat[0] or block.any())
    return coeffs


def _transform_blocks(transform, blocks: list[np.ndarray], wanted=lambda block: True) -> None:
    """Transform in place, one after another on the calling thread, each of
    the wedge ``blocks`` that ``wanted`` accepts.  Each FFT takes its workers
    from the thread rule of ``_core``: at N >= 256 the N x N guard block runs
    on every CPU, the small blocks on one.

    SciPy may write a block's result into the block itself; only when it did
    not is the result copied in, since assigning a block to itself makes
    NumPy copy through a temporary."""
    for block in blocks:
        if wanted(block):
            out = transform(block, overwrite_x=True)
            if not np.may_share_memory(out, block):
                block[...] = out


def synthesize(table: FrameTable, coeffs: CoeffSet) -> np.ndarray:
    """Adjoint of :func:`analyze`; synthesize(analyze(f)) reproduces f exactly.
    The FFT of every wedge block, in place as in :func:`analyze_spectrum`,
    then one scatter into a spectrum and its inverse FFT.  Coefficients of a
    frame with other parameters raise FrameError."""
    if coeffs.table.params != table.params:
        raise FrameError(f"coefficients of the frame {coeffs.table.params} do not fit the frame {table.params}")
    lead, n = coeffs.packed.shape[:-1], table.n
    rects = CoeffSet(table, np.array(coeffs.packed, dtype=np.complex128))  # the one copy: the caller's stays as it is
    _transform_blocks(fft2, rects.blocks)
    spectra = kernels.wedge_scatter(table.wrap, rects.packed.reshape(-1, table.size))
    return ifft2(spectra.reshape(lead + (n, n)), overwrite_x=True)


def atom_spectrum(table: FrameTable, mu: CurveletIndex) -> tuple[Wedge, np.ndarray]:
    """The wedge of mu and the ortho fft2 of phi_mu on ``wedge.support``
    (zero elsewhere): the window times the lattice phase of (k1, k2)."""
    w = table.validate_index(mu)
    i1, i2 = np.divmod(w.wrapped, w.rect[1])
    phase = np.exp(-2j * np.pi * (i1 * mu.k1 / w.rect[0] + i2 * mu.k2 / w.rect[1]))
    return w, w.weights * phase / math.sqrt(w.size)


def frame_atom(table: FrameTable, mu: CurveletIndex) -> np.ndarray:
    """The (unnormalized) frame element phi_mu = synthesize of a unit coefficient."""
    w, values = atom_spectrum(table, mu)
    spectrum = np.zeros((table.n, table.n), dtype=np.complex128)
    spectrum.flat[w.support] = values
    return ifft2(spectrum)


def waveform(table: FrameTable, mu: CurveletIndex) -> np.ndarray:
    """Unit-l2-normalized curvelet waveform at index mu."""
    w = table.validate_index(mu)
    return frame_atom(table, mu) / math.sqrt(w.atom_norm2)


@dataclass(frozen=True)
class MoleculeProfile:
    """Fitted spatial decay and low-frequency moment diagnostics of a waveform."""

    minor_decay: float
    major_decay: float
    moment_ratio: float
    is_molecule: bool


def _axis_decay(dist: np.ndarray, mag: np.ndarray, lo: float, hi: float) -> float:
    """Fitted decay exponent of the envelope max(mag) vs distance over [lo, hi]."""
    if hi <= 1.5 * lo:
        return 0.0  # not enough range to fit (very coarse scales)
    edges = np.geomspace(lo, hi, 14)
    xs, ys = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        m = (dist >= a) & (dist < b)
        if np.any(m):
            xs.append(math.sqrt(a * b))
            ys.append(float(np.max(mag[m])))
    xs, ys = np.array(xs), np.array(ys)
    keep = ys > 0
    if keep.sum() < 3:
        return 0.0
    slope = np.polyfit(np.log(xs[keep]), np.log(ys[keep]), 1)[0]
    return float(-slope)


def molecule_profile(table: FrameTable, f: np.ndarray, mu: CurveletIndex) -> MoleculeProfile:
    """Measure how curvelet-molecule-like a field is relative to index mu.

    Fits the envelope decay exponents along the rotated parabolic axes
    (minor = codirection, scaled by rho_j; major scaled by sqrt(rho_j))
    and the low-frequency moment ratio max |f^(xi)| / min(1, (1+|xi|)/rho_j)^2
    normalized by the spectral peak.

    Raises:
        FrameError: if the field is zero.
    """
    f = _check_field(table, f)
    w = table.validate_index(mu)
    peak = float(np.max(np.abs(f)))
    if peak == 0.0:
        raise FrameError("molecule profile of the zero field is undefined")
    n = table.n
    rho = max(w.rho, 1.0)
    if w.kind == "directional":
        e = np.array([math.cos(w.theta), math.sin(w.theta)])
    else:
        e = np.array([1.0, 0.0])
    x0 = table.center(mu)
    grid = np.arange(n) / n
    rel1 = np.mod(grid[:, None] - x0[0] + 0.5, 1.0) - 0.5
    rel2 = np.mod(grid[None, :] - x0[1] + 0.5, 1.0) - 0.5
    u_minor = np.abs(e[0] * rel1 + e[1] * rel2) * rho
    u_major = np.abs(-e[1] * rel1 + e[0] * rel2) * math.sqrt(rho)
    mag = np.abs(f) / peak

    span_minor = 0.35 * rho  # stay clear of the periodic image
    span_major = 0.35 * math.sqrt(rho)
    on_minor = u_major <= 1.0
    on_major = u_minor <= 1.0
    minor = _axis_decay(u_minor[on_minor], mag[on_minor], 2.0, max(span_minor, 4.0))
    major = _axis_decay(u_major[on_major], mag[on_major], 1.0, max(span_major, 2.0))

    q = _signed(np.arange(n), n)
    r = np.hypot(q[:, None], q[None, :])
    spec = np.abs(fft2(f))
    weight = np.minimum(1.0, (1.0 + r) / rho) ** 2
    moment_ratio = float(np.max(spec / weight) / np.max(spec))

    return MoleculeProfile(
        minor_decay=minor,
        major_decay=major,
        moment_ratio=moment_ratio,
        is_molecule=bool(minor > 1.0 and major > 1.0 and np.isfinite(moment_ratio)),
    )
