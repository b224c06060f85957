"""Curvelet matrices of operators and their sparsity/organization metrics.

A matrix column is analyze(op(phi_mu')) thresholded at a fraction of its
norm, built in frequency space: ``OperatorSpec.apply_spectrum`` maps the
atom's spectrum on its wedge's support to the output's, and
``analyze_spectrum`` inverse-transforms only the wedges it reaches.  A
multiplier or the acoustic system keeps the atom's support, and a warp or
a psido adds a few shifted copies of it; variable-wave alone is applied
on the grid.

``SparseOperatorMatrix.write_csv`` writes the matrix as an index-row CSV
(``formats``) and, next to it, a sidecar ``<csv>.npz``: the frame, the
operator, the CSV's SHA-256, each column's pre-threshold energy, threshold
and solver error, and the columns' arrays.  ``read_csv`` reads the matrix
from the sidecar alone, refusing a missing one and one written for another
frame, operator or CSV; the CSV's text is never parsed.

Reports quantify sorted-entry decay (fitted power), l^p quasi-norms, and
concentration of energy in omega-balls around the Hamiltonian-flowed
column index (minimized over flow branches, matching the shifted-diagonal
organization of the curvelet matrix).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csc_array

from . import formats
from ._core import __version__, checked, number, text
from .distance import omega
from .flow import VelocityModel, flow_index
from .frame import CurveletIndex, FrameTable, analyze_spectrum, atom_spectrum
from .propagators import BRANCHES, OperatorSpec, _fractions, _hyper_spectrum

__all__ = [
    "MatrixColumn",
    "SparseOperatorMatrix",
    "DecayReport",
    "curvelet_column",
    "build_matrix",
    "decay_report",
    "truncation_error",
    "polarization_split",
    "sidecar_path",
]

DEFAULT_THRESHOLD = 1e-7
BALL_RADII = np.geomspace(1.0, 64.0, 25)  # omega-ball radii of decay_report's concentration curve


@dataclass
class MatrixColumn:
    """Thresholded column E(.; mu', nu') with bookkeeping for reports."""

    col_index: CurveletIndex
    col_component: int
    rows_flat: np.ndarray  # packed coefficient positions
    row_component: np.ndarray  # component nu per entry (0 for scalar ops)
    values: np.ndarray
    energy: float  # pre-threshold column energy
    threshold: float
    solver_error: float = 0.0  # the stated error of OperatorSpec.apply over the column norm

    @property
    def nnz(self) -> int:
        return len(self.values)

    def kept_energy(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2))


def curvelet_column(
    table: FrameTable,
    op: OperatorSpec,
    mu: CurveletIndex,
    component: int = 0,
    threshold: float = DEFAULT_THRESHOLD,
) -> MatrixColumn:
    """One curvelet-matrix column: ``analyze_spectrum`` of
    ``op.apply_spectrum`` of phi_mu's spectrum on its wedge's support.

    For vector operators the input is the vector curvelet e_component *
    phi_mu and every output component is analyzed.  ``threshold`` is
    relative to the column norm; entries below it are dropped.  The
    operator's stated error bound is recorded on the same scale.

    Raises:
        ValueError: on a threshold that is not a positive finite number, a
            nonzero component of a scalar operator, or a component of a
            vector operator other than 0, 1 or 2.
    """
    if not (math.isfinite(threshold) and threshold > 0):
        raise ValueError(f"threshold must be a positive finite number; got {threshold!r}")
    if component != 0 and not op.is_vector:
        raise ValueError("scalar operators have a single component 0")
    w, values = atom_spectrum(table, mu)
    values = _vector_curvelet(values, component) if op.is_vector else values
    spectrum, error = op.apply_spectrum(table.n, w.support, values)
    coeffs = analyze_spectrum(table, spectrum)
    energy = coeffs.norm2()
    cut = threshold * math.sqrt(energy) if energy > 0 else threshold
    flat = coeffs.packed.ravel()  # the packed components in turn
    keep = np.flatnonzero(np.abs(flat) >= cut)
    row_nu, rows = np.divmod(keep, table.size)
    error = error / math.sqrt(energy) if energy > 0 else 0.0
    return MatrixColumn(mu, component, rows, row_nu, flat[keep], float(energy), float(cut), error)


def _vector_curvelet(scalar: np.ndarray, component: int) -> np.ndarray:
    """e_component * scalar for an atom or its spectrum; ValueError unless component is 0, 1 or 2."""
    if not 0 <= component < 3:
        raise ValueError(f"vector curvelets have components 0, 1 and 2; got {component!r}")
    u = np.zeros((3,) + scalar.shape, dtype=np.complex128)
    u[component] = scalar
    return u


@dataclass
class SparseOperatorMatrix:
    """Sampled thresholded curvelet matrix of one operator at one time."""

    table: FrameTable
    op: OperatorSpec
    columns: list[MatrixColumn] = field(default_factory=list)

    @property
    def t(self) -> float:
        return self.op.t

    def total_entries(self) -> int:
        return sum(c.nnz for c in self.columns)

    def write_csv(self, path) -> None:
        """One formats.MATRIX_HEADER row per entry, column by column; only
        the column being written has its rows decoded.  Each column goes out
        as runs of rows that share a wedge and a component, so the row's j,
        ell and nu and the five column cells are formatted once per run.

        Then the sidecar ``<path>.npz`` (:func:`sidecar_path`): a JSON
        manifest (package version, frame parameters, operator, the CSV's
        SHA-256, and each column's index, component, energy, threshold and
        solver error) and the columns' rows, row components and values, each
        concatenated over the columns and written column by column, with each
        column's start.  A sidecar left by an earlier file is removed first."""

        def parts():
            for c in self.columns:
                key = (c.col_index.j, c.col_index.ell, c.col_index.k1, c.col_index.k2, c.col_component)
                j, ell, k1, k2 = self.table.index_of_flat(c.rows_flat)
                nu = c.row_component
                cuts = np.flatnonzero((j[1:] != j[:-1]) | (ell[1:] != ell[:-1]) | (nu[1:] != nu[:-1])) + 1
                bounds = [0, *cuts.tolist(), c.nnz] if c.nnz else []
                for a, b in zip(bounds, bounds[1:]):
                    yield (int(j[a]), int(ell[a]), k1[a:b], k2[a:b], int(nu[a]), *key), c.values[a:b]

        sidecar = sidecar_path(path)
        sidecar.unlink(missing_ok=True)
        digest = hashlib.sha256()
        formats.write_index_parts(path, formats.MATRIX_HEADER, parts(), digest)
        cols = self.columns
        manifest = {
            "version": __version__,
            "frame": asdict(self.table.params),
            "operator": self.op.to_json(),
            "csv_sha256": digest.hexdigest(),
            "columns": [
                {"index": [int(v) for v in astuple(c.col_index)], "component": int(c.col_component),
                 "energy": float(c.energy), "threshold": float(c.threshold), "solver_error": float(c.solver_error)}
                for c in cols
            ],
        }
        blob = np.frombuffer(json.dumps(manifest).encode(), dtype=np.uint8)
        n = self.total_entries()
        formats.write_npz_parts(sidecar, [
            ("manifest", np.uint8, len(blob), [blob]),
            ("starts", np.int64, len(cols) + 1, [np.cumsum([0] + [c.nnz for c in cols])]),
            ("rows", np.int64, n, (c.rows_flat for c in cols)),
            ("components", np.int64, n, (c.row_component for c in cols)),
            ("values", np.complex128, n, (c.values for c in cols)),
        ])

    @classmethod
    def read_csv(cls, table: FrameTable, op: OperatorSpec, path) -> SparseOperatorMatrix:
        """Matrix of a :meth:`write_csv` file, read from its sidecar
        (:func:`sidecar_path`): columns sorted by (j, ell, k1, k2, nu), each
        with its entries in file order and the energy, threshold and solver
        error written.

        FormatError on a CSV with no sidecar (naming it), a sidecar written
        for another frame or operator, or for a CSV whose bytes have changed
        since (saying what differs), a malformed sidecar, a nu the operator
        lacks (scalar: 0, acoustic: 0-2) or a column that holds one (row
        index, row component) twice; UnknownIndexError on a column index
        outside the frame; OSError when the CSV cannot be read."""
        sidecar = sidecar_path(path)
        if not sidecar.exists():
            raise formats.FormatError(f"{path}: its sidecar {sidecar} is missing; run matrix again to write both")
        arrays = formats.read_npz(sidecar, _SIDECAR_ARRAYS)
        try:
            manifest = checked("sidecar manifest", json.loads(arrays["manifest"].tobytes()), _SIDECAR_KEYS)
            records = [checked("sidecar column", c, _SIDECAR_COLUMN_KEYS) for c in manifest["columns"]]
            mus = [CurveletIndex(*(number("sidecar column index", v, int) for v in c["index"])) for c in records]
            comps = np.array([number("sidecar column component", c["component"], int) for c in records], np.int64)
            numbers = [[number(f"sidecar column {k}", c[k]) for k in ("energy", "threshold", "solver_error")]
                       for c in records]
            frame, spec = manifest["frame"], manifest["operator"]
            digest = text("sidecar csv_sha256", manifest["csv_sha256"])
        except (ValueError, TypeError, KeyError) as exc:
            raise formats.FormatError(f"{sidecar}: malformed manifest: {exc}") from None
        if frame != asdict(table.params):
            raise formats.FormatError(f"{path}: the matrix was built for frame {frame}, not {asdict(table.params)}")
        if spec != json.loads(json.dumps(op.to_json())):
            raise formats.FormatError(f"{path}: the matrix was built for operator {spec}, not {op.to_json()}")
        if formats.sha256_file(path) != digest:
            raise formats.FormatError(f"{path}: the CSV has changed since {sidecar} was written (SHA-256 differs)")
        starts, rows, row_nu, values = (arrays[k] for k in ("starts", "rows", "components", "values"))
        if not (len(starts) == len(mus) + 1 and starts[0] == 0 and np.all(np.diff(starts) >= 0)
                and starts[-1] == len(rows) == len(row_nu) == len(values)):
            raise formats.FormatError(f"{sidecar}: column starts {starts.tolist()} do not split "
                                      f"{len(rows)} rows, {len(row_nu)} components and {len(values)} values")
        if len(rows) and (rows.min() < 0 or rows.max() >= table.size):
            raise formats.FormatError(f"{sidecar}: packed position outside [0, {table.size})")
        for nu in (row_nu, comps):
            _check_components(nu, op, path)
        key = table.flat_of_index(np.array([astuple(mu) for mu in mus], np.int64).reshape(-1, 4).T) * 3 + comps
        order = np.argsort(key, kind="stable")
        if len(same := np.flatnonzero(np.diff(key[order]) == 0)):
            k = order[same[0]]
            raise formats.FormatError(f"{sidecar}: column {astuple(mus[k])}, nu = {comps[k]} is written twice")
        mat = cls(table=table, op=op)
        for k in order.tolist():
            span = slice(starts[k], starts[k + 1])
            mat.columns.append(MatrixColumn(mus[k], int(comps[k]), rows[span], row_nu[span], values[span], *numbers[k]))
            _refuse_repeats(table, mat.columns[-1], path)
        return mat


def sidecar_path(path) -> Path:
    """Where :meth:`SparseOperatorMatrix.write_csv` puts the sidecar of the CSV at ``path``."""
    return Path(f"{path}.npz")


_SIDECAR_ARRAYS = {"manifest": np.uint8, "starts": np.int64, "rows": np.int64, "components": np.int64,
                   "values": np.complex128}
_SIDECAR_KEYS = ("version", "frame", "operator", "csv_sha256", "columns")
_SIDECAR_COLUMN_KEYS = ("index", "component", "energy", "threshold", "solver_error")


def _check_components(nu: np.ndarray, op: OperatorSpec, path) -> None:
    """FormatError unless every nu is one the operator has (scalar: 0, acoustic: 0-2)."""
    if np.any((nu < 0) | (nu >= (3 if op.is_vector else 1))):
        raise formats.FormatError(f"{path}: nu must be {'0, 1 or 2' if op.is_vector else '0'} for {op.kind}")


def _refuse_repeats(table: FrameTable, col: MatrixColumn, path) -> None:
    """FormatError if the column holds one (row index, row component) twice."""
    key = col.row_component * table.size + col.rows_flat
    key.sort()
    same = np.flatnonzero(key[1:] == key[:-1])
    if len(same):
        nu, flat = divmod(int(key[same[0]]), table.size)
        row = tuple(int(a[0]) for a in table.index_of_flat(np.array([flat])))
        raise formats.FormatError(f"{path}: column {astuple(col.col_index)}, nu = {col.col_component} "
                                  f"holds row {row}, nu = {nu} twice")


_EXACT_FIT_RANKS = 2000


def _fit_sorted_decay(mags: np.ndarray, n_lo: int = 10, n_hi: int = 500) -> float:
    """Log-log slope of the sorted magnitudes |a|_(n) vs n (Theil-Sen).

    The slope is the median of the slopes between every two ranks, the
    same arithmetic as SciPy's theilslopes and equal to its slope bit
    for bit, without its confidence interval (Sen, JASA 63, 1968).
    Windows of up to 2,000 ranks are fitted exactly.  Wider windows are
    fitted at 2,000 evenly spaced ranks: every pair of ranks is built,
    which on a window of tens of thousands of ranks takes gigabytes.
    """
    mags = np.sort(mags)[::-1]
    hi = min(n_hi, len(mags))
    if hi <= n_lo + 3:
        return -math.inf
    idx = np.arange(n_lo, hi)
    if len(idx) > _EXACT_FIT_RANKS:
        idx = np.linspace(n_lo, hi - 1, _EXACT_FIT_RANKS).round().astype(np.int64)
    ranks = idx + 1.0
    vals = mags[idx]
    pos = vals > 0
    if pos.sum() < 4:
        return -math.inf
    x, y = np.log(ranks[pos]), np.log(vals[pos])
    dx = x[:, None] - x
    up = dx > 0
    return float(np.median((y[:, None] - y)[up] / dx[up]))


def _core_size(mags: np.ndarray, energy: float) -> int:
    """n95: the smallest number of largest entries holding 95% of ``energy``.

    95% is the share that ``radius_95`` uses to mark where a column's
    organized core ends.  Theorem 1.1 bounds the entries by C_N omega^-N
    with constants left open, so its decay speaks of the tail past that
    core, not of the leading ranks.

    Raises:
        ValueError: when all entries together hold less than 95% of ``energy``.
    """
    e2 = np.sort(np.abs(mags) ** 2)[::-1]
    n95 = int(np.searchsorted(np.cumsum(e2), 0.95 * energy)) + 1
    if n95 > len(e2):
        raise ValueError("the entries hold less than 95% of the column energy")
    return n95


def _guard_share(table: FrameTable, columns, budget: int) -> float:
    """Share of the residual energy, after keeping the ``budget`` largest
    entries of each column, that lies in rows of the guard channel (j = S)."""
    guard = total = 0.0
    for col in columns:
        drop = np.argsort(np.abs(col.values))[::-1][budget:]
        e2 = np.abs(col.values[drop]) ** 2
        j = table.index_of_flat(col.rows_flat[drop])[0]
        guard += float(e2[j == table.params.scales].sum())
        total += float(e2.sum())
    return guard / total


def column_omegas(table: FrameTable, col: MatrixColumn, model: VelocityModel, t: float) -> np.ndarray:
    """omega between each row index and the flowed column index, min over branches."""
    points = table.phase_points(col.rows_flat)
    dists = [omega(points, flow_index(table, col.col_index, model, b, t)[0]) for b in BRANCHES]
    return np.min(np.stack(dists), axis=0)


@dataclass
class ColumnReport:
    col: list
    nnz: int
    energy: float
    kept_energy: float
    threshold: float
    solver_error: float
    decay_slope: float
    lp_half: float
    lp_one: float
    largest_omega: float
    radius_95: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass
class DecayReport:
    """Aggregated sparsity/organization diagnostics of a sampled matrix."""

    columns: list[ColumnReport]
    ball_radii: list[float]
    concentration: list[float]  # mean energy fraction within each radius

    @property
    def median_slope(self) -> float:
        return float(np.median([c.decay_slope for c in self.columns]))

    def to_json(self) -> dict:
        return {
            "median_slope": self.median_slope,
            "ball_radii": list(self.ball_radii),
            "concentration": list(self.concentration),
            "columns": [c.to_json() for c in self.columns],
        }


def decay_report(matrix: SparseOperatorMatrix, model: VelocityModel | None = None) -> DecayReport:
    """Sorted-entry decay fits and omega-ball concentration for each column.

    Raises:
        ValueError: on an empty matrix.
    """
    if not matrix.columns:
        raise ValueError("decay report of an empty matrix")
    model = model or matrix.op.speed
    t = matrix.t
    table = matrix.table
    reports = []
    curves = []
    for col in matrix.columns:
        mags = np.abs(col.values)
        omegas = column_omegas(table, col, model, t)
        kept = col.kept_energy()
        e2 = mags**2
        inside = np.array([float(e2[omegas <= r].sum()) for r in BALL_RADII])
        frac = inside / col.energy if col.energy > 0 else inside
        curves.append(frac)
        idx95 = int(np.searchsorted(frac, 0.95))
        largest = float(omegas[np.argmax(mags)]) if col.nnz else math.inf
        reports.append(
            ColumnReport(
                col=[col.col_index.j, col.col_index.ell, col.col_index.k1, col.col_index.k2, col.col_component],
                nnz=col.nnz,
                energy=col.energy,
                kept_energy=kept,
                threshold=col.threshold,
                solver_error=col.solver_error,
                decay_slope=_fit_sorted_decay(mags),
                lp_half=float(np.sum(np.sqrt(mags))),
                lp_one=float(np.sum(mags)),
                largest_omega=largest,
                radius_95=float(BALL_RADII[idx95]) if idx95 < len(BALL_RADII) else math.inf,
            )
        )
    return DecayReport(
        columns=reports,
        ball_radii=BALL_RADII.tolist(),
        concentration=[float(v) for v in np.mean(np.stack(curves), axis=0)],
    )


def build_matrix(
    table: FrameTable,
    op: OperatorSpec,
    columns: list[CurveletIndex],
    components=None,
    threshold: float = DEFAULT_THRESHOLD,
) -> SparseOperatorMatrix:
    """Compute the sampled columns of the operator's curvelet matrix, one per
    (mu, nu) pair in request order; the FFTs are the one parallel level."""
    comps = list(components) if components is not None else ([0, 1, 2] if op.is_vector else [0])
    cols = [curvelet_column(table, op, mu, nu, threshold) for mu in columns for nu in comps]
    return SparseOperatorMatrix(table, op, cols)


def truncation_error(
    matrix: SparseOperatorMatrix,
    keep_per_column: int,
    mode: str = "largest",
    model: VelocityModel | None = None,
) -> float:
    """Spectral norm of A - A_B on the sampled columns.

    A_B keeps `keep_per_column` entries per column, either the largest in
    magnitude (mode "largest") or the nearest to the flowed column index
    in the pseudo-distance (mode "nearest").  The residual block R holds
    the dropped entries, one column per sampled column, in rows keyed by
    (component, packed position); the result is its largest singular
    value, sqrt of the top eigenvalue of the m x m Gram matrix R^H R,
    exact to rounding.  Keeping more entries zeroes more of R, which need
    not lower its spectral norm, so the error is not guaranteed to fall
    monotonically with the budget.
    """
    if keep_per_column < 1:
        raise ValueError("keep_per_column must be >= 1")
    cols = matrix.columns
    if not cols:
        raise ValueError("truncation error of an empty matrix")
    short = min(c.nnz for c in cols)
    if keep_per_column > short:
        raise ValueError(f"keep={keep_per_column} exceeds the column support ({short} entries)")
    if mode == "largest":
        orders = [np.argsort(np.abs(c.values))[::-1] for c in cols]
    elif mode == "nearest":
        model = model or matrix.op.speed
        orders = [np.argsort(column_omegas(matrix.table, c, model, matrix.t)) for c in cols]
    else:
        raise ValueError(f"unknown truncation mode {mode!r}")
    drops = [order[keep_per_column:] for order in orders]
    # row key (component, packed position): a scalar operator's rows span
    # one packed vector, which keeps the sparse product's row index short
    keys = np.concatenate([c.row_component[d] * matrix.table.size + c.rows_flat[d] for c, d in zip(cols, drops)])
    vals = np.concatenate([c.values[d] for c, d in zip(cols, drops)])
    starts = np.cumsum([0] + [len(d) for d in drops])
    block = csc_array((vals, keys, starts), shape=(int(keys.max(initial=0)) + 1, len(cols)))
    gram = (block.conj().T @ block).toarray()
    return math.sqrt(max(float(np.linalg.eigvalsh(gram)[-1]), 0.0))


def polarization_split(table: FrameTable, t: float, mu: CurveletIndex, component=None, hyper_mode: str | None = None):
    """Per-branch energy fractions of a propagated vector/hyper curvelet, read
    from the acoustic symbol's output on the atom's support, with no FFT.

    ``component`` selects the canonical vector curvelet e_nu phi_mu;
    ``hyper_mode`` ("pointwise" or "center") selects a hyper curvelet of
    the + branch instead.  Fractions sum to 1.
    """
    if (component is None) == (hyper_mode is None):
        raise ValueError("pass exactly one of component / hyper_mode")
    if hyper_mode is not None:
        w, values = _hyper_spectrum(table, mu, "+", hyper_mode)
    else:
        w, values = atom_spectrum(table, mu)
        values = _vector_curvelet(values, component)
    spectrum, _ = OperatorSpec(kind="acoustic", t=t).apply_spectrum(table.n, w.support, values)
    return _fractions(*w.freqs, spectrum.reshape(3, -1)[:, w.support])
