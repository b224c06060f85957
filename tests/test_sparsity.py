import math
import tracemalloc

import numpy as np
import pytest
import scipy.fft as spfft
from scipy.stats import theilslopes

import curvewave as cw
from curvewave import formats
from curvewave.frame import atom_spectrum
from curvewave.propagators import SYMBOL_IDS, named_symbol, warp_spectrum
from curvewave.sparsity import DEFAULT_THRESHOLD, MatrixColumn, _core_size, _fit_sorted_decay, sidecar_path

import pinned
from conftest import psido_on_grid, random_field


@pytest.fixture(scope="module")
def halfwave_op():
    return cw.OperatorSpec.from_json({"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0})


@pytest.fixture(scope="module")
def identity_op():
    return cw.OperatorSpec.from_json({"kind": "identity"})


def grid_reference(op, f):
    """An acoustic or psido operator applied on the whole grid: the projections
    sum_b exp(-i t b|xi|) (r_b . u_hat) r_b of a 3-component field, or
    ``psido_on_grid`` with the spec's named symbol."""
    n = f.shape[-1]
    if op.kind == "psido":
        return psido_on_grid(f, named_symbol(op.symbol, n))
    q = np.fft.fftfreq(n) * n
    mag = 2 * np.pi * np.hypot(q[:, None], q[None, :])
    spec = spfft.fft2(f, norm="ortho")
    out = np.zeros_like(spec)
    for branch in (1, -1, 0):
        r = cw.acoustic_polarization(n, branch)
        out += np.exp(-1j * op.t * branch * mag) * np.einsum("cij,cij->ij", r, spec) * r
    return spfft.ifft2(out, norm="ortho")


class TestColumns:
    def test_identity_column_is_gram(self, frame128, identity_op):
        mu = cw.CurveletIndex(3, 4, 2, 2)
        col = cw.curvelet_column(frame128, identity_op, mu)
        # diagonal entry equals the squared atom norm
        flat = frame128.flat_of_index(mu)
        i = np.flatnonzero(col.rows_flat == flat)[0]
        assert col.values[i] == pytest.approx(frame128.wedge(3, 4).atom_norm2, abs=1e-12)

    def test_halfwave_t0_equals_identity(self, frame128, identity_op):
        mu = cw.CurveletIndex(4, 1, 3, 3)
        op0 = cw.OperatorSpec.from_json({"kind": "halfwave", "sign": "+", "t": 0.0, "c0": 1.0})
        a = cw.curvelet_column(frame128, op0, mu)
        b = cw.curvelet_column(frame128, identity_op, mu)
        assert np.array_equal(np.sort(a.rows_flat), np.sort(b.rows_flat))
        assert a.kept_energy() == pytest.approx(b.kept_energy(), rel=1e-12)

    def test_column_energy_is_parseval(self, frame128, halfwave_op, rng):
        for _ in range(3):
            mu = frame128.random_index(rng)
            col = cw.curvelet_column(frame128, halfwave_op, mu)
            expected = frame128.wedge(mu.j, mu.ell).atom_norm2  # unitary operator
            assert col.energy == pytest.approx(expected, rel=1e-10)
            assert col.kept_energy() <= col.energy + 1e-15

    def test_dominant_entry_follows_flow(self, frame256, halfwave_op, rng):
        model = cw.VelocityModel.constant(1.0)
        branch = -halfwave_op.sign  # a one-way multiplier moves packets along the Hamiltonian branch -sign
        for _ in range(3):
            mu = frame256.random_index(rng, scales=[5])
            col = cw.curvelet_column(frame256, halfwave_op, mu)
            dom = col.rows_flat[np.argmax(np.abs(col.values))]
            j, ell, k1, k2 = frame256.index_of_flat(np.array([dom]))
            _, snapped = cw.flow_index(frame256, mu, model, branch, 0.25)
            assert (int(j[0]), int(ell[0])) == (snapped.j, snapped.ell)
            rect = frame256.wedge(snapped.j, snapped.ell).rect
            d1 = min((int(k1[0]) - snapped.k1) % rect[0], (snapped.k1 - int(k1[0])) % rect[0])
            d2 = min((int(k2[0]) - snapped.k2) % rect[1], (snapped.k2 - int(k2[0])) % rect[1])
            assert max(d1, d2) <= pinned.LATTICE_STEPS_MAX

    @pytest.mark.parametrize("threshold", [0.0, math.nan, math.inf])
    def test_threshold_validation(self, frame128, identity_op, threshold):
        with pytest.raises(ValueError):
            cw.curvelet_column(frame128, identity_op, cw.CurveletIndex(3, 0, 0, 0), threshold=threshold)

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "identity"},
            {"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0},
            {"kind": "halfwave", "sign": "-", "t": 0.25, "c0": 1.0},
            {"kind": "halfwave", "sign": "+", "t": -0.25, "c0": 1.3},
            {"kind": "cos-wave", "t": 0.25, "c0": 1.0},
            {"kind": "gaussian-smooth", "width": 0.005},
        ],
        ids=["identity", "halfwave+", "halfwave-", "halfwave-t", "cos-wave", "gaussian-smooth"],
    )
    @pytest.mark.parametrize("n", [64, 128])
    def test_multiplier_column_matches_grid_route(self, frame64, frame128, spec, n):
        # a multiplier column is built from the atom's spectrum times the symbol;
        # the reference applies the operator to the atom on the grid and analyzes it
        table = {64: frame64, 128: frame128}[n]
        op = cw.OperatorSpec.from_json(spec)
        rng = np.random.default_rng(n)
        scales = table.params.scales
        mus = [cw.CurveletIndex(0, 0, 1, 2), cw.CurveletIndex(scales, 0, 3, 5)]
        mus += [table.random_index(rng, [j]) for j in table.directional_scales()]
        for mu in mus:
            col = cw.curvelet_column(table, op, mu)
            ref = cw.analyze(table, op.apply(cw.frame_atom(table, mu))[0])
            energy = ref.norm2()
            rows = np.flatnonzero(np.abs(ref.packed) >= DEFAULT_THRESHOLD * math.sqrt(energy))
            assert np.array_equal(col.rows_flat, rows), mu
            assert np.max(np.abs(col.values - ref.packed[rows])) <= 1e-14 * math.sqrt(energy), mu
            assert abs(col.energy - energy) <= 1e-14 * energy, mu
            assert col.solver_error == 0.0

    @pytest.mark.parametrize("warp", [cw.WarpMap.shear(0.4), cw.WarpMap.sinusoidal(0.05, (1, 1))],
                             ids=["shear", "sinusoidal"])
    @pytest.mark.parametrize("n", [64, 128])
    def test_warp_column_matches_grid_route(self, frame64, frame128, monkeypatch, warp, n):
        # a warp column is built from the warped spectrum of the atom's; the reference
        # applies the warp to the atom on the grid and analyzes it
        table = {64: frame64, 128: frame128}[n]
        op = cw.OperatorSpec(kind="warp", map=warp)
        rng = np.random.default_rng(n + 1)
        scales = table.params.scales
        mus = [cw.CurveletIndex(0, 0, 1, 2), cw.CurveletIndex(scales, 0, 3, 5)]
        mus += [table.random_index(rng, [j]) for j in table.directional_scales()]
        refs = [cw.analyze(table, op.apply(cw.frame_atom(table, mu))[0]) for mu in mus]
        spectra = [atom_spectrum(table, mu) for mu in mus]
        errors = [warp_spectrum(n, w.support, values, warp)[1] for w, values in spectra]

        def grid_route(*args):
            raise AssertionError("a warp column went through the grid")

        monkeypatch.setattr(cw.OperatorSpec, "apply", grid_route)
        monkeypatch.setattr("curvewave.sparsity.frame_atom", grid_route, raising=False)
        for mu, ref, error in zip(mus, refs, errors):
            col = cw.curvelet_column(table, op, mu)
            energy = ref.norm2()
            rows = np.flatnonzero(np.abs(ref.packed) >= DEFAULT_THRESHOLD * math.sqrt(energy))
            assert np.array_equal(col.rows_flat, rows), mu
            assert np.max(np.abs(col.values - ref.packed[rows])) <= 1e-13 * math.sqrt(energy), mu
            assert abs(col.energy - energy) <= 1e-13 * energy, mu
            assert 0.0 < col.solver_error == error / math.sqrt(col.energy), mu

    @pytest.mark.parametrize(
        "spec, components",
        [({"kind": "psido", "symbol": symbol}, [0]) for symbol in SYMBOL_IDS]
        + [
            ({"kind": "variable-wave", "sign": "+", "t": 0.25,
              "model": {"kind": "sinusoidal", "amplitude": 0.2, "wavevector": [1, 0]}}, [0]),
            ({"kind": "acoustic", "t": 0.2}, [0, 1, 2]),
        ],
        ids=[f"psido-{symbol}" for symbol in SYMBOL_IDS] + ["variable-wave", "acoustic"],
    )
    def test_grid_column_matches_grid_route(self, frame64, monkeypatch, spec, components):
        # the column is the thresholded analysis of the operator applied to e_nu phi_mu
        # on the grid.  variable-wave acts there, so its column equals op.apply's bit for
        # bit; acoustic and psido act on the atom's spectrum and never reach the grid,
        # and match a grid reference kept here to rounding
        op = cw.OperatorSpec.from_json(spec)
        rng = np.random.default_rng(65)
        scales = frame64.params.scales
        mus = [cw.CurveletIndex(0, 0, 1, 2), cw.CurveletIndex(scales, 0, 3, 5)]
        mus += [frame64.random_index(rng, [j]) for j in frame64.directional_scales()]
        cases = [(mu, nu) for mu in mus for nu in components]
        atoms = [cw.frame_atom(frame64, mu) for mu, _ in cases]
        atoms = [np.stack([a if c == nu else np.zeros_like(a) for c in range(3)]) if op.is_vector else a
                 for a, (_, nu) in zip(atoms, cases)]
        if op.kind == "variable-wave":
            outs, tol = [op.apply(a) for a in atoms], 0.0
        else:
            outs, tol = [(grid_reference(op, a), 0.0) for a in atoms], 1e-13

            def grid_route(*args):
                raise AssertionError(f"a {op.kind} column went through the grid")

            monkeypatch.setattr(cw.OperatorSpec, "apply", grid_route)
            monkeypatch.setattr("curvewave.sparsity.frame_atom", grid_route, raising=False)
        for (mu, nu), (out, error) in zip(cases, outs):
            ref = cw.analyze(frame64, out)
            energy = ref.norm2()
            flat = ref.packed.ravel()
            keep = np.flatnonzero(np.abs(flat) >= DEFAULT_THRESHOLD * math.sqrt(energy))
            col = cw.curvelet_column(frame64, op, mu, nu)
            assert np.array_equal(col.rows_flat, keep % frame64.size), (mu, nu)
            assert np.array_equal(col.row_component, keep // frame64.size), (mu, nu)
            assert np.max(np.abs(col.values - flat[keep])) <= tol * math.sqrt(energy), (mu, nu)
            assert abs(col.energy - energy) <= tol * energy, (mu, nu)
            assert np.array_equal(col.solver_error, error / math.sqrt(energy)), (mu, nu)

    @pytest.mark.parametrize("component", [-1, 3])
    def test_vector_component_out_of_range(self, frame64, component):
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        mu = cw.CurveletIndex(2, 1, 1, 1)
        with pytest.raises(ValueError, match="components 0, 1 and 2"):
            cw.curvelet_column(frame64, op, mu, component=component)
        with pytest.raises(ValueError, match="components 0, 1 and 2"):
            cw.polarization_split(frame64, 0.2, mu, component=component)

    def test_scalar_operator_has_component_0_only(self, frame64, halfwave_op):
        with pytest.raises(ValueError, match="single component 0"):
            cw.curvelet_column(frame64, halfwave_op, cw.CurveletIndex(2, 1, 1, 1), component=1)

    def test_vector_column_components(self, frame64):
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        mu = cw.CurveletIndex(2, 1, 1, 1)
        col = cw.curvelet_column(frame64, op, mu, component=1)
        assert set(np.unique(col.row_component)).issubset({0, 1, 2})
        assert col.energy == pytest.approx(frame64.wedge(2, 1).atom_norm2, rel=1e-10)

    def test_inputs_unchanged(self, frame64, rng):
        # the transforms work in place only on buffers they own: read-only
        # inputs pass, and the frame's arrays keep every bit
        def frozen(a):
            a = np.array(a)
            a.flags.writeable = False
            return a

        table_bytes = [a.tobytes() for a in (frame64.wrap.data, frame64.wrap.indices, frame64.wrap.indptr)]
        fields = frozen(np.stack([random_field(rng, 64) for _ in range(2)]))
        before = fields.copy()
        for f in (fields[0], fields):
            coeffs = cw.analyze(frame64, f)
            packed = frozen(coeffs.packed)
            cw.synthesize(frame64, cw.CoeffSet(frame64, packed))
            assert np.array_equal(packed, coeffs.packed)
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        cw.chebyshev_wave(fields[0], fields[1], model, 0.1)
        assert np.array_equal(fields, before)
        specs = [{"kind": "halfwave", "t": 0.2}, {"kind": "acoustic", "t": 0.2}, {"kind": "psido", "symbol": "mixed"},
                 {"kind": "variable-wave", "t": 0.1, "model": {"kind": "sinusoidal", "amplitude": 0.2}}]
        for spec in specs:
            cw.curvelet_column(frame64, cw.OperatorSpec.from_json(spec), cw.CurveletIndex(2, 1, 1, 1))
        assert [a.tobytes() for a in (frame64.wrap.data, frame64.wrap.indices, frame64.wrap.indptr)] == table_bytes

    def test_adjoint_symmetry(self, frame64, rng):
        # matrix of op-dagger equals the conjugate transpose on sampled blocks
        op = cw.OperatorSpec.from_json({"kind": "halfwave", "sign": "+", "t": 0.2, "c0": 1.0})
        adj = op.adjoint()
        mu = frame64.random_index(rng, scales=[3])
        nu = frame64.random_index(rng, scales=[3])
        col_f = cw.curvelet_column(frame64, op, mu, threshold=1e-10)
        col_b = cw.curvelet_column(frame64, adj, nu, threshold=1e-10)
        flat_nu = frame64.flat_of_index(nu)
        flat_mu = frame64.flat_of_index(mu)
        a = col_f.values[col_f.rows_flat == flat_nu]
        b = col_b.values[col_b.rows_flat == flat_mu]
        va = complex(a[0]) if len(a) else 0.0
        vb = complex(b[0]) if len(b) else 0.0
        assert va == pytest.approx(np.conj(vb), abs=1e-10)


class TestDecayReport:
    def test_report_invariants(self, frame128, halfwave_op, rng):
        cols = [frame128.random_index(rng, scales=[3, 4]) for _ in range(4)]
        matrix = cw.build_matrix(frame128, halfwave_op, cols)
        report = cw.decay_report(matrix)
        conc = np.asarray(report.concentration)
        assert np.all(np.diff(conc) >= -1e-12)  # nondecreasing in the radius
        assert conc[-1] >= 0.99  # approaches 1
        for colrep in report.columns:
            assert colrep.kept_energy <= colrep.energy * (1 + 1e-12)
            assert colrep.nnz > 0
        payload = report.to_json()
        assert "concentration" in payload and len(payload["columns"]) == 4

    def test_empty_matrix_rejected(self, frame128, halfwave_op):
        with pytest.raises(ValueError):
            cw.decay_report(cw.SparseOperatorMatrix(table=frame128, op=halfwave_op))

    def test_sorted_magnitudes_nonincreasing(self, frame128, halfwave_op, rng):
        mu = frame128.random_index(rng, scales=[4])
        col = cw.curvelet_column(frame128, halfwave_op, mu)
        mags = np.sort(np.abs(col.values))[::-1]
        assert np.all(np.diff(mags) <= 0)

    def test_flow_diagonal_dominance(self, frame128, halfwave_op):
        model = cw.VelocityModel.constant(1.0)
        hits = 0
        for seed in range(20):
            mu = frame128.random_index(np.random.default_rng(100 + seed), scales=[4])
            col = cw.curvelet_column(frame128, halfwave_op, mu)
            omegas = cw.column_omegas(frame128, col, model, 0.25)
            if omegas[np.argmax(np.abs(col.values))] <= 8.0:
                hits += 1
        assert hits >= 18  # >= 90% of fine-scale columns

    def test_isotropic_column_stays_put(self, frame64, halfwave_op):
        # flow_index maps isotropic indices to themselves, so their omegas do not move with t
        model = cw.VelocityModel.constant(1.0)
        for j in (0, frame64.params.scales):
            col = cw.curvelet_column(frame64, halfwave_op, cw.CurveletIndex(j, 0, 1, 2))
            assert np.array_equal(cw.column_omegas(frame64, col, model, 0.25), cw.column_omegas(frame64, col, model, 0.0))

    def test_concentration_radius_single_digits(self, frame256, halfwave_op, rng):
        mu = frame256.random_index(rng, scales=[5])
        col = cw.curvelet_column(frame256, halfwave_op, mu)
        omegas = cw.column_omegas(frame256, col, cw.VelocityModel.constant(1.0), 0.25)
        e2 = np.abs(col.values) ** 2
        inside = float(e2[omegas <= pinned.ORGANIZATION_RADIUS].sum())
        assert inside >= 0.95 * col.energy


class TestTailWindow:
    """The criterion-5 check: sorted-entry slope <= -2 over ranks [n95, 50 n95]."""

    @staticmethod
    def steep_past_core(mags):
        n95 = _core_size(mags, float(np.sum(mags**2)))
        slope = _fit_sorted_decay(mags, n_lo=n95, n_hi=50 * n95)
        return bool(np.isfinite(slope) and slope <= -2.0)

    def test_n95_counts_largest_entries(self):
        mags = np.array([0.1, 3.0, 4.0, 0.2])  # energies 0.01, 9, 16, 0.04
        assert _core_size(mags, 25.05) == 2
        assert _core_size(mags, 16.8) == 1
        with pytest.raises(ValueError):
            _core_size(mags, 100.0)

    @pytest.mark.parametrize("power", [1.0, 1.9])
    @pytest.mark.parametrize("plateau", [1, 300])
    def test_power_laws_fail(self, power, plateau):
        n = np.arange(1, 200_001, dtype=float)
        mags = np.minimum(1.0, (n / plateau) ** -power)
        assert not self.steep_past_core(mags)

    @pytest.mark.parametrize("power, floor", [(1.0, 1e-2), (1.9, 1e-3)])
    def test_power_laws_cut_by_support_fail(self, power, floor):
        # Like the j = 4 columns, the support ends at a magnitude floor
        # before 50 n95, so the window is cut there.
        n = np.arange(1, 200_001, dtype=float)
        mags = np.minimum(1.0, (n / 300) ** -power)
        mags = mags[mags >= floor]
        assert 50 * _core_size(mags, float(np.sum(mags**2))) > len(mags)
        assert not self.steep_past_core(mags)

    def test_support_ending_at_the_core_is_not_steep(self):
        mags = np.ones(20)  # n95 = 19: one rank past the core, nothing to fit
        assert _core_size(mags, 20.0) == 19
        assert _fit_sorted_decay(mags, n_lo=19, n_hi=50 * 19) == -math.inf
        assert not self.steep_past_core(mags)

    def test_plateau_then_gaussian_tail_passes(self):
        n = np.arange(1, 20_001, dtype=float)
        mags = np.exp(-(np.maximum(n - 300.0, 0.0) / 100.0) ** 2)
        assert self.steep_past_core(mags)

    def test_fit_is_exact_up_to_2000_ranks(self, rng):
        mags = np.sort(rng.random(3000))[::-1]
        slope, *_ = theilslopes(np.log(mags[10:2010]), np.log(np.arange(11, 2011.0)))
        assert _fit_sorted_decay(mags, n_lo=10, n_hi=2010) == slope

    @pytest.mark.parametrize("size, zeros, n_lo, n_hi", [(3000, 0, 40, 2900), (1500, 300, 10, 2010), (8000, 3000, 10, 7000)])
    def test_fit_equals_theilslopes(self, rng, size, zeros, n_lo, n_hi):
        # scipy's Theil-Sen slope bit for bit, on windows wider than 2,000
        # ranks (fitted at 2,000 evenly spaced ranks) and past zero magnitudes
        mags = rng.random(size) ** 3
        mags[rng.choice(size, zeros, replace=False)] = 0.0
        hi = min(n_hi, size)
        ranks = np.arange(n_lo, hi)
        if ranks.size > 2000:
            ranks = np.linspace(n_lo, hi - 1, 2000).round().astype(np.int64)
        vals = np.sort(mags)[::-1][ranks]
        pos = vals > 0
        assert pos.all() == (zeros == 0)  # the zeros fall inside the window
        slope, *_ = theilslopes(np.log(vals[pos]), np.log(ranks[pos] + 1.0))
        assert _fit_sorted_decay(mags, n_lo=n_lo, n_hi=n_hi) == slope


class TestTruncation:
    def test_monotone_in_budget(self, frame128, halfwave_op, rng):
        cols = [frame128.random_index(rng, scales=[4]) for _ in range(4)]
        matrix = cw.build_matrix(frame128, halfwave_op, cols)
        e25 = cw.truncation_error(matrix, 25)
        e100 = cw.truncation_error(matrix, 100)
        assert e100 < e25

    def test_full_column_reaches_threshold_floor(self, frame128, halfwave_op, rng):
        mu = frame128.random_index(rng, scales=[3])
        matrix = cw.build_matrix(frame128, halfwave_op, [mu])
        full = max(c.nnz for c in matrix.columns)
        err = cw.truncation_error(matrix, full)
        # everything kept: only the thresholded tail remains
        floor = math.sqrt(max(c.energy - c.kept_energy() for c in matrix.columns))
        assert err <= max(floor, DEFAULT_THRESHOLD * math.sqrt(matrix.columns[0].energy))

    def test_budget_exceeding_support_rejected(self, frame128, halfwave_op, rng):
        mu = frame128.random_index(rng, scales=[2])
        matrix = cw.build_matrix(frame128, halfwave_op, [mu])
        with pytest.raises(ValueError):
            cw.truncation_error(matrix, matrix.columns[0].nnz + 1)

    @pytest.mark.parametrize("spec", [{"kind": "halfwave", "sign": "+", "t": 0.25}, {"kind": "acoustic", "t": 0.2}])
    def test_equals_dense_spectral_norm(self, frame64, rng, spec):
        op = cw.OperatorSpec.from_json(spec)
        cols = [frame64.random_index(rng, scales=[2, 3]) for _ in range(3)]
        matrix = cw.build_matrix(frame64, op, cols)
        for keep in (5, 40):
            dense = np.zeros((4 * frame64.size, len(matrix.columns)), dtype=np.complex128)
            for i, col in enumerate(matrix.columns):
                drop = np.argsort(np.abs(col.values))[::-1][keep:]
                dense[col.rows_flat[drop] * 4 + col.row_component[drop], i] = col.values[drop]
            expected = np.linalg.norm(dense, 2)
            assert abs(cw.truncation_error(matrix, keep) - expected) <= 1e-12 * expected

    def test_nearest_in_omega_mode(self, frame128, halfwave_op, rng):
        # keeping by pseudo-distance proximity tracks the magnitude ordering
        cols = [frame128.random_index(rng, scales=[4]) for _ in range(3)]
        matrix = cw.build_matrix(frame128, halfwave_op, cols)
        e_mag = cw.truncation_error(matrix, 100, mode="largest")
        e_near = cw.truncation_error(matrix, 100, mode="nearest")
        assert e_near >= e_mag  # magnitude ordering is optimal per budget
        assert e_near <= 3.0 * e_mag
        with pytest.raises(ValueError):
            cw.truncation_error(matrix, 10, mode="bogus")


class TestPolarizationSplit:
    def test_fractions_sum_to_one(self, frame128):
        mu = cw.CurveletIndex(4, 2, 1, 1)
        fractions = cw.polarization_split(frame128, 0.3, mu, component=2)
        assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-10)

    def test_vector_curvelet_splits(self, frame128):
        mu = cw.CurveletIndex(4, 2, 1, 1)
        fractions = cw.polarization_split(frame128, 0.3, mu, component=0)
        assert sorted(fractions.values(), reverse=True)[1] >= 0.05  # >= 2 branches carry energy

    def test_zero_branch_is_stationary(self, frame128, identity_op):
        # lambda = 0: the dominant matrix entry stays at mu for all t
        mu = cw.CurveletIndex(4, 5, 3, 3)
        atom3 = cw.hyper_curvelet(frame128, mu, "0", mode="pointwise")
        out = cw.OperatorSpec(kind="acoustic", t=0.4).apply(atom3)[0]
        assert np.max(np.abs(out - atom3)) <= 1e-12  # 0-branch data does not move
        fractions = cw.polarization_split(frame128, 0.4, mu, hyper_mode="pointwise")
        assert fractions[1] >= 1.0 - 1e-12

    @pytest.mark.parametrize("selector", [{"component": 0}, {"hyper_mode": "center"}])
    def test_fractions_do_not_depend_on_time(self, frame128, selector):
        # the constant-coefficient symbol multiplies each branch by a phase, so
        # each branch keeps its energy; mixing needs variable coefficients
        mu = cw.CurveletIndex(4, 2, 1, 1)
        start = cw.polarization_split(frame128, 0.0, mu, **selector)
        for t in (0.1, 0.25, 0.4, 1.0):
            fractions = cw.polarization_split(frame128, t, mu, **selector)
            assert max(abs(fractions[b] - start[b]) for b in start) <= 1e-12, t

    def test_requires_one_selector(self, frame128):
        with pytest.raises(ValueError):
            cw.polarization_split(frame128, 0.1, cw.CurveletIndex(4, 0, 0, 0))


class TestColumnQuasiNorms:
    def test_lhalf_bounded_and_stable(self, frame128, frame256, halfwave_op):
        # p = 1/2 quasi-norms of operator columns, uniform over 20 samples
        # and stable between grid sizes (measured max 174 / 127)
        def worst(table):
            rng = np.random.default_rng(5)
            vals = []
            for _ in range(20):
                mu = table.random_index(rng, scales=[2, 3, 4])
                col = cw.curvelet_column(table, halfwave_op, mu)
                vals.append(float(np.sum(np.sqrt(np.abs(col.values)))))
            return max(vals)

        a, b = worst(frame128), worst(frame256)
        assert a <= pinned.GRAM_LHALF_BOUND and b <= pinned.GRAM_LHALF_BOUND
        assert abs(b / a - 1.0) <= pinned.GRAM_LHALF_STABILITY


def _sorted_columns(matrix):
    # read_csv orders columns by (j, ell, k1, k2, nu)
    return sorted(matrix.columns, key=lambda c: (c.col_index, c.col_component))


def _assert_same_after_csv(matrix, back, sidecar):
    # read_csv keeps each column's entries in order; from a sidecar each column has the
    # energy, threshold and solver error written, from the CSV alone its kept energy and 0
    expect = _sorted_columns(matrix)
    assert [(c.col_index, c.col_component) for c in back.columns] == [(c.col_index, c.col_component) for c in expect]
    for a, b in zip(expect, back.columns):
        assert np.array_equal(a.rows_flat, b.rows_flat)
        assert np.array_equal(a.row_component, b.row_component)
        assert np.array_equal(a.values.view(np.float64), b.values.view(np.float64))  # bit-equal, signed zeros too
        if sidecar:
            assert (b.energy, b.threshold, b.solver_error) == (a.energy, a.threshold, a.solver_error)
        else:
            assert b.energy == b.kept_energy() and b.threshold == 0.0 and b.solver_error == 0.0


def _read_both(table, op, path):
    """The matrix read with its sidecar, then from the CSV alone (the sidecar is removed)."""
    with_sidecar = cw.SparseOperatorMatrix.read_csv(table, op, path)
    sidecar_path(path).unlink()
    return with_sidecar, cw.SparseOperatorMatrix.read_csv(table, op, path)


def _assert_bit_equal(a, b):
    assert [(c.col_index, c.col_component) for c in a.columns] == [(c.col_index, c.col_component) for c in b.columns]
    for x, y in zip(a.columns, b.columns):
        for name in ("rows_flat", "row_component", "values"):
            u, v = getattr(x, name), getattr(y, name)
            assert u.dtype == v.dtype and u.tobytes() == v.tobytes(), name


def _synthetic_matrix(table, op, lengths, rng):
    """A matrix of random columns, one per length, at distinct column indices;
    each column holds distinct (row, component) entries, sorted by row."""
    nus, columns = (3 if op.is_vector else 1), []
    for pos, n in zip(rng.choice(table.size, len(lengths), replace=False), lengths):
        mu = cw.CurveletIndex(*(int(v) for v in table.index_of_flat(pos)))
        nu, rows = np.divmod(rng.choice(nus * table.size, n, replace=False), table.size)
        order = np.argsort(rows, kind="stable")
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-150, 150, n) + 1j * rng.standard_normal(n)
        columns.append(MatrixColumn(mu, int(rng.integers(nus)), rows[order], nu[order], values, 1.0, 0.0))
    return cw.SparseOperatorMatrix(table, op, columns)


class TestMatrixCsv:
    @pytest.mark.parametrize("spec", [{"kind": "halfwave", "sign": "+", "t": 0.25},
                                      {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": 0.05}}],
                             ids=["halfwave", "warp"])
    def test_round_trip(self, frame64, rng, tmp_path, spec):
        # the sidecar gives back the columns the CSV holds, bit for bit, with the
        # energy, threshold and solver error written (a warp's is not 0)
        op = cw.OperatorSpec.from_json(spec)
        cols = [frame64.random_index(rng, scales=[3]) for _ in range(3)]
        matrix = cw.build_matrix(frame64, op, cols)
        assert all(c.threshold > 0.0 and (c.solver_error > 0.0) == (op.kind == "warp") for c in matrix.columns)
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        from_sidecar, from_csv = _read_both(frame64, op, path)
        _assert_same_after_csv(matrix, from_sidecar, sidecar=True)
        _assert_same_after_csv(matrix, from_csv, sidecar=False)
        _assert_bit_equal(from_sidecar, from_csv)

    def test_round_trip_vector(self, frame64, tmp_path):
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        matrix = cw.build_matrix(frame64, op, [cw.CurveletIndex(3, 5, 1, 2)], components=[2, 0])
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        from_sidecar, from_csv = _read_both(frame64, op, path)
        assert set(np.concatenate([c.row_component for c in from_sidecar.columns]).tolist()) == {0, 1, 2}
        _assert_same_after_csv(matrix, from_sidecar, sidecar=True)
        _assert_same_after_csv(matrix, from_csv, sidecar=False)
        _assert_bit_equal(from_sidecar, from_csv)

    def test_csv_without_sidecar_reads_kept_energy(self, frame64, halfwave_op, rng, tmp_path):
        matrix = cw.build_matrix(frame64, halfwave_op, [frame64.random_index(rng, scales=[3])])
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        sidecar_path(path).unlink(missing_ok=True)
        (col,) = cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path).columns
        assert col.energy == col.kept_energy() < matrix.columns[0].energy
        assert col.threshold == 0.0 and col.solver_error == 0.0

    def test_decay_report_equals_in_memory(self, frame64, halfwave_op, rng, tmp_path):
        # a report read back from a matrix file is the report of the columns written
        cols = [frame64.random_index(rng, scales=[2, 3]) for _ in range(4)]
        matrix = cw.build_matrix(frame64, halfwave_op, cols)
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        back = cw.decay_report(cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path))
        in_memory = cw.decay_report(cw.SparseOperatorMatrix(frame64, halfwave_op, _sorted_columns(matrix)))
        assert back.to_json() == in_memory.to_json()

    @pytest.mark.parametrize("source", ["csv", "sidecar"])
    def test_repeated_entry_refused(self, frame64, halfwave_op, tmp_path, source):
        # a column holding one (row index, row component) twice would count that
        # entry's energy twice in every report
        matrix = cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(3, 5, 1, 2)])
        col = matrix.columns[0]
        i = int(np.argmax(np.abs(col.values)))
        col.rows_flat, col.row_component, col.values = (np.insert(a, i, a[i]) for a in
                                                        (col.rows_flat, col.row_component, col.values))
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        if source == "csv":
            sidecar_path(path).unlink(missing_ok=True)
        row = tuple(int(a[0]) for a in frame64.index_of_flat(col.rows_flat[i : i + 1]))
        with pytest.raises(formats.FormatError, match=rf"holds row \({', '.join(map(str, row))}\), nu = 0 twice"):
            cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path)

    def test_repeated_column_refused(self, frame64, halfwave_op, tmp_path):
        mu = cw.CurveletIndex(3, 5, 1, 2)
        path = tmp_path / "matrix.csv"
        cw.build_matrix(frame64, halfwave_op, [mu, mu]).write_csv(path)
        with pytest.raises(formats.FormatError, match=r"column \(3, 5, 1, 2\), nu = 0 is written twice"):
            cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path)
        sidecar_path(path).unlink()  # the CSV alone reads one column of repeated entries
        with pytest.raises(formats.FormatError, match="twice"):
            cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path)

    def test_sidecar_bytes_are_deterministic(self, frame64, halfwave_op, tmp_path):
        matrix = cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(3, 5, 1, 2)])
        matrix.write_csv(tmp_path / "a.csv")
        matrix.write_csv(tmp_path / "b.csv")
        a, b = (sidecar_path(tmp_path / name).read_bytes() for name in ("a.csv", "b.csv"))
        assert a == b
        with np.load(sidecar_path(tmp_path / "a.csv"), allow_pickle=False) as npz:
            assert sorted(npz.files) == ["components", "manifest", "rows", "starts", "values"]
            assert np.array_equal(npz["values"], matrix.columns[0].values)

    def test_rewrite_replaces_the_sidecar(self, frame64, halfwave_op, tmp_path):
        path = tmp_path / "matrix.csv"
        cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(3, 5, 1, 2)]).write_csv(path)
        matrix = cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(2, 1, 0, 1)])
        matrix.write_csv(path)
        _assert_same_after_csv(matrix, cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path), sidecar=True)

    def test_failed_sidecar_write_leaves_the_csv_alone(self, frame64, halfwave_op, tmp_path, monkeypatch):
        # a sidecar write that fails partway leaves no sidecar, so the CSV
        # written before it reads as a CSV alone
        path = tmp_path / "matrix.csv"
        cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(3, 5, 1, 2)]).write_csv(path)
        matrix = cw.build_matrix(frame64, halfwave_op, [cw.CurveletIndex(2, 1, 0, 1), cw.CurveletIndex(3, 0, 1, 1)])
        write_npz_parts = formats.write_npz_parts

        def failing(target, arrays):
            def parts(parts):
                yield next(iter(parts))
                raise OSError("disk full")

            write_npz_parts(target, [(n, d, k, parts(p) if n == "values" else p) for n, d, k, p in arrays])

        monkeypatch.setattr(formats, "write_npz_parts", failing)
        with pytest.raises(OSError, match="disk full"):
            matrix.write_csv(path)
        assert list(tmp_path.iterdir()) == [path]
        _assert_same_after_csv(matrix, cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path), sidecar=False)

    @staticmethod
    def _check_bytes_equal_one_part(table, rng, tmp_path, spec, rows):
        # reference: every column's entries concatenated and written as one
        # part, with no shared cell; write_csv writes runs of rows that share
        # a wedge and a component
        op = cw.OperatorSpec.from_json(spec)
        matrix = _synthetic_matrix(table, op, [3, formats._CSV_BLOCK + 700, 250], rng)
        for c in matrix.columns:
            order = {"sorted": np.lexsort((c.rows_flat, c.row_component)), "random": np.arange(c.nnz),
                     "shuffled": rng.permutation(c.nnz)}[rows]
            c.rows_flat, c.row_component, c.values = c.rows_flat[order], c.row_component[order], c.values[order]
        matrix.columns[0].values[:] = [complex(-0.0, 0.0), complex(1e-300, -2.5e17), complex(0.1, -0.0)]
        cols = matrix.columns
        wedges = np.unique(table.index_of_flat(cols[1].rows_flat)[:2], axis=1).shape[1]
        assert wedges > len(table.wedges) // 2
        assert set(cols[1].row_component.tolist()) == set(range(3 if op.is_vector else 1))
        rows = table.index_of_flat(np.concatenate([c.rows_flat for c in cols]))
        keys = [(c.col_index.j, c.col_index.ell, c.col_index.k1, c.col_index.k2, c.col_component) for c in cols]
        col = np.repeat(np.array(keys, dtype=np.int64), [c.nnz for c in cols], axis=0).T
        nu = np.concatenate([c.row_component for c in cols])
        values = np.concatenate([c.values for c in cols])
        formats.write_index_parts(tmp_path / "reference.csv", formats.MATRIX_HEADER, [((*rows, nu, *col), values)])
        matrix.write_csv(tmp_path / "matrix.csv")
        assert (tmp_path / "matrix.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_column_by_column_bytes_equal_whole_matrix_rows(self, frame64, rng, tmp_path):
        # random components break the runs every row or two
        self._check_bytes_equal_one_part(frame64, rng, tmp_path, {"kind": "acoustic", "t": 0.2}, "random")

    @pytest.mark.parametrize(
        "spec, rows",
        [({"kind": "halfwave", "t": 0.2}, "sorted"), ({"kind": "acoustic", "t": 0.2}, "sorted"),
         ({"kind": "acoustic", "t": 0.2}, "shuffled")],
    )
    def test_runs_of_rows_bytes_equal_whole_matrix_rows(self, frame64, rng, tmp_path, spec, rows):
        # rows sorted by component, then packed position (as curvelet_column
        # keeps them) form long runs across many wedges; shuffled rows change
        # wedge almost every row
        self._check_bytes_equal_one_part(frame64, rng, tmp_path, spec, rows)

    def test_columns_spread_over_the_file(self, frame64, rng, tmp_path):
        # a file whose rows interleave the columns reads back each column's
        # entries in file order, the columns sorted by (j, ell, k1, k2, nu)
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        matrix = _synthetic_matrix(frame64, op, [3, 400, 250, 1], rng)
        cols = matrix.columns
        which = rng.permutation(np.repeat(np.arange(len(cols)), [c.nnz for c in cols]))
        pos = np.zeros(len(which), dtype=np.int64)
        for k in range(len(cols)):
            pos[which == k] = np.arange(cols[k].nnz)
        rows = [np.array([getattr(cols[k], a)[p] for k, p in zip(which, pos)]) for a in ("rows_flat", "row_component")]
        keys = [(c.col_index.j, c.col_index.ell, c.col_index.k1, c.col_index.k2, c.col_component) for c in cols]
        path = tmp_path / "matrix.csv"
        index = (*frame64.index_of_flat(rows[0]), rows[1], *np.array([keys[k] for k in which], dtype=np.int64).T)
        formats.write_index_parts(path, formats.MATRIX_HEADER, [(index, [cols[k].values[p] for k, p in zip(which, pos)])])
        _assert_same_after_csv(matrix, cw.SparseOperatorMatrix.read_csv(frame64, op, path), sidecar=False)

    def test_peak_memory_per_entry(self, frame64, halfwave_op, rng, tmp_path):
        # write_csv decodes one column's rows at a time (the whole-matrix
        # arrays took about 117 bytes per entry here), and read_csv holds the
        # parsed rows once, 96 bytes per entry, where a stacked copy of the
        # index cells took about 192 bytes per entry; it decodes the row
        # cells a column at a time, in blocks (about 132 bytes per entry here,
        # against 153 when every entry's cells were decoded at once).  The
        # sidecar's arrays are 32 bytes per entry, read once (about 65 here)
        matrix = _synthetic_matrix(frame64, halfwave_op, [1500, 2000, 2500, 3000, 3500, 4000], rng)
        path, entries = tmp_path / "matrix.csv", matrix.total_entries()
        tracemalloc.start()
        try:
            matrix.write_csv(path)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            from_sidecar = cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path)
            sidecar_peak = tracemalloc.get_traced_memory()[1]
            del from_sidecar
            sidecar_path(path).unlink()
            tracemalloc.reset_peak()
            parsed = cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path)
            parse_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed.total_entries() == entries
        assert write_peak <= 60 * entries
        assert sidecar_peak <= 80 * entries
        assert parse_peak <= 145 * entries

    def test_empty_matrix_is_header_only(self, frame64, halfwave_op, tmp_path):
        path = tmp_path / "matrix.csv"
        cw.SparseOperatorMatrix(frame64, halfwave_op).write_csv(path)
        assert path.read_bytes() == (",".join(formats.MATRIX_HEADER) + "\r\n").encode()
        assert cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path).columns == []
        sidecar_path(path).unlink()
        assert cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path).columns == []
