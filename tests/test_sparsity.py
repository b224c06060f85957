import math

import numpy as np
import pytest
from scipy.stats import theilslopes

import curvewave as cw
from curvewave import formats
from curvewave.sparsity import DEFAULT_THRESHOLD, _core_size, _fit_sorted_decay, comoving_branch

import pinned


@pytest.fixture(scope="module")
def halfwave_op():
    return cw.OperatorSpec.from_json({"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0})


@pytest.fixture(scope="module")
def identity_op():
    return cw.OperatorSpec.from_json({"kind": "identity"})


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
        branch = comoving_branch(halfwave_op)
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

    def test_threshold_validation(self, frame128, identity_op):
        with pytest.raises(ValueError):
            cw.curvelet_column(frame128, identity_op, cw.CurveletIndex(3, 0, 0, 0), threshold=0.0)

    def test_vector_column_components(self, frame64):
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        mu = cw.CurveletIndex(2, 1, 1, 1)
        col = cw.curvelet_column(frame64, op, mu, component=1)
        assert set(np.unique(col.row_component)).issubset({0, 1, 2})
        assert col.energy == pytest.approx(frame64.wedge(2, 1).atom_norm2, rel=1e-10)

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
        out = cw.apply_acoustic(atom3, 0.4)
        assert np.max(np.abs(out - atom3)) <= 1e-12  # 0-branch data does not move
        fractions = cw.polarization_split(frame128, 0.4, mu, hyper_mode="pointwise")
        assert fractions[1] >= 1.0 - 1e-12

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


def _assert_same_after_csv(matrix, back):
    # read_csv orders columns by (j, ell, k1, k2, nu) and keeps each column's entries in order
    expect = sorted(matrix.columns, key=lambda c: (c.col_index, c.col_component))
    assert [(c.col_index, c.col_component) for c in back.columns] == [(c.col_index, c.col_component) for c in expect]
    for a, b in zip(expect, back.columns):
        assert np.array_equal(a.rows_flat, b.rows_flat)
        assert np.array_equal(a.row_component, b.row_component)
        assert np.array_equal(a.values.view(np.float64), b.values.view(np.float64))  # bit-equal, signed zeros too
        assert b.energy == b.kept_energy() and b.threshold == 0.0


class TestMatrixCsv:
    def test_round_trip(self, frame64, halfwave_op, rng, tmp_path):
        cols = [frame64.random_index(rng, scales=[3]) for _ in range(3)]
        matrix = cw.build_matrix(frame64, halfwave_op, cols)
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        _assert_same_after_csv(matrix, cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path))

    def test_round_trip_vector(self, frame64, tmp_path):
        op = cw.OperatorSpec.from_json({"kind": "acoustic", "t": 0.2})
        matrix = cw.build_matrix(frame64, op, [cw.CurveletIndex(3, 5, 1, 2)], components=[2, 0])
        path = tmp_path / "matrix.csv"
        matrix.write_csv(path)
        back = cw.SparseOperatorMatrix.read_csv(frame64, op, path)
        assert set(np.concatenate([c.row_component for c in back.columns]).tolist()) == {0, 1, 2}
        _assert_same_after_csv(matrix, back)

    def test_empty_matrix_is_header_only(self, frame64, halfwave_op, tmp_path):
        path = tmp_path / "matrix.csv"
        cw.SparseOperatorMatrix(frame64, halfwave_op).write_csv(path)
        assert path.read_bytes() == (",".join(formats.MATRIX_HEADER) + "\r\n").encode()
        assert cw.SparseOperatorMatrix.read_csv(frame64, halfwave_op, path).columns == []
