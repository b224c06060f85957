import json
import math
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as spfft
from scipy.special import jv

import curvewave as cw
from curvewave.propagators import (
    CHEBYSHEV_TAIL,
    JACOBI_ANGER_TAIL,
    _eval_fourier_at_points,
    _grid_points,
    _grids,
    _jacobi_anger_order,
    _laplacian,
    _wave_expansion,
    named_symbol,
)

import pinned
from conftest import psido_on_grid, random_field, trig_polynomial

N = 64
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def plane_wave(n, q1, q2):
    x = np.arange(n) / n
    return np.exp(2j * np.pi * (q1 * x[:, None] + q2 * x[None, :]))


class TestHalfwave:
    def test_time_zero_identity(self, rng):
        f = random_field(rng, N)
        assert np.allclose(cw.OperatorSpec(kind="halfwave", t=0.0).apply(f)[0], f, atol=1e-14)

    def test_plane_wave_eigenfunction(self):
        pw = plane_wave(N, 3, 4)
        out = cw.OperatorSpec(kind="halfwave", t=0.1, c0=1.5).apply(pw)[0]
        expected = pw * np.exp(1j * 1.5 * 0.1 * 2 * np.pi * 5.0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_unitary(self, rng):
        f = random_field(rng, N)
        out = cw.OperatorSpec(kind="halfwave", t=0.37, sign=-1, c0=2.0).apply(f)[0]
        assert abs(np.linalg.norm(out) - np.linalg.norm(f)) <= 1e-12 * np.linalg.norm(f)

    def test_group_property(self, rng):
        f = random_field(rng, N)
        step = cw.OperatorSpec(kind="halfwave", t=0.2).apply(f)[0]
        a = cw.OperatorSpec(kind="halfwave", t=0.15).apply(step)[0]
        b = cw.OperatorSpec(kind="halfwave", t=0.35).apply(f)[0]
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_needs_sign(self):
        with pytest.raises(ValueError, match="sign must be"):
            cw.OperatorSpec(kind="halfwave", t=0.1, sign=0)
        with pytest.raises(ValueError, match="sign must be"):
            cw.OperatorSpec.from_json({"kind": "halfwave", "t": 0.1, "sign": "0"})


class TestCosWave:
    def test_time_zero(self, rng):
        u0 = random_field(rng, N)
        u1 = random_field(rng, N)
        assert np.allclose(cw.apply_cos_wave(u0, u1, 0.0), u0, atol=1e-14)

    def test_plane_wave(self):
        pw = plane_wave(N, 5, 0)
        out = cw.apply_cos_wave(pw, np.zeros_like(pw), 0.2, c0=1.0)
        assert np.allclose(out, math.cos(2 * np.pi * 5 * 0.2) * pw, atol=1e-12)

    def test_grid_frequencies_are_integers(self, rng):
        # fftfreq(24) * 24 misses 7 and -7 by an ulp; the grid holds the integer
        # frequencies apply_spectrum uses, so a multiplier's two routes agree bit for bit
        n = 24
        q1, q2, _ = _grids(n)
        assert np.array_equal(q1[:, 0], np.r_[0:12, -12:0]) and np.array_equal(q2[0], np.r_[0:12, -12:0])
        u = random_field(rng, n)
        spec = cw.OperatorSpec(kind="cos-wave", t=0.3, c0=1.5)
        assert np.array_equal(cw.apply_cos_wave(u, np.zeros_like(u), 0.3, 1.5), spec.apply(u)[0])

    def test_zero_frequency_limit(self):
        ones = np.ones((N, N), complex)
        out = cw.apply_cos_wave(np.zeros_like(ones), ones, 0.3)
        assert np.allclose(out, 0.3 * ones, atol=1e-12)

    def test_matches_pseudospectral_solver(self, frame64):
        u0 = cw.waveform(frame64, cw.CurveletIndex(2, 1, 2, 2))
        model = cw.VelocityModel.constant(1.0)
        u, _ = cw.solve_variable_wave(u0, np.zeros_like(u0), model, 0.1, dt=5e-4)
        exact = cw.apply_cos_wave(u0, np.zeros_like(u0), 0.1)
        assert np.linalg.norm(u - exact) <= 1e-6 * np.linalg.norm(exact)


class TestAcoustic:
    def test_dispersion_eigenvectors(self, rng):
        # a(xi) r_pm = +-|xi| r_pm at random frequencies
        for _ in range(100):
            xi = rng.standard_normal(2) * 20
            if np.hypot(*xi) < 1e-6:
                continue
            a = cw.acoustic_dispersion_matrix(xi)
            assert np.allclose(a, a.T)
            e = xi / np.hypot(*xi)
            mag = np.hypot(*xi)
            r_plus = np.array([e[0], e[1], 1.0]) / math.sqrt(2)
            r_minus = np.array([-e[0], -e[1], 1.0]) / math.sqrt(2)
            r_zero = np.array([-e[1], e[0], 0.0])
            assert np.max(np.abs(a @ r_plus - mag * r_plus)) <= 1e-12 * mag
            assert np.max(np.abs(a @ r_minus + mag * r_minus)) <= 1e-12 * mag
            assert np.max(np.abs(a @ r_zero)) <= 1e-12 * mag
        # the library's own r_+, r_-, r_0 at grid frequencies, eigenvalues +|xi|, -|xi|, 0
        rs = {b: cw.acoustic_polarization(N, b) for b in ("+", "-", 0)}
        for q1, q2 in rng.integers(-N // 2, N // 2, size=(50, 2)):
            if q1 == q2 == 0:
                continue
            xi = 2 * np.pi * np.array([q1, q2])
            a, mag = cw.acoustic_dispersion_matrix(xi), np.hypot(*xi)
            for b, lam in (("+", mag), ("-", -mag), (0, 0.0)):
                r = rs[b][:, q1 % N, q2 % N]
                assert np.linalg.norm(r) == pytest.approx(1.0, abs=1e-12)
                assert np.max(np.abs(a @ r - lam * r)) <= 1e-12 * mag, (q1, q2, b)

    def test_time_zero_identity(self, rng):
        u = np.stack([random_field(rng, N) for _ in range(3)])
        assert np.allclose(cw.OperatorSpec(kind="acoustic", t=0.0).apply(u)[0], u, atol=1e-12)

    def test_unitary(self, rng):
        u = np.stack([random_field(rng, N) for _ in range(3)])
        out = cw.OperatorSpec(kind="acoustic", t=0.4).apply(u)[0]
        assert abs(np.linalg.norm(out) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)

    def test_polarized_data_stays_polarized(self, rng):
        g = random_field(rng, N)
        spec = spfft.fft2(g, norm="ortho")
        r = cw.acoustic_polarization(N, "+")
        u = spfft.ifft2(r * spec[None], norm="ortho")
        out = cw.OperatorSpec(kind="acoustic", t=0.3).apply(u)[0]
        fractions = cw.polarization_fractions(out)
        assert fractions[1] >= 1.0 - 1e-12

    def test_plus_branch_matches_halfwave(self, rng):
        # r_+ polarized data evolves by the scalar multiplier exp(-i |xi| t)
        g = random_field(rng, N)
        spec = spfft.fft2(g, norm="ortho")
        r = cw.acoustic_polarization(N, "+")
        u = spfft.ifft2(r * spec[None], norm="ortho")
        out = cw.OperatorSpec(kind="acoustic", t=0.3).apply(u)[0]
        scalar = cw.OperatorSpec(kind="halfwave", t=0.3, sign=-1).apply(g)[0]  # e^{-i|xi|t}
        expected = spfft.ifft2(r * spfft.fft2(scalar, norm="ortho")[None], norm="ortho")
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_requires_three_components(self, rng):
        # both entry points refuse any other component count, or a scalar field
        for u in [random_field(rng, N)] + [np.stack([random_field(rng, N)] * m) for m in (1, 2, 4)]:
            with pytest.raises(ValueError, match="expects a 3-component field"):
                cw.OperatorSpec(kind="acoustic", t=0.1).apply(u)
            with pytest.raises(ValueError, match="expects a 3-component field"):
                cw.polarization_fractions(u)


class TestVariableWave:
    def test_zero_data(self):
        model = cw.VelocityModel.constant(1.0)
        u, v = cw.solve_variable_wave(np.zeros((N, N)), np.zeros((N, N)), model, 0.2)
        assert np.linalg.norm(u) == 0.0 and np.linalg.norm(v) == 0.0

    def test_cfl_violation_rejected(self):
        model = cw.VelocityModel.constant(1.0)
        with pytest.raises(ValueError):
            cw.solve_variable_wave(np.zeros((N, N)), np.zeros((N, N)), model, 0.1, dt=0.1)

    @pytest.mark.parametrize("dt", [0.0, -1e-3])
    def test_nonpositive_dt_rejected(self, dt):
        model = cw.VelocityModel.constant(1.0)
        with pytest.raises(ValueError, match="must be positive"):
            cw.solve_variable_wave(np.zeros((N, N)), np.zeros((N, N)), model, 0.1, dt=dt)

    def test_richardson_order(self, frame64):
        u0 = cw.waveform(frame64, cw.CurveletIndex(2, 3, 1, 1))
        model = cw.VelocityModel.constant(1.0)
        ref = cw.apply_cos_wave(u0, np.zeros_like(u0), 0.3)

        def err(dt):
            u, _ = cw.solve_variable_wave(u0, np.zeros_like(u0), model, 0.3, dt=dt)
            return np.linalg.norm(u - ref)

        ratio = err(2e-3) / err(1e-3)
        assert 12.0 <= ratio <= 20.0

    def test_energy_conserved_smooth_speed(self, frame64):
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        u0 = cw.waveform(frame64, cw.CurveletIndex(2, 5, 1, 2))
        v0 = cw.oneway_velocity(u0, model, "+")
        e0 = cw.wave_energy(u0, v0, model)
        u, v = cw.solve_variable_wave(u0, v0, model, 0.5, dt=2.5e-4)
        e1 = cw.wave_energy(u, v, model)
        assert abs(e1 - e0) <= 1e-6 * e0

    def test_oneway_initialization_matches_halfwave(self, frame64):
        model = cw.VelocityModel.constant(1.0)
        u0 = cw.waveform(frame64, cw.CurveletIndex(3, 2, 1, 1))
        v0 = cw.oneway_velocity(u0, model, "+")
        u, _ = cw.solve_variable_wave(u0, v0, model, 0.25, dt=2.5e-4)
        expected = cw.OperatorSpec(kind="halfwave", t=0.25).apply(u0)[0]
        assert np.linalg.norm(u - expected) <= 1e-6 * np.linalg.norm(expected)


class TestChebyshevWave:
    def test_constant_speed_matches_halfwave(self, frame64):
        # RK4 at dt = 2.5e-4 agrees to 1e-6 (TestVariableWave); the expansion to rounding
        model = cw.VelocityModel.constant(1.0)
        u0 = cw.waveform(frame64, cw.CurveletIndex(3, 2, 1, 1))
        u, bound = cw.chebyshev_wave(u0, cw.oneway_velocity(u0, model, "+"), model, 0.25)
        expected = cw.OperatorSpec(kind="halfwave", t=0.25).apply(u0)[0]
        assert np.linalg.norm(u - expected) <= 1e-10 * np.linalg.norm(expected)
        assert 0.0 < bound <= 1e-10

    def test_limit_of_rk4(self, frame64):
        # RK4's gap to the expansion falls about 2^4-fold per halving of dt
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        u0 = cw.waveform(frame64, cw.CurveletIndex(2, 5, 1, 2))
        v0 = cw.oneway_velocity(u0, model, "+")
        u, _ = cw.chebyshev_wave(u0, v0, model, 0.25)
        gaps = [np.linalg.norm(cw.solve_variable_wave(u0, v0, model, 0.25, dt=dt)[0] - u) for dt in (2e-3, 1e-3, 5e-4)]
        assert all(12.0 <= a / b <= 20.0 for a, b in zip(gaps, gaps[1:]))

    def test_energy_conserved_wide_bump(self, frame64):
        # v(t) is the same expansion applied to (v0, -L u0); a width-0.4 bump
        # peaks at c = 1.2367, above c0 + amplitude
        model = cw.VelocityModel.gaussian_bump((0.4, 0.55), 0.4, 0.2)
        u0 = cw.waveform(frame64, cw.CurveletIndex(2, 5, 1, 2))
        v0 = cw.oneway_velocity(u0, model, "+")
        minus_lu0 = np.asarray(model.c(_grid_points(64))) ** 2 * _laplacian(u0)
        (u, v), _ = cw.chebyshev_wave(np.stack([u0, v0]), np.stack([v0, minus_lu0]), model, 0.5)
        e0 = cw.wave_energy(u0, v0, model)
        assert abs(cw.wave_energy(u, v, model) - e0) <= 1e-10 * e0

    def test_stack_equals_single_fields(self, frame64, rng):
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        u0 = np.stack([random_field(rng, N) for _ in range(3)])
        v0 = np.stack([random_field(rng, N) for _ in range(3)])
        u, bound = cw.chebyshev_wave(u0, v0, model, 0.1)
        singles = [cw.chebyshev_wave(a, b, model, 0.1) for a, b in zip(u0, v0)]
        assert np.array_equal(u, np.stack([one[0] for one in singles]))
        assert bound <= sum(one[1] for one in singles) * (1 + 1e-12)

    def test_time_zero_and_shapes(self, rng):
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        u0 = random_field(rng, N)
        u, bound = cw.chebyshev_wave(u0, random_field(rng, N), model, 0.0)
        assert np.array_equal(u, u0) and bound == 0.0
        with pytest.raises(ValueError, match="matching shapes"):
            cw.chebyshev_wave(u0, np.zeros((2, N, N)), model, 0.1)

    @pytest.mark.parametrize("n, count", [(128, 111), (256, 202), (512, 400)])
    def test_degree_follows_the_true_coefficients(self, n, count):
        # the cut reads the closed-form bounds, not the DCT values: at N = 512
        # those sit on a rounding floor above CHEBYSHEV_TAIL, and a cut read
        # from them kept 1,303 coefficients; count is exact below N = 512
        _, lam_max, (a, b, _, _) = _wave_expansion(cw.VelocityModel.sinusoidal(0.2, (1, 0)), n, 0.25)
        assert len(a) == len(b) and (len(a) == count if n < 512 else len(a) <= count)
        r = 0.25 * math.sqrt(lam_max)
        k = np.arange(len(a))
        exact = 2.0 * (-1.0) ** k * jv(2 * k, r) * np.where(k == 0, 0.5, 1.0)
        assert np.max(np.abs(a - exact)) <= 1e-13
        assert 2.0 * abs(jv(2 * len(a), r)) < CHEBYSHEV_TAIL  # the first coefficient left out

    def test_stated_bound_of_benchmark_columns(self, frame128):
        # the columns of configs/variable_wave_n128.json: N = 128, sinusoidal speed, j = 4
        op = cw.OperatorSpec.from_json(json.loads((CONFIGS / "variable_wave_n128.json").read_text())["operator"])
        rng = np.random.default_rng(11)
        for _ in range(2):
            col = cw.curvelet_column(frame128, op, frame128.random_index(rng, scales=[4]))
            assert 0.0 < col.solver_error <= 1e-7


class TestGaussianSmooth:
    def test_small_width_is_identity(self, rng):
        # frequencies are physical (2 pi q on the unit torus), so the
        # multiplier deviates by w^2 |xi|^2 <= 8e4 w^2 at this grid size
        f = random_field(rng, N)
        out = cw.OperatorSpec(kind="gaussian-smooth", width=1e-6).apply(f)[0]
        assert np.max(np.abs(out - f)) <= 1e-6 * np.max(np.abs(f))
        out = cw.OperatorSpec(kind="gaussian-smooth", width=1e-8).apply(f)[0]
        assert np.max(np.abs(out - f)) <= 1e-10 * np.max(np.abs(f))

    def test_constant_field_unchanged(self):
        f = np.full((N, N), 2.5 + 0j)
        assert np.allclose(cw.OperatorSpec(kind="gaussian-smooth", width=0.3).apply(f)[0], f, atol=1e-12)

    def test_rejects_nonpositive_width(self):
        for width in (0.0, -0.3):
            with pytest.raises(ValueError, match="width must be positive"):
                cw.OperatorSpec(kind="gaussian-smooth", width=width)

    def test_matrix_entries_collapse_with_scale(self, frame128):
        # column norms drop by >= 100x per scale beyond the smoothing cutoff
        op = cw.OperatorSpec.from_json({"kind": "gaussian-smooth", "width": 0.05})
        norms = {}
        for j in (2, 3, 4):
            mu = frame128.random_index(np.random.default_rng(j), scales=[j])
            col = cw.curvelet_column(frame128, op, mu)
            norms[j] = col.kept_energy()
        assert norms[2] / norms[3] >= 100.0
        assert norms[3] / norms[4] >= 100.0


class TestPsido:
    def test_identity_symbol(self, rng):
        f = random_field(rng, N)
        out = cw.apply_psido(f, cw.PsidoSymbol.identity())
        assert np.allclose(out, f, atol=1e-12)

    def test_spatial_symbol_is_multiplication(self, rng):
        # shifts along both axes, negative ones, and one that wraps (m1 = N/2)
        f = random_field(rng, N)
        coefficients = {(0, 0): 1.0, (2, 1): 0.3 - 0.1j, (-1, 0): 0.25j, (N // 2, -3): -0.2}
        out = cw.apply_psido(f, cw.PsidoSymbol.spatial(coefficients))
        assert np.allclose(out, trig_polynomial(N, coefficients) * f, atol=1e-12)
        assert not np.any(cw.apply_psido(f, cw.PsidoSymbol.spatial({})))  # no coefficients: a(x) = 0

    def test_stacked_fields_equal_single_fields(self, rng):
        fields = np.stack([random_field(rng, N) for _ in range(2)])
        symbol = named_symbol("mixed", N)
        assert np.max(np.abs(cw.apply_psido(fields, symbol) - psido_on_grid(fields, symbol))) <= 1e-13
        spec = cw.OperatorSpec(kind="psido", symbol="mixed")
        for out in (cw.apply_psido(fields, symbol), spec.apply(fields)[0]):
            for f, g in zip(fields, out):
                assert np.array_equal(g, cw.apply_psido(f, symbol))

    def test_multiplier_symbol_matches_halfwave(self, rng):
        f = random_field(rng, N)
        q = np.fft.fftfreq(N) * N
        mag = 2 * np.pi * np.hypot(q[:, None], q[None, :])
        out = cw.apply_psido(f, cw.PsidoSymbol.multiplier(np.exp(1j * mag * 0.2)))
        assert np.allclose(out, cw.OperatorSpec(kind="halfwave", t=0.2).apply(f)[0], atol=1e-12)

    def test_rejects_non_separable_spec(self, rng):
        with pytest.raises(TypeError):
            cw.apply_psido(random_field(rng, N), lambda x, xi: 1.0)

    def test_named_spec_applies_without_resolving(self, rng):
        # the spec resolves its named symbol from the field's grid size
        f = random_field(rng, N)
        out = cw.OperatorSpec.from_json({"kind": "psido", "symbol": "mixed"}).apply(f)[0]
        assert np.array_equal(out, cw.apply_psido(f, named_symbol("mixed", N)))
        assert named_symbol("mixed", N) is named_symbol("mixed", N)  # built once per (id, N)

    def test_unknown_symbol_refused(self):
        with pytest.raises(ValueError, match="unknown symbol id 'nope'"):
            cw.OperatorSpec.from_json({"kind": "psido", "symbol": "nope"})

    def test_named_symbols_resolve(self):
        for name in ("one", "space-sine", "freq-lowpass", "mixed"):
            assert named_symbol(name, N).terms is not None
        with pytest.raises(ValueError):
            named_symbol("nope", N)


WARPS = [
    cw.WarpMap.identity(),
    cw.WarpMap.shear(0.4),
    cw.WarpMap.sinusoidal(0.05, (1, 1)),
    cw.WarpMap.sinusoidal(0.03, (2, 1)),
    cw.WarpMap.sinusoidal(0.05, (1, 0)),
]
WARP_IDS = ["identity", "shear", "sinusoidal-k11", "sinusoidal-k21", "sinusoidal-k10"]


class TestWarp:
    @pytest.mark.parametrize("warp", WARPS, ids=WARP_IDS)
    def test_matches_direct_sum(self, warp, rng):
        # the Jacobi-Anger spectrum against the O(N^4) sum of the interpolant at the
        # warped points; the stated error is the discarded tail, none for the identity
        f = random_field(rng, N)
        y = np.mod(warp.phi(_grid_points(N)), 1.0)
        ref = _eval_fourier_at_points(spfft.fft2(f, norm="ortho"), y[..., 0], y[..., 1])
        out, error = cw.OperatorSpec(kind="warp", map=warp).apply(f)
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
        if warp.kind == "identity":
            assert error == 0.0
        else:
            assert 0.0 < error <= 1e-12 * np.linalg.norm(f)

    @pytest.mark.parametrize("z_max", [1e-3, 0.5, 5.0, 28.4, 300.0])
    def test_jacobi_anger_order_bounds_the_bessel_tail(self, z_max):
        # the stated tail bounds sum_{|m|>M} max |J_m(z)| over |z| <= Z, and M is the least
        # order whose bound 2 sum_{m>M} (Z/2)^m/m! meets JACOBI_ANGER_TAIL
        order, tail = _jacobi_anger_order(z_max)
        z = np.linspace(0.0, z_max, 2001)
        dropped = 2 * sum(float(np.max(np.abs(jv(m, z)))) for m in range(order + 1, order + 80))
        assert dropped <= tail <= JACOBI_ANGER_TAIL
        terms = [math.exp(m * math.log(z_max / 2) - math.lgamma(m + 1)) for m in range(order, order + 400)]
        assert 2 * math.fsum(terms) > JACOBI_ANGER_TAIL
        assert _jacobi_anger_order(0.0) == (0, 0.0)

    def test_non_integer_wavevector_refused(self):
        # phi maps the torus to itself only for an integer k
        with pytest.raises(ValueError, match="wavevector must be integer"):
            cw.WarpMap(kind="sinusoidal", amplitude=0.05, wavevector=(1.5, 1))

    def test_identity_map(self, rng):
        f = random_field(rng, N)
        out = cw.OperatorSpec(kind="warp", map=cw.WarpMap.identity()).apply(f)[0]
        assert np.max(np.abs(out - f)) <= 1e-9 * np.max(np.abs(f))

    def test_stacked_fields_refused(self, rng):
        # a warp acts on one field; a stack is refused with a stated error, not a broadcast one
        op = cw.OperatorSpec(kind="warp", map=cw.WarpMap.shear(0.3))
        f = np.stack([random_field(rng, N), random_field(rng, N)])
        with pytest.raises(ValueError, match=r"values must have shape \(K,\)"):
            op.apply(f)
        with pytest.raises(ValueError, match=r"values must have shape \(K,\)"):
            op.apply_spectrum(N, np.arange(N * N), spfft.fft2(f, norm="ortho").reshape(2, N * N))

    def test_plane_wave_composition_exact(self):
        # A grid plane wave is its own trigonometric interpolant, so f(phi(x)) is known in closed form.
        n = 32
        g = np.arange(n) / n
        x = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
        a = np.array([3.0, -2.0])
        for warp in (cw.WarpMap.shear(0.4), cw.WarpMap.sinusoidal(0.05, (1, 1))):
            out = cw.OperatorSpec(kind="warp", map=warp).apply(np.exp(2j * np.pi * (x @ a)))[0]
            assert np.max(np.abs(out - np.exp(2j * np.pi * (warp.phi(x) @ a)))) <= 1e-12

    def test_map_invariants(self):
        for warp in (cw.WarpMap.shear(0.4), cw.WarpMap.sinusoidal(0.05, (1, 0)), cw.WarpMap.sinusoidal(0.03, (2, 1))):
            warp.validate(64)
            x = np.random.default_rng(0).uniform(0, 1, (50, 2))
            assert np.max(np.abs(warp.phi(warp.phi_inv(x)) - x)) <= 1e-12
            det = np.linalg.det(warp.jacobian(x))
            assert det.min() >= 0.5 and det.max() <= 2.0

    def test_zero_wavevector_refused(self):
        # the constructor itself refuses it: phi would divide by |k| = 0
        with pytest.raises(ValueError, match="wavevector must be nonzero"):
            cw.WarpMap(kind="sinusoidal", amplitude=0.1, wavevector=(0, 0))

    def test_validate_fails_on_nan(self):
        with pytest.raises(ValueError, match="inverse defect"):
            cw.WarpMap.sinusoidal(math.nan, (1, 0)).validate()

    def test_shear_rotates_orientation(self, frame128):
        # dominant frequency of the warped curvelet aligns with (grad phi)^T xi
        warp = cw.WarpMap.shear(0.3)
        wedge = frame128.wedge(4, 0)
        mu = cw.CurveletIndex(4, 0, int(0.5 * wedge.rect[0]), int(0.5 * wedge.rect[1]))
        f = cw.waveform(frame128, mu)
        out = cw.OperatorSpec(kind="warp", map=warp).apply(f)[0]
        spec = np.abs(spfft.fft2(out, norm="ortho")) ** 2
        q = np.fft.fftfreq(128) * 128
        q1, q2 = np.meshgrid(q, q, indexing="ij")
        xi_pred = warp.jacobian(frame128.center(mu)).T @ frame128.xi_center(mu)
        halfplane = q1 * xi_pred[0] + q2 * xi_pred[1] > 0
        m1 = float((spec * q1)[halfplane].sum() / spec[halfplane].sum())
        m2 = float((spec * q2)[halfplane].sum() / spec[halfplane].sum())
        measured = math.atan2(m2, m1)
        predicted = math.atan2(xi_pred[1], xi_pred[0])
        original = wedge.theta
        assert abs(measured - predicted) <= 0.05
        assert abs(predicted - original) >= 0.15  # the shear really rotated it

    def test_warped_curvelet_remains_molecule(self, frame128):
        mu = cw.CurveletIndex(4, 2, 4, 4)
        f = cw.waveform(frame128, mu)
        out = cw.OperatorSpec(kind="warp", map=cw.WarpMap.sinusoidal(0.02, (1, 0))).apply(f)[0]
        prof = cw.molecule_profile(frame128, out, mu)
        assert prof.is_molecule

    def test_warp_column_lhalf_bounded(self, frame128, rng):
        mu = frame128.random_index(rng, scales=[4])
        plain = cw.curvelet_column(frame128, cw.OperatorSpec.from_json({"kind": "identity"}), mu)
        warped = cw.curvelet_column(
            frame128, cw.OperatorSpec(kind="warp", map=cw.WarpMap.sinusoidal(0.05, (1, 0))), mu
        )
        lhalf = lambda col: float(np.sum(np.sqrt(np.abs(col.values))))
        assert lhalf(warped) <= pinned.WARP_LHALF_FACTOR * lhalf(plain)


class TestOperatorSpecJson:
    SPECS = [
        {"kind": "identity"},
        {"kind": "halfwave", "t": 0.25, "sign": "-", "c0": 2.0},
        {"kind": "cos-wave", "t": 0.25, "c0": 1.5},
        {"kind": "acoustic", "t": 0.2},
        {"kind": "variable-wave", "t": 0.25, "sign": "+",
         "model": {"kind": "gaussian-bump", "c0": 1.0, "amplitude": 0.2, "center": [0.3, 0.6], "width": 0.1}},
        {"kind": "gaussian-smooth", "width": 0.05},
        {"kind": "psido", "symbol": "mixed"},
        {"kind": "warp", "map": {"kind": "shear", "s": 0.3}},
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=[s["kind"] for s in SPECS])
    def test_round_trip(self, spec):
        assert cw.OperatorSpec.from_json(spec).to_json() == spec

    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "halfwave", "sgn": "-", "t": 0.25},
            {"kind": "identity", "t": 0.25},
            {"kind": "variable-wave", "t": 0.25, "c0": 2.0},
            {"kind": "variable-wave", "t": 0.25, "model": {"kind": "constant", "amplitude": 0.1}},
            {"kind": "warp", "map": {"kind": "identity", "s": 0.3}},
            {"kind": "variable-wave", "t": 0.25, "dt": 1e-3},
        ],
    )
    def test_unread_key_refused(self, spec):
        with pytest.raises(ValueError, match="unknown key"):
            cw.OperatorSpec.from_json(spec)

    def test_unknown_kind_refused(self):
        with pytest.raises(ValueError, match="unknown operator kind"):
            cw.OperatorSpec.from_json({"kind": "halfwav"})
        with pytest.raises(ValueError, match="must be a JSON object"):
            cw.WarpMap.from_json([0.3])

    @pytest.mark.parametrize("cls, where", [(cw.OperatorSpec, "operator"), (cw.VelocityModel, "velocity model"),
                                            (cw.WarpMap, "warp map")])
    def test_unknown_kind_has_one_message(self, cls, where):
        # read from JSON or built directly, a spec names its class in the refusal
        for make in (lambda: cls(kind="bogus"), lambda: cls.from_json({"kind": "bogus"})):
            with pytest.raises(ValueError, match=f"unknown {where} kind 'bogus'"):
                make()
        with pytest.raises(ValueError, match=rf"unknown {where} kind \['bogus'\]"):
            cls.from_json({"kind": ["bogus"]})

    # each kind given its required keys alone, and the named constructor
    # (for an operator, the dataclass) given the same values: the JSON
    # defaults are the Python ones, gaussian-bump's amplitude 0.2 included
    MINIMAL = [
        (cw.VelocityModel, {}, cw.VelocityModel.constant()),
        (cw.VelocityModel, {"kind": "constant"}, cw.VelocityModel.constant()),
        (cw.VelocityModel, {"kind": "sinusoidal", "amplitude": 0.2}, cw.VelocityModel.sinusoidal(0.2)),
        (cw.VelocityModel, {"kind": "gaussian-bump"}, cw.VelocityModel.gaussian_bump()),
        (cw.WarpMap, {}, cw.WarpMap.identity()),
        (cw.WarpMap, {"kind": "identity"}, cw.WarpMap.identity()),
        (cw.WarpMap, {"kind": "shear", "s": 0.3}, cw.WarpMap.shear(0.3)),
        (cw.WarpMap, {"kind": "sinusoidal", "amplitude": 0.05}, cw.WarpMap.sinusoidal(0.05)),
        (cw.OperatorSpec, {"kind": "gaussian-smooth", "width": 0.05}, cw.OperatorSpec(kind="gaussian-smooth", width=0.05)),
        *[(cw.OperatorSpec, {"kind": kind}, cw.OperatorSpec(kind=kind))
          for kind in ("identity", "halfwave", "cos-wave", "acoustic", "variable-wave", "psido", "warp")],
    ]

    @pytest.mark.parametrize("cls, spec, expected", MINIMAL,
                             ids=[f"{cls.__name__}-{spec.get('kind', 'default')}" for cls, spec, _ in MINIMAL])
    def test_required_keys_alone_give_the_python_defaults(self, cls, spec, expected):
        assert cls.from_json(spec) == expected

    def test_every_kind_has_a_minimal_spec(self):
        given = {(cls, spec["kind"]) for cls, spec, _ in self.MINIMAL if "kind" in spec}
        assert given == {(cls, kind) for cls in (cw.OperatorSpec, cw.VelocityModel, cw.WarpMap) for kind in cls._KEYS}

    def test_non_integer_wavevector_refused_when_built_directly(self):
        # as a warp map (TestWarp): the speed is periodic on the torus only for an integer k
        with pytest.raises(ValueError, match="wavevector must be integer"):
            cw.VelocityModel(kind="sinusoidal", amplitude=0.2, wavevector=(1.5, 0))

    @pytest.mark.parametrize(
        "make",
        [lambda: cw.VelocityModel.sinusoidal(0.2, (1.7, 0)), lambda: cw.WarpMap.sinusoidal(0.05, (1.5, 1))],
        ids=["velocity-model", "warp-map"],
    )
    def test_non_integer_wavevector_refused(self, make):
        # the constructors read the pair as manifests do, not by truncating it
        with pytest.raises(ValueError, match="wavevector must be a JSON integer; got 1.[57]"):
            make()

    HALFWAVE = cw.OperatorSpec(kind="halfwave", t=0.25, sign=-1, c0=2.0)
    ACOUSTIC = cw.OperatorSpec(kind="acoustic", t=0.2)
    OBJECTS = [
        cw.OperatorSpec(kind="identity"),
        HALFWAVE,
        HALFWAVE.adjoint(),
        cw.OperatorSpec(kind="cos-wave", t=0.25, c0=1.5),
        ACOUSTIC,
        ACOUSTIC.adjoint(),
        cw.OperatorSpec(kind="variable-wave", t=0.25, sign=-1, model=cw.VelocityModel.sinusoidal(0.2, (1, 0))),
        cw.OperatorSpec(kind="variable-wave", t=0.25, model=cw.VelocityModel.gaussian_bump((0.3, 0.6), 0.12, 0.25)),
        cw.OperatorSpec(kind="gaussian-smooth", width=0.05),
        cw.OperatorSpec(kind="psido", symbol="mixed"),
        cw.OperatorSpec(kind="warp"),
        cw.OperatorSpec(kind="warp", map=cw.WarpMap.shear(0.3)),
        cw.OperatorSpec(kind="warp", map=cw.WarpMap.sinusoidal(0.05, (1, 1))),
        cw.VelocityModel.constant(1.3),
        cw.VelocityModel.sinusoidal(0.1, (2, 3), c0=2.0),
        cw.VelocityModel.gaussian_bump((0.3, 0.6), 0.12, 0.25),
        cw.WarpMap.identity(),
        cw.WarpMap.shear(0.3),
        cw.WarpMap.sinusoidal(0.03, (2, 1)),
    ]

    @pytest.mark.parametrize("obj", OBJECTS, ids=lambda obj: f"{type(obj).__name__}-{obj.kind}")
    def test_object_round_trip(self, obj):
        # through text, as a manifest or report carries it
        assert type(obj).from_json(json.loads(json.dumps(obj.to_json()))) == obj

    @pytest.mark.parametrize("op", [obj for obj in OBJECTS if isinstance(obj, cw.OperatorSpec)], ids=lambda op: op.kind)
    def test_apply_states_its_error(self, op, rng):
        # variable-wave states chebyshev_wave's discarded tail from the same pass,
        # a warp its discarded Jacobi-Anger tail (none for the identity map);
        # the other kinds are exact to rounding
        f = np.stack([random_field(rng, 32) for _ in range(3)]) if op.is_vector else random_field(rng, 32)
        out, error = op.apply(f)
        if op.kind == "warp" and op.map.kind != "identity":
            assert 0.0 < error <= 1e-12 * np.linalg.norm(f)
            return
        if op.kind != "variable-wave":
            assert error == 0.0
            return
        u, bound = cw.chebyshev_wave(f, cw.oneway_velocity(f, op.speed, op.sign), op.speed, op.t)
        assert np.array_equal(out, u) and error == bound

    def test_variable_wave_without_model_reloads(self, rng):
        op = cw.OperatorSpec(kind="variable-wave", t=0.05, sign=-1, c0=1.5)
        again = cw.OperatorSpec.from_json(op.to_json())
        assert again.speed == op.speed == cw.VelocityModel.constant(1.5)
        f = random_field(rng, 32)
        assert np.array_equal(again.apply(f)[0], op.apply(f)[0])

    def test_adjoint_is_time_reversal(self, rng):
        f = random_field(rng, 32)
        forward = cw.OperatorSpec(kind="halfwave", t=0.25, c0=2.0)  # sign +, the time reversal of sign -
        assert np.array_equal(self.HALFWAVE.adjoint().apply(f)[0], forward.apply(f)[0])
        u = np.stack([random_field(rng, 32) for _ in range(3)])
        backward = cw.OperatorSpec(kind="acoustic", t=-0.2)
        assert np.array_equal(self.ACOUSTIC.adjoint().apply(u)[0], backward.apply(u)[0])
        with pytest.raises(ValueError, match="adjoint not available"):
            cw.OperatorSpec(kind="psido", symbol="mixed").adjoint()


class TestHyperCurvelets:
    def test_orthogonal_polarizations(self, frame128):
        mu = cw.CurveletIndex(4, 3, 4, 2)
        hp = cw.hyper_curvelet(frame128, mu, "+")
        hm = cw.hyper_curvelet(frame128, mu, "-")
        assert abs(np.vdot(hp, hm)) <= 1e-12

    def test_norm_preserved(self, frame128):
        mu = cw.CurveletIndex(4, 3, 4, 2)
        h = cw.hyper_curvelet(frame128, mu, "0")
        assert np.linalg.norm(h) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_isotropic(self, frame128):
        with pytest.raises(ValueError):
            cw.hyper_curvelet(frame128, cw.CurveletIndex(0, 0, 0, 0), "+")

    def test_propagation_keeps_polarization(self, frame128):
        # center-mode vectors leak O(2^-j); still above 99% at fine scales
        mu = cw.CurveletIndex(4, 1, 1, 1)
        fractions = cw.polarization_split(frame128, 0.25, mu, hyper_mode="center")
        assert fractions[1] >= 0.99
        exact = cw.polarization_split(frame128, 0.25, mu, hyper_mode="pointwise")
        assert exact[1] >= 1.0 - 1e-12

    def test_vector_parseval(self, frame64, rng):
        # coefficients against r_nu-aligned directional curvelets plus
        # canonical-basis isotropic curvelets reproduce the vector norm
        u = np.stack([random_field(rng, 64) for _ in range(3)])
        spec = spfft.fft2(u, norm="ortho")
        total = 0.0
        for branch in (1, -1, 0):
            r = cw.acoustic_polarization(64, branch)
            s = spfft.ifft2(np.einsum("cij,cij->ij", r, spec), norm="ortho")
            total += cw.analyze(frame64, s).norm2(kinds={"directional"})
        for comp in range(3):
            total += cw.analyze(frame64, u[comp]).norm2(kinds={"coarse", "guard"})
        norm2 = float(np.vdot(u, u).real)
        assert abs(total - norm2) <= 1e-10 * norm2
