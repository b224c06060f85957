import json
import math

import numpy as np
import pytest
import scipy.fft as spfft

import curvewave as cw
from curvewave.propagators import named_symbol

import pinned
from conftest import random_field

N = 64


def plane_wave(n, q1, q2):
    x = np.arange(n) / n
    return np.exp(2j * np.pi * (q1 * x[:, None] + q2 * x[None, :]))


class TestHalfwave:
    def test_time_zero_identity(self, rng):
        f = random_field(rng, N)
        assert np.allclose(cw.apply_halfwave(f, 0.0, "+"), f, atol=1e-14)

    def test_plane_wave_eigenfunction(self):
        pw = plane_wave(N, 3, 4)
        out = cw.apply_halfwave(pw, 0.1, "+", c0=1.5)
        expected = pw * np.exp(1j * 1.5 * 0.1 * 2 * np.pi * 5.0)
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_unitary(self, rng):
        f = random_field(rng, N)
        out = cw.apply_halfwave(f, 0.37, "-", c0=2.0)
        assert abs(np.linalg.norm(out) - np.linalg.norm(f)) <= 1e-12 * np.linalg.norm(f)

    def test_group_property(self, rng):
        f = random_field(rng, N)
        a = cw.apply_halfwave(cw.apply_halfwave(f, 0.2, "+"), 0.15, "+")
        b = cw.apply_halfwave(f, 0.35, "+")
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_needs_sign(self, rng):
        with pytest.raises(ValueError):
            cw.apply_halfwave(random_field(rng, N), 0.1, 0)


class TestCosWave:
    def test_time_zero(self, rng):
        u0 = random_field(rng, N)
        u1 = random_field(rng, N)
        assert np.allclose(cw.apply_cos_wave(u0, u1, 0.0), u0, atol=1e-14)

    def test_plane_wave(self):
        pw = plane_wave(N, 5, 0)
        out = cw.apply_cos_wave(pw, np.zeros_like(pw), 0.2, c0=1.0)
        assert np.allclose(out, math.cos(2 * np.pi * 5 * 0.2) * pw, atol=1e-12)

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

    def test_time_zero_identity(self, rng):
        u = np.stack([random_field(rng, N) for _ in range(3)])
        assert np.allclose(cw.apply_acoustic(u, 0.0), u, atol=1e-12)

    def test_unitary(self, rng):
        u = np.stack([random_field(rng, N) for _ in range(3)])
        out = cw.apply_acoustic(u, 0.4)
        assert abs(np.linalg.norm(out) - np.linalg.norm(u)) <= 1e-12 * np.linalg.norm(u)

    def test_polarized_data_stays_polarized(self, rng):
        g = random_field(rng, N)
        spec = spfft.fft2(g, norm="ortho")
        r = cw.acoustic_polarization(N, "+")
        u = spfft.ifft2(r * spec[None], norm="ortho")
        out = cw.apply_acoustic(u, 0.3)
        fractions = cw.polarization_fractions(out)
        assert fractions[1] >= 1.0 - 1e-12

    def test_plus_branch_matches_halfwave(self, rng):
        # r_+ polarized data evolves by the scalar multiplier exp(-i |xi| t)
        g = random_field(rng, N)
        spec = spfft.fft2(g, norm="ortho")
        r = cw.acoustic_polarization(N, "+")
        u = spfft.ifft2(r * spec[None], norm="ortho")
        out = cw.apply_acoustic(u, 0.3)
        scalar = cw.apply_halfwave(g, 0.3, "-")  # e^{-i|xi|t}
        expected = spfft.ifft2(r * spfft.fft2(scalar, norm="ortho")[None], norm="ortho")
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_requires_three_components(self, rng):
        with pytest.raises(ValueError):
            cw.apply_acoustic(np.zeros((2, N, N), complex), 0.1)


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
        expected = cw.apply_halfwave(u0, 0.25, "+")
        assert np.linalg.norm(u - expected) <= 1e-6 * np.linalg.norm(expected)


class TestGaussianSmooth:
    def test_small_width_is_identity(self, rng):
        # frequencies are physical (2 pi q on the unit torus), so the
        # multiplier deviates by w^2 |xi|^2 <= 8e4 w^2 at this grid size
        f = random_field(rng, N)
        out = cw.apply_gaussian_smooth(f, 1e-6)
        assert np.max(np.abs(out - f)) <= 1e-6 * np.max(np.abs(f))
        out = cw.apply_gaussian_smooth(f, 1e-8)
        assert np.max(np.abs(out - f)) <= 1e-10 * np.max(np.abs(f))

    def test_constant_field_unchanged(self):
        f = np.full((N, N), 2.5 + 0j)
        assert np.allclose(cw.apply_gaussian_smooth(f, 0.3), f, atol=1e-12)

    def test_rejects_nonpositive_width(self, rng):
        with pytest.raises(ValueError):
            cw.apply_gaussian_smooth(random_field(rng, N), 0.0)

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
        f = random_field(rng, N)
        a = 1.0 + 0.5 * np.cos(2 * np.pi * np.arange(N) / N)[:, None] * np.ones((1, N))
        out = cw.apply_psido(f, cw.PsidoSymbol.spatial(a))
        assert np.allclose(out, a * f, atol=1e-12)

    def test_multiplier_symbol_matches_halfwave(self, rng):
        f = random_field(rng, N)
        q = np.fft.fftfreq(N) * N
        mag = 2 * np.pi * np.hypot(q[:, None], q[None, :])
        out = cw.apply_psido(f, cw.PsidoSymbol.multiplier(np.exp(1j * mag * 0.2)))
        assert np.allclose(out, cw.apply_halfwave(f, 0.2, "+"), atol=1e-12)

    def test_rejects_non_separable_spec(self, rng):
        with pytest.raises(TypeError):
            cw.apply_psido(random_field(rng, N), lambda x, xi: 1.0)

    def test_named_spec_applies_without_resolving(self, rng):
        # the spec resolves its named symbol from the field's grid size
        f = random_field(rng, N)
        out = cw.OperatorSpec.from_json({"kind": "psido", "symbol": "mixed"}).apply(f)
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


class TestWarp:
    def test_identity_map(self, rng):
        f = random_field(rng, N)
        out = cw.apply_warp(f, cw.WarpMap.identity())
        assert np.max(np.abs(out - f)) <= 1e-9 * np.max(np.abs(f))

    def test_plane_wave_composition_exact(self):
        # A grid plane wave is its own trigonometric interpolant, so f(phi(x)) is known in closed form.
        n = 32
        g = np.arange(n) / n
        x = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1)
        a = np.array([3.0, -2.0])
        for warp in (cw.WarpMap.shear(0.4), cw.WarpMap.sinusoidal(0.05, (1, 1))):
            out = cw.apply_warp(np.exp(2j * np.pi * (x @ a)), warp)
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
        out = cw.apply_warp(f, warp)
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
        out = cw.apply_warp(f, cw.WarpMap.sinusoidal(0.02, (1, 0)))
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
        {"kind": "variable-wave", "t": 0.25, "sign": "+", "dt": 1e-3,
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
        cw.OperatorSpec(
            kind="variable-wave", t=0.25, dt=1e-3, model=cw.VelocityModel.gaussian_bump((0.3, 0.6), 0.12, 0.25)
        ),
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

    def test_variable_wave_without_model_reloads(self, rng):
        op = cw.OperatorSpec(kind="variable-wave", t=0.05, sign=-1, c0=1.5)
        again = cw.OperatorSpec.from_json(op.to_json())
        assert again.speed == op.speed == cw.VelocityModel.constant(1.5)
        f = random_field(rng, 32)
        assert np.array_equal(again.apply(f), op.apply(f))

    def test_adjoint_is_time_reversal(self, rng):
        f = random_field(rng, 32)
        assert np.array_equal(self.HALFWAVE.adjoint().apply(f), cw.apply_halfwave(f, 0.25, "+", 2.0))
        u = np.stack([random_field(rng, 32) for _ in range(3)])
        assert np.array_equal(self.ACOUSTIC.adjoint().apply(u), cw.apply_acoustic(u, -0.2))
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
