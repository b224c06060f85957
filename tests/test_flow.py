import math

import numpy as np
import pytest

import curvewave as cw
from curvewave.flow import FlowState, VelocityModel, flow, flow_trajectory, normalize_branch

import pinned


class TestVelocityModel:
    def test_gradient_consistency(self):
        for model in (
            VelocityModel.constant(1.3),
            VelocityModel.sinusoidal(0.2, (1, 0)),
            VelocityModel.sinusoidal(0.1, (2, 3), c0=2.0),
            VelocityModel.gaussian_bump((0.3, 0.6), 0.12, 0.25),
        ):
            assert model.gradient_defect() <= 1e-6

    def test_positive_speed_required(self):
        with pytest.raises(ValueError):
            VelocityModel.sinusoidal(1.5, (1, 0))
        with pytest.raises(ValueError):
            VelocityModel.constant(0.0)
        with pytest.raises(ValueError):
            VelocityModel.gaussian_bump((0.5, 0.5), 0.1, -2.0)

    def test_json_round_trip(self):
        model = VelocityModel.sinusoidal(0.2, (1, 0))
        assert VelocityModel.from_json(model.to_json()) == model

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            normalize_branch("x")


class TestIntegrator:
    def test_straight_rays_unit_speed(self):
        state = FlowState.initial((0.2, 0.5), (1.0, 0.0))
        out = flow(state, VelocityModel.constant(1.0), "+", 0.3)
        assert out.x == pytest.approx([0.5, 0.5], abs=1e-12)
        assert out.xi == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_branch_zero_is_identity(self):
        state = FlowState.initial((0.2, 0.5), (3.0, 4.0))
        out = flow(state, VelocityModel.sinusoidal(0.2, (1, 0)), 0, 0.7)
        assert out is state

    def test_rk4_order(self):
        # Richardson: halving dt divides the error by about 2^4
        model = VelocityModel.sinusoidal(0.2, (1, 0))
        state = FlowState.initial((0.3, 0.4), (20.0, 8.0))
        ref = flow(state, model, "+", 0.5, dt=2.5e-4)

        def err(dt):
            out = flow(state, model, "+", 0.5, dt=dt)
            return np.linalg.norm(np.r_[out.x - ref.x, (out.xi - ref.xi) / 25.0])

        ratio = err(8e-3) / err(4e-3)
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    def test_hamiltonian_conserved(self):
        model = VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2)
        state = FlowState.initial((0.1, 0.2), (30.0, -10.0))
        h0 = model.c(state.x) * np.hypot(*state.xi)
        out = flow(state, model, "+", 1.0, dt=1e-3)
        h1 = model.c(out.x) * np.hypot(*out.xi)
        assert abs(h1 - h0) <= 1e-6 * abs(h0)

    def test_frequency_magnitude_constant_speed(self):
        state = FlowState.initial((0.7, 0.1), (5.0, 12.0))
        out = flow(state, VelocityModel.constant(2.0), "-", 0.4)
        assert np.hypot(*out.xi) == pytest.approx(13.0, abs=1e-12)

    def test_rotation_tracks_orientation(self):
        model = VelocityModel.sinusoidal(0.2, (1, 1))
        state = FlowState.initial((0.3, 0.3), (16.0, 4.0))
        times, states = flow_trajectory(state, model, "+", 0.5, dt=5e-3)
        for st in states:
            u = st.rotation
            assert np.allclose(u @ u.T, np.eye(2), atol=1e-9)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-9)
            assert u @ st.n == pytest.approx(st.n0, abs=1e-6)

    def test_time_reversal(self):
        model = VelocityModel.sinusoidal(0.15, (2, 1))
        state = FlowState.initial((0.25, 0.75), (24.0, -6.0))
        fwd = flow(state, model, "+", 0.6, dt=1e-3)
        back = flow(fwd, model, "+", -0.6, dt=1e-3)
        assert back.x == pytest.approx(state.x, abs=1e-6)
        assert back.xi == pytest.approx(state.xi, abs=1e-5)

    @pytest.mark.parametrize(
        "model", [VelocityModel.sinusoidal(0.15, (3, 5)), VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2)]
    )
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_stacked_flow_equals_single_rays(self, model, branch, rng):
        x = rng.random((8, 2))
        xi = rng.uniform(-40.0, 40.0, (8, 2))
        stacked = flow(FlowState.initial(x, xi), model, branch, 0.1)
        singles = [flow(FlowState.initial(a, b), model, branch, 0.1) for a, b in zip(x, xi)]
        assert np.max(np.abs(stacked.x - np.stack([s.x for s in singles]))) == 0.0
        assert np.max(np.abs(stacked.xi - np.stack([s.xi for s in singles]))) == 0.0
        assert np.max(np.abs(stacked.rotation - np.stack([s.rotation for s in singles]))) == 0.0

    def test_step_requires_nonzero_frequency(self):
        with pytest.raises(ValueError):
            FlowState.initial((0.0, 0.0), (0.0, 0.0))


class TestIndexFlow:
    def test_time_zero_is_identity(self, frame128):
        mu = cw.CurveletIndex(4, 3, 5, 5)
        point, snapped = cw.flow_index(frame128, mu, VelocityModel.constant(1.0), "+", 0.0)
        assert snapped == mu

    def test_coarse_maps_to_itself(self, frame128):
        mu = cw.CurveletIndex(0, 0, 1, 1)
        _, snapped = cw.flow_index(frame128, mu, VelocityModel.constant(1.0), "+", 0.3)
        assert snapped == mu

    def test_constant_speed_translation(self, frame128):
        mu = cw.CurveletIndex(4, 0, 2, 3)
        point, snapped = cw.flow_index(frame128, mu, VelocityModel.constant(1.0), "+", 0.25)
        e = frame128.codirection(mu)
        expected = np.mod(frame128.center(mu) + 0.25 * e, 1.0)
        assert point.x == pytest.approx(expected, abs=1e-9)
        assert np.hypot(*point.xi) == pytest.approx(frame128.wedge(4, 0).rho, abs=1e-9)
        assert (snapped.j, snapped.ell) == (mu.j, mu.ell)

    def test_snapping_is_deterministic(self, frame128):
        mu = cw.CurveletIndex(4, 2, 1, 1)
        model = VelocityModel.sinusoidal(0.2, (1, 0))
        a = cw.flow_index(frame128, mu, model, "+", 0.25)[1]
        b = cw.flow_index(frame128, mu, model, "+", 0.25)[1]
        assert a == b


class TestPredictedCurvelet:
    def test_time_zero_is_waveform(self, frame128):
        mu = cw.CurveletIndex(4, 5, 3, 1)
        pred = cw.predicted_curvelet(frame128, mu, VelocityModel.constant(1.0), "+", 0.0)
        assert np.allclose(pred, cw.waveform(frame128, mu), atol=1e-12)

    def test_constant_speed_is_translation(self, frame128):
        # U = Id for straight rays: prediction equals the translated waveform
        mu = cw.CurveletIndex(4, 0, 4, 6)
        t = 0.25
        pred = cw.predicted_curvelet(frame128, mu, VelocityModel.constant(1.0), "+", t)
        w = cw.waveform(frame128, mu)
        e = frame128.codirection(mu)
        shift = np.exp(
            -2j
            * np.pi
            * t
            * (
                np.fft.fftfreq(128)[:, None] * 128 * e[0]
                + np.fft.fftfreq(128)[None, :] * 128 * e[1]
            )
        )
        import scipy.fft as spfft

        translated = spfft.ifft2(spfft.fft2(w) * shift)
        assert np.max(np.abs(pred - translated)) <= 1e-9 * np.max(np.abs(w))

    def test_tracks_true_propagation(self, frame256, rng):
        mu = frame256.random_index(rng, scales=[5])
        wedge = frame256.wedge(mu.j, mu.ell)
        atom = cw.frame_atom(frame256, mu) / math.sqrt(wedge.atom_norm2)
        true = cw.apply_halfwave(atom, 0.2, "+")
        pred = cw.predicted_curvelet(frame256, mu, VelocityModel.constant(1.0), "-", 0.2)
        phase = np.vdot(true, pred)
        phase /= abs(phase)
        rel = np.linalg.norm(true - pred * np.conj(phase)) / np.linalg.norm(true)
        assert rel <= pinned.PREDICTED_L2_MAX

    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_equals_direct_sum(self, frame64, branch):
        # phi_mu(U (x - x_mu(t)) + x_mu) summed term by term over the wedge support
        mu = cw.CurveletIndex(3, 5, 2, 1)
        model = VelocityModel.sinusoidal(0.2, (1, 1))
        pred = cw.predicted_curvelet(frame64, mu, model, branch, 0.25)
        point, _ = cw.flow_index(frame64, mu, model, branch, 0.25)
        n0 = frame64.xi_center(mu) / np.hypot(*frame64.xi_center(mu))
        nt = point.xi / np.hypot(*point.xi)
        cos, sin = nt @ n0, nt[0] * n0[1] - nt[1] * n0[0]
        n = frame64.n
        grid = np.arange(n) / n
        g = np.mod(np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1) - point.x + 0.5, 1.0) - 0.5
        y1 = cos * g[..., 0] - sin * g[..., 1] + frame64.center(mu)[0]
        y2 = sin * g[..., 0] + cos * g[..., 1] + frame64.center(mu)[1]
        w = frame64.wedge(mu.j, mu.ell)
        freqs = w.freqs
        spec = np.fft.fft2(cw.waveform(frame64, mu))[freqs[0] % n, freqs[1] % n] / n**2
        direct = np.zeros((n, n), dtype=np.complex128)
        for c, q1, q2 in zip(spec, *freqs):
            direct += c * np.exp(2j * np.pi * (q1 * y1 + q2 * y2))
        assert np.max(np.abs(pred - direct)) <= 1e-12 * np.max(np.abs(direct))

    def test_rejects_isotropic_index(self, frame128):
        with pytest.raises(ValueError):
            cw.predicted_curvelet(frame128, cw.CurveletIndex(0, 0, 0, 0), VelocityModel.constant(1.0), "+", 0.1)
