import math

import numpy as np
import pytest

import curvewave as cw
from curvewave.distance import PhasePoint
from curvewave.flow import VelocityModel, flow, flow_trajectory, normalize_branch, rotation

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

    @pytest.mark.parametrize("width", [0.05, 0.1, 0.2, 0.3, 0.4])
    @pytest.mark.parametrize("amplitude", [0.2, -0.3, -0.5])
    def test_bump_bounds_bracket_sampled_speed(self, width, amplitude):
        # the periodic images lift the peak above c0 + amplitude once the
        # bump is wide (1.2367 at width 0.4, amplitude 0.2); the bounds are
        # attained at the center and the antipode, both on this grid
        model = VelocityModel.gaussian_bump((0.5, 0.5), width, amplitude)
        grid = np.arange(256) / 256
        c = model.c(np.stack(np.meshgrid(grid, grid, indexing="ij"), axis=-1))
        assert model.c_min == pytest.approx(c.min(), abs=1e-12)
        assert model.c_max == pytest.approx(c.max(), abs=1e-12)

    def test_bump_below_zero_refused(self):
        # true minimum 1 - 0.85 * 1.1835 < 0, where c0 + amplitude reads 0.15
        with pytest.raises(ValueError, match="c_min > 0"):
            VelocityModel.gaussian_bump((0.5, 0.5), 0.4, -0.85)

    def test_wide_bump_smooth_across_antipode(self):
        # every image above 1e-17 is summed, so dc/dx1 does not jump where x1 wraps
        model = VelocityModel.gaussian_bump((0.5, 0.5), 0.4, 0.2)
        _, c1, _ = model.c_and_partials(np.array([1e-7, 1.0 - 1e-7]), np.array([0.3, 0.3]))
        assert abs(c1[0] - c1[1]) <= 1e-6

    def test_json_round_trip(self):
        model = VelocityModel.sinusoidal(0.2, (1, 0))
        assert VelocityModel.from_json(model.to_json()) == model

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            normalize_branch("x")


class TestIntegrator:
    def test_straight_rays_unit_speed(self):
        state = PhasePoint((0.2, 0.5), (1.0, 0.0))
        out = flow(state, VelocityModel.constant(1.0), "+", 0.3)
        assert out.x == pytest.approx([0.5, 0.5], abs=1e-12)
        assert out.xi == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_branch_zero_is_identity(self):
        state = PhasePoint((0.2, 0.5), (3.0, 4.0))
        out = flow(state, VelocityModel.sinusoidal(0.2, (1, 0)), 0, 0.7)
        assert out is state

    def test_rk4_order(self):
        # Richardson: halving dt divides the error by about 2^4
        model = VelocityModel.sinusoidal(0.2, (1, 0))
        state = PhasePoint((0.3, 0.4), (20.0, 8.0))
        ref = flow(state, model, "+", 0.5, dt=2.5e-4)

        def err(dt):
            out = flow(state, model, "+", 0.5, dt=dt)
            return np.linalg.norm(np.r_[out.x - ref.x, (out.xi - ref.xi) / 25.0])

        ratio = err(8e-3) / err(4e-3)
        assert 16.0 * 0.7 <= ratio <= 16.0 * 1.3

    def test_hamiltonian_conserved(self):
        model = VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2)
        state = PhasePoint((0.1, 0.2), (30.0, -10.0))
        h0 = model.c(state.x) * np.hypot(*state.xi)
        out = flow(state, model, "+", 1.0, dt=1e-3)
        h1 = model.c(out.x) * np.hypot(*out.xi)
        assert abs(h1 - h0) <= 1e-6 * abs(h0)

    def test_frequency_magnitude_constant_speed(self):
        state = PhasePoint((0.7, 0.1), (5.0, 12.0))
        out = flow(state, VelocityModel.constant(2.0), "-", 0.4)
        assert np.hypot(*out.xi) == pytest.approx(13.0, abs=1e-12)

    def test_rotation_tracks_orientation(self):
        model = VelocityModel.sinusoidal(0.2, (1, 1))
        state = PhasePoint((0.3, 0.3), (16.0, 4.0))
        times, states = flow_trajectory(state, model, "+", 0.5, dt=5e-3)
        for st in states:
            u = rotation(state, st)
            assert np.allclose(u @ u.T, np.eye(2), atol=1e-9)
            assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-9)
            assert u @ st.e == pytest.approx(state.e, abs=1e-6)

    def test_time_reversal(self):
        model = VelocityModel.sinusoidal(0.15, (2, 1))
        state = PhasePoint((0.25, 0.75), (24.0, -6.0))
        fwd = flow(state, model, "+", 0.6, dt=1e-3)
        back = flow(fwd, model, "+", -0.6, dt=1e-3)
        assert back.x == pytest.approx(state.x, abs=1e-6)
        assert back.xi == pytest.approx(state.xi, abs=1e-5)

    @pytest.mark.parametrize(
        "model",
        [
            VelocityModel.sinusoidal(0.15, (3, 5)),
            VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2),
            VelocityModel.constant(1.5),
        ],
    )
    @pytest.mark.parametrize("branch", ["+", "-"])
    def test_stacked_flow_equals_single_rays(self, model, branch, rng):
        x = rng.random((8, 2))
        xi = rng.uniform(-40.0, 40.0, (8, 2))
        start = PhasePoint(x, xi)
        stacked = flow(start, model, branch, 0.1)
        starts = [PhasePoint(a, b) for a, b in zip(x, xi)]
        singles = [flow(s, model, branch, 0.1) for s in starts]
        assert np.max(np.abs(stacked.x - np.stack([s.x for s in singles]))) == 0.0
        assert np.max(np.abs(stacked.xi - np.stack([s.xi for s in singles]))) == 0.0
        rotations = np.stack([rotation(s0, s) for s0, s in zip(starts, singles)])
        assert np.max(np.abs(rotation(start, stacked) - rotations)) == 0.0
        # one ray's speed and partials are Python floats, not 0-d arrays
        assert all(type(v) is float for v in model.c_and_partials(*x[0].tolist()))

    @pytest.mark.parametrize(
        "model", [VelocityModel.sinusoidal(0.15, (3, 5)), VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2)]
    )
    @pytest.mark.parametrize("branch", ["+", "-"])
    @pytest.mark.parametrize("factor", [4.0, 0.125])
    def test_flow_homogeneous_in_frequency(self, model, branch, factor):
        # dx/dt has degree 0 in xi and dxi/dt degree 1, so |xi| sets no time
        # scale: scaling xi by a power of two scales the flowed xi exactly
        x, xi = np.array([0.3, 0.4]), np.array([20.0, 8.0])
        out = flow(PhasePoint(x, xi), model, branch, 0.25)
        scaled = flow(PhasePoint(x, factor * xi), model, branch, 0.25)
        assert np.array_equal(scaled.x, out.x)
        assert np.array_equal(scaled.xi, factor * out.xi)

    def test_step_requires_nonzero_frequency(self):
        with pytest.raises(ValueError):
            PhasePoint((0.0, 0.0), (0.0, 0.0))

    @pytest.mark.parametrize("x, xi", [((math.nan, 0.5), (16.0, 0.0)), ((0.5, 0.5), (math.inf, 0.0))])
    def test_point_requires_finite_coordinates(self, x, xi):
        with pytest.raises(ValueError, match="finite"):
            PhasePoint(x, xi)

    @pytest.mark.parametrize("dt", [-1.0, 0.0, math.nan, math.inf])
    @pytest.mark.parametrize("integrate", [flow, flow_trajectory])
    def test_bad_step_refused(self, integrate, dt):
        # dt = -1 once took a single step of size t; dt = 0 divided by zero
        with pytest.raises(ValueError, match="dt"):
            integrate(PhasePoint((0.3, 0.4), (20.0, 8.0)), VelocityModel.constant(1.0), "+", 0.25, dt=dt)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, 1e308])  # 1e308 / dt overflows
    @pytest.mark.parametrize("integrate", [flow, flow_trajectory])
    def test_non_finite_time_refused(self, integrate, t):
        with pytest.raises(ValueError, match="flow t"):
            integrate(PhasePoint((0.3, 0.4), (20.0, 8.0)), VelocityModel.constant(1.0), "+", t)


def reference_c_and_grad(model, x):
    """c and grad c on (..., 2) arrays, written as whole-array formulas."""
    if model.kind == "constant":
        return np.broadcast_to(np.float64(model.c0), x.shape[:-1]).copy(), np.zeros_like(x)
    if model.kind == "sinusoidal":
        k1, k2 = model.wavevector
        phase = 2.0 * np.pi * (x[..., 0] * k1 + x[..., 1] * k2)
        k = np.asarray(model.wavevector, dtype=float)
        return model.c0 + model.amplitude * np.sin(phase), 2.0 * np.pi * model.amplitude * np.cos(phase)[..., None] * k
    reach = math.ceil(0.5 + model.width * math.sqrt(2.0 * math.log(1e17)))
    y = np.mod(x - np.asarray(model.center) + 0.5, 1.0) - 0.5
    g = dg = 0.0
    for m in range(-reach, reach + 1):
        e = np.exp(-0.5 * (y + m) ** 2 / model.width**2)
        g, dg = g + e, dg - (y + m) * e
    dg = dg / model.width**2
    return model.c0 + model.amplitude * g[..., 0] * g[..., 1], model.amplitude * dg * g[..., ::-1]


def reference_rk4(x, xi, model, sign, t, dt=1e-3):
    """Classical RK4 on (..., 2) arrays of x and xi, with flow's step count and size."""
    steps = max(1, math.ceil(abs(t) / dt - 1e-12))
    h = t / steps

    def rhs(x, xi):
        mag = np.hypot(xi[..., 0], xi[..., 1])[..., None]
        c, grad = reference_c_and_grad(model, x)
        return sign * c[..., None] * xi / mag, -sign * mag * grad

    for _ in range(steps):
        k1x, k1s = rhs(x, xi)
        k2x, k2s = rhs(x + 0.5 * h * k1x, xi + 0.5 * h * k1s)
        k3x, k3s = rhs(x + 0.5 * h * k2x, xi + 0.5 * h * k2s)
        k4x, k4s = rhs(x + h * k3x, xi + h * k3s)
        x = np.mod(x + h / 6.0 * (k1x + 2 * k2x + 2 * k3x + k4x), 1.0)
        xi = xi + h / 6.0 * (k1s + 2 * k2s + 2 * k3s + k4s)
    return x, xi


class TestCoordinateStep:
    """The integrator steps (x1, x2, xi1, xi2) one component at a time; its
    rays must equal the classical RK4 on (..., 2) arrays bit for bit."""

    @pytest.mark.parametrize(
        "model",
        [
            VelocityModel.constant(1.3),
            VelocityModel.sinusoidal(0.15, (3, 5)),
            VelocityModel.gaussian_bump((0.4, 0.6), 0.15, 0.2),
        ],
        ids=["constant", "sinusoidal", "gaussian-bump"],
    )
    @pytest.mark.parametrize("branch", [1, -1])
    @pytest.mark.parametrize("t", [0.1, -0.1])
    def test_equals_array_rk4(self, model, branch, t, rng):
        x = rng.random((5, 2))
        xi = rng.uniform(-40.0, 40.0, (5, 2))
        stacked = flow(PhasePoint(x, xi), model, branch, t)
        ref_x, ref_xi = reference_rk4(x, xi, model, branch, t)
        assert np.array_equal(stacked.x, ref_x) and np.array_equal(stacked.xi, ref_xi)
        one = flow(PhasePoint(x[0], xi[0]), model, branch, t)
        ref_x, ref_xi = reference_rk4(x[0], xi[0], model, branch, t)
        assert np.array_equal(one.x, ref_x) and np.array_equal(one.xi, ref_xi)
        times, points = flow_trajectory(PhasePoint(x[0], xi[0]), model, branch, t)
        assert times[-1] == pytest.approx(t, abs=1e-15)
        assert np.array_equal(points[-1].x, one.x) and np.array_equal(points[-1].xi, one.xi)

    def test_partials_match_gradient(self):
        model = VelocityModel.gaussian_bump((0.3, 0.6), 0.12, 0.25)
        x = np.array([[0.1, 0.9], [0.45, 0.55]])
        c, c1, c2 = model.c_and_partials(x[:, 0], x[:, 1])
        ref_c, ref_grad = reference_c_and_grad(model, x)
        assert np.array_equal(c, ref_c) and np.array_equal(np.stack((c1, c2), axis=-1), ref_grad)
        assert np.array_equal(model.c(x), c) and c.shape == c1.shape == c2.shape == (2,)


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

    @pytest.mark.parametrize("branch, t", [("+", 0.25), ("-", 0.25), ("+", -0.25), ("0", 0.25), ("+", 0.0)])
    def test_packed_positions_equal_single_indices(self, frame64, branch, t, rng):
        # one stack through flow_index gives each index's own point and snap, bit for bit
        model = VelocityModel.sinusoidal(0.2, (1, 1))
        flat = np.concatenate([[0, 5, frame64.size - 1], rng.integers(0, frame64.size, 9)])  # coarse, guard
        points, snapped = cw.flow_index(frame64, flat.reshape(3, 4), model, branch, t)
        assert points.x.shape == (3, 4, 2) and snapped.shape == (3, 4)
        for i, f in enumerate(flat):
            mu = cw.CurveletIndex(*(int(v) for v in frame64.index_of_flat(f)))
            point, single = cw.flow_index(frame64, mu, model, branch, t)
            assert np.array_equal(points.x.reshape(-1, 2)[i], point.x)
            assert np.array_equal(points.xi.reshape(-1, 2)[i], point.xi)
            assert points.directional.ravel()[i] == point.directional
            assert snapped.ravel()[i] == frame64.flat_of_index(single)

    @pytest.mark.parametrize("flat", [[5.7], np.array([True, False]), np.array([5.0])])
    def test_packed_positions_must_be_integers(self, frame64, flat):
        # np.int64 of 5.7 is 5: a cast would flow and snap index 5 without a word
        with pytest.raises(ValueError, match="integers"):
            cw.flow_index(frame64, flat, VelocityModel.constant(1.0), "+", 0.25)

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
        true = cw.OperatorSpec(kind="halfwave", t=0.2).apply(atom)[0]
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
