import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import curvewave as cw
from curvewave.distance import PhasePoint, d, omega

import pinned

coords = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
freqs = st.floats(min_value=-60.0, max_value=60.0)


def point(x1, x2, xi1, xi2, directional=True):
    return PhasePoint(x=np.array([x1, x2]), xi=np.array([xi1, xi2]), directional=directional)


class TestFormula:
    def test_coincident(self):
        p = point(0.3, 0.7, 8.0, 3.0)
        assert d(p, p) == 0.0
        assert omega(p, p) == 1.0

    def test_angle_mod_pi(self):
        p = point(0.2, 0.2, 5.0, 0.0)
        q = point(0.2, 0.2, -5.0, 0.0)  # antipodal orientation
        assert d(p, q) == pytest.approx(0.0, abs=1e-14)

    def test_direct_formula(self):
        p = point(0.0, 0.0, 10.0, 0.0)
        q = point(0.1, 0.0, 10.0, 0.0)
        assert d(p, q) == pytest.approx(0.11, abs=1e-12)

    def test_omega_scale_factor(self):
        p = point(0.5, 0.5, 2.0**4, 0.0)
        q = point(0.5, 0.5, 2.0**6, 0.0)
        assert omega(p, q) == pytest.approx(4.0, abs=1e-12)

    def test_omega_weighted_distance(self):
        p = point(0.0, 0.0, 2.0**5, 0.0)
        q = point(0.1, 0.0, 2.0**5, 0.0)
        assert omega(p, q) == pytest.approx(1.0 + 32 * 0.11, abs=1e-10)

    def test_torus_wrap(self):
        p = point(0.05, 0.5, 8.0, 0.0)
        q = point(0.95, 0.5, 8.0, 0.0)  # 0.1 apart across the seam
        assert d(p, q) == pytest.approx(0.01 + 0.1, abs=1e-12)

    def test_zero_frequency_rejected(self):
        with pytest.raises(ValueError):
            point(0.0, 0.0, 0.0, 0.0)

    def test_isotropic_drops_angle_terms(self):
        p = point(0.0, 0.0, 1.0, 0.0, directional=False)
        q = point(0.1, 0.0, 1.0, 0.0, directional=False)
        assert d(p, q) == pytest.approx(0.01, abs=1e-14)


@settings(max_examples=150, deadline=None)
@given(coords, coords, freqs, freqs, coords, coords, freqs, freqs)
def test_basic_properties(a1, a2, f1, f2, b1, b2, g1, g2):
    if math.hypot(f1, f2) < 1e-3 or math.hypot(g1, g2) < 1e-3:
        return
    p = point(a1, a2, f1, f2)
    q = point(b1, b2, g1, g2)
    assert d(p, q) >= 0.0
    assert omega(p, q) >= 1.0
    assert d(p, p) == 0.0


class TestFrameProperties:
    def _sample(self, table, rng, count):
        return table.phase_points([table.flat_of_index(table.random_index(rng)) for _ in range(count)])

    def test_quasi_symmetry(self, frame64, frame128):
        stats = {}
        for name, table in (("64", frame64), ("128", frame128)):
            rng = np.random.default_rng(7)
            p = self._sample(table, rng, 10000)
            q = self._sample(table, rng, 10000)
            ratio = omega(p, q) / omega(q, p)
            stats[name] = float(np.max(ratio))
            assert stats[name] <= pinned.OMEGA_SYM_BOUND
        assert abs(stats["128"] / stats["64"] - 1.0) <= pinned.STABILITY_TOL

    def test_quasi_triangle(self, frame64, frame128):
        stats = {}
        for name, table in (("64", frame64), ("128", frame128)):
            rng = np.random.default_rng(7)
            p = self._sample(table, rng, 10000)
            q = self._sample(table, rng, 10000)
            r = self._sample(table, rng, 10000)
            ratio = d(p, q) / np.maximum(d(p, r) + d(r, q), 1e-300)
            assert float(np.max(ratio)) <= pinned.OMEGA_TRI_BOUND
            stats[name] = float(np.quantile(ratio, pinned.OMEGA_TRI_Q))
        assert abs(stats["128"] / stats["64"] - 1.0) <= pinned.STABILITY_TOL

    @staticmethod
    def directional_points(table):
        return table.phase_points(np.flatnonzero(table.phase_points(np.arange(table.size)).directional))

    def test_composition(self, frame64, frame128):
        # sum over the full directional index set, exponent N = 3 against
        # omega^-(N-1) on the right-hand side
        stats = {}
        for name, table in (("64", frame64), ("128", frame128)):
            everything = self.directional_points(table)
            rng = np.random.default_rng(9)
            mus = [table.random_index(rng) for _ in range(200)]
            sample = table.phase_points([table.flat_of_index(m) for m in mus])

            def one(i):
                p = PhasePoint(sample.x[i], sample.xi[i], True)
                return omega(p, everything) ** -3.0, omega(everything, p) ** -3.0

            rows = [one(i) for i in range(200)]
            a = np.stack([r[0] for r in rows])
            b = np.stack([r[1] for r in rows])
            lhs = a @ b.T
            rhs = np.stack(
                [omega(PhasePoint(sample.x[i], sample.xi[i], True), sample) ** -2.0 for i in range(200)]
            )
            ratio = lhs / rhs
            assert float(np.max(ratio)) <= pinned.OMEGA_COMP_BOUND
            stats[name] = float(np.quantile(ratio, pinned.OMEGA_COMP_Q))
        assert abs(stats["128"] / stats["64"] - 1.0) <= pinned.STABILITY_TOL

    def test_flow_quasi_invariance(self, frame64, frame128):
        model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
        stats = {}
        for name, table in (("64", frame64), ("128", frame128)):
            rng = np.random.default_rng(21)
            pairs = [(table.random_index(rng), table.random_index(rng)) for _ in range(100)]
            p1 = table.phase_points([table.flat_of_index(mu1) for mu1, _ in pairs])
            p2 = table.phase_points([table.flat_of_index(mu2) for _, mu2 in pairs])
            s1 = cw.flow(PhasePoint(p1.x, p1.xi), model, "+", 0.25)
            s2 = cw.flow(PhasePoint(p2.x, p2.xi), model, "+", 0.25)
            r = omega(PhasePoint(s1.x, s1.xi), PhasePoint(s2.x, s2.xi)) / omega(p1, p2)
            vals = np.maximum(r, 1.0 / r)
            assert max(vals) <= pinned.OMEGA_FLOW_BOUND
            stats[name] = float(np.median(vals))
        assert abs(stats["128"] / stats["64"] - 1.0) <= pinned.STABILITY_TOL

    def test_rigid_translation_preserves_omega(self, frame64):
        # c == 1: pairs with a common codirection move rigidly, ratio is 1
        model = cw.VelocityModel.constant(1.0)
        wedge_l = 3
        p1 = frame64.phase_point(cw.CurveletIndex(3, wedge_l, 1, 2))
        p2 = frame64.phase_point(cw.CurveletIndex(3, wedge_l, 4, 0))
        s1 = cw.flow(PhasePoint(p1.x, p1.xi), model, "+", 0.25)
        s2 = cw.flow(PhasePoint(p2.x, p2.xi), model, "+", 0.25)
        before = float(omega(p1, p2))
        after = float(omega(PhasePoint(s1.x, s1.xi), PhasePoint(s2.x, s2.xi)))
        assert after == pytest.approx(before, rel=1e-9)
