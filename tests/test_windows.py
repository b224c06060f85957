import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from curvewave.windows import build_windows


@pytest.fixture(scope="module")
def fam():
    return build_windows(4)


def test_rejects_low_order():
    with pytest.raises(ValueError):
        build_windows(1)
    with pytest.raises(ValueError):
        build_windows(0)


def test_rejects_bad_transition():
    with pytest.raises(ValueError):
        build_windows(4, transition=0.0)
    with pytest.raises(ValueError):
        build_windows(4, transition=0.7)


def test_radial_support(fam):
    assert fam.radial(0.4) == 0.0
    assert fam.radial(2.0) == 0.0
    assert fam.radial(1.0) == pytest.approx(1.0, abs=1e-14)
    r = np.geomspace(1e-3, 1e3, 400)
    vals = fam.radial(r)
    assert np.all(vals[(r < 0.5) | (r > 2.0)] == 0.0)


def test_angular_support(fam):
    assert fam.angular(0.0) == pytest.approx(1.0, abs=1e-14)
    assert fam.angular(1.0) == 0.0
    assert fam.angular(-1.2) == 0.0
    t = np.linspace(-3, 3, 301)
    assert np.all(fam.angular(t)[np.abs(t) > 1.0] == 0.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-9.9, max_value=9.9))
def test_radial_admissibility(u):
    fam = build_windows(4)
    r = 2.0**u
    total = sum(fam.radial(2.0**j * r) ** 2 for j in range(-14, 15))
    assert abs(total - 1.0) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10.0, max_value=10.0))
def test_angular_admissibility(t):
    fam = build_windows(4)
    total = sum(fam.angular(t - ell) ** 2 for ell in range(-12, 13))
    assert abs(total - 1.0) <= 1e-12


def test_angular_admissibility_example(fam):
    total = sum(fam.angular(0.37 - ell) ** 2 for ell in range(-5, 6))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_radial_admissibility_example(fam):
    total = sum(fam.radial(2.0**j * 1.3) ** 2 for j in range(-12, 13))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_lowpass_ladder(fam):
    r = np.geomspace(1e-3, 1e2, 500)
    total = fam.lowpass(r) ** 2
    for j in range(0, 12):
        total = total + fam.radial(2.0**-j * r) ** 2
    assert np.max(np.abs(total - 1.0)) <= 1e-12
    assert fam.lowpass(0.0) == 1.0
    assert fam.lowpass(1.0) == 0.0


def test_highpass_complement(fam):
    r = np.geomspace(0.1, 10, 400)
    total = fam.highpass(r) ** 2 + fam.radial(r) ** 2
    keep = r >= 1.0  # complement closes the ladder from above
    assert np.max(np.abs(total[keep] - 1.0)) <= 1e-12


@pytest.mark.parametrize("order", [2, 3, 4])
def test_smoothness_order(order):
    # W vanishes to order p at the support seam: the kth one-sided finite
    # difference at r = 1/2 scales like h^(p-k), so halving h divides the
    # k < p estimates by about 2^(p-k).
    import math

    fam = build_windows(order, transition=0.5)
    u0 = -1.0  # log2 seam at r = 1/2

    def kth_fd(k, h):
        nodes = u0 + h * np.arange(k + 1)
        coeffs = [(-1) ** (k - i) * math.comb(k, i) for i in range(k + 1)]
        vals = fam.radial(2.0**nodes)
        return float(np.dot(coeffs, vals)) / h**k

    for k in range(1, order):
        ratio = abs(kth_fd(k, 2e-2)) / max(abs(kth_fd(k, 1e-2)), 1e-300)
        expected = 2.0 ** (order - k)
        assert ratio == pytest.approx(expected, rel=0.5)
