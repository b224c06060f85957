import math

import numpy as np
import pytest
import scipy.fft as spfft

import curvewave as cw


@pytest.fixture(scope="session")
def frame64():
    return cw.build_frame(cw.FrameParams(n=64, scales=4))


@pytest.fixture(scope="session")
def frame128():
    return cw.build_frame(cw.FrameParams(n=128, scales=5))


@pytest.fixture(scope="session")
def frame256():
    return cw.build_frame(cw.FrameParams(n=256, scales=6))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_field(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def parse_index_csv(path, header):
    """(index, values) of a non-empty index-row CSV, parsed here with
    ``np.loadtxt``, so the written text is checked independently of the
    library (which reads no CSV): ``index`` holds one int64 row per index
    column, and ``values`` is re + i im with both parts' bits kept."""
    dtype = [(name, np.int64) for name in header[:-2]] + [("re", np.float64), ("im", np.float64)]
    with open(path, newline="") as fh:
        assert fh.readline() == ",".join(header) + "\r\n"
        rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
    values = np.empty(len(rows), np.complex128)
    values.real, values.imag = rows["re"], rows["im"]
    return np.stack([rows[name] for name in header[:-2]]), values


def trig_polynomial(n, coefficients):
    """sum_m a_m exp(2 pi i m.x) on the N x N grid, for coefficients {(m1, m2): a_m}."""
    x = np.arange(n) / n
    return sum(a_m * np.exp(2j * np.pi * (m1 * x[:, None] + m2 * x[None, :])) for (m1, m2), a_m in coefficients.items())


def psido_on_grid(f, symbol):
    """sum_q a_q(x) ifft2(b_q fft2(f)), each spatial factor a_q evaluated on the
    grid: the grid reference for a PsidoSymbol."""
    spec = spfft.fft2(f, norm="ortho")
    out = np.zeros(f.shape, dtype=complex)
    for a, b in symbol.terms:
        g = spfft.ifft2(spec if b is None else b * spec, norm="ortho")
        out += trig_polynomial(f.shape[-1], {(0, 0): 1.0} if a is None else a) * g
    return out


def rotated_box_energy(table, mu, f, half_major, half_minor):
    """Energy of f inside the rotated box around the center of mu."""
    wedge = table.wedge(mu.j, mu.ell)
    n = table.n
    e = np.array([math.cos(wedge.theta), math.sin(wedge.theta)])
    x0 = table.center(mu)
    g = np.arange(n) / n
    r1 = np.mod(g[:, None] - x0[0] + 0.5, 1.0) - 0.5
    r2 = np.mod(g[None, :] - x0[1] + 0.5, 1.0) - 0.5
    u_minor = np.abs(e[0] * r1 + e[1] * r2)
    u_major = np.abs(-e[1] * r1 + e[0] * r2)
    box = (u_minor <= half_minor) & (u_major <= half_major)
    return float(np.sum(np.abs(f[box]) ** 2))
