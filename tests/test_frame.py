import math
import re
import threading

import numpy as np
import pytest
import scipy.fft as spfft

import curvewave as cw
import curvewave._core as core
import curvewave.frame as frame_module
from curvewave.frame import FrameError, UnknownIndexError

import pinned
from conftest import random_field, rotated_box_energy


class TestBuild:
    def test_partition_of_unity_n64(self, frame64):
        # direct summation over all wedges at every grid frequency
        n = frame64.n
        acc = np.zeros(n * n)
        for w in frame64.wedges:
            np.add.at(acc, w.support, w.weights**2)
        assert np.max(np.abs(acc - 1.0)) <= 1e-10
        assert frame64.partition_defect <= 1e-12

    def test_degenerate_single_scale(self):
        # S = 1: pure low-pass frame; analyze reduces to a windowed FFT pair,
        # giving back the field samples up to the lattice carrier phase
        table = cw.build_frame(cw.FrameParams(n=32, scales=1))
        assert len(table.wedges) == 1
        f = np.random.default_rng(0).standard_normal((32, 32)) + 0j
        coeffs = cw.analyze(table, f)
        p = np.arange(32)
        carrier = (-1.0) ** (p[:, None] + p[None, :])
        assert np.allclose(coeffs.blocks[0] * carrier, f, atol=1e-12)

    def test_angle_counts_double_every_other_scale(self):
        table = cw.build_frame(cw.FrameParams(n=256, scales=6))
        counts = [table.angles(j) for j in table.directional_scales()]
        assert counts == [8, 8, 16, 16, 32]
        for a, b in zip(counts, counts[2:]):
            assert b == 2 * a

    def test_rejects_bad_params(self):
        with pytest.raises(FrameError):
            cw.build_frame(cw.FrameParams(n=63, scales=3))
        with pytest.raises(FrameError):
            cw.build_frame(cw.FrameParams(n=64, scales=7))
        with pytest.raises(FrameError):
            cw.build_frame(cw.FrameParams(n=16, scales=2))
        with pytest.raises(FrameError):
            cw.build_frame(cw.FrameParams(n=64, scales=3, angles_base=6))

    def test_wrap_is_an_isometry(self, frame64):
        # one entry at most per row and squared windows summing to one make
        # wrap.T @ wrap = I; the wedges' support and weights are views of wrap
        wrap = frame64.wrap
        assert wrap.shape == (frame64.size, frame64.n**2) and np.max(np.diff(wrap.indptr)) <= 1
        gram = (wrap.T @ wrap).tocoo()
        assert gram.nnz == frame64.n**2 and np.array_equal(gram.row, gram.col)
        assert np.max(np.abs(gram.data - 1.0)) <= 1e-12
        for w in frame64.wedges:
            assert np.shares_memory(w.support, wrap.indices) and np.shares_memory(w.weights, wrap.data)

    def test_wrapping_is_injective(self, frame128):
        for w in frame128.wedges:
            assert len(np.unique(w.wrapped)) == len(w.wrapped)
            assert w.wrapped.max() < w.size

    def test_guard_band_leaves_octave(self, frame128):
        finest = max(frame128.directional_scales())
        w = frame128.wedge(finest)
        r = np.hypot(*w.freqs)
        assert r.max() <= frame128.n / 4 + 1e-9

    @pytest.mark.parametrize("n, size", [(32, 1569), (64, 6903), (128, 28715), (256, 117523), (512, 472771)])
    def test_default_layout_size(self, n, size):
        # each rectangle is a closed-form function of its support; these
        # counts pin that rule at the command line's default scales
        assert cw.build_frame(cw.FrameParams(n=n, scales=n.bit_length() - 3)).size == size

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("windows", [{}, {"angles_base": 12, "smooth_step_order": 6, "transition": 0.3}])
    def test_ring_windows_equal_full_grid_products(self, n, windows):
        # build_frame evaluates each angular window on its sector only; the
        # full-grid product must have the same support and values
        table = cw.build_frame(cw.FrameParams(n=n, scales=n.bit_length() - 3, **windows))
        q = np.fft.fftfreq(n) * n
        radius, angle = np.hypot(q[:, None], q[None, :]), np.arctan2(q[None, :], q[:, None])
        for w in (w for w in table.wedges if w.kind == "directional"):
            dtheta = np.mod(angle - w.theta + np.pi, 2.0 * np.pi) - np.pi
            t = table.angles(w.j) * dtheta / (2.0 * np.pi)
            full = (table.windows.radial(radius / w.rho) * table.windows.angular(t)).ravel()
            order = np.argsort(w.support)
            assert np.array_equal(w.support[order], np.flatnonzero(full > 0.0))
            assert np.array_equal(w.weights[order], full[full > 0.0])

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("windows", [{}, {"angles_base": 12, "smooth_step_order": 6, "transition": 0.3}])
    def test_sector_windows_equal_whole_ring_evaluation(self, n, windows):
        # evaluating each wedge's window on the whole ring of its scale, in
        # ascending spectrum order, gives the support, weights and atom norm
        # that build_frame finds on the wedge's sector alone, bit for bit
        table = cw.build_frame(cw.FrameParams(n=n, scales=n.bit_length() - 3, **windows))
        q = np.fft.fftfreq(n) * n
        radius, angle = np.hypot(q[:, None], q[None, :]).ravel(), np.arctan2(q[None, :], q[:, None]).ravel()
        for w in (w for w in table.wedges if w.kind == "directional"):
            rad = table.windows.radial(radius / w.rho)
            ring = np.flatnonzero(rad > 0.0)
            dtheta = np.mod(angle[ring] - w.theta + np.pi, 2.0 * np.pi) - np.pi
            vals = rad[ring] * table.windows.angular(table.angles(w.j) * dtheta / (2.0 * np.pi))
            keep = vals > 0.0
            order = np.argsort(w.support)
            assert np.array_equal(w.support[order], ring[keep])
            assert np.array_equal(w.weights[order], vals[keep])
            assert w.atom_norm2 == float(vals[keep] @ vals[keep]) / w.size

    @pytest.mark.parametrize("size, box", [(1, (1, 1)), (60, (7, 40)), (500, (30, 12)), (3000, (64, 200))])
    def test_column_extent_equals_lexsort_reference(self, size, box, rng):
        # reference: sort the points by fiber, then by secondary coordinate,
        # and take each fiber's last minus first
        for _ in range(5):
            primary, secondary = rng.integers(0, box[0], size), rng.integers(0, box[1], size)
            order = np.lexsort((secondary, primary))
            p, s = primary[order], secondary[order]
            starts = np.flatnonzero(np.concatenate([[True], p[1:] != p[:-1]]))
            ends = np.concatenate([starts[1:], [len(p)]])
            expect = int(np.max(s[ends - 1] - s[starts])) + 1
            assert frame_module._column_extent(primary, secondary) == expect

    def test_non_injective_wrapping_refused(self, monkeypatch):
        # the one-to-one check reads the assembled wrapping matrix
        def collide(q1, q2):
            rect, wrapped = wrap_geometry(q1, q2)
            wrapped[1:2] = wrapped[:1]  # the second frequency lands on the first
            return rect, wrapped

        wrap_geometry = frame_module._wrap_geometry
        monkeypatch.setattr(frame_module, "_wrap_geometry", collide)
        with pytest.raises(FrameError, match="not one-to-one"):
            cw.build_frame(cw.FrameParams(n=32, scales=3))


@pytest.mark.parametrize("shape", [(128, 128), (2, 128, 128), (256, 256), (2, 256, 256)])
def test_fft_pair_is_scipy_ortho_bit_for_bit(shape, rng):
    # N = 128 runs on one thread and N = 256 on FFT_WORKERS; neither changes a bit
    assert (shape[-1] ** 2 >= core.THREADED_POINTS) == (shape[-1] == 256)
    x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.array_equal(core.fft2(x), spfft.fft2(x, norm="ortho"))
    assert np.array_equal(core.ifft2(x), spfft.ifft2(x, norm="ortho"))


def sequential_analyze(table, spectra):
    """Reference: one gather, then the inverse FFT of every wedge block on the calling thread."""
    lead, n = spectra.shape[:-2], table.n
    gathered = frame_module.kernels.wedge_gather(table.wrap, spectra.reshape(-1, n * n))
    coeffs = cw.CoeffSet(table, gathered.reshape(lead + (table.size,)))
    for block in coeffs.blocks:
        block[...] = spfft.ifft2(block, norm="ortho")
    return coeffs.packed


def sequential_synthesize(table, packed):
    """Reference: the FFT of every wedge block on the calling thread, one scatter, one inverse FFT."""
    rects = cw.CoeffSet(table, packed.copy())
    for block in rects.blocks:
        block[...] = spfft.fft2(block, norm="ortho")
    spectra = frame_module.kernels.wedge_scatter(table.wrap, rects.packed.reshape(-1, table.size))
    return spfft.ifft2(spectra.reshape(packed.shape[:-1] + (table.n, table.n)), norm="ortho")


class TestTransform:
    def test_parseval_and_roundtrip(self, frame64, rng):
        for _ in range(10):
            f = random_field(rng, frame64.n)
            coeffs = cw.analyze(frame64, f)
            nf = float(np.vdot(f, f).real)
            assert abs(coeffs.norm2() - nf) <= 1e-10 * nf
            rec = cw.synthesize(frame64, coeffs)
            assert np.linalg.norm(rec - f) <= 1e-10 * math.sqrt(nf)

    def test_stack_matches_fields(self, frame64, rng):
        # a (3, N, N) stack transforms bit for bit like its fields one at a time
        fields = np.stack([random_field(rng, frame64.n) for _ in range(3)])
        coeffs = cw.analyze(frame64, fields)
        assert coeffs.packed.shape == (3, frame64.size)
        assert all(np.shares_memory(b, coeffs.packed) for b in coeffs.blocks)
        rec = cw.synthesize(frame64, coeffs)
        for f, packed, r in zip(fields, coeffs.packed, rec):
            one = cw.analyze(frame64, f)
            assert np.array_equal(one.packed, packed) and np.array_equal(cw.synthesize(frame64, one), r)

    def test_synthesize_refuses_another_frame(self, frame64, rng):
        coeffs = cw.analyze(cw.build_frame(cw.FrameParams(n=64, scales=3)), random_field(rng, 64))
        with pytest.raises(FrameError, match="do not fit"):
            cw.synthesize(frame64, coeffs)

    def test_zero_field(self, frame64):
        coeffs = cw.analyze(frame64, np.zeros((64, 64)))
        assert coeffs.norm2() == 0.0
        assert np.linalg.norm(cw.synthesize(frame64, coeffs)) == 0.0

    def test_adjoint_identity(self, frame64, rng):
        for _ in range(20):
            f = random_field(rng, frame64.n)
            c = cw.analyze(frame64, random_field(rng, frame64.n))
            lhs = np.vdot(cw.analyze(frame64, f).packed, c.packed)
            rhs = np.vdot(f, cw.synthesize(frame64, c))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)

    def test_atom_coefficient_is_gram_diagonal(self, frame128):
        mu = cw.CurveletIndex(3, 5, 2, 1)
        atom = cw.frame_atom(frame128, mu)
        coeffs = cw.analyze(frame128, atom)
        expected = frame128.wedge(mu.j, mu.ell).atom_norm2
        assert coeffs[mu] == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self, frame64):
        with pytest.raises(FrameError):
            cw.analyze(frame64, np.zeros((32, 32)))

    def test_unknown_index(self, frame64):
        with pytest.raises(UnknownIndexError):
            cw.CoeffSet.zeros(frame64)[cw.CurveletIndex(9, 0, 0, 0)] = 1.0
        with pytest.raises(UnknownIndexError):
            frame64.center(cw.CurveletIndex(1, 0, 999, 0))

    def test_synthesize_from_mapping(self, frame64):
        mu = cw.CurveletIndex(2, 3, 1, 1)
        coeffs = cw.CoeffSet.zeros(frame64)
        coeffs[mu] = 2.0
        f1 = cw.synthesize(frame64, coeffs)
        assert np.allclose(f1, 2.0 * cw.frame_atom(frame64, mu), atol=1e-14)

    @pytest.mark.parametrize("mu", [(0, 0, 1, 2), (3, 5, 2, 1), (4, 9, 0, 3)])
    def test_atom_spectrum_analysis_skips_only_zero_blocks(self, frame128, mu):
        # (4, 9) lies at the finest directional scale, so it reaches the N x N guard block
        w, values = frame_module.atom_spectrum(frame128, cw.CurveletIndex(*mu))
        spectrum = np.zeros((frame128.n, frame128.n), dtype=np.complex128)
        spectrum.flat[w.support] = values
        coeffs = frame_module.analyze_spectrum(frame128, spectrum)
        assert np.array_equal(coeffs.packed, sequential_analyze(frame128, spectrum))
        missed = [not np.intersect1d(other.support, w.support).size for other in frame128.wedges]
        assert any(missed) and not any(b.any() for b, m in zip(coeffs.blocks, missed) if m)
        field = spfft.ifft2(spectrum, norm="ortho")
        reference = sequential_analyze(frame128, spfft.fft2(field, norm="ortho"))
        assert np.array_equal(cw.analyze(frame128, field).packed, reference)


@pytest.fixture(scope="module")
def frame512():
    return cw.build_frame(cw.FrameParams(n=512, scales=7))


class TestLanes:
    """Every wedge block of an ``analyze`` or ``synthesize`` call is transformed
    in one loop on the calling thread, at every N; every result is the
    sequential loop's."""

    @pytest.fixture(autouse=True)
    def two_workers(self, monkeypatch):
        # from N = 256 on the N x N FFTs take FFT_WORKERS: pin two, whatever this machine has
        monkeypatch.setattr(core, "FFT_WORKERS", 2)

    @staticmethod
    def _spy(patched):
        """Record (transform, block shape, thread, Python threads alive) of every scipy FFT."""
        calls = []
        for name in ("fft2", "ifft2"):
            def spied(x, *args, _orig=getattr(spfft, name), _name=name, **kwargs):
                calls.append((_name, x.shape[-2:], threading.current_thread(), threading.active_count()))
                return _orig(x, *args, **kwargs)

            patched.setattr(spfft, name, spied)
        return calls

    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_fields_and_stacks_equal_sequential_loop(self, n, lead, request, rng, monkeypatch):
        table = request.getfixturevalue(f"frame{n}")
        f = random_field(rng, n) if not lead else np.stack([random_field(rng, n) for _ in range(lead[0])])
        spectra = spfft.fft2(f, norm="ortho")
        expected = sequential_analyze(table, spectra)
        with monkeypatch.context() as patched:
            calls = self._spy(patched)
            coeffs = cw.analyze(table, f)
            rec = cw.synthesize(table, coeffs)
        assert np.array_equal(coeffs.packed, expected)
        assert np.array_equal(frame_module.analyze_spectrum(table, spectra).packed, expected)
        assert np.array_equal(rec, sequential_synthesize(table, coeffs.packed))
        guard = table.wedges[-1]
        assert guard.kind == "guard" and guard.rect == (n, n)
        blocks = [c for c in calls if c[1] == guard.rect][1:-1]  # between the field's fft2 and ifft2
        assert [c[0] for c in blocks] == ["ifft2", "fft2"]
        assert len([c for c in calls if c[1] != guard.rect]) == 2 * (len(table.wedges) - 1)

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_partial_spectra_equal_sequential_loop(self, n, request):
        table = request.getfixturevalue(f"frame{n}")
        guard = table.wedges[-1]
        w, values = frame_module.atom_spectrum(table, cw.CurveletIndex(2, 3, 1, 1))
        column = np.zeros((n, n), dtype=np.complex128)
        column.flat[w.support] = values
        only_guard = np.zeros((n, n), dtype=np.complex128)
        alone = np.setdiff1d(guard.support, np.concatenate([other.support for other in table.wedges[:-1]]))
        only_guard.flat[alone] = np.arange(1, alone.size + 1)
        for spectrum, guard_only in ((column, False), (only_guard, True)):
            coeffs = frame_module.analyze_spectrum(table, spectrum)
            assert np.array_equal(coeffs.packed, sequential_analyze(table, spectrum))
            assert np.array_equal(cw.synthesize(table, coeffs), sequential_synthesize(table, coeffs.packed))
            hit = [bool(b.any()) for b in coeffs.blocks]
            if guard_only:
                assert hit == [False] * (len(hit) - 1) + [True]
            else:
                assert 0 < sum(hit) < len(hit) // 2 and not hit[-1]

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_start_no_thread(self, n, request, rng, monkeypatch):
        # every FFT of a round trip, the guard's too, runs on the calling thread, and no thread starts
        table = request.getfixturevalue(f"frame{n}")
        f = random_field(rng, n)
        before = threading.active_count()
        with monkeypatch.context() as patched:
            calls = self._spy(patched)
            for _ in range(3):
                cw.synthesize(table, cw.analyze(table, f))
        assert len(calls) == 3 * 2 * (len(table.wedges) + 1)
        assert all(c[2] is threading.current_thread() and c[3] == before for c in calls)
        assert threading.active_count() == before

    def test_guard_error_propagates(self, frame256, rng, monkeypatch):
        f = random_field(rng, 256)
        with monkeypatch.context() as patched:
            orig = spfft.ifft2

            def failing(x, *args, **kwargs):
                if x.shape[-2:] == frame256.wedges[-1].rect:
                    raise RuntimeError("guard FFT failed")
                return orig(x, *args, **kwargs)

            patched.setattr(spfft, "ifft2", failing)
            with pytest.raises(RuntimeError, match="guard FFT failed"):
                cw.analyze(frame256, f)
        assert np.array_equal(cw.analyze(frame256, f).packed, sequential_analyze(frame256, spfft.fft2(f, norm="ortho")))

    def test_concurrent_callers_equal_sequential_loop(self, frame256, rng):
        # two threads sharing one table
        fields = [random_field(rng, 256) for _ in range(2)]
        expected = [sequential_analyze(frame256, spfft.fft2(f, norm="ortho")) for f in fields]
        rounds = [[], []]

        def round_trips(i):
            for _ in range(10):
                coeffs = cw.analyze(frame256, fields[i])
                rounds[i].append((coeffs.packed, cw.synthesize(frame256, coeffs)))

        callers = [threading.Thread(target=round_trips, args=(i,)) for i in range(2)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(60)
        assert not any(caller.is_alive() for caller in callers), "caller still running after 60 s"
        for i in range(2):
            assert len(rounds[i]) == 10
            rec = sequential_synthesize(frame256, expected[i])
            assert all(np.array_equal(c, expected[i]) and np.array_equal(r, rec) for c, r in rounds[i])


class TestLayout:
    def test_flat_index_round_trip(self, frame64):
        flat = np.arange(frame64.size)
        j, ell, k1, k2 = frame64.index_of_flat(flat)
        assert np.array_equal(frame64.flat_of_index((j, ell, k1, k2)), flat)
        for p in (0, 1234, frame64.size - 1):
            mu = cw.CurveletIndex(*(int(a[p]) for a in (j, ell, k1, k2)))
            assert frame64.flat_of_index(mu) == p

    @pytest.mark.parametrize(
        "bad",
        [(9, 0, 0, 0), (-1, 0, 0, 0), (1, 99, 0, 0), (1, -1, 0, 0), (2, 8, 0, 0), (2, 16, 0, 0),
         (2**62, 0, 0, 0), (1, 0, 999, 0), (1, 0, 0, 999), (1, 0, -1, 0), (1, 0, 0, -1)],
    )
    def test_flat_of_index_refuses_arrays_outside(self, frame64, bad):
        # two valid entries (1, 0, 0, 0), then the bad one, which the error names;
        # (2, 8) and (2, 16) are not wedges: scale 2 has 8 orientations, scale 3 has 16;
        # j = 2**62 wraps the int64 search key onto the coarse wedge's
        cols = [np.array([good, good, v]) for good, v in zip((1, 0, 0, 0), bad)]
        with pytest.raises(UnknownIndexError, match=re.escape(str(bad))):
            frame64.flat_of_index(tuple(cols))

    def test_index_of_flat_refuses_outside(self, frame64):
        for flat in ([-1], [0, frame64.size]):
            with pytest.raises(UnknownIndexError):
                frame64.index_of_flat(np.array(flat))

    def test_phase_points_match_phase_point(self, frame64):
        mus = [cw.CurveletIndex(w.j, w.ell, w.rect[0] - 1, w.rect[1] // 2) for w in frame64.wedges]
        stacked = frame64.phase_points([frame64.flat_of_index(mu) for mu in mus])
        for i, mu in enumerate(mus):
            one = frame64.phase_point(mu)
            w = frame64.wedge(mu.j, mu.ell)
            assert np.array_equal(stacked.x[i], one.x) and np.array_equal(one.x, [mu.k1 / w.rect[0], mu.k2 / w.rect[1]])
            assert np.array_equal(stacked.xi[i], one.xi)
            assert stacked.directional[i] == one.directional == (w.kind == "directional")
        assert np.array_equal(one.xi, frame64.xi_center(mu)) and np.array_equal(one.x, frame64.center(mu))

    @pytest.mark.parametrize("angles_base", [8, 12, 16])
    @pytest.mark.parametrize("n", [32, 64, 128, 256, 512])
    def test_nearest_index_inverts_phase_points(self, n, angles_base):
        # every directional packed position is the nearest index to its own phase-space center
        table = cw.build_frame(cw.FrameParams(n=n, scales=int(math.log2(n)) - 2, angles_base=angles_base))
        flat = np.flatnonzero(table.phase_points(np.arange(table.size)).directional)
        assert flat.size and np.array_equal(table.nearest_index(table.phase_points(flat)), flat)

    @pytest.mark.parametrize("scales", [None, [2], (2, 3)])
    def test_random_index_draws_from_directional_wedges(self, frame64, rng, scales):
        wedges = frame64.directional_wedges(scales)
        assert wedges == [w for w in frame64.wedges if w.kind == "directional" and (scales is None or w.j in scales)]
        drawn = {(mu.j, mu.ell) for mu in (frame64.random_index(rng, scales) for _ in range(400))}
        assert drawn == {(w.j, w.ell) for w in wedges}


class TestWaveform:
    def test_unit_norm(self, frame128):
        mu = cw.CurveletIndex(4, 7, 3, 2)
        w = cw.waveform(frame128, mu)
        assert 0.9 <= np.linalg.norm(w) <= 1.1
        assert np.linalg.norm(w) == pytest.approx(1.0, abs=1e-12)

    def test_frequency_support_in_wedge(self, frame128):
        mu = cw.CurveletIndex(4, 3, 5, 1)
        spec = spfft.fft2(cw.waveform(frame128, mu), norm="ortho").ravel()
        mask = np.zeros(frame128.n**2, dtype=bool)
        mask[frame128.wedge(mu.j, mu.ell).support] = True
        assert np.max(np.abs(spec[~mask])) <= 1e-12

    def test_envelope_box_energy(self, frame256, rng):
        mu = frame256.random_index(rng, scales=[5])
        wedge = frame256.wedge(mu.j, mu.ell)
        f = cw.waveform(frame256, mu)
        c = pinned.ENVELOPE_BOX_CONSTANT
        frac = rotated_box_energy(
            frame256, mu, f, half_major=0.5 * c / math.sqrt(wedge.rho), half_minor=0.5 * c / wedge.rho
        )
        assert frac >= pinned.ENVELOPE_BOX_MIN

    def test_atom_spectrum_is_the_atom_fft(self, frame128):
        mu = cw.CurveletIndex(4, 3, 5, 1)
        w, values = frame_module.atom_spectrum(frame128, mu)
        spec = spfft.fft2(cw.frame_atom(frame128, mu), norm="ortho").ravel()
        assert np.max(np.abs(spec[w.support] - values)) <= 1e-14

    def test_translates_of_one_mother(self, frame128):
        # atoms of one channel are exact translates: spectra agree up to the
        # lattice phase ramp exp(-2 pi i q . (k1/R1, k2/R2)) and a constant
        mu0 = cw.CurveletIndex(4, 5, 0, 0)
        mu1 = cw.CurveletIndex(4, 5, 3, 2)
        wedge = frame128.wedge(4, 5)
        s0 = spfft.fft2(cw.frame_atom(frame128, mu0), norm="ortho").ravel()[wedge.support]
        s1 = spfft.fft2(cw.frame_atom(frame128, mu1), norm="ortho").ravel()[wedge.support]
        q1, q2 = wedge.freqs
        ramp = np.exp(2j * np.pi * (q1 * mu1.k1 / wedge.rect[0] + q2 * mu1.k2 / wedge.rect[1]))
        pivot = np.argmax(np.abs(s0))
        const = s1[pivot] * ramp[pivot] / s0[pivot]
        assert abs(abs(const) - 1.0) <= 1e-12
        assert np.max(np.abs(s1 * ramp - const * s0)) <= 1e-12 * np.max(np.abs(s0))

    def test_parabolic_envelope_scaling(self, frame256):
        # measured envelope second moments scale as 2^-j x 2^-j/2 within x2
        stats = {}
        for j in (3, 4, 5):
            mu = frame256.random_index(np.random.default_rng(7), scales=[j])
            wedge = frame256.wedge(mu.j, mu.ell)
            f = np.abs(cw.waveform(frame256, mu)) ** 2
            n = frame256.n
            e = np.array([math.cos(wedge.theta), math.sin(wedge.theta)])
            x0 = frame256.center(mu)
            g = np.arange(n) / n
            r1 = np.mod(g[:, None] - x0[0] + 0.5, 1.0) - 0.5
            r2 = np.mod(g[None, :] - x0[1] + 0.5, 1.0) - 0.5
            um = e[0] * r1 + e[1] * r2
            uM = -e[1] * r1 + e[0] * r2
            wmin = math.sqrt(float((f * um**2).sum() / f.sum()))
            wmaj = math.sqrt(float((f * uM**2).sum() / f.sum()))
            stats[j] = (wmin * wedge.rho, wmaj * math.sqrt(wedge.rho))
        for axis in (0, 1):
            vals = [stats[j][axis] for j in stats]
            assert max(vals) / min(vals) <= 2.0


class TestMoleculeProfile:
    def test_waveform_is_molecule(self, frame256, rng):
        mu = frame256.random_index(rng, scales=[5])
        prof = cw.molecule_profile(frame256, cw.waveform(frame256, mu), mu)
        assert prof.is_molecule
        assert prof.minor_decay >= pinned.MOLECULE_MINOR_MIN
        assert np.isfinite(prof.moment_ratio)

    def test_constant_field_is_not(self, frame128):
        mu = cw.CurveletIndex(4, 0, 0, 0)
        prof = cw.molecule_profile(frame128, np.ones((128, 128), complex), mu)
        assert not prof.is_molecule

    def test_zero_field_rejected(self, frame128):
        with pytest.raises(FrameError):
            cw.molecule_profile(frame128, np.zeros((128, 128)), cw.CurveletIndex(4, 0, 0, 0))

    def test_propagated_profile_stable(self, frame256, rng):
        mu = frame256.random_index(rng, scales=[5])
        w0 = cw.waveform(frame256, mu)
        base = cw.molecule_profile(frame256, w0, mu)
        prop = cw.OperatorSpec(kind="halfwave", t=0.2).apply(w0)[0]
        _, snapped = cw.flow_index(frame256, mu, cw.VelocityModel.constant(1.0), "-", 0.2)
        moved = cw.molecule_profile(frame256, prop, snapped)
        tol = pinned.MOLECULE_PROPAGATED_TOL
        assert moved.minor_decay == pytest.approx(base.minor_decay, rel=tol)
        assert moved.major_decay == pytest.approx(base.major_decay, rel=tol)


class TestGram:
    def _normalized_gram_sample(self, table, seed, n_cols=15):
        rng = np.random.default_rng(seed)
        op = cw.OperatorSpec.from_json({"kind": "identity"})
        norms = {
            (w.j, w.ell): math.sqrt(w.atom_norm2) for w in table.wedges
        }
        c_max, logs = 0.0, []
        for _ in range(n_cols):
            mu = table.random_index(rng)
            col = cw.curvelet_column(table, op, mu, threshold=1e-9)
            om = cw.column_omegas(table, col, cw.VelocityModel.constant(1.0), 0.0)
            j, ell, _, _ = table.index_of_flat(col.rows_flat)
            rn = np.array([norms[(int(a), int(b))] for a, b in zip(j, ell)])
            g = np.abs(col.values) / (rn * norms[(mu.j, mu.ell)])
            keep = (g > 1e-7) & (om >= 1.0)
            c_max = max(c_max, float(np.max(g[keep] * om[keep] ** 2)))
            idx = np.flatnonzero(keep)[:40]
            logs.append((np.log(om[idx]), np.log(g[idx])))
        lw = np.concatenate([a for a, _ in logs])
        lg = np.concatenate([b for _, b in logs])
        slope = float(np.polyfit(lw, lg, 1)[0])
        return c_max, slope

    def test_gram_decay_bound_and_stability(self, frame64, frame128):
        c64, s64 = self._normalized_gram_sample(frame64, seed=42)
        c128, s128 = self._normalized_gram_sample(frame128, seed=42)
        assert c64 <= pinned.GRAM_BOUND and c128 <= pinned.GRAM_BOUND
        assert s64 <= pinned.GRAM_EXPONENT_MAX and s128 <= pinned.GRAM_EXPONENT_MAX
        assert abs(c128 / c64 - 1.0) <= pinned.GRAM_STABILITY

    def test_gram_lhalf_columns_bounded(self, frame128, frame256):
        op = cw.OperatorSpec.from_json({"kind": "identity"})

        def worst(table):
            rng = np.random.default_rng(5)
            vals = []
            for _ in range(20):
                mu = table.random_index(rng, scales=[2, 3, 4])
                col = cw.curvelet_column(table, op, mu)
                vals.append(float(np.sum(np.sqrt(np.abs(col.values)))))
            return max(vals)

        a, b = worst(frame128), worst(frame256)
        assert a <= pinned.GRAM_LHALF_BOUND and b <= pinned.GRAM_LHALF_BOUND
        assert abs(b / a - 1.0) <= pinned.GRAM_LHALF_STABILITY
