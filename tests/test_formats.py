import hashlib
import re
import zipfile

import numpy as np
import pytest

import curvewave as cw
from curvewave import formats
from curvewave.frame import UnknownIndexError

from conftest import random_field


class TestFieldFile:
    def test_scalar_round_trip(self, tmp_path, rng):
        f = random_field(rng, 64)
        path = tmp_path / "field.bin"
        formats.write_field(path, f)
        back = formats.read_field(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back, f)

    def test_vector_round_trip(self, tmp_path, rng):
        u = np.stack([random_field(rng, 32) for _ in range(3)])
        path = tmp_path / "vec.bin"
        formats.write_field(path, u)
        back = formats.read_field(path)
        assert back.shape == (3, 32, 32)
        assert np.array_equal(back, u)

    def test_header_is_json_line(self, tmp_path, rng):
        import json

        path = tmp_path / "field.bin"
        formats.write_field(path, random_field(rng, 32))
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header == {"N": 32, "m": 1, "dtype": "c128le"}

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not json\n1234")
        with pytest.raises(formats.FormatError):
            formats.read_field(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path = tmp_path / "bad.bin"
        formats.write_field(path, random_field(rng, 32))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(formats.FormatError):
            formats.read_field(path)

    def test_non_square_rejected(self, tmp_path):
        with pytest.raises(formats.FormatError):
            formats.write_field(tmp_path / "x.bin", np.zeros((4, 8), complex))


class TestCoeffsCsv:
    def test_round_trip(self, frame64, rng, tmp_path):
        f = random_field(rng, 64)
        coeffs = cw.analyze(frame64, f)
        path = tmp_path / "coeffs.csv"
        formats.write_coeffs_csv(path, coeffs)
        back = formats.read_coeffs_csv(path, frame64)
        assert np.array_equal(back.packed.view(np.float64), coeffs.packed.view(np.float64))  # bit for bit

    def test_header_columns(self, frame64, tmp_path):
        path = tmp_path / "coeffs.csv"
        formats.write_coeffs_csv(path, cw.CoeffSet.zeros(frame64))
        with open(path) as fh:
            assert fh.readline().strip() == "j,l,k1,k2,nu,re,im"

    def test_zero_field_empty(self, frame64, tmp_path):
        path = tmp_path / "coeffs.csv"
        formats.write_coeffs_csv(path, cw.analyze(frame64, np.zeros((64, 64))))
        assert len(path.read_text().strip().splitlines()) == 1  # header only

    def test_stack_refused_before_the_file_opens(self, frame64, rng, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_text("kept\n")
        stack = cw.analyze(frame64, np.stack([random_field(rng, 64) for _ in range(2)]))
        with pytest.raises(ValueError, match=re.escape(str((2, frame64.size)))):
            formats.write_coeffs_csv(path, stack)
        assert path.read_text() == "kept\n"

    def test_crlf_rows(self, frame64, rng, tmp_path):
        coeffs = cw.analyze(frame64, random_field(rng, 64))
        path = tmp_path / "coeffs.csv"
        formats.write_coeffs_csv(path, coeffs)
        lines = path.read_bytes().split(b"\r\n")
        assert lines[-1] == b"" and len(lines) == frame64.size + 2  # header, one row each, final CRLF
        j, ell, k1, k2 = frame64.index_of_flat([5])
        c = coeffs.packed[5]
        assert lines[6].decode() == f"{j[0]},{ell[0]},{k1[0]},{k2[0]},0,{c.real:.17g},{c.imag:.17g}"

    def test_blocks_equal_one_part(self, frame64, rng, tmp_path):
        # reference: every nonzero coefficient's row decoded and written as one part
        coeffs = cw.analyze(frame64, random_field(rng, 64))
        coeffs.packed[::3] = 0.0
        keep = np.flatnonzero(coeffs.packed)
        j, ell, k1, k2 = frame64.index_of_flat(keep)
        reference = tmp_path / "reference.csv"
        formats.write_index_parts(reference, formats.COEFF_HEADER, [((j, ell, k1, k2, 0 * j), coeffs.packed[keep])])
        formats.write_coeffs_csv(tmp_path / "coeffs.csv", coeffs)
        assert len(keep) > 2 * formats._CSV_BLOCK
        assert (tmp_path / "coeffs.csv").read_bytes() == reference.read_bytes()

    def test_exact_bytes(self, tmp_path):
        # %d index cells, %.17g values (negative zero and subnormal-range
        # magnitudes included), CRLF after every line
        path = tmp_path / "coeffs.csv"
        index = ([3, 4], [-7, 0], [2**62, -(2**40)], [0, 5], [0, 0])
        formats.write_index_parts(path, formats.COEFF_HEADER, [(index, [complex(-0.0, 1e-300), complex(0.1, -1e-300)])])
        assert path.read_bytes() == (
            b"j,l,k1,k2,nu,re,im\r\n"
            b"3,-7,4611686018427387904,0,0,-0,1e-300\r\n"
            b"4,0,-1099511627776,5,0,0.10000000000000001,-1e-300\r\n"
        )
        path = tmp_path / "matrix.csv"
        index = ([2], [1], [0], [-3], [0], [4], [12], [2**53 + 1], [7], [2])
        formats.write_index_parts(path, formats.MATRIX_HEADER, [(index, [complex(-2.5e17, 0.0)])])
        assert path.read_bytes() == (
            b"row_j,row_l,row_k1,row_k2,row_nu,col_j,col_l,col_k1,col_k2,col_nu,re,im\r\n"
            b"2,1,0,-3,0,4,12,9007199254740993,7,2,-2.5e+17,0\r\n"
        )
        formats.write_index_parts(path, formats.MATRIX_HEADER, [([[]] * 10, [])])
        assert path.read_bytes() == b",".join(name.encode() for name in formats.MATRIX_HEADER) + b"\r\n"

    @pytest.mark.parametrize(
        "body, message",
        [
            ("j,l,k1,k2,re,im\r\n1,0,0,0,1,0\r\n", "header"),
            ("j,l,k1,k2,nu,re,im\r\n1,0,0,x,0,1,0\r\n", "could not convert"),
            ("j,l,k1,k2,nu,re,im\r\n1,0,0,0.5,0,1,0\r\n", "could not convert"),
            ("j,l,k1,k2,nu,re,im\r\n1,0,0,0,0,1\r\n", "columns"),
            ("j,l,k1,k2,nu,re,im\r\n1,0,0,0,1,1,0\r\n", "nu must be 0"),
        ],
    )
    def test_malformed_refused(self, frame64, tmp_path, body, message):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(body.encode())
        with pytest.raises(formats.FormatError, match=message):
            formats.read_coeffs_csv(path, frame64)

    def test_index_outside_frame_refused(self, frame64, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(b"j,l,k1,k2,nu,re,im\r\n1,0,0,999,0,1,0\r\n")
        with pytest.raises(UnknownIndexError):
            formats.read_coeffs_csv(path, frame64)


class TestDigestsAndNpz:
    def test_write_hashes_its_bytes(self, frame64, rng, tmp_path):
        path = tmp_path / "coeffs.csv"
        coeffs = cw.analyze(frame64, random_field(rng, 64))
        keep = np.flatnonzero(coeffs.packed)[: 3 * formats._CSV_BLOCK]
        index = (*frame64.index_of_flat(keep), 0)
        digest = hashlib.sha256()
        formats.write_index_parts(path, formats.COEFF_HEADER, [(index, coeffs.packed[keep])], digest)
        assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest() == formats.sha256_file(path)
        assert path.stat().st_size > formats._HASH_CHUNK  # the file is hashed in more than one chunk

    def test_npz_parts_load_with_np_load(self, rng, tmp_path):
        path = tmp_path / "arrays.npz"
        values = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        formats.write_npz_parts(path, [("ints", np.int64, 5, [np.arange(2), [], np.arange(2, 5)]),
                                       ("values", np.complex128, 50, [values[:7], values[7:]])])
        with np.load(path, allow_pickle=False) as npz:
            assert np.array_equal(npz["ints"], np.arange(5)) and np.array_equal(npz["values"], values)
        arrays = formats.read_npz(path, {"ints": np.int64, "values": np.complex128})
        assert np.array_equal(arrays["ints"], np.arange(5)) and np.array_equal(arrays["values"], values)
        with pytest.raises(formats.FormatError, match="values is complex128 of shape"):
            formats.read_npz(path, {"values": np.float64})
        with pytest.raises(formats.FormatError, match="not a readable .npz"):
            formats.read_npz(path, {"other": np.int64})

    def test_npz_part_lengths_must_add_up(self, tmp_path):
        with pytest.raises(ValueError, match="4 items written, 5 declared"):
            formats.write_npz_parts(tmp_path / "arrays.npz", [("ints", np.int64, 5, [np.arange(4)])])
        assert list(tmp_path.iterdir()) == []

    def test_failed_npz_write_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "arrays.npz"
        formats.write_npz_parts(path, [("ints", np.int64, 3, [np.arange(3)])])
        old = path.read_bytes()

        def parts():
            yield np.arange(2)
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            formats.write_npz_parts(path, [("ints", np.int64, 4, parts())])
        assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == old

    def test_npy_member_that_is_not_an_array(self, tmp_path):
        path = tmp_path / "arrays.npz"
        with zipfile.ZipFile(path, "w") as zf:
            zf.writestr("ints.npy", b"raw bytes")
        with pytest.raises(formats.FormatError, match="ints is not an .npy array"):
            formats.read_npz(path, {"ints": np.int64})
        np.save(path.with_suffix(".npy"), np.arange(3))
        with pytest.raises(formats.FormatError, match="not a readable .npz"):
            formats.read_npz(path.with_suffix(".npy"), {"ints": np.int64})


class TestPgm:
    def test_writes_valid_header(self, tmp_path, rng):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, random_field(rng, 32))
        data = path.read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert len(data) == len(b"P5\n32 32\n255\n") + 32 * 32

    def test_zero_field(self, tmp_path):
        path = tmp_path / "img.pgm"
        formats.write_pgm(path, np.zeros((16, 16)))
        assert path.read_bytes().endswith(bytes(16 * 16))
