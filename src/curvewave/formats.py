"""On-disk formats: field files, index-row CSVs, .npz sidecars and PGM quick-looks.

Field2D format: one JSON header line {"N": ..., "m": ..., "dtype": "c128le"}
followed by raw little-endian interleaved re/im float64 samples, row-major,
components contiguous.  Index-row CSV: an exact header line (COEFF_HEADER or
MATRIX_HEADER), then integer index cells and re,im as %.17g, CRLF line ends;
writing one can hash its bytes as they go, and ``sha256_file`` hashes a
file in chunks.  A sidecar is an uncompressed .npz of 1-D arrays that
``np.load`` reads with ``allow_pickle=False``: ``write_npz_parts`` streams
each array from parts, so no array is built whole, into a temporary file
it renames into place, and ``read_npz`` refuses a malformed file or an
array of another dtype or shape with FormatError.

The CSV layer holds each entry once.  Rows are written part by part (a
run of a matrix column's rows, or a wedge's coefficients, at a time), so
no array of every row's index cells is built; ``read_index_csv`` returns
views of the one array ``np.loadtxt`` parsed.  Each part formats its rows
through one row template: an index cell that every row of the part shares
is given as one int and written into the template once, so a row formats
only the cells that vary (k1, k2, re and im, in the parts written here).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from .frame import CoeffSet, FrameTable

__all__ = ["write_field", "read_field", "write_index_parts", "read_index_csv", "sha256_file",
           "write_npz_parts", "read_npz", "write_coeffs_csv", "read_coeffs_csv", "write_pgm"]

_MAGIC_DTYPE = "c128le"
COEFF_HEADER = ("j", "l", "k1", "k2", "nu", "re", "im")
MATRIX_HEADER = tuple(f"{side}_{c}" for side in ("row", "col") for c in COEFF_HEADER[:5]) + ("re", "im")
_CSV_BLOCK = 1024  # rows formatted per write (and coefficients decoded per part): one block's Python objects live at a time
_HASH_CHUNK = 1 << 16  # bytes read per update of sha256_file
_ZIP_TIME = (1980, 1, 1, 0, 0, 0)  # every sidecar entry's timestamp, so the same arrays give the same bytes


class FormatError(ValueError):
    """Malformed field or coefficient file."""


def write_field(path, f: np.ndarray) -> None:
    """Write a scalar (N,N) or vector (m,N,N) complex field."""
    f = np.asarray(f, dtype=np.complex128)
    if f.ndim == 2:
        m = 1
    elif f.ndim == 3:
        m = f.shape[0]
    else:
        raise FormatError(f"field must be (N,N) or (m,N,N), got {f.shape}")
    n = f.shape[-1]
    if f.shape[-2] != n:
        raise FormatError("field must be square")
    header = json.dumps({"N": n, "m": m, "dtype": _MAGIC_DTYPE})
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii") + b"\n")
        fh.write(np.ascontiguousarray(f).astype("<c16").tobytes())


def read_field(path) -> np.ndarray:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("ascii"))
            n, m, dtype = int(header["N"]), int(header["m"]), header["dtype"]
        except (ValueError, KeyError, UnicodeDecodeError) as exc:
            raise FormatError(f"bad field header: {exc}") from exc
        if dtype != _MAGIC_DTYPE:
            raise FormatError(f"unsupported dtype {dtype!r}")
        raw = fh.read()
    expect = m * n * n * 16
    if len(raw) != expect:
        raise FormatError(f"field payload has {len(raw)} bytes, expected {expect}")
    data = np.frombuffer(raw, dtype="<c16").astype(np.complex128)
    return data.reshape((n, n) if m == 1 else (m, n, n))


def write_index_parts(path, header, parts, digest=None) -> None:
    """Write one row per entry of each (index, values) part in turn: the
    integer ``index`` cells (an array per header name before re,im, or an int
    shared by every row of the part, formatted once into its row template),
    then the complex ``values``.  A generator keeps one part alive at a time.
    A ``digest`` (a hashlib object) is updated with the bytes as they go."""

    def write(text: str) -> None:
        data = text.encode("ascii")
        if digest is not None:
            digest.update(data)
        fh.write(data)

    with open(path, "wb") as fh:
        write(",".join(header) + "\r\n")
        for index, values in parts:
            if len(index) != len(header) - 2:
                raise ValueError(f"{len(index)} index cells for the {len(header) - 2} of {','.join(header)}")
            values = np.asarray(values, dtype=np.complex128)
            shared = [isinstance(i, (int, np.integer)) for i in index]
            line = ",".join(["%d" % i if s else "%d" for i, s in zip(index, shared)] + ["%.17g", "%.17g"]) + "\r\n"
            columns = [np.asarray(i, dtype=np.int64) for i, s in zip(index, shared) if not s]
            columns += [values.real, values.imag]
            for start in range(0, len(values), _CSV_BLOCK):
                cells = [column[start : start + _CSV_BLOCK].tolist() for column in columns]
                write("".join([line % row for row in zip(*cells)]))


def read_index_csv(path, header):
    """(index, values) of a :func:`write_index_parts` file, in file order; index
    holds one int64 row per index column.  Both are views of the parsed rows,
    so the entries are held once.  A header other than ``header``, a
    non-integer index cell, a non-numeric cell or a wrong column count raise
    FormatError."""
    dtype = [(name, np.int64) for name in header[:-2]] + [("re", np.float64), ("im", np.float64)]
    rows = np.zeros(0, dtype)
    with open(path) as fh:
        if fh.readline().rstrip("\n") != ",".join(header):
            raise FormatError(f"{path}: the header is not {','.join(header)}")
        start = fh.tell()
        if fh.read(1):  # more than a header
            fh.seek(start)
            try:
                rows = np.loadtxt(fh, delimiter=",", dtype=dtype, comments=None, ndmin=1)
            except ValueError as exc:
                raise FormatError(f"{path}: {exc}") from None
    # the fields are contiguous 8-byte cells: index ones, then re and im
    shape = (len(rows), len(header))
    index = rows.view(np.int64).reshape(shape)[:, :-2].T
    values = rows.view(np.float64).reshape(shape)[:, -2:].view(np.complex128)[:, 0]
    return index, values


def sha256_file(path) -> str:
    """SHA-256 hex digest of a file, read in chunks into one buffer."""
    digest, buf = hashlib.sha256(), bytearray(_HASH_CHUNK)
    with open(path, "rb", buffering=0) as fh:
        while n := fh.readinto(buf):
            digest.update(memoryview(buf)[:n])
    return digest.hexdigest()


def write_npz_parts(path, arrays) -> None:
    """Write an uncompressed .npz of 1-D arrays, one per (name, dtype, length,
    parts) of ``arrays``: the array's data are the ``parts`` (arrays of that
    dtype) in turn, which must hold ``length`` items in all.  The file is
    written under a temporary name beside ``path`` and renamed to it, so a
    write that fails leaves no file at ``path``."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with zipfile.ZipFile(tmp, "w") as zf:
            for name, dtype, length, parts in arrays:
                dtype = np.dtype(dtype)
                with zf.open(zipfile.ZipInfo(f"{name}.npy", _ZIP_TIME), "w", force_zip64=True) as fh:
                    header = {"descr": np.lib.format.dtype_to_descr(dtype), "fortran_order": False, "shape": (length,)}
                    np.lib.format.write_array_header_1_0(fh, header)
                    written = 0
                    for part in parts:
                        part = np.ascontiguousarray(part, dtype=dtype)
                        fh.write(part.view(np.uint8))
                        written += len(part)
                if written != length:
                    raise ValueError(f"{name}: {written} items written, {length} declared")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def read_npz(path, dtypes) -> dict:
    """The 1-D arrays of a :func:`write_npz_parts` file, by name, for each
    name -> dtype of ``dtypes``, read by ``np.load`` with ``allow_pickle=False``.
    A file that is no such .npz, a missing array and an array of another
    dtype or not 1-D raise FormatError."""
    try:
        with np.load(path, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in dtypes}
    except (OSError, ValueError, TypeError, KeyError, EOFError, zipfile.BadZipFile) as exc:
        raise FormatError(f"{path}: not a readable .npz: {exc}") from None
    for name, dtype in dtypes.items():
        a = arrays[name]
        if not isinstance(a, np.ndarray):
            raise FormatError(f"{path}: {name} is not an .npy array")
        if a.dtype != np.dtype(dtype) or a.ndim != 1:
            raise FormatError(f"{path}: {name} is {a.dtype} of shape {a.shape}, not 1-D {np.dtype(dtype)}")
    return arrays


def write_coeffs_csv(path, coeffs: CoeffSet) -> None:
    """Write the nonzero coefficients as rows j,l,k1,k2,nu,re,im (nu = 0),
    one part per block of a wedge's coefficients: j, l and nu are shared.
    A stack of fields' coefficients is refused before the file is opened."""
    flat = coeffs.packed
    if flat.ndim != 1:
        raise ValueError(f"coefficients of shape {flat.shape} are a stack; a CSV holds one field's")
    keep = np.flatnonzero(np.abs(flat) > 0.0)

    def parts():
        for w in coeffs.table.wedges:
            lo, hi = np.searchsorted(keep, [w.offset, w.offset + w.size])
            for start in range(lo, hi, _CSV_BLOCK):
                b = keep[start : min(start + _CSV_BLOCK, hi)]
                yield (w.j, w.ell, *np.divmod(b - w.offset, w.rect[1]), 0), flat[b]

    write_index_parts(path, COEFF_HEADER, parts())


def read_coeffs_csv(path, table: FrameTable) -> CoeffSet:
    """Coefficients of one scalar field (every nu must be 0)."""
    (j, ell, k1, k2, nu), values = read_index_csv(path, COEFF_HEADER)
    if np.any(nu != 0):
        raise FormatError(f"{path}: nu must be 0 for the coefficients of one scalar field")
    packed = np.zeros(table.size, dtype=np.complex128)
    packed[table.flat_of_index((j, ell, k1, k2))] = values
    return CoeffSet(table, packed)


def write_pgm(path, f: np.ndarray, floor_db: float = -80.0) -> None:
    """8-bit log-magnitude quick-look image of a complex field."""
    mag = np.abs(np.asarray(f))
    peak = mag.max()
    if peak == 0:
        img = np.zeros(mag.shape, dtype=np.uint8)
    else:
        db = 20.0 * np.log10(np.maximum(mag / peak, 10 ** (floor_db / 20.0)))
        img = np.round((db - floor_db) / (-floor_db) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
