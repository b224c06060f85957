"""Digest of every output of the shipped configs and of a transport sample.

Runs, in this process through ``cli.main``:

- frame-check, matrix and sparsity on each ``configs/*.json`` (``matrix``
  writes ``matrix.csv`` and its sidecar ``matrix.csv.npz``, which
  ``sparsity`` reads back in place of the CSV's text);
- transform on seeded fields at N = 128 and 256;
- flow for branches + and 0 (the sinusoidal speed of
  ``configs/variable_wave_n128.json``);
- propagate for every operator kind (psido once per ``SYMBOL_IDS``
  entry) on seeded fields at N = 64 and 128.

It also saves as ``.npy`` a transport sample at N = 256 (``flow_index``
for 12 indices x 3 branches under each of ``SPEEDS``, the constant,
sinusoidal and Gaussian-bump speeds, and one ``predicted_curvelet`` with
the sinusoidal speed), a spectral sample (the ``build_matrix`` columns of two
indices for every operator kind at N = 64 and 128: one column per index
for a scalar kind, one per index and component 0, 1 and 2 for the
acoustic system, each row saved as component x frame size + packed
position; ``hyper_curvelet`` in both modes for each branch;
``polarization_split`` fractions at t = 0.3 of the same indices, under
components 0, 1, 2 and both hyper modes, one row of branches +, -, 0 per
index and selector) and the
``molecule_profile`` of waveforms at N = 128 and 256.  Each command's
standard output is saved next to its files, with OUTDIR stripped.
``chebyshev.json`` lists the variable-wave expansion at t = 0.25 under
each of ``SPEEDS`` at each N of ``FRAME_SIZES``: the number of Chebyshev
coefficients kept and the two stated tails (the bounds on the discarded
cosine and sine coefficients), computed without a solve.
``frames.sha256`` holds one digest per frame (its wrapping matrix and
wedge table): the default frame at each N from 32 to 1024, a frame with
non-default windows at each N, and the frame of each config.  Then the
script prints one ``sha256  relative-path`` line per file under OUTDIR,
sorted.

The configs are read from the ``configs`` directory next to this script,
so both checkouts below are listed from the same inputs; the script
exits 1, naming that directory, when it holds no ``*.json``.  Two
checkouts give the same listing exactly when every output is
byte-identical.  From the repository root:

    PYTHONPATH=src python scripts/config_outputs.py /tmp/after > after.txt
    PYTHONPATH=<other checkout>/src python scripts/config_outputs.py /tmp/before > before.txt
    diff before.txt after.txt

``--compare BEFORE AFTER`` then prints one line per file that differs
between two such OUTDIRs.  For ``.npy``, ``.field`` and sidecar ``.npz``
arrays of unchanged shapes the line gives the largest |change| relative
to the largest |before| entry and says whether the integer arrays (the
rows) are identical; any other file, or a changed shape, reads "differs":

    PYTHONPATH=src python scripts/config_outputs.py --compare /tmp/before /tmp/after
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

import curvewave as cw
from curvewave import formats
from curvewave.cli import main
from curvewave.propagators import SYMBOL_IDS, _wave_expansion

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
T_FLOW = 0.25
FRAME_SIZES = (32, 64, 128, 256, 512, 1024)
OTHER_WINDOWS = {"angles_base": 12, "smooth_step_order": 6, "transition": 0.3}
SINUSOIDAL = {"kind": "sinusoidal", "amplitude": 0.2, "wavevector": [1, 0]}
SPEEDS = {
    "constant": {"kind": "constant", "c0": 1.5},
    "sinusoidal": SINUSOIDAL,
    "gaussian-bump": {"kind": "gaussian-bump", "center": [0.4, 0.6], "width": 0.15, "amplitude": 0.2},
}
OPERATORS = {
    "identity": {"kind": "identity"},
    "halfwave-plus": {"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0},
    "halfwave-minus": {"kind": "halfwave", "sign": "-", "t": 0.37, "c0": 2.0},
    "cos-wave": {"kind": "cos-wave", "t": 0.3, "c0": 1.5},
    "gaussian-smooth": {"kind": "gaussian-smooth", "width": 0.01},
    **{f"psido-{symbol}": {"kind": "psido", "symbol": symbol} for symbol in SYMBOL_IDS},
    "warp": {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": 0.02, "wavevector": [1, 1]}},
    "acoustic": {"kind": "acoustic", "t": 0.2},
    "variable-wave": {"kind": "variable-wave", "sign": "+", "t": 0.25, "model": SINUSOIDAL},
}

SPLIT_SELECTORS = [{"component": c} for c in range(3)] + [{"hyper_mode": m} for m in ("pointwise", "center")]


def run(outdir: Path, name: str, args: list[str]) -> None:
    """``cli.main(args)`` with its exit code and stdout saved as ``name.stdout``."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(args)
    text = captured.getvalue().replace(str(outdir), "OUTDIR")
    (outdir / f"{name}.stdout").write_text(f"exit {code}\n{text}")


def transport_sample(outdir: Path) -> None:
    table = cw.build_frame(cw.FrameParams(n=256, scales=6))
    rng = np.random.default_rng(5)
    mus = [table.random_index(rng) for _ in range(12)]
    for name, spec in SPEEDS.items():
        model = cw.VelocityModel.from_json(spec)
        for branch, label in (("+", "plus"), ("-", "minus"), (0, "zero")):
            results = [cw.flow_index(table, mu, model, branch, T_FLOW) for mu in mus]
            stem = outdir / f"flow_index_{name}_{label}"
            np.save(f"{stem}_x.npy", np.stack([p.x for p, _ in results]))
            np.save(f"{stem}_xi.npy", np.stack([p.xi for p, _ in results]))
            np.save(f"{stem}_mu.npy", np.array([(m.j, m.ell, m.k1, m.k2) for _, m in results]))
    model = cw.VelocityModel.from_json(SINUSOIDAL)
    np.save(outdir / "predicted_curvelet.npy", cw.predicted_curvelet(table, mus[0], model, "+", T_FLOW))


def random_field(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def propagations(outdir: Path) -> None:
    for n in (64, 128):
        rng = np.random.default_rng(n)
        scalar, vector = outdir / f"propagate_n{n}.field", outdir / f"propagate_n{n}_vector.field"
        formats.write_field(scalar, random_field(rng, (n, n)))
        formats.write_field(vector, random_field(rng, (3, n, n)))
        for name, spec in OPERATORS.items():
            config = outdir / f"propagate_{name}_n{n}.json"
            config.write_text(json.dumps({"operator": spec}))
            field = vector if spec["kind"] == "acoustic" else scalar
            run(outdir, f"propagate_{name}_n{n}", ["--config", str(config), "--out",
                                                   str(outdir / f"propagate_{name}_n{n}"), "propagate", str(field)])


def spectral_sample(outdir: Path) -> None:
    for n in (64, 128):
        table = cw.build_frame(cw.FrameParams(n=n, scales=n.bit_length() - 3))
        rng = np.random.default_rng(n + 1)
        mus = [table.random_index(rng) for _ in range(2)]
        for name, spec in OPERATORS.items():
            columns = cw.build_matrix(table, cw.OperatorSpec.from_json(spec), mus).columns
            rows = [c.row_component * table.size + c.rows_flat for c in columns]
            np.save(outdir / f"column_{name}_n{n}_rows.npy", np.concatenate(rows))
            np.save(outdir / f"column_{name}_n{n}_values.npy", np.concatenate([c.values for c in columns]))
            np.save(outdir / f"column_{name}_n{n}_norms.npy", np.array([(c.energy, c.solver_error) for c in columns]))
        splits = [cw.polarization_split(table, 0.3, mu, **selector) for mu in mus for selector in SPLIT_SELECTORS]
        np.save(outdir / f"polarization_split_n{n}.npy", np.array([[s[b] for b in (1, -1, 0)] for s in splits]))
    table = cw.build_frame(cw.FrameParams(n=128, scales=5))
    mu = cw.CurveletIndex(3, 5, 2, 1)
    for mode in ("pointwise", "center"):
        for branch, label in (("+", "plus"), ("-", "minus"), (0, "zero")):
            np.save(outdir / f"hyper_curvelet_{mode}_{label}.npy", cw.hyper_curvelet(table, mu, branch, mode))
    profiles = []
    for n in (128, 256):
        table = cw.build_frame(cw.FrameParams(n=n, scales=n.bit_length() - 3))
        for mu in (cw.CurveletIndex(3, 5, 2, 1), cw.CurveletIndex(4, 9, 0, 3)):
            profiles.append(f"n{n} {mu}: {cw.molecule_profile(table, cw.waveform(table, mu), mu)!r}\n")
    (outdir / "molecule_profile.txt").write_text("".join(profiles))


def chebyshev_listing(outdir: Path) -> None:
    listing = {}
    for name, spec in SPEEDS.items():
        model = cw.VelocityModel.from_json(spec)
        for n in FRAME_SIZES:
            _, _, (a, _, tail_a, tail_b) = _wave_expansion(model, n, T_FLOW)
            listing[f"{name} n{n}"] = {"coefficients": len(a), "tail_a": tail_a, "tail_b": tail_b}
    (outdir / "chebyshev.json").write_text(json.dumps(listing, indent=1) + "\n")


def frame_digest(params: cw.FrameParams) -> str:
    """SHA-256 of a frame's wrapping matrix (indptr, indices, data), size,
    partition defect and every wedge's scalar fields."""
    table = cw.build_frame(params)
    h = hashlib.sha256()
    for array in (table.wrap.indptr, table.wrap.indices, table.wrap.data):
        h.update(array.dtype.str.encode())
        h.update(array.tobytes())
    h.update(repr((table.size, table.partition_defect)).encode())
    for w in table.wedges:
        h.update(repr((w.j, w.ell, w.kind, w.rho, w.theta, w.rect, w.offset, w.atom_norm2)).encode())
    return h.hexdigest()


def frame_digests(outdir: Path) -> None:
    settings = [(f"n{n}-default", cw.FrameParams(n=n, scales=n.bit_length() - 3)) for n in FRAME_SIZES]
    settings += [(f"n{n}-other-windows", cw.FrameParams(n=n, scales=n.bit_length() - 3, **OTHER_WINDOWS))
                 for n in FRAME_SIZES]
    settings += [(config.stem, cw.FrameParams(**json.loads(config.read_text())["frame"]))
                 for config in sorted(CONFIGS.glob("*.json"))]
    (outdir / "frames.sha256").write_text("".join(f"{frame_digest(p)}  {label}\n" for label, p in settings))


def digest(outdir: Path) -> None:
    configs = sorted(CONFIGS.glob("*.json"))
    if not configs:
        sys.exit(f"config_outputs.py: no *.json in {CONFIGS}")
    outdir.mkdir(parents=True, exist_ok=True)
    for config in configs:
        out = outdir / config.stem
        base = ["--config", str(config), "--out", str(out)]
        run(outdir, f"{config.stem}.frame-check", [*base, "frame-check"])
        run(outdir, f"{config.stem}.matrix", [*base, "matrix"])
        run(outdir, f"{config.stem}.sparsity", [*base, "sparsity", str(out / "matrix.csv")])

    field = outdir / "transform_input.field"
    rng = np.random.default_rng(3)
    formats.write_field(field, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    run(outdir, "transform", ["--grid", "128", "--out", str(outdir / "transform"), "transform", str(field)])
    field = outdir / "transform_n256_input.field"
    formats.write_field(field, random_field(rng, (256, 256)))
    run(outdir, "transform_n256", ["--grid", "256", "--out", str(outdir / "transform_n256"), "transform", str(field)])

    for branch, label in (("+", "plus"), ("0", "zero")):
        run(outdir, f"flow_{label}", ["--config", str(CONFIGS / "variable_wave_n128.json"),
                                      "--out", str(outdir / f"flow_{label}"), "flow", "--branch", branch])

    propagations(outdir)
    transport_sample(outdir)
    spectral_sample(outdir)
    chebyshev_listing(outdir)
    frame_digests(outdir)
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(outdir)}"
             for p in outdir.rglob("*") if p.is_file()]
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))


def arrays(path: Path) -> dict[str, np.ndarray] | None:
    """The arrays of an ``.npy``, ``.field`` or sidecar ``.npz`` file by
    name, or None for any other file."""
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as data:
            return {key: data[key] for key in data.files}
    if path.suffix == ".npy":
        return {"": np.load(path, allow_pickle=False)}
    return {"": formats.read_field(path)} if path.suffix == ".field" else None


def change(before: Path, after: Path) -> str:
    """How ``after`` differs from ``before``: for arrays of the same names
    and shapes, the largest |change| of their float entries relative to the
    largest |before| entry, whether the integer arrays (the rows) are
    identical, and which byte arrays (a sidecar's JSON manifest) differ."""
    old, new = arrays(before), arrays(after)
    if old is None or new is None or old.keys() != new.keys():
        return "differs"
    if any(old[k].shape != new[k].shape for k in old if old[k].dtype.kind != "u"):
        return "differs"
    values = [k for k in old if old[k].dtype.kind in "fc"]
    delta = max((np.max(np.abs(new[k] - old[k]), initial=0.0) for k in values), default=0.0)
    scale = max((np.max(np.abs(old[k]), initial=0.0) for k in values), default=0.0)
    rows = all(np.array_equal(old[k], new[k]) for k in old if old[k].dtype.kind in "ib")
    text = [f"; {k} differs" for k in old if old[k].dtype.kind == "u" and not np.array_equal(old[k], new[k])]
    return (f"largest |change| / largest |before| {delta / scale if scale else delta:.2e}, "
            f"rows {'identical' if rows else 'differ'}{''.join(text)}")


def compare(before: Path, after: Path) -> None:
    """Print one line per file under ``before`` or ``after`` whose bytes differ."""
    names = sorted({p.relative_to(root) for root in (before, after) for p in root.rglob("*") if p.is_file()})
    for name in names:
        if not (before / name).is_file() or not (after / name).is_file():
            print(f"{name}: only in {before if (before / name).is_file() else after}")
        elif (before / name).read_bytes() != (after / name).read_bytes():
            print(f"{name}: {change(before / name, after / name)}")


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "--compare":
        compare(Path(sys.argv[2]), Path(sys.argv[3]))
    elif len(sys.argv) == 2:
        digest(Path(sys.argv[1]))
    else:
        sys.exit("usage: config_outputs.py OUTDIR | config_outputs.py --compare BEFORE AFTER")
