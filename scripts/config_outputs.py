"""Digest of every output of the shipped configs and of a transport sample.

Runs, in this process through ``cli.main``:

- frame-check, matrix and sparsity on each ``configs/*.json``;
- transform on a seeded N = 128 field;
- flow for branches + and 0 (the sinusoidal speed of
  ``configs/variable_wave_n128.json``).

It also saves a transport sample as ``.npy``: ``flow_index`` for 12
indices x 3 branches and one ``predicted_curvelet``, at N = 256 with a
sinusoidal speed.  Each command's standard output is saved next to its
files, with OUTDIR stripped.  Then the script prints one
``sha256  relative-path`` line per file under OUTDIR, sorted.

Two checkouts give the same listing exactly when every output is
byte-identical.  From the repository root:

    PYTHONPATH=src python scripts/config_outputs.py /tmp/after > after.txt
    PYTHONPATH=<other checkout>/src python scripts/config_outputs.py /tmp/before > before.txt
    diff before.txt after.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

import curvewave as cw
from curvewave import formats
from curvewave.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
T_FLOW = 0.25


def run(outdir: Path, name: str, args: list[str]) -> None:
    """``cli.main(args)`` with its exit code and stdout saved as ``name.stdout``."""
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = main(args)
    text = captured.getvalue().replace(str(outdir), "OUTDIR")
    (outdir / f"{name}.stdout").write_text(f"exit {code}\n{text}")


def transport_sample(outdir: Path) -> None:
    table = cw.build_frame(cw.FrameParams(n=256, scales=6))
    model = cw.VelocityModel.sinusoidal(0.2, (1, 0))
    rng = np.random.default_rng(5)
    mus = [table.random_index(rng) for _ in range(12)]
    for branch, label in (("+", "plus"), ("-", "minus"), (0, "zero")):
        results = [cw.flow_index(table, mu, model, branch, T_FLOW) for mu in mus]
        np.save(outdir / f"flow_index_{label}_x.npy", np.stack([p.x for p, _ in results]))
        np.save(outdir / f"flow_index_{label}_xi.npy", np.stack([p.xi for p, _ in results]))
        np.save(outdir / f"flow_index_{label}_mu.npy", np.array([(m.j, m.ell, m.k1, m.k2) for _, m in results]))
    np.save(outdir / "predicted_curvelet.npy", cw.predicted_curvelet(table, mus[0], model, "+", T_FLOW))


def digest(outdir: Path) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    for config in sorted(CONFIGS.glob("*.json")):
        out = outdir / config.stem
        base = ["--config", str(config), "--out", str(out)]
        run(outdir, f"{config.stem}.frame-check", [*base, "frame-check"])
        run(outdir, f"{config.stem}.matrix", [*base, "matrix"])
        run(outdir, f"{config.stem}.sparsity", [*base, "sparsity", str(out / "matrix.csv")])

    field = outdir / "transform_input.field"
    rng = np.random.default_rng(3)
    formats.write_field(field, rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    run(outdir, "transform", ["--grid", "128", "--out", str(outdir / "transform"), "transform", str(field)])

    for branch, label in (("+", "plus"), ("0", "zero")):
        run(outdir, f"flow_{label}", ["--config", str(CONFIGS / "variable_wave_n128.json"),
                                      "--out", str(outdir / f"flow_{label}"), "flow", "--branch", branch])

    transport_sample(outdir)
    lines = [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(outdir)}"
             for p in outdir.rglob("*") if p.is_file()]
    print("\n".join(sorted(lines, key=lambda line: line.split("  ", 1)[1])))


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: config_outputs.py OUTDIR")
    digest(Path(sys.argv[1]))
