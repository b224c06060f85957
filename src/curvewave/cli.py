"""Command-line entry point for reproducible frame/propagation experiments.

Subcommands: frame-check, transform, propagate, matrix, sparsity, flow.
A JSON config file provides the experiment manifest; --grid/--seed/
--threshold/--out override individual fields.  Unknown manifest keys (at
the top level, in "frame" or "columns", or ones the "operator" or "model"
kind does not read) are refused.  Exit codes: 0 ok, 1 invariant failure,
2 bad configuration or input.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import formats
from ._core import checked, number
from .distance import PhasePoint
from .flow import VelocityModel, flow_trajectory
from .frame import FrameError, FrameParams, analyze, build_frame, synthesize
from .propagators import OperatorSpec
from .sparsity import DEFAULT_THRESHOLD, SparseOperatorMatrix, build_matrix, decay_report

__all__ = ["ExperimentConfig", "main"]


# Accepted manifest keys.  "frame" takes exactly the FrameParams fields, each
# a JSON number of its annotated type.
_TOP_KEYS = {"frame", "operator", "model", "columns", "seed", "threshold", "out", "n_fields"}
_FRAME_TYPES = {f.name: {"int": int, "float": float}[f.type] for f in fields(FrameParams)}
_COLUMN_KEYS = {"count", "scales"}


@dataclass
class ExperimentConfig:
    """Parsed experiment manifest (frame + operator + sampling + outputs)."""

    frame: FrameParams
    operator: OperatorSpec = field(default_factory=lambda: OperatorSpec(kind="identity"))
    model: VelocityModel | None = None  # unset: the operator's speed
    columns: dict = field(default_factory=lambda: {"count": 8, "scales": None})
    seed: int = 0
    threshold: float = DEFAULT_THRESHOLD
    out: Path = Path(".")
    n_fields: int = 20

    @classmethod
    def load(cls, args) -> "ExperimentConfig":
        raw: dict = {}
        if args.config:
            with open(args.config) as fh:
                raw = json.load(fh)
        checked("manifest", raw, _TOP_KEYS)
        frame = checked("frame", raw.get("frame", {}), _FRAME_TYPES)
        fr = {k: number(f"frame {k}", v, _FRAME_TYPES[k]) for k, v in frame.items()}
        if args.grid is not None:
            fr["n"] = args.grid
        fr.setdefault("n", 128)
        fr.setdefault("scales", max(1, fr["n"].bit_length() - 3))
        cfg = cls(frame=FrameParams(**fr))
        if "operator" in raw:
            cfg.operator = OperatorSpec.from_json(raw["operator"])
        if "model" in raw:
            cfg.model = VelocityModel.from_json(raw["model"])
        columns = {**cfg.columns, **checked("columns", raw.get("columns", {}), _COLUMN_KEYS)}
        if columns["scales"] is not None:
            columns["scales"] = [number("columns scales", j, int) for j in columns["scales"]]
        cfg.columns = {**columns, "count": number("columns count", columns["count"], int, least=1)}
        cfg.seed = number("seed", raw.get("seed", 0) if args.seed is None else args.seed, int)
        threshold = raw.get("threshold", DEFAULT_THRESHOLD) if args.threshold is None else args.threshold
        cfg.threshold = number("threshold", threshold)
        cfg.out = Path(raw.get("out", ".") if args.out is None else args.out)
        cfg.n_fields = number("n_fields", raw.get("n_fields", cfg.n_fields), int, least=1)
        return cfg


def _random_field(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def cmd_frame_check(cfg: ExperimentConfig) -> int:
    table = build_frame(cfg.frame)
    rng = np.random.default_rng(cfg.seed)
    parseval = 0.0
    roundtrip = 0.0
    adjoint = 0.0
    for _ in range(cfg.n_fields):
        f = _random_field(rng, table.n)
        c = analyze(table, f)
        nf = float(np.vdot(f, f).real)
        parseval = max(parseval, abs(c.norm2() - nf) / nf)
        rec = synthesize(table, c)
        roundtrip = max(roundtrip, float(np.linalg.norm(rec - f)) / np.sqrt(nf))
        g = _random_field(rng, table.n)
        cg = analyze(table, g)
        lhs = complex(np.vdot(cg.packed, c.packed))
        rhs = complex(np.vdot(g, rec))
        adjoint = max(adjoint, abs(lhs - rhs) / max(abs(rhs), 1.0))
    report = {
        "n": table.n,
        "scales": cfg.frame.scales,
        "coefficients": table.size,
        "partition_defect": table.partition_defect,
        "parseval_err": parseval,
        "roundtrip_err": roundtrip,
        "adjoint_err": adjoint,
        "fields": cfg.n_fields,
    }
    print(json.dumps(report, indent=2))
    ok = parseval <= 1e-10 and roundtrip <= 1e-10 and adjoint <= 1e-10
    if not ok:
        print("frame-check: invariant violation", file=sys.stderr)
    return 0 if ok else 1


def cmd_transform(cfg: ExperimentConfig, input_path: str) -> int:
    table = build_frame(cfg.frame)
    f = formats.read_field(input_path)
    if f.ndim != 2:
        raise formats.FormatError("transform expects a scalar field")
    if f.shape[-1] != table.n:
        raise formats.FormatError(f"field grid {f.shape[-1]} does not match frame grid {table.n}")
    cfg.out.mkdir(parents=True, exist_ok=True)
    coeffs = analyze(table, f)
    formats.write_coeffs_csv(cfg.out / "coefficients.csv", coeffs)
    rec = synthesize(table, coeffs)
    formats.write_field(cfg.out / "reconstruction.field", rec)
    formats.write_pgm(cfg.out / "input_magnitude.pgm", f)
    nf = float(np.linalg.norm(f))
    err = float(np.linalg.norm(rec - f)) / nf if nf > 0 else 0.0
    print(json.dumps({"roundtrip_err": err, "coefficients": table.size}))
    return 0


def cmd_propagate(cfg: ExperimentConfig, input_path: str) -> int:
    op = cfg.operator
    f = formats.read_field(input_path)
    out, error = op.apply(f)
    cfg.out.mkdir(parents=True, exist_ok=True)
    formats.write_field(cfg.out / "propagated.field", out)
    formats.write_pgm(cfg.out / "propagated.pgm", out if out.ndim == 2 else out[0])
    print(json.dumps({"kind": op.kind, "t": op.t, "norm": float(np.linalg.norm(out)), "solver_error": error}))
    return 0


def _distinct_columns(table, rng: np.random.Generator, count: int, scales) -> list:
    """``count`` distinct indices drawn by ``random_index``: a repeat is drawn
    again, so draws with no repeat give the indices they always gave.
    ValueError when the scales hold fewer than ``count`` directional indices."""
    pool = sum(w.size for w in table.directional_wedges(scales))
    if count > pool:
        raise ValueError(f"columns count {count} exceeds the {pool} directional indices at scales {scales}")
    cols: list = []
    while len(cols) < count:
        mu = table.random_index(rng, scales)
        if mu not in cols:
            cols.append(mu)
    return cols


def cmd_matrix(cfg: ExperimentConfig) -> int:
    table = build_frame(cfg.frame)
    op = cfg.operator
    rng = np.random.default_rng(cfg.seed)
    cols = _distinct_columns(table, rng, cfg.columns["count"], cfg.columns["scales"])
    matrix = build_matrix(table, op, cols, threshold=cfg.threshold)
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / "matrix.csv"
    matrix.write_csv(path)
    error = max((c.solver_error for c in matrix.columns), default=0.0)
    print(json.dumps({"columns": len(matrix.columns), "entries": matrix.total_entries(), "path": str(path),
                      "solver_error": error}))
    return 0


def cmd_sparsity(cfg: ExperimentConfig, matrix_path: str) -> int:
    table = build_frame(cfg.frame)
    matrix = SparseOperatorMatrix.read_csv(table, cfg.operator, matrix_path)
    if not matrix.columns:
        print("sparsity: empty matrix", file=sys.stderr)
        return 1
    report = decay_report(matrix, model=cfg.model)
    cfg.out.mkdir(parents=True, exist_ok=True)
    with open(cfg.out / "decay_report.json", "w") as fh:
        json.dump(report.to_json(), fh, indent=2)
    curve = np.column_stack([report.ball_radii, report.concentration])
    np.savetxt(
        cfg.out / "decay_curve.csv", curve, fmt="%.17g", delimiter=",", header="radius,energy_fraction", comments=""
    )
    print(json.dumps({"median_slope": report.median_slope, "columns": len(report.columns)}))
    return 0


def cmd_flow(cfg: ExperimentConfig, x0, xi0, branch: str, t: float) -> int:
    times, points = flow_trajectory(PhasePoint(x0, xi0), cfg.model or VelocityModel.constant(), branch, t)
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / "trajectory.csv"
    rows = [(tt, *p.x, *p.xi, p.theta) for tt, p in zip(times, points)]
    np.savetxt(path, rows, fmt="%.17g", delimiter=",", header="t,x1,x2,xi1,xi2,theta", comments="")
    print(json.dumps({"steps": len(times) - 1, "path": str(path)}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="curvewave", description=__doc__)
    p.add_argument("--config", help="experiment manifest (JSON)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--grid", type=int, default=None, help="override frame grid size N")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("frame-check", help="verify Parseval/round-trip/partition invariants")

    tp = sub.add_parser("transform", help="analyze a field file, emit coefficients + reconstruction")
    tp.add_argument("input")

    pp = sub.add_parser("propagate", help="apply the configured operator to a field file")
    pp.add_argument("input")

    sub.add_parser("matrix", help="stream sampled curvelet-matrix columns to CSV, with a .npz sidecar")

    sp = sub.add_parser("sparsity", help="decay/concentration report from a matrix CSV and its sidecar")
    sp.add_argument("matrix")

    fp = sub.add_parser("flow", help="integrate a bicharacteristic ray, emit trajectory CSV")
    fp.add_argument("--x0", type=float, nargs=2, default=(0.5, 0.5))
    fp.add_argument("--xi0", type=float, nargs=2, default=(16.0, 0.0))
    fp.add_argument("--branch", default="+")
    fp.add_argument("--t", type=float, default=0.5)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args)
    except (OSError, ValueError, TypeError, OverflowError, FrameError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "frame-check":
            return cmd_frame_check(cfg)
        if args.command == "transform":
            return cmd_transform(cfg, args.input)
        if args.command == "propagate":
            return cmd_propagate(cfg, args.input)
        if args.command == "matrix":
            return cmd_matrix(cfg)
        if args.command == "sparsity":
            return cmd_sparsity(cfg, args.matrix)
        if args.command == "flow":
            return cmd_flow(cfg, args.x0, args.xi0, args.branch, args.t)
        raise AssertionError(f"unhandled command {args.command}")
    except (FrameError, formats.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
