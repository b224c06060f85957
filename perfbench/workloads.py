"""One benchmark workload in a fresh process: set-up, then a closed loop.

Started by ``run.py``; not meant to be run by hand.  The loop has a single
caller that starts the next iteration when the previous one has finished.
Every iteration repeats the same job on inputs made from ``--seed``, so the
exact counters of two traced iterations (or of two traced runs with the
same seed) must agree.  The result is written as JSON to ``--result``.

A workload runs two parts one after the other in every iteration:
``cli`` = cli-halfwave + cli-variable-wave and ``library`` = frame-n1024 +
transport.  Two workloads rather than four leave each run long enough to
give steady medians on a machine whose speed drifts by tens of percent
over tens of seconds, within the time budget of a full set of runs.

Parts (sizes are the ``full`` ones; ``smoke`` shrinks everything so the
benchmark's own test runs both workloads in seconds):

cli-halfwave       ``curvewave transform``, ``matrix`` and ``sparsity`` on a
                   half-wave manifest (N = 256), then ``truncation_error``
                   on the matrix CSV read back.  Reporting and CSV I/O
                   dominate; the solver never runs.
cli-variable-wave  ``curvewave matrix`` and ``sparsity`` for a sinusoidal
                   speed (N = 128): the RK4 pseudospectral solver dominates.
frame-n1024        analyze -> synthesize round trips and half-wave columns
                   at N = 1024: only the frame and windows layers work.
transport          ray flow (``flow_index``), ``predicted_curvelet`` and
                   warp columns: the scalar RK4 flow and both direct
                   off-grid Fourier sums.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 3
MIN_ITERATIONS = 3  # a traced run needs one more: two traced and two untraced
TOL = 1e-10
ORGANIZATION_RADIUS = 8.0  # tests/pinned.py: omega radius holding >= 95% of column energy
HAMILTONIAN_TOL = 1e-6
THREAD_VARS = (
    "CURVEWAVE_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SIZES = {
    "cli-halfwave": {
        "full": {"n": 256, "scales": 6, "columns": 2, "column_scales": [5], "budgets": [25, 50, 100, 200]},
        "smoke": {"n": 64, "scales": 4, "columns": 1, "column_scales": [3], "budgets": [25, 50, 100, 200]},
    },
    "cli-variable-wave": {
        "full": {"n": 128, "scales": 5, "columns": 4, "column_scales": [4]},
        "smoke": {"n": 64, "scales": 4, "columns": 1, "column_scales": [3]},
    },
    "frame-n1024": {
        "full": {"n": 1024, "scales": 7, "fields": 10, "columns": 2, "column_scales": [5, 6]},
        "smoke": {"n": 128, "scales": 5, "fields": 2, "columns": 1, "column_scales": [3, 4]},
    },
    "transport": {
        "full": {"n": 256, "scales": 6, "ray_indices": 25, "ray_scales": [3, 4, 5], "predicted": 1,
                 "predicted_scale": 5, "warp_n": 128, "warp_scales": 5, "warp_columns": 2},
        "smoke": {"n": 64, "scales": 4, "ray_indices": 3, "ray_scales": [2, 3], "predicted": 1,
                  "predicted_scale": 3, "warp_n": 32, "warp_scales": 3, "warp_columns": 1},
    },
}

HALFWAVE = {"kind": "halfwave", "sign": "+", "t": 0.25, "c0": 1.0}
SINUSOIDAL = {"kind": "sinusoidal", "amplitude": 0.2, "wavevector": [1, 0]}
WARP = {"kind": "warp", "map": {"kind": "sinusoidal", "amplitude": 0.05, "wavevector": [1, 1]}}
T_FLOW = 0.25

# Per-layer metrics of the traced run: (name, unit, better).  Names ending in
# .self_ms are span self times (.wait_ms too: build_matrix's self time is the
# caller waiting on its thread pool), .calls span counts; the rest are counters.
PER_LAYER = [
    ("windows.points_evaluated", "count", "lower"),
    ("windows.eval.self_ms", "ms", "lower"),
    ("frame.build_frame.self_ms", "ms", "lower"),
    ("frame.analyze.calls", "count", "lower"),
    ("frame.analyze.self_ms", "ms", "lower"),
    ("frame.synthesize.calls", "count", "lower"),
    ("frame.synthesize.self_ms", "ms", "lower"),
    ("frame.gather_scatter.self_ms", "ms", "lower"),
    ("frame.fft.calls", "count", "lower"),
    ("frame.fft.points", "count", "lower"),
    ("frame.frame_atom.self_ms", "ms", "lower"),
    ("frame.index_of_flat.self_ms", "ms", "lower"),
    ("propagators.halfwave.calls", "count", "lower"),
    ("propagators.halfwave.self_ms", "ms", "lower"),
    ("propagators.variable_wave.calls", "count", "lower"),
    ("propagators.variable_wave.self_ms", "ms", "lower"),
    ("propagators.warp.calls", "count", "lower"),
    ("propagators.warp.self_ms", "ms", "lower"),
    ("propagators.laplacian.calls", "count", "lower"),
    ("propagators.fft.calls", "count", "lower"),
    ("propagators.fft.points", "count", "lower"),
    ("propagators.eval_fourier_at_points.self_ms", "ms", "lower"),
    ("propagators.trig_terms", "count", "lower"),
    ("flow.flow.calls", "count", "lower"),
    ("flow.flow.self_ms", "ms", "lower"),
    ("flow.rk4_steps", "count", "lower"),
    ("flow.flow_index.self_ms", "ms", "lower"),
    ("flow.predicted_curvelet.self_ms", "ms", "lower"),
    ("flow.scattered_trig_sum.self_ms", "ms", "lower"),
    ("flow.trig_terms", "count", "lower"),
    ("distance.omega.calls", "count", "lower"),
    ("distance.omega.self_ms", "ms", "lower"),
    ("distance.omega.pairs", "count", "lower"),
    ("sparsity.curvelet_column.calls", "count", "lower"),
    ("sparsity.curvelet_column.self_ms", "ms", "lower"),
    ("sparsity.build_matrix.wait_ms", "ms", "lower"),
    ("sparsity.write_csv.self_ms", "ms", "lower"),
    ("sparsity.csv_bytes_written", "bytes", "lower"),
    ("sparsity.read_csv.self_ms", "ms", "lower"),
    ("sparsity.csv_rows_read", "count", "lower"),
    ("sparsity.column_omegas.self_ms", "ms", "lower"),
    ("sparsity.decay_report.self_ms", "ms", "lower"),
    ("sparsity.truncation_error.self_ms", "ms", "lower"),
    ("sparsity.nnz", "count", "lower"),
    ("sparsity.kept_fraction", "ratio", "higher"),
    ("formats.write_coeffs_csv.self_ms", "ms", "lower"),
    ("formats.bytes_written", "bytes", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_ms", "ms", "lower"),
    ("trace.wall_ms", "ms", "lower"),
    ("trace.busy_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
]


class CheckFailed(Exception):
    pass


class Op:
    """One attempted operation; it fails on an exception or a failed check."""

    def __init__(self, rec: "Iteration", name: str):
        self.rec = rec
        self.name = name
        self.ok = True

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.ok = False
            self.rec.failures.append(f"{self.name}: {what}")


class Iteration:
    """Stage times, latency samples and operations of one loop iteration."""

    def __init__(self, index: int):
        self.index = index
        self.stages: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self.ops: list[Op] = []
        self.failures: list[str] = []

    @contextlib.contextmanager
    def op(self, stage: str, sample: str | None = None, scale: float = 1.0):
        """Time one call into curvewave, adding it to ``stage`` (and to ``sample``, times ``scale``)."""
        op = Op(self, stage)
        self.ops.append(op)
        start = time.perf_counter()
        try:
            yield op
        except Exception as exc:
            op.ok = False
            self.failures.append(f"{stage}: {type(exc).__name__}: {exc}")
            raise CheckFailed from exc
        finally:
            elapsed = time.perf_counter() - start
            self.stages[stage] = self.stages.get(stage, 0.0) + elapsed
            if sample is not None:
                self.samples.setdefault(sample, []).append(elapsed * scale)

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


def _finite(*values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _all_finite(np, arr) -> bool:
    return bool(np.all(np.isfinite(arr)))


class Workload:
    def __init__(self, size: dict, seed: int, workdir: Path):
        import numpy as np

        import curvewave as cw

        self.np = np
        self.cw = cw
        self.size = size
        self.seed = seed
        self.workdir = workdir

    def rng(self, *tags: int):
        return self.np.random.default_rng([self.seed, *tags])

    def random_field(self, rng, n: int):
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))

    def setup(self) -> None:
        raise NotImplementedError

    def iterate(self, it: Iteration) -> None:
        raise NotImplementedError

    def metrics(self, iters: list[Iteration]) -> dict:
        """Workload-specific end-to-end metrics: name -> (value, unit)."""
        raise NotImplementedError

    @staticmethod
    def pooled(iters, sample) -> list[float]:
        return [v for i in iters for v in i.samples.get(sample, [])]

    @staticmethod
    def quantile(values, q: int, n: int) -> float:
        return statistics.quantiles(values, n=n, method="inclusive")[q - 1] if len(values) > 1 else values[0]


class CliWorkload(Workload):
    """Shared code of the two parts that go through ``curvewave.cli.main``."""

    stages: tuple[str, ...] = ()

    def manifest(self) -> dict:
        raise NotImplementedError

    def metrics(self, iters):
        return {stage: (statistics.median(i.stages[stage] for i in iters), "s") for stage in self.stages}

    def setup(self) -> None:
        cw, np, sz = self.cw, self.np, self.size
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.out = self.workdir / "out"
        self.config = self.workdir / "manifest.json"
        with open(self.config, "w") as fh:
            json.dump(self.manifest(), fh, indent=2)
        self.table = cw.build_frame(cw.FrameParams(n=sz["n"], scales=sz["scales"]))
        f = self.random_field(self.rng(0), sz["n"])
        cw.synthesize(self.table, cw.analyze(self.table, f))  # warm-up
        self.field_path = self.workdir / "field.bin"
        cw.formats.write_field(self.field_path, f)

    def cli(self, it: Iteration, stage: str, *argv: str):
        """Run one ``curvewave`` command in-process; returns (op, its JSON stdout line)."""
        cli = sys.modules["curvewave.cli"]
        buf = io.StringIO()
        with it.op(stage) as op, contextlib.redirect_stdout(buf):
            code = cli.main(["--config", str(self.config), *argv])
        op.check(code == 0, f"exit code {code}")
        lines = buf.getvalue().strip().splitlines()
        return op, (json.loads(lines[-1]) if code == 0 and lines else {})

    def matrix_and_report(self, it: Iteration) -> None:
        count = self.size["columns"]
        op, out = self.cli(it, "matrix_s", "matrix")
        op.check(out.get("columns") == count, f"matrix wrote {out.get('columns')} columns, want {count}")
        op, _ = self.cli(it, "report_s", "sparsity", str(self.out / "matrix.csv"))
        with open(self.out / "decay_report.json") as fh:
            report = json.load(fh)
        conc, radii = report["concentration"], report["ball_radii"]
        op.check(len(report["columns"]) == count, f"decay report has {len(report['columns'])} columns, want {count}")
        op.check(all(b >= a for a, b in zip(conc, conc[1:])), "concentration curve decreases")
        inside = [c for r, c in zip(radii, conc) if r <= ORGANIZATION_RADIUS]
        op.check(bool(inside) and inside[-1] >= 0.95, f"energy fraction {inside[-1] if inside else None} < 0.95 at omega <= 8")
        # A -inf slope or an infinite radius_95 is how the report marks "not measurable".
        values = conc + radii + [report["median_slope"]]
        values += [v for col in report["columns"] for k, v in col.items() if k not in ("col", "decay_slope", "radius_95")]
        op.check(_finite(*values), "non-finite value in the decay report")


class CliHalfwave(CliWorkload):
    stages = ("transform_s", "matrix_s", "report_s", "truncation_s")

    def manifest(self) -> dict:
        sz = self.size
        return {
            "frame": {"n": sz["n"], "scales": sz["scales"], "angles_base": 8, "smooth_step_order": 4},
            "operator": HALFWAVE,
            "model": {"kind": "constant", "c0": 1.0},
            "columns": {"count": sz["columns"], "scales": sz["column_scales"]},
            "seed": self.seed,
            "threshold": 1e-7,
            "out": str(self.out),
        }

    def iterate(self, it: Iteration) -> None:
        cw = self.cw
        op, out = self.cli(it, "transform_s", "transform", str(self.field_path))
        err = out.get("roundtrip_err", math.inf)
        op.check(err <= TOL, f"transform round trip {err:.3e} > {TOL}")
        self.matrix_and_report(it)

        op_spec = cw.OperatorSpec.from_json(HALFWAVE)
        with it.op("truncation_s"):
            matrix = cw.SparseOperatorMatrix.read_csv(self.table, op_spec, self.out / "matrix.csv")
        errors = []
        for budget in self.size["budgets"]:
            with it.op("truncation_s") as op:
                errors.append(cw.truncation_error(matrix, budget))
            op.check(_finite(errors[-1]), "non-finite truncation error")
        op.check(all(b <= a for a, b in zip(errors, errors[1:])), f"truncation errors grow with the budget: {errors}")
        with it.op("truncation_s") as op:
            nearest = cw.truncation_error(matrix, 100, mode="nearest", model=cw.VelocityModel.constant(1.0))
        op.check(_finite(nearest), "non-finite nearest-mode truncation error")


class CliVariableWave(CliWorkload):
    stages = ("matrix_s", "report_s")

    def manifest(self) -> dict:
        sz = self.size
        return {
            "frame": {"n": sz["n"], "scales": sz["scales"], "angles_base": 8, "smooth_step_order": 4},
            "operator": {"kind": "variable-wave", "sign": "+", "t": 0.25, "model": SINUSOIDAL},
            "model": SINUSOIDAL,
            "columns": {"count": sz["columns"], "scales": sz["column_scales"]},
            "seed": self.seed,
            "threshold": 1e-7,
            "out": str(self.out),
        }

    def iterate(self, it: Iteration) -> None:
        self.matrix_and_report(it)


class FrameN1024(Workload):
    def setup(self) -> None:
        cw, sz = self.cw, self.size
        self.table = None  # drop the previous table before building the next one
        self.table = cw.build_frame(cw.FrameParams(n=sz["n"], scales=sz["scales"]))
        f = self.random_field(self.rng(0), sz["n"])
        cw.synthesize(self.table, cw.analyze(self.table, f))  # warm-up
        self.op = cw.OperatorSpec.from_json(HALFWAVE)
        rng = self.rng(1)
        self.columns = [self.table.random_index(rng, sz["column_scales"]) for _ in range(sz["columns"])]

    def iterate(self, it: Iteration) -> None:
        cw, np, table = self.cw, self.np, self.table
        rng = self.rng(2, it.index)
        prev = None
        for _ in range(self.size["fields"]):
            f = self.random_field(rng, table.n)
            with it.op("roundtrip", "roundtrip_ms", 1e3) as op:
                coeffs = cw.analyze(table, f)
                rec = cw.synthesize(table, coeffs)
            nf = float(np.vdot(f, f).real)
            parseval = abs(coeffs.norm2() - nf) / nf
            roundtrip = float(np.linalg.norm(rec - f)) / math.sqrt(nf)
            op.check(parseval <= TOL, f"Parseval {parseval:.3e}")
            op.check(roundtrip <= TOL, f"round trip {roundtrip:.3e}")
            packed = coeffs.pack()
            if prev is not None:
                g, g_packed = prev
                lhs = complex(np.vdot(g_packed, packed))
                rhs = complex(np.vdot(g, rec))
                adjoint = abs(lhs - rhs) / max(abs(rhs), 1.0)
                op.check(adjoint <= TOL, f"adjoint {adjoint:.3e}")
            op.check(_all_finite(np, packed) and _all_finite(np, rec), "non-finite coefficients or field")
            prev = (f, packed)
        for mu in self.columns:
            with it.op("columns", "column_ms", 1e3) as op:
                col = cw.curvelet_column(table, self.op, mu)
            atom = table.wedge(mu.j, mu.ell).atom_norm2
            op.check(abs(col.energy - atom) <= TOL * atom, f"column energy {col.energy!r} != atom energy {atom!r}")
            op.check(col.nnz > 0 and _all_finite(np, col.values), "empty or non-finite column")

    def metrics(self, iters):
        rt = self.pooled(iters, "roundtrip_ms")
        cols = self.pooled(iters, "column_ms")
        return {
            "roundtrip_ms_p50": (statistics.median(rt), "ms"),
            "roundtrip_ms_p75": (self.quantile(rt, 3, 4), "ms"),
            "column_ms_p50": (statistics.median(cols), "ms"),
        }


class Transport(Workload):
    def setup(self) -> None:
        cw, sz = self.cw, self.size
        self.table = cw.build_frame(cw.FrameParams(n=sz["n"], scales=sz["scales"]))
        self.warp_table = cw.build_frame(cw.FrameParams(n=sz["warp_n"], scales=sz["warp_scales"]))
        self.model = cw.VelocityModel.from_json(SINUSOIDAL)
        self.warp = cw.OperatorSpec.from_json(WARP)
        rng = self.rng(1)
        self.rays = [self.table.random_index(rng, sz["ray_scales"]) for _ in range(sz["ray_indices"])]
        self.predicted = [self.table.random_index(rng, [sz["predicted_scale"]]) for _ in range(sz["predicted"])]
        self.warp_columns = [self.warp_table.random_index(rng) for _ in range(sz["warp_columns"])]
        cw.flow_index(self.table, self.rays[0], self.model, "+", T_FLOW)  # warm-up

    def iterate(self, it: Iteration) -> None:
        cw, np, table, model = self.cw, self.np, self.table, self.model
        for mu in self.rays:
            h0 = float(model.c(table.center(mu))) * float(np.hypot(*table.xi_center(mu)))
            for branch in ("+", "-"):
                with it.op("rays", "ray_ms", 1e3) as op:
                    point, _ = cw.flow_index(table, mu, model, branch, T_FLOW)
                h = float(model.c(point.x)) * float(np.hypot(*point.xi))
                op.check(_finite(h) and abs(h - h0) <= HAMILTONIAN_TOL * h0, f"c|xi| drifted {h0!r} -> {h!r}")
        for mu in self.predicted:
            with it.op("predicted", "predicted_s") as op:
                g = cw.predicted_curvelet(table, mu, model, "+", T_FLOW)
            op.check(_all_finite(np, g) and float(np.linalg.norm(g)) > 0, "empty or non-finite predicted curvelet")
        for mu in self.warp_columns:
            with it.op("warp", "warp_column_ms", 1e3) as op:
                col = cw.curvelet_column(self.warp_table, self.warp, mu)
            op.check(col.nnz > 0 and _all_finite(np, col.values) and _finite(col.energy), "empty or non-finite warp column")

    def metrics(self, iters):
        rays = self.pooled(iters, "ray_ms")
        return {
            "ray_ms_p50": (statistics.median(rays), "ms"),
            "ray_ms_p90": (self.quantile(rays, 9, 10), "ms"),
            "predicted_s": (statistics.median(self.pooled(iters, "predicted_s")), "s"),
            "warp_column_ms_p50": (statistics.median(self.pooled(iters, "warp_column_ms")), "ms"),
        }


PARTS = {
    "cli-halfwave": CliHalfwave,
    "cli-variable-wave": CliVariableWave,
    "frame-n1024": FrameN1024,
    "transport": Transport,
}
WORKLOADS = {
    "cli": ("cli-halfwave", "cli-variable-wave"),
    "library": ("frame-n1024", "transport"),
}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, cw) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "backend": cw.BACKEND,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "curvewave": cw.__version__,
        "git_commit": git_commit(),
        "seed": args.seed,
        "size": args.size,
        "sizes": {part: SIZES[part][args.size] for part in WORKLOADS[args.workload]},
    }


def layer_metrics(setup: dict, traced: list[dict], untraced_wall: list[float]) -> dict:
    """Per-layer metrics of one traced set-up plus one traced iteration.

    Counts come from the first traced iteration (all traced iterations must
    agree exactly); self times are medians over the traced iterations.  The
    ``trace.*`` metrics cover the loop only.
    """
    first = traced[0]

    def count(key: str) -> int:
        return setup["counters"].get(key, 0) + first["counters"].get(key, 0)

    def self_ms(span: str) -> float:
        return setup["self_ms"].get(span, 0.0) + statistics.median(t["self_ms"].get(span, 0.0) for t in traced)

    out = {}
    for name, unit, _ in PER_LAYER:
        base = name.rsplit(".", 1)[0]
        if name == "trace.overhead_ms":
            value = statistics.median(t["wall_ms"] for t in traced) - 1e3 * statistics.median(untraced_wall)
        elif name in ("trace.wall_ms", "trace.busy_ms"):
            value = statistics.median(t[name[len("trace."):]] for t in traced)
        elif name == "sparsity.kept_fraction":
            analyzed = count("sparsity.coeffs_analyzed")
            value = count("sparsity.nnz") / analyzed if analyzed else 0.0
        elif name.endswith((".self_ms", ".wait_ms")):
            value = self_ms(base)
        elif name.endswith(".calls") and (base in setup["calls"] or base in first["calls"]):
            value = setup["calls"].get(base, 0) + first["calls"].get(base, 0)
        else:
            value = count(name)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "smoke"), required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import curvewave as cw
    import curvewave.cli  # noqa: F401  (the CLI workloads call it through sys.modules)
    import curvewave.formats  # noqa: F401

    if Path(cw.__file__).resolve().parent != SRC / "curvewave":
        raise SystemExit(f"imported curvewave from {cw.__file__}, not from {SRC}")
    import_s = time.perf_counter() - start

    outdir = Path(args.result).resolve().parent
    parts = {name: PARTS[name](SIZES[name][args.size], args.seed, outdir / f"{name}-work") for name in WORKLOADS[args.workload]}
    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = install(Tracer())

    def recording(traced: bool):
        return tracer.record() if traced else contextlib.nullcontext({})

    setups = []
    for k in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with recording(tracer is not None and k == SETUP_REPEATS - 1) as setup_trace:
            for part in parts.values():
                part.setup()
        setups.append(time.perf_counter() - t0)

    # Traced runs alternate untraced and traced iterations; the first one,
    # untraced, also absorbs what the set-up left cold.  A new iteration
    # starts only if it should end near the deadline, not well past it.
    min_iterations = MIN_ITERATIONS + (tracer is not None)
    iters: dict[str, list[Iteration]] = {name: [] for name in parts}
    walls: list[float] = []
    traced: list[dict] = []
    untraced_wall: list[float] = []
    loop_start = time.perf_counter()
    while len(walls) < min_iterations or time.perf_counter() - loop_start + walls[-1] / 2 < args.seconds:
        index = len(walls)
        trace_this = tracer is not None and index % 2 == 1
        with recording(trace_this) as summary:
            for name, part in parts.items():
                it = Iteration(index)
                iters[name].append(it)
                try:
                    part.iterate(it)
                except CheckFailed:
                    pass
                except Exception as exc:  # a bug in the benchmark itself still fails the iteration
                    it.failures.append(f"{name}: " + "".join(traceback.format_exception_only(type(exc), exc)).strip())
                    it.ops.append(Op(it, "iteration"))
                    it.ops[-1].ok = False
        walls.append(sum(part_iters[-1].wall_s for part_iters in iters.values()))
        if trace_this:
            traced.append({**summary, "wall_ms": 1e3 * walls[-1]})
        elif tracer is not None and index > 0:
            untraced_wall.append(walls[-1])

    all_iters = [it for part_iters in iters.values() for it in part_iters]
    attempted = sum(len(i.ops) for i in all_iters)
    failed = sum(1 for i in all_iters for op in i.ops if not op.ok)
    failures = [f for i in all_iters for f in i.failures]
    result = {
        "workload": args.workload,
        "iterations": len(walls),
        "setup_s": import_s + statistics.median(setups),
        "import_s": import_s,
        "setup_runs_s": setups,
        "iteration_wall_s": walls,
        "wall_s": statistics.median(walls),
    }
    if not failures:
        result["parts"] = {
            name: {
                "wall_s": {"value": statistics.median(i.wall_s for i in iters[name]), "unit": "s"},
                **{k: {"value": v, "unit": u} for k, (v, u) in part.metrics(iters[name]).items()},
            }
            for name, part in parts.items()
        }
    if tracer is not None:
        attempted += 1
        repeat_ok = all(t["counters"] == traced[0]["counters"] and t["calls"] == traced[0]["calls"] for t in traced)
        if not repeat_ok:
            failed += 1
            failures.append("exact counters differ between traced iterations")
        result["per_layer"] = layer_metrics(setup_trace, traced, untraced_wall)
        result["traced_iterations"] = len(traced)
        tracer.uninstall()
        tracer.write_spans(outdir / f"{args.workload}-spans.jsonl")
    result.update(attempted=attempted, failed=failed, failures=failures[:20], provenance=provenance(args, cw))
    for part in parts.values():
        shutil.rmtree(part.workdir, ignore_errors=True)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
