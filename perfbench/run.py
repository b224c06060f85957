"""curvewave benchmark: one workload per invocation, from a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--size full|smoke]

Runs the workload in a fresh child process (``workloads.py``) that imports
curvewave from ``src/`` of this checkout, with CURVEWAVE_THREADS and the
BLAS/OpenMP thread variables pinned to the number of usable CPUs.  The child
sets up, then runs a closed loop with one caller for ``--seconds`` (at least
three iterations) and checks every output.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``setup_s``, ``wall_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer metrics of a
traced run (span self times and exact counters, named after the modules of
``src/curvewave``).  The line before it is a report with the named metrics
of each part of the workload, ``failed_frac`` and a provenance block.  The exit code is 0
only if every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import subprocess
import sys

from workloads import HERE, ROOT, THREAD_VARS, WORKLOADS

OUTDIR = ROOT / ".perfbench-out"
CHILD_TIMEOUT_S = 170


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "curvewave" / "__init__.py").is_file():
        print(f"perfbench: no curvewave sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: str(nproc) for var in THREAD_VARS})
    OUTDIR.mkdir(exist_ok=True)
    result_path = OUTDIR / f"{args.workload}.json"
    result_path.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size, "--result", str(result_path),
    ]
    # The child's own output goes to stderr so that stdout carries only the report.
    with subprocess.Popen(cmd, env=env, stdout=sys.stderr) as child:
        try:
            code = child.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print(f"perfbench: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return 1
    if code != 0 or not result_path.is_file():
        print(f"perfbench: {args.workload} exited with code {code}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        result = json.load(fh)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # Linux reports KiB

    if args.trace:
        metrics = result.get("per_layer", {})
    else:
        metrics = {
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "wall_s": {"value": result["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    attempted, failed = result["attempted"], result["failed"]
    finite = all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"]) for m in metrics.values())
    correct = failed == 0 and finite and bool(metrics)

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "iterations": result["iterations"],
        "metrics": {} if args.trace else metrics,
        # Each part's own named metrics, reported from untraced runs only.
        "parts": {} if args.trace else result.get("parts", {}),
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": result["failures"],
        "provenance": result["provenance"],
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
