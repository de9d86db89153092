"""shiftcal benchmark: run one workload and print its metrics.

Usage, from the root of a shiftcal checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads: sweep, fit_k10, affine_k10, cli_csv (see perfbench/README.md).
With ``--trace 0`` the workload runs untraced as a closed loop with one
client for ``--seconds`` seconds, and the end-to-end metrics are printed.
``setup_s`` is the median over several fresh interpreters of the time from
process start to first op ready. With ``--trace 1`` the workload's first
``trace_ops`` ops run once untraced and once traced, and the per-layer
metrics are printed; spans go to ``perfbench/_run/trace-<workload>-seed<n>.json``.

Human-readable lines start with ``#``; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is non-zero, with no result line, when the workload cannot
run at all (for example outside a checkout).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sweep", "fit_k10", "affine_k10", "cli_csv")
SETUP_PROBES = 2  # setup-only interpreters besides the measuring one
TIME_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "target_ece.mean": "ratio",
}


def layer_unit(name: str) -> str:
    if name.endswith(("_s", ".s", "s_per_eval")):
        return "s"
    if name.endswith(("_share", ".transcal")):
        return "ratio"
    if name.startswith("matrixio.bytes_"):
        return "bytes"
    return "count"


def worker_env(threads: int) -> dict:
    env = dict(os.environ)
    # BLAS uses every core the process may run on, whatever the caller's shell sets
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_worker(args, env: dict, deadline: float, setup_only: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--spawned-at", repr(time.clock_gettime(time.CLOCK_MONOTONIC)),
    ]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(
        cmd, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one shiftcal benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "shiftcal" / "__init__.py").is_file():
        print("error: run from the root of a shiftcal checkout; src/shiftcal is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    threads = len(os.sched_getaffinity(0))
    env = worker_env(threads)
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(run_worker(args, env, deadline, setup_only=True)["setup_s"])
        result = run_worker(args, env, deadline, setup_only=False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setups.append(result["setup_s"])
    values = dict(result["metrics"])
    if args.trace:
        units = {name: layer_unit(name) for name in values}
    else:
        values["setup_s"] = statistics.median(setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        units = END_TO_END_UNITS
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    attempted, failed = result["attempted"], result["failed"]

    print(f"# host {json.dumps(result['host'], sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(result['info'])}")
    if not args.trace:
        print(f"# setup_s samples {[round(s, 4) for s in setups]}")
        print(f"# op_fail_share {failed / attempted if attempted else 0.0:.4f} ({failed} of {attempted})")
    else:
        shares = {k: round(v, 4) for k, v in values.items() if k.endswith("self_share")}
        print(f"# self-time shares {json.dumps(shares)}")
    for error in result["errors"]:
        print(f"# failed {error}")
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
