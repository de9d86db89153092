"""Run one workload in a fresh interpreter; started by ``run.py``.

The worker imports shiftcal from ``src/`` of the current directory, builds
the workload's inputs, and reports the moment it is ready (set-up ends
there). ``--setup-only`` stops at that point. Otherwise it runs either the
timed closed loop (one client, tracing off) or, with ``--trace 1``, the
workload's first ``trace_ops`` ops once untraced and once traced. The last
line of its output is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
RUN_DIR = ROOT / "perfbench" / "_run"
TIMED_PHASE_CAP_S = 120.0  # hard stop for a run, whatever --seconds asks


def now() -> float:
    """System-wide monotonic clock, comparable with the parent process."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_shiftcal():
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import shiftcal

    if not Path(shiftcal.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"shiftcal imported from {shiftcal.__file__}, not from {src}")
    return shiftcal


def host_facts() -> dict:
    """nproc, interpreter and library versions, BLAS threads, last-level cache."""
    import numpy
    import scipy

    blas_threads = None
    for lib in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))  # already loaded by numpy: same handle
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None and blas_threads is None:
                fn.restype = ctypes.c_int
                blas_threads = fn()
    llc = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], stdout=subprocess.PIPE, text=True, timeout=10)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads,
        "llc_bytes": int(llc.stdout) if llc.stdout.strip().isdigit() else None,
    }


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond). With ten or fewer samples no
    percentile qualifies and the maximum is reported with zero beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Loop:
    """Runs and checks ops, collecting latencies, failures and fit quality."""

    def __init__(self, workload) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.quality: dict[int, list[dict]] = {}

    def op(self, i: int, span=contextlib.nullcontext) -> tuple[float, bool]:
        """Run op ``i`` inside ``span(i)``; returns its latency and whether it passed its checks.

        Only the call into shiftcal is timed; the output checks run after.
        """
        self.attempted += 1
        try:
            with span(i):
                start = time.perf_counter()
                try:
                    out = self.workload.run(i)
                finally:
                    latency = time.perf_counter() - start
            errors, fits = self.workload.check(i, out)
        except Exception as exc:  # any raise is a failed op, not a failed run
            errors, fits = [f"{type(exc).__name__}: {exc}"], []
        if errors:
            self.failed += 1
            self.errors.append(f"op {i}: " + "; ".join(errors))
        self.quality.setdefault(i, fits)
        return latency, not errors

    def quality_metrics(self, ops: int) -> dict[str, float]:
        """Fit quality over ops ``0 .. ops - 1``, a prefix every run completes."""
        fits = [f for i in range(ops) for f in self.quality[i]]
        transcal = [f for f in fits if f["method"] == "transcal"]
        out = {"target_ece.mean": statistics.fmean(f["target_ece"] for f in fits) if fits else 0.0}
        out["target_ece.transcal"] = statistics.fmean(f["target_ece"] for f in transcal) if transcal else 0.0
        out["t_rel_err.transcal"] = statistics.fmean(f["t_rel_err"] for f in transcal) if transcal else 0.0
        return out


def timed_run(workload, seconds: float) -> tuple[Loop, dict, dict]:
    loop = Loop(workload)
    latencies = []
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= TIMED_PHASE_CAP_S or (i % workload.block == 0 and elapsed >= seconds and i > 0):
            break
        latency, ok = loop.op(i)
        if ok:
            latencies.append(latency)
        i += 1
    busy = sum(latencies)
    # the reference prefix always completes; ops past the deadline are untimed
    for j in range(i, workload.reference_ops):
        loop.op(j)
    # with no passing op the timings read 0 (the result is marked incorrect)
    tail_s, percentile, beyond = tail(latencies) if latencies else (0.0, 0.0, 0)
    metrics = {
        "throughput_ops_s": len(latencies) / busy if busy else 0.0,
        "op_p50_s": statistics.median(latencies) if latencies else 0.0,
        "op_tail_s": tail_s,
    }
    metrics.update(loop.quality_metrics(workload.reference_ops))
    info = {
        "timed_ops": i,
        "completed_ops": len(latencies),
        "op_tail_percentile": percentile,
        "op_tail_samples_beyond": beyond,
        "timed_phase_s": time.perf_counter() - start,
    }
    return loop, metrics, info


def traced_run(workload, api):
    import shiftcal.bench
    import shiftcal.cli

    from tracing import Tracer

    tracer = Tracer()
    loop = Loop(workload)
    plain = traced = 0.0
    for i in range(workload.trace_ops):
        # alternate which pass goes first so neither always runs on warm caches
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer.installed((shiftcal.bench, shiftcal.cli), api):
                    latency, _ = loop.op(i, lambda op: tracer.span("op", op=op))
                traced += latency
            else:
                latency, _ = loop.op(i)
                plain += latency
    return loop, tracer, {"untraced_s": plain, "traced_s": traced}


def layer_metrics(tracer, timing: dict, quality: dict) -> dict[str, float]:
    summary = tracer.summary()
    counts = tracer.counts

    def total(name: str, key: str = "s") -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out: dict[str, float] = {}
    for name in (
        "synthshift.generate",
        "density_ratio.train_domain_classifier",
        "transcal.optimize_transcal",
        "metrics.metric_report",
    ):
        out[f"{name}.calls"] = total(name, "calls")
    for name in (
        "synthshift.generate",
        "density_ratio.upsample_balance",
        "density_ratio.train_domain_classifier",
        "density_ratio.estimate_weights",
        "transcal.optimize_transcal",
        "scaling.fit_temperature_nll",
        "scaling.fit_oracle_temperature",
        "scaling.fit_cpcs_temperature",
        "scaling.softmax_with_temperature",
        "scaling.fit_vector_scaling",
        "scaling.fit_matrix_scaling",
        "scaling.apply_affine_scaling",
        "metrics.metric_report",
        "matrixio.save_matrix",
        "matrixio.load_matrix",
        "matrixio.load_probabilities",
        "matrixio.save_labels",
        "matrixio.load_labels",
        "matrixio.dump_json",
    ):
        out[f"{name}.s"] = total(name)
    out["density_ratio.classifier_iterations"] = counts.get("classifier_iterations", 0)
    out["density_ratio.classifier_converged_share"] = ratio(
        counts.get("classifier_converged", 0), counts.get("classifier_fits", 0)
    )
    out["transcal.objective_evals"] = counts.get("objective_evals", 0)
    out["transcal.s_per_eval"] = ratio(total("transcal.optimize_transcal"), counts.get("objective_evals", 0))
    out["transcal.refined_share"] = ratio(counts.get("refined", 0), counts.get("refine_attempts", 0))
    out["transcal.lambda_at_bound_share"] = ratio(
        counts.get("lambda_at_bound", 0), counts.get("lambda_fits", 0)
    )
    out["target_ece.transcal"] = quality["target_ece.transcal"]
    out["t_rel_err.transcal"] = quality["t_rel_err.transcal"]
    out["scaling.affine_iterations"] = counts.get("affine_iterations", 0)
    out["scaling.affine_converged_share"] = ratio(
        counts.get("affine_converged", 0), counts.get("affine_fits", 0)
    )
    out["matrixio.bytes_written"] = counts.get("bytes_written", 0)
    out["matrixio.bytes_read"] = counts.get("bytes_read", 0)
    for command in ("gen-synth", "calibrate", "evaluate"):
        out[f"cli.{command}.self_s"] = total(f"cli.{command}", "self_s")
    out["bench.run_single.self_s"] = total("bench.run_single", "self_s")

    op_time = total("op")
    layer_self: dict[str, float] = {}
    for name, entry in summary.items():
        layer = "harness" if name == "op" else name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + entry["self_s"]
    for layer in ("synthshift", "density_ratio", "transcal", "scaling", "metrics", "matrixio", "cli", "bench"):
        out[f"{layer}.self_share"] = ratio(layer_self.get(layer, 0.0), op_time)
    out["trace.overhead_share"] = 1.0 - ratio(timing["untraced_s"], timing["traced_s"])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's monotonic clock at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_shiftcal()
    from workloads import WORKLOADS, make_api

    api = make_api()
    workdir = RUN_DIR / f"work-{os.getpid()}"
    workload = WORKLOADS[args.workload](api, args.seed, workdir)
    setup_s = now() - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    result: dict = {"setup_s": setup_s}
    try:
        if args.trace:
            loop, tracer, timing = traced_run(workload, api)
            metrics = layer_metrics(tracer, timing, loop.quality_metrics(workload.trace_ops))
            trace_file = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            RUN_DIR.mkdir(parents=True, exist_ok=True)
            tracer.write(trace_file)
            result["info"] = {"trace_file": str(trace_file.relative_to(ROOT)), **timing}
        else:
            loop, metrics, info = timed_run(workload, args.seconds)
            result["info"] = info
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # ru_maxrss is in KiB on Linux
    result["host"] = host_facts()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result.update(
        metrics=metrics,
        attempted=loop.attempted,
        failed=loop.failed,
        errors=loop.errors[:20],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
