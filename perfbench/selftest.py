"""Self-test of the benchmark's traced run.

For one seed, runs the traced pass of every workload twice and requires
that the layer counts repeat exactly and that no op failed. From the span
summary of the last traced run it requires that the functions each
workload was chosen for have more self time than any other layer, and
little or no share of op time on at least one other workload.

Run from the root of a checkout (takes a few minutes):

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
SEED = 7
EXACT_COUNTS = (
    "density_ratio.classifier_iterations",
    "transcal.objective_evals",
    "scaling.affine_iterations",
    "matrixio.bytes_written",
    "matrixio.bytes_read",
)
# The spans each workload was chosen for; a name ending in "." stands for
# every span of that layer.
CHOSEN = {
    "sweep": ("density_ratio.train_domain_classifier",),
    "fit_k10": ("transcal.optimize_transcal",),
    "affine_k10": ("scaling.fit_vector_scaling", "scaling.fit_matrix_scaling"),
    "cli_csv": ("matrixio.",),
}
LITTLE_SHARE = 0.05


def traced(workload: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def span_summary(workload: str) -> dict[str, dict]:
    """Per-span summary of the workload's last traced run."""
    trace = Path.cwd() / "perfbench" / "_run" / f"trace-{workload}-seed{SEED}.json"
    return json.loads(trace.read_text())["summary"]


def is_chosen(name: str, workload: str) -> bool:
    return any(name.startswith(c) if c.endswith(".") else name == c for c in CHOSEN[workload])


def main() -> int:
    problems = []
    summaries = {}
    for workload in CHOSEN:
        first, second = traced(workload), traced(workload)
        for run in (first, second):
            if not run["correct"]:
                problems.append(f"{workload}: {run['failed']} of {run['attempted']} ops failed")
        a, b = first["metrics"], second["metrics"]
        for name in (*EXACT_COUNTS, *(n for n in a if n.endswith(".calls"))):
            if a[name]["value"] != b[name]["value"]:
                problems.append(f"{workload}: {name} {a[name]['value']} != {b[name]['value']}")
        summaries[workload] = span_summary(workload)
        # self seconds of the chosen spans and of each other layer; "op" is the benchmark's own code
        groups: dict[str, float] = {}
        for name, entry in summaries[workload].items():
            if name != "op":
                group = "chosen" if is_chosen(name, workload) else name.split(".", 1)[0]
                groups[group] = groups.get(group, 0.0) + entry["self_s"]
        op_s = summaries[workload]["op"]["s"]
        rival = max((g for g in groups if g != "chosen"), key=groups.get)
        chosen = groups.get("chosen", 0.0)
        label = "+".join(CHOSEN[workload])
        print(f"{workload}: {label} self share {chosen / op_s:.3f}, next layer {rival} {groups[rival] / op_s:.3f}")
        if chosen <= groups[rival]:
            problems.append(f"{workload}: {rival} has more self time than {label}")
    for workload in CHOSEN:
        shares = [
            sum(e["self_s"] for n, e in summaries[w].items() if is_chosen(n, workload)) / summaries[w]["op"]["s"]
            for w in CHOSEN if w != workload
        ]
        if min(shares) > LITTLE_SHARE:
            problems.append(f"{workload}: chosen spans above {LITTLE_SHARE} of op time on every other workload")
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest passed" if not problems else f"selftest failed: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
