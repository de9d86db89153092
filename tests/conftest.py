"""Shared fixtures: one full benchmark sweep reused by the acceptance tests.

The sweep runs the complete scenario grid (shift magnitude x variance
scale x distortion temperature) for ten seeds with every temperature-family
method, estimated weights included. Building it once per session keeps the
acceptance tests within their runtime budgets.
"""

import time

import pytest

import shiftcal as sc
from shiftcal import transcal

SWEEP_SEEDS = tuple(range(10))
SWEEP_N_SOURCE = 6000
SWEEP_N_TARGET = 6000
SWEEP_METHODS = (
    "uncalibrated",
    "temp",
    "cpcs",
    "transcal",
    "transcal-no-bias",
    "transcal-no-variance",
    "oracle",
)


_TIMINGS: dict = {}


@pytest.fixture(autouse=True)
def no_remembered_transcal_state():
    """Every test starts with an empty transcal state slot, so that no test
    reads scores another one left behind."""
    transcal._shared = None


@pytest.fixture(scope="session")
def sweep():
    start = time.monotonic()
    grid = sc.default_grid()
    cells = {}
    for name, scenario in grid:
        runs = [
            sc.run_single(
                scenario,
                SWEEP_N_SOURCE,
                SWEEP_N_TARGET,
                seed,
                methods=SWEEP_METHODS,
            )
            for seed in SWEEP_SEEDS
        ]
        cells[name] = {"scenario": scenario, "runs": runs}
    _TIMINGS["sweep_seconds"] = time.monotonic() - start
    return cells


@pytest.fixture(scope="session")
def sweep_build_seconds(sweep):
    return _TIMINGS["sweep_seconds"]


def mean_over_runs(cell, method, path):
    """Average a nested record field over a cell's seeds."""
    total = 0.0
    for run in cell["runs"]:
        value = run["methods"][method]
        for key in path:
            value = value[key]
        total += value
    return total / len(cell["runs"])
