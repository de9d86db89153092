"""Call-site spans for the traced benchmark pass.

The tracer replaces functions at the places that call into a layer: the
module globals of ``shiftcal.bench`` and ``shiftcal.cli`` (which import the
layer functions by name) and the benchmark's own call table. Internal calls
inside a layer module are left alone, so a span covers one call across a
layer boundary.

Every span is kept in memory as ``[name, start, end, parent, op]`` with
``parent`` the index of the enclosing span (-1 for a root) and ``op`` the
benchmark op it belongs to. ``summary`` derives per-name call counts,
inclusive time and self time (inclusive time minus the time covered by
child spans); ``write`` dumps everything as JSON when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from contextlib import contextmanager

# Modules whose public functions count as a layer; bench and cli are the glue.
LAYER_MODULES = (
    "shiftcal.synthshift",
    "shiftcal.density_ratio",
    "shiftcal.scaling",
    "shiftcal.transcal",
    "shiftcal.metrics",
    "shiftcal.matrixio",
)

_WRITERS = ("save_matrix", "save_labels", "dump_json")
_READERS = ("load_matrix", "load_labels", "load_probabilities")


def span_name(fn) -> str:
    """``module.function`` with the package prefix dropped, e.g. ``scaling.fit_temperature_nll``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """In-memory span recorder plus the layer counters read off call results."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._op: int | None = None

    @contextmanager
    def span(self, name: str, op: int | None = None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def add(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, fn):
        name = span_name(fn)
        observe = _OBSERVERS.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def wrap_cli_main(self, main):
        """Span each ``cli.main(argv)`` call as ``cli.<subcommand>``."""

        @functools.wraps(main)
        def traced(argv):
            with self.span(f"cli.{argv[0]}"):
                return main(argv)

        return traced

    @contextmanager
    def installed(self, call_sites, api):
        """Trace the layer functions imported into ``call_sites`` and all of ``api``.

        ``call_sites`` are modules such as ``shiftcal.bench``; only their
        imported layer functions are replaced, so their own helpers count as
        glue. ``api`` is the benchmark's call table, traced entry by entry.
        """
        saved = []
        for site in (*call_sites, api):
            for attr, value in list(vars(site).items()):
                if site is api and attr == "cli_main":
                    traced = self.wrap_cli_main(value)
                elif inspect.isfunction(value) and (
                    site is api or value.__module__ in LAYER_MODULES
                ):
                    traced = self.wrap(value)
                else:
                    continue
                saved.append((site, attr, value))
                setattr(site, attr, traced)
        try:
            yield
        finally:
            for site, attr, value in reversed(saved):
                setattr(site, attr, value)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - covered[i]
        return out

    def write(self, path) -> None:
        payload = {
            "fields": ["name", "start", "end", "parent", "op"],
            "spans": self.spans,
            "summary": self.summary(),
            "counts": self.counts,
        }
        with open(path, "w", encoding="ascii") as fh:
            json.dump(payload, fh)


def _classifier(tracer: Tracer, args, clf) -> None:
    tracer.add("classifier_fits")
    tracer.add("classifier_iterations", clf.iterations)
    tracer.add("classifier_converged", int(clf.converged))


def _transcal(tracer: Tracer, args, solution) -> None:
    tracer.add("objective_evals", len(solution.trace))
    tracer.add("refine_attempts")
    tracer.add("refined", int(solution.diagnostics["refined"]))
    if not solution.diagnostics["freeze_lambda"]:
        tracer.add("lambda_fits")
        tracer.add("lambda_at_bound", int(solution.lambda_star in (0.0, 1.0)))


def _affine(tracer: Tracer, args, param) -> None:
    tracer.add("affine_fits")
    tracer.add("affine_iterations", param.iterations)
    tracer.add("affine_converged", int(param.converged))


def _wrote(tracer: Tracer, args, result) -> None:
    tracer.add("bytes_written", os.path.getsize(args[0]))


def _read(tracer: Tracer, args, result) -> None:
    tracer.add("bytes_read", os.path.getsize(args[0]))


_OBSERVERS = {
    "train_domain_classifier": _classifier,
    "optimize_transcal": _transcal,
    "fit_vector_scaling": _affine,
    "fit_matrix_scaling": _affine,
    **{name: _wrote for name in _WRITERS},
    **{name: _read for name in _READERS},
}
