"""Spans around epqed's public functions, recorded from outside the library.

A span is (name, start, end, parent, work).  Spans are kept in memory and
turned into per-layer metrics when a traced round ends: calls, busy time,
self time (busy time minus the time of direct child spans) and work counts.

A function is wrapped in every namespace its callers look it up in: the
library calls most functions through the module attribute (for example
`master.build_liouvillian` from `blockade`), but `dynamics` imported
`coupling_matrix` by name, so both `spectra.coupling_matrix` and
`dynamics.coupling_matrix` are replaced.
"""
from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from epqed import blockade, cli, dynamics, ldos, master, spectra


def _size(name):
    return lambda bound, result: len(bound.arguments[name])


def _generator_mib(bound, result):
    m = result.matrix
    if hasattr(m, "nbytes"):
        held = m.nbytes
    else:  # a scipy.sparse generator: sum the arrays it keeps
        held = sum(getattr(m, a).nbytes for a in ("data", "indices", "indptr", "row", "col")
                   if hasattr(m, a))
    return held / 2**20


def _csv_bytes(bound, result):
    return Path(bound.arguments["path"]).stat().st_size


def _omega_points(bound, result):
    return int(np.size(bound.arguments["omega"]))


# layer name -> (namespaces holding it, {work metric: (from call, combine)})
LAYERS = {
    "master.build_liouvillian": ([master], {"matrix_mib": (_generator_mib, max)}),
    "master.steady_state": ([master], {}),
    "master.evolve": ([master], {"samples": (_size("t_grid"), sum)}),
    "master.two_time_correlation": ([master], {"samples": (_size("tau_grid"), sum)}),
    "master.convergence_check": ([master], {}),
    "ldos.numerical_spectral_density": ([ldos], {}),
    "dynamics.amplitude_evolve": ([dynamics], {"samples": (_size("t_grid"), sum)}),
    "dynamics.trapped_population": ([dynamics], {}),
    "dynamics.concurrence_series": ([dynamics], {}),
    "spectra.coupling_matrix": ([spectra, dynamics], {}),
    "spectra.eigenmodes": ([spectra], {}),
    "spectra.min_decay": ([spectra], {}),
    "ldos.spectral_density": ([ldos], {"points": (_omega_points, sum)}),
    "spectra.se_spectrum": ([spectra], {}),
    "ldos.fit_lorentzian": ([ldos], {}),
    "blockade.g2_sweep": ([blockade], {"points": (_size("detuning_grid"), sum)}),
    "blockade.g2_zero": ([blockade], {"points": (lambda b, r: 1, sum)}),
    "cli.main": ([cli], {}),
    "cli.write_csv": ([cli], {"csv_bytes": (_csv_bytes, sum)}),
}
# layers that call other wrapped layers, so their self time differs from busy time
PARENT_LAYERS = ("master.convergence_check", "ldos.numerical_spectral_density",
                 "dynamics.amplitude_evolve", "dynamics.trapped_population",
                 "dynamics.concurrence_series", "spectra.min_decay",
                 "blockade.g2_sweep", "blockade.g2_zero", "cli.main")
# layers whose sweep points are compared with the generators they build
POINTS_PER_BUILD = ("blockade.g2_sweep", "blockade.g2_zero")


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric the traced run reports, with its unit."""
    names = []
    for layer, (_, work) in LAYERS.items():
        names += [(f"{layer}.calls", "count"), (f"{layer}.busy_s", "s")]
        if layer in PARENT_LAYERS:
            names.append((f"{layer}.self_s", "s"))
        names += [(f"{layer}.{w}", "MiB" if w.endswith("_mib") else
                   "bytes" if w.endswith("_bytes") else "count") for w in work]
        if layer in POINTS_PER_BUILD:
            names.append((f"{layer}.points_per_build", "count"))
    return names


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    work: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers while active; collects the spans of one round."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._originals = []

    def __enter__(self):
        for layer, (namespaces, work) in LAYERS.items():
            attr = layer.split(".", 1)[1]
            original = getattr(namespaces[0], attr)
            wrapped = self._wrap(layer, original, work)
            for ns in namespaces:
                self._originals.append((ns, attr, getattr(ns, attr)))
                setattr(ns, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for ns, attr, original in reversed(self._originals):
            setattr(ns, attr, original)
        self._originals.clear()
        return False

    def _wrap(self, layer, original, work):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span = Span(layer, time.perf_counter(), self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if work:
                bound = signature.bind(*args, **kwargs)
                span.work = {k: fn(bound, result) for k, (fn, _) in work.items()}
            return result

        return traced

    def overhead_s(self, plain_s: float, counted_s: float) -> float:
        """Time the wrappers added to the recorded spans, from span_cost()."""
        return sum(counted_s if s.work else plain_s for s in self.spans)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far."""
        child_time = [0.0] * len(self.spans)
        builds_under = [0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
                if s.name == "master.build_liouvillian":
                    builds_under[s.parent] += 1
        out = {}
        for layer, (_, work) in LAYERS.items():
            idx = [i for i, s in enumerate(self.spans) if s.name == layer]
            mine = [self.spans[i] for i in idx]
            out[f"{layer}.calls"] = len(mine)
            out[f"{layer}.busy_s"] = sum(s.end - s.start for s in mine)
            if layer in PARENT_LAYERS:
                out[f"{layer}.self_s"] = out[f"{layer}.busy_s"] - sum(child_time[i] for i in idx)
            for w, (_, combine) in work.items():
                out[f"{layer}.{w}"] = combine([s.work[w] for s in mine]) if mine else 0
            if layer in POINTS_PER_BUILD:
                builds = sum(builds_under[i] for i in idx)
                out[f"{layer}.points_per_build"] = (
                    out[f"{layer}.points"] / builds if builds else 0)
        return out

    def dump(self, fh, round_index: int):
        """Write the spans, one JSON object a line, with times relative to the first."""
        t0 = self.spans[0].start if self.spans else 0.0
        for i, s in enumerate(self.spans):
            fh.write(json.dumps({"round": round_index, "id": i, "name": s.name,
                                 "parent": s.parent, "start": s.start - t0,
                                 "end": s.end - t0, **s.work}) + "\n")


def span_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds a wrapper adds to one call, without and with work counters.

    Measured on a function that does nothing, so that the tracing overhead
    of a round is known without timing an untraced round beside it: on a
    machine whose speed drifts by tens of percent, the difference of two
    round times would not resolve it.
    """
    def noop(x=None):
        return x

    tracer = Tracer()
    plain = tracer._wrap("calibration", noop, {})
    counted = tracer._wrap("calibration", noop, {"n": (lambda bound, result: 1, sum)})

    def per_call(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn(1)
        return (time.perf_counter() - start) / calls

    base = per_call(noop)
    return max(per_call(plain) - base, 0.0), max(per_call(counted) - base, 0.0)
