"""In-memory spans for the traced benchmark run, and the arithmetic on them.

The traced child swaps every public function of the seven fluctsel modules
for a twin that records a span, at every name a caller looks it up by (the
defining module and each ``from .x import f`` binding), so ``src/`` stays
untouched. A span holds its name, start, end, parent and run id; spans stay
in memory and are written out when the run ends.

The model's ``rate`` callable is called about half a million times on
``sigma0-logistic``, so its calls are folded into one aggregate span per
parent span, which carries the call count and the busy time.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

LAYERS = ("cli_io", "pde_solver", "floquet", "asymptotics", "rho_ode",
          "no_mutation", "env_models")

RATE = "env_models.rate"

# Per-layer metrics of the traced run, with their units. Names of the form
# "<span>.s" are total span time, "<span>.self_s" are self time.
PER_LAYER = (
    ("cli_io.run_experiment.self_s", "s"),
    ("cli_io.emit_bundle.s", "s"),
    ("cli_io.bundle_bytes", "bytes"),
    ("env_models.rate.calls", "count"),
    ("env_models.rate.s", "s"),
    ("pde_solver.find_periodic_orbit.s", "s"),
    ("pde_solver.orbit_periods", "count"),
    ("pde_solver.period_map_ms", "ms"),
    ("floquet.principal_eigenpair.s", "s"),
    ("floquet.eigen_periods", "count"),
    ("floquet.period_map_ms", "ms"),
    ("asymptotics.predict_moments.s", "s"),
    ("asymptotics.measure_moments.s", "s"),
    ("asymptotics.fitness_comparison.self_s", "s"),
    ("asymptotics.fitness_samples.s", "s"),
    ("asymptotics.stationary_constant_env.self_s", "s"),
    ("rho_ode.integrate_logistic.s", "s"),
    ("rho_ode.periodic_rho_closed_form.s", "s"),
    ("no_mutation.simulate_sigma0.s", "s"),
    ("trace.wall_s", "s"),
    ("trace.self_sum_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Collects the spans of one run of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._rate: dict = {}

    def _parent(self):
        return self._stack[-1]["id"] if self._stack else None

    def wrap(self, name: str, fn):
        """Return a twin of fn that records one span per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name, "run": self.run_id,
                    "parent": self._parent(), "start": time.perf_counter(),
                    "end": None}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            span.update(self._after(name, result))
            return result

        return traced

    def wrap_rate(self, fn):
        """Return a twin of a model's rate(t, x) that counts and times calls."""

        def rate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                parent = self._parent()
                agg = self._rate.get(parent)
                if agg is None:
                    agg = {"id": len(self.spans), "name": RATE,
                           "run": self.run_id, "parent": parent,
                           "start": start, "end": end, "calls": 0, "busy": 0.0}
                    self._rate[parent] = agg
                    self.spans.append(agg)
                agg["calls"] += 1
                agg["busy"] += end - start
                agg["end"] = end

        return rate

    def _after(self, name: str, result) -> dict:
        """Counts read off a layer's return value, kept on its span."""
        if name == "cli_io.build_model":
            result.rate = self.wrap_rate(result.rate)
        elif name == "pde_solver.find_periodic_orbit":
            return {"periods": result.periods_run}
        elif name == "floquet.principal_eigenpair":
            # power-iteration periods plus the recorded one
            return {"periods": result.iterations + 1}
        elif name == "cli_io.emit_bundle":
            return {"bytes": sum(os.path.getsize(p) for p in result)}
        return {}


def install(tracer: Tracer) -> None:
    """Swap each public layer function for its traced twin everywhere."""
    twins = {}
    for layer in LAYERS:
        mod = sys.modules[f"fluctsel.{layer}"]
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                twins[obj] = tracer.wrap(f"{layer}.{name}", obj)
    for modname, mod in list(sys.modules.items()):
        if modname != "fluctsel" and not modname.startswith("fluctsel."):
            continue
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in twins:
                setattr(mod, name, twins[obj])


def duration(span: dict) -> float:
    """Busy time of a span; an aggregate span counts only its calls."""
    return span["busy"] if "busy" in span else span["end"] - span["start"]


def self_times(spans: list[dict]) -> dict:
    """Map span id to its duration minus the time its child spans cover.

    The program is single-threaded, so the children of one span never
    overlap and the time they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += duration(span)
    return {span["id"]: duration(span) - covered[span["id"]] for span in spans}


def _per_period_ms(seconds: float, periods: float) -> float:
    return 1000.0 * seconds / periods if periods else 0.0


def layer_metrics(spans: list[dict]) -> dict:
    """Every PER_LAYER metric of one traced run except trace.wall_s and
    trace.overhead_s, which need the run's wall times. A layer that did not
    run reads 0."""
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    counts = defaultdict(float)
    for span in spans:
        name = span["name"]
        total[name] += duration(span)
        own[name] += selfs[span["id"]]
        for key in ("calls", "periods", "bytes"):
            counts[f"{name}.{key}"] += span.get(key, 0)
    orbit_periods = counts["pde_solver.find_periodic_orbit.periods"]
    eigen_periods = counts["floquet.principal_eigenpair.periods"]
    out = {
        "cli_io.bundle_bytes": counts["cli_io.emit_bundle.bytes"],
        "env_models.rate.calls": counts[f"{RATE}.calls"],
        "pde_solver.orbit_periods": orbit_periods,
        "pde_solver.period_map_ms": _per_period_ms(
            total["pde_solver.find_periodic_orbit"], orbit_periods),
        "floquet.eigen_periods": eigen_periods,
        "floquet.period_map_ms": _per_period_ms(
            total["floquet.principal_eigenpair"], eigen_periods),
        "trace.self_sum_s": sum(selfs.values()),
    }
    for name, _unit in PER_LAYER:
        if name in out or name.startswith("trace."):
            continue
        base, _, kind = name.rpartition(".")
        out[name] = own[base] if kind == "self_s" else total[base]
    return out
