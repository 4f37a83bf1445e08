"""Configuration files, experiment drivers, and result bundles.

The `fluctsel` command runs one named experiment from a config file plus
command-line overrides and writes a result bundle: `manifest.json` (version,
the fully resolved config, timing), one CSV per result table, and
`summary.json` with scalar outcomes. Emission is deterministic: re-running
an experiment rewrites byte-identical CSV and summary files; only the timing
block of the manifest changes.

Config files use INI-like sections

    [model]
    kind = oscillating_optimum
    r = 1.0
    ...

or, when the file starts with "{", a JSON object with the same section names.
Unknown keys, type mismatches, and values outside their bounds are reported
with their source: file:line, a JSON file's [section] key, or the override
text; a config built in code meets the same types and bounds when it is
resolved.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import asymptotics, env_models, floquet, no_mutation, pde_solver, rho_ode
from .errors import ConfigError, ConvergenceError, ExtinctionError, NumericalError

__version__ = "0.1.0"


@dataclass
class RunConfig:
    """Fully resolved description of one experiment run."""

    model: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)
    experiment: str = ""
    out_dir: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class ResultBundle:
    """Everything one experiment run emits."""

    manifest: dict
    tables: dict
    summary: dict


# ---------------------------------------------------------------------------
# config schema (_SCHEMA is derived from the defaults, below the drivers)

def _coerce(raw, want: type, where):
    """Coerce a raw string or JSON value to the schema type (float, int, str,
    or list: a list of floats)."""
    try:
        if want is float:
            if isinstance(raw, bool):
                raise ValueError("boolean where a number is expected")
            return float(raw)
        if want is int:
            if isinstance(raw, bool):
                raise ValueError("boolean where an integer is expected")
            if isinstance(raw, float) and raw != int(raw):
                raise ValueError(f"{raw} is not an integer")
            return int(raw)
        if want is str:
            if not isinstance(raw, str):
                raise ValueError(f"expected a string, got {type(raw).__name__}")
            return raw
        if want is list:
            if isinstance(raw, str):
                parts = [p for p in raw.replace(",", " ").split() if p]
                return [float(p) for p in parts]
            return [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    raise ConfigError(f"{where}: unknown schema type {want.__name__}")


def _parse_ini_sections(text: str, origin: str):
    """INI-like parse keeping the file:line source of every key."""
    sections: dict[str, dict] = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].split(";", 1)[0].strip()
        if not body:
            continue
        if body.startswith("["):
            if not body.endswith("]"):
                raise ConfigError(f"{origin}:{lineno}: unterminated section header")
            name = body[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(
                    f"{origin}:{lineno}: unknown section [{name}] "
                    f"(known: {', '.join(sorted(_SCHEMA))})")
            current = sections.setdefault(name, {})
            continue
        if "=" not in body:
            raise ConfigError(f"{origin}:{lineno}: expected 'key = value'")
        if current is None:
            raise ConfigError(f"{origin}:{lineno}: key outside of any section")
        key, _, value = body.partition("=")
        key = key.strip()
        if key in current:
            raise ConfigError(f"{origin}:{lineno}: duplicate key {key!r}")
        current[key] = (value.strip(), f"{origin}:{lineno}")
    return sections


def _set(cfg: RunConfig, sec: str, key: str, raw, where: str) -> None:
    """Check one key against the schema and its bound, and store its coerced
    value; where names the source (a file line, a JSON file, an override)."""
    schema = _SCHEMA[sec]
    if key not in schema:
        raise ConfigError(f"{where}: unknown key {key!r} in [{sec}] "
                          f"(known: {', '.join(sorted(schema))})")
    value = _checked(sec, key, raw, f"{where}: [{sec}] {key}")
    if sec != "experiment":
        getattr(cfg, sec)[key] = value
    elif key == "tag":
        if value not in EXPERIMENT_TAGS:
            raise ConfigError(f"{where}: unknown experiment tag {value!r}")
        cfg.experiment = value
    elif key == "out":
        cfg.out_dir = value
    else:
        cfg.extra[key] = value


def _validated(sections: dict) -> RunConfig:
    """Apply the schema to parsed sections of (value, source) pairs."""
    cfg = RunConfig()
    for sec, entries in sections.items():
        for key, (raw, where) in entries.items():
            _set(cfg, sec, key, raw, where)
    _check_constraints(cfg, lambda sec, key: f"{sections[sec][key][1]}: [{sec}] {key}")
    return cfg


def _check_constraints(cfg: RunConfig, name=lambda sec, key: f"[{sec}] {key}"):
    """The check that reads two keys; name(sec, key) names the source of a
    value."""
    grid = cfg.grid
    if "x_lo" in grid and "x_hi" in grid and not grid["x_hi"] > grid["x_lo"]:
        raise ConfigError(f"{name('grid', 'x_hi')}: x_hi must exceed x_lo")


def parse_config(path: str) -> RunConfig:
    """Read and validate a config file (INI-like sections or JSON)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read config file: {exc.strerror}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        sections = {}
        for sec, entries in data.items():
            if sec not in _SCHEMA:
                raise ConfigError(f"{path}: unknown section {sec!r}")
            if not isinstance(entries, dict):
                raise ConfigError(f"{path}: section {sec!r} must be an object")
            sections[sec] = {k: (v, path) for k, v in entries.items()}
        return _validated(sections)
    return _validated(_parse_ini_sections(text, path))


def apply_override(cfg: RunConfig, text: str) -> None:
    """Apply one 'section.key=value' command-line override in place."""
    head, sep, value = text.partition("=")
    if not sep:
        raise ConfigError(f"override {text!r} is not of the form section.key=value")
    sec, dot, key = head.strip().partition(".")
    if not dot:
        raise ConfigError(f"override {text!r} is not of the form section.key=value")
    if sec not in _SCHEMA:
        raise ConfigError(f"override {text!r}: unknown section {sec!r}")
    where = f"override {text!r}"
    _set(cfg, sec, key, value.strip(), where)
    # re-check cross-key constraints on the merged config
    _check_constraints(cfg, lambda sec, key: f"{where}: [{sec}] {key}")


# ---------------------------------------------------------------------------
# building blocks

# The [model] parameters each kind reads, with their defaults; a tabulated
# model has no default path.
MODEL_KINDS = {
    "oscillating_optimum": {"r": 1.0, "g": 1.0, "c": 1.0, "b": 2.0 * np.pi},
    "oscillating_pressure": {"r": 1.0, "g_mean": 2.0, "g_amp": 0.0},
    "tabulated": {"path": None},
}


def build_model(model_cfg: dict, grid_cfg: dict) -> env_models.EnvironmentModel:
    """Construct the environment model of a resolved [model] block: a known
    kind and every parameter it reads (resolve_config fills them in)."""
    p = model_cfg
    if p["kind"] == "oscillating_optimum":
        return env_models.make_oscillating_optimum(r=p["r"], g=p["g"], c=p["c"], b=p["b"])
    if p["kind"] == "oscillating_pressure":
        def g_fn(t, _m=p["g_mean"], _a=p["g_amp"]):
            return _m + _a * np.cos(2.0 * np.pi * t)

        return env_models.make_oscillating_pressure(p["r"], g_fn)
    return env_models.load_tabulated(p["path"], grid_cfg["x_lo"], grid_cfg["x_hi"])


def _sigma_of(solver: dict) -> float:
    """eps^2, else 0: sigma0-convergence and epsilon-limit read no eps
    (epsilon-limit takes its eps values from eps_list)."""
    eps = solver.get("eps", 0.0)
    return eps * eps


def build_grid(cfg: RunConfig) -> pde_solver.SimulationGrid:
    """SimulationGrid from the (defaults-resolved) grid and solver blocks."""
    g = cfg.grid
    return pde_solver.SimulationGrid(
        x_lo=g["x_lo"], x_hi=g["x_hi"], nx=g["nx"],
        steps_per_period=cfg.solver["steps_per_period"], sigma=_sigma_of(cfg.solver))


# ---------------------------------------------------------------------------
# experiment drivers

def _run_sigma0(cfg: RunConfig, model):
    T = model.period
    x_m = env_models.averaged_optimum(model, (cfg.grid["x_lo"], cfg.grid["x_hi"]))
    q = rho_ode.PeriodicScalarSignal.from_array_callable(
        T, lambda ts: env_models.rate_table(model, ts, np.array([x_m]))[:, 0])
    orbit = rho_ode.periodic_rho_closed_form(q)

    t_end = cfg.extra["t_end"]
    # one integration from both starts; only the last period is kept
    times_l, (rho_low, rho_high) = rho_ode.integrate_logistic(q, np.array([0.05, 5.0]), t_end)
    keep = times_l >= t_end - T - 1e-12
    times_l, rho_low, rho_high = times_l[keep], rho_low[keep], rho_high[keep]
    closed = orbit(times_l)
    qbar = q.mean()
    q_const = rho_ode.PeriodicScalarSignal.from_array_callable(T, lambda t: np.full(len(t), qbar))
    const_gap = float(np.abs(rho_ode.periodic_rho_closed_form(q_const).values - qbar).max())

    grid = build_grid(cfg)
    w0 = cfg.extra["w0"]
    # a unit-mass Gaussian of width w0 at x_m
    n0 = np.exp(-((grid.x - x_m) ** 2) / (2.0 * w0 * w0)) / (w0 * np.sqrt(2.0 * np.pi))
    t_density = cfg.extra["t_end_density"]
    state, (times_d, rho_d), diag = no_mutation.simulate_sigma0(
        grid, model, n0, t_density)
    metrics = no_mutation.concentration_metrics(
        grid, state, radius=cfg.extra["window"], center=x_m)
    last = times_d >= t_density - T - 1e-12
    rho_gap_final = float(np.abs(rho_d[last] - orbit(times_d[last])).max())

    stride = max(1, len(times_d) // 2048)
    rows_density = np.column_stack([
        times_d[::stride], rho_d[::stride], orbit(times_d[::stride])])
    tables = {
        "logistic_compare": (["t", "rho_closed", "rho_from_low", "rho_from_high"],
                             np.column_stack([times_l, closed, rho_low, rho_high])),
        "sigma0_rho": (["t", "rho", "rho_closed"], rows_density),
    }
    summary = {
        "final_period_gap_from_low": float(np.abs(rho_low - closed).max()),
        "final_period_gap_from_high": float(np.abs(rho_high - closed).max()),
        "constant_rate_collapse_gap": const_gap,
        "orbit_mean": orbit.mean(),
        "mass_outside_window": metrics.mass_outside,
        "variance_final": metrics.variance,
        "mean_final": metrics.mean,
        "rho_gap_final_period": rho_gap_final,
        "extinct": bool(diag["extinct"]),
    }
    return tables, summary


def _run_periodic_orbit(cfg: RunConfig, model):
    grid = build_grid(cfg)
    pair = pde_solver.principal_eigenpair(grid, model, tol=cfg.solver["eigen_tol"])
    summary = {"lambda": pair.lam, "eigen_iterations": pair.iterations}
    try:
        record = pde_solver.orbit_from_pair(pair)
    except ExtinctionError as exc:
        t_end = cfg.extra["t_end"]
        n0 = pde_solver.default_orbit_guess(grid, model)
        _, (times, rho), _ = pde_solver.simulate(grid, model, n0, t_end)
        stride = max(1, len(times) // 2048)
        tables = {"rho_decay": (["t", "rho"],
                                np.column_stack([times[::stride], rho[::stride]]))}
        summary.update({
            "extinct": True,
            "message": str(exc),
            "rho_final": float(rho[-1]),
            "t_final": float(times[-1]),
        })
        return tables, summary

    summary.update({
        "extinct": False,
        "period_gap": record.period_gap,
        "periods_run": record.periods_run,
        "rho_mean": record.rho.mean(),
        "identity_residual": floquet.lambda_identity_residual(
            pair, floquet.effective_signals(pair, model)),
    })
    summary.update(floquet.orbit_bounds(record, model))
    tables = {
        "orbit_rho": (["t", "rho"],
                      np.column_stack([record.rho.times, record.rho.values])),
    }
    return tables, summary


def _run_floquet_sweep(cfg: RunConfig, model):
    records = floquet.radius_sweep(
        model, cfg.extra["radii"], sigma=_sigma_of(cfg.solver),
        points_per_unit=cfg.extra["points_per_unit"],
        steps_per_period=cfg.solver["steps_per_period"],
        tol=cfg.solver["eigen_tol"])
    rows = np.array([[r["R"], r["sigma"], r["lambda"], r["identity_residual"],
                      r["iterations"]] for r in records])
    lams = rows[:, 2]
    summary = {
        "lambda_nonincreasing": bool(np.all(np.diff(lams) <= 1e-9)),
        "truncation_gap_last_two": float(abs(lams[-1] - lams[-2])),
        "max_identity_residual": float(rows[:, 3].max()),
    }
    tables = {"eigenreport": (["R", "sigma", "lambda", "identity_residual",
                               "iterations"], rows)}
    return tables, summary


def _run_epsilon_limit(cfg: RunConfig, model):
    lo, hi = cfg.extra["window_lo"], cfg.extra["window_hi"]
    # the nodes, and so the limit profile, are the same for every eps
    nodes = build_grid(cfg)
    window = (nodes.x >= lo) & (nodes.x <= hi)
    if not window.any():
        raise ConfigError(f"window_lo, window_hi = [{lo}, {hi}] holds no grid node")
    limit = asymptotics.limit_profile(model, nodes.x).u_values[window]
    rows = []
    for eps in cfg.extra["eps_list"]:
        grid = replace(nodes, sigma=eps * eps)
        # bind no record: the previous eps's period table would stay alive
        # through the next solve
        u_eps = asymptotics.hopf_cole(pde_solver.find_periodic_orbit(
            grid, model, tol=cfg.solver["eigen_tol"]).density(0), grid.sigma)
        rows.append([eps, float(np.abs(u_eps[window] - limit).max())])
    rows = np.array(rows)
    summary = {
        "gaps_decrease_with_eps": bool(np.all(np.diff(rows[:, 1]) < 0.0)),
        "final_gap": float(rows[-1, 1]),
        "window": [lo, hi],
    }
    return {"epsilon_gaps": (["eps", "sup_gap"], rows)}, summary


def _run_moments(cfg: RunConfig, model):
    grid, eps = build_grid(cfg), cfg.solver["eps"]
    record = pde_solver.find_periodic_orbit(grid, model, tol=cfg.solver["eigen_tol"])
    measured = asymptotics.measure_moments(record)
    predicted = asymptotics.predict_moments(
        model, eps, domain=(grid.x_lo, grid.x_hi), nt=cfg.solver["steps_per_period"])
    mu_pred = predicted.mu(measured.mu.times)
    var_pred = predicted.sigma2(measured.sigma2.times)
    amp_s, ph_s, _ = measured.mu.first_harmonic()
    amp_p, ph_p, _ = replace(measured.mu, values=mu_pred).first_harmonic()
    phase_err = abs((ph_s - ph_p + np.pi) % (2.0 * np.pi) - np.pi)
    var_mean_s = measured.sigma2.mean()
    var_mean_p = replace(measured.sigma2, values=var_pred).mean()
    rows = np.column_stack([measured.mu.times, measured.mu.values, mu_pred,
                            measured.sigma2.values, var_pred, record.rho.values])
    summary = {
        "mean_amplitude_simulated": amp_s,
        "mean_amplitude_predicted": amp_p,
        "mean_amplitude_rel_err": abs(amp_s - amp_p) / abs(amp_p) if amp_p else 0.0,
        "mean_phase_err_rad": phase_err,
        "variance_mean_simulated": var_mean_s,
        "variance_mean_predicted": var_mean_p,
        "variance_rel_err": abs(var_mean_s - var_mean_p) / var_mean_p,
        "rho_mean_simulated": measured.rho_mean,
        "rho_mean_predicted": predicted.rho_mean,
        "rho_mean_gap": abs(measured.rho_mean - predicted.rho_mean),
        "eps": eps,
        "notes": predicted.notes,
    }
    tables = {"moments": (["t", "mu_simulated", "mu_predicted",
                           "var_simulated", "var_predicted", "rho"], rows)}
    return tables, summary


def _run_fitness_compare(cfg: RunConfig, model):
    grid = build_grid(cfg)
    comp = asymptotics.fitness_comparison(
        grid, model, t_star=cfg.extra["t_star"], tol=cfg.solver["eigen_tol"])
    summary = {
        "t_star": comp.t_star,
        "periodic_fitness_at_t_star": comp.q_star,
        "periodic_fitness_mean": comp.q_mean,
        "frozen_fitness": comp.frozen_fitness,
        "frozen_rho": comp.frozen_rho,
        "periodic_rho_mean": comp.rho_mean_periodic,
        "periodic_variance_mean": comp.sigma2_periodic_mean,
        "frozen_variance": comp.sigma2_frozen,
        "periodic_fitness_exceeds_frozen": bool(comp.q_star > comp.frozen_fitness),
        "periodic_variance_below_frozen": bool(
            comp.sigma2_periodic_mean < comp.sigma2_frozen),
        "periodic_rho_below_frozen": bool(comp.rho_mean_periodic < comp.frozen_rho),
        "eps": cfg.solver["eps"],
    }
    tables = {"fitness": (["t", "q_periodic"],
                          np.column_stack([comp.q.times, comp.q.values]))}
    return tables, summary


def _run_refinement(cfg: RunConfig, model):
    levels = cfg.extra["levels"]
    base = build_grid(cfg)
    rows = []
    for level in range(levels):
        nx = (base.nx + 1) * 2 ** level - 1
        steps = cfg.solver["steps_per_period"] * 4 ** level
        grid = replace(base, nx=nx, steps_per_period=steps)
        pair = pde_solver.principal_eigenpair(grid, model, tol=cfg.solver["eigen_tol"])
        rho_bar = pde_solver.orbit_from_pair(pair).rho.mean()
        rows.append([level, nx, steps, pair.lam, rho_bar])
        del pair  # free this level's period table before the next solve
    rows = np.array(rows)
    summary = {}
    if levels >= 3:
        lam, rho = rows[:, 3], rows[:, 4]
        summary["lambda_richardson_ratio"] = float(
            abs(lam[0] - lam[1]) / abs(lam[1] - lam[2]))
        summary["rho_richardson_ratio"] = float(
            abs(rho[0] - rho[1]) / abs(rho[1] - rho[2]))
    tables = {"refinement": (["level", "nx", "steps_per_period", "lambda",
                              "rho_bar"], rows)}
    return tables, summary


_EX1_MODEL = {"kind": "oscillating_optimum", **MODEL_KINDS["oscillating_optimum"]}
_EX2_MODEL = {"kind": "oscillating_pressure", **MODEL_KINDS["oscillating_pressure"],
              "g_amp": 1.8}
_WIDE_GRID = {"x_lo": -4.0, "x_hi": 4.0, "nx": 800}

# One entry per experiment tag: its driver, and the [grid], [solver] and
# [experiment] keys it reads with their defaults; resolve_config rejects any
# other user key there. Every tag reads x_lo/x_hi (a tabulated model needs
# them).
_MOMENTS = (_run_moments, {
    "model": _EX1_MODEL, "grid": _WIDE_GRID,
    "solver": {"eps": 0.05, "eigen_tol": 1e-8, "steps_per_period": 2048},
    "extra": {}})
_FITNESS_COMPARE = (_run_fitness_compare, {
    "model": _EX2_MODEL, "grid": _WIDE_GRID,
    "solver": {"eps": 0.05, "eigen_tol": 1e-8, "steps_per_period": 2048},
    # None: the time of weakest selection
    "extra": {"t_star": None}})
EXPERIMENTS = {
    "sigma0-convergence": (_run_sigma0, {
        "model": _EX1_MODEL, "grid": _WIDE_GRID,
        "solver": {"steps_per_period": 200},
        "extra": {"t_end": 50.0, "t_end_density": 200.0, "w0": 0.05,
                  "window": 0.1}}),
    "periodic-orbit": (_run_periodic_orbit, {
        "model": _EX1_MODEL, "grid": _WIDE_GRID,
        "solver": {"eps": 0.05, "eigen_tol": 1e-10, "steps_per_period": 2048},
        "extra": {"t_end": 30.0}}),
    "floquet-sweep": (_run_floquet_sweep, {
        "model": _EX1_MODEL, "grid": {},
        "solver": {"eps": 0.05, "eigen_tol": 1e-10, "steps_per_period": 1024},
        "extra": {"radii": [2.0, 3.0, 4.0, 5.0], "points_per_unit": 100}}),
    "epsilon-limit": (_run_epsilon_limit, {
        "model": _EX1_MODEL, "grid": _WIDE_GRID,
        "solver": {"eigen_tol": 1e-8, "steps_per_period": 1024},
        "extra": {"eps_list": [0.1, 0.05, 0.025], "window_lo": -1.0,
                  "window_hi": 1.0}}),
    "moments": _MOMENTS,
    # the worked examples of the paper run their general experiment
    "example1": _MOMENTS,
    "example2": _FITNESS_COMPARE,
    "fitness-compare": _FITNESS_COMPARE,
    "refinement": (_run_refinement, {
        "model": _EX1_MODEL, "grid": {"x_lo": -3.0, "x_hi": 3.0, "nx": 149},
        "solver": {"eps": 0.05, "eigen_tol": 1e-10, "steps_per_period": 500},
        "extra": {"levels": 3}}),
}
EXPERIMENT_TAGS = tuple(EXPERIMENTS)


def _typed(blocks) -> dict:
    """Each key of the default blocks with the type of its default; a None
    default names no type."""
    return {k: type(v) for block in blocks for k, v in block.items() if v is not None}


# Every config key with its type, read off the defaults; only the keys with
# no typed default are named here.
_SCHEMA = {
    "model": {"kind": str, "path": str, **_typed(MODEL_KINDS.values())},
    "grid": _typed(d["grid"] for _, d in EXPERIMENTS.values()),
    "solver": _typed(d["solver"] for _, d in EXPERIMENTS.values()),
    "experiment": {"tag": str, "out": str, "t_star": float,
                   **_typed(d["extra"] for _, d in EXPERIMENTS.values())},
}


def _check_keys_read(reader: str, section: str, given: dict, known) -> None:
    unread = set(given) - set(known)
    if unread:
        raise ConfigError(f"{reader} does not read [{section}] key(s) "
                          f"{sorted(unread)} (it reads: {sorted(known)})")


# key -> (test, requirement): the one table of single-key bounds, which every
# value meets whether it comes from a file, an override or code
_COUNT = (lambda v: v >= 1, "at least 1")
_POSITIVE = (lambda v: 0.0 < v < np.inf, "positive and finite")
_END_TIME = (lambda v: 0.0 <= v < np.inf, "finite and nonnegative")
_BOUNDS = {"kind": (lambda v: v in MODEL_KINDS, f"one of {', '.join(MODEL_KINDS)}"),
           "x_lo": (np.isfinite, "finite"), "x_hi": (np.isfinite, "finite"),
           "nx": (lambda v: v >= 16, ">= 16"), "eps": _POSITIVE,
           "eigen_tol": _POSITIVE, "steps_per_period": _COUNT,
           "levels": _COUNT, "w0": _POSITIVE,
           # 0 < r_1 < r_2 < ... < inf; a NaN fails every comparison
           "radii": (lambda v: len(v) >= 2 and all(
               0.0 < a < b < np.inf for a, b in zip(v, v[1:])),
               "at least 2 positive, finite radii in increasing order"),
           "eps_list": (lambda v: len(v) >= 1 and all(0.0 < e < np.inf for e in v),
                        "a nonempty list of positive, finite values"),
           "window": _POSITIVE, "t_end": _END_TIME, "t_end_density": _END_TIME,
           "t_star": (np.isfinite, "finite"),
           "points_per_unit": _COUNT}


def _checked(sec: str, key: str, raw, name: str):
    """raw coerced to the _SCHEMA type of [sec] key; a ConfigError naming the
    value's source and key (name) when it does not coerce or is outside its
    _BOUNDS entry."""
    value = _coerce(raw, _SCHEMA[sec][key], name)
    if key in _BOUNDS and not _BOUNDS[key][0](value):
        raise ConfigError(f"{name} must be {_BOUNDS[key][1]}, got {value}")
    return value


def resolve_config(cfg: RunConfig) -> RunConfig:
    """Fill defaults under the user's settings; returns a new config, which
    is what the experiment runs with and the manifest echoes. The user's [model] block
    updates the tag's model, or replaces it when it names a kind; the block
    is then laid over the MODEL_KINDS defaults of its kind. A [grid],
    [solver] or [experiment] key the tag does not read, a [model] key the
    kind does not read, a value that does not coerce to its _SCHEMA type or
    is outside _BOUNDS, a tabulated kind without a path, x_lo or x_hi, or a
    pair of values _check_constraints rejects is a ConfigError. A value may
    stay None only where its default is None."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment tag {cfg.experiment!r} "
            f"(known: {', '.join(EXPERIMENT_TAGS)})")
    defaults = EXPERIMENTS[cfg.experiment][1]
    reader = f"experiment {cfg.experiment!r}"
    _check_keys_read(reader, "grid", cfg.grid, {*defaults["grid"], "x_lo", "x_hi"})
    _check_keys_read(reader, "solver", cfg.solver, defaults["solver"])
    _check_keys_read(reader, "experiment", cfg.extra, defaults["extra"])
    # a user-chosen kind replaces the default model wholesale
    model = dict(cfg.model) if "kind" in cfg.model else {**defaults["model"], **cfg.model}
    kind = _checked("model", "kind", model["kind"], "[model] kind")
    _check_keys_read(f"model kind {kind!r}", "model", model, {"kind", *MODEL_KINDS[kind]})
    out = RunConfig(experiment=cfg.experiment, out_dir=cfg.out_dir,
                    model={**MODEL_KINDS[kind], **model},
                    grid={**defaults["grid"], **cfg.grid},
                    solver={**defaults["solver"], **cfg.solver},
                    extra={**defaults["extra"], **cfg.extra})
    for sec, block, default in (("model", out.model, MODEL_KINDS[kind]),
                                ("grid", out.grid, defaults["grid"]),
                                ("solver", out.solver, defaults["solver"]),
                                ("experiment", out.extra, defaults["extra"])):
        for key, value in block.items():
            # None stays only where the default is None: t_star, a tabulated path
            if value is not None or default.get(key, 0) is not None:
                block[key] = _checked(sec, key, value, f"[{sec}] {key}")
    if kind == "tabulated":
        # the file's trait nodes span the grid's x_lo..x_hi
        for sec, block, key in (("model", out.model, "path"), ("grid", out.grid, "x_lo"),
                                ("grid", out.grid, "x_hi")):
            if block.get(key) is None:
                raise ConfigError(f"[{sec}] {key} must be set for a tabulated model")
    _check_constraints(out)
    return out


def run_experiment(cfg: RunConfig) -> ResultBundle:
    """Run the configured experiment; deterministic, no randomness anywhere."""
    cfg = resolve_config(cfg)
    start = time.perf_counter()
    model = build_model(cfg.model, cfg.grid)
    tables, summary = EXPERIMENTS[cfg.experiment][0](cfg, model)
    elapsed = time.perf_counter() - start
    manifest = {
        "version": __version__,
        "config": asdict(cfg),
        "timing": {"elapsed_seconds": elapsed},
    }
    return ResultBundle(manifest=_pyify(manifest), tables=tables,
                        summary=_pyify(summary))


def config_from_manifest(manifest: dict) -> RunConfig:
    """Rebuild the RunConfig echoed in a manifest (timing is not part of it)."""
    return RunConfig(**manifest["config"])


# ---------------------------------------------------------------------------
# emission

def _pyify(obj):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(obj, dict):
        return {k: _pyify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_pyify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_pyify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _strict_json(value) -> bool:
    """Whether value serializes as strict JSON: no NaN and no infinity."""
    try:
        json.dumps(value, allow_nan=False)
    except ValueError:
        return False
    return True


def _csv_body(rows: np.ndarray) -> np.ndarray:
    """The bytes (uint8) of the CSV lines of a float table with at least one
    cell: each cell f"{v:.12e}", joined by ',' within a row, each row ended
    by '\n'.

    A finite cell with 1e-280 <= |v| < 1e280 is formatted by vector
    arithmetic. With e = floor(log10 |v|), moved by one decade where
    s = |v| 10^(12 - e) falls outside [10^12, 10^13), m = rint(s) is the
    13-digit mantissa, and m = 10^13 carries into the exponent. The computed
    s is within about 2 ulp(s) <= 0.004 of the exact product, so where
    |s - m| < 0.49, m is the correctly rounded mantissa that '%.12e' prints;
    where rounding put s in the wrong decade, the exact product is within
    0.04 of 10^12 or 10^13, and both decades give the mantissa 10^12. The
    digits of m come from exact float floor division by 10 (m <= 10^13, so
    m / 10 never rounds up to the next integer). Every other cell (a near
    tie, 0, -0.0, nan, inf, a subnormal or an extreme exponent) is formatted
    by '%.12e' itself. Each cell fills 21 byte slots: sign, the digits, '.',
    'e', the exponent's sign and 3 digits, and the separator; a slot left 0
    (no '-', no hundreds digit, the tail of a short cell) is dropped.
    """
    v = rows.ravel()
    a = np.abs(v)
    fast = (a >= 1e-280) & (a < 1e280)  # False for nan
    a[~fast] = 1.0  # so that the arithmetic meets no special value
    e = np.floor(np.log10(a))
    s = a * 10.0 ** (12.0 - e)
    e[s >= 1e13] += 1.0
    e[s < 1e12] -= 1.0
    s = a * 10.0 ** (12.0 - e)
    m = np.rint(s)
    fast &= np.abs(s - m) < 0.49
    carry = m == 1e13
    e[carry] += 1.0
    m[carry] = 1e12
    buf = np.tile(np.frombuffer(b"-0.000000000000e+000,", np.uint8), (len(v), 1))
    codes = buf.T
    codes[0] = np.where(np.signbit(v), 45.0, 0.0)  # '-', or dropped
    codes[16] = np.where(e < 0.0, 45.0, 43.0)  # '-' or '+'
    codes[20, rows.shape[1] - 1::rows.shape[1]] = ord("\n")
    for x, slots in ((m, (14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 1)),
                     (np.abs(e), (19, 18))):
        for slot in slots:
            q = np.floor(x / 10.0)
            codes[slot] = x - 10.0 * q + 48.0
            x = q
    # x is now |e| // 100: the hundreds digit, or a dropped slot
    codes[17] = np.where(x > 0.0, x + 48.0, 0.0)
    slow = np.flatnonzero(~fast)
    if slow.size:
        cells = np.array(["%.12e" % c for c in v[slow].tolist()], "S20")
        buf[slow, :20] = cells.view(np.uint8).reshape(len(slow), 20)
    return buf[buf != 0]


def emit_bundle(bundle: ResultBundle, out_dir) -> list[str]:
    """Write manifest.json, summary.json, and one CSV per table.

    A table is (column names, rows): a 2-D array of one column per name, or
    one flat row; a table with no rows writes its header line alone. A
    table whose rows do not match its names raises ValueError before any
    file is written. CSV files are UTF-8 with a header line; every cell is
    the bytes of f"{float(v):.12e}", from one vectorized pass per table
    with an exact per-cell fallback (_csv_body). Emission is deterministic,
    so re-emitting the same bundle rewrites byte-identical CSV and summary
    files. An empty bundle produces only the manifest. summary.json is
    strict JSON: a summary value that is NaN or infinite raises
    NumericalError naming its key, before any file is written. Each file is
    written to a temporary file in out_dir and then renamed over its
    target, so a failed write leaves the previous file intact and no
    temporary file behind.
    """
    tables = {}
    for name, (columns, rows) in bundle.tables.items():
        rows = np.asarray(rows, dtype=float)
        if rows.ndim < 2:  # one flat row, or no rows
            rows = rows.reshape(min(rows.size, 1), rows.size or len(columns))
        if rows.shape[1:] != (len(columns),):
            raise ValueError(f"table {name!r}: {len(columns)} column names for "
                             f"rows of shape {rows.shape}")
        tables[name] = (columns, rows)
    summary = _pyify(bundle.summary)
    try:
        summary_text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        bad = [key for key, value in sorted(summary.items())
               if not _strict_json(value)]
        raise NumericalError(f"non-finite summary values: {', '.join(bad)}") from None
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _write(name, *chunks):
        path = os.path.join(out_dir, name)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=out_dir)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        written.append(path)

    _write("manifest.json",
           (json.dumps(bundle.manifest, indent=2, sort_keys=True) + "\n").encode())
    if summary:
        _write("summary.json", (summary_text + "\n").encode())
    for name, (columns, rows) in tables.items():
        _write(f"{name}.csv", (",".join(columns) + "\n").encode("utf-8"),
               _csv_body(rows) if rows.size else b"")
    return written


# ---------------------------------------------------------------------------
# command line

def main(argv=None) -> int:
    import argparse  # here, so that a library import of fluctsel does not load it

    parser = argparse.ArgumentParser(
        prog="fluctsel",
        description=("Run one experiment of the fluctuating-selection toolkit "
                     "and write its result bundle."))
    parser.add_argument("experiment", choices=EXPERIMENT_TAGS,
                        help="which study to run")
    parser.add_argument("--config", help="INI-like or JSON config file")
    parser.add_argument("--out", help="output directory "
                        "(default fluctsel-out/<experiment>)")
    parser.add_argument("--override", action="append", default=[],
                        metavar="SECTION.KEY=VALUE",
                        help="override one config value; repeatable")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    args = parser.parse_args(argv)

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.out:
            cfg.out_dir = args.out
        if not cfg.out_dir:
            cfg.out_dir = os.path.join("fluctsel-out", args.experiment)
        for text in args.override:
            apply_override(cfg, text)
        # the positional tag is the experiment; a config tag may only repeat it
        if cfg.experiment not in ("", args.experiment):
            raise ConfigError(f"[experiment] tag {cfg.experiment!r} disagrees with the "
                              f"command line's experiment {args.experiment!r}")
        cfg.experiment = args.experiment
        bundle = run_experiment(cfg)
        try:
            written = emit_bundle(bundle, cfg.out_dir)
        except OSError as exc:
            raise ConfigError(
                f"cannot write the result bundle to {cfg.out_dir!r}: "
                f"{exc.strerror or exc}") from exc
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ExtinctionError, ConvergenceError, NumericalError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
