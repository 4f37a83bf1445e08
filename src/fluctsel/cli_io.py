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
Unknown keys, type mismatches, and constraint violations are reported with
the offending line number.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import asymptotics, env_models, floquet, no_mutation, pde_solver, rho_ode
from .errors import ConfigError, ConvergenceError, ExtinctionError, NumericalError
from .quadrature import simpson

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
    """INI-like parse keeping the line number of every key."""
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
        current[key] = (value.strip(), lineno)
    return sections


def _set(cfg: RunConfig, sec: str, key: str, raw, where: str) -> None:
    """Check one key against the schema and store its coerced value."""
    schema = _SCHEMA[sec]
    if key not in schema:
        raise ConfigError(f"{where}: unknown key {key!r} in [{sec}] "
                          f"(known: {', '.join(sorted(schema))})")
    value = _coerce(raw, schema[key], where)
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


def _validated(sections: dict, origin: str) -> RunConfig:
    """Apply the schema to parsed (value, lineno) sections."""
    cfg = RunConfig()
    for sec, entries in sections.items():
        for key, (raw, lineno) in entries.items():
            _set(cfg, sec, key, raw, f"{origin}:{lineno}")
    _check_constraints(cfg, sections, origin)
    return cfg


def _line_of(sections, sec, key, origin):
    entry = sections.get(sec, {}).get(key)
    return f"{origin}:{entry[1]}" if entry else origin


def _check_constraints(cfg: RunConfig, sections, origin):
    grid = cfg.grid
    if "nx" in grid and grid["nx"] < 16:
        raise ConfigError(
            f"{_line_of(sections, 'grid', 'nx', origin)}: nx must be >= 16, "
            f"got {grid['nx']}")
    if "x_lo" in grid and "x_hi" in grid and not grid["x_hi"] > grid["x_lo"]:
        raise ConfigError(
            f"{_line_of(sections, 'grid', 'x_hi', origin)}: "
            "x_hi must exceed x_lo")
    solver = cfg.solver
    if "eps" in solver and "sigma" in solver:
        raise ConfigError(
            f"{_line_of(sections, 'solver', 'sigma', origin)}: "
            "give either eps or sigma, not both")
    for key in ("eps", "sigma", "eigen_tol"):
        if key in solver and solver[key] <= 0:
            raise ConfigError(
                f"{_line_of(sections, 'solver', key, origin)}: "
                f"{key} must be positive")
    if "kind" in cfg.model and cfg.model["kind"] not in MODEL_KINDS:
        raise ConfigError(
            f"{_line_of(sections, 'model', 'kind', origin)}: unknown model kind "
            f"{cfg.model['kind']!r}")


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
            sections[sec] = {k: (v, 0) for k, v in entries.items()}
        return _validated(sections, path)
    return _validated(_parse_ini_sections(text, path), path)


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
    _set(cfg, sec, key, value.strip(), f"override {text!r}")
    # re-check cross-key constraints on the merged config
    _check_constraints(cfg, {}, f"override {text!r}")


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
    """Construct the environment model described by a config block; an
    unset parameter takes its MODEL_KINDS default."""
    kind = model_cfg.get("kind")
    if kind is None:
        raise ConfigError("model block needs a 'kind'")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"unknown model kind {kind!r}")
    p = {**MODEL_KINDS[kind], **model_cfg}
    if kind == "oscillating_optimum":
        return env_models.make_oscillating_optimum(r=p["r"], g=p["g"], c=p["c"], b=p["b"])
    if kind == "oscillating_pressure":
        def g_fn(t, _m=p["g_mean"], _a=p["g_amp"]):
            return _m + _a * np.cos(2.0 * np.pi * t)

        return env_models.make_oscillating_pressure(p["r"], g_fn)
    if p["path"] is None:
        raise ConfigError("tabulated model needs a 'path'")
    if "x_lo" not in grid_cfg or "x_hi" not in grid_cfg:
        raise ConfigError("tabulated model needs grid x_lo/x_hi for its nodes")
    return env_models.load_tabulated(p["path"], grid_cfg["x_lo"], grid_cfg["x_hi"])


def _sigma_of(solver: dict) -> float:
    """sigma, else eps^2, else 0: sigma0-convergence and epsilon-limit read
    no mutation key (epsilon-limit takes its eps values from eps_list)."""
    if "sigma" in solver:
        return float(solver["sigma"])
    eps = float(solver.get("eps", 0.0))
    return eps * eps


def _eigen_budget(solver: dict) -> dict:
    """The eigen-solve keywords of a solver block: Krylov tolerance and
    period-map budget."""
    return {"tol": float(solver["eigen_tol"]),
            "max_periods": int(solver["max_periods"])}


def build_grid(cfg: RunConfig, period: float) -> pde_solver.SimulationGrid:
    """SimulationGrid from the (defaults-resolved) grid and solver blocks,
    at dt = period / steps_per_period."""
    g = cfg.grid
    return pde_solver.SimulationGrid(
        x_lo=g["x_lo"], x_hi=g["x_hi"], nx=g["nx"],
        dt=period / cfg.solver["steps_per_period"], sigma=_sigma_of(cfg.solver))


# ---------------------------------------------------------------------------
# experiment drivers

def _gaussian(x, center, width):
    return np.exp(-((x - center) ** 2) / (2.0 * width * width)) / (
        width * np.sqrt(2.0 * np.pi))


def _run_sigma0(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    T = model.period
    x_m = env_models.averaged_optimum(model, (cfg.grid["x_lo"], cfg.grid["x_hi"]))
    q = rho_ode.PeriodicScalarSignal.from_array_callable(
        T, lambda ts: env_models.rate_table(model, ts, np.array([x_m]))[:, 0])
    orbit = rho_ode.periodic_rho_closed_form(q)

    t_end = float(cfg.extra["t_end"])
    gaps = {}
    trajs = {}
    for label, rho0 in (("low", 0.05), ("high", 5.0)):
        times, rho = rho_ode.integrate_logistic(q, rho0, t_end)
        last = times >= t_end - T - 1e-12
        gaps[label] = float(np.abs(rho[last] - orbit.evaluate(times[last])).max())
        trajs[label] = (times, rho)
    qbar = q.mean()
    q_const = rho_ode.PeriodicScalarSignal.from_array_callable(
        T, lambda ts: np.full(len(ts), qbar))
    const_orbit = rho_ode.periodic_rho_closed_form(q_const)
    const_gap = float(np.abs(const_orbit.samples - qbar).max())

    grid = build_grid(cfg, T)
    w0 = float(cfg.extra["w0"])
    window = float(cfg.extra["window"])
    n0 = _gaussian(grid.x, x_m, w0)
    t_density = float(cfg.extra["t_end_density"])
    state, (times_d, rho_d), diag = no_mutation.simulate_sigma0(
        grid, model, n0, t_density)
    metrics = no_mutation.concentration_metrics(
        grid, state, radius=window, center=x_m)
    last = times_d >= t_density - T - 1e-12
    rho_gap_final = float(
        np.abs(rho_d[last] - orbit.evaluate(times_d[last])).max())

    times_l, rho_l = trajs["low"]
    keep = times_l >= t_end - T - 1e-12
    rows_logistic = np.column_stack([
        times_l[keep], orbit.evaluate(times_l[keep]), trajs["low"][1][keep],
        trajs["high"][1][keep]])
    stride = max(1, len(times_d) // 2048)
    rows_density = np.column_stack([
        times_d[::stride], rho_d[::stride], orbit.evaluate(times_d[::stride])])
    tables = {
        "logistic_compare": (["t", "rho_closed", "rho_from_low", "rho_from_high"],
                             rows_logistic),
        "sigma0_rho": (["t", "rho", "rho_closed"], rows_density),
    }
    summary = {
        "final_period_gap_from_low": gaps["low"],
        "final_period_gap_from_high": gaps["high"],
        "constant_rate_collapse_gap": const_gap,
        "orbit_mean": orbit.mean,
        "mass_outside_window": metrics.mass_outside,
        "variance_final": metrics.variance,
        "mean_final": metrics.mean,
        "rho_gap_final_period": rho_gap_final,
        "extinct": bool(diag["extinct"]),
    }
    return tables, summary


def _run_periodic_orbit(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    grid = build_grid(cfg, model.period)
    pair = pde_solver.principal_eigenpair(grid, model, **_eigen_budget(cfg.solver))
    summary = {"lambda": pair.lam, "eigen_iterations": pair.iterations}
    try:
        record = pde_solver.orbit_from_pair(pair)
    except ExtinctionError as exc:
        t_end = float(cfg.extra["t_end"])
        n0 = pde_solver.default_orbit_guess(grid, model)
        _, (times, rho), diag = pde_solver.simulate(grid, model, n0, t_end)
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

    eff = floquet.effective_signals(pair, model)
    shape_gap = float(np.abs(
        record.snapshots / record.rho_samples[:, None] - eff.P_snapshots).max())
    mrep = asymptotics.measure_moments(record)
    summary.update({
        "extinct": False,
        "period_gap": record.period_gap,
        "periods_run": record.periods_run,
        "rho_mean": mrep.rho_mean,
        "sup_gap_density_vs_eigenprofile": shape_gap,
        "identity_residual": floquet.lambda_identity_residual(pair, eff),
    })
    summary.update(floquet.orbit_bounds(pair, record, model))
    tables = {
        "orbit_rho": (["t", "rho"],
                      np.column_stack([record.times, record.rho_samples])),
    }
    return tables, summary


def _run_floquet_sweep(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    radii = [float(r) for r in cfg.extra["radii"]]
    records = floquet.radius_sweep(
        model, radii, sigma=_sigma_of(cfg.solver),
        points_per_unit=int(cfg.extra["points_per_unit"]),
        steps_per_period=int(cfg.solver["steps_per_period"]),
        tol=float(cfg.solver["eigen_tol"]))
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


def _run_epsilon_limit(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    eps_list = [float(e) for e in cfg.extra["eps_list"]]
    lo, hi = float(cfg.extra["window_lo"]), float(cfg.extra["window_hi"])
    # the nodes, and so the limit profile, are the same for every eps
    nodes = build_grid(cfg, model.period)
    window = (nodes.x >= lo) & (nodes.x <= hi)
    limit = asymptotics.limit_profile(model, nodes.x).u_values[window]
    rows = []
    for eps in eps_list:
        grid = replace(nodes, sigma=eps * eps)
        # bind no record: the previous eps's period table would stay alive
        # through the next solve
        u_eps = asymptotics.hopf_cole(pde_solver.find_periodic_orbit(
            grid, model, **_eigen_budget(cfg.solver)).snapshots[0], grid.sigma)
        rows.append([eps, float(np.abs(u_eps[window] - limit).max())])
    rows = np.array(rows)
    summary = {
        "gaps_decrease_with_eps": bool(np.all(np.diff(rows[:, 1]) < 0.0)),
        "final_gap": float(rows[-1, 1]),
        "window": [lo, hi],
    }
    return {"epsilon_gaps": (["eps", "sup_gap"], rows)}, summary


def _run_moments(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    grid = build_grid(cfg, model.period)
    eps = np.sqrt(grid.sigma)
    record = pde_solver.find_periodic_orbit(grid, model, **_eigen_budget(cfg.solver))
    measured = asymptotics.measure_moments(record)
    predicted = asymptotics.predict_moments(
        model, eps, domain=(grid.x_lo, grid.x_hi),
        nt=int(cfg.extra["nt"]))
    T = model.period
    mu_pred = predicted.mu(measured.mu.times)
    var_pred = predicted.sigma2(measured.sigma2.times)
    amp_s, ph_s, _ = measured.mu.first_harmonic()
    amp_p, ph_p, _ = replace(measured.mu, values=mu_pred).first_harmonic()
    phase_err = abs((ph_s - ph_p + np.pi) % (2.0 * np.pi) - np.pi)
    var_mean_s = measured.sigma2.mean()
    var_mean_p = float(simpson(var_pred, record.times[1] - record.times[0])) / T
    rows = np.column_stack([measured.mu.times, measured.mu.values, mu_pred,
                            measured.sigma2.values, var_pred,
                            record.rho_samples])
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
        "eps": float(eps),
        "notes": predicted.notes,
    }
    tables = {"moments": (["t", "mu_simulated", "mu_predicted",
                           "var_simulated", "var_predicted", "rho"], rows)}
    return tables, summary


def _run_fitness_compare(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    grid = build_grid(cfg, model.period)
    t_star = cfg.extra["t_star"]
    comp = asymptotics.fitness_comparison(
        grid, model, t_star=None if t_star is None else float(t_star),
        **_eigen_budget(cfg.solver))
    eps = np.sqrt(grid.sigma)
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
        "eps": float(eps),
    }
    tables = {"fitness": (["t", "q_periodic"],
                          np.column_stack([comp.times, comp.q_values]))}
    return tables, summary


def _run_refinement(cfg: RunConfig):
    model = build_model(cfg.model, cfg.grid)
    T = model.period
    levels = int(cfg.extra["levels"])
    base = build_grid(cfg, T)
    rows = []
    for level in range(levels):
        nx = (base.nx + 1) * 2 ** level - 1
        steps = cfg.solver["steps_per_period"] * 4 ** level
        grid = replace(base, nx=nx, dt=T / steps)
        pair = pde_solver.principal_eigenpair(grid, model, **_eigen_budget(cfg.solver))
        lam = pair.lam
        # the pair is not read again, so the orbit takes over its table
        record = pde_solver.orbit_from_pair(pair, copy=False)
        dt = record.times[1] - record.times[0]
        rho_bar = float(simpson(record.rho_samples, dt)) / T
        rows.append([level, nx, steps, lam, rho_bar])
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
# other user key there. sigma may replace eps, and every tag reads x_lo/x_hi
# (a tabulated model needs them).
_MOMENTS = (_run_moments, {
    "model": _EX1_MODEL, "grid": _WIDE_GRID,
    "solver": {"eps": 0.05, "eigen_tol": 1e-8,
               "max_periods": pde_solver.MAX_PERIODS,
               "steps_per_period": 2048},
    "extra": {"nt": 2048}})
_FITNESS_COMPARE = (_run_fitness_compare, {
    "model": _EX2_MODEL, "grid": _WIDE_GRID,
    "solver": {"eps": 0.05, "eigen_tol": 1e-8,
               "max_periods": pde_solver.MAX_PERIODS,
               "steps_per_period": 2048},
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
        "solver": {"eps": 0.05, "max_periods": pde_solver.MAX_PERIODS,
                   "eigen_tol": 1e-10, "steps_per_period": 2048},
        "extra": {"t_end": 30.0}}),
    "floquet-sweep": (_run_floquet_sweep, {
        "model": _EX1_MODEL, "grid": {},
        "solver": {"eps": 0.05, "eigen_tol": 1e-10, "steps_per_period": 1024},
        "extra": {"radii": [2.0, 3.0, 4.0, 5.0], "points_per_unit": 100}}),
    "epsilon-limit": (_run_epsilon_limit, {
        "model": _EX1_MODEL, "grid": _WIDE_GRID,
        "solver": {"eigen_tol": 1e-8, "max_periods": pde_solver.MAX_PERIODS,
                   "steps_per_period": 1024},
        "extra": {"eps_list": [0.1, 0.05, 0.025], "window_lo": -1.0,
                  "window_hi": 1.0}}),
    "moments": _MOMENTS,
    # the worked examples of the paper run their general experiment
    "example1": _MOMENTS,
    "example2": _FITNESS_COMPARE,
    "fitness-compare": _FITNESS_COMPARE,
    "refinement": (_run_refinement, {
        "model": _EX1_MODEL, "grid": {"x_lo": -3.0, "x_hi": 3.0, "nx": 149},
        "solver": {"eps": 0.05, "eigen_tol": 1e-10,
                   "max_periods": pde_solver.MAX_PERIODS,
                   "steps_per_period": 500},
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
    "solver": {"sigma": float, **_typed(d["solver"] for _, d in EXPERIMENTS.values())},
    "experiment": {"tag": str, "out": str, "t_star": float,
                   **_typed(d["extra"] for _, d in EXPERIMENTS.values())},
}


def _check_keys_read(reader: str, section: str, given: dict, known) -> None:
    allowed = set(known) | ({"sigma"} if "eps" in known else set())
    if set(given) - allowed:
        raise ConfigError(
            f"{reader} does not read [{section}] key(s) "
            f"{sorted(set(given) - allowed)} (it reads: {sorted(allowed)})")


def resolve_config(cfg: RunConfig) -> RunConfig:
    """Fill tag defaults under the user's settings; returns a new config.
    A [grid], [solver] or [experiment] key the tag does not read, or a
    [model] key the model kind does not read, is a ConfigError."""
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"unknown experiment tag {cfg.experiment!r} "
            f"(known: {', '.join(EXPERIMENT_TAGS)})")
    defaults = copy.deepcopy(EXPERIMENTS[cfg.experiment][1])
    reader = f"experiment {cfg.experiment!r}"
    _check_keys_read(reader, "grid", cfg.grid, {*defaults["grid"], "x_lo", "x_hi"})
    _check_keys_read(reader, "solver", cfg.solver, defaults["solver"])
    _check_keys_read(reader, "experiment", cfg.extra, defaults["extra"])
    out = RunConfig(experiment=cfg.experiment, out_dir=cfg.out_dir)
    out.model = {**defaults["model"], **cfg.model}
    if "kind" in cfg.model:
        # a user-chosen kind replaces the default model wholesale
        out.model = dict(cfg.model)
    kind = out.model["kind"]
    if kind in MODEL_KINDS:
        _check_keys_read(f"model kind {kind!r}", "model", out.model,
                         {"kind", *MODEL_KINDS[kind]})
    out.grid = {**defaults["grid"], **cfg.grid}
    out.solver = {**defaults["solver"], **cfg.solver}
    if "sigma" in cfg.solver:
        out.solver.pop("eps", None)
    out.extra = {**defaults["extra"], **cfg.extra}
    return out


def run_experiment(cfg: RunConfig) -> ResultBundle:
    """Run the configured experiment; deterministic, no randomness anywhere."""
    cfg = resolve_config(cfg)
    start = time.perf_counter()
    tables, summary = EXPERIMENTS[cfg.experiment][0](cfg)
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


def _format_cell(value) -> str:
    if isinstance(value, (int, float, np.integer, np.floating)):
        return f"{float(value):.12e}"
    return str(value)


def emit_bundle(bundle: ResultBundle, out_dir) -> list[str]:
    """Write manifest.json, summary.json, and one CSV per table.

    CSV cells are scientific notation with 13 significant digits; files are
    UTF-8 with a header line. Emission is deterministic, so re-emitting the
    same bundle rewrites byte-identical CSV and summary files. An empty
    bundle produces only the manifest. Each file is written to a temporary
    file in out_dir and then renamed over its target, so a failed write
    leaves the previous file intact and no temporary file behind.
    """
    os.makedirs(out_dir, exist_ok=True)
    written = []

    def _write(name, text):
        path = os.path.join(out_dir, name)
        fd, tmp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=out_dir)
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
        written.append(path)

    _write("manifest.json", json.dumps(bundle.manifest, indent=2, sort_keys=True) + "\n")
    if bundle.summary:
        _write("summary.json",
               json.dumps(_pyify(bundle.summary), indent=2, sort_keys=True) + "\n")
    for name, (columns, rows) in bundle.tables.items():
        lines = [",".join(columns)]
        for row in np.atleast_2d(np.asarray(rows)):
            lines.append(",".join(_format_cell(v) for v in row))
        _write(f"{name}.csv", "\n".join(lines) + "\n")
    return written


# ---------------------------------------------------------------------------
# command line

def main(argv=None) -> int:
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
        cfg.experiment = args.experiment
        if args.out:
            cfg.out_dir = args.out
        if not cfg.out_dir:
            cfg.out_dir = os.path.join("fluctsel-out", args.experiment)
        for text in args.override:
            apply_override(cfg, text)
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
