import copy
import inspect
import json
import logging
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import fluctsel as fs
from fluctsel import asymptotics, cli_io, pde_solver


GOOD_INI = """\
# comment line
[model]
kind = oscillating_optimum
r = 1.0
g = 1.0          ; inline comment
c = 0.5
b = 6.283185307179586

[grid]
x_lo = -3.0
x_hi = 3.0
nx = 200

[solver]
eps = 0.1

[experiment]
tag = moments
nt = 512
"""


def _write(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_ini_full(tmp_path):
    cfg = fs.parse_config(_write(tmp_path, GOOD_INI))
    assert cfg.model == {"kind": "oscillating_optimum", "r": 1.0, "g": 1.0,
                         "c": 0.5, "b": 6.283185307179586}
    assert cfg.grid == {"x_lo": -3.0, "x_hi": 3.0, "nx": 200}
    assert cfg.solver == {"eps": 0.1}
    assert cfg.experiment == "moments"
    assert cfg.extra == {"nt": 512}


@pytest.mark.parametrize("text,lineno,fragment", [
    ("[nosuch]\n", 1, "unknown section"),
    ("[model]\nbad line\n", 2, "expected 'key = value'"),
    ("r = 1.0\n", 1, "outside of any section"),
    ("[model]\nr = 1.0\nr = 2.0\n", 3, "duplicate key"),
    ("[model]\nwhatever = 3\n", 2, "unknown key"),
    ("[grid]\nnx = many\n", 2, "invalid literal"),
    ("[grid]\nnx = 4\n", 2, "nx must be >= 16"),
    ("[model]\nkind = quartic\n", 2, "unknown model kind"),
    ("[experiment]\ntag = frobnicate\n", 2, "unknown experiment tag"),
    ("[model\nr = 1.0\n", 1, "unterminated section"),
])
def test_parse_ini_errors_carry_line_numbers(tmp_path, text, lineno, fragment):
    path = _write(tmp_path, text)
    with pytest.raises(fs.ConfigError) as err:
        fs.parse_config(path)
    assert f"{path}:{lineno}" in str(err.value)
    assert fragment in str(err.value)


def test_parse_ini_cross_constraints(tmp_path):
    path = _write(tmp_path, "[solver]\neps = 0.1\nsigma = 0.01\n")
    with pytest.raises(fs.ConfigError, match="either eps or sigma"):
        fs.parse_config(path)
    path = _write(tmp_path, "[grid]\nx_lo = 2.0\nx_hi = -2.0\n")
    with pytest.raises(fs.ConfigError, match="x_hi must exceed x_lo"):
        fs.parse_config(path)


def test_parse_json(tmp_path):
    data = {"model": {"kind": "oscillating_pressure", "g_mean": 2.0,
                      "g_amp": 1.8},
            "experiment": {"tag": "example2", "radii": [1.0, 2.0]}}
    cfg = fs.parse_config(_write(tmp_path, json.dumps(data), "run.json"))
    assert cfg.model["kind"] == "oscillating_pressure"
    assert cfg.experiment == "example2"
    assert cfg.extra["radii"] == [1.0, 2.0]


def test_parse_json_errors(tmp_path):
    path = _write(tmp_path, '{\n  "model": {\n', "bad.json")
    with pytest.raises(fs.ConfigError, match=re.escape(f"{path}:")):
        fs.parse_config(path)
    path = _write(tmp_path, '{"weird": {}}', "bad2.json")
    with pytest.raises(fs.ConfigError, match="unknown section"):
        fs.parse_config(path)
    path = _write(tmp_path, '{"model": 5}', "bad3.json")
    with pytest.raises(fs.ConfigError, match="must be an object"):
        fs.parse_config(path)
    path = _write(tmp_path, '{"grid": {"nx": 40.5}}', "bad4.json")
    with pytest.raises(fs.ConfigError, match="not an integer"):
        fs.parse_config(path)


def test_overrides():
    cfg = fs.RunConfig()
    cli_io.apply_override(cfg, "model.r=2.5")
    cli_io.apply_override(cfg, "experiment.tag=moments")
    cli_io.apply_override(cfg, "experiment.radii=1.0, 2.0")
    assert cfg.model["r"] == 2.5
    assert cfg.experiment == "moments"
    assert cfg.extra["radii"] == [1.0, 2.0]
    with pytest.raises(fs.ConfigError, match="unknown key"):
        cli_io.apply_override(cfg, "model.zeta=1")
    with pytest.raises(fs.ConfigError, match="section.key=value"):
        cli_io.apply_override(cfg, "just-a-string")
    with pytest.raises(fs.ConfigError, match="section.key=value"):
        cli_io.apply_override(cfg, "noequals")
    # overrides re-check cross constraints against the merged config
    cfg2 = fs.RunConfig(solver={"eps": 0.1})
    with pytest.raises(fs.ConfigError, match="either eps or sigma"):
        cli_io.apply_override(cfg2, "solver.sigma=0.01")


def test_resolve_config_defaults():
    cfg = cli_io.resolve_config(fs.RunConfig(experiment="example1"))
    assert cfg.model["kind"] == "oscillating_optimum"
    assert cfg.grid["nx"] == 800
    assert cfg.solver["eps"] == 0.05
    # user sigma displaces the default eps
    cfg = cli_io.resolve_config(fs.RunConfig(experiment="example1",
                                             solver={"sigma": 0.01}))
    assert "eps" not in cfg.solver and cfg.solver["sigma"] == 0.01
    # a user kind replaces the default model block wholesale
    cfg = cli_io.resolve_config(fs.RunConfig(
        experiment="example1", model={"kind": "oscillating_pressure"}))
    assert cfg.model == {"kind": "oscillating_pressure"}
    with pytest.raises(fs.ConfigError, match="unknown experiment tag"):
        cli_io.resolve_config(fs.RunConfig(experiment="bogus"))


def test_build_model_kinds(tmp_path):
    model = cli_io.build_model({"kind": "oscillating_optimum", "r": 2.0}, {})
    assert model.analytic_info["params"]["r"] == 2.0
    model = cli_io.build_model({"kind": "oscillating_pressure", "g_mean": 3.0,
                                "g_amp": 1.0}, {})
    assert model.analytic_info["params"]["g_bar"] == pytest.approx(3.0, abs=1e-9)
    with pytest.raises(fs.ConfigError, match="needs a 'kind'"):
        cli_io.build_model({}, {})
    with pytest.raises(fs.ConfigError, match="needs a 'path'"):
        cli_io.build_model({"kind": "tabulated"}, {})
    with pytest.raises(fs.ConfigError, match="x_lo/x_hi"):
        cli_io.build_model({"kind": "tabulated", "path": "x"}, {})
    table = tmp_path / "tab.txt"
    table.write_text("1.0 3 2\n0 1 0\n0 2 0\n", encoding="utf-8")
    model = cli_io.build_model({"kind": "tabulated", "path": str(table)},
                               {"x_lo": -1.0, "x_hi": 1.0})
    assert model.kind == "tabulated"
    assert float(model.rate(0.0, np.array([0.0]))[0]) == pytest.approx(1.0)


def test_build_grid_records_resolved_dt():
    cfg = fs.RunConfig(grid={"x_lo": -2.0, "x_hi": 2.0, "nx": 100},
                       solver={"eps": 0.1, "steps_per_period": 200})
    before = copy.deepcopy(cfg)
    grid = cli_io.build_grid(cfg, period=1.0)
    assert grid.dt == 1.0 / 200
    assert grid.sigma == pytest.approx(0.01)
    # the time step lives in the grid only; the config is left as it was
    assert cfg == before


FAST_SWEEP = ["experiment.radii=1.0 1.4", "experiment.points_per_unit=40",
              "solver.steps_per_period=512", "solver.eigen_tol=1e-8",
              "solver.eps=0.3"]


def _fast_sweep_config():
    cfg = fs.RunConfig(experiment="floquet-sweep")
    for text in FAST_SWEEP:
        cli_io.apply_override(cfg, text)
    return cfg


def test_run_experiment_roundtrip_and_determinism(tmp_path):
    bundle1 = fs.run_experiment(_fast_sweep_config())
    cfg2 = cli_io.config_from_manifest(bundle1.manifest)
    bundle2 = fs.run_experiment(cfg2)
    assert bundle2.summary == bundle1.summary
    assert bundle2.manifest["config"] == bundle1.manifest["config"]

    dir1, dir2 = tmp_path / "a", tmp_path / "b"
    fs.emit_bundle(bundle1, dir1)
    fs.emit_bundle(bundle2, dir2)
    for name in ("summary.json", "eigenreport.csv"):
        assert (dir1 / name).read_bytes() == (dir2 / name).read_bytes()
    man1 = json.loads((dir1 / "manifest.json").read_text())
    man2 = json.loads((dir2 / "manifest.json").read_text())
    man1.pop("timing"), man2.pop("timing")
    assert man1 == man2


def test_emitted_files_and_format(tmp_path):
    bundle = fs.run_experiment(_fast_sweep_config())
    written = fs.emit_bundle(bundle, tmp_path / "out")
    names = sorted(os.path.basename(p) for p in written)
    assert names == ["eigenreport.csv", "manifest.json", "summary.json"]
    lines = (tmp_path / "out" / "eigenreport.csv").read_text().splitlines()
    assert lines[0] == "R,sigma,lambda,identity_residual,iterations"
    cell = re.compile(r"^-?\d\.\d{12}e[+-]\d{2,3}$")
    for line in lines[1:]:
        for token in line.split(","):
            assert cell.match(token), token
    assert len(lines) == 3


def test_emit_empty_bundle_writes_manifest_only(tmp_path):
    bundle = fs.ResultBundle(manifest={"version": fs.__version__}, tables={},
                             summary={})
    written = fs.emit_bundle(bundle, tmp_path / "empty")
    assert [os.path.basename(p) for p in written] == ["manifest.json"]


def test_emit_failure_keeps_previous_file(tmp_path, monkeypatch):
    out = tmp_path / "out"
    old = fs.ResultBundle(manifest={"version": fs.__version__}, tables={},
                          summary={"value": 1.0})
    fs.emit_bundle(old, out)
    before = {p.name: p.read_bytes() for p in out.iterdir()}

    def failing_replace(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli_io.os, "replace", failing_replace)
    new = fs.ResultBundle(manifest={"version": "changed"}, tables={},
                          summary={"value": 2.0})
    with pytest.raises(OSError):
        fs.emit_bundle(new, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_main_success(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["floquet-sweep", "--out", str(out)]
    for text in FAST_SWEEP:
        argv += ["--override", text]
    assert cli_io.main(argv) == 0
    listed = capsys.readouterr().out.splitlines()
    assert str(out / "manifest.json") in listed
    assert (out / "eigenreport.csv").exists()


def test_main_uses_config_file(tmp_path, capsys):
    ini = "\n".join(["[experiment]",
                     "radii = 1.0 1.4",
                     "points_per_unit = 40",
                     "[solver]",
                     "steps_per_period = 512",
                     "eigen_tol = 1e-8",
                     "eps = 0.3",
                     ""])
    path = _write(tmp_path, ini)
    out = tmp_path / "run2"
    assert cli_io.main(["floquet-sweep", "--config", path,
                        "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "floquet-sweep"
    assert manifest["config"]["extra"]["points_per_unit"] == 40


def test_main_config_error(tmp_path, capsys):
    assert cli_io.main(["moments", "--override", "model.nope=1"]) == 2
    assert "config error" in capsys.readouterr().err
    path = _write(tmp_path, "[grid]\nnx = 4\n")
    assert cli_io.main(["moments", "--config", path]) == 2
    assert "nx must be >= 16" in capsys.readouterr().err


def test_main_numerical_error(tmp_path, capsys):
    out = tmp_path / "doomed"
    argv = ["moments", "--out", str(out), "--override", "model.r=-9",
            "--override", "solver.steps_per_period=512",
            "--override", "grid.nx=200"]
    assert cli_io.main(argv) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_every_eigen_solve_budget_defaults_to_max_periods():
    budgets = [inspect.signature(fn).parameters[name].default for fn, name in (
        (pde_solver.principal_eigenpair, "max_periods"),
        (pde_solver.find_periodic_orbit, "max_periods"),
        (asymptotics.fitness_comparison, "max_periods"))]
    budgets += [d["solver"]["max_periods"] for _, d in cli_io.EXPERIMENTS.values()
                if "max_periods" in d["solver"]]
    assert budgets and set(budgets) == {pde_solver.MAX_PERIODS}


def test_eigen_solves_share_their_keywords():
    names = ["grid", "model", "tol", "max_periods", "guess"]
    for fn in (pde_solver.principal_eigenpair, pde_solver.find_periodic_orbit):
        assert list(inspect.signature(fn).parameters) == names
    params = inspect.signature(asymptotics.fitness_comparison).parameters
    assert {"tol", "max_periods"} <= set(params)


@pytest.mark.parametrize("tag", cli_io.EXPERIMENT_TAGS)
def test_grid_dt_is_not_a_config_key(tag, capsys):
    # the time step has one spelling, solver.steps_per_period
    assert cli_io.main([tag, "--override", "grid.dt=0.001"]) == 2
    assert "unknown key 'dt' in [grid]" in capsys.readouterr().err


def test_manifest_records_the_steps_it_ran_and_replays(tmp_path):
    cfg = fs.RunConfig(experiment="moments", grid={"nx": 200},
                       solver={"steps_per_period": 640})
    bundle = fs.run_experiment(cfg)
    config = bundle.manifest["config"]
    assert config["solver"]["steps_per_period"] == 640
    assert "dt" not in config["grid"]
    assert len(bundle.tables["moments"][1]) == 641
    again = fs.run_experiment(cli_io.config_from_manifest(bundle.manifest))
    assert again.manifest["config"] == config
    fs.emit_bundle(bundle, tmp_path / "a")
    fs.emit_bundle(again, tmp_path / "b")
    for name in ("summary.json", "moments.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_main_rejects_unknown_tag():
    with pytest.raises(SystemExit) as err:
        cli_io.main(["definitely-not-a-tag"])
    assert err.value.code == 2


def test_main_missing_config_file(tmp_path, capsys):
    missing = str(tmp_path / "no_such.ini")
    assert cli_io.main(["example1", "--config", missing]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "no_such.ini" in err


def test_main_missing_tabulated_file(tmp_path, capsys):
    path = _write(tmp_path, "\n".join(["[model]",
                                       "kind = tabulated",
                                       f"path = {tmp_path / 'no_rates.txt'}",
                                       ""]))
    assert cli_io.main(["periodic-orbit", "--config", path,
                        "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "no_rates.txt" in err


def test_main_rejects_unread_solver_key(capsys):
    # no experiment passes an iteration cap on; the key is not accepted
    assert cli_io.main(["example1", "--override", "solver.max_iters=5"]) == 2
    assert "unknown key 'max_iters'" in capsys.readouterr().err


@pytest.mark.parametrize("tag,override", [
    ("example1", "experiment.radii=1"),
    ("sigma0-convergence", "solver.eigen_tol=1e-8"),
    ("sigma0-convergence", "solver.eps=0.1"),
    # the sweep builds one grid per radius from experiment.points_per_unit
    ("floquet-sweep", "grid.nx=17"),
    # each model kind reads its own [model] parameters
    ("example1", "model.g_mean=3"),
    ("example1", "model.path=rates.txt"),
    ("example2", "model.c=0.5"),
])
def test_main_rejects_key_the_experiment_does_not_read(tag, override, capsys):
    # each key is known to its section, but this experiment never reads it
    assert cli_io.main([tag, "--override", override]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "does not read" in err


@pytest.mark.parametrize("tag", cli_io.EXPERIMENT_TAGS)
def test_every_tag_resolves_its_own_defaults(tag):
    cfg = cli_io.resolve_config(fs.RunConfig(experiment=tag))
    # a resolved config (as echoed in a manifest) resolves to itself
    assert cli_io.resolve_config(cfg) == cfg
    solver = cfg.solver
    if "eps" in solver:
        sigma = fs.RunConfig(experiment=tag, solver={"sigma": 0.01})
        assert cli_io.resolve_config(sigma).solver["sigma"] == 0.01


def _override_text(value):
    return " ".join(map(str, value)) if isinstance(value, list) else str(value)


@pytest.mark.parametrize("tag", cli_io.EXPERIMENT_TAGS)
def test_every_default_round_trips_through_an_override(tag):
    # the schema types are read off the defaults; each default, written as
    # override text, must coerce back to an equal value of the same type
    _, defaults = cli_io.EXPERIMENTS[tag]
    for sec, block in (("grid", defaults["grid"]), ("solver", defaults["solver"]),
                       ("experiment", defaults["extra"])):
        for key, value in block.items():
            if value is None:
                continue
            cfg = fs.RunConfig()
            cli_io.apply_override(cfg, f"{sec}.{key}={_override_text(value)}")
            got = cfg.extra[key] if sec == "experiment" else getattr(cfg, sec)[key]
            assert got == value and type(got) is type(value), (sec, key, got)
    cfg = fs.RunConfig()
    cli_io.apply_override(cfg, "solver.sigma=0.0025")
    cli_io.apply_override(cfg, "experiment.t_star=0.25")
    assert cfg.solver["sigma"] == 0.0025 and cfg.extra["t_star"] == 0.25


def _count_solves(monkeypatch):
    calls = []
    principal = pde_solver._Stepper.principal

    def counted(self, *args, **kwargs):
        calls.append(self.steps)
        return principal(self, *args, **kwargs)

    monkeypatch.setattr(pde_solver._Stepper, "principal", counted)
    return calls


def test_periodic_orbit_runs_one_eigen_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = fs.RunConfig(experiment="periodic-orbit",
                       grid={"nx": 200}, solver={"steps_per_period": 512})
    summary = fs.run_experiment(cfg).summary
    assert calls == [512]
    assert summary["extinct"] is False
    assert summary["periods_run"] == summary["eigen_iterations"] + 1


def test_refinement_runs_one_eigen_solve_per_grid(monkeypatch, caplog):
    calls = _count_solves(monkeypatch)
    cfg = fs.RunConfig(experiment="refinement", extra={"levels": 1})
    with caplog.at_level(logging.WARNING):
        bundle = fs.run_experiment(cfg)
    # level 0 runs at its own 500 steps per period, with no warning
    assert calls == [500]
    assert bundle.tables["refinement"][1][0][2] == 500
    assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []


def test_main_output_error_exits_2(tmp_path, capsys, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    monkeypatch.setattr(cli_io, "run_experiment", lambda cfg: fs.ResultBundle(
        manifest={}, tables={}, summary={"value": 1.0}))
    out = str(blocker / "sub")
    assert cli_io.main(["example1", "--out", out]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and out in err


def test_module_entry_point_runs_an_experiment(tmp_path):
    src = pathlib.Path(cli_io.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-m", "fluctsel", "sigma0-convergence",
            "--override", "experiment.t_end=2",
            "--override", "experiment.t_end_density=2"]
    out = tmp_path / "run"
    proc = subprocess.run(argv + ["--out", str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sorted(p.name for p in out.iterdir()) == [
        "logistic_compare.csv", "manifest.json", "sigma0_rho.csv", "summary.json"]
    blocker = tmp_path / "file"
    blocker.write_text("")
    proc = subprocess.run(argv + ["--out", str(blocker / "sub")], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
