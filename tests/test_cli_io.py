import copy
import inspect
import json
import os
import pathlib
import random
import re
import subprocess
import sys
import weakref
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
steps_per_period = 512

[experiment]
tag = moments
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
    assert cfg.solver == {"eps": 0.1, "steps_per_period": 512}
    assert cfg.experiment == "moments"
    assert cfg.extra == {}


@pytest.mark.parametrize("text,lineno,fragment", [
    ("[nosuch]\n", 1, "unknown section"),
    ("[model]\nbad line\n", 2, "expected 'key = value'"),
    ("r = 1.0\n", 1, "outside of any section"),
    ("[model]\nr = 1.0\nr = 2.0\n", 3, "duplicate key"),
    ("[model]\nwhatever = 3\n", 2, "unknown key"),
    # moments samples its prediction at the orbit's own steps
    ("[experiment]\nnt = 2048\n", 2, "unknown key"),
    ("[grid]\nnx = many\n", 2, "invalid literal"),
    ("[grid]\nnx = 4\n", 2, "nx must be >= 16"),
    ("[model]\nkind = quartic\n", 2, "[model] kind must be one of"),
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


@pytest.mark.parametrize("text,fragment", [
    ('{\n  "model": {\n', "Expecting"),
    ('{"weird": {}}', "unknown section 'weird'"),
    ('{"model": 5}', "section 'model' must be an object"),
    ('{"grid": {"nx": 40.5}}', "[grid] nx: 40.5 is not an integer"),
    ('{"grid": {"nx": 4}}', "[grid] nx must be >= 16, got 4"),
    ('{"grid": {"x_lo": 2.0, "x_hi": -2.0}}', "[grid] x_hi: x_hi must exceed x_lo"),
    ('{"solver": {"sigma": 0.01}}', "unknown key 'sigma' in [solver]"),
    ('{"model": {"zeta": 1}}', "unknown key 'zeta' in [model]"),
])
def test_parse_json_errors(tmp_path, text, fragment):
    # a JSON file has no line per key: a message names the file and the
    # section and key, never a line 0
    path = _write(tmp_path, text, "bad.json")
    with pytest.raises(fs.ConfigError) as err:
        fs.parse_config(path)
    message = str(err.value)
    assert message.startswith(f"{path}:") and ":0:" not in message
    assert fragment in message


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
    cfg2 = fs.RunConfig(grid={"x_lo": 1.0})
    with pytest.raises(fs.ConfigError, match="x_hi must exceed x_lo"):
        cli_io.apply_override(cfg2, "grid.x_hi=0.5")


def test_resolve_config_defaults():
    cfg = cli_io.resolve_config(fs.RunConfig(experiment="example1"))
    assert cfg.model["kind"] == "oscillating_optimum"
    assert cfg.grid["nx"] == 800
    assert cfg.solver["eps"] == 0.05
    # a user kind replaces the default model block wholesale, and takes the
    # defaults of its own kind
    cfg = cli_io.resolve_config(fs.RunConfig(
        experiment="example1", model={"kind": "oscillating_pressure"}))
    assert cfg.model == {"kind": "oscillating_pressure", "r": 1.0, "g_mean": 2.0,
                         "g_amp": 0.0}
    with pytest.raises(fs.ConfigError, match="unknown experiment tag"):
        cli_io.resolve_config(fs.RunConfig(experiment="bogus"))


def _rate_table(tmp_path):
    table = tmp_path / "tab.txt"
    table.write_text("1.0 3 2\n0 1 0\n0 2 0\n", encoding="utf-8")
    return str(table)


def _resolved_model(tag="periodic-orbit", grid=None, **model):
    cfg = cli_io.resolve_config(fs.RunConfig(experiment=tag, model=model,
                                             grid=grid or {}))
    return cli_io.build_model(cfg.model, cfg.grid)


def test_build_model_kinds(tmp_path):
    model = _resolved_model(kind="oscillating_optimum", r=2.0)
    assert float(model.rate(0.0, 0.0)) == 2.0  # r at the optimum, sin(0) = 0
    model = _resolved_model(kind="oscillating_pressure", g_mean=3.0, g_amp=1.0)
    # A = sqrt(g_bar) of the averaged rate r - g_bar x^2
    taylor = fs.limit_profile(model, np.linspace(-3.0, 3.0, 801)).taylor
    assert taylor[0] == pytest.approx(np.sqrt(3.0), abs=1e-12)
    with pytest.raises(fs.ConfigError, match=re.escape("[model] kind: expected a string")):
        _resolved_model(kind=None)
    with pytest.raises(fs.ConfigError, match=re.escape("[model] kind must be one of")):
        _resolved_model(kind="quartic")
    # resolve_config names the missing key; build_model named none, before
    with pytest.raises(fs.ConfigError,
                       match=re.escape("[model] path must be set for a tabulated model")):
        _resolved_model(kind="tabulated")
    # the sweep's grid block names no x_lo/x_hi
    with pytest.raises(fs.ConfigError,
                       match=re.escape("[grid] x_lo must be set for a tabulated model")):
        _resolved_model("floquet-sweep", kind="tabulated", path="x")
    with pytest.raises(fs.ConfigError,
                       match=re.escape("[grid] x_hi must be set for a tabulated model")):
        _resolved_model("floquet-sweep", grid={"x_lo": -1.0}, kind="tabulated", path="x")
    model = _resolved_model(kind="tabulated", path=_rate_table(tmp_path),
                            grid={"x_lo": -1.0, "x_hi": 1.0})
    # the table's 2 rows are its mean times, its node spacing on [-1, 1] its step
    assert (model.mean_times, model.trait_step) == (2, 1.0)
    assert float(model.rate(0.0, np.array([0.0]))[0]) == pytest.approx(1.0)


def test_build_grid_records_the_steps_per_period():
    cfg = fs.RunConfig(grid={"x_lo": -2.0, "x_hi": 2.0, "nx": 100},
                       solver={"eps": 0.1, "steps_per_period": 200})
    before = copy.deepcopy(cfg)
    grid = cli_io.build_grid(cfg)
    assert grid.steps_per_period == 200
    assert grid.sigma == pytest.approx(0.01)
    # the config is left as it was
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


def _floats(lo, hi):
    return st.floats(lo, hi, allow_nan=False)


def _model(kinds, **params):
    """A [model] block that may name a kind, which then replaces the tag's
    model and takes the defaults of its own kind."""
    return st.fixed_dictionaries(params, optional={"kind": st.sampled_from(kinds)})


_ANY_KIND = _model(["oscillating_optimum", "oscillating_pressure"])

# tag -> strategies for its [model] and [experiment] blocks, and the ranges of
# the domain's half-width and of eps it is drawn from on a small grid (a draw
# may have no orbit, and then raises a typed error)
_SMALL_RUNS = {
    "moments": (_model(["oscillating_optimum"], c=_floats(0.2, 1.0), g=_floats(0.5, 1.5)),
                st.fixed_dictionaries({}),
                (2.0, 3.0), (0.1, 0.3)),
    "fitness-compare": (
        _model(["oscillating_pressure"], g_amp=_floats(0.0, 1.5)),
        st.fixed_dictionaries({"t_star": st.one_of(st.none(), _floats(0.0, 0.9))}),
        (3.0, 3.5), (0.05, 0.15)),
    "floquet-sweep": (_ANY_KIND, st.fixed_dictionaries({
        "radii": st.tuples(st.just(1.0), _floats(1.2, 1.6)).map(list),
        "points_per_unit": st.integers(16, 32)}), (2.0, 3.0), (0.2, 0.3)),
    "sigma0-convergence": (_ANY_KIND, st.fixed_dictionaries({
        "t_end": _floats(1.0, 3.0), "t_end_density": _floats(1.0, 3.0),
        "w0": _floats(0.05, 0.2), "window": _floats(0.1, 0.5)}), (2.0, 3.0), (0.1, 0.3)),
    "periodic-orbit": (_ANY_KIND, st.fixed_dictionaries({"t_end": _floats(1.0, 3.0)}),
                       (2.0, 3.0), (0.1, 0.3)),
}


@st.composite
def small_configs(draw):
    """A config within the schema, on a small grid."""
    tag = draw(st.sampled_from(sorted(_SMALL_RUNS)))
    model, extra, half_width, eps_range = _SMALL_RUNS[tag]
    cfg = fs.RunConfig(
        experiment=tag, model=draw(model), extra=draw(extra),
        grid={"x_lo": -draw(_floats(*half_width)), "x_hi": draw(_floats(*half_width)),
              "nx": draw(st.integers(16, 48))},
        solver={"steps_per_period": draw(st.integers(64, 128)),
                "eigen_tol": draw(st.sampled_from([1e-6, 1e-8, 1e-9])),
                "eps": draw(_floats(*eps_range))})
    # the keys these two tags do not read
    if tag == "floquet-sweep":
        del cfg.grid["nx"]
    if tag == "sigma0-convergence":
        cfg.solver = {"steps_per_period": cfg.solver["steps_per_period"]}
    return cfg


@settings(max_examples=40, deadline=None)
@given(cfg=small_configs(), rnd=st.randoms(use_true_random=False))
# a moments run with no orbit (period growth factor 0.951): an ExtinctionError
@example(cfg=fs.RunConfig(experiment="moments", model={"c": 1.0, "g": 1.5},
                          grid={"x_lo": -2.0, "x_hi": 2.0, "nx": 16},
                          solver={"steps_per_period": 64, "eigen_tol": 1e-8, "eps": 0.25}),
         rnd=random.Random(0))
def test_a_manifest_replays_its_run_and_keeps_its_bounds(cfg, rnd, tmp_path_factory):
    # a run returns a bundle, which its manifest replays byte for byte, or
    # raises a typed error, which a replay of its resolved config raises again
    try:
        bundle = fs.run_experiment(cfg)
    except fs.FluctselError as exc:
        config = asdict(cli_io.resolve_config(cfg))
        with pytest.raises(fs.FluctselError) as again:
            fs.run_experiment(cli_io.config_from_manifest({"config": config}))
        assert (type(again.value), str(again.value)) == (type(exc), str(exc))
    else:
        config = bundle.manifest["config"]
        model = config["model"]
        assert set(model) == {"kind", *cli_io.MODEL_KINDS[model["kind"]]}
        again = fs.run_experiment(cli_io.config_from_manifest(bundle.manifest))
        assert again.manifest["config"] == config
        dirs = [tmp_path_factory.mktemp("bundle") for _ in range(2)]
        for b, d in zip((bundle, again), dirs):
            fs.emit_bundle(b, d)
        names = sorted(p.name for p in dirs[0].iterdir() if p.name != "manifest.json")
        assert names == sorted(p.name for p in dirs[1].iterdir() if p.name != "manifest.json")
        assert "summary.json" in names
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name
    # the same config with one value pushed outside its bound is rejected
    config = copy.deepcopy(config)
    blocks = [config[b] for b in ("grid", "solver", "extra")]
    block = rnd.choice([b for b in blocks if set(b) & set(OUT_OF_BOUNDS)])
    key = rnd.choice(sorted(set(block) & set(OUT_OF_BOUNDS)))
    block[key] = rnd.choice(OUT_OF_BOUNDS[key])
    with pytest.raises(fs.ConfigError, match=re.escape(f"] {key} must be ")):
        fs.run_experiment(cli_io.config_from_manifest({"config": config}))


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


def test_csv_cells_are_the_fixed_format_of_each_value(tmp_path):
    specials = np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 2.5e-310],
                         [0.0, 1.0, -3.0, 1e300, -1.25e-7, 123456.789]])
    tables = {
        "specials": (["a", "b", "c", "d", "e", "f"], specials),
        "floats_with_integer_values": (["k", "n"], np.array([[0.0, 7.0], [1.0, -12.0]])),
        "integers": (["k", "n"], np.array([[0, 7], [1, -12], [2, 2 ** 40]])),
        "one_row": (["t", "rho"], np.array([[0.5, 0.25]])),
        "one_flat_row": (["t", "rho"], np.array([0.5, 0.25])),
    }
    bundle = fs.ResultBundle(manifest={"version": fs.__version__}, tables=tables,
                             summary={})
    fs.emit_bundle(bundle, tmp_path)
    for name, (columns, rows) in tables.items():
        want = [",".join(columns)] + [",".join(f"{float(v):.12e}" for v in row)
                                      for row in np.atleast_2d(rows)]
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == ("\n".join(want) + "\n").encode("utf-8"), name
    assert (tmp_path / "specials.csv").read_text().splitlines()[1].startswith(
        "nan,inf,-inf,-0.000000000000e+00,4.940656458412e-324,")


def _fixed_format_csv(columns, rows) -> bytes:
    """The CSV of a table, one f"{float(v):.12e}" per cell."""
    lines = [",".join(columns)] + [",".join(f"{float(v):.12e}" for v in row)
                                   for row in np.atleast_2d(rows).tolist()]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _near_power_of_ten(p):
    """10^k, or the 13-digit rounding edge 9.9999999999995 10^k, moved by
    steps ulps."""
    k, edge, steps = p
    v = float(f"9.9999999999995e{k}" if edge else f"1e{k}")
    for _ in range(abs(steps)):
        v = float(np.nextafter(v, np.sign(steps) * np.inf))
    return v


def _signed(values):
    return st.tuples(values, st.booleans()).map(lambda p: -p[0] if p[1] else p[0])


# raw 64-bit patterns (nan payloads, -nan, +-0, +-inf, subnormals), the
# neighbours of powers of ten and of the 13-digit rounding edge below them,
# and exact 13-digit ties: a 13-digit integer plus 1/2, a 14-digit integer
# ending in 5
_CELLS = st.one_of(
    st.integers(0, 2 ** 64 - 1).map(lambda b: np.uint64(b).view(np.float64)),
    _signed(st.tuples(st.integers(-323, 307), st.booleans(), st.integers(-3, 3))
            .map(_near_power_of_ten)),
    _signed(st.integers(10 ** 12, 10 ** 13 - 1).map(lambda n: n + 0.5)),
    _signed(st.integers(10 ** 12, 10 ** 13 - 1).map(lambda n: float(10 * n + 5))),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]),
)


@st.composite
def _tables(draw):
    """A 1 x 1, 1 x k, k x 1, flat-row or r x k table of float cells, or of
    int64 cells beyond 2^53."""
    k, r = draw(st.integers(2, 6)), draw(st.integers(2, 5))
    shape = draw(st.sampled_from([(1, 1), (1, k), (k, 1), (k,), (r, k)]))
    size = int(np.prod(shape))
    if draw(st.booleans()):
        cells = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=size,
                              max_size=size))
        return np.array(cells, dtype=np.int64).reshape(shape)
    cells = draw(st.lists(_CELLS, min_size=size, max_size=size))
    return np.array(cells, dtype=float).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(rows=_tables())
def test_csv_cells_match_the_fixed_format_byte_for_byte(rows, tmp_path_factory):
    out = tmp_path_factory.mktemp("csv")
    columns = [f"c{j}" for j in range(np.atleast_2d(rows).shape[1])]
    fs.emit_bundle(fs.ResultBundle(manifest={}, tables={"t": (columns, rows)},
                                   summary={}), out)
    assert (out / "t.csv").read_bytes() == _fixed_format_csv(columns, rows)


def test_csv_sweep_of_random_magnitudes_matches_the_fixed_format(tmp_path):
    # about 0.03 % of random cells lie near a 13-digit tie, where the vector
    # mantissa is not trusted: 262,144 of them hold some tens; then every
    # power of ten and 13-digit rounding edge, and 8 ulps either side
    rng = np.random.default_rng(20181)
    rows = (rng.uniform(-10.0, 10.0, (65536, 4))
            * 10.0 ** rng.integers(-315, 308, (65536, 4)))
    edges = [_near_power_of_ten((k, edge, steps)) for k in range(-323, 308)
             for edge in (False, True) for steps in range(-8, 9)]
    rows = np.concatenate([rows.ravel(), edges, np.negative(edges)]).reshape(-1, 4)
    columns = ["a", "b", "c", "d"]
    fs.emit_bundle(fs.ResultBundle(manifest={}, tables={"sweep": (columns, rows)},
                                   summary={}), tmp_path)
    assert (tmp_path / "sweep.csv").read_bytes() == _fixed_format_csv(columns, rows)


@pytest.mark.parametrize("rows", [np.array([]), np.empty((0, 1))])
def test_a_table_with_no_rows_writes_its_header_alone(tmp_path, rows):
    bundle = fs.ResultBundle(manifest={}, tables={"none": (["a"], rows)}, summary={})
    fs.emit_bundle(bundle, tmp_path)
    assert (tmp_path / "none.csv").read_bytes() == b"a\n"


@pytest.mark.parametrize("rows", [np.ones((2, 2)), np.ones(2), np.empty((0, 2)),
                                  np.ones((1, 3, 1))])
def test_a_header_that_does_not_match_its_rows_is_refused(tmp_path, rows):
    tables = {"good": (["a"], np.ones((2, 1))), "bad": (["a", "b", "c"], rows)}
    bundle = fs.ResultBundle(manifest={}, tables=tables, summary={})
    with pytest.raises(ValueError, match="table 'bad'"):
        fs.emit_bundle(bundle, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_emit_empty_bundle_writes_manifest_only(tmp_path):
    bundle = fs.ResultBundle(manifest={"version": fs.__version__}, tables={},
                             summary={})
    written = fs.emit_bundle(bundle, tmp_path / "empty")
    assert [os.path.basename(p) for p in written] == ["manifest.json"]


def test_a_non_finite_summary_value_is_refused_naming_its_key(tmp_path):
    summary = {"fine": 1.0, "nan": float("nan"), "tail": [1.0, np.inf],
               "low": np.float64(-np.inf), "name": "NaN"}
    bundle = fs.ResultBundle(manifest={}, tables={"t": (["a"], np.ones((2, 1)))},
                             summary=summary)
    with pytest.raises(fs.NumericalError,
                       match=r"non-finite summary values: low, nan, tail$"):
        fs.emit_bundle(bundle, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_main_exits_3_on_a_summary_that_is_not_strict_json(tmp_path, capsys, monkeypatch):
    def nan_summary(cfg, model):
        return {}, {"orbit_mean": float("nan"), "extinct": False}

    _, defaults = cli_io.EXPERIMENTS["sigma0-convergence"]
    monkeypatch.setitem(cli_io.EXPERIMENTS, "sigma0-convergence", (nan_summary, defaults))
    out = tmp_path / "out"
    assert cli_io.main(["sigma0-convergence", "--out", str(out)]) == 3
    assert "non-finite summary values: orbit_mean" in capsys.readouterr().err
    assert not out.exists()


def test_sigma0_convergence_at_a_period_integral_of_800_is_strict_json(tmp_path):
    # I = 800 > 709, where the J-formula's exp(I - anti) overflowed to NaN.
    # dt * q is about 0.8 in the integrator and 4 in the sigma = 0 flow, where
    # a Simpson step integral capped rho at 6 / dt and the gaps were 0.10 and
    # 44.7 at rho near 800; the exponentially fitted one gives 6.3e-8 and 2.3e-3
    out = tmp_path / "out"
    assert cli_io.main(["sigma0-convergence", "--out", str(out),
                        "--override", "model.r=800"]) == 0
    def refuse(constant):
        raise ValueError(f"{constant} is not strict JSON")

    summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
    assert summary["orbit_mean"] == pytest.approx(799.5, rel=1e-6)
    # c01's bound on the final-period gaps, and 1e-5 relative for the flow
    assert max(summary["final_period_gap_from_low"], summary["final_period_gap_from_high"]) < 1e-6
    assert summary["rho_gap_final_period"] < 1e-5 * summary["orbit_mean"]
    rows = np.loadtxt(out / "logistic_compare.csv", delimiter=",", skiprows=1)
    assert np.isfinite(rows).all() and rows[:, 1].min() > 0.0


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


def test_main_maps_a_lapack_failure_to_the_numerical_exit_code(
        monkeypatch, tmp_path, capsys):
    lapack = pde_solver._lapack()
    real = lapack.dstebz

    def failing(*args):  # info, the last pointer before the two string lengths
        real(*args)
        args[-3]._obj.value = 1

    monkeypatch.setattr(lapack, "dstebz", failing)
    assert cli_io.main(["example2", "--out", str(tmp_path / "out")]) == 3
    assert "dstebz info 1" in capsys.readouterr().err


def test_main_rejects_a_config_tag_naming_another_experiment(tmp_path, capsys):
    # the positional tag is the experiment; a file or override tag may only
    # repeat it
    path = _write(tmp_path, "[experiment]\ntag = moments\n")
    assert cli_io.main(["sigma0-convergence", "--config", path]) == 2
    assert cli_io.main(["sigma0-convergence", "--override",
                        "experiment.tag=moments"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert len(errors) == 2
    for line in errors:
        assert line.startswith("config error")
        assert "'moments'" in line and "'sigma0-convergence'" in line
    same = _write(tmp_path, "[experiment]\ntag = floquet-sweep\n", "same.ini")
    argv = ["floquet-sweep", "--config", same, "--out", str(tmp_path / "run"),
            "--override", "experiment.tag=floquet-sweep"]
    for text in FAST_SWEEP:
        argv += ["--override", text]
    assert cli_io.main(argv) == 0


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
    budgets = [inspect.signature(fn).parameters["max_periods"].default for fn in (
        pde_solver.principal_eigenpair, pde_solver.find_periodic_orbit,
        asymptotics.fitness_comparison)]
    assert set(budgets) == {pde_solver.MAX_PERIODS}


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


@pytest.mark.parametrize("key", [
    # no experiment passes an iteration cap on; the key is not accepted
    "max_iters",
    # every eigen-solve runs within pde_solver.MAX_PERIODS period maps
    "max_periods",
    # the mutation scale has one key, solver.eps (sigma = eps^2)
    "sigma"])
def test_main_rejects_unread_solver_key(key, capsys):
    assert cli_io.main(["example1", "--override", f"solver.{key}=0.0025"]) == 2
    assert f"unknown key '{key}' in [solver]" in capsys.readouterr().err


@pytest.mark.parametrize("tag,override", [
    ("example1", "experiment.radii=1,2"),
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


@pytest.mark.parametrize("tag,override,key", [
    ("sigma0-convergence", "experiment.t_end=inf", "t_end"),
    ("sigma0-convergence", "experiment.t_end_density=nan", "t_end_density"),
    ("sigma0-convergence", "experiment.t_end_density=-1", "t_end_density"),
    ("periodic-orbit", "solver.steps_per_period=0", "steps_per_period"),
    # the summary compares the last two radii
    ("floquet-sweep", "experiment.radii=3", "radii"),
    ("epsilon-limit", "experiment.eps_list=", "eps_list"),
    ("moments", "experiment.nt=0", "nt"),
    ("sigma0-convergence", "model.b=nan", " b "),
    ("sigma0-convergence", "model.b=inf", " b "),
    # numerical failures (exit 3) or an empty table before
    ("sigma0-convergence", "experiment.w0=0", "w0"),
    ("refinement", "experiment.levels=0", "levels"),
    # a concentration radius: mass_outside_window read 1.0 before
    ("sigma0-convergence", "experiment.window=-1", "window"),
    ("sigma0-convergence", "experiment.window=nan", "window"),
    # a window with no grid node: a ValueError traceback before
    ("epsilon-limit", "experiment.window_lo=2", "window_lo"),
    ("epsilon-limit", "experiment.window_hi=-5", "window_hi"),
    # a step-constraint failure (exit 3) before
    ("example2", "experiment.t_star=nan", "t_star"),
    ("example2", "experiment.t_star=inf", "t_star"),
    ("sigma0-convergence", "model.r=nan", " r "),
    ("sigma0-convergence", "model.c=nan", " c "),
    ("example2", "model.r=nan", " r "),
    ("example2", "model.g_mean=nan", "selection pressure"),
    ("example2", "model.g_amp=nan", "selection pressure"),
    ("example2", "model.g_mean=inf", "selection pressure"),
    ("sigma0-convergence", "model.g=inf", " g "),
    # every radius clamped to 16 grid points, exit 0, before
    ("floquet-sweep", "experiment.points_per_unit=0", "points_per_unit"),
    # a non-finite step matrix (exit 3) before
    ("moments", "solver.eps=inf", "eps"),
    # exit 0 after 2 period maps with an orbit that had not converged, before
    ("periodic-orbit", "solver.eigen_tol=inf", "eigen_tol"),
    # a non-finite step matrix (exit 3) before
    ("moments", "grid.x_lo=-inf", "x_lo"),
    # "tabulated model needs a 'path'", naming no key, before
    ("periodic-orbit", "model.kind=tabulated", "[model] path"),
])
def test_main_rejects_a_value_the_driver_cannot_run_naming_its_key(
        tag, override, key, capsys, tmp_path):
    assert cli_io.main([tag, "--override", override,
                        "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err
    assert not (tmp_path / "out").exists()


def _override_text(value):
    return " ".join(map(str, value)) if isinstance(value, list) else str(value)


# values outside each _BOUNDS entry
OUT_OF_BOUNDS = {
    "kind": ["quartic"], "x_lo": [-np.inf], "x_hi": [np.nan], "nx": [15],
    "eps": [np.inf], "eigen_tol": [np.inf], "steps_per_period": [0],
    "levels": [0], "w0": [np.inf],
    # a ValueError or OverflowError traceback (exit 1), "radii must be
    # strictly increasing" (exit 3), or an empty trait interval that named
    # no key, before
    "radii": [[3.0], [np.nan, np.inf], [3.0, 2.0], [-1.0, 2.0], [0.0, 2.0], [1.0, np.inf]],
    # exit 0 after running sigma = 0.01 for eps = -0.1, a non-finite step matrix
    # (exit 3), or hopf_cole's message that names no key, before
    "eps_list": [[], [-0.1], [np.nan], [np.inf], [0.0], [0.1, -0.1]],
    "window": [np.nan], "t_end": [-1.0], "t_end_density": [np.inf], "t_star": [np.nan],
    "points_per_unit": [0]}


def _section_and_reader(key):
    """The config section of a key, and a tag that reads it."""
    (sec,) = [s for s, keys in cli_io._SCHEMA.items() if key in keys]
    block = "extra" if sec == "experiment" else sec
    tag = next(t for t, (_, d) in cli_io.EXPERIMENTS.items() if key in d[block])
    return sec, block, tag


@pytest.mark.parametrize("source", ["ini", "json", "override", "code"])
@pytest.mark.parametrize("key,value", [
    pytest.param(key, value, id=f"{key}={_override_text(value)}")
    for key, values in OUT_OF_BOUNDS.items() for value in values])
def test_every_bound_holds_for_every_source_and_names_it(key, value, source, tmp_path,
                                                         capsys):
    # one table and one check: a value outside its bound is a config error
    # (exit 2) whether it comes from a file, an override or code, and the
    # message names the key and where the value came from
    assert set(OUT_OF_BOUNDS) == set(cli_io._BOUNDS)
    sec, block, tag = _section_and_reader(key)
    if source == "code":
        with pytest.raises(fs.ConfigError) as err:
            fs.run_experiment(fs.RunConfig(experiment=tag, **{block: {key: value}}))
        assert f"[{sec}] {key} must be " in str(err.value)
        return
    out = tmp_path / "out"
    argv = [tag, "--out", str(out)]
    if source == "ini":
        path = _write(tmp_path, f"[{sec}]\n{key} = {_override_text(value)}\n")
        argv += ["--config", path]
        where = f"{path}:2: [{sec}] {key}"
    elif source == "json":
        path = _write(tmp_path, json.dumps({sec: {key: value}}), "run.json")
        argv += ["--config", path]
        where = f"{path}: [{sec}] {key}"
    else:
        text = f"{sec}.{key}={_override_text(value)}"
        argv += ["--override", text]
        where = f"override {text!r}: [{sec}] {key}"
    assert cli_io.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {where} must be ")
    assert not out.exists()


def test_the_readme_table_of_bounds_names_every_bounded_key():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text(encoding="utf-8").split("| keys | bound |\n", 1)[1]
    table = table.split("\n\n", 1)[0]
    named = set(re.findall(r"`(\w+)\.(\w+)`", table))
    assert named == {(sec, key) for sec, keys in cli_io._SCHEMA.items()
                     for key in keys if key in cli_io._BOUNDS}


@pytest.mark.parametrize("blocks,where", [
    # ran with eps = 0.05, echoing -0.05 in its manifest, before
    ({"solver": {"eps": -0.05}}, "[solver] eps must be positive"),
    ({"solver": {"sigma": 0.01}}, "experiment 'moments' does not read [solver] key(s) ['sigma']"),
    # a manifest of a run that echoed the eigen-solve budget
    ({"solver": {"max_periods": 2000}},
     "experiment 'moments' does not read [solver] key(s) ['max_periods']"),
    ({"model": {"kind": "quartic"}}, "[model] kind must be one of"),
    ({"grid": {"x_lo": 2.0, "x_hi": -2.0}}, "[grid] x_hi: x_hi must exceed x_lo"),
    ({"grid": {"x_hi": -5.0}}, "[grid] x_hi: x_hi must exceed x_lo"),
])
def test_run_experiment_rejects_a_code_built_config_a_file_could_not_give(
        blocks, where, monkeypatch):
    monkeypatch.setattr(cli_io, "build_model", None)  # nothing may run
    with pytest.raises(fs.ConfigError) as err:
        fs.run_experiment(fs.RunConfig(experiment="moments", **blocks))
    assert str(err.value).startswith(where)


@pytest.mark.parametrize("section,key,given,want", [
    # escaped as TypeError: '>=' not supported, before
    ("grid", "nx", "40", 40),
    ("solver", "steps_per_period", 64.0, 64),
    # as a config file rejects them
    ("solver", "steps_per_period", 2.5, "[solver] steps_per_period: 2.5 is not an integer"),
    ("grid", "nx", "forty", "[grid] nx: invalid literal for int()"),
    ("grid", "nx", None, "[grid] nx: int() argument must be"),
])
def test_a_code_built_value_is_coerced_like_a_file_value(section, key, given, want):
    cfg = fs.RunConfig(experiment="moments", **{section: {key: given}})
    if isinstance(want, str):
        with pytest.raises(fs.ConfigError) as err:
            cli_io.resolve_config(cfg)
        assert str(err.value).startswith(want)
    else:
        value = getattr(cli_io.resolve_config(cfg), section)[key]
        assert value == want and type(value) is type(want)


@pytest.mark.parametrize("tag", cli_io.EXPERIMENT_TAGS)
@pytest.mark.parametrize("kind", [None, *sorted(cli_io.MODEL_KINDS)])
def test_every_tag_resolves_its_own_defaults(kind, tag, tmp_path):
    model, grid = ({} if kind is None else {"kind": kind}), {}
    if kind == "tabulated":
        model["path"] = _rate_table(tmp_path)
        # its nodes span x_lo..x_hi, which floquet-sweep does not default
        if "x_lo" not in cli_io.EXPERIMENTS[tag][1]["grid"]:
            grid = {"x_lo": -1.0, "x_hi": 1.0}
    cfg = cli_io.resolve_config(fs.RunConfig(experiment=tag, model=model, grid=grid))
    # a resolved config (as echoed in a manifest) resolves to itself
    assert cli_io.resolve_config(cfg) == cfg
    # the model block, the tag's or a chosen kind's, names every parameter
    # of its kind
    assert set(cfg.model) == {"kind", *cli_io.MODEL_KINDS[cfg.model["kind"]]}


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
    cli_io.apply_override(cfg, "experiment.t_star=0.25")
    assert cfg.extra["t_star"] == 0.25


def _count_solves(monkeypatch):
    # every eigen-solve records its period once
    calls = []
    record = pde_solver._Stepper.record

    def counted(self, start):
        calls.append(self.steps)
        return record(self, start)

    monkeypatch.setattr(pde_solver._Stepper, "record", counted)
    return calls


def test_periodic_orbit_runs_one_eigen_solve(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = fs.RunConfig(experiment="periodic-orbit",
                       grid={"nx": 200}, solver={"steps_per_period": 512})
    summary = fs.run_experiment(cfg).summary
    assert calls == [512]
    assert summary["extinct"] is False
    assert summary["periods_run"] == summary["eigen_iterations"] + 1


def test_refinement_runs_one_eigen_solve_per_grid(monkeypatch):
    calls = _count_solves(monkeypatch)
    cfg = fs.RunConfig(experiment="refinement", extra={"levels": 1})
    bundle = fs.run_experiment(cfg)
    # level 0 runs at its own 500 steps per period
    assert calls == [500]
    assert bundle.tables["refinement"][1][0][2] == 500


def test_refinement_frees_each_pair_before_the_next_solve(monkeypatch):
    # level 0's FloquetPair, and with it its period table, is gone when
    # level 1's eigen-solve records its period
    tables, alive = [], []
    record = pde_solver._Stepper.record

    def watched(self, start):
        alive.append([ref() is not None for ref in tables])
        table = record(self, start)
        tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(pde_solver._Stepper, "record", watched)
    fs.run_experiment(fs.RunConfig(experiment="refinement", grid={"nx": 99},
                                   solver={"steps_per_period": 128},
                                   extra={"levels": 2}))
    assert alive == [[], [False]]


def test_every_orbit_mean_is_the_signal_mean(monkeypatch):
    # the drivers' period means of rho are record.rho.mean(), bit for bit,
    # and the measured moments are signals on the record's own times
    records = []
    orbit_from_pair = pde_solver.orbit_from_pair

    def kept(pair):
        records.append(orbit_from_pair(pair))
        return records[-1]

    monkeypatch.setattr(pde_solver, "orbit_from_pair", kept)
    cfg = fs.RunConfig(experiment="periodic-orbit",
                       grid={"nx": 200}, solver={"steps_per_period": 512})
    summary = fs.run_experiment(cfg).summary
    (record,) = records
    assert summary["rho_mean"] == record.rho.mean()
    rep = asymptotics.measure_moments(record)
    assert rep.rho_mean == record.rho.mean()
    assert rep.mu.times is record.rho.times
    assert rep.sigma2.times is record.rho.times
    records.clear()
    rows = fs.run_experiment(fs.RunConfig(
        experiment="refinement", extra={"levels": 2})).tables["refinement"][1]
    assert len(records) == len(rows) == 2
    assert [row[4] for row in rows] == [r.rho.mean() for r in records]


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


# one tag per distinct default config: example1 runs moments', example2
# fitness-compare's
DISTINCT_TAGS = ("sigma0-convergence", "periodic-orbit", "floquet-sweep",
                 "epsilon-limit", "moments", "fitness-compare", "refinement")
_WRITE_BUNDLES = """
import sys
from fluctsel.cli_io import RunConfig, emit_bundle, run_experiment
for tag in sys.argv[1:]:
    emit_bundle(run_experiment(RunConfig(experiment=tag, out_dir=tag)), tag)
"""


def test_bundles_do_not_depend_on_the_blas_thread_count(tmp_path):
    assert ({id(cli_io.EXPERIMENTS[t]) for t in DISTINCT_TAGS}
            == {id(entry) for entry in cli_io.EXPERIMENTS.values()})
    src = pathlib.Path(cli_io.__file__).resolve().parents[1]
    procs = {}
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        procs[threads] = subprocess.Popen(
            [sys.executable, "-c", _WRITE_BUNDLES, *DISTINCT_TAGS],
            cwd=tmp_path / threads, env=env, stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    for tag in DISTINCT_TAGS:
        names, again = (sorted(p.name for p in (tmp_path / t / tag).iterdir()
                               if p.name != "manifest.json") for t in ("1", "2"))
        assert names == again
        assert "summary.json" in names and any(n.endswith(".csv") for n in names)
        for name in names:
            one, two = (tmp_path / t / tag / name for t in ("1", "2"))
            assert one.read_bytes() == two.read_bytes(), f"{tag}/{name}"
