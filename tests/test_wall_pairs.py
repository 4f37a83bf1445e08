"""tools/wall_pairs.py's summary of the child's metrics, on synthetic
samples, one real child run of this tree and one of a git revision, and its
reading of a revision git cannot export."""

import importlib.util
import pathlib
import shutil
import subprocess
import sys

_TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def _load(name):
    # wall_pairs imports setup_time, and setup_time compare_bundles, by name, as
    # the scripts run from tools/ do
    spec = importlib.util.spec_from_file_location(name, _TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("compare_bundles")
_load("setup_time")
wall_pairs = _load("wall_pairs")


def _summary(old, new):
    names = ("wall_s", "cpu_s", "peak_rss_mb")
    runs = [[dict(zip(names, values)) for values in side] for side in (old, new)]
    return wall_pairs.summarize(*runs, names=names, label="metric", digits=4)


def test_summary_gives_median_quartiles_and_paired_wins_per_metric():
    old = [(0.0585, 0.06, 36.49), (0.0595, 0.06, 36.49), (0.0575, 0.06, 36.5),
           (0.0605, 0.06, 36.48), (0.0565, 0.06, 36.49)]
    new = [(0.0445, 0.05, 36.97), (0.0455, 0.06, 36.97), (0.0600, 0.07, 36.96),
           (0.0435, 0.05, 36.98), (0.0465, 0.05, 36.97)]
    lines = _summary(old, new)
    assert lines[0].split()[0] == "metric"
    assert [line.split() for line in lines[1:]] == [
        ["wall_s", "0.0585", "[0.0575,", "0.0595]", "0.0455", "[0.0445,", "0.0465]", "4/5"],
        ["cpu_s", "0.0600", "[0.0600,", "0.0600]", "0.0500", "[0.0500,", "0.0600]", "3/5"],
        ["peak_rss_mb", "36.4900", "[36.4900,", "36.4900]", "36.9700", "[36.9700,",
         "36.9700]", "0/5"]]


def test_one_child_run_reports_every_metric():
    got = wall_pairs.run_once(_TOOLS.parent, "sigma0-convergence")
    assert set(got) == set(wall_pairs.METRICS)
    assert all(value > 0.0 for value in got.values())
    assert got["cpu_s"] < 60.0
    # set-up is spawn to the child's t_enter: at least an interpreter start
    assert 0.01 < got["setup_s"] < 60.0
    assert got["setup+wall_s"] == got["setup_s"] + got["wall_s"]


def test_children_run_with_the_benchmarks_one_thread_pins():
    env = wall_pairs.thread_env()
    assert env["OPENBLAS_NUM_THREADS"] == env["OMP_NUM_THREADS"] == "1"


def test_a_revision_runs_under_this_checkouts_child(tmp_path):
    # a repository holding a copy of this src/: its exported revision has
    # no bench/, so the run can only use this checkout's child
    repo = tmp_path / "repo"
    shutil.copytree(_TOOLS.parent / "src", repo / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
                        *args], cwd=repo, check=True, capture_output=True)
    [tree] = wall_pairs.source_trees(["HEAD"], repo, tmp_path / "work")
    assert not (tree / "bench").exists()
    got = wall_pairs.run_once(tree, "sigma0-convergence")
    assert all(value > 0.0 for value in got.values())


def test_a_revision_git_cannot_export_exits_2_with_its_message(capsys):
    assert wall_pairs.main(["no-such-revision", ".", "sigma0-convergence"]) == 2
    assert "git archive failed" in capsys.readouterr().err
