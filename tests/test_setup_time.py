"""tools/setup_time.py's summary and module comparison, on synthetic samples
(timing real processes is left to the script itself), its module list of
this tree, from one fresh interpreter, and its reading of a git revision."""

import importlib.util
import pathlib
import py_compile
import subprocess
import sys

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "setup_time.py"


def _load(name):
    # setup_time imports compare_bundles by name, as the script run from tools/ does
    spec = importlib.util.spec_from_file_location(name, _PATH.with_name(f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_load("compare_bundles")
setup_time = _load("setup_time")


def _runs(scale, offsets):
    # every phase of run i reads scale * (i + 1) + offsets[i]
    return [{phase: scale * (i + 1) + off for phase in setup_time.PHASES}
            for i, off in enumerate(offsets)]


def test_summary_gives_median_quartiles_and_paired_wins():
    old = _runs(10.0, [0.0] * 5)  # 10, 20, 30, 40, 50
    new = _runs(10.0, [-1.0, -1.0, 1.0, -1.0, 0.0])  # 9, 19, 31, 39, 50
    lines = setup_time.summarize(old, new)
    assert len(lines) == 1 + len(setup_time.PHASES)
    assert lines[0].split() == ["phase", "old", "median", "[q1,", "q3]", "new",
                                "median", "[q1,", "q3]", "new", "lower"]
    for phase, line in zip(setup_time.PHASES, lines[1:]):
        assert line.split() == [phase, "30.00", "[20.00,", "40.00]",
                                "31.00", "[19.00,", "39.00]", "3/5"]


def test_ties_do_not_count_as_wins():
    same = _runs(1.0, [0.0, 0.0])
    for line in setup_time.summarize(same, same)[1:]:
        assert line.endswith("0/2")


def test_module_comparison_counts_and_names_the_difference():
    old = ["fluctsel", "json", "logging", "string"]
    new = ["fluctsel", "json", "tomllib"]
    assert setup_time.compare_modules(old, new) == [
        "modules after numpy: old 4, new 3",
        "added: tomllib",
        "removed: logging string"]
    assert setup_time.compare_modules(new, new)[1:] == ["added: -", "removed: -"]


def test_modules_after_numpy_lists_the_package_and_not_numpy():
    names = setup_time.modules_after_numpy(_PATH.parents[1])
    assert names == sorted(names)
    assert {"fluctsel", "fluctsel.pde_solver"} <= set(names)
    assert "numpy" not in names


def test_pairs_alternate_after_one_warm_up_per_tree():
    calls = []

    def run(tree):
        calls.append(tree)
        return len(calls)

    old, new = setup_time.run_pairs(["old", "new"], run, pairs=3)
    assert calls == ["old", "new", "old", "new", "new", "old", "old", "new"]
    # each side keeps its own results, pair by pair
    assert old == [3, 6, 7] and new == [4, 5, 8]


def _repo_with_a_working_tree_change(tmp_path):
    # src/pkg/mod.py reads X = 1 at HEAD and X = 2 in the working tree
    repo = tmp_path / "repo"
    module = repo / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "first"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
                        *args], cwd=repo, check=True, capture_output=True)
    module.write_text("X = 2\n")
    return repo, module


def test_a_revision_is_exported_and_a_directory_copied(tmp_path):
    repo, _ = _repo_with_a_working_tree_change(tmp_path)
    work = tmp_path / "work"
    old, new = setup_time.source_trees(["HEAD", str(repo)], repo, work)
    assert (old / "src" / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert new == work / "1"
    assert (new / "src" / "pkg" / "mod.py").read_text() == "X = 2\n"


def test_a_directory_is_timed_without_its_stale_bytecode(tmp_path):
    # bytecode of X = 1 that Python loads without checking the source, as a
    # cache left by an earlier process may be read
    repo, module = _repo_with_a_working_tree_change(tmp_path)
    stale = importlib.util.cache_from_source(str(module))
    source = module.with_name("stale.py")
    source.write_text("X = 1\n")
    py_compile.compile(str(source), cfile=stale,
                       invalidation_mode=py_compile.PycInvalidationMode.UNCHECKED_HASH)
    source.unlink()
    code = "import pkg.mod; print(pkg.mod.X)"
    assert setup_time._child(repo, code).strip() == "1"
    _, new = setup_time.source_trees(["HEAD", str(repo)], repo, tmp_path / "work")
    assert not list(new.rglob("__pycache__"))
    assert setup_time._child(new, code).strip() == "2"


def test_a_revision_git_cannot_export_exits_2_with_its_message(capsys):
    # a CalledProcessError traceback, before
    assert setup_time.main(["no-such-revision", "."]) == 2
    assert "git archive failed" in capsys.readouterr().err
