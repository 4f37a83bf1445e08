"""tools/compare_bundles.py's comparison, on two small synthetic bundle
directories (writing real bundles is left to the script itself)."""

import importlib.util
import json
import math
import pathlib
import subprocess

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / "tools" / "compare_bundles.py"
_spec = importlib.util.spec_from_file_location("compare_bundles", _PATH)
compare_bundles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_bundles)


def _bundle(root, tag, summary, csv, elapsed):
    out = root / tag
    out.mkdir(parents=True)
    manifest = {"config": {"out_dir": tag}, "timing": {"elapsed_seconds": elapsed}}
    (out / "manifest.json").write_text(json.dumps(manifest))
    (out / "summary.json").write_text(json.dumps(summary))
    (out / "table.csv").write_text(csv)


def test_identical_bundles_up_to_timing(tmp_path):
    for side, elapsed in (("old", 0.1), ("new", 0.2)):
        _bundle(tmp_path / side, "a", {"x": 1.0}, "t,y\n0,1\n", elapsed)
    lines, differs = compare_bundles.compare(tmp_path / "old", tmp_path / "new")
    assert not differs
    assert lines == ["a/manifest.json: identical", "a/summary.json: identical",
                     "a/table.csv: identical"]


def test_differences_name_the_file_and_the_largest_shift_per_key(tmp_path):
    _bundle(tmp_path / "old", "a", {"x": 2.0, "v": [1.0, 4.0], "ok": True, "same": 3.0,
                                    "gone": 1.0}, "t,y\n0,1\n", 0.1)
    _bundle(tmp_path / "new", "a", {"x": 2.0 + 2e-12, "v": [1.0, 3.0], "ok": False,
                                    "same": 3.0, "new": 1.0}, "t,y\n0,2\n", 0.1)
    _bundle(tmp_path / "old", "b", {"x": 1.0}, "t\n0\n", 0.1)
    lines, differs = compare_bundles.compare(tmp_path / "old", tmp_path / "new")
    assert differs
    assert lines == [
        "a/manifest.json: identical",
        "a/summary.json: differs",
        "  gone: only in old",
        "  new: only in new",
        "  ok: largest relative shift inf, absolute inf, largest magnitude 0",
        "  v: largest relative shift 0.25, absolute 1, largest magnitude 4",
        "  x: largest relative shift 1e-12, absolute 2e-12, largest magnitude 2",
        "a/table.csv: differs",
        "  y: largest relative shift 0.5, absolute 1, largest magnitude 2",
        "b/manifest.json: differs (only in old)",
        "b/summary.json: differs (only in old)",
        "b/table.csv: differs (only in old)",
    ]


def test_a_differing_csv_names_the_largest_shift_per_column(tmp_path):
    _bundle(tmp_path / "old", "a", {"x": 1.0},
            "t,rho,gone,tag\n0,1.0e+00,5,a\n1,4.0e+00,5,b\n", 0.1)
    _bundle(tmp_path / "new", "a", {"x": 1.0},
            "t,rho,tag,new\n0,1.000000000001e+00,a,5\n1,3.0e+00,c,5\n", 0.1)
    _bundle(tmp_path / "old", "b", {"x": 1.0}, "t,y\n0,1\n1,2\n", 0.1)
    _bundle(tmp_path / "new", "b", {"x": 1.0}, "t,y\n0,1\n", 0.1)
    lines, differs = compare_bundles.compare(tmp_path / "old", tmp_path / "new")
    assert differs
    assert lines == [
        "a/manifest.json: identical",
        "a/summary.json: identical",
        "a/table.csv: differs",
        "  gone: only in old",
        "  new: only in new",
        "  rho: largest relative shift 0.25, absolute 1, largest magnitude 4",
        "  tag: largest relative shift inf, absolute inf, largest magnitude 0",
        "b/manifest.json: identical",
        "b/summary.json: identical",
        "b/table.csv: differs",
        "  t: largest relative shift inf, absolute inf, largest magnitude 0",
        "  y: largest relative shift inf, absolute inf, largest magnitude 0",
    ]


def test_a_differing_manifest_names_each_config_key_by_its_dotted_name(tmp_path):
    for side, solver, elapsed in (("old", {"eigen_tol": 1e-8, "max_periods": 2000}, 0.1),
                                  ("new", {"eigen_tol": 1e-10}, 0.2)):
        _bundle(tmp_path / side, "a", {"x": 1.0}, "t\n0\n", elapsed)
        manifest = {"version": "0.1.0", "timing": {"elapsed_seconds": elapsed},
                    "config": {"out_dir": "a", "solver": solver,
                               "extra": {"radii": [1.0, 2.0 + elapsed]}}}
        (tmp_path / side / "a" / "manifest.json").write_text(json.dumps(manifest))
    lines, differs = compare_bundles.compare(tmp_path / "old", tmp_path / "new")
    assert differs
    # the timing block is still left out
    assert lines == [
        "a/manifest.json: differs",
        "  config.extra.radii: largest relative shift 0.0455, absolute 0.1, "
        "largest magnitude 2.2",
        "  config.solver.eigen_tol: largest relative shift 0.99, absolute 9.9e-09, "
        "largest magnitude 1e-08",
        "  config.solver.max_periods: only in old",
        "a/summary.json: identical",
        "a/table.csv: identical",
    ]


@pytest.mark.parametrize("old,new,expect", [
    (1.0, 1.0, (0.0, 0.0, 1.0)), (-2.0, 2.0, (2.0, 4.0, 2.0)), (0, 1e-3, (1.0, 1e-3, 1e-3)),
    ([1.0, 2.0], [1.0, 2.5], (0.2, 0.5, 2.5)), ([1.0], [1.0, 2.0], (math.inf, math.inf, 0.0)),
    (None, None, (0.0, 0.0, 0.0)), ("a", "b", (math.inf, math.inf, 0.0)),
    (math.nan, math.nan, (0.0, 0.0, 0.0)), (math.nan, 1.0, (math.inf, math.inf, 1.0)),
    # a value near its zero crossing: a large relative shift of a rounding size
    ([1e-17, 0.5], [3e-17, 0.5], (2.0 / 3.0, 2e-17, 0.5))])
def test_shifts(old, new, expect):
    assert compare_bundles.shifts(old, new) == pytest.approx(expect)


def test_a_revision_exports_its_source_tree(tmp_path):
    repo = tmp_path / "repo"
    (repo / "src" / "pkg").mkdir(parents=True)
    (repo / "notes.txt").write_text("not exported\n")
    module = repo / "src" / "pkg" / "mod.py"
    module.write_text("X = 1\n")

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@example.invalid",
                        *args], cwd=repo, check=True, capture_output=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "first")
    module.write_text("X = 2\n")  # a working-tree change the revision does not hold
    tree = compare_bundles.export_revision("HEAD", repo, tmp_path / "tree")
    assert tree == tmp_path / "tree"
    assert (tree / "src" / "pkg" / "mod.py").read_text() == "X = 1\n"
    assert sorted(p.name for p in tree.iterdir()) == ["src"]
    with pytest.raises(subprocess.CalledProcessError):
        compare_bundles.export_revision("no-such-revision", repo, tmp_path / "bad")


def test_the_source_line_count_is_added_removed_and_net(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree, files in ((old, {"pkg/a.py": "a\nb\nc\n", "pkg/gone.py": "x\ny\n",
                               "pkg/notes.txt": "1\n"}),
                        (new, {"pkg/a.py": "a\nB\nc\nd\n", "pkg/new.py": "z\n",
                               "pkg/notes.txt": "2\n3\n"})):
        for name, text in files.items():
            path = tree / "src" / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    # a.py: b -> B and d added; gone.py: 2 removed; new.py: 1 added; no .txt
    assert (compare_bundles.source_line_counts(old, new)
            == "src/*.py lines: +3 -3, net +0")
    assert (compare_bundles.source_line_counts(new, old)
            == "src/*.py lines: +3 -3, net +0")
    (new / "src" / "pkg" / "new.py").write_text("z\nw\n")
    assert (compare_bundles.source_line_counts(old, new)
            == "src/*.py lines: +4 -3, net +1")
