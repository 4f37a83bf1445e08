"""Write the default bundle of every experiment tag from two source trees and
compare them file by file.

    python tools/compare_bundles.py OLD NEW

Each of OLD and NEW is a checkout of this repository, or a git revision of
the repository this script lives in, whose src/ is exported with
`git archive` into a temporary tree; so `python tools/compare_bundles.py
HEAD .` checks the working tree against the last commit. A fresh
interpreter imports the package from TREE/src and writes the bundle of
every tag at its defaults, one directory per tag. For each file, the script
prints "identical" or "differs". For each summary.json key and each CSV
column that differs, it prints the largest relative shift
|old - new| / max(|old|, |new|) and the largest absolute shift |old - new|,
taken element-wise over a list or column, and the largest magnitude |v| of
its numbers on either side, so that a large relative shift of a value near
zero reads as the rounding it may be. A shift is inf when a value is not a
number or changes type, or a column changes length. A manifest is compared
without its timing block, and
both trees write to the same relative out_dir. The last line gives the
lines of src/**/*.py added, removed and net from OLD to NEW, file by file
by difflib's matching. The exit status is 1 on any bundle difference, 2
when git cannot export a revision, else 0.
"""

from __future__ import annotations

import difflib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

_WRITE_BUNDLES = """
from fluctsel.cli_io import EXPERIMENT_TAGS, RunConfig, emit_bundle, run_experiment
for tag in EXPERIMENT_TAGS:
    emit_bundle(run_experiment(RunConfig(experiment=tag, out_dir=tag)), tag)
"""


def export_revision(revision: str, repo: Path, dest: Path) -> Path:
    """Extract src/ of a git revision of repo into dest; returns dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", revision, "src"],
                             cwd=repo, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest


def write_bundles(tree: Path, out: Path) -> None:
    """Write every tag's default bundle from the package in tree/src into
    out/<tag>, in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    subprocess.run([sys.executable, "-c", _WRITE_BUNDLES], cwd=out, env=env, check=True)


def shifts(old, new) -> tuple[float, float, float]:
    """Largest relative shift, largest absolute shift and largest magnitude
    from old to new (see the module docstring)."""
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return tuple(max(column, default=0.0)
                     for column in zip(*(shifts(a, b) for a, b in zip(old, new))))
    numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool)
                  for v in (old, new))
    magnitude = max((abs(v) for v in (old, new) if numbers and not math.isnan(v)),
                    default=0.0)
    if old == new:
        return 0.0, 0.0, magnitude
    if not numbers or math.isnan(old) or math.isnan(new):
        shift = 0.0 if numbers and math.isnan(old) and math.isnan(new) else math.inf
        return shift, shift, magnitude
    return abs(old - new) / max(abs(old), abs(new)), abs(old - new), magnitude


def _csv_columns(path: Path) -> dict:
    """Each column of a CSV with a header row, by name: its numbers, or its
    text where a cell is not a number."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    names = header.split(",")
    columns = zip(*(row.split(",") for row in rows)) if rows else [()] * len(names)
    return {name: [_number(v) for v in column] for name, column in zip(names, columns)}


def _number(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _shift_lines(old: dict, new: dict) -> list[str]:
    """One line per key of old or new whose values differ."""
    lines = []
    for key in sorted(old.keys() | new.keys()):
        if key not in old or key not in new:
            lines.append(f"  {key}: only in {'old' if key in old else 'new'}")
        elif old[key] != new[key]:
            relative, absolute, magnitude = shifts(old[key], new[key])
            lines.append(f"  {key}: largest relative shift {relative:.3g}, "
                         f"absolute {absolute:.3g}, largest magnitude {magnitude:.3g}")
    return lines


def _manifest_without_timing(path: Path) -> dict:
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.pop("timing", None)
    return manifest


def compare(old: Path, new: Path) -> tuple[list[str], bool]:
    """Compare the bundle directories old/<tag> and new/<tag>; returns the
    report lines and whether anything differs."""
    old, new = Path(old), Path(new)
    lines = []
    differs = False
    names = sorted({p.relative_to(root).as_posix() for root in (old, new)
                    for p in root.glob("*/*") if p.is_file()})
    for name in names:
        a, b = old / name, new / name
        if not (a.is_file() and b.is_file()):
            lines.append(f"{name}: differs (only in {'old' if a.is_file() else 'new'})")
            differs = True
            continue
        if name.endswith("manifest.json"):
            same = _manifest_without_timing(a) == _manifest_without_timing(b)
        else:
            same = a.read_bytes() == b.read_bytes()
        lines.append(f"{name}: {'identical' if same else 'differs'}")
        differs |= not same
        if not same and name.endswith("summary.json"):
            lines += _shift_lines(*(json.loads(p.read_text(encoding="utf-8")) for p in (a, b)))
        elif not same and name.endswith(".csv"):
            lines += _shift_lines(_csv_columns(a), _csv_columns(b))
    return lines, differs


def source_line_counts(old: Path, new: Path) -> str:
    """The lines of src/**/*.py added, removed and net from tree old to tree
    new, as one line of the report."""
    def sources(tree):
        root = Path(tree) / "src"
        return {p.relative_to(root).as_posix(): p.read_text(encoding="utf-8").splitlines()
                for p in root.rglob("*.py")}

    before, after = sources(old), sources(new)
    added = removed = 0
    for name in before.keys() | after.keys():
        matcher = difflib.SequenceMatcher(None, before.get(name, []), after.get(name, []),
                                          autojunk=False)
        for tag, i1, i2, j1, j2 in matcher.get_opcodes():
            if tag != "equal":
                removed += i2 - i1
                added += j2 - j1
    return f"src/*.py lines: +{added} -{removed}, net {added - removed:+d}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    repo = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as work:
        outs = [Path(work, side) for side in ("old", "new")]
        trees = []
        for tree, out in zip(argv, outs):
            out.mkdir()
            if not Path(tree).is_dir():
                try:
                    tree = export_revision(tree, repo, Path(work, f"{out.name}-tree"))
                except subprocess.CalledProcessError as exc:
                    print(f"{tree}: not a directory, and git archive failed: "
                          f"{exc.stderr.decode().strip()}", file=sys.stderr)
                    return 2
            write_bundles(Path(tree), out)
            trees.append(Path(tree))
        lines, differs = compare(*outs)
        lines.append(source_line_counts(*trees))
    print("\n".join(lines))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
