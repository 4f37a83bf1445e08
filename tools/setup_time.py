"""Time the set-up of a fresh fluctsel process from two source trees, phase
by phase.

    python tools/setup_time.py OLD NEW

Each of OLD and NEW is a checkout of this repository, whose src/ is copied
without its __pycache__ folders into a temporary tree, or a git revision of
the repository this script lives in, whose src/ is exported there with
compare_bundles.export_revision; so `python tools/setup_time.py HEAD .`
times the working tree against the last commit, and neither side reads
bytecode that an earlier process left.
A revision that git cannot export exits 2 with git's message. After one
unrecorded warm-up process per tree, the script runs PAIRS alternating
pairs of fresh interpreters (OLD first in even pairs, NEW first in odd
ones). Each imports numpy, then fluctsel from TREE/src, then resolves the
default config of example2, and prints a time.monotonic() stamp after each
step and its peak resident memory (ru_maxrss). On Linux that clock is
shared by all processes, so the stamp of the child's first line minus the
spawn time taken here is the interpreter start. The phases:

- interpreter_ms: spawn to the child's first line;
- numpy_ms, fluctsel_ms, resolve_config_ms: each step;
- total_ms: spawn to the resolved config;
- peak_rss_mb: the child's peak resident memory.

For each phase the script prints the median and quartiles of each side and
the number of pairs in which NEW is lower. Before the timed runs, one more
fresh interpreter per tree lists the modules that `import fluctsel` loads
after numpy; the script prints the count of each tree and the names that
NEW adds or removes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
from compare_bundles import export_revision

PAIRS = 20
PHASES = ("interpreter_ms", "numpy_ms", "fluctsel_ms", "resolve_config_ms",
          "total_ms", "peak_rss_mb")

_CHILD = """
import time
stamps = [time.monotonic()]
import numpy
stamps.append(time.monotonic())
import fluctsel
stamps.append(time.monotonic())
from fluctsel.cli_io import RunConfig, resolve_config
resolve_config(RunConfig(experiment="example2"))
stamps.append(time.monotonic())
import resource
print(*stamps, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""

_MODULES_CHILD = """
import sys
import numpy
before = set(sys.modules)
import fluctsel
print(*sorted(set(sys.modules) - before))
"""


def _child(tree: Path, code: str) -> str:
    """The standard output of a fresh interpreter running code on tree/src."""
    env = {**os.environ, "PYTHONPATH": str(Path(tree).resolve() / "src")}
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


def modules_after_numpy(tree: Path) -> list[str]:
    """The sorted names of the modules that import fluctsel loads after
    numpy, from tree/src in one fresh interpreter."""
    return _child(tree, _MODULES_CHILD).split()


def compare_modules(old: list[str], new: list[str]) -> list[str]:
    """The module count of each side, and the names that only new loads
    (added) or only old loads (removed)."""
    added, removed = sorted(set(new) - set(old)), sorted(set(old) - set(new))
    return [f"modules after numpy: old {len(old)}, new {len(new)}",
            f"added: {' '.join(added) or '-'}",
            f"removed: {' '.join(removed) or '-'}"]


def run_once(tree: Path) -> dict:
    """One fresh interpreter on tree/src; returns each phase's value."""
    spawn = time.monotonic()
    out = _child(tree, _CHILD)
    start, numpy_done, fluctsel_done, resolved, rss = map(float, out.split())
    ms = [1e3 * (b - a) for a, b in ((spawn, start), (start, numpy_done),
                                     (numpy_done, fluctsel_done),
                                     (fluctsel_done, resolved), (spawn, resolved))]
    return dict(zip(PHASES, [*ms, rss]))


def run_pairs(trees: list[Path], run, pairs: int = PAIRS) -> tuple[list, list]:
    """The results of run(tree) for the two trees (old, new): one unrecorded
    warm-up run per tree, then pairs alternating pairs, old first in even
    pairs and new first in odd ones."""
    for tree in trees:
        run(tree)
    runs = ([], [])
    for i in range(pairs):
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            runs[side].append(run(trees[side]))
    return runs


def summarize(old: list[dict], new: list[dict], names=PHASES, label: str = "phase",
              digits: int = 2) -> list[str]:
    """One line per name: median [q1, q3] of each side, to digits decimals,
    and in how many of the pairs (old[i], new[i]) the new value is lower."""
    lines = [f"{label:<18}{'old median [q1, q3]':>30}{'new median [q1, q3]':>30}"
             "  new lower"]
    for name in names:
        sides = [np.array([run[name] for run in runs]) for runs in (old, new)]
        cells = ["{1:.{3}f} [{0:.{3}f}, {2:.{3}f}]".format(
            *np.percentile(v, [25, 50, 75]), digits) for v in sides]
        wins = int(np.sum(sides[1] < sides[0]))
        lines.append(f"{name:<18}{cells[0]:>30}{cells[1]:>30}  {wins}/{len(old)}")
    return lines


def source_trees(args: list[str], repo: Path, work: Path) -> list[Path]:
    """Each argument as a fresh source tree work/<position>: a directory's
    src/ copied without its __pycache__ folders, anything else a git revision
    of repo, whose src/ is exported. So neither side reads bytecode that an
    earlier process left in it, and both compile alike."""
    trees = [work / str(i) for i in range(len(args))]
    for arg, tree in zip(args, trees):
        if Path(arg).is_dir():
            shutil.copytree(Path(arg) / "src", tree / "src",
                            ignore=shutil.ignore_patterns("__pycache__"))
        else:
            export_revision(arg, repo, tree)
    return trees


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as work:
        try:
            trees = source_trees(argv, Path(__file__).resolve().parents[1], Path(work))
        except subprocess.CalledProcessError as exc:
            print(f"not a directory, and git archive failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        print("\n".join(compare_modules(*map(modules_after_numpy, trees))))
        print("\n".join(summarize(*run_pairs(trees, run_once))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
