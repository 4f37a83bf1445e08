"""Time one experiment of the benchmark's child from two source trees in
alternating fresh pairs.

    python tools/wall_pairs.py OLD NEW TAG

Each of OLD and NEW is a checkout of this repository, whose src/ is copied
without its __pycache__ folders, or a git revision of the repository this
script lives in, whose src/ is exported, into a temporary tree
(setup_time.source_trees); so `python tools/wall_pairs.py HEAD .
sigma0-convergence` times the working tree against the last commit. A
revision that git cannot export exits 2 with git's message. TAG is an
experiment tag. Each run is a fresh interpreter of this checkout's
bench/child.py TAG, the one harness for both sides, with TREE/src on
PYTHONPATH and BLAS/OpenMP pinned to one thread by bench/run.py's
THREAD_ENV, as the benchmark runs it, writing into its own temporary
directory; the script reads wall_s, cpu_s and peak_rss_mb from its
child.json, and takes setup_s as bench/run.py does: the child's t_enter
minus the spawn time taken here (on Linux time.monotonic() is shared by all
processes). setup+wall_s is their sum, so a cost moved between set-up and
the run shows its net. After one unrecorded warm-up run per tree it runs
PAIRS alternating pairs (OLD first in even pairs, NEW first in odd ones)
and prints, for each metric, the median and quartiles of each side and the
number of pairs in which NEW is lower, with the pairing and summary of
tools/setup_time.py.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from setup_time import run_pairs, source_trees, summarize

METRICS = ("wall_s", "setup_s", "setup+wall_s", "cpu_s", "peak_rss_mb")
_CHECKOUT = Path(__file__).resolve().parents[1]


def thread_env() -> dict:
    """THREAD_ENV of this checkout's bench/run.py, read without importing
    it: the one-thread pins of the benchmark's children."""
    source = (_CHECKOUT / "bench" / "run.py").read_text()
    return next(ast.literal_eval(node.value) for node in ast.parse(source).body
                if isinstance(node, ast.Assign)
                and any(getattr(target, "id", None) == "THREAD_ENV" for target in node.targets))


def run_once(tree: Path, tag: str) -> dict:
    """One fresh run of this checkout's bench/child.py TAG on TREE/src;
    returns each metric's value."""
    env = {**os.environ, **thread_env(), "PYTHONPATH": str(Path(tree).resolve() / "src")}
    with tempfile.TemporaryDirectory() as out:
        spawn = time.monotonic()
        subprocess.run([sys.executable, str(_CHECKOUT / "bench" / "child.py"), tag, out],
                       env=env, check=True, capture_output=True)
        report = json.loads((Path(out) / "child.json").read_text(encoding="utf-8"))
    report["setup_s"] = report["t_enter"] - spawn
    report["setup+wall_s"] = report["setup_s"] + report["wall_s"]
    return {name: report[name] for name in METRICS}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    *args, tag = argv
    with tempfile.TemporaryDirectory() as work:
        try:
            trees = source_trees(args, _CHECKOUT, Path(work))
        except subprocess.CalledProcessError as exc:
            print(f"not a directory, and git archive failed: {exc.stderr.decode().strip()}",
                  file=sys.stderr)
            return 2
        runs = run_pairs(trees, lambda tree: run_once(tree, tag))
    print("\n".join(summarize(*runs, names=METRICS, label="metric", digits=4)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
