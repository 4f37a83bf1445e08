"""fluctsel benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is used from ``src``
(it need not be installed). The load is a closed loop with one client: one
fresh Python process per run, started one after another. Each process runs
``resolve_config``, ``run_experiment`` and ``emit_bundle`` for one experiment
at its built-in defaults, with BLAS/OpenMP pinned to one thread.

``--trace 0`` reports the end-to-end metrics from untraced runs: the
medians of ``wall_s``, ``setup_s`` and ``peak_rss_mb`` and ``ok_frac``, the
share of runs that exited 0 and passed the output check (check.py).
``--trace 1`` alternates untraced and traced runs and reports the per-layer
metrics of spans.py from the traced ones, with the tracing overhead. Runs
are started while the next one is expected to end within ``--seconds``;
at least one always runs.

The inputs are the experiments' fixed default configs and fluctsel has no
randomness, so ``--seed`` changes nothing; it is recorded only.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. It is printed even
when every run failed; ``correct`` is then false, a metric without a sample
is left out and the exit code is 1. Every sample, the quartiles and the
machine record go to ``bench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import check
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, ".work")
CHILD = os.path.join(BENCH, "child.py")

WORKLOADS = {
    "ex1-moments": "example1",
    "ex2-fitness": "example2",
    "sigma0-logistic": "sigma0-convergence",
}

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
)
# Printed and stored with the end-to-end metrics but not in the result line:
# the CPU time of the timed section, to tell preemption from slower code.
RECORDED = (("cpu_s", "s"),)

# BLAS/OpenMP thread pools in the child; the box has 2 cores and the parent
# waits while the child runs.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}

# Set-up-only children per untraced invocation. One runs before the first
# full run and one after each, so they sample the whole window; the idle time
# after the last full run is filled with up to FILL_PROBES more. setup_s is
# the median over them and the set-up of every untraced full run.
FILL_PROBES = 8
# Every child is killed at this many seconds after the invocation starts.
BUDGET_S = 170.0

SEED_NOTE = ("inputs are the experiments' built-in default configs and "
             "fluctsel has no randomness, so the seed changes nothing")


def child_argv(experiment, out_dir, setup_only=False, trace=None) -> list:
    argv = [sys.executable, CHILD, experiment, out_dir]
    if setup_only:
        argv.append("--setup-only")
    if trace:
        argv += ["--trace", trace]
    return argv


def _child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return env


def run_child(argv: list, out_dir: str, timeout: float):
    """Run one child to completion or until timeout.

    Returns (report, "") with the child's report and its setup_s, or
    (None, reason) when it timed out, exited non-zero or wrote no report.
    """
    os.makedirs(out_dir, exist_ok=True)
    err_path = os.path.join(out_dir, "stderr.txt")
    with open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            code = proc.wait(timeout=max(timeout, 0.0))
        except subprocess.TimeoutExpired:
            return None, f"timed out after {timeout:.0f} s"
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0:
        with open(err_path, encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-400:].strip().replace("\n", " | ")
        return None, f"exit code {code}: {tail}"
    try:
        with open(os.path.join(out_dir, "child.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        report["setup_s"] = report["t_enter"] - t_spawn
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, f"no usable child.json: {exc!r}"
    return report, ""


def _check_output(workload: str, out_dir: str, reference: dict) -> list:
    try:
        with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"no usable summary.json: {exc!r}"]
    return check.check_summary(workload, summary, reference)


def measure(workload: str, seconds: float, trace: bool, work: str,
            argv_for=child_argv, budget_s: float = BUDGET_S) -> dict:
    """Run the closed loop for one workload; failures are counted, not raised.

    At least one full run is always attempted. Returns attempted, failed,
    problems, the child versions and the samples of every metric.
    """
    experiment = WORKLOADS[workload]
    reference = check.load_reference(workload)
    start = time.monotonic()
    deadline = start + budget_s
    result = {"attempted": 0, "failed": 0, "problems": [], "versions": None,
              "samples": defaultdict(list)}
    samples = result["samples"]

    def launch(tag, **flags):
        out = os.path.join(work, tag)
        report, problem = run_child(argv_for(experiment, out, **flags), out,
                                    deadline - time.monotonic())
        if report is not None:
            result["versions"] = report.get("versions", result["versions"])
        return out, report, problem

    def probe(tag):
        """One set-up-only child; returns how long it took."""
        t0 = time.monotonic()
        out, report, problem = launch(tag, setup_only=True)
        shutil.rmtree(out, ignore_errors=True)
        if report is not None:
            samples["setup_s"].append(report["setup_s"])
        else:
            result["problems"].append(f"{tag}: {problem}")
        return time.monotonic() - t0

    def full_run(tag, traced):
        result["attempted"] += 1
        out, report, problem = launch(tag, trace=tag if traced else None)
        problems = [problem] if report is None else _check_output(
            workload, out, reference)
        if problems:
            result["failed"] += 1
            result["problems"] += [f"{tag}: {p}" for p in problems]
        elif traced:
            with open(os.path.join(out, "spans.json"), encoding="utf-8") as fh:
                run_spans = json.load(fh)
            shutil.copy(os.path.join(out, "spans.json"),
                        os.path.join(work, f"spans-{tag}.json"))
            samples["trace.wall_s"].append(report["wall_s"])
            for name, value in spans.layer_metrics(run_spans).items():
                samples[name].append(value)
        else:
            for name in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s"):
                samples[name].append(report[name])
        shutil.rmtree(out, ignore_errors=True)

    # Fills the bytecode and file caches, which users have warm; not timed.
    out, _, problem = launch("warmup", setup_only=True)
    shutil.rmtree(out, ignore_errors=True)
    if problem:
        result["problems"].append(f"warmup: {problem}")
    probe_s = probe("setup0") if not trace else 0.0
    k = 0
    while True:
        t0 = time.monotonic()
        full_run(f"run{k}", traced=False)
        if trace:
            full_run(f"run{k}-traced", traced=True)
        if not trace and time.monotonic() < deadline:
            probe_s = probe(f"setup{k + 1}")
        k += 1
        now = time.monotonic()
        if now - start + (now - t0) > seconds or now >= deadline:
            break
    for i in range(FILL_PROBES if not trace else 0):
        now = time.monotonic()
        if now - start + probe_s > seconds or now >= deadline:
            break
        probe_s = probe(f"fill{i}")
    return result


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summarise(result: dict, trace: bool) -> dict:
    """Metric name -> {value, unit, q1, q3, n} for every metric that has a
    sample; a metric of which every run failed is left out."""
    samples = result["samples"]
    out = {}
    if trace:
        if samples["wall_s"] and samples["trace.wall_s"]:
            samples["trace.overhead_s"] = [
                statistics.median(samples["trace.wall_s"])
                - statistics.median(samples["wall_s"])]
        wanted = spans.PER_LAYER
    else:
        samples["ok_frac"] = [
            (result["attempted"] - result["failed"]) / result["attempted"]]
        wanted = END_TO_END + RECORDED
    for name, unit in wanted:
        if samples.get(name):
            q1, med, q3 = quartiles(samples[name])
            out[name] = {"value": med, "unit": unit, "q1": q1, "q3": q3,
                         "n": len(samples[name])}
    return out


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git() -> dict:
    """Commit and dirtiness of ROOT when it is the top of a git checkout."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=20)

    try:
        top = git("rev-parse", "--show-toplevel")
        if (top.returncode != 0 or os.path.realpath(top.stdout.strip())
                != os.path.realpath(ROOT)):
            return {"commit": None, "dirty": None, "note": "not a git checkout"}
        commit = git("rev-parse", "HEAD").stdout.strip()
        status = git("status", "--porcelain", "--untracked-files=no")
        return {"commit": commit, "dirty": bool(status.stdout.strip()),
                "note": "dirty counts modified tracked files only"}
    except (OSError, subprocess.SubprocessError) as exc:
        return {"commit": None, "dirty": None, "note": f"git failed: {exc!r}"}


def environment(versions) -> dict:
    """The machine and software a result was measured on."""
    usable = (len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else None)
    return {"nproc": os.cpu_count(), "usable_cpus": usable,
            "cpu_model": _cpu_model(), "platform": platform.platform(),
            "child_versions": versions, "child_thread_env": THREAD_ENV,
            "git": _git()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload and return its full result record."""
    work = os.path.join(WORK, f"{workload}-seed{seed}-trace{int(trace)}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    result = measure(workload, seconds, trace, work)
    record = {
        "workload": workload, "experiment": WORKLOADS[workload],
        "seed": seed, "seed_note": SEED_NOTE, "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, one fresh process per run, sequential",
        "attempted": result["attempted"], "failed": result["failed"],
        "problems": result["problems"],
        "samples": dict(result["samples"]),
        "environment": environment(result["versions"]),
    }
    record["metrics"] = summarise(result, trace)
    wanted = spans.PER_LAYER if trace else END_TO_END
    record["missing"] = [n for n, _ in wanted if n not in record["metrics"]]
    record["problems"] += [f"no sample of {n}" for n in record["missing"]]
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    path = os.path.join(WORK, "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_metrics(record: dict) -> None:
    for name, m in record["metrics"].items():
        print(f"{record['workload']:16s} {name:44s} {m['value']:12.6g} "
              f"{m['unit']:8s} median of n={m['n']}, "
              f"quartiles {m['q1']:.6g} .. {m['q3']:.6g}")


def result_line(record: dict) -> dict:
    """The JSON object of the last output line. A metric of which every
    run failed is left out, and then the result is not correct."""
    names = {n for n, _ in (spans.PER_LAYER if record["trace"] else END_TO_END)}
    return {
        "correct": record["failed"] == 0 and not record["missing"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items() if name in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one fluctsel benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fluctsel", "__init__.py")):
        print(f"no fluctsel sources under {os.path.join(ROOT, 'src')}; run "
              "from the root of a source checkout", file=sys.stderr)
        return 2

    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print_metrics(record)
    print("# environment " + json.dumps(record["environment"]))
    print(json.dumps(result_line(record)))
    return 1 if record["missing"] else 0


if __name__ == "__main__":
    sys.exit(main())
