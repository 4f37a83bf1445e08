"""Tests of the benchmark's own logic; run with ``python -m pytest bench``."""

import json
import os
import sys

import check
import run
import spans


def _span(i, name, start, end, parent, **extra):
    return dict({"id": i, "name": name, "run": "r", "parent": parent,
                 "start": start, "end": end}, **extra)


# run_experiment [0, 10]
#   find_periodic_orbit [1, 4]            (2 periods)
#   fitness_comparison [5, 9]
#     measure_moments [6, 7]
#     rate aggregate: 3 calls, 0.5 s busy
TREE = [
    _span(0, "cli_io.run_experiment", 0.0, 10.0, None),
    _span(1, "pde_solver.find_periodic_orbit", 1.0, 4.0, 0, periods=2),
    _span(2, "asymptotics.fitness_comparison", 5.0, 9.0, 0),
    _span(3, "asymptotics.measure_moments", 6.0, 7.0, 2),
    _span(4, spans.RATE, 7.0, 8.5, 2, calls=3, busy=0.5),
]


def test_self_times_subtract_direct_children():
    selfs = spans.self_times(TREE)
    assert selfs == {0: 3.0, 1: 3.0, 2: 2.5, 3: 1.0, 4: 0.5}
    # self times partition the root span
    assert sum(selfs.values()) == 10.0


def test_layer_metrics_on_synthetic_tree():
    m = spans.layer_metrics(TREE)
    assert m["cli_io.run_experiment.self_s"] == 3.0
    assert m["pde_solver.find_periodic_orbit.s"] == 3.0
    assert m["pde_solver.orbit_periods"] == 2
    assert m["pde_solver.period_map_ms"] == 1500.0
    assert m["asymptotics.fitness_comparison.self_s"] == 2.5
    assert m["asymptotics.measure_moments.s"] == 1.0
    assert m["env_models.rate.calls"] == 3
    assert m["env_models.rate.s"] == 0.5
    # a layer that did not run reads 0, with no division by zero
    assert m["floquet.principal_eigenpair.s"] == 0.0
    assert m["floquet.period_map_ms"] == 0.0
    assert m["trace.self_sum_s"] == 10.0
    names = {name for name, _ in spans.PER_LAYER}
    assert set(m) == names - {"trace.wall_s", "trace.overhead_s"}


def test_tracer_nests_spans_and_folds_rate_calls():
    tracer = spans.Tracer("run-x")
    rate = tracer.wrap_rate(lambda t, x: t + x)
    inner = tracer.wrap("floquet.inner", lambda: rate(1, 2) + rate(3, 4))
    outer = tracer.wrap("cli_io.outer", lambda: inner() + rate(0, 0))
    assert outer() == 10
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span["name"], []).append(span)
    (o,), (i,) = by_name["cli_io.outer"], by_name["floquet.inner"]
    assert o["parent"] is None and i["parent"] == o["id"]
    aggs = {s["parent"]: s["calls"] for s in by_name[spans.RATE]}
    assert aggs == {i["id"]: 2, o["id"]: 1}
    assert all(s["run"] == "run-x" for s in tracer.spans)
    selfs = spans.self_times(tracer.spans)
    assert abs(sum(selfs.values()) - spans.duration(o)) < 1e-12


def test_reference_summaries_pass_their_own_check():
    for workload in run.WORKLOADS:
        ref = check.load_reference(workload)
        assert check.check_summary(workload, ref, ref) == []


def test_check_rejects_perturbed_summaries():
    ref = check.load_reference("ex2-fitness")
    shifted = dict(ref, periodic_rho_mean=ref["periodic_rho_mean"] * 1.01)
    assert check.check_summary("ex2-fitness", shifted, ref)
    flipped = dict(ref, periodic_rho_below_frozen=False)
    assert check.check_summary("ex2-fitness", flipped, ref)
    off = dict(ref, t_star=0.51)
    assert check.check_summary("ex2-fitness", off, ref)

    ref = check.load_reference("ex1-moments")
    gap = dict(ref, rho_mean_gap=0.02)
    assert any("rho_mean_gap" in p
               for p in check.check_summary("ex1-moments", gap, ref))
    missing = {k: v for k, v in ref.items() if k != "variance_mean_simulated"}
    assert check.check_summary("ex1-moments", missing, ref)

    ref = check.load_reference("sigma0-logistic")
    slow = dict(ref, final_period_gap_from_low=2e-6)
    assert check.check_summary("sigma0-logistic", slow, ref)
    nan = dict(ref, orbit_mean=float("nan"))
    assert check.check_summary("sigma0-logistic", nan, ref)
    # within tolerance: an O(dt)-sized shift of a primary quantity
    small = dict(ref, orbit_mean=ref["orbit_mean"] * (1 + 5e-4))
    assert check.check_summary("sigma0-logistic", small, ref) == []


# Stands in for bench/child.py: argv is [out_dir, mode]. Mode "ok" writes a
# passing report and the reference summary, "crash" raises, "hang" sleeps.
FAKE_CHILD = r"""
import json, os, shutil, sys, time
out, mode, reference = sys.argv[1:4]
os.makedirs(out, exist_ok=True)
if mode == "crash":
    raise RuntimeError("boom")
if mode == "hang":
    time.sleep(60)
report = {"t_enter": time.monotonic(), "wall_s": 0.01, "cpu_s": 0.01,
          "peak_rss_mb": 1.0}
shutil.copy(reference, os.path.join(out, "summary.json"))
with open(os.path.join(out, "child.json"), "w") as fh:
    json.dump(report, fh)
"""


def _fake(modes, then="ok", setup="ok"):
    """argv_for whose successive full runs behave as modes, then as then;
    set-up-only children behave as setup."""
    modes = list(modes)

    def argv_for(experiment, out_dir, setup_only=False, trace=None):
        if setup_only:
            mode = setup
        else:
            mode = modes.pop(0) if modes else then
        reference = os.path.join(check.REFERENCE_DIR, "ex1-moments.json")
        return [sys.executable, "-c", FAKE_CHILD, out_dir, mode, reference]

    return argv_for


def test_crashing_child_counts_as_failed_and_loop_continues(tmp_path):
    result = run.measure("ex1-moments", 1.0, False, str(tmp_path),
                         argv_for=_fake(["crash"]))
    assert result["attempted"] >= 2
    assert result["failed"] == 1
    assert "RuntimeError" in result["problems"][0]
    assert len(result["samples"]["wall_s"]) == result["attempted"] - 1
    metrics = run.summarise(result, trace=False)
    assert metrics["ok_frac"]["value"] == (
        (result["attempted"] - 1) / result["attempted"])


def test_every_child_crashing_still_gives_a_result_line(tmp_path):
    result = run.measure("ex1-moments", 1.0, False, str(tmp_path),
                         argv_for=_fake([], then="crash", setup="crash"))
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert "warmup" in result["problems"][0]
    metrics = run.summarise(result, trace=False)
    assert set(metrics) == {"ok_frac"}
    record = {"trace": False, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics,
              "missing": ["wall_s", "setup_s", "peak_rss_mb"]}
    line = run.result_line(record)
    assert line["correct"] is False
    assert line["metrics"] == {"ok_frac": {"value": 0.0, "unit": "fraction"}}
    json.dumps(line)


def test_hanging_warmup_still_attempts_one_run(tmp_path):
    result = run.measure("ex1-moments", 1.0, False, str(tmp_path),
                         argv_for=_fake([], setup="hang"), budget_s=2.0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert result["problems"][0].startswith("warmup: timed out")


def test_hanging_child_is_killed_and_counted(tmp_path):
    result = run.measure("ex1-moments", 0.0, False, str(tmp_path),
                         argv_for=_fake(["hang"]), budget_s=3.0)
    assert (result["attempted"], result["failed"]) == (1, 1)
    assert "timed out" in result["problems"][0]


def test_failed_output_check_counts_as_failed(tmp_path):
    # a passing child whose summary is ex1's, checked as ex2: wrong output
    result = run.measure("ex2-fitness", 0.0, False, str(tmp_path),
                         argv_for=_fake([]))
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_benchmark_json_names_what_the_harness_reports():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        spans.PER_LAYER)
