"""Output check for one benchmark run: the paper's bounds plus a reference.

A run passes when its ``summary.json``

1. meets the acceptance gate's bounds for its experiment (c08 for
   ``ex1-moments``, c09 for ``ex2-fitness``, c01/c03 for
   ``sigma0-logistic``), and
2. agrees with the summary recorded at the commit that defined the
   benchmark (``reference/<workload>.json``): every boolean exactly, and the
   primary quantities listed in REFERENCE_KEYS to a relative RTOL.

Why RTOL = 2e-3: the workloads run at dt = 1/2048 of a period (ex1, ex2),
so a change of the time scheme at O(dt) with a unit constant moves a
quantity by about 5e-4 relative; the Floquet-first orbit planned next moves
rho(0) by 1.5e-5. 2e-3 leaves room for both and still catches a wrong model,
a changed default or a broken solver, which move these quantities by
percents. Error and gap entries (``*_rel_err``, ``*_gap``) are differences
of the primary quantities and are held by the gates, not by the reference.
"""

from __future__ import annotations

import json
import math
import os

RTOL = 2e-3
# absolute floor, for quantities whose reference value is zero up to roundoff
ATOL = 1e-9

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

# (key, op, bound); op "<" is a strict upper bound, "~" means within 1e-3
# (c09's pytest.approx(0.5, abs=1e-3)), "is" an exact value.
GATES = {
    "ex1-moments": (
        ("mean_amplitude_rel_err", "<", 0.15),
        ("variance_rel_err", "<", 0.10),
        # 5 eps^2 at the default eps = 0.05, which the reference pins
        ("rho_mean_gap", "<", 5.0 * 0.05 ** 2),
    ),
    "ex2-fitness": (
        ("t_star", "~", 0.5),
        ("periodic_fitness_exceeds_frozen", "is", True),
        ("periodic_variance_below_frozen", "is", True),
        ("periodic_rho_below_frozen", "is", True),
    ),
    "sigma0-logistic": (
        ("final_period_gap_from_low", "<", 1e-6),
        ("final_period_gap_from_high", "<", 1e-6),
        ("mass_outside_window", "<", 1e-2),
        ("rho_gap_final_period", "<", 1e-2),
    ),
}

REFERENCE_KEYS = {
    "ex1-moments": (
        "eps", "mean_amplitude_simulated", "mean_amplitude_predicted",
        "variance_mean_simulated", "variance_mean_predicted",
        "rho_mean_simulated", "rho_mean_predicted"),
    "ex2-fitness": (
        "eps", "t_star", "periodic_fitness_at_t_star", "periodic_fitness_mean",
        "periodic_rho_mean", "periodic_variance_mean", "frozen_fitness",
        "frozen_rho", "frozen_variance"),
    "sigma0-logistic": (
        "orbit_mean", "mean_final", "variance_final", "mass_outside_window"),
}


def load_reference(workload: str) -> dict:
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def _gate_ok(value, op, bound) -> bool:
    if op == "is":
        return value is bound
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    if op == "<":
        return value < bound
    return abs(value - bound) <= 1e-3


def check_summary(workload: str, summary: dict, reference: dict) -> list[str]:
    """Every way summary fails the check; an empty list means it passes."""
    problems = []
    for key, op, bound in GATES[workload]:
        if key not in summary:
            problems.append(f"{key} missing")
        elif not _gate_ok(summary[key], op, bound):
            problems.append(f"gate {key} {op} {bound}: got {summary[key]!r}")
    for key, want in reference.items():
        if isinstance(want, bool) and summary.get(key) is not want:
            problems.append(f"{key} = {summary.get(key)!r}, reference {want!r}")
    for key in REFERENCE_KEYS[workload]:
        got, want = summary.get(key), reference[key]
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not math.isfinite(got)
                or abs(got - want) > RTOL * abs(want) + ATOL):
            problems.append(f"{key} = {got!r}, reference {want!r} "
                            f"(rtol {RTOL:g})")
    return problems
