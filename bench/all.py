"""Run every workload untraced and traced and print every metric with its unit.

    python3 bench/all.py [--seed N] [--seconds S] [--out FILE]

Each line names the workload, the metric, its median, unit, sample count
and quartiles, as run.py prints them. ``--out`` also writes the full result
records (samples, problems, machine record) as one JSON file; baseline.json
was written this way. Takes about 3 x 2 x S seconds.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", help="write every result record here")
    args = parser.parse_args(argv)

    records = []
    for workload in run.WORKLOADS:
        for trace in (False, True):
            record = run.run_workload(workload, args.seed, args.seconds, trace)
            records.append(record)
            for problem in record["problems"]:
                print(f"problem: {workload}: {problem}", file=sys.stderr)
            if record["metrics"] is not None:
                run.print_metrics(record)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1)
            fh.write("\n")
    return 0 if all(r["failed"] == 0 and r["metrics"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
