"""One benchmark run: a fresh process runs one fluctsel experiment.

    python3 bench/child.py EXPERIMENT OUT_DIR [--setup-only] [--trace RUN_ID]

Needs ``src`` on PYTHONPATH. It resolves the experiment's built-in default
config, runs ``run_experiment`` and ``emit_bundle`` into OUT_DIR, and writes
``OUT_DIR/child.json`` with

- ``t_enter``: ``time.monotonic()`` just before ``run_experiment`` (on Linux
  the clock is shared by all processes, so the parent subtracts its spawn
  time from it to get the set-up time);
- ``wall_s``: ``run_experiment`` plus ``emit_bundle``;
- ``cpu_s``: the CPU time (user + system) of the same section;
- ``peak_rss_mb``: this process's peak resident memory;
- ``versions``: Python, numpy, scipy and the BLAS numpy was built against.

``--setup-only`` stops at ``t_enter``. ``--trace RUN_ID`` wraps the layers
(see spans.py) after the config is resolved and writes ``OUT_DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def _versions() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError, ValueError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("experiment")
    parser.add_argument("out_dir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", metavar="RUN_ID")
    args = parser.parse_args(argv)

    from fluctsel import cli_io

    cfg = cli_io.resolve_config(
        cli_io.RunConfig(experiment=args.experiment, out_dir=args.out_dir))
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(args.trace)
        spans.install(tracer)
    report = {"t_enter": time.monotonic()}
    if not args.setup_only:
        start, cpu_start = time.perf_counter(), time.process_time()
        bundle = cli_io.run_experiment(cfg)
        cli_io.emit_bundle(bundle, args.out_dir)
        report["wall_s"] = time.perf_counter() - start
        report["cpu_s"] = time.process_time() - cpu_start
        report["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    os.makedirs(args.out_dir, exist_ok=True)
    if tracer is not None:
        with open(os.path.join(args.out_dir, "spans.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    report["versions"] = _versions()
    with open(os.path.join(args.out_dir, "child.json"), "w",
              encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
