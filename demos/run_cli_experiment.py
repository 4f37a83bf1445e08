"""Drive the command-line runner from a config file.

Writes a small INI config, runs two experiments through
`python -m fluctsel` (the floquet sweep and the moment comparison), and shows
the files each run leaves behind. Output directories land next to this
script under cli_output/.
"""

import pathlib
import subprocess
import sys

here = pathlib.Path(__file__).resolve().parent
outdir = here / "cli_output"
outdir.mkdir(exist_ok=True)

config = outdir / "sweep.ini"
config.write_text("""\
[model]
kind = oscillating_optimum
r = 1.0
g = 1.0
c = 1.0
b = 6.283185307179586

[solver]
eps = 0.2
steps_per_period = 512
eigen_tol = 1e-8

[experiment]
tag = floquet-sweep
radii = 1.0 1.5 2.0
points_per_unit = 50
""")

for args in (
    [sys.executable, "-m", "fluctsel", "floquet-sweep", "--config", str(config),
     "--out", str(outdir / "sweep")],
    [sys.executable, "-m", "fluctsel", "moments", "--out", str(outdir / "moments"),
     "--override", "solver.eps=0.1", "--override", "grid.nx=400"],
):
    print("$", " ".join(args))
    proc = subprocess.run(args, capture_output=True, text=True)
    sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(proc.returncode)
    print()

print("bundle contents:")
for path in sorted(outdir.rglob("*")):
    if path.is_file() and path != config:
        print(f"  {path.relative_to(outdir)}  ({path.stat().st_size} bytes)")
