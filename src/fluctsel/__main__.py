"""``python -m fluctsel <experiment> ...`` runs the command line."""
from .cli_io import main
raise SystemExit(main())
