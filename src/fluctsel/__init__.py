"""Numerical toolkit for selection-mutation dynamics under periodic forcing.

Simulates a phenotype-structured population with mutation (diffusion in
trait space), quadratic-type selection oscillating in time, and logistic
saturation by the total population size, and verifies the small-mutation
asymptotics (concentration at the averaged optimum, Gaussian-type moment
expansions, persistence threshold of the principal periodic eigenvalue)
against direct simulation.
"""

from .cli_io import (ResultBundle, RunConfig, __version__,
                     config_from_manifest, emit_bundle, parse_config,
                     run_experiment)
from .asymptotics import (Corrector, FitnessComparison, LimitProfile,
                          MomentReport, corrector, fitness_comparison,
                          gaussian_moment_expansion, hopf_cole, limit_profile,
                          mean_fitness, measure_moments, predict_moments,
                          stationary_constant_env)
from .env_models import (EnvironmentModel, HypothesisReport, averaged_optimum,
                         check_hypotheses, load_tabulated, locate_optimum,
                         make_custom, make_oscillating_optimum,
                         make_oscillating_pressure, make_tabulated, mean_growth,
                         rate_table)
from .errors import (ConfigError, ConvergenceError, ExtinctionError,
                     FluctselError, NumericalError)
from .floquet import (EffectiveSignal, FloquetPair, effective_signals,
                      lambda_identity_residual, orbit_bounds,
                      principal_eigenpair, radius_sweep)
from .no_mutation import (ConcentrationMetrics, ExponentState,
                          concentration_metrics, reconstruct_density,
                          simulate_sigma0)
from .pde_solver import (DensityField, OrbitRecord, SimulationGrid,
                         default_orbit_guess, find_periodic_orbit,
                         orbit_from_pair, simulate, total_mass)
from .rho_ode import (PeriodicScalarSignal, RhoOrbit, integrate_logistic,
                      periodic_rho_closed_form)

__all__ = [name for name in dir() if not name.startswith("_")]
