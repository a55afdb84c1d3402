"""Stationary states of generalized Frenkel-Kontorova lattices.

Periodic and heteroclinic minimizers, adjacent-pair gaps, and mountain-pass
saddles via the gradient semiflow, string relaxation with Newton refinement,
and explicit staircase paths; with an independent bottleneck oracle and a
property suite covering every numerically checkable inequality of the theory.
"""

__version__ = "0.1.0"

from .fields import (FkSaddleError, PeriodError, StripField, TorusField,
                     WindowError, validate_periods)
from .model import (BUILTIN_MODELS, ClassicalFKPotential, PluginPotential,
                    SitePotential, TwoWellFKPotential, ball_offsets,
                    el_residual, local_energy, make_potential, shift,
                    validate_assumptions)
from .semiflow import FlowError, FlowParams, flow, flow_to_stationarity
from .periodic import (BoxMaxResult, GapPair, MinimizeResult, NoGapError,
                       PeriodicSystem, box_maximize, find_gap_pair, flow_field,
                       gradient, is_birkhoff, minimize_periodic,
                       relative_energy, torus_energy)
from .mpp import (MinimaxResult, ThetaBounds, best_mountain_pass, box_path,
                  build_initial_path, chi_path, clip_to_box, intersects,
                  minimax_over_unconstrained_paths_check, mountain_pass,
                  multiplicity_scan, phi_path, theta_bounds)
from .hetero import (HeteroGapPair, HeteroMinimizeResult,
                     RenormalizationConstants, StripSystem, asymptotics_report,
                     bound_scan_hetero, find_gap_pair_hetero, flow_hetero,
                     minimize_hetero, mountain_pass_hetero, renormalized_energy,
                     strip_norm)
from .verify import (CrossCheckReport, OracleGrid2D, PropertyReport,
                     bottleneck_minimax_2d, cross_check_mountain_pass,
                     run_property_suite, sample_landscape)
from .config import ConfigError, RunConfig, format_config, parse_config
