"""Stationary states of generalized Frenkel-Kontorova lattices.

Periodic and heteroclinic minimizers, adjacent-pair gaps, and mountain-pass
saddles via the gradient semiflow, string relaxation from a column ramp
with Newton refinement, and explicit staircase witnesses; with an independent bottleneck oracle and a
property suite covering every numerically checkable inequality of the theory.
"""

__version__ = "0.1.0"

from .fields import FkSaddleError, PeriodError, WindowError, validate_periods
from .model import (BUILTIN_MODELS, ClassicalFKPotential, PluginPotential,
                    SitePotential, TwoWellFKPotential, ball_offsets,
                    make_potential, validate_assumptions)
from .semiflow import FlowError, flow, flow_to_stationarity
from .periodic import (GapPair, MinimizeResult, NoGapError, PeriodicSystem,
                       find_gap_pair, minimize_periodic)
from .mpp import (MinimaxResult, best_mountain_pass, box_path, chi_path,
                  intersects, mountain_pass, multiplicity_scan, phi_path)
from .hetero import (HeteroMinimizeResult, StripSystem, asymptotics_report,
                     find_gap_pair_hetero, minimize_hetero, mountain_pass_hetero)
from .verify import (CrossCheckReport, OracleGrid2D, PropertyReport,
                     bottleneck_minimax_2d, cross_check_mountain_pass,
                     run_property_suite, sample_landscape)
from .config import ConfigError, RunConfig, format_config, parse_config
