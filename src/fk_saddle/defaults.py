"""Central table of numerical tolerances and run defaults.

Every threshold used by the solvers, the property suite, and the CLI lives
here so that the test suite and the library agree on a single source of truth.
"""

# --- stationarity / convergence -------------------------------------------
STATIONARITY_TOL = 1e-10      # l2 residual at which a field counts as stationary
ENERGY_INCREASE_TOL = 1e-10   # largest admissible energy increase per flow step
MAX_FLOW_STEPS = 400_000      # hard cap on integrator steps per flow
MAX_DT_HALVINGS = 20

# --- field bookkeeping ------------------------------------------------------
DEDUP_TOL = 1e-6              # l-inf distance below which two limits are one orbit
SHIFT_PERIODICITY_TOL = 1e-12 # (S1) check: |s(u+1) - s(u)| <= tol * (1 + |s(u)|)
STRICT_ORDER_TOL = 1e-12      # slack when asserting strict sitewise inequalities
COMPARE_TOL = 1e-9            # slack for sitewise <=, >= classifications

# --- derivatives ------------------------------------------------------------
FD_STEP = 1e-6                # centered-difference step for derivative checks
FD_REL_TOL = 1e-6             # required agreement of analytic vs FD derivatives

# --- path / minimax engine ---------------------------------------------------
REPARAM_EVERY = 10            # node sweeps between arc-length reparametrizations
PLATEAU_WINDOW = 50           # consecutive sweeps below PLATEAU_TOL to stop
PLATEAU_TOL = 1e-12
MAX_SWEEPS = 200_000
NODE_CAP = 257                # ceiling for the default node-count rule

# --- gap detection ------------------------------------------------------------
GAP_PROBES = 7                # interior convex combinations probed per candidate
MINIMIZER_ENERGY_MARGIN = 1e-6  # above c0p, a stationary limit is not a minimizer

# --- strip / heteroclinic ------------------------------------------------------
WINDOW_START = 20
WINDOW_CAP = 640
TAIL_BOUND_TOL = 1e-10        # L * C(r) * (tail l1 mass) must fall below this

# --- verification suite ---------------------------------------------------------
SUBMODULARITY_TOL = 1e-10
CLIP_ENERGY_TOL = 1e-10
BOX_INVARIANCE_TOL = 1e-10
SCALING_TOL = 1e-8            # |c0p - prod(p) c0| <= SCALING_TOL * prod(p)
CROSS_CHECK_TOL = 1e-3        # node-flow vs heat-flow vs bottleneck oracle
ORACLE_RESOLUTION = 2001

# --- CLI output -------------------------------------------------------------------
CSV_FLOAT_FORMAT = "%.16e"    # 17 significant digits


def default_node_count(periods) -> int:
    """Path discretization rule: 16 * prod(p) + 1, capped at NODE_CAP."""
    cells = 1
    for p in periods:
        cells *= p
    return min(16 * cells + 1, NODE_CAP)
