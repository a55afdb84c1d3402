"""Central table of numerical tolerances and run defaults.

Every threshold used by the solvers, the property suite, and the CLI lives
here so that the test suite and the library agree on a single source of truth.
"""

# --- stationarity / convergence -------------------------------------------
STATIONARITY_TOL = 1e-10      # l2 residual at which a field counts as stationary
ENERGY_INCREASE_TOL = 1e-10   # largest admissible energy increase per flow step
MAX_FLOW_STEPS = 400_000      # budget guard on integrator steps per flow (stops are set in flow time)
MAX_DT_HALVINGS = 20
BOX_INTERIOR_TOL = 1e-9       # a site is free (moved and measured by Newton) this far inside (0, hi)
BOX_POLISH_FACTOR = 1e-2      # box_maximize polishes free residuals to this times the flow tolerance
BOX_POLISH_MAX_DROP = 1e-8    # largest energy drop the box polish may cost before it is discarded

# --- field bookkeeping ------------------------------------------------------
DEDUP_TOL = 1e-6              # l-inf distance below which two limits are one orbit
SHIFT_PERIODICITY_TOL = 1e-12 # (S1) check: |s(u+1) - s(u)| <= tol * (1 + |s(u)|)
STRICT_ORDER_TOL = 1e-12      # slack when asserting strict sitewise inequalities
COMPARE_TOL = 1e-9            # slack for sitewise <=, >= classifications

# --- derivatives ------------------------------------------------------------
FD_STEP = 1e-6                # centered-difference step for derivative checks
FD_REL_TOL = 1e-6             # required agreement of analytic vs FD derivatives

# --- path / minimax engine ---------------------------------------------------
# The string's controls are flow times, so its stops do not depend on the step
# dt: a cycle is max(1, round(REPARAM_TIME / dt)) sweeps, which at the built-in
# models' Gershgorin step (dt > REPARAM_TIME) means a reparametrization after
# every sweep.
REPARAM_TIME = 5e-3           # flow time between arc-length reparametrizations
PLATEAU_TIME = 0.025          # flow time the string max must stay flat before a stalled string stops
PLATEAU_TOL = 1e-12           # flat: the string max moves less than this per REPARAM_TIME of flow
REFINE_TRIGGER = 1e-8         # Newton refines the top node once the string max moves less per REPARAM_TIME
MAX_SWEEPS = 200_000          # budget guard on node sweeps per string and on steps per classify flow
HEAT_SETTLE_TOL = 1e-8        # heat-flow: l2 residual at which the chain or a classify flow has settled
HEAT_SETTLE_TIME = 10.0       # heat-flow: flow time allowed for the whole chain to settle
HEAT_CLASSIFY_TIME = 80.0     # heat-flow: flow time allowed for one state to reach its basin
BASIN_MATCH_TOL = 1e-4        # heat-flow: l-inf distance at which a state joins a basin representative
MAX_BISECTIONS = 80           # heat-flow: bisections of the initial path per tear
CLASSIFY_CHECK_TIME = 0.01    # heat-flow: flow time between basin-membership checks
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
