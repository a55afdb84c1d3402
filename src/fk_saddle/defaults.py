"""Central table of numerical tolerances and run defaults.

Every threshold used by the solvers, the property suite, and the CLI lives
here so that the test suite and the library agree on a single source of truth.
"""

# --- stationarity / convergence -------------------------------------------
STATIONARITY_TOL = 1e-10      # l2 residual at which a field counts as stationary
ENERGY_INCREASE_TOL = 1e-10   # largest admissible energy increase per flow step (more is a FlowError)
FLOW_T_MAX = 200.0            # flow horizon of a run (the default t_max of semiflow.flow)
POLISH_TOL = 1e-13            # Newton finish of a flowed ground state (torus and strip): sup residual
POLISH_MAX_ITER = 30          # ... and its iteration cap
NEWTON_BLOCK_SITES = 24       # Newton's block LU groups whole strip layers into blocks of about this many sites
NEWTON_SOLVE_RTOL = 1e-8      # a Newton step s is accepted only if |H s + g| <= this times |g| (l2)

# --- field bookkeeping ------------------------------------------------------
MAX_TORUS_CELLS = 65536       # largest prod(p) a torus may have
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
REFINE_TRIGGER = 1e-8         # the string starts climbing, and later Newton polishes its top, once its max moves less per REPARAM_TIME
CHAIN_CERT_TOL = 1e-6         # node-flow success: the certified chain maximum is at most d + this
CHAIN_CERT_MAX_STATES = 100_000  # budget guard on the energy states one chain certificate densifies
MAX_SWEEPS = 200_000          # budget guard on node sweeps per string
# Heat-flow quarters each open tear a round and ends one that never resolves at
# width 1e-14, which it reaches within 23 rounds: its rounds need no budget.
HEAT_SETTLE_TOL = 1e-8        # heat-flow: l2 residual at which the chain or a classify flow has settled
HEAT_SETTLE_TIME = 10.0       # heat-flow: flow time allowed for the whole chain to settle
HEAT_CLASSIFY_TIME = 80.0     # heat-flow: flow time allowed for one classified state to reach its basin
BASIN_MATCH_TOL = 1e-4        # heat-flow: l-inf distance at which a state joins a basin representative
CLASSIFY_CHECK_TIME = 0.01    # heat-flow: flow time between basin-membership checks
NODE_CAP = 257                # ceiling for the default node-count rule
WITNESS_NODES = 801           # nodes of a scan row's staircase witness

# --- seeds and gap detection ---------------------------------------------------
MINIMIZE_GRID_SEEDS = 16      # constant minimize seeds j / 16, j = 0..15
MINIMIZE_RANDOM_SEEDS = 4     # uniform random minimize seeds drawn after them
GAP_PROBES = 7                # interior convex combinations probed per candidate
MINIMIZER_ENERGY_MARGIN = 1e-6  # above c0p, a stationary limit is not a minimizer

# --- strip / heteroclinic ------------------------------------------------------
WINDOW_START = 20
WINDOW_CAP = 640
HETERO_SEED_SHIFTS = (0.0, 0.5)  # centres of the default tanh layer seeds
HETERO_SEED_WIDTH = 5.0       # width of the default tanh layer seeds
TAIL_BOUND_TOL = 1e-10        # L * C(r) * (tail l1 mass) must fall below this

# --- verification suite ---------------------------------------------------------
SUBMODULARITY_TOL = 1e-10
CLIP_ENERGY_TOL = 1e-10
BOX_INVARIANCE_TOL = 1e-10
SCALING_TOL = 1e-8            # |c0p - prod(p) c0| <= SCALING_TOL * prod(p)
CROSS_CHECK_TOL = 1e-3        # node-flow vs heat-flow vs bottleneck oracle
ORACLE_RESOLUTION = 2001
ORACLE_BLOCK = 10             # oracle narrow band: cells per block side, bounded at the block centre
ORACLE_BOUND_SLACK = 1e-9     # roundoff slack of a block's Taylor bounds, times 1 + |I(centre)|

# --- CLI output -------------------------------------------------------------------
CSV_FLOAT_FORMAT = "%.16e"    # 17 significant digits


def default_node_count(periods) -> int:
    """Path discretization rule: 16 * prod(p) + 1, capped at NODE_CAP."""
    cells = 1
    for p in periods:
        cells *= p
    return min(16 * cells + 1, NODE_CAP)
