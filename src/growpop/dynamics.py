"""All-to-all averaging dynamics with scheduled arrivals.

Between arrivals every opinion relaxes toward the others under the coupled
system

    dx_i/dt = (1/N) sum_j psi(|x_j - x_i|) (x_j - x_i),

advanced from each event to the next. At each scheduled time t_k the flow
stops on the instant, one newcomer is appended (existing opinions untouched),
and the flow resumes with N+1 agents. A run is fully deterministic given
(config, seed): fixed update sequence, fixed reduction order, and one draw of
all its arrivals from a generator seeded by the seed.

The engine runs a block of replicas, runs of one config under different
seeds, which share the timeline of grid records and arrivals; a replica's
result does not depend on the block around it, and ``run_simulation`` is a
block of one. The kernel psi = a + b/(1 + r^2) picks one of two engines by
whether b == 0.

At b = 0 the kernel is the constant c = a and the force collapses to
c*(m1 - x_i), so the flow is exact, x_i(t) = m1 + (x_i(s) - m1) e^{-c(t-s)},
and each replica's moments follow from its m1 and nV = n V, the sum of
squared deviations, with no opinion stored:

* a flow span tau: nV <- e^{-2c tau} nV, and m1 stays put;
* an arrival x to a population of n: m1 <- m1 + (x - m1)/(n+1) and
  nV <- nV + g, the jump g = n |x - m1|^2/(n+1) that ``predict_jumps`` states;
* a row's moments: V = nV/n, m2 = V + |m1|^2, W = V + |m1 - m|^2 and
  D = -2cV.

The engine takes these updates for all replicas and arrivals at once, in
whole-array prefix passes over the arrivals. m1 after arrival k is the
founders' mean plus the prefix sum of x_j minus it over j <= k, divided by
n0 + k; the prefix sums are compensated, ``np.cumsum`` plus the prefix sums of
its exact TwoSum errors (Ogita, Rump & Oishi, SIAM J. Sci. Comput. 26, 2005),
so m1 is the exact running mean rounded, 2e4 arrivals away from the founders
included. The jumps follow from m1 before each arrival, and nV after arrival
k is the decayed prefix sum

    nV_k = e^{-2c t_k} (nV(0) + sum over j <= k of g_j e^{2c t_j}),

taken in pieces that span at most 16 of 2c t, each from the nV of the arrival
that begins it: no factor overflows, and the rounding of the factors'
exponents costs at most about 16 eps of relative V. A span longer than a
piece decays nV directly, to 0.0 if it underflows. Every other row decays the
nV of its last arrival. Every term is nonnegative, so no sum cancels, wherever
the population sits. The founders' nV is summed from their offsets from their
mean, pivoted about the first founder, so a population in exact consensus has
V == 0.0 exactly. The tests hold V to 1e-13 relative of the particle engine's,
founders 1000 away from the source included.

The engine checks itself against real opinions. At every grid record it
rebuilds one replica's opinions, taking the block's replicas in turn, and at
the last row every replica's, and runs ``compute_moments`` on them, whose own
self-checks then run too. The exact flow gives the opinions from the
replica's arrivals and its m1: with r_l = e^{-c(t - t_l)} and s_l the jump of
m1 at arrival l, the agent that arrived at l as x_l sits at

    m1(t) + r_l (x_l - m1(t_l-)) - T_l,    T_l = sum over l' >= l of r_l' s_l',

and a founder at m1(t) + e^{-ct} (its offset from the founders' mean) - T_1.
-T_l is how far the mean of the agents present before arrival l now sits from
m1, so |T_l|^2 <= (N/n0) V by Cauchy-Schwarz, and each rebuilt offset is a
difference of terms no larger than |x_i - m1| + sqrt(N V/n0). Rebuilding
therefore costs about eps*sqrt(N/n0) of relative V, plus one rounding of a
partial sum of T per arrival. An m1 that differs from the recursion's by more
than 1e-12 max(1, max |x|), or a V by more than 1e-12 relative with a floor of
1e-15 max(1, m2), raises, as does a non-finite moment; either error names the
replica.

A kernel with b > 0 runs on the opinions themselves, replica after replica, in
one coordinate-major buffer (d, N) of the final population: each arrival is
written into the next free column, and the (d, n) prefix of the agents
present is advanced in place between events by classical Runge-Kutta 4 at a
fixed step, the last one shortened to land exactly on the endpoint. Every
O(N) sweep, of the force pass and of a row's moments, so runs along
contiguous rows of length n; each sum over agents runs along a row or over a
fresh array, so the prefix view gives the bits of a contiguous copy. The
step is step_max, capped at RK4's real-axis stability limit for the
kernel's certified psi_max. Every RK4 stage is one pass of ``kernels._force``,
which gives the velocities and the dissipation D together. A run, like every
other entry point that makes passes, runs them on one BLAS thread.
Simpson's rule over the stages gives each step's integral of D, which every
run records (``d_integral``): the witness of the energy balance d(m2)/dt = D
between arrivals. At b = 0 the integral is closed form, from the V column.

Each row's D comes from one pass at its opinions, which the next span then
takes as its first stage, k1, so the pass costs nothing extra. A pre/post pair
takes both values from the pass at the post-jump opinions: D_post is its
D, and D_pre comes from the old population's own row sums and W y, summed
over their block of each tile, not from D_post less the newcomer's terms,
which would cancel as the population tightens. ``dissipation_of`` is the D of
the same pass, so each row's D equals ``dissipation_of`` of the row's opinions
bit for bit.

``rhs`` and ``integrate_interval``, the public step API, and
``observables.compute_moments``, which takes opinions and their time, take
opinions (N, d) and transpose at the boundary, one O(N) copy per call.
``integrate_interval`` alone holds the exact flow at b = 0, one O(N) update:
not a second engine for runs, but the particle reference that the tests
replay a run through and compare the recursion against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _coordinate_major, _force, _one_blas_thread, _towards_mean
from .observables import MomentSeries, _moments, compute_moments
from .schedules import GrowthSchedule, _integer, _number, _times, injection_time, population_at
from .sources import OpinionSource, _draw_incoming

__all__ = [
    "SimState",
    "SimConfig",
    "rhs",
    "integrate_interval",
    "run_simulation",
    "uniform_record_grid",
    "geometric_record_grid",
]

# Classical RK4 is stable for h * lambda on the real interval [-2.785, 0]
# (Hairer & Wanner, Solving ODEs II, Sec. IV.2). The force's Jacobian is
# symmetric with spectral radius at most 2 * psi_max (block Gershgorin), so
# steps of up to this over 2 * psi_max keep every mode decaying.
_RK4_REAL_STABILITY = 2.785

# Slack when matching a record time against an arrival time.
_TIME_TOL = 1e-12

# The exact engine's audit (b = 0): V of the rebuilt opinions against the
# recursion's, relative, with an absolute floor relative to max(1, m2); m1
# against the recursion's, relative to max(1, max |x|).
_AUDIT_RTOL = 1e-12
_AUDIT_ATOL = 1e-15

# The longest stretch of 2c t one piece of the exact engine's prefix pass
# spans: its factors e^{2c (t_j - t_lo)} stay below e^16, and the rounding of
# their exponents below 16 eps relative.
_PIECE = 16.0


@dataclass(eq=False)
class SimState:
    """Population snapshot: time, arrivals applied so far, opinions (N, d)."""

    t: float
    k: int
    opinions: np.ndarray
    dim: int


def rhs(state: SimState, kernel: Kernel) -> np.ndarray:
    """Instantaneous opinion velocities, shape (N, d), of one ``kernels._force``
    pass: each pair's weight is used both ways, so they sum to zero in exact
    arithmetic, and exact consensus gives exactly zero."""
    with _one_blas_thread():
        return _force(_coordinate_major(state.opinions), kernel)[0].T


def _rk4_step(x: np.ndarray, kernel: Kernel, h: float, first=None) -> float:
    """Advance opinions x (d, N) in place by one RK4 step; returns the step's
    integral of D, its four stage values weighted by Simpson's rule.
    ``first``, the ``_force`` pass at x if the caller has made it, is the k1
    stage."""
    k1, d1, _ = _force(x, kernel) if first is None else first
    k2, d2, _ = _force(x + (0.5 * h) * k1, kernel)
    k3, d3, _ = _force(x + (0.5 * h) * k2, kernel)
    k4, d4, _ = _force(x + h * k3, kernel)
    x += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


def _advance(x: np.ndarray, kernel: Kernel, span: float, step_max: float,
             first=None) -> float:
    """Advances opinions x (d, N) in place by RK4 steps over span >= 0 under a
    kernel with b > 0, and returns the steps' integral of D over it.
    ``first``, the ``_force`` pass at x if the caller has made it, is the
    first step's k1 stage.
    """
    if not span > 0.0:
        return 0.0
    # a span below h is one step of that span: n_full = 0 and rem = span
    h = min(step_max, _RK4_REAL_STABILITY / (2.0 * kernel.psi_max))
    n_full = int(math.floor(span / h))
    rem = span - n_full * h
    if rem > h:  # floor slipped by one ulp
        n_full += 1
        rem = span - n_full * h
    steps = [h] * n_full + ([rem] if rem > 0.0 else [])
    q = _rk4_step(x, kernel, steps[0], first)
    for step in steps[1:]:
        q += _rk4_step(x, kernel, step)
    return q


def integrate_interval(state: SimState, kernel: Kernel, t_end: float,
                       step_max: float = 1e-2) -> SimState:
    """The state at t_end, reached by the flow from state.t with no arrivals
    inside; ``state`` is not changed.

    At b = 0, the constant kernel psi = a, the state takes the exact flow in
    one update, and step_max does not enter. A kernel with b > 0 takes RK4
    steps of step_max, capped at RK4's real-axis stability limit
    2.785 / (2 psi_max), with the final one shortened to land exactly on
    t_end. A t_end before state.t raises ValueError.
    """
    step_max, t_end = _number(step_max, "step_max", "> 0"), _number(t_end, "t_end")
    if t_end < state.t:
        raise ValueError(f"t_end = {t_end} precedes state.t = {state.t}")
    x, span = _coordinate_major(state.opinions), t_end - state.t
    if kernel.b > 0.0:
        with _one_blas_thread():
            _advance(x, kernel, span, step_max)
    elif span > 0.0:  # the exact flow, pivoted as in _force so consensus stays put
        x += (-math.expm1(-kernel.a * span)) * _towards_mean(x - x[:, :1])
    return SimState(t=t_end, k=state.k, opinions=x.T, dim=state.dim)


def uniform_record_grid(t_end: float, dt: float) -> tuple[float, ...]:
    """Record times dt, 2*dt, ... below t_end, then t_end itself."""
    t_end, dt = _number(t_end, "t_end", "> 0"), _number(dt, "dt", "> 0")
    # the count is known first, so a count beyond memory raises at once
    try:
        pts = np.arange(1, math.floor(t_end / dt) + 1) * dt  # i * dt, bit for bit
    except (MemoryError, OverflowError, ValueError) as err:
        raise ValueError(f"dt = {dt} up to t_end = {t_end}: the record times do not fit in "
                         f"memory: {err}") from err
    # i*dt rounds, so a multiple of dt meant to land on t_end can overshoot it
    return (*pts[pts < t_end].tolist(), t_end)


def geometric_record_grid(t_first: float, t_end: float, points: int) -> tuple[float, ...]:
    """Geometrically spaced record times from t_first to t_end inclusive."""
    t_first, t_end = _number(t_first, "t_first", "> 0"), _number(t_end, "t_end", "> 0")
    if t_first > t_end:
        raise ValueError(f"t_first must be <= t_end, got {t_first}, t_end = {t_end}")
    points = _integer(points, "points", 2)
    try:
        grid = np.geomspace(t_first, t_end, points)
    except (MemoryError, OverflowError, ValueError) as err:
        raise ValueError(f"points = {points} from t_first = {t_first} to t_end = {t_end}: the "
                         f"record times do not fit in memory: {err}") from err
    return tuple(grid.tolist())


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs besides the seed; frozen, and checked once,
    when it is built.

    Exactly one of horizon / max_agents may be omitted; when both are present
    the run stops at whichever comes first. max_agents counts the total
    population, so max_agents = n0 + k stops right after the k-th arrival.
    ``dim`` and ``max_agents`` are stored as ints, ``step_max`` and ``horizon``
    as floats, ``initial_opinions`` as a read-only float copy (n0, dim) and
    ``record_grid`` as a tuple of floats: editing the array or list passed in
    later does not edit the config.

    step_max is an upper bound on the RK4 step of a kernel with b > 0: the
    step taken is min(step_max, 2.785 / (2 psi_max)), RK4's real-axis
    stability limit for the kernel. At b = 0, the constant kernel psi = a,
    the run takes the exact flow and ignores step_max. Every run records the
    integral of the dissipation D, whatever the config
    (``MomentSeries.d_integral``).
    """

    dim: int
    kernel: Kernel
    schedule: GrowthSchedule
    source: OpinionSource
    initial_opinions: np.ndarray
    step_max: float = 1e-2
    horizon: float | None = None
    max_agents: int | None = None
    record_grid: tuple[float, ...] = ()

    def __post_init__(self):
        dim, n0 = _integer(self.dim, "dim", 1), self.schedule.n0
        x0 = np.array(self.initial_opinions, dtype=float, ndmin=2)
        x0.flags.writeable = False
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "initial_opinions", x0)
        if x0.shape != (n0, dim):
            raise ValueError(f"initial_opinions shape {x0.shape} does not match "
                             f"(n0, dim) = ({n0}, {dim})")
        if not np.all(np.isfinite(x0)):
            raise ValueError("initial_opinions must be finite")
        if self.source.dim != dim:
            raise ValueError(f"source.mean has dimension {self.source.dim}, config dim is {dim}")
        object.__setattr__(self, "step_max", _number(self.step_max, "step_max", "> 0"))
        _end_time(self.schedule, self.horizon, self.max_agents)
        if self.horizon is not None:
            object.__setattr__(self, "horizon", float(self.horizon))
        if self.max_agents is not None:
            object.__setattr__(self, "max_agents", int(self.max_agents))
        object.__setattr__(self, "record_grid", tuple(_number(g, "record_grid times", ">= 0")
                                                      for g in self.record_grid))


def _end_time(schedule: GrowthSchedule, horizon: float | None,
              max_agents: int | None) -> float:
    """End of a run: the horizon or the arrival that fills max_agents, whichever
    is first. Checks the stop fields for SimConfig."""
    if horizon is None and max_agents is None:
        raise ValueError("horizon or max_agents must be set")
    ends = []
    if horizon is not None:
        ends.append(_number(horizon, "horizon", "> 0"))
    if max_agents is not None:
        max_agents = _integer(max_agents, "max_agents", schedule.n0)
        try:  # an explicit schedule refuses an arrival past its times
            ends.append(injection_time(schedule, max_agents - schedule.n0))
        except ValueError as err:
            raise ValueError(f"max_agents = {max_agents}: {err}") from err
    return min(ends)


@dataclass(frozen=True, eq=False)
class _Timeline:
    """The rows every run of a config shares: the columns ``event``, ``t``, ``k``
    and ``n`` of ``MomentSeries``, and the arrival times t_1..t_K they hold."""

    event: tuple[str, ...]
    t: np.ndarray
    k: np.ndarray
    n: np.ndarray
    arrivals: np.ndarray


def _timeline(config: SimConfig) -> _Timeline:
    """The rows of every run of ``config``, around t_1..t_K: every arrival at or
    before t_end that max_agents allows, read by ``schedules._times``.

    K is counted first, so a K beyond memory raises a ValueError at once,
    naming t_end and K, or, past 2**53 arrivals, the count's estimate; rows
    beyond memory raise one naming K and t_end.
    """
    schedule = config.schedule
    t_end = _end_time(schedule, config.horizon, config.max_agents)
    try:
        count = population_at(schedule, t_end) - schedule.n0
        if config.max_agents is not None:
            count = min(count, config.max_agents - schedule.n0)
        arrivals = _times(schedule, 0, count)
    except (MemoryError, OverflowError) as err:
        raise ValueError(f"the arrivals up to t_end = {t_end} do not fit in memory: "
                         f"{err}") from err
    try:
        return _timeline_rows(arrivals, config.record_grid, t_end, schedule.n0)
    except MemoryError as err:
        raise ValueError(f"the rows of {arrivals.size} arrivals up to t_end = {t_end} do not "
                         "fit in memory") from err


_EVENTS = np.array(["record", "pre_jump", "post_jump"], dtype=object)


def _timeline_rows(arrivals: np.ndarray, record_grid, t_end: float, n0: int) -> _Timeline:
    # Grid times coinciding with an arrival are dropped: the pre/post pair
    # already records that instant (post = right-continuous value).
    grid = np.array(sorted(set(record_grid)), dtype=float)
    grid = grid[(grid > 0.0) & (grid <= t_end)]
    if arrivals.size:
        # arrivals are increasing, so the nearest one on each side decides
        i = np.searchsorted(arrivals, grid)
        gap = np.minimum(np.abs(grid - arrivals[np.maximum(i - 1, 0)]),
                         np.abs(grid - arrivals[np.minimum(i, arrivals.size - 1)]))
        grid = grid[gap > _TIME_TOL * np.maximum(1.0, grid)]

    # one row at t = 0, one per grid time, two per arrival: arrival j's pair
    # follows the t = 0 row, the grid times before it and the earlier pairs
    rows = 1 + grid.size + 2 * arrivals.size
    j = np.arange(1, arrivals.size + 1)
    pre = np.searchsorted(grid, arrivals) + 2 * j - 1
    code, t, k = np.zeros(rows, dtype=np.intp), np.zeros(rows), np.zeros(rows, dtype=np.int64)
    code[pre], code[pre + 1] = 1, 2
    t[pre] = t[pre + 1] = arrivals
    k[pre] = k[pre + 1] = j
    record = np.flatnonzero(code == 0)[1:]
    t[record] = grid
    k[record] = np.searchsorted(arrivals, grid)  # arrivals so far
    # a pre_jump row holds the index of the arrival about to join
    return _Timeline(tuple(_EVENTS[code].tolist()), t, k, n0 + k - (code == 1), arrivals)


class _ReplicaError(RuntimeError):
    """A run of a block failed; ``replica`` is its place in the block."""

    def __init__(self, replica: int, message: str):
        super().__init__(message)
        self.replica = replica


def run_simulation(config: SimConfig, seed: int) -> MomentSeries:
    """One deterministic trajectory of the full hybrid system.

    Returns the moment stream: a record at t = 0, one at every grid time and a
    pre/post pair straddling every arrival; the flow stops at the last row.
    Identical (config, seed) reproduce the series bit for bit. It is the
    one-replica block of the engine ``run_ensemble`` runs, so replica i of an
    ensemble is run_simulation(config, derive_run_seed(master, i)), bit for bit.
    """
    seed = _integer(seed, "seed", 0)
    tl = _timeline(config)
    cols = _run_block(config, tl, [seed])
    return MomentSeries(t=tl.t, event=tl.event, k=tl.k, n=tl.n, seed=seed,
                        **{name: col[0] for name, col in cols.items()})


def _run_block(config: SimConfig, tl: _Timeline, seeds) -> dict[str, np.ndarray]:
    """Runs of ``config`` under each seed on its timeline ``tl``: the columns
    ``m1``, ``m2``, ``v``, ``w``, ``dissipation``, ``d_integral`` and ``x_new``
    of ``MomentSeries`` with a leading replica axis. A replica's result does not
    depend on the others or on their number. A failure that belongs to one
    replica raises ``_ReplicaError`` with its place in ``seeds``. The block
    runs on one BLAS thread (``kernels._one_blas_thread``).
    """
    x_new = np.stack([_draw_incoming(config.source, np.random.default_rng(s), tl.arrivals.size)
                      for s in seeds])
    engine = _constant_block if config.kernel.b == 0.0 else _particle_block
    with _one_blas_thread():
        cols = engine(config, tl, x_new)
    cols["x_new"] = x_new
    return cols


def _particle_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """Each replica on the opinions themselves, one after the other, in one
    buffer (d, N) of the final population: RK4 in place on the (d, n) prefix
    of the agents present between events, arrival j written into the next
    free column.

    A row's m1, m2, V and W come from its opinions, with the self-checks of
    ``compute_moments``. Its D comes from one ``_force`` pass at its
    opinions, which the next span takes as its first RK4 stage, k1. A pre/post
    pair takes both values from the pass at the post-jump opinions, the
    pre-jump D from the old agents' own sums over their block of each tile.
    """
    kernel, m = config.kernel, config.source.mean_vector
    replicas, rows = x_new.shape[0], tl.t.size
    cols = {"m1": np.empty((replicas, rows, config.dim))}
    cols.update((name, np.empty((replicas, rows)))
                for name in ("m2", "v", "w", "dissipation", "d_integral"))

    times, agents, k = tl.t.tolist(), tl.n.tolist(), tl.k.tolist()
    x = np.empty((config.dim, agents[-1]))
    for r in range(replicas):
        dis = cols["dissipation"][r]
        try:
            x[:, :agents[0]] = config.initial_opinions.T
            t, q, first = 0.0, 0.0, None  # first: the pass at the last row's opinions
            for i in range(rows):
                n = agents[i]
                if tl.event[i] == "post_jump":
                    x[:, n - 1] = x_new[r, k[i] - 1]
                elif i:  # no span leads into the first row, at t = 0
                    q, t = q + _advance(x[:, :n], kernel, times[i] - t, config.step_max,
                                        first), times[i]
                cols["m1"][r, i], cols["m2"][r, i], cols["v"][r, i], cols["w"][r, i] = (
                    _moments(x[:, :n], m))
                cols["d_integral"][r, i] = q
                if tl.event[i] == "post_jump":
                    first = _force(x[:, :n], kernel, agents[i - 1])
                    dis[i - 1], dis[i] = first[2], first[1]
                elif tl.event[i] == "record":
                    first = _force(x[:, :n], kernel)
                    dis[i] = first[1]
        except RuntimeError as err:
            raise _ReplicaError(r, str(err)) from err
    return cols


def _constant_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """The replicas of a kernel with b = 0, the constant c = a, at once, by
    whole-array prefix passes over the arrivals (see the module docstring): m1
    after each arrival from a compensated prefix sum, each arrival's jump of
    nV, and nV at every row from ``_decayed_sums``."""
    c = config.kernel.a
    m = config.source.mean_vector
    replicas, arrivals, d = x_new.shape
    x0 = config.initial_opinions
    n0 = x0.shape[0]
    rows = tl.t.size

    m1_0, offsets, s0 = _founders(x0)
    m1_at = np.empty((replicas, arrivals + 1, d))
    m1_at[:, 0] = m1_0
    n = n0 + np.arange(arrivals)  # agents present before each arrival
    m1_at[:, 1:] = m1_at[:, :1] + _prefix_sums(x_new - m1_at[:, :1]) / (n + 1)[:, None]
    jumps = (n / (n + 1)) * _sq(x_new - m1_at[:, :-1])
    v = _decayed_sums(c, tl, s0, jumps)
    v /= tl.n
    applied = tl.n - tl.n[0]
    m1 = m1_at[:, applied]

    # every replica at the last row, one in turn at each grid record
    event, times = tl.event, tl.t.tolist()
    grid = [i for i in range(1, rows - 1) if event[i] == "record"]
    audits = [(turn % replicas, i) for turn, i in enumerate(grid)]
    for r, i in audits + [(r, rows - 1) for r in range(replicas)]:
        j = applied[i]
        x = _opinions(c, times[i], offsets, m1_at[r, :j + 1], x_new[r, :j], tl.arrivals[:j])
        _audit(config, times[i], r, x, m1[r, i], v[r, i])

    m2, w = v + _sq(m1), v + _sq(m1 - m)
    finite = np.isfinite(m1).all(axis=2) & np.isfinite(m2) & np.isfinite(w)
    if not finite.all():
        r, i = (int(ax[0]) for ax in np.nonzero(~finite))
        raise _ReplicaError(r, f"non-finite moment at t={tl.t[i]!r} (row {i})")
    # D = -2cV and V decays as e^{-2c t}, so an interval adds V_a (e^{-2c span}
    # - 1), V_a the V of the row it starts from; a pre/post pair adds exactly 0
    d_integral = np.zeros_like(v)
    np.cumsum(v[:, :-1] * np.expm1((-2.0 * c) * np.diff(tl.t)), axis=1, out=d_integral[:, 1:])
    return {"m1": m1, "m2": m2, "v": v, "w": w, "dissipation": (-2.0 * c) * v,
            "d_integral": d_integral}


def _founders(x0: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The founders' mean, their offsets from it and nV, the sum of their
    squared offsets, pivoted about x0[0], so a population in exact consensus
    has V == 0.0."""
    dev = x0 - x0[0]
    mean_dev = dev.sum(axis=0) / x0.shape[0]
    offsets = dev - mean_dev
    return x0[0] + mean_dev, offsets, float((offsets * offsets).sum())


def _prefix_sums(y: np.ndarray) -> np.ndarray:
    """Prefix sums of y along axis 1, compensated: ``np.cumsum`` plus the
    prefix sums of its exact rounding errors, each from TwoSum (Ogita, Rump &
    Oishi, "Accurate sum and dot product", SIAM J. Sci. Comput. 26, 2005), so
    each sum is as accurate as if summed in twice the working precision."""
    s = np.cumsum(y, axis=1)
    prev = np.zeros_like(s)
    prev[:, 1:] = s[:, :-1]
    b = s - prev
    return s + np.cumsum((prev - (s - b)) + (y - b), axis=1)


def _decayed_sums(c: float, tl: _Timeline, s0: float, jumps: np.ndarray) -> np.ndarray:
    """S = nV at every row of ``tl``, for each replica of ``jumps`` (replicas,
    K): S starts at s0, decays by e^{-2c tau} over a span tau, and arrival k
    adds jumps[:, k - 1]. After arrival k, in closed form,

        S_k = e^{-2c (t_k - t_lo)} (S_lo + sum over lo < j <= k of
              jumps_j e^{2c (t_j - t_lo)}),

    one prefix sum from the S_lo of the arrival (or t = 0) that begins the
    piece holding k. A piece spans at most ``_PIECE`` of 2c t, so its factors
    cannot overflow and their exponents' rounding stays near ``_PIECE`` eps;
    a span longer than that is a piece of its own that decays S directly.
    Every other row decays the S of its last arrival by e^{-2c (t - t_a)}."""
    replicas, arrivals = jumps.shape
    t_at = np.concatenate(([0.0], tl.arrivals))
    s = np.empty((replicas, arrivals + 1))
    s[:, 0] = s0
    lo, reach = 0, _PIECE / (2.0 * c)
    while lo < arrivals:
        hi = max(int(np.searchsorted(t_at, t_at[lo] + reach, side="right")) - 1, lo + 1)
        a = (2.0 * c) * (t_at[lo + 1:hi + 1] - t_at[lo])
        if hi == lo + 1 and a[0] > _PIECE:
            s[:, hi] = s[:, lo] * math.exp(-a[0]) + jumps[:, lo]
        else:
            np.cumsum(jumps[:, lo:hi] * np.exp(a), axis=1, out=s[:, lo + 1:hi + 1])
            s[:, lo + 1:hi + 1] += s[:, lo:lo + 1]
            s[:, lo + 1:hi + 1] *= np.exp(-a)
        lo = hi
    applied = tl.n - tl.n[0]
    return s[:, applied] * np.exp((-2.0 * c) * (tl.t - t_at[applied]))


def _sq(x: np.ndarray) -> np.ndarray:
    """|x|^2 over the last axis, added coordinate by coordinate: each value's
    rounding does not depend on the lengths of the other axes."""
    out = x[..., 0] * x[..., 0]
    for j in range(1, x.shape[-1]):
        out = out + x[..., j] * x[..., j]
    return out


def _opinions(c: float, t: float, offsets: np.ndarray, m1_at: np.ndarray,
              x_new: np.ndarray, t_arrival: np.ndarray) -> np.ndarray:
    """One replica's opinions at time t, rebuilt by the exact flow from its
    founders' offsets from their mean, its j arrivals x_new (j, d) at times
    t_arrival and its m1 before and after each, m1_at (j + 1, d)."""
    before, after = m1_at[:-1], m1_at[1:]
    decay = np.exp(-c * (t - t_arrival))[:, None]
    # tail[l] = sum of decay * (m1 jump) over arrivals l.., and 0 past the last
    tail = np.zeros_like(m1_at)
    tail[:-1] = np.cumsum(((after - before) * decay)[::-1], axis=0)[::-1]
    return m1_at[-1] + np.vstack([math.exp(-c * t) * offsets - tail[0],
                                  (x_new - before) * decay - tail[:-1]])


def _audit(config: SimConfig, t: float, r: int, x: np.ndarray, m1: np.ndarray,
           v: float) -> None:
    """Checks replica r's m1 and V at time t against ``compute_moments`` (with
    its own self-checks) on its rebuilt opinions x: an m1 off by more than
    1e-12 max(1, max |x|), or a V by more than 1e-12 relative with a floor of
    1e-15 max(1, m2), raises ``_ReplicaError``."""
    try:
        rec = compute_moments(x, config.kernel, config.source.mean_vector, t)
    except RuntimeError as err:
        raise _ReplicaError(r, str(err)) from err
    if not np.abs(rec.m1 - m1).max() <= _AUDIT_RTOL * max(1.0, float(np.abs(x).max())):
        raise _ReplicaError(r, f"audit at t={rec.t!r}: recursion m1={m1!r}, "
                               f"rebuilt m1={rec.m1!r}")
    if not abs(rec.v - v) <= max(_AUDIT_RTOL * abs(v), _AUDIT_ATOL * max(1.0, rec.m2)):
        raise _ReplicaError(r, f"audit at t={rec.t!r}: recursion V={float(v)!r}, "
                               f"rebuilt V={rec.v!r}")
