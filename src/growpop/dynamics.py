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
block of one. There is one engine per kernel family.

The constant kernel's force collapses to c*(m1 - x_i), so its flow is exact,
x_i(t) = m1 + (x_i(s) - m1) e^{-c(t-s)}, and the engine carries each replica's
m1 and nV = n V, the sum of squared deviations, from event to event: O(d) work
per replica and event.

* a flow span tau: nV <- e^{-2c tau} nV, and m1 stays put;
* an arrival x to a population of n: with delta = x - m1,
  m1 <- m1 + delta/(n+1) and nV <- nV + n |delta|^2/(n+1);
* a row's moments: V = nV/n, m2 = V + |m1|^2, W = V + |m1 - m|^2 and
  D = -2cV, computed for all rows after the event loop.

The arrival step is the jump law ``predict_jumps`` states, in Welford's
updating form (Welford, Technometrics 4, 1962; analysed by Chan, Golub &
LeVeque, "Algorithms for computing the sample variance", Am. Stat. 37, 1983).
Every term of the nV update is nonnegative, so no step cancels, wherever the
population sits. The founders' nV is summed from their offsets from their
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

Any other kernel runs on the opinions themselves, replica after replica, in
one buffer of the final population: each arrival is written into the next
free row, and the rows present are advanced in place between events by
classical Runge-Kutta 4 at a fixed step, the last one shortened to land
exactly on the endpoint. The step is step_max, capped at RK4's real-axis
stability limit for the kernel's certified psi_max. Every RK4 stage is one
pass of ``kernels._force`` over the pair weights, a tile of rows at a time,
which gives the velocities and the dissipation D together. Simpson's rule over
the stages gives each step's integral of D, which every run records
(``d_integral``): the witness of the energy balance d(m2)/dt = D between
arrivals. The constant kernel's integral is closed form, from the V column.

Each row's D comes from one pass at its opinions, which the next span then
takes as its first stage, k1, so the pass costs nothing extra. A pre/post pair
takes both values from the pass at the post-jump opinions: D_post is its
total, and D_pre sums the old population's block of each tile directly, not
D_post less the newcomer's row and column, which would cancel as the
population tightens. ``dissipation_of`` is the D of the same pass, so each
row's D equals ``dissipation_of`` of the row's opinions bit for bit.

``integrate_interval`` takes one span on given opinions: the exact flow, in
one O(N) update, for the constant kernel, and the RK4 steps otherwise. Its
constant branch is not a second engine for runs: it is the particle reference
that the tests replay a run through and compare the recursion against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _force
from .observables import MomentSeries, _moments, compute_moments
from .schedules import (GrowthSchedule, _integer, final_injection_count, injection_time,
                        population_at)
from .sources import OpinionSource, _draw_incoming

__all__ = [
    "SimState",
    "SimConfig",
    "ContractViolationError",
    "rhs",
    "integrate_interval",
    "inject_agent",
    "run_simulation",
    "uniform_record_grid",
    "geometric_record_grid",
]

# Classical RK4 is stable for h * lambda on the real interval [-2.785, 0]
# (Hairer & Wanner, Solving ODEs II, Sec. IV.2). The force's Jacobian is
# symmetric with spectral radius at most 2 * psi_max (block Gershgorin), so
# steps of up to this over 2 * psi_max keep every mode decaying.
_RK4_REAL_STABILITY = 2.785

# Slack when matching the integrator's landing time against an arrival time.
_TIME_TOL = 1e-12

# The constant kernel's audit: V of the rebuilt opinions against the
# recursion's, relative, with an absolute floor relative to max(1, m2); m1
# against the recursion's, relative to max(1, max |x|).
_AUDIT_RTOL = 1e-12
_AUDIT_ATOL = 1e-15


class ContractViolationError(RuntimeError):
    """An operation was driven outside its stated preconditions."""


@dataclass(eq=False)
class SimState:
    """Population snapshot: time, arrivals applied so far, opinions (N, d)."""

    t: float
    k: int
    opinions: np.ndarray
    dim: int


def rhs(state: SimState, kernel: Kernel) -> np.ndarray:
    """Instantaneous opinion velocities, shape (N, d).

    The pair weight matrix W is symmetric bit for bit, so the velocities
    (W y - r * y) / N, with r the row sums of W, sum to zero in exact
    arithmetic: the mean is conserved along the flow up to roundoff. The
    pivot y = x - x[0] makes exact consensus (y = 0) give exactly zero.
    """
    x = np.asarray(state.opinions, dtype=float)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("state.opinions must be a nonempty (N, d) array")
    return _force(x, kernel)[0]


def _rk4_step(x: np.ndarray, kernel: Kernel, h: float, first=None) -> float:
    """Advance opinions in place by one RK4 step; returns the step's integral of
    D, its four stage values weighted by Simpson's rule. ``first``, the
    ``_force`` pass at x if the caller has made it, is the k1 stage."""
    k1, d1, _ = _force(x, kernel) if first is None else first
    k2, d2, _ = _force(x + (0.5 * h) * k1, kernel)
    k3, d3, _ = _force(x + (0.5 * h) * k2, kernel)
    k4, d4, _ = _force(x + h * k3, kernel)
    x += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


def _advance(x: np.ndarray, kernel: Kernel, span: float, step_max: float,
             first=None) -> float:
    """Advances opinions x (N, d) in place by the flow over span >= 0, and
    returns the RK4 steps' integral of D over it. ``first``, the ``_force``
    pass at x if the caller has made it, is the first step's k1 stage. The
    constant kernel's exact flow takes no steps and returns 0.0.
    """
    if not span > 0.0:
        return 0.0
    if kernel.kind == "constant":
        # exact flow, pivoted about x[0] as in _force so consensus stays put
        dev = x - x[0]
        x += (-math.expm1(-kernel.coef[0] * span)) * (dev.sum(axis=0) / x.shape[0] - dev)
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

    A constant kernel takes its exact flow in one update, and step_max does
    not enter. Any other kernel takes RK4 steps of step_max, capped at RK4's
    real-axis stability limit 2.785 / (2 psi_max), with the final one
    shortened to land exactly on t_end. A t_end before state.t is a contract
    violation.
    """
    if not (step_max > 0.0) or not math.isfinite(step_max):
        raise ValueError(f"step_max must be positive and finite, got {step_max}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if t_end < state.t:
        raise ContractViolationError(f"t_end={t_end} precedes state.t={state.t}")
    x = np.array(state.opinions, dtype=float, order="C")
    _advance(x, kernel, t_end - state.t, step_max)
    return SimState(t=t_end, k=state.k, opinions=x, dim=state.dim)


def inject_agent(state: SimState, x_new, t_k: float) -> SimState:
    """Append one newcomer at arrival time t_k; existing opinions unchanged."""
    x_new = np.asarray(x_new, dtype=float).reshape(-1)
    if x_new.shape != (state.dim,):
        raise ContractViolationError(
            f"arrival has dimension {x_new.shape[0]}, state has {state.dim}")
    if abs(state.t - t_k) > _TIME_TOL:
        raise ContractViolationError(f"state is at t={state.t}, arrival scheduled at t={t_k}")
    opinions = np.vstack([state.opinions, x_new[None, :]])
    return SimState(t=state.t, k=state.k + 1, opinions=opinions, dim=state.dim)


def uniform_record_grid(t_end: float, dt: float) -> tuple[float, ...]:
    """Record times dt, 2*dt, ... below t_end, then t_end itself."""
    if not (dt > 0.0) or not (0.0 < t_end < math.inf):
        raise ValueError(f"need dt > 0 and 0 < t_end < inf, got dt = {dt}, t_end = {t_end}")
    # the count is known first, so a count beyond memory raises at once
    try:
        pts = np.arange(1, math.floor(t_end / dt) + 1) * dt  # i * dt, bit for bit
    except (MemoryError, OverflowError, ValueError) as err:
        raise ValueError(f"record times every dt = {dt} up to t_end = {t_end} do not fit in "
                         f"memory: {err}") from err
    # i*dt rounds, so a multiple of dt meant to land on t_end can overshoot it
    return (*pts[pts < t_end].tolist(), t_end)


def geometric_record_grid(t_first: float, t_end: float, points: int) -> tuple[float, ...]:
    """Geometrically spaced record times from t_first to t_end inclusive."""
    if not (0.0 < t_first <= t_end < math.inf):
        raise ValueError(f"need 0 < t_first <= t_end < inf, got {t_first}, t_end = {t_end}")
    points = _integer(points, "points", 2)
    return tuple(float(g) for g in np.geomspace(t_first, t_end, points))


@dataclass(frozen=True, eq=False)
class SimConfig:
    """Everything one run needs besides the seed; frozen, and checked once,
    when it is built.

    Exactly one of horizon / max_agents may be omitted; when both are present
    the run stops at whichever comes first. max_agents counts the total
    population, so max_agents = n0 + k stops right after the k-th arrival.
    ``dim`` and ``max_agents`` are stored as ints, ``initial_opinions`` as a
    read-only float copy (n0, dim) and ``record_grid`` as a tuple of floats:
    editing the array or list passed in later does not edit the config.

    step_max is an upper bound on the RK4 step of a non-constant kernel: the
    step taken is min(step_max, 2.785 / (2 psi_max)), RK4's real-axis
    stability limit for the kernel. A constant kernel is advanced by its
    exact flow and ignores step_max. Every run records the integral of the
    dissipation D, whatever the config (``MomentSeries.d_integral``).
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
        if not (self.step_max > 0.0) or not math.isfinite(self.step_max):
            raise ValueError(f"step_max must be positive and finite, got {self.step_max}")
        _end_time(self.schedule, self.horizon, self.max_agents)
        if self.max_agents is not None:
            object.__setattr__(self, "max_agents", int(self.max_agents))
        object.__setattr__(self, "record_grid", tuple(float(g) for g in self.record_grid))
        for g in self.record_grid:
            if not math.isfinite(g) or g < 0.0:
                raise ValueError(f"record_grid times must be finite and >= 0, got {g}")


def _end_time(schedule: GrowthSchedule, horizon: float | None,
              max_agents: int | None) -> float:
    """End of a run: the horizon or the arrival that fills max_agents, whichever
    is first. Checks the stop fields for SimConfig."""
    if horizon is None and max_agents is None:
        raise ValueError("horizon or max_agents must be set")
    ends = []
    if horizon is not None:
        if not (horizon > 0.0) or not math.isfinite(horizon):
            raise ValueError(f"horizon must be positive and finite, got {horizon}")
        ends.append(float(horizon))
    if max_agents is not None:
        max_agents = _integer(max_agents, "max_agents", schedule.n0)
        k_needed = max_agents - schedule.n0
        limit = final_injection_count(schedule)
        if limit is not None and k_needed > limit:
            raise ValueError(f"max_agents = {max_agents} needs {k_needed} arrivals "
                             f"but the schedule defines only {limit}")
        ends.append(injection_time(schedule, k_needed) if k_needed > 0 else 0.0)
    return min(ends)


def _arrival_times(config: SimConfig, t_end: float) -> np.ndarray:
    """t_1..t_K, every arrival at or before t_end that max_agents allows. K is
    counted first, so a K beyond memory raises at once, naming K and t_end."""
    n0 = config.schedule.n0
    count = population_at(config.schedule, t_end) - n0
    if config.max_agents is not None:
        count = min(count, config.max_agents - n0)
    try:
        return np.fromiter((injection_time(config.schedule, j) for j in range(1, count + 1)),
                           dtype=float, count=count)
    except (MemoryError, OverflowError, ValueError) as err:
        raise ValueError(f"{count} arrivals up to t_end = {t_end} do not fit in memory: "
                         f"{err}") from err


@dataclass(frozen=True, eq=False)
class _Timeline:
    """The rows every run of a config shares: the columns ``event``, ``t``, ``k``
    and ``n`` of ``MomentSeries``."""

    event: tuple[str, ...]
    t: np.ndarray
    k: np.ndarray
    n: np.ndarray


def _timeline(config: SimConfig) -> _Timeline:
    """The rows of every run of ``config``. K arrivals whose rows do not fit in
    memory raise a ValueError naming K and t_end, as ``_arrival_times`` does."""
    t_end = _end_time(config.schedule, config.horizon, config.max_agents)
    arrivals = _arrival_times(config, t_end)
    try:
        return _timeline_rows(arrivals.tolist(), config.record_grid, t_end, config.schedule.n0)
    except MemoryError as err:
        raise ValueError(f"the rows of {arrivals.size} arrivals up to t_end = {t_end} do not "
                         "fit in memory") from err


def _timeline_rows(arrivals: list[float], record_grid, t_end: float, n0: int) -> _Timeline:
    # Grid times coinciding with an arrival are dropped: the pre/post pair
    # already records that instant (post = right-continuous value).
    grid = []
    for g in sorted(set(record_grid)):
        if not 0.0 < g <= t_end:
            continue
        # arrivals are increasing, so the nearest one on each side decides
        i = bisect.bisect_left(arrivals, g)
        nearest = arrivals[max(i - 1, 0):i + 1]
        if any(abs(g - t_j) <= _TIME_TOL * max(1.0, g) for t_j in nearest):
            continue
        grid.append(g)

    # one row at t = 0, one per grid time, two per arrival (j = 0 marks a grid time)
    event, t, k, arrived = ["record"], [0.0], [0], 0
    for t_ev, j in sorted([(g, 0) for g in grid] + [(t_j, j + 1) for j, t_j in enumerate(arrivals)]):
        if j == 0:
            event.append("record")
            t.append(t_ev)
            k.append(arrived)
        else:
            event += ["pre_jump", "post_jump"]
            t += [t_ev, t_ev]
            k += [j, j]
            arrived = j
    k = np.array(k, dtype=np.int64)
    # a pre_jump row holds the index of the arrival about to join
    applied = k - np.array([ev == "pre_jump" for ev in event])
    return _Timeline(tuple(event), np.array(t), k, n0 + applied)


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
    tl, cols = _run_block(config, [seed])
    return MomentSeries(t=tl.t, event=tl.event, k=tl.k, n=tl.n, seed=int(seed),
                        **{name: col[0] for name, col in cols.items()})


def _run_block(config: SimConfig, seeds) -> tuple[_Timeline, dict[str, np.ndarray]]:
    """Runs of ``config`` under each seed: the shared timeline, and the columns
    ``m1``, ``m2``, ``v``, ``w``, ``dissipation``, ``d_integral`` and ``x_new``
    of ``MomentSeries`` with a leading replica axis. A replica's result does not
    depend on the others or on their number. A failure that belongs to one
    replica raises ``_ReplicaError`` with its place in ``seeds``.
    """
    tl = _timeline(config)
    arrivals = tl.event.count("post_jump")
    x_new = np.stack([_draw_incoming(config.source, np.random.default_rng(s), arrivals)
                      for s in seeds])
    engine = _constant_block if config.kernel.kind == "constant" else _particle_block
    cols = engine(config, tl, x_new)
    cols["x_new"] = x_new
    return tl, cols


def _particle_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """Each replica on the opinions themselves, one after the other, in one
    buffer of the final population: RK4 in place on the rows present between
    events, arrival j written into the next free row.

    A row's m1, m2, V and W come from its opinions, with the self-checks of
    ``compute_moments``. Its D comes from one ``_force`` pass at its
    opinions, which the next span takes as its first RK4 stage, k1. A pre/post
    pair takes both values from the pass at the post-jump opinions, the
    pre-jump D summed over the old agents' own block of each tile.
    """
    kernel, m = config.kernel, config.source.mean_vector
    replicas, rows = x_new.shape[0], tl.t.size
    cols = {"m1": np.empty((replicas, rows, config.dim))}
    cols.update((name, np.empty((replicas, rows)))
                for name in ("m2", "v", "w", "dissipation", "d_integral"))

    times, agents, k = tl.t.tolist(), tl.n.tolist(), tl.k.tolist()
    x = np.empty((agents[-1], config.dim))
    for r in range(replicas):
        dis = cols["dissipation"][r]
        try:
            x[:agents[0]] = config.initial_opinions
            t, q, first = 0.0, 0.0, None  # first: the pass at the last row's opinions
            for i in range(rows):
                n = agents[i]
                if tl.event[i] == "post_jump":
                    x[n - 1] = x_new[r, k[i] - 1]
                elif i:  # no span leads into the first row, at t = 0
                    q, t = q + _advance(x[:n], kernel, times[i] - t, config.step_max,
                                        first), times[i]
                cols["m1"][r, i], cols["m2"][r, i], cols["v"][r, i], cols["w"][r, i] = (
                    _moments(x[:n], m))
                cols["d_integral"][r, i] = q
                if tl.event[i] == "post_jump":
                    first = _force(x[:n], kernel, agents[i - 1])
                    dis[i - 1], dis[i] = first[2], first[1]
                elif tl.event[i] == "record":
                    first = _force(x[:n], kernel)
                    dis[i] = first[1]
        except RuntimeError as err:
            raise _ReplicaError(r, str(err)) from err
    return cols


def _constant_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """The constant kernel's replicas at once, by the (m1, V) recursion (see the
    module docstring): O(d) work per replica and event."""
    c = config.kernel.coef[0]
    m = config.source.mean_vector
    replicas, arrivals, d = x_new.shape
    x0 = config.initial_opinions
    n = x0.shape[0]
    rows = tl.t.size

    # m1 after each arrival, as the flow leaves it alone, and nv = n V at each
    # row; pivoted about x0[0], so a population in exact consensus has V == 0.0
    dev = x0 - x0[0]
    mean_dev = dev.sum(axis=0) / n
    offsets = dev - mean_dev
    m1_at = np.empty((replicas, arrivals + 1, d))
    m1 = m1_at[:, 0] = x0[0] + mean_dev
    nv = np.full(replicas, float((offsets * offsets).sum()))
    v = np.empty((replicas, rows))
    t = 0.0
    times, event, k = tl.t.tolist(), tl.event, tl.k.tolist()
    for i in range(rows):
        if event[i] == "post_jump":
            delta = x_new[:, k[i] - 1] - m1
            m1 = m1_at[:, k[i]] = m1 + delta / (n + 1)
            nv += (n / (n + 1)) * _sq(delta)
            n += 1
        elif times[i] > t:
            nv *= math.exp(-2.0 * c * (times[i] - t))
            t = times[i]
        v[:, i] = nv
    v /= tl.n
    applied = tl.n - tl.n[0]
    m1 = m1_at[:, applied]

    # every replica at the last row, one in turn at each grid record
    grid = [i for i in range(1, rows - 1) if event[i] == "record"]
    audits = [(turn % replicas, i) for turn, i in enumerate(grid)]
    t_arrival = tl.t[np.flatnonzero(np.diff(tl.n)) + 1]
    for r, i in audits + [(r, rows - 1) for r in range(replicas)]:
        j = applied[i]
        x = _opinions(c, times[i], offsets, m1_at[r, :j + 1], x_new[r, :j], t_arrival[:j])
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
    state = SimState(t=float(t), k=0, opinions=x, dim=config.dim)
    try:
        rec = compute_moments(state, config.kernel, config.source.mean_vector)
    except RuntimeError as err:
        raise _ReplicaError(r, str(err)) from err
    if not np.abs(rec.m1 - m1).max() <= _AUDIT_RTOL * max(1.0, float(np.abs(x).max())):
        raise _ReplicaError(r, f"audit at t={state.t!r}: recursion m1={m1!r}, "
                               f"rebuilt m1={rec.m1!r}")
    if not abs(rec.v - v) <= max(_AUDIT_RTOL * abs(v), _AUDIT_ATOL * max(1.0, rec.m2)):
        raise _ReplicaError(r, f"audit at t={state.t!r}: recursion V={float(v)!r}, "
                               f"rebuilt V={rec.v!r}")
