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
x_i(t) = m1 + (x_i(s) - m1) e^{-c(t-s)}, and every opinion stays an affine
image x_i = a + g*z_i of a stored z_i: a (one per replica) and g (one per
block, as it depends only on the timeline) are common to the population. The
engine keeps a, g, the z's and their sums S1 = sum_i z_i and S2 = sum_i |z_i|^2,
so each event costs O(d) per replica, not O(N):

* a flow span tau, with e = e^{-c tau}: a += (1 - e) g S1/n and g *= e;
* an arrival x: z_{n+1} = (x - a)/g joins S1 and S2, no other opinion moves;
* a row's moments: m1 = a + g S1/n, V = g^2 (S2/n - |S1/n|^2),
  m2 = V + |m1|^2, W = V + |m1 - m|^2 and D = -2cV, computed for all rows
  after the event loop.

The z's start pivoted about the first founder (a = x_1, g = 1), so a
population in exact consensus has z = 0 and V == 0.0 exactly. g decays like
e^{-ct}; once it is below 1e-100 the engine renormalises, z <- g z and
g <- 1, an O(N) step that the regime runs (g above about 1e-25) never take.

V from S1 and S2 is the textbook one-pass variance of the z's, scaled by
g^2. Chan, Golub & LeVeque, "Algorithms for computing the sample variance",
Am. Stat. 37 (1983), bound its relative error by about n*eps*kappa^2, where
kappa^2 = 1 + |S1/n|^2 / var z, here 1 + |m1 - a|^2 / V: the pivot a must
stay near m1. A flow span leaves kappa as it is, since it moves a the share
1 - e of the way to m1, so |m1 - a| shrinks by e just as sqrt(V) does. An
arrival can raise it, and arrivals that keep landing on one side of a (a
founder far from the source under weak coupling, say) raise it without
bound, but slowly: one arrival to a population of n multiplies kappa^2 by at
most (n + 1)/n (the worst arrival lands beyond m1, away from a, at
distance V/|m1 - a| from it), so kappa^2 at most doubles while the
population doubles. So for the founders, and each time the population has
doubled since, the engine re-centres each replica with |S1/n|^2 > 2 var z:
a <- a + g S1/n and z <- z - S1/n, its sums recomputed, an O(n) step. That
holds kappa^2 <= 6 at every row, for O(N) work over a run. The regime runs never re-centre;
one founder 1000 away from the source at c = 0.01 re-centres twice in 2000
arrivals. The tests hold V to 1e-13 relative of the particle engine's.

The engine checks itself against the opinions: at every grid record it
materialises x = a + g z for one replica, taking the block's replicas in
turn, and at the last row for every replica, and runs ``compute_moments``
on them, whose own self-checks then run on real opinions. A V that differs
from the affine one by more than 1e-12 relative, with a floor of
1e-15 max(1, m2), raises, as does a non-finite moment; either error names
the replica.

Any other kernel runs on the opinions themselves, replica after replica,
integrated with classical Runge-Kutta 4 at a fixed step, the last one
shortened to land exactly on the endpoint. The step is step_max, capped at
RK4's real-axis stability limit for the kernel's certified psi_max. Its force
goes through the pair weights W_ij = psi(|x_j - x_i|), built a tile of rows at
a time: with y = x - x[0], row i of the force is ((W y)_i - (sum_j W_ij) y_i)
/ N, one matrix product per tile, so a force evaluation holds O(N * tile)
memory whatever the dimension d. The same tiles give the dissipation D at
each RK4 stage, and Simpson's rule over the stages gives each step's integral
of D, which every run records (``d_integral``): the witness of the energy
balance d(m2)/dt = D between arrivals. The constant kernel's integral is
closed form, from the V column.

``integrate_interval`` takes one span on given opinions: the exact flow, in
one O(N) update, for the constant kernel, and the RK4 steps otherwise. Its
constant branch is not a second engine for runs: it is the particle reference
that the tests replay a run through and compare the affine engine against.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _pair_tiles
from .observables import MomentSeries, compute_moments
from .schedules import GrowthSchedule, _integer, final_injection_count, injection_time
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

# Intervals below this length are traversed with one step of that exact size.
_MIN_SPLIT = 1e-14

# Classical RK4 is stable for h * lambda on the real interval [-2.785, 0]
# (Hairer & Wanner, Solving ODEs II, Sec. IV.2). The force's Jacobian is
# symmetric with spectral radius at most 2 * psi_max (block Gershgorin), so
# steps of up to this over 2 * psi_max keep every mode decaying.
_RK4_REAL_STABILITY = 2.785

# Slack when matching the integrator's landing time against an arrival time.
_TIME_TOL = 1e-12

# The affine engine renormalises (z <- g z, g <- 1) once g falls below this.
_G_FLOOR = 1e-100

# It re-centres a replica (a <- m1) if |S1/n|^2 exceeds this multiple of var z
# when it checks, each time the population has doubled.
_RECENTRE = 2.0

# Its audit: V of the materialised opinions against the affine V, relative,
# with an absolute floor relative to max(1, m2).
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


def _force(x: np.ndarray, kernel: Kernel) -> tuple[np.ndarray, float]:
    """Velocities (N, d) at x, and the dissipation D there."""
    n = x.shape[0]
    if kernel.kind == "constant":
        # c * (m1 - x_i), pivoted about x[0] so exact consensus is a fixed point
        dev = x - x[0]
        towards_mean = dev.sum(axis=0) / n - dev
        c = kernel.coef[0]
        return c * towards_mean, -2.0 * c * float(np.vdot(towards_mean, towards_mean)) / n
    # sum_j w_ij (y_j - y_i) = (W y)_i - (sum_j w_ij) y_i
    y = x - x[0]
    out = np.empty_like(y)
    total = 0.0
    for rows, w, d2 in _pair_tiles(y, kernel):
        out[rows] = w @ y - w.sum(axis=1)[:, None] * y[rows]
        total += float(np.vdot(w, d2))
    return out / n, -total / (n * n)


def _rk4_step(x: np.ndarray, kernel: Kernel, h: float) -> float:
    """Advance opinions in place by one RK4 step; returns the step's integral of
    D, its four stage values weighted by Simpson's rule."""
    k1, d1 = _force(x, kernel)
    k2, d2 = _force(x + (0.5 * h) * k1, kernel)
    k3, d3 = _force(x + (0.5 * h) * k2, kernel)
    k4, d4 = _force(x + h * k3, kernel)
    x += (h / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (h / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)


def _integrate(state: SimState, kernel: Kernel, t_end: float,
               step_max: float) -> tuple[SimState, float]:
    """State at t_end, and the RK4 steps' integral of D over the span; 0.0 for
    the constant kernel, whose exact flow takes no steps."""
    span = t_end - state.t
    if span < 0.0:
        raise ContractViolationError(f"t_end={t_end} precedes state.t={state.t}")
    x = state.opinions.copy()
    q = 0.0
    if span > 0.0:
        if kernel.kind == "constant":
            # exact flow, pivoted about x[0] as in _force so consensus stays put
            dev = x - x[0]
            x += (-math.expm1(-kernel.coef[0] * span)) * (dev.sum(axis=0) / x.shape[0] - dev)
        elif span <= _MIN_SPLIT:
            q += _rk4_step(x, kernel, span)
        else:
            h = min(step_max, _RK4_REAL_STABILITY / (2.0 * kernel.psi_max))
            n_full = int(math.floor(span / h))
            rem = span - n_full * h
            if rem > h:  # floor slipped by one ulp
                n_full += 1
                rem = span - n_full * h
            for _ in range(n_full):
                q += _rk4_step(x, kernel, h)
            if rem > 0.0:
                q += _rk4_step(x, kernel, rem)
    return SimState(t=t_end, k=state.k, opinions=x, dim=state.dim), q


def integrate_interval(state: SimState, kernel: Kernel, t_end: float,
                       step_max: float = 1e-2,
                       schedule: GrowthSchedule | None = None) -> SimState:
    """Integrate the flow from state.t to t_end with no arrivals inside.

    A constant kernel takes its exact flow in one update, and step_max does
    not enter. Any other kernel takes RK4 steps of step_max, capped at RK4's
    real-axis stability limit 2.785 / (2 psi_max), with the final one
    shortened to land exactly on t_end. When a schedule is supplied, an
    arrival time strictly inside the open interval is a contract violation.
    """
    if not (step_max > 0.0) or not math.isfinite(step_max):
        raise ValueError(f"step_max must be positive and finite, got {step_max}")
    if not math.isfinite(t_end):
        raise ValueError(f"t_end must be finite, got {t_end}")
    if schedule is not None:
        limit = final_injection_count(schedule)
        j_next = state.k + 1
        if limit is None or j_next <= limit:
            t_next = injection_time(schedule, j_next)
            if state.t < t_next < t_end:
                raise ContractViolationError(
                    f"arrival {j_next} at t={t_next} lies inside ({state.t}, {t_end})"
                )
    return _integrate(state, kernel, t_end, step_max)[0]


def inject_agent(state: SimState, x_new, t_k: float) -> SimState:
    """Append one newcomer at arrival time t_k; existing opinions unchanged."""
    x_new = np.asarray(x_new, dtype=float).reshape(-1)
    if x_new.shape != (state.dim,):
        raise ContractViolationError(
            f"arrival has dimension {x_new.shape[0]}, state has {state.dim}"
        )
    if abs(state.t - t_k) > _TIME_TOL:
        raise ContractViolationError(
            f"state is at t={state.t}, arrival scheduled at t={t_k}"
        )
    opinions = np.vstack([state.opinions, x_new[None, :]])
    return SimState(t=state.t, k=state.k + 1, opinions=opinions, dim=state.dim)


def uniform_record_grid(t_end: float, dt: float) -> tuple[float, ...]:
    """Record times dt, 2*dt, ... below t_end, then t_end itself."""
    if not (dt > 0.0) or not (t_end > 0.0):
        raise ValueError(f"dt must be > 0 with t_end > 0, got dt = {dt}, t_end = {t_end}")
    # i*dt rounds, so a multiple of dt meant to land on t_end can overshoot it
    pts = [i * dt for i in range(1, int(math.floor(t_end / dt)) + 1) if i * dt < t_end]
    return (*pts, t_end)


def geometric_record_grid(t_first: float, t_end: float, points: int) -> tuple[float, ...]:
    """Geometrically spaced record times from t_first to t_end inclusive."""
    if not (0.0 < t_first <= t_end):
        raise ValueError(f"t_first must lie in (0, t_end = {t_end}], got {t_first}")
    points = _integer(points, "points", 2)
    return tuple(float(g) for g in np.geomspace(t_first, t_end, points))


@dataclass(eq=False)
class SimConfig:
    """Everything one run needs besides the seed.

    Exactly one of horizon / max_agents may be omitted; when both are present
    the run stops at whichever comes first. max_agents counts the total
    population, so max_agents = n0 + k stops right after the k-th arrival.

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
        self.initial_opinions = np.atleast_2d(
            np.asarray(self.initial_opinions, dtype=float)
        )
        validate_sim_config(self)


def validate_sim_config(config: SimConfig) -> None:
    """Checks every field of ``config``, storing ``dim`` and ``max_agents`` as ints."""
    config.dim = _integer(config.dim, "dim", 1)
    n0 = config.schedule.n0
    if config.initial_opinions.shape != (n0, config.dim):
        raise ValueError(
            f"initial_opinions shape {config.initial_opinions.shape} does not match "
            f"(n0, dim) = ({n0}, {config.dim})"
        )
    if not np.all(np.isfinite(config.initial_opinions)):
        raise ValueError("initial_opinions must be finite")
    if config.source.dim != config.dim:
        raise ValueError(
            f"source.mean has dimension {config.source.dim}, config dim is {config.dim}"
        )
    if not (config.step_max > 0.0) or not math.isfinite(config.step_max):
        raise ValueError(f"step_max must be positive and finite, got {config.step_max}")
    _end_time(config.schedule, config.horizon, config.max_agents)
    if config.max_agents is not None:
        config.max_agents = int(config.max_agents)
    for g in config.record_grid:
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
            raise ValueError(
                f"max_agents = {max_agents} needs {k_needed} arrivals "
                f"but the schedule defines only {limit}"
            )
        ends.append(injection_time(schedule, k_needed) if k_needed > 0 else 0.0)
    return min(ends)


def _arrival_times(config: SimConfig, t_end: float) -> list[float]:
    limit = final_injection_count(config.schedule)
    if config.max_agents is not None:
        cap = config.max_agents - config.schedule.n0
        limit = cap if limit is None else min(limit, cap)
    out = []
    j = 1
    while limit is None or j <= limit:
        t_j = injection_time(config.schedule, j)
        if t_j > t_end:
            break
        out.append(t_j)
        j += 1
    return out


@dataclass(frozen=True, eq=False)
class _Timeline:
    """The rows every run of a config shares: the columns ``event``, ``t``, ``k``
    and ``n`` of ``MomentSeries``."""

    event: tuple[str, ...]
    t: np.ndarray
    k: np.ndarray
    n: np.ndarray


def _timeline(config: SimConfig) -> _Timeline:
    t_end = _end_time(config.schedule, config.horizon, config.max_agents)
    arrivals = _arrival_times(config, t_end)

    # Grid times coinciding with an arrival are dropped: the pre/post pair
    # already records that instant (post = right-continuous value).
    grid = []
    for g in sorted(set(float(g) for g in config.record_grid)):
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
    return _Timeline(tuple(event), np.array(t), k, config.schedule.n0 + applied)


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
    validate_sim_config(config)
    tl = _timeline(config)
    arrivals = tl.event.count("post_jump")
    x_new = np.stack([_draw_incoming(config.source, np.random.default_rng(s), arrivals)
                      for s in seeds])
    engine = _affine_block if config.kernel.kind == "constant" else _particle_block
    cols = engine(config, tl, x_new)
    cols["x_new"] = x_new
    return tl, cols


def _particle_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """Each replica on the opinions themselves, one after the other: RK4 between
    events, an appended row at each arrival, every row from ``compute_moments``."""
    kernel, m = config.kernel, config.source.mean_vector
    replicas, rows = x_new.shape[0], tl.t.size
    cols = {"m1": np.empty((replicas, rows, config.dim))}
    cols.update((name, np.empty((replicas, rows)))
                for name in ("m2", "v", "w", "dissipation", "d_integral"))

    def write_row(i: int, state: SimState, q: float) -> None:
        rec = compute_moments(state, kernel, m)
        cols["m1"][r, i], cols["m2"][r, i], cols["v"][r, i] = rec.m1, rec.m2, rec.v
        cols["w"][r, i], cols["dissipation"][r, i], cols["d_integral"][r, i] = (
            rec.w, rec.dissipation, q)

    times = tl.t.tolist()
    for r in range(replicas):
        try:
            state = SimState(t=0.0, k=0, opinions=config.initial_opinions.copy(),
                             dim=config.dim)
            q = 0.0
            write_row(0, state, q)
            for i in range(1, rows):
                if tl.event[i] == "post_jump":
                    state = inject_agent(state, x_new[r, tl.k[i] - 1], times[i])
                else:
                    state, dq = _integrate(state, kernel, times[i], config.step_max)
                    q += dq
                write_row(i, state, q)
        except RuntimeError as err:
            raise _ReplicaError(r, str(err)) from err
    return cols


def _affine_block(config: SimConfig, tl: _Timeline, x_new: np.ndarray) -> dict:
    """The constant kernel's replicas at once, as x_i = a + g z_i (see the module
    docstring): O(d) work per replica and event."""
    c = config.kernel.coef[0]
    m = config.source.mean_vector
    replicas, _, d = x_new.shape
    x0 = config.initial_opinions
    n = x0.shape[0]
    rows = tl.t.size

    # pivot about x0[0], so a population in exact consensus has z = 0
    dev = x0 - x0[0]
    z = np.empty((replicas, n + x_new.shape[1], d))
    z[:, :n] = dev
    a = np.tile(x0[0], (replicas, 1))
    s1 = np.tile(dev.sum(axis=0), (replicas, 1))
    s2 = np.full(replicas, float((dev * dev).sum()))
    _recentre(z, n, a, 1.0, s1, s2)
    g, t, audits, n_check = 1.0, 0.0, 0, 2 * n
    # the state at each row; the moments are computed from it after the loop
    a_row, s1_row = np.empty((replicas, rows, d)), np.empty((replicas, rows, d))
    s2_row, g_row = np.empty((replicas, rows)), np.empty(rows)
    times, event, k = tl.t.tolist(), tl.event, tl.k.tolist()

    for i in range(rows):
        if event[i] == "post_jump":
            zn = (x_new[:, k[i] - 1] - a) / g
            z[:, n] = zn
            s1 += zn
            s2 += _sq(zn)
            n += 1
            if n >= n_check:
                _recentre(z, n, a, g, s1, s2)
                n_check = 2 * n
        elif times[i] > t:
            a += (-math.expm1(-c * (times[i] - t)) * g / n) * s1
            g *= math.exp(-c * (times[i] - t))
            if g < _G_FLOOR:
                g = _renormalise(z[:, :n], g, s1, s2)
            t = times[i]
        a_row[:, i], s1_row[:, i], s2_row[:, i], g_row[i] = a, s1, s2, g
        # every replica at the last row, one in turn at each grid record
        if i == rows - 1:
            for r in range(replicas):
                _audit(config, t, r, a, g, z[:, :n], s1, s2)
        elif i and event[i] == "record":
            _audit(config, t, audits % replicas, a, g, z[:, :n], s1, s2)
            audits += 1

    # in place, to hold few (replicas, rows) arrays at once: s1_row becomes
    # S1/n, s2_row V = g^2 (S2/n - |S1/n|^2) and a_row m1 = a + g S1/n, the
    # operations of the audit's V, in its order
    s1_row /= tl.n[:, None]
    v = s2_row
    v /= tl.n
    v -= _sq(s1_row)
    v *= g_row * g_row
    s1_row *= g_row[:, None]
    m1 = a_row
    m1 += s1_row
    del s1_row
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


def _audit(config: SimConfig, t: float, r: int, a: np.ndarray, g: float, z: np.ndarray,
           s1: np.ndarray, s2: np.ndarray) -> None:
    """Materialises replica r's opinions a + g z and checks its affine V against
    ``compute_moments`` (with its own self-checks) on them; a mismatch beyond
    1e-12 relative, with a floor of 1e-15 max(1, m2), raises ``_ReplicaError``."""
    state = SimState(t=float(t), k=0, opinions=a[r] + g * z[r], dim=config.dim)
    try:
        rec = compute_moments(state, config.kernel, config.source.mean_vector)
    except RuntimeError as err:
        raise _ReplicaError(r, str(err)) from err
    n = z.shape[1]
    v = float((s2[r] / n - _sq(s1[r] / n)) * (g * g))
    if not abs(rec.v - v) <= max(_AUDIT_RTOL * abs(v), _AUDIT_ATOL * max(1.0, rec.m2)):
        raise _ReplicaError(r, f"audit at t={state.t!r}: affine V={v!r}, "
                               f"materialised V={rec.v!r}")


def _recentre(z: np.ndarray, n: int, a: np.ndarray, g: float, s1: np.ndarray,
              s2: np.ndarray) -> None:
    """Moves the pivot of each replica whose first n z's have drifted off centre,
    |S1/n|^2 > _RECENTRE var z, to its m1: a <- a + g S1/n and z <- z - S1/n in
    place, leaving every opinion a + g z as it is, and the sums recomputed."""
    # |S1/n|^2 > K (S2/n - |S1/n|^2), multiplied through by n^2
    far = _sq(s1) * (1.0 + _RECENTRE) > (_RECENTRE * n) * s2
    for r in np.flatnonzero(far):
        shift = s1[r] / n
        a[r] += g * shift
        z[r, :n] -= shift
        _resum(z[:, :n], s1, s2, r)


def _renormalise(z: np.ndarray, g: float, s1: np.ndarray, s2: np.ndarray) -> float:
    """z <- g z in place, leaving every opinion a + g z as it is; returns the new
    g, 1.0, with each replica's sums recomputed."""
    z *= g
    for r in range(z.shape[0]):
        _resum(z, s1, s2, r)
    return 1.0


def _resum(z: np.ndarray, s1: np.ndarray, s2: np.ndarray, r: int) -> None:
    """Replica r's S1 and S2 from its z's, by the same reductions whatever the block."""
    s1[r] = z[r].sum(axis=0)
    s2[r] = (z[r] * z[r]).sum()
