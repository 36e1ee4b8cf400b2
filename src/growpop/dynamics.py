"""All-to-all averaging dynamics with scheduled arrivals.

Between arrivals every opinion relaxes toward the others under the coupled
system

    dx_i/dt = (1/N) sum_j psi(|x_j - x_i|) (x_j - x_i),

advanced from each event to the next. At each scheduled time t_k the flow
stops on the instant, one newcomer is appended (existing opinions untouched),
and the flow resumes with N+1 agents. A run is fully deterministic given
(config, seed): fixed update sequence, fixed reduction order, one source draw
per arrival.

The force of a constant kernel collapses to c*(mean - x_i), and its flow is
exact: x_i(t) = m1 + (x_i(s) - m1) e^{-c(t-s)}, one O(N) update per interval
whatever its length, so step_max does not enter. Any other kernel is
integrated with classical Runge-Kutta 4 at a fixed step, the last one
shortened to land exactly on the endpoint. The step is step_max, capped at
RK4's real-axis stability limit for the kernel's certified psi_max. Its force
goes through the pair weights W_ij = psi(|x_j - x_i|), built a tile of rows at
a time: with y = x - x[0], row i of the force is ((W y)_i - (sum_j W_ij) y_i)
/ N, one matrix product per tile, so a force evaluation holds O(N * tile)
memory whatever the dimension d. The same tiles give the dissipation D at
each RK4 stage, and Simpson's rule over the stages gives each step's integral
of D, which every run records (``d_integral``): the witness of the energy
balance d(m2)/dt = D between arrivals.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .kernels import Kernel, _pair_tiles
from .observables import MomentSeries, compute_moments
from .schedules import GrowthSchedule, final_injection_count, injection_time
from .sources import OpinionSource, sample_incoming

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
    the constant kernel, whose integral ``run_simulation`` takes in closed form."""
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
    """Record times dt, 2*dt, ... capped at and including t_end."""
    if not (dt > 0.0) or not (t_end > 0.0):
        raise ValueError(f"dt must be > 0 with t_end > 0, got dt = {dt}, t_end = {t_end}")
    pts = [i * dt for i in range(1, int(math.floor(t_end / dt)) + 1)]
    if not pts or pts[-1] < t_end:
        pts.append(t_end)
    return tuple(pts)


def geometric_record_grid(t_first: float, t_end: float, points: int) -> tuple[float, ...]:
    """Geometrically spaced record times from t_first to t_end inclusive."""
    if not (0.0 < t_first <= t_end):
        raise ValueError(f"t_first must lie in (0, t_end = {t_end}], got {t_first}")
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
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
    if not isinstance(config.dim, int) or config.dim < 1:
        raise ValueError(f"dim must be an integer >= 1, got {config.dim!r}")
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
        n0 = schedule.n0
        if not isinstance(max_agents, int) or max_agents < n0:
            raise ValueError(f"max_agents must be an integer >= n0 = {n0}, got {max_agents!r}")
        k_needed = max_agents - n0
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


def run_simulation(config: SimConfig, seed: int) -> MomentSeries:
    """One deterministic trajectory of the full hybrid system.

    Returns the moment stream: a record at t = 0, one at every grid time and a
    pre/post pair straddling every arrival; the flow stops at the last row.
    Identical (config, seed) reproduce the series bit for bit.
    """
    validate_sim_config(config)
    rng = np.random.default_rng(seed)
    kernel, source, schedule = config.kernel, config.source, config.schedule
    m = source.mean_vector

    t_end = _end_time(schedule, config.horizon, config.max_agents)
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

    events = sorted(
        [(g, "record", 0) for g in grid]
        + [(t_j, "inject", j + 1) for j, t_j in enumerate(arrivals)]
    )

    # one row at t = 0, one per grid time, two per arrival
    event = ["record"]
    for _, tag, _ in events:
        event += ["record"] if tag == "record" else ["pre_jump", "post_jump"]
    rows, d = len(event), config.dim
    series = MomentSeries(
        t=np.empty(rows), event=tuple(event), k=np.empty(rows, dtype=np.int64),
        n=np.empty(rows, dtype=np.int64), m1=np.empty((rows, d)), m2=np.empty(rows),
        v=np.empty(rows), w=np.empty(rows), dissipation=np.empty(rows),
        x_new=np.empty((len(arrivals), d)), target_mean=m, seed=int(seed),
        n0=schedule.n0, dim=d, d_integral=np.empty(rows),
    )

    def write_row(i: int, k: int, state: SimState, q: float) -> int:
        rec = compute_moments(state, kernel, m)
        series.t[i], series.k[i], series.n[i], series.m1[i] = rec.t, k, rec.n, rec.m1
        series.m2[i], series.v[i], series.w[i] = rec.m2, rec.v, rec.w
        series.dissipation[i], series.d_integral[i] = rec.dissipation, q
        return i + 1

    state = SimState(t=0.0, k=0, opinions=config.initial_opinions.copy(), dim=config.dim)
    q = 0.0
    i = write_row(0, 0, state, q)
    for t_ev, tag, j in events:
        state, dq = _integrate(state, kernel, t_ev, config.step_max)
        q += dq
        i = write_row(i, j if tag == "inject" else state.k, state, q)
        if tag == "inject":
            series.x_new[j - 1] = sample_incoming(source, rng)
            state = inject_agent(state, series.x_new[j - 1], t_ev)
            i = write_row(i, j, state, q)
    if kernel.kind == "constant":
        # D = -2cV and V decays as e^{-2c t}, so an interval adds V_a (e^{-2c span}
        # - 1), V_a the V of the row it starts from; a pre/post pair adds exactly 0
        steps = series.v[:-1] * np.expm1(-2.0 * kernel.coef[0] * np.diff(series.t))
        np.cumsum(steps, out=series.d_integral[1:])
    return series
