"""Mean-interaction opinion dynamics with a growing population.

A simulation and numerical-analysis toolkit for symmetric averaging dynamics
in which new agents arrive on a deterministic schedule: exact integrators
between arrivals, closed-form arrival jump laws, condition sums and integral
transforms that decide consensus, envelope bounds for decayed recursions, and
reproducible parallel Monte Carlo.
"""

from .kernels import (
    Kernel,
    constant_kernel,
    rational_kernel,
)
from .schedules import (
    ExplicitSchedule,
    GrowthSchedule,
    PowerExponentialSchedule,
    final_injection_count,
    injection_time,
    population_at,
)
from .sources import (
    OpinionSource,
    gaussian_source,
    sample_incoming,
    two_point_source,
    uniform_source,
)
from .observables import (
    InjectionJump,
    JumpPrediction,
    MeanDeviationExpectation,
    MomentRecord,
    MomentSeries,
    SeriesRow,
    compute_moments,
    dissipation_of,
    expected_m1_deviation,
    m1_closed_form,
    predict_jumps,
    variance_jump_coefficient,
)
from .dynamics import (
    ContractViolationError,
    SimConfig,
    SimState,
    geometric_record_grid,
    inject_agent,
    integrate_interval,
    rhs,
    run_simulation,
    uniform_record_grid,
)
from .analysis import (
    AsymptoticTimes,
    ClassificationError,
    DecayFit,
    EnvelopeSpec,
    ExplicitJumps,
    HarmonicScaled,
    RateBounds,
    ScheduleClass,
    asymptotic_injection_times,
    classify_schedule,
    condition_sum,
    dawson_f,
    envelope_bound,
    fit_decay_exponent,
    consensus_rate_bounds,
)
from .montecarlo import (
    EnsembleStats,
    derive_run_seed,
    ensemble_statistic,
    estimated_jump_means,
    run_ensemble,
)

__version__ = "0.1.0"

__all__ = [
    "Kernel", "constant_kernel", "rational_kernel",
    "PowerExponentialSchedule", "ExplicitSchedule", "GrowthSchedule",
    "injection_time", "population_at", "final_injection_count",
    "OpinionSource", "gaussian_source", "uniform_source", "two_point_source",
    "sample_incoming",
    "MomentRecord", "MomentSeries", "SeriesRow", "InjectionJump",
    "JumpPrediction", "MeanDeviationExpectation", "compute_moments",
    "dissipation_of", "predict_jumps", "m1_closed_form",
    "expected_m1_deviation", "variance_jump_coefficient",
    "SimConfig", "SimState", "ContractViolationError", "rhs",
    "integrate_interval", "inject_agent", "run_simulation",
    "uniform_record_grid", "geometric_record_grid",
    "AsymptoticTimes", "asymptotic_injection_times", "condition_sum",
    "dawson_f", "ScheduleClass", "ClassificationError", "classify_schedule",
    "HarmonicScaled", "ExplicitJumps", "EnvelopeSpec", "envelope_bound",
    "DecayFit", "fit_decay_exponent", "RateBounds", "consensus_rate_bounds",
    "EnsembleStats", "derive_run_seed", "run_ensemble", "ensemble_statistic",
    "estimated_jump_means",
]
