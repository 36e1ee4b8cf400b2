"""Arrival jumps: simulation vs closed forms, and the exact expected jump.

Every arrival moves the moments by an amount that is pure bookkeeping --
no integration involved.  This script runs 1000 arrivals in d = 3,
compares each observed jump of (m1, m2, V) against predict_jumps, and
prints the worst discrepancy (machine epsilon if the integrator lands on
arrival times exactly).  It then tabulates, from expected_moments, the
exact E V just before and just after arrival k, and their difference, the
exact expected jump:

    E[V jump at arrival k] = (n (sigma2 + e_{k-1}) / (n + 1) - E V-) / (n + 1),

where n = n0 + k - 1 agents are present before the arrival, V- is the
variance just before it and e_{k-1} = E|m1 - m|^2 after k - 1 arrivals.

Run:  python3 demos/jump_formulas.py
"""

import numpy as np

import growpop as gp

N0 = 4
ARRIVALS = 1000


def main() -> None:
    rng = np.random.default_rng(11)
    config = gp.SimConfig(
        kernel=gp.constant_kernel(0.6),
        schedule=gp.PowerExponentialSchedule(alpha=0.6, n0=N0),
        source=gp.uniform_source((0.2, -0.1, 0.0), 0.75),
        initial_opinions=rng.normal(0.0, 1.0, size=(N0, 3)),
        step_max=0.02,
        max_agents=N0 + ARRIVALS,
    )
    series = gp.run_simulation(config, seed=5)

    worst = 0.0
    for jump in series.injection_pairs:
        pred = gp.predict_jumps(jump.pre, jump.x_new, jump.k, N0)
        worst = max(
            worst,
            float(np.abs((jump.post.m1 - jump.pre.m1) - pred.dm1).max()),
            abs((jump.post.m2 - jump.pre.m2) - pred.dm2),
            abs((jump.post.v - jump.pre.v) - pred.dv),
        )
    print(f"{len(series.injection_pairs)} arrivals, "
          f"worst |observed - predicted| jump component: {worst:.2e}")

    # the exact expectations sit on the rows of the run, so its tags index them
    ev, _ = gp.expected_moments(config)
    event = np.array(series.event)
    print(f"\nexact E V around arrival k (n0 = {N0}, sigma2 = {config.source.sigma2}):")
    print(f"{'k':>6} {'E V before':>12} {'E V after':>12} {'E jump':>12}")
    for k in (1, 2, 5, 10, 50, 200, 1000):
        pre = np.flatnonzero((event == "pre_jump") & (series.k == k))[0]
        print(f"{k:6d} {ev[pre]:12.6f} {ev[pre + 1]:12.6f} {ev[pre + 1] - ev[pre]:12.3e}")


if __name__ == "__main__":
    main()
