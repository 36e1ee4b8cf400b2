"""Arrival jumps: simulation vs closed forms.

Every arrival moves the moments by an amount that is pure bookkeeping --
no integration involved.  This script runs 200 arrivals in d = 3,
compares each observed jump of (m1, m2, V) against predict_jumps, and
prints the worst discrepancy (machine epsilon if the integrator lands on
arrival times exactly).  It then tabulates c_k = (k + 2 n0)(k - 1)/(n0 + k)^2,
the weight of the source variance sigma2 in the expected jump of V at
arrival k:

    E[V jump at arrival k] = (c_k sigma2 - E V-)/(n0 + k) + O(1/(n0 + k)^2),

where V- is the variance just before the arrival.

Run:  python3 demos/jump_formulas.py
"""

import numpy as np

import growpop as gp

N0 = 4


def main() -> None:
    rng = np.random.default_rng(11)
    config = gp.SimConfig(
        dim=3,
        kernel=gp.constant_kernel(0.6),
        schedule=gp.PowerExponentialSchedule(alpha=0.6, n0=N0),
        source=gp.uniform_source((0.2, -0.1, 0.0), 0.75),
        initial_opinions=rng.normal(0.0, 1.0, size=(N0, 3)),
        step_max=0.02,
        max_agents=N0 + 200,
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

    print("\nweight c_k of sigma2 in the expected V jump at arrival k (n0 = 4):")
    print(f"{'k':>6} {'c_k':>10}")
    for k in (1, 2, 5, 10, 50, 200, 1000):
        print(f"{k:6d} {gp.variance_jump_coefficient(k, N0):10.6f}")
    print("E[V jump at arrival k] = (c_k sigma2 - E V-)/(n0 + k) + O(1/(n0 + k)^2);"
          "\nc_1 = 0, and c_k rises to 1 as the population grows.")


if __name__ == "__main__":
    main()
