"""How fast can the population grow before consensus fails?

For injection times t_j = (ln(n0 + j))^{1/alpha} everything hinges on the
condition sums S(lambda, n) = sum_k (1/k) exp(-lambda (t_n - t_k)):
consensus needs them to vanish, and they do exactly when alpha < 1.  The
script classifies a sweep of alpha values, prints S along n for one
schedule in each regime, and shows the boundary family t_k = ln k where
S(lambda, n) has simple closed forms (exactly 1 for lambda = 1).  It
ends with the comparison integral F(p, rate, x) whose x -> infinity
limit separates the same regimes on the continuum side.

Run:  python3 demos/growth_conditions.py
"""

import numpy as np

import growpop as gp


def main() -> None:
    kernel = gp.rational_kernel(a=0.5, b=0.5)
    print("schedule classification (kernel bounds "
          f"psi_* = {kernel.psi_star}, psi_max = {kernel.psi_max}):")
    for alpha in (0.25, 0.5, 0.9, 1.0, 1.1, 2.0):
        verdict = gp.classify_schedule(alpha, kernel.psi_star, kernel.psi_max)
        print(f"  alpha = {alpha:4.2f}  ->  {verdict.value}")

    print("\ncondition sums S(lambda = psi_*, n) along n:")
    header = f"{'n':>8}" + "".join(f"  alpha={a:<6}" for a in (0.5, 1.5))
    print(header)
    for n in (10, 100, 1000, 10_000, 100_000):
        cells = []
        for alpha in (0.5, 1.5):
            sched = gp.PowerExponentialSchedule(alpha=alpha, n0=1)
            cells.append(f"{gp.condition_sum(kernel.psi_star, sched, n):12.4e}")
        print(f"{n:8d}" + "".join(cells))
    print("alpha = 0.5 decays (consensus), alpha = 1.5 does not.")

    print("\nboundary family t_k = ln k:")
    times = gp.asymptotic_injection_times(1.0)
    for lam in (1.0, 2.0):
        s = gp.condition_sum(lam, times, 100_000)
        limit = 1.0 / lam
        print(f"  S({lam}, 1e5) = {s:.12f}   (n -> inf limit {limit:.12f})")

    print("\ncomparison integral F(p, 1, x):")
    print(f"{'x':>6} {'p=0.5':>12} {'p=1':>12} {'p=2':>12}")
    for x in (1.0, 10.0, 30.0, 50.0):
        row = [gp.dawson_f(p, 1.0, x) for p in (0.5, 1.0, 2.0)]
        print(f"{x:6.1f} " + " ".join(f"{v:12.6f}" for v in row))
    print("p < 1 diverges, p = 1 saturates at 1/rate, p > 1 decays -- the\n"
          "continuum shadow of the three schedule classes above.")


if __name__ == "__main__":
    main()
