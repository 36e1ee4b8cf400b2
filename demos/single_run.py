"""One growing-population run, start to finish.

Ten agents start spread over [-1, 1]; newcomers drawn from a Gaussian
source arrive on a power-exponential schedule while everyone relaxes
toward the local mean under a rational-decay kernel.  The script prints
the moment table at the record grid and, when matplotlib is importable,
saves a two-panel figure of V(t) and W(t) with the arrival times marked.

Run:  python3 demos/single_run.py
"""

import numpy as np

import growpop as gp


def main() -> None:
    sched = gp.PowerExponentialSchedule(alpha=0.8, n0=10)
    horizon = gp.injection_time(sched, 40)  # stop right at the 40th arrival
    config = gp.SimConfig(
        dim=1,
        kernel=gp.rational_kernel(a=0.4, b=1.2),
        schedule=sched,
        source=gp.gaussian_source(0.0, 0.5),
        initial_opinions=np.linspace(-1.0, 1.0, 10).reshape(10, 1),
        step_max=5e-3,
        horizon=horizon,
        record_grid=gp.uniform_record_grid(horizon, horizon / 24),
    )
    series = gp.run_simulation(config, seed=3)

    is_record = np.array(series.event) == "record"
    t = series.t[is_record]
    print(f"{'t':>8} {'N':>5} {'m1':>9} {'m2':>9} {'V':>10} {'W':>10}")
    for i in np.flatnonzero(is_record):
        print(f"{series.t[i]:8.3f} {series.n[i]:5d} {series.m1[i, 0]:9.4f} "
              f"{series.m2[i]:9.4f} {series.v[i]:10.3e} {series.w[i]:10.3e}")
    print(f"\nfinal population {series.n[-1]}, V = {series.v[-1]:.3e}, "
          f"{len(series.injection_pairs)} arrivals")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    fig, axes = plt.subplots(2, 1, sharex=True, figsize=(7, 6))
    for ax, values, label in (
        (axes[0], series.v[is_record], "V(t)"),
        (axes[1], series.w[is_record], "W(t)"),
    ):
        ax.semilogy(t, values, "o-", ms=3)
        for t_k in series.t[np.array(series.event) == "post_jump"]:
            ax.axvline(t_k, color="0.85", lw=0.5, zorder=0)
        ax.set_ylabel(label)
    axes[1].set_xlabel("t")
    fig.suptitle("dispersion under growth: arrivals kick V up, the flow pulls it down")
    fig.tight_layout()
    fig.savefig("single_run.png", dpi=120)
    print("wrote single_run.png")


if __name__ == "__main__":
    main()
