"""Ensemble statistics against the closed forms.

A 150-run ensemble of a growing population, single founder at the source
mean.  The squared deviation of the running mean from the source mean
then has an exact expectation k sigma^2 / (n0 + k)^2, and E[V(t_n)] is
dominated by the exponential-decay-plus-jumps envelope.  The script
checks both, printing z-scores and the envelope margin, and saves a
figure when matplotlib is importable.

Run:  python3 demos/consensus_ensemble.py        (about 1 s)
"""

import numpy as np

import growpop as gp

N0 = 1
SIGMA2 = 1.0
RUNS = 150


def main() -> None:
    sched = gp.PowerExponentialSchedule(alpha=0.5, n0=N0)
    config = gp.SimConfig(
        dim=1,
        kernel=gp.constant_kernel(1.0),
        schedule=sched,
        source=gp.gaussian_source(0.0, SIGMA2),
        initial_opinions=np.zeros((N0, 1)),
        step_max=1e-2,
        max_agents=N0 + 300,
    )
    stats = gp.run_ensemble(config, runs=RUNS, master_seed=12)

    print(f"E|m1 - m|^2 vs k sigma^2 / (n0 + k)^2, {RUNS} runs:")
    print(f"{'k':>6} {'ensemble':>12} {'closed form':>12} {'z':>7}")
    for k in (5, 20, 100, 300):
        mean, err = gp.ensemble_statistic(stats, "m1_dev", at_k=k)
        exact = gp.expected_m1_deviation(N0, k, np.zeros(1), np.zeros(1), SIGMA2)
        print(f"{k:6d} {mean:12.5f} {exact:12.5f} {(mean - exact) / err:+7.2f}")

    # Envelope: decay at the kernel floor between arrivals, sigma^2/k jumps.
    spec = gp.EnvelopeSpec(decay_rate=config.kernel.psi_star, y0=0.0,
                           jump_bound=gp.HarmonicScaled(c=SIGMA2))
    print("\nE[V(t_n)] under the decay-plus-jumps envelope:")
    print(f"{'n':>6} {'E[V]':>12} {'envelope':>12}")
    for n in (20, 100, 300):
        mean_v, _ = gp.ensemble_statistic(stats, "v", at_k=n)
        print(f"{n:6d} {mean_v:12.5f} {gp.envelope_bound(spec, sched, n):12.5f}")

    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the figure")
        return

    ks = np.arange(1, 301)
    dev = np.array([gp.ensemble_statistic(stats, "m1_dev", at_k=k)[0] for k in ks])
    exact = np.array([gp.expected_m1_deviation(N0, k, np.zeros(1), np.zeros(1), SIGMA2)
                      for k in ks])
    fig, ax = plt.subplots(figsize=(7, 4.5))
    ax.loglog(ks, dev, label=f"ensemble mean ({RUNS} runs)")
    ax.loglog(ks, exact, "--", label="closed form")
    ax.set_xlabel("arrivals k")
    ax.set_ylabel(r"E |m1 - m|^2")
    ax.legend()
    fig.tight_layout()
    fig.savefig("consensus_ensemble.png", dpi=120)
    print("\nwrote consensus_ensemble.png")


if __name__ == "__main__":
    main()
