"""The benchmark's workloads: which registered experiments each one runs, and
at what size.

Sizes only override an experiment's own ``trials`` / ``horizon`` (or its grid
resolution for the analytic studies); cell parameters stay at the registered
defaults. ``full`` is what the benchmark measures; ``smoke`` runs every
workload in seconds for the benchmark's own tests.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Experiment:
    name: str
    sizes: dict  # size name -> run_experiment overrides
    cells: int | None = None  # Monte Carlo cells; None for analytic studies

    def overrides(self, size: str, seed: int | None) -> dict:
        out = dict(self.sizes[size])
        if seed is not None:
            out["seed"] = seed
        return out

    def trials(self, size: str) -> int:
        return self.cells * self.sizes[size]["trials"]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple[Experiment, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tracking",
            "long AR(1) trajectories in few large cells: the per-step loop of rng/core/envs/agents "
            "and IDBD's per-step closed forms, where trial-batched kernels must show their gain",
            (
                Experiment("fig2_lms_sweep", {"full": {"trials": 4, "horizon": 40_000},
                                              "smoke": {"trials": 1, "horizon": 1_000}}, cells=19),
                Experiment("fig9_idbd", {"full": {"trials": 4, "horizon": 50_000},
                                         "smoke": {"trials": 2, "horizon": 400}}, cells=2),
            ),
        ),
        # Not declared in BENCHMARK.json (see bench/README.md); run it by hand.
        Workload(
            "bandit_series",
            "short T=200 bandit trials recorded at stride 1: per-trial stream derivation, build, "
            "prefill, pool-per-cell dispatch and series payloads dominate",
            (
                Experiment("fig13_ps_vs_ts_time", {"full": {"trials": 1_000},
                                                   "smoke": {"trials": 20}}, cells=2),
            ),
        ),
        Workload(
            "mdp_sweep",
            "126 goal-MDP cells of 2 trials: one-trial payloads, replanning on every row resample, "
            "and pairs that stay on the scalar path",
            (
                Experiment("fig15_mdp_alpha", {"full": {"trials": 2, "horizon": 2_000},
                                               "smoke": {"trials": 2, "horizon": 200}}, cells=126),
            ),
        ),
        Workload(
            "analytic",
            "no simulation and no pool: dense Gaussian conditional-MI kernels of infotheory "
            "(stability_errors, cubic in K up to 512)",
            (
                Experiment("fig7_errors_vs_alpha", {"full": {"grid_points": 20},
                                                    "smoke": {"grid_points": 3}}),
                Experiment("fig8_optimal_alpha", {"full": {"alpha_step": 0.02},
                                                  "smoke": {"alpha_step": 0.1}}),
            ),
        ),
    )
}

SIZES = ("full", "smoke")
