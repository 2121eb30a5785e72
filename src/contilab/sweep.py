"""Experiment cells, their seeded Monte Carlo trials, and the rows those become.

Runners build their grids as plain lists of cells (:class:`ExperimentConfig`).
Trial i of a cell draws from its own stream keyed by (seed, a content hash of
the cell's env/agent/horizon spec, i), so its numbers do not depend on the
other cells in a call, their order, the worker count or the batch it lands
in. :func:`run_trials` is the one executor: the batches of all its cells run
serially or in one process pool per call. Only the modelled failures,
``NumericError`` and ``DegenerateMdpError``, are recorded as failed trials;
any other exception (a bad config, a bug) aborts the call.

:func:`cell_rows` is the one aggregation step: it turns one cell's trial
results into its :class:`SweepRow` rows. :func:`monte_carlo_sweep` is
``run_trials`` then ``cell_rows`` with every metric the agents report;
runners that plot series (fig9, fig13) call the two themselves.

Kernels: ``_KERNELS`` holds one :class:`Kernel` record per (env kind, agent
kind) pair with a trial kernel:

    ("ar1", "lms")                  -> core.run_lockstep        no series
    ("goal_mdp", "optimistic_q")    -> core.run_goal_lockstep   no series
    ("ar1", "idbd")                 -> core.run_idbd_trials     with series

:func:`_plan` is the one place that routes trials. It builds each cell's env
and agent once, so a bad spec or mismatched spaces raises
``ConfigurationError`` before any trial runs, and pools the trials of all
cells per (pair, horizon, env observation space, env action space): every
goal-MDP pool has one (n_states, n_actions) shape. A pool goes to its pair's
kernel when the pair has a record, the kernel records series or the call
records none, and its payloads reach the record's ``min_trials`` (the
break-even); it is then split round robin into
``max(workers, ceil(n / 256))`` payloads, so each holds a share of every cell
and of its cost. Every other pool runs on ``run_trajectory`` and keeps
4 * workers payloads of contiguous trials per cell: on 2 cores the kernel
split made bitflip_demo slower (median 1.51 -> 1.55 s over 10 runs).

:func:`_run_batch` is the one worker entry point. It hands the kernel only
the trials whose built env and agent are exactly the record's classes (a
subclass, or a wrapper a build hook puts around a single trial, could change
the arithmetic the kernel reproduces), and puts the results back in trial
order. Every other trial, and every None a kernel returns (a non-finite
value), runs on ``run_trajectory``, so failures carry the scalar path's
exact error text; a trial not built for a kernel is built right before it
runs (holding a payload's built trials cost 7-15% on fig13, fig14 and
bitflip_demo). Kernels read each trial's draws in DrawBuffer's layout
(``rng.reset_blocks``); their summaries and modelled failures equal
``run_trajectory``'s.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .agents import IdbdAgent, LmsAgent, OptimisticQAgent, build_agent
from .core import (TrajectorySummary, check_spaces, run_goal_lockstep, run_idbd_trials,
                   run_lockstep, run_trajectory, series_steps)
from .envs import Ar1ScalarEnv, GoalMdpEnv, build_env
from .errors import ConfigurationError, DegenerateMdpError, NumericError
from .rng import RngStream

_Z95 = 1.959963984540054
_LOCKSTEP_TRIALS = 256  # most trials one lockstep payload advances together


@dataclass(frozen=True)
class Kernel:
    """A trial kernel and the trials it may run.

    ``run(envs, agents, T, streams)`` returns per trial its summary, its
    modelled failure, or None (run it on ``run_trajectory``); with ``series``
    it also takes ``record_series=True``. ``min_trials`` is the fewest trials
    per payload at which it beats ``run_trajectory``: below it, the kernel's
    fixed cost per step (one numpy call per operation) dominates.
    """

    env_cls: type
    agent_cls: type
    run: Callable
    min_trials: int
    series: bool

    def takes(self, env, agent) -> bool:
        return type(env) is self.env_cls and type(agent) is self.agent_cls


_KERNELS = {
    ("ar1", "lms"): Kernel(Ar1ScalarEnv, LmsAgent, run_lockstep, 5, False),
    ("goal_mdp", "optimistic_q"): Kernel(GoalMdpEnv, OptimisticQAgent, run_goal_lockstep, 8,
                                         False),
    # a per-trial loop: no fixed cost to amortize
    ("ar1", "idbd"): Kernel(Ar1ScalarEnv, IdbdAgent, run_idbd_trials, 1, True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: an env spec and an agent spec run for ``trials``
    seeded trials of ``horizon`` steps. ``coords`` labels the cell's rows
    (the CSV columns before the metric) and is not part of the cell's key.
    """

    env: dict
    agent: dict
    horizon: int
    trials: int = 1
    seed: int = 0
    coords: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigurationError(f"horizon must be >= 1, got {self.horizon}")
        if self.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {self.trials}")

    def canonical_key(self) -> str:
        """Content hash input: stable JSON of everything that defines a cell."""
        return json.dumps(
            {"env": self.env, "agent": self.agent, "horizon": self.horizon},
            sort_keys=True, separators=(",", ":"),
        )


@dataclass
class TrialResult:
    index: int
    summary: TrajectorySummary | None
    error: str | None = None


@dataclass
class SweepRow:
    """One (cell coordinates, metric) aggregate of a Monte Carlo sweep."""

    coords: dict
    metric: str
    mean: float
    std: float
    ci95: float
    trials: int
    error: str | None = None


@dataclass
class SweepTable:
    rows: list[SweepRow]

    def select(self, metric: str, **coords) -> list[SweepRow]:
        out = []
        for row in self.rows:
            if row.metric != metric:
                continue
            if all(row.coords.get(k) == v for k, v in coords.items()):
                out.append(row)
        return out

    def best_row(self, metric: str, **coords) -> SweepRow:
        """The selected row with the largest finite mean."""
        rows = [r for r in self.select(metric, **coords) if math.isfinite(r.mean)]
        if not rows:
            raise ValueError(f"no finite rows for metric {metric!r}")
        return max(rows, key=lambda r: r.mean)


def resolve_workers(requested: int | None = None) -> int:
    """Worker count: ``requested``, else (None) the cpu count, capped by
    CONTILAB_THREADS; a request or a cap below 1 is a ``ConfigurationError``."""
    if requested is not None and requested < 1:
        raise ConfigurationError(f"workers must be >= 1, got {requested}")
    workers = requested or os.cpu_count() or 1
    cap = os.environ.get("CONTILAB_THREADS")
    if cap:
        try:
            cap = int(cap)
        except ValueError:
            raise ConfigurationError(f"CONTILAB_THREADS must be an integer, got {cap!r}") from None
        if cap < 1:
            raise ConfigurationError(f"CONTILAB_THREADS must be >= 1, got {cap}")
        workers = min(workers, cap)
    return workers


def _trial_stream(base_seed: int, cell_key: str, trial: int) -> RngStream:
    return RngStream(base_seed).child("trial", cell_key, trial)


def _failed(i: int, exc: Exception) -> TrialResult:
    return TrialResult(i, None, f"{type(exc).__name__}: {exc}")


def _run_batch(payload):
    """Worker entry point: run one payload's trials, given as (env spec, agent
    spec, cell key, seed, trial index), on ``pair``'s kernel or, with None,
    on ``run_trajectory``."""
    pair, horizon, trials, record_series = payload
    built, summaries = [None] * len(trials), [None] * len(trials)
    if pair is not None:
        kernel = _KERNELS[pair]
        built = [(build_env(env), build_agent(agent), _trial_stream(seed, key, i))
                 for env, agent, key, seed, i in trials]
        idx = [j for j, (env, agent, _) in enumerate(built) if kernel.takes(env, agent)]
        if idx:
            envs, agents, streams = (list(x) for x in zip(*(built[j] for j in idx)))
            got = (kernel.run(envs, agents, horizon, streams, record_series=True)
                   if record_series else kernel.run(envs, agents, horizon, streams))
            for j, summary in zip(idx, got):
                summaries[j] = summary
    results = []
    for (env_spec, agent_spec, key, seed, i), trial, summary in zip(trials, built, summaries):
        if summary is None:
            try:  # a trial not built yet is built right before it runs
                env, agent, stream = trial or (build_env(env_spec), build_agent(agent_spec),
                                               _trial_stream(seed, key, i))
                summary = run_trajectory(env, agent, horizon, stream,
                                         record_series=record_series)
            except (NumericError, DegenerateMdpError) as exc:
                summary = exc
        results.append(_failed(i, summary) if isinstance(summary, Exception)
                       else TrialResult(i, summary))
    return results


def _plan(cells, workers: int, record_series: bool):
    """Payloads of one run_trials call, each with the cell of every result it
    returns. Builds each cell's env and agent once: a bad spec or mismatched
    spaces raises ``ConfigurationError`` here, before any payload runs."""
    keys = [cfg.canonical_key() for cfg in cells]
    pools: dict[tuple, list[int]] = {}  # (pair, horizon, spaces) -> cells, in order
    for c, cfg in enumerate(cells):
        env, agent = build_env(cfg.env), build_agent(cfg.agent)
        check_spaces(env, agent)
        pair = (cfg.env.get("kind"), cfg.agent.get("kind"))
        spaces = (getattr(env, "observation_space", None), getattr(env, "action_space", None))
        pools.setdefault((pair, cfg.horizon, spaces), []).append(c)
    payloads, owners = [], []
    for (pair, horizon, _), members in pools.items():
        kernel = _KERNELS.get(pair)
        pooled = [(c, i) for c in members for i in range(cells[c].trials)]
        k = min(len(pooled), max(workers, -(-len(pooled) // _LOCKSTEP_TRIALS)))
        if (kernel is None or (record_series and not kernel.series)
                or len(pooled) // k < kernel.min_trials):
            pair, parts = None, []
            for c in members:  # contiguous trial ranges, 4 per worker
                n = cells[c].trials
                chunk = max(1, -(-n // (workers * 4)))
                parts += [[(c, i) for i in range(lo, min(lo + chunk, n))]
                          for lo in range(0, n, chunk)]
        else:  # round robin: every payload gets a share of every cell
            parts = [pooled[j::k] for j in range(k)]
        for part in parts:
            payloads.append((pair, horizon, [(cells[c].env, cells[c].agent, keys[c],
                                              cells[c].seed, i) for c, i in part],
                             record_series))
            owners.append([c for c, _ in part])
    return payloads, owners


def run_trials(cells, *, workers: int | None = None,
               record_series: bool = False) -> list[list[TrialResult]]:
    """Run every trial of every cell; returns each cell's results in trial order.

    The batches of all cells run serially with one worker (or one batch),
    else in a single process pool. See the module docstring for the
    kernels.
    """
    w = resolve_workers(workers)
    payloads, owners = _plan(cells, w, record_series)
    if w == 1 or len(payloads) == 1:
        batches = map(_run_batch, payloads)
    else:
        with ProcessPoolExecutor(max_workers=w) as pool:
            try:
                batches = list(pool.map(_run_batch, payloads))
            except BaseException:  # abort now: drop the batches not yet started
                pool.shutdown(cancel_futures=True)
                raise
    out: list[list] = [[None] * cfg.trials for cfg in cells]
    for cell_of, batch in zip(owners, batches):
        for c, result in zip(cell_of, batch):
            out[c][result.index] = result
    return out


def aggregate(values: list[float]) -> tuple[float, float, float]:
    """Mean, sample std and 95% normal-theory CI half-width of ``values``."""
    n = len(values)
    mean = math.fsum(values) / n
    if n == 1:
        return mean, 0.0, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    std = math.sqrt(var)
    return mean, std, _Z95 * std / math.sqrt(n)


def cell_rows(coords: dict, results, metrics=None, series=()) -> list[SweepRow]:
    """One cell's rows: per ``(metric, diagnostic)`` of ``series``, the mean
    over the successful trials of the running average reward (``diagnostic``
    None) or of that diagnostic at each step "t"; then an :func:`aggregate`
    row per name in ``metrics`` (None: every metric reported, sorted). Each
    row notes "k/n trials failed (first error)" if a trial failed. A cell
    with no successful trial gives one NaN row, named after the first metric
    ("average_reward" for None), else the first series metric."""
    ok = [r.summary for r in results if r.error is None]
    failed = [r.error for r in results if r.error is not None]
    note = f"{len(failed)}/{len(results)} trials failed ({failed[0]})" if failed else None
    if not ok:
        metric = "average_reward" if metrics is None else (metrics or [series[0][0]])[0]
        nan = float("nan")
        return [SweepRow(dict(coords), metric, nan, nan, nan, 0, note)]
    rows = []
    for metric, diagnostic in series:
        means = np.array([s.reward_series if diagnostic is None else s.diagnostics[diagnostic]
                          for s in ok]).mean(axis=0)
        rows += [SweepRow({**coords, "t": t}, metric, float(m), 0.0, 0.0, 0, note)
                 for t, m in zip(series_steps(ok[0].horizon), means)]
    for metric in sorted(ok[0].metrics) if metrics is None else metrics:
        rows.append(SweepRow(dict(coords), metric, *aggregate([s.metrics[metric] for s in ok]),
                             len(ok), note))
    return rows


def monte_carlo_sweep(cells, *, workers: int | None = None) -> SweepTable:
    """:func:`cell_rows` of every cell's seeded trials, every metric per cell."""
    cells = list(cells)
    return SweepTable([row for cfg, results in zip(cells, run_trials(cells, workers=workers))
                       for row in cell_rows(cfg.coords, results)])
