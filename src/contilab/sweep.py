"""Experiment cells, their seeded Monte Carlo trials, and the rows those become.

Runners build their grids as plain lists of cells (:class:`ExperimentConfig`),
each naming the rows it reports. Trial i of a cell draws from its own stream
keyed by (seed, a content hash of the cell's env/agent/horizon spec, i), so
its numbers do not depend on the other cells in a call, their order, the
worker count or the batch it lands in. :func:`run_trials` is the one
executor: the batches of all its cells run serially or in one process pool
per call. Only the modelled failures, ``NumericError`` and
``DegenerateMdpError``, are recorded as failed trials; any other exception (a
bad config, a bug) aborts the call. :func:`cell_rows` is the one aggregation
step, and :func:`monte_carlo_sweep` is ``run_trials`` then ``cell_rows``.
A cell's rows are one :class:`SweepRow` per metric and one :class:`SeriesRow`
per series: its recorded steps and the per-step means as one ``array('d')``,
which ``output.write_results_csv`` expands into one CSV line a step.

Kernels: ``_KERNELS`` maps a pool key, (exact env class, exact agent class,
whether the cells report series), to the trial kernel that reproduces that
pool's arithmetic. Each is called as ``run(envs, agents, T, streams)`` and
returns per trial its summary, its modelled failure, or None:

    (Ar1ScalarEnv, LmsAgent, False)        -> core.run_lockstep
    (GoalMdpEnv, OptimisticQAgent, False)  -> core.run_goal_lockstep
    (Ar1ScalarEnv, IdbdAgent, False)       -> core.run_idbd_trials
    (Ar1ScalarEnv, IdbdAgent, True)        -> core.run_idbd_trials, record_series=True

:func:`_plan` makes the one routing decision. It builds each cell's env and
agent once, so a bad spec or mismatched spaces raises ``ConfigurationError``
before any trial runs, and pools the trials of all cells per (pool key,
horizon, env spaces): every goal-MDP pool has one (n_states, n_actions)
shape. A pool whose key is in ``_KERNELS`` goes to that kernel, whatever its
size; it is then split round robin into ``max(workers, ceil(n / 256))``
payloads, so each holds a share of every cell and of its cost. A subclass,
or a build a hook wraps (the benchmark's per-layer proxies), could change the
arithmetic a kernel reproduces and has no key, so its whole cell runs on
``run_trajectory``. Every pool that runs there keeps 4 * workers payloads of
contiguous trials per cell: on 2 cores the kernel split made bitflip_demo
slower (median 1.51 -> 1.55 s over 10 runs).

:func:`_run_batch` is the one worker entry point. It runs every trial of a
kernel payload on the kernel and puts the results back in trial order. Every
None a kernel returns (a non-finite value), and every trial of a scalar
payload, runs on ``run_trajectory``, so failures carry the scalar path's
exact error text; each such trial is built afresh right before it runs
(holding a payload's built trials cost 7-15% on fig13, fig14 and
bitflip_demo). Kernels read each trial's draws in DrawBuffer's layout
(``rng.reset_blocks``); their summaries and modelled failures equal
``run_trajectory``'s.
"""

from __future__ import annotations

import json
import math
import os
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .agents import IdbdAgent, LmsAgent, OptimisticQAgent, build_agent
from .core import (TrajectorySummary, check_spaces, run_goal_lockstep, run_idbd_trials,
                   run_lockstep, run_trajectory, series_steps)
from .envs import Ar1ScalarEnv, GoalMdpEnv, build_env
from .errors import ConfigurationError, DegenerateMdpError, NumericError
from .rng import RngStream

_Z95 = 1.959963984540054
_LOCKSTEP_TRIALS = 256  # most trials one lockstep payload advances together


_KERNELS = {
    (Ar1ScalarEnv, LmsAgent, False): run_lockstep,
    (GoalMdpEnv, OptimisticQAgent, False): run_goal_lockstep,
    (Ar1ScalarEnv, IdbdAgent, False): run_idbd_trials,
    (Ar1ScalarEnv, IdbdAgent, True): partial(run_idbd_trials, record_series=True),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: an env spec and an agent spec run for ``trials``
    seeded trials of ``horizon`` steps, reporting the rows its ``coords``
    label (the CSV columns before the metric): its ``metrics`` (None: every
    one) and ``series``, ``(metric, diagnostic)`` pairs (see :func:`cell_rows`);
    a cell reports at least one. A cell with series has no coord "t", the
    column of their steps. None of the three is part of the cell's key."""

    env: dict
    agent: dict
    horizon: int
    trials: int = 1
    seed: int = 0
    coords: dict = field(default_factory=dict)
    metrics: tuple | None = None
    series: tuple = ()

    def __post_init__(self):
        for name in ("horizon", "trials", "seed"):
            value = getattr(self, name)
            if type(value) is not int:  # not bool, float or a numpy scalar
                raise ConfigurationError(f"{name} must be an int, got {value!r}")
            if value < 1 and name != "seed":  # RngStream masks a negative seed
                raise ConfigurationError(f"{name} must be >= 1, got {value}")
        if self.metrics is not None and not self.metrics and not self.series:
            raise ConfigurationError(f"cell {self.coords} reports no metric and no series")
        if self.series and "t" in self.coords:
            raise ConfigurationError(f"cell {self.coords} reports a series, so it has no coord 't'")

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
class SeriesRow:
    """One (cell coordinates, series) of a Monte Carlo sweep: the mean over
    the cell's successful trials at each recorded step. It stands for one CSV
    line a step, with the step in column "t" and std, ci95 and trials 0."""

    coords: dict
    metric: str
    steps: list[int]
    means: array  # array('d'), one per step
    error: str | None = None


@dataclass
class SweepTable:
    rows: list[SweepRow | SeriesRow]

    def select(self, metric: str, **coords) -> list[SweepRow | SeriesRow]:
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
    spec, cell key, seed, trial index), on the kernel of pool key ``key`` or,
    with None, on ``run_trajectory``."""
    key, horizon, trials, record_series = payload
    summaries = [None] * len(trials)
    if key is not None:
        built = [(build_env(env), build_agent(agent), _trial_stream(seed, cell_key, i))
                 for env, agent, cell_key, seed, i in trials]
        envs, agents, streams = (list(x) for x in zip(*built))
        summaries = _KERNELS[key](envs, agents, horizon, streams)
    results = []
    for (env, agent, cell_key, seed, i), summary in zip(trials, summaries):
        if summary is None:
            try:
                summary = run_trajectory(build_env(env), build_agent(agent), horizon,
                                         _trial_stream(seed, cell_key, i),
                                         record_series=record_series)
            except (NumericError, DegenerateMdpError) as exc:
                summary = exc
        results.append(_failed(i, summary) if isinstance(summary, Exception)
                       else TrialResult(i, summary))
    return results


def _plan(cells, workers: int):
    """Payloads of one run_trials call, each with the cell of every result it
    returns. Builds each cell's env and agent once: a bad spec or mismatched
    spaces raises ``ConfigurationError`` here, before any payload runs."""
    keys = [cfg.canonical_key() for cfg in cells]
    pools: dict[tuple, list[int]] = {}  # (pool key, horizon, spaces) -> cells, in order
    for c, cfg in enumerate(cells):
        env, agent = build_env(cfg.env), build_agent(cfg.agent)
        check_spaces(env, agent)
        key = (type(env), type(agent), bool(cfg.series))
        spaces = (getattr(env, "observation_space", None), getattr(env, "action_space", None))
        pools.setdefault((key, cfg.horizon, spaces), []).append(c)
    payloads, owners = [], []
    for (key, horizon, _), members in pools.items():
        record_series = key[2]
        if key not in _KERNELS:
            key, parts = None, []
            for c in members:  # contiguous trial ranges, 4 per worker
                n = cells[c].trials
                chunk = max(1, -(-n // (workers * 4)))
                parts += [[(c, i) for i in range(lo, min(lo + chunk, n))]
                          for lo in range(0, n, chunk)]
        else:  # round robin: every payload gets a share of every cell
            pooled = [(c, i) for c in members for i in range(cells[c].trials)]
            k = min(len(pooled), max(workers, -(-len(pooled) // _LOCKSTEP_TRIALS)))
            parts = [pooled[j::k] for j in range(k)]
        for part in parts:
            payloads.append((key, horizon, [(cells[c].env, cells[c].agent, keys[c],
                                             cells[c].seed, i) for c, i in part],
                             record_series))
            owners.append([c for c, _ in part])
    return payloads, owners


def run_trials(cells, *, workers: int | None = None) -> list[list[TrialResult]]:
    """Run every trial of every cell, with series for the cells that report
    any; returns each cell's results in trial order. The batches of all cells
    run serially with one worker (or at most one batch), else in a single
    process pool; see the module docstring for the kernels."""
    w = resolve_workers(workers)
    payloads, owners = _plan(cells, w)
    if w == 1 or len(payloads) <= 1:
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


def cell_rows(cfg: ExperimentConfig, results) -> list[SweepRow | SeriesRow]:
    """The rows of cell ``cfg``: per ``(metric, diagnostic)`` of its ``series``
    a :class:`SeriesRow` of the mean over the successful trials of the running
    average reward (``diagnostic`` None) or of that diagnostic at each
    recorded step; then an :func:`aggregate` row per name in its ``metrics``
    (None: every metric reported, sorted). Each row notes "k/n trials failed
    (first error)" if a trial failed. A cell with no successful trial gives
    one NaN row, named after the first metric ("average_reward" for None),
    else the first series metric. A metric or diagnostic that the first
    successful trial does not report is a ``ConfigurationError``."""
    ok = [r.summary for r in results if r.error is None]
    failed = [r.error for r in results if r.error is not None]
    note = f"{len(failed)}/{len(results)} trials failed ({failed[0]})" if failed else None
    if not ok:
        metric = "average_reward" if cfg.metrics is None else (cfg.metrics or [cfg.series[0][0]])[0]
        return [SweepRow(dict(cfg.coords), metric, math.nan, math.nan, math.nan, 0, note)]
    first = ok[0]
    unknown = [m for m in cfg.metrics or () if m not in first.metrics]
    unknown += [d for _, d in cfg.series if d is not None and d not in first.diagnostics]
    if unknown:
        raise ConfigurationError(
            f"cell {cfg.coords} asks for {', '.join(map(repr, unknown))}; its trials report "
            f"metrics {sorted(first.metrics)} and diagnostics {sorted(first.diagnostics)}")
    rows, steps = [], series_steps(first.horizon)
    for metric, diagnostic in cfg.series:
        means = np.array([s.reward_series if diagnostic is None else s.diagnostics[diagnostic]
                          for s in ok]).mean(axis=0)
        rows.append(SeriesRow(dict(cfg.coords), metric, steps, array("d", means.tobytes()), note))
    for metric in sorted(first.metrics) if cfg.metrics is None else cfg.metrics:
        rows.append(SweepRow(dict(cfg.coords), metric, *aggregate([s.metrics[metric] for s in ok]),
                             len(ok), note))
    return rows


def monte_carlo_sweep(cells, *, workers: int | None = None) -> SweepTable:
    """:func:`cell_rows` of every cell's seeded trials."""
    cells = list(cells)
    return SweepTable([row for cfg, results in zip(cells, run_trials(cells, workers=workers))
                       for row in cell_rows(cfg, results)])
