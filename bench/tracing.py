"""Per-layer tracing for the benchmark, recorded from the benchmark's side.

Nothing under ``src/`` is edited: :func:`traced_run` replaces module
attributes of ``contilab`` (the names its callers look up at call time) with
timing wrappers, runs the workload serially in this process, and reports
aggregates. Two passes exist because per-step proxies distort the step loop:

- ``spans``: spans at module boundaries that fire per cell, per trial, per
  kernel call or per block refill (sweep, build, core.run_trajectory, rng,
  mdp_tools, infotheory, output, experiments).
- ``proxies``: the same spans plus proxies around every env ``step`` /
  ``reward`` / ``reset``, agent ``act`` / ``update`` / ``reset`` and the
  agents' per-step calls of the infotheory closed forms. Only aggregates are
  kept for those.

A span is (id, name, start, end, parent id); self time is its duration minus
the durations of its direct children. Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import itertools
import math
import statistics
import time

_PERF = time.perf_counter

# Percentiles considered for a tail; the highest one with >= 10 samples
# beyond it is reported.
_TAIL_CANDIDATES = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)

ENV_KINDS = ("ar1", "ar1_bandit", "goal_mdp")
AGENT_KINDS = ("lms", "idbd", "ts", "ps", "optimistic_q")
PAIRS = ("ar1-lms", "ar1-idbd", "ar1_bandit-ts", "ar1_bandit-ps", "goal_mdp-optimistic_q")


class Tracer:
    """In-memory span recorder with per-name aggregates.

    ``agg[name]`` is [calls, total_s, self_s, direct_children]. Wrappers made
    with ``keep=False`` update only the aggregates (used per step).
    """

    def __init__(self):
        self.stack = [[0.0, 0, -1]]  # frames: [child time, child count, span id]
        self.spans: list[tuple] = []
        self.agg: dict[str, list] = {}
        self._ids = itertools.count()

    def wrap(self, name, fn, keep=True):
        stack, spans, ids = self.stack, self.spans, self._ids
        slot = self.agg.setdefault(name, [0, 0.0, 0.0, 0])

        def wrapped(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, 0, next(ids) if keep else -1]
            stack.append(frame)
            t0 = _PERF()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _PERF()
                stack.pop()
                d = t1 - t0
                parent[0] += d
                parent[1] += 1
                slot[0] += 1
                slot[1] += d
                slot[2] += d - frame[0]
                slot[3] += frame[1]
                if keep:
                    spans.append((frame[2], name, t0, t1, parent[2]))

        return wrapped

    def durations(self, name) -> list[float]:
        return [s[3] - s[2] for s in self.spans if s[1] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid, name, t0, t1, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile of a nonempty sequence."""
    xs = sorted(values)
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """Highest candidate percentile that leaves at least 10 of ``n`` samples beyond it."""
    for q in _TAIL_CANDIDATES:
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 50.0


class _Proxy:
    """Env or agent stand-in whose per-step methods report to the tracer."""

    def __init__(self, inner, prefix, methods, tracer):
        self._inner = inner
        for m in methods:
            setattr(self, m, tracer.wrap(f"{prefix}.{m}", getattr(inner, m), keep=False))

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _Recorder:
    """Per-trial facts gathered around build_env / build_agent / run_trajectory."""

    def __init__(self):
        self.trial_start = 0.0
        self.env_kind = self.agent_kind = ""
        self.env_detail = ""
        self.trials = 0
        self.steps = 0
        self.ok = 0
        self.series_points = 0
        self.degenerate = 0
        self.goal_mdp_steps = 0
        self.resample_events = 0
        self.trial_s: list[float] = []
        self.pairs: dict[str, list] = {}  # pair -> [run_trajectory seconds, steps] of ok trials
        self.joint_dims: list[int] = []
        self.harness_steps: dict[tuple, int] = {}  # (T, record_series, probe) -> steps


def _install(tracer: Tracer, rec: _Recorder, proxies: bool):
    from contilab import agents, envs, experiments, infotheory, rng, sweep
    from contilab.errors import DegenerateMdpError

    wrap = tracer.wrap
    for name in ("monte_carlo_sweep", "run_trials"):
        setattr(experiments, name, wrap(f"sweep.{name}", getattr(experiments, name)))
    for name in ("write_results_csv", "write_config_resolved"):
        setattr(experiments, name, wrap(f"output.{name}", getattr(experiments, name)))
    for name in ("total_stability_error", "delta_star", "delta_star_sq_grad", "optimal_alpha"):
        setattr(infotheory, name, wrap(f"infotheory.{name}", getattr(infotheory, name)))

    stability = wrap("infotheory.stability_errors", infotheory.stability_errors)
    horizon = infotheory.default_future_horizon

    def stability_errors(alpha, eta, sigma, delta, future=None):
        rec.joint_dims.append((horizon(eta) if future is None else future) + 3)
        return stability(alpha, eta, sigma, delta, future)

    infotheory.stability_errors = stability_errors

    envs.goal_reward_scale = wrap("mdp_tools.goal_reward_scale", envs.goal_reward_scale)
    rng.RngStream.child = wrap("rng.child", rng.RngStream.child)
    generator = wrap("rng.generator", rng.RngStream.generator)
    bulk = wrap("rng.bulk", lambda method, *args, **kwargs: method(*args, **kwargs))

    class TimedGenerator:
        """Generator stand-in that times the bulk draws the package makes."""

        __slots__ = ("_gen",)

        def __init__(self, gen):
            self._gen = gen

        def standard_normal(self, *args, **kwargs):
            return bulk(self._gen.standard_normal, *args, **kwargs)

        def random(self, *args, **kwargs):
            return bulk(self._gen.random, *args, **kwargs)

        def gamma(self, *args, **kwargs):
            return bulk(self._gen.gamma, *args, **kwargs)

        def beta(self, *args, **kwargs):
            return bulk(self._gen.beta, *args, **kwargs)

        def __getattr__(self, name):
            return getattr(self._gen, name)

    rng.RngStream.generator = lambda self: TimedGenerator(generator(self))

    build_env = wrap("sweep.build_env", sweep.build_env)
    build_agent = wrap("sweep.build_agent", sweep.build_agent)
    run = wrap("core.run_trajectory", sweep.run_trajectory)

    def traced_build_env(spec):
        rec.trial_start = _PERF()
        rec.env_kind = spec["kind"]
        rec.env_detail = f"{spec['kind']}(resample={spec['resample_prob']})" \
            if "resample_prob" in spec else spec["kind"]
        env = build_env(spec)
        if proxies:
            env = _Proxy(env, f"envs.{spec['kind']}", ("reset", "step", "reward"), tracer)
        return env

    def traced_build_agent(spec):
        rec.agent_kind = spec["kind"]
        agent = build_agent(spec)
        if proxies:
            agent = _Proxy(agent, f"agents.{spec['kind']}", ("reset", "act", "update"), tracer)
        return agent

    def run_trajectory(env, agent, T, stream, **kwargs):
        summary = None
        try:
            summary = run(env, agent, T, stream, **kwargs)
            return summary
        except DegenerateMdpError:
            rec.degenerate += 1
            raise
        finally:
            span = tracer.spans[-1]
            rec.trials += 1
            rec.steps += T
            key = (T, kwargs.get("record_series", True), hasattr(agent, "diagnostics"))
            rec.harness_steps[key] = rec.harness_steps.get(key, 0) + T
            rec.trial_s.append(span[3] - rec.trial_start)
            if rec.env_kind == "goal_mdp":
                rec.goal_mdp_steps += T
                rec.resample_events += env.resample_events
            if summary is not None:
                rec.ok += 1
                rec.series_points += len(summary.reward_series or ())
                for pair in (f"{rec.env_kind}-{rec.agent_kind}",
                             f"{rec.env_detail}-{rec.agent_kind}"):
                    slot = rec.pairs.setdefault(pair, [0.0, 0])
                    slot[0] += span[3] - span[2]
                    slot[1] += T

    sweep.build_env = traced_build_env
    sweep.build_agent = traced_build_agent
    sweep.run_trajectory = run_trajectory

    if proxies:
        for name in ("delta_star", "delta_star_sq_grad"):
            setattr(agents, name, wrap(f"infotheory.{name}.agent", getattr(agents, name), keep=False))


# Positional arguments of each proxied call, for the calibration below.
_ARITY = {"reset": 1, "step": 1, "reward": 2, "act": 0, "update": 3,
          "delta_star": 4, "delta_star_sq_grad": 4}


def _calibrate(n: int = 20_000, repeats: int = 5) -> dict:
    """Costs of a keep=False wrapper around an empty callee, per arity, as
    [floor, extra] seconds per call (medians of ``repeats`` loops). ``floor``
    is the duration the wrapper reports for the empty callee; ``extra`` is
    what it adds to its caller beyond a direct call and that duration."""

    def noop(*args):
        return None

    out = {}
    for arity in sorted(set(_ARITY.values())):
        args = (0.0,) * arity
        floors, extras = [], []
        for _ in range(repeats):
            tracer = Tracer()
            wrapped = tracer.wrap("noop", noop, keep=False)
            t0 = _PERF()
            for _ in range(n):
                noop(*args)
            bare = _PERF() - t0
            t0 = _PERF()
            for _ in range(n):
                wrapped(*args)
            inner = tracer.agg["noop"][1]
            floors.append(inner / n)
            extras.append((_PERF() - t0 - bare - inner) / n)
        out[arity] = [statistics.median(floors), statistics.median(extras)]
    return out


class _NullEnv:
    def reset(self, stream):
        pass

    def step(self, action):
        return 0.0

    def reward(self, action, observation):
        return 0.0


class _NullAgent:
    def reset(self, stream):
        pass

    def act(self):
        return 0.0

    def update(self, action, observation, reward):
        pass


class _ProbedNullAgent(_NullAgent):
    def diagnostics(self):
        return {"probe": 0.0}


class _NullStream:
    def child(self, *tags):
        return self


def _harness_s_per_step(T: int, record_series: bool, probe: bool,
                        min_steps: int = 200_000) -> float:
    """Seconds per step that ``run_trajectory`` itself spends at horizon ``T``
    with the given series settings, measured by driving it with no-op env and
    agent stand-ins (median over repeats covering ``min_steps`` steps)."""
    from contilab.core import run_trajectory  # the untraced function

    agent = _ProbedNullAgent() if probe else _NullAgent()
    times = []
    for _ in range(max(3, -(-min_steps // T))):
        t0 = _PERF()
        run_trajectory(_NullEnv(), agent, T, _NullStream(), record_series=record_series)
        times.append(_PERF() - t0)
    return statistics.median(times) / T


def traced_run(runs, pass_name: str, spans_path: str) -> dict:
    """Run ``runs`` ([name, overrides, out_dir], ...) serially under a tracer."""
    from contilab import experiments

    if pass_name not in ("spans", "proxies"):
        raise ValueError(f"unknown trace pass {pass_name!r}")
    proxies = pass_name == "proxies"
    calibration = _calibrate() if proxies else {}
    tracer = Tracer()
    rec = _Recorder()
    _install(tracer, rec, proxies)
    run = tracer.wrap("experiments.run_experiment", experiments.run_experiment)
    t0 = _PERF()
    for name, overrides, out_dir in runs:
        run(name, overrides, out_dir, workers=1)
    wall = _PERF() - t0
    tracer.write(spans_path)

    harness_s = 0.0 if proxies else sum(steps * _harness_s_per_step(*key)
                                        for key, steps in rec.harness_steps.items())

    def durations_ms(name):
        return [d * 1e3 for d in tracer.durations(name)]

    return {
        "wall_s": wall,
        "calibration": calibration,
        "harness_s": harness_s,
        "agg": tracer.agg,
        "trials": rec.trials,
        "ok_trials": rec.ok,
        "steps": rec.steps,
        "series_points": rec.series_points,
        "degenerate_trials": rec.degenerate,
        "goal_mdp_steps": rec.goal_mdp_steps,
        "resample_events": rec.resample_events,
        "trial_ms": [d * 1e3 for d in rec.trial_s],
        "pairs": rec.pairs,
        "joint_dims": rec.joint_dims,
        "stability_ms": durations_ms("infotheory.stability_errors"),
        "goal_reward_scale_ms": durations_ms("mdp_tools.goal_reward_scale"),
    }


def _calls(agg, name):
    return agg.get(name, [0, 0.0, 0.0, 0])[0]


def _total(agg, name):
    return agg.get(name, [0, 0.0, 0.0, 0])[1]


def _mean_us(agg, *names):
    calls = sum(_calls(agg, n) for n in names)
    return sum(_total(agg, n) for n in names) / calls * 1e6 if calls else 0.0


def _method(name: str) -> str:
    parts = name.split(".")
    return parts[-2] if parts[-1] == "agent" else parts[-1]


def _body_s(agg, cal, name) -> float:
    """Total seconds in a proxied callee's own code: its measured durations
    less the wrapper's floor per call and, per proxied call it made itself,
    the floor and extra cost of that inner wrapper."""
    calls, total, _, children = agg.get(name, [0, 0.0, 0.0, 0])
    floor = cal[_ARITY[_method(name)]][0]
    nested = sum(cal[_ARITY["delta_star"]])
    return total - calls * floor - children * nested


def _proxied_us(agg, cal, *names):
    """Mean microseconds per call in the code of proxied callees."""
    calls = sum(_calls(agg, n) for n in names)
    return sum(_body_s(agg, cal, n) for n in names) / calls * 1e6 if calls else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans: dict, proxies: dict, serial_wall: float, parallel_wall: float) -> dict:
    """Per-layer metric values from the two traced passes and the untraced
    serial and 2-worker walls of the same workload at the same seed."""
    s, p = spans["agg"], proxies["agg"]
    steps, trials = spans["steps"], spans["trials"]
    m = {
        "rng.child_us": _mean_us(s, "rng.child"),
        "rng.child_calls_per_trial": _ratio(_calls(s, "rng.child"), trials),
        "rng.bulk_draw_us": _mean_us(s, "rng.bulk"),
        "rng.bulk_draws_per_kstep": _ratio(_calls(s, "rng.bulk") * 1e3, steps),
    }
    cal = {int(k): v for k, v in proxies["calibration"].items()}
    m["core.self_us_per_step"] = _ratio(spans["harness_s"] * 1e6, steps)
    m["core.series_points_per_trial"] = _ratio(spans["series_points"], spans["ok_trials"])
    for kind in ENV_KINDS:
        m[f"envs.{kind}.step_us"] = _proxied_us(p, cal, f"envs.{kind}.step")
        m[f"envs.{kind}.reward_us"] = _proxied_us(p, cal, f"envs.{kind}.reward")
    m["envs.goal_mdp.resample_events_per_kstep"] = _ratio(
        spans["resample_events"] * 1e3, spans["goal_mdp_steps"])
    m["envs.goal_mdp.degenerate_trials"] = spans["degenerate_trials"]
    for kind in AGENT_KINDS:
        m[f"agents.{kind}.act_us"] = _proxied_us(p, cal, f"agents.{kind}.act")
        m[f"agents.{kind}.update_us"] = _proxied_us(p, cal, f"agents.{kind}.update")

    stab = spans["stability_ms"]
    m["infotheory.stability_errors.calls"] = len(stab)
    m["infotheory.stability_errors.ms_p50"] = percentile(stab, 50) if stab else 0.0
    m["infotheory.stability_errors.ms_p99"] = percentile(stab, 99) if stab else 0.0
    dims = spans["joint_dims"]
    m["infotheory.joint_dim_mean"] = _ratio(sum(dims), len(dims))
    m["infotheory.delta_star.us"] = _proxied_us(p, cal, "infotheory.delta_star", "infotheory.delta_star.agent")
    m["infotheory.delta_star_sq_grad.us"] = _proxied_us(
        p, cal, "infotheory.delta_star_sq_grad", "infotheory.delta_star_sq_grad.agent")
    m["infotheory.closed_form_calls_per_step"] = _ratio(
        _calls(p, "infotheory.delta_star.agent") + _calls(p, "infotheory.delta_star_sq_grad.agent"),
        proxies["steps"])

    grs = spans["goal_reward_scale_ms"]
    m["mdp_tools.goal_reward_scale.calls_per_kstep"] = _ratio(len(grs) * 1e3, steps)
    m["mdp_tools.goal_reward_scale.ms_p50"] = percentile(grs, 50) if grs else 0.0
    m["mdp_tools.goal_reward_scale.share"] = _ratio(
        _total(s, "mdp_tools.goal_reward_scale"), _total(s, "core.run_trajectory"))

    trial_ms = spans["trial_ms"]
    tail = tail_percentile(len(trial_ms))
    m["sweep.build_us"] = _ratio((_total(s, "sweep.build_env") + _total(s, "sweep.build_agent")) * 1e6,
                                 trials)
    m["sweep.trial_ms.p50"] = percentile(trial_ms, 50) if trial_ms else 0.0
    m["sweep.trial_ms.tail"] = percentile(trial_ms, tail) if trial_ms else 0.0
    m["sweep.trial_ms.tail_pct"] = tail if trial_ms else 0.0
    m["sweep.trials"] = trials
    m["sweep.parallel_speedup"] = _ratio(serial_wall, parallel_wall)
    for pair in PAIRS:
        secs, n = spans["pairs"].get(pair, (0.0, 0))
        m[f"pair.{pair}.us_per_step"] = _ratio(secs * 1e6, n)

    m["experiments.self_s"] = s["experiments.run_experiment"][2]
    m["output.write_ms"] = (_total(s, "output.write_results_csv")
                            + _total(s, "output.write_config_resolved")) * 1e3
    m["trace.overhead_frac"] = spans["wall_s"] / serial_wall - 1.0
    m["trace.proxy_overhead_frac"] = proxies["wall_s"] / serial_wall - 1.0
    return m
