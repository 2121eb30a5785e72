"""Tests of the benchmark itself, at the smoke size.

Run from the repository root with ``python3 -m pytest bench/tests -q``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run_bench  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 7

# Per-layer metrics each workload must exercise (nonzero at the smoke size).
EXERCISED = {
    "tracking": ["pair.ar1-lms.us_per_step", "pair.ar1-idbd.us_per_step", "envs.ar1.step_us",
                 "agents.idbd.update_us", "infotheory.closed_form_calls_per_step",
                 "infotheory.delta_star.us", "core.self_us_per_step", "rng.bulk_draws_per_kstep"],
    "bandit_series": ["pair.ar1_bandit-ts.us_per_step", "pair.ar1_bandit-ps.us_per_step",
                      "agents.ps.act_us", "envs.ar1_bandit.step_us", "core.series_points_per_trial",
                      "rng.child_calls_per_trial", "sweep.trial_ms.tail"],
    "mdp_sweep": ["pair.goal_mdp-optimistic_q.us_per_step", "envs.goal_mdp.resample_events_per_kstep",
                  "mdp_tools.goal_reward_scale.calls_per_kstep", "mdp_tools.goal_reward_scale.share",
                  "agents.optimistic_q.update_us"],
    "analytic": ["infotheory.stability_errors.calls", "infotheory.stability_errors.ms_p99",
                 "infotheory.joint_dim_mean", "infotheory.delta_star.us", "experiments.self_s"],
}
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


@functools.lru_cache(maxsize=None)
def _bench(workload: str, trace: int, run: int = 0):
    """(exit code, last-line JSON) of one smoke run; ``run`` tells repeats apart."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run_bench.py"), "--workload", workload, "--size", "smoke",
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_end_to_end_metrics_present_with_units(workload):
    code, out = _bench(workload, 0)
    assert code == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_metrics_present_with_units(workload):
    code, out = _bench(workload, 1)
    assert code == 0
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == _declared("per_layer")
    for name in EXERCISED[workload]:
        assert out["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", ["tracking", "mdp_sweep"])
def test_counts_repeat_exactly(workload):
    first, second = _bench(workload, 1, 0)[1], _bench(workload, 1, 1)[1]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_reference_with_one_altered_digit_fails_the_run(tmp_path, capsys):
    shutil.copytree(BENCH / "reference", tmp_path / "reference")
    csv = tmp_path / "reference" / "smoke" / "analytic" / "fig8_optimal_alpha.csv"
    lines = csv.read_text().splitlines(keepends=True)
    row = lines[4]
    i = next(i for i, ch in enumerate(row) if ch.isdigit() and ch != "9")
    lines[4] = row[:i] + str(int(row[i]) + 1) + row[i + 1:]
    csv.write_text("".join(lines))

    code = run_bench.main(["--workload", "analytic", "--size", "smoke", "--seconds", "1"],
                          reference_dir=tmp_path / "reference")
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert out["correct"] is False
    assert out["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_failure_notes_count_unmodelled_trials_once_per_cell():
    text = "\n".join([
        "# experiment: x",
        "a,b,metric,mean,std,ci95,trials,error",
        "1,2,average_reward,0.5,0.1,0.1,3,2/5 trials failed (NumericError: boom)",
        "1,2,other,0.5,0.1,0.1,3,2/5 trials failed (NumericError: boom)",
        "1,3,average_reward,0.5,0.1,0.1,4,1/5 trials failed (DegenerateMdpError: goal, unreachable)",
        "2,3,average_reward,0.5,0.1,0.1,5,",
    ])
    assert run_bench._unmodelled_failures(text) == 2


def test_tail_percentile_leaves_ten_samples_beyond():
    assert tracing.tail_percentile(4000) == 99.5
    assert tracing.tail_percentile(252) == 95.0
    assert tracing.tail_percentile(84) == 75.0
    assert tracing.percentile([1.0, 2.0, 3.0], 50) == 2.0
