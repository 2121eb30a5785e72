"""contilab benchmark: time to solution of registered experiments, measured
from outside the program, plus a traced per-layer split.

Usage (from the repository root):

    python3 bench/run_bench.py --workload NAME [--seed N] [--seconds S]
                               [--trace 0|1] [--size full|smoke]

Every timed run is a fresh interpreter (``bench/child.py``) that calls
``contilab.experiments.run_experiment`` for the workload's experiments with
2 workers; wall time comes from the child, CPU and peak RSS from the rusage
of the reaped child, workers included. ``--seed`` replaces every
experiment's seed and defaults to each experiment's own.

Each run checks outputs twice. At the experiments' default seeds every
``results.csv`` must match the stored reference byte for byte. At ``--seed``
every timed repetition must write the bytes of the first one; a traced run
instead requires its 2-worker run and both traced passes to write the bytes
of a serial untraced run. The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a failed check makes
the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

WORKERS = 2
MIN_REPS = 3
BUDGET_S = 170.0  # every run must end within 180 s
_FAILED_NOTE = re.compile(r"(\d+)/\d+ trials failed \((\w+)")
_MODELLED_FAILURES = {"DegenerateMdpError"}


def _load_metric_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def _git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class Bench:
    """One benchmark run: spawns and reaps children, checks their outputs and
    keeps the operation counts and a record of every child."""

    def __init__(self, workload, size, seed, out_dir, reference_dir):
        self.workload = workload
        self.size = size
        self.seed = seed
        self.out = out_dir
        self.reference = reference_dir / size / workload.name
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.versions: dict = {}
        self._n = 0

    # -- children ------------------------------------------------------------

    def runs(self, tag: str, seed) -> list:
        return [[e.name, e.overrides(self.size, seed), str(self.out / tag / e.name)]
                for e in self.workload.experiments]

    def spawn(self, role: str, spec: dict) -> dict:
        """Run bench/child.py on ``spec``; return its result merged with the
        rusage of the reaped child (None as result when it failed)."""
        self._n += 1
        spec_path = self.out / f"child-{self._n}.json"
        spec["result"] = str(self.out / f"child-{self._n}.result.json")
        spec_path.write_text(json.dumps(spec))
        load_before = os.getloadavg()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py"), str(spec_path)],
                                cwd=ROOT, stdout=subprocess.DEVNULL, start_new_session=True)
        status = rusage = None
        while True:
            pid, st, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                status, rusage = st, ru
                break
            if time.monotonic() > self.deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.005)
        proc.returncode = os.waitstatus_to_exitcode(status)
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # workers left behind by a crash
        except ProcessLookupError:
            pass
        result = None
        if proc.returncode == 0:
            result = json.loads(Path(spec["result"]).read_text())
        record = {
            "role": role, "mode": spec["mode"], "exit": proc.returncode,
            "cpu_total_s": rusage.ru_utime + rusage.ru_stime,
            "maxrss_mb": rusage.ru_maxrss / 1024.0,
            "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
        }
        if result is not None:
            record.update({k: v for k, v in result.items() if not isinstance(v, (dict, list))})
            self.versions = self.versions or {k: result[k] for k in ("python", "numpy") if k in result}
        self.records.append(record)
        return {"ok": result is not None, "result": result, **record}

    def run(self, role: str, tag: str, seed, workers: int) -> dict:
        return self.spawn(role, {"mode": "run", "experiments": self.runs(tag, seed),
                                 "workers": workers})

    def trace(self, pass_name: str, expected: dict[str, bytes]) -> dict:
        """One traced pass at ``--seed``; its CSVs must equal ``expected``."""
        child = self.spawn(f"trace-{pass_name}", {
            "mode": "trace", "experiments": self.runs(pass_name, self.seed),
            "pass": pass_name, "spans": str(self.out / f"spans-{pass_name}.tsv")})
        self.check(child, pass_name, expected, "the serial run")
        return child

    # -- checks --------------------------------------------------------------

    def operations(self, csvs: dict[str, bytes]) -> int:
        """Trials plus analytic rows one execution of the workload attempts;
        analytic rows are counted in the reference, or in ``csvs`` before a
        reference exists."""
        total = 0
        for e in self.workload.experiments:
            if e.cells is not None:
                total += e.trials(self.size)
            else:
                ref = self.reference / f"{e.name}.csv"
                text = ref.read_text() if ref.is_file() else csvs.get(e.name, b"").decode()
                total += len(_data_rows(text))
        return total

    def check(self, child: dict, tag: str, expected: dict[str, bytes] | None,
              against: str = "") -> dict[str, bytes]:
        """Count one execution's operations and compare its CSVs with
        ``expected`` (experiment -> bytes), described as ``against``.
        Returns the CSVs it wrote."""
        csvs = {}
        for e in self.workload.experiments:
            path = self.out / tag / e.name / "results.csv"
            if path.is_file():
                csvs[e.name] = path.read_bytes()
        n = self.operations(csvs)
        self.attempted += n
        problem = None
        if not child["ok"]:
            problem = f"{child['role']}: child exited with {child['exit']}"
        elif len(csvs) != len(self.workload.experiments):
            problem = f"{child['role']}: results.csv missing"
        elif expected is not None:
            for name, data in csvs.items():
                if data != expected.get(name):
                    problem = f"{child['role']}: {name}/results.csv differs from {against}" \
                              f"{_first_difference(data, expected.get(name))}"
                    break
        if problem is not None:
            print(f"output check failed: {problem}", file=sys.stderr)
            self.failed += n
        else:
            self.failed += sum(_unmodelled_failures(d.decode()) for d in csvs.values())
        return csvs

    def reference_check(self):
        expected = {e.name: (self.reference / f"{e.name}.csv").read_bytes()
                    for e in self.workload.experiments}
        self.check(self.run("reference", "reference", None, WORKERS), "reference", expected,
                   "the stored reference")

    def update_reference(self) -> int:
        """Store the default-seed CSVs, after checking that a serial and a
        2-worker run write the same bytes."""
        serial = self.run("serial", "serial", None, 1)
        csvs = self.check(serial, "serial", None)
        self.check(self.run("reference", "reference", None, WORKERS), "reference", csvs,
                   "the serial run")
        if self.failed:
            return 1
        self.reference.mkdir(parents=True, exist_ok=True)
        for name, data in csvs.items():
            (self.reference / f"{name}.csv").write_bytes(data)
            print(self.reference / f"{name}.csv")
        return 0


def _data_rows(text: str) -> list[str]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return lines[1:]


def _unmodelled_failures(text: str) -> int:
    """Failed trials whose cell records an error other than a modelled one.
    A cell's note repeats on each of its metric rows, so cells count once."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    n_coords = lines[0].split(",").index("metric")
    seen = set()
    failed = 0
    for line in lines[1:]:
        fields = line.split(",", n_coords + 5)
        m = _FAILED_NOTE.match(fields[-1]) if len(fields) == n_coords + 6 else None
        if m is None or tuple(fields[:n_coords]) in seen:
            continue
        seen.add(tuple(fields[:n_coords]))
        if m.group(2) not in _MODELLED_FAILURES:
            failed += int(m.group(1))
    return failed


def _first_difference(data: bytes, expected: bytes | None) -> str:
    if expected is None:
        return " (no reference)"
    got, want = data.decode().splitlines(), expected.decode().splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f" at line {i + 1}: got {a!r}, expected {b!r}"
    return f": {len(got)} lines, expected {len(want)}"


def measure_end_to_end(bench: Bench, seconds: int) -> dict:
    """Medians over timed repetitions that fill ``seconds``; a set-up sample
    follows each repetition, so both spread over the same stretch of time.
    Every repetition must write the same bytes as the first."""
    setup_spec = {"mode": "setup", "experiments": bench.runs("setup", bench.seed)}
    bench.spawn("setup-warmup", dict(setup_spec))
    bench.reference_check()

    walls, cpus, rss, setup = [], [], [], []
    first = None
    t0 = time.monotonic()
    while len(walls) < MIN_REPS or time.monotonic() - t0 < seconds:
        if walls and time.monotonic() + 2 * max(walls) > bench.deadline:
            break
        child = bench.run("timed", "timed", bench.seed, WORKERS)
        csvs = bench.check(child, "timed", first, "the first repetition")
        if not child["ok"]:
            break
        first = first or csvs
        walls.append(child["wall_s"])
        cpus.append(child["cpu_total_s"] - child["cpu_pre_s"])
        rss.append(child["maxrss_mb"])
        child = bench.spawn("setup", dict(setup_spec))
        if child["ok"]:
            setup.append(child["result"]["setup_s"])
    if not walls or not setup:
        return {}
    return {
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(cpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(rss),
    }


def measure_layers(bench: Bench) -> dict:
    """Per-layer metrics from the two traced passes at ``--seed``. Untraced
    serial runs before and after the span pass give the baseline for the
    tracing overheads and the parallel speed-up; every run and pass must
    write the bytes of the first serial run."""
    bench.reference_check()
    serial = [bench.run("serial", "serial", bench.seed, 1)]
    serial_csvs = bench.check(serial[0], "serial", None)
    parallel = bench.run("parallel", "parallel", bench.seed, WORKERS)
    bench.check(parallel, "parallel", serial_csvs, "the serial run")
    spans = bench.trace("spans", serial_csvs)
    serial.append(bench.run("serial", "serial-after", bench.seed, 1))
    bench.check(serial[1], "serial-after", serial_csvs, "the serial run")
    proxies = bench.trace("proxies", serial_csvs)
    passes = {"spans": spans["result"], "proxies": proxies["result"]}
    if not (all(c["ok"] for c in serial) and parallel["ok"] and all(passes.values())):
        return {}
    (bench.out / "layers.json").write_text(json.dumps(
        {"pairs": passes["spans"]["pairs"], "agg_spans": passes["spans"]["agg"],
         "agg_proxies": passes["proxies"]["agg"]}, indent=1))
    serial_wall = statistics.mean(c["wall_s"] for c in serial)
    return tracing.layer_metrics(passes["spans"], passes["proxies"], serial_wall, parallel["wall_s"])


def main(argv=None, reference_dir: Path = BENCH / "reference") -> int:
    parser = argparse.ArgumentParser(prog="run_bench.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="seed for every experiment (default: each experiment's own)")
    parser.add_argument("--seconds", type=int, default=10, help="time spent on timed repetitions")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full")
    parser.add_argument("--update-reference", action="store_true",
                        help="rewrite the stored reference CSVs from a run at the default seeds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "contilab" / "__init__.py").is_file():
        print(f"error: no contilab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = _load_metric_units()["per_layer" if args.trace else "end_to_end"]

    label = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    out = ROOT / ".bench_out" / label
    out.mkdir(parents=True, exist_ok=True)
    bench = Bench(WORKLOADS[args.workload], args.size, args.seed, out, reference_dir)
    if args.update_reference:
        return bench.update_reference()
    started = os.getloadavg()
    values = measure_layers(bench) if args.trace else measure_end_to_end(bench, args.seconds)

    correct = bench.failed == 0 and bool(values)
    if values and set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    environment = {
        "workload": args.workload, "size": args.size, "seed": args.seed, "trace": args.trace,
        "python": bench.versions.get("python"), "numpy": bench.versions.get("numpy"),
        "nproc": os.cpu_count(), "git_revision": _git_revision(),
        "loadavg_start": started, "loadavg_end": os.getloadavg(),
    }
    (out / "run.json").write_text(json.dumps(
        {"environment": environment, "children": bench.records, "metrics": values}, indent=1))
    if correct:  # keep the CSVs of a failed run for inspection
        for d in out.iterdir():
            if d.is_dir():
                shutil.rmtree(d)
    print("environment: " + json.dumps(environment))
    for name, value in values.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"error_frac = {bench.failed / max(bench.attempted, 1):.6g} "
          f"({bench.failed} of {bench.attempted} operations failed)")
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
