"""One measured process of the benchmark: ``python3 bench/child.py SPEC.json``.

The spec names a mode and the experiments to run; the result is written as
JSON to the spec's ``result`` path. Modes:

- ``setup``: import contilab and dry-run every experiment; reports the time
  from interpreter start-up of this script to the end of the dry runs.
- ``run``: ``run_experiment`` for every experiment with ``workers`` workers;
  reports the wall time of those calls and the CPU this process spent before
  them, so the parent can subtract start-up from the rusage it reaps.
- ``trace``: the same runs in-process with one worker, under the span tracer
  (``pass`` = ``spans``) or under the span tracer plus per-step proxies
  (``pass`` = ``proxies``); reports the per-layer aggregates.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(_BENCH.parent / "src"))


def _cpu_self() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    from contilab import experiments

    runs = spec["experiments"]  # [[name, overrides, out_dir], ...]
    if spec["mode"] == "setup":
        for name, overrides, _ in runs:
            experiments.run_experiment(name, overrides, dry_run=True)
        result = {"setup_s": time.perf_counter() - _T0}
    elif spec["mode"] == "run":
        import numpy

        cpu_pre = _cpu_self()
        t0 = time.perf_counter()
        for name, overrides, out_dir in runs:
            experiments.run_experiment(name, overrides, out_dir, workers=spec["workers"])
        result = {
            "wall_s": time.perf_counter() - t0,
            "cpu_pre_s": cpu_pre,
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        }
    elif spec["mode"] == "trace":
        sys.path.insert(0, str(_BENCH))
        import tracing

        result = tracing.traced_run(runs, spec["pass"], spec["spans"])
    else:
        raise ValueError(f"unknown mode {spec['mode']!r}")
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
