"""Command line front end.

Usage:
    contilab list
    contilab run NAME [--out DIR] [--plot] [--workers N] [--dry-run] [--KEY=VALUE ...]

Every ``--KEY=VALUE`` flag, ``trials`` and ``seed`` included, overrides an
experiment parameter by name (``contilab run fig2_lms_sweep --trials=50
--env.eta=0.8``); the experiment checks each key and its type. ``--dry-run``
checks the config and plans its cells without running any.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import ConfigurationError, ContilabError
from .experiments import _get, list_experiments, run_experiment

_OVERRIDE = re.compile(r"^--([A-Za-z0-9_.]+)=(.*)$")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="contilab")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments and what each reproduces")
    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("name")
    run.add_argument("--out", default=None, help="output directory (default runs/<name>)")
    run.add_argument("--plot", action="store_true", help="also write plot.svg")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--dry-run", action="store_true", help="check config, plan cells, run none")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args, extra = parser.parse_known_args(argv)

    if args.command == "list":
        names = list_experiments()
        width = max(map(len, names))
        for name in names:
            print(f"{name:<{width}}  {_get(name).summary}")
        return 0

    overrides = {}
    for token in extra:
        m = _OVERRIDE.match(token)
        if m is None:
            parser.error(f"unrecognized argument {token!r} (overrides look like --key=value)")
        overrides[m.group(1)] = m.group(2)
    try:
        paths = run_experiment(
            args.name, overrides, args.out,
            plot=args.plot, workers=args.workers, dry_run=args.dry_run,
        )
    except ContilabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1
    for path in paths:  # none on a dry run
        print(path)
    if args.dry_run:
        print(f"{args.name}: config ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
