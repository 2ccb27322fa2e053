"""Command-line entry point.

One command per process; deterministic outputs for identical (config, seed).
Exit codes: 0 ok, 1 criterion failed, 2 configuration error, 3 numeric abort.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypersym",
        description="Symmetrizer-based energy toolkit for weakly hyperbolic systems",
    )
    parser.add_argument("command", nargs="?",
                        help="certify | theta | nuij | symmetrize | conjtest | "
                             "plan | solve | study-h | study-parabolic | report")
    parser.add_argument("--config", help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, help="seed for randomized commands")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--preset", help="problem-bank preset name")
    parser.add_argument("--theta", type=int, help="theta for the plan command")
    parser.add_argument("--mode", help="lipschitz | holder (plan command)")
    parser.add_argument("--kappa", help="Hoelder exponent as a fraction, e.g. 1/2")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    from hypersym import errors, runner

    config: dict = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        if not isinstance(config, dict):
            print(f"config error: {args.config} does not hold a JSON object",
                  file=sys.stderr)
            return 2
    if args.command:
        config["command"] = args.command
    config.setdefault("schema_version", runner.SCHEMA_VERSION)
    # a flag given overrides the config: an integer one even at 0, a string
    # one when it is not empty
    for flag in ("seed", "preset", "out", "theta", "mode", "kappa"):
        value = getattr(args, flag)
        if value is not None and value != "":
            config[flag] = value

    # a run that fails prints one line, its cause; one that completes also
    # shows the warnings raised on the way
    with warnings.catch_warnings(record=True) as caught:
        try:
            status, summary = runner.run(config)
        except errors.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except errors.HypersymError as exc:
            print(f"numeric abort: {exc}", file=sys.stderr)
            return 3
    for w in caught:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    printable = {k: v for k, v in summary.items() if k != "config"}
    json.dump(printable, sys.stdout, sort_keys=True, indent=2, default=str)
    print()
    return status


if __name__ == "__main__":
    sys.exit(main())
