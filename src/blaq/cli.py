"""Command-line entry point.

Subcommands: toy2d, toy-pow32, train-mnist, theory-check.  Each accepts
--config FILE plus any number of --key value overrides (values parsed as
JSON when possible).  Exit codes: 0 success, 1 a run-level assertion
failed, 2 configuration or data errors (an unusable output directory
included), 3 the run diverged (a loss, gradient, iterate or projection
scale became non-finite; the message names the graph node or the scale
and, inside an optimizer step, the step number).
"""

from __future__ import annotations

import argparse
import sys

from .config import EXPERIMENTS, load_config
from .errors import CheckFailed, ConfigError, FormatError, NumericError
from .experiments import run


def _parse_overrides(extra):
    overrides = {}
    i = 0
    while i < len(extra):
        key = extra[i]
        if not key.startswith("--"):
            raise ConfigError(f"expected --key value pairs, got {key!r}")
        if i + 1 >= len(extra):
            raise ConfigError(f"missing value for override {key!r}")
        overrides[key[2:]] = extra[i + 1]
        i += 2
    return overrides


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blaq",
        description="Loss-aware quantization experiments and diagnostics.")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        # no prefix matching, so that an override such as --c is not --config
        p = sub.add_parser(name, help=f"run the {name} experiment", allow_abbrev=False)
        p.add_argument("--config", default=None, help="JSON config file")
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    try:
        overrides = _parse_overrides(extra)
        cfg = load_config(args.config, overrides, experiment=args.experiment)
        result = run(cfg)
    except (ConfigError, FormatError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CheckFailed as e:
        print(f"check failed: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"diverged: {e}", file=sys.stderr)
        return 3
    out_dir = result.get("out_dir")
    print(f"done: outputs in {out_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
