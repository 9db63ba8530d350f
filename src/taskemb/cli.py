"""Command-line entry point: one subcommand per pipeline stage.

Exit codes: 0 success, 1 stage failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from taskemb import pipeline
from taskemb.config import ConfigError, load_config
from taskemb.envs.core import EnvError
from taskemb.manifest import StaleArtifactError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskemb",
        description="Learn and evaluate task embeddings for goal-based environments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [(s.name, s.help, s.transfer) for s in pipeline.STAGES.values()]
    commands.append(("run-all", "run every stage needed for the benchmark results", False))
    for name, help_text, transfer in commands:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--force", action="store_true",
                       help="rerun even when cached; ignore stale upstream hashes")
        p.add_argument("--threads", type=int, default=None,
                       help="override the config's worker thread count")
        if transfer:
            p.add_argument("--agent-population", default=None, metavar="DIR",
                           help="population directory supplying the hidden agents")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, threads=args.threads)
    except (ConfigError, EnvError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "run-all":
            for stage in pipeline.STAGES.values():
                if stage.in_run_all(cfg):
                    pipeline.run_stage(stage.name, cfg, force=args.force)
        else:
            pipeline.run_stage(args.command, cfg, force=args.force,
                               agent_population_dir=getattr(args, "agent_population", None))
    except (ConfigError, EnvError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except StaleArtifactError as exc:
        print(f"stage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # stage failures surface with a clean message
        print(f"stage error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
