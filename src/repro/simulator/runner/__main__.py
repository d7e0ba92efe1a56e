"""Command-line interface to campaign resume and status.

``python -m repro.simulator.runner resume <dir>`` continues an
interrupted campaign (created with
:meth:`repro.simulator.runner.Campaign.create`) from its journal:
completed distinct specs are never re-executed, and the exit status is
0 only when the campaign finishes completely.  ``status <dir>`` prints
progress without running anything.  See ``docs/sweeps.md``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.simulator.runner.backends import BACKENDS
from repro.simulator.runner.campaign import Campaign
from repro.simulator.runner.execute import RunStats

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.simulator.runner`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.simulator.runner",
        description="Resume or inspect a journaled sweep campaign.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    resume = commands.add_parser(
        "resume", help="run a campaign's incomplete specs to completion"
    )
    resume.add_argument("directory", help="campaign directory")
    resume.add_argument(
        "--jobs", type=int, default=None, help="worker processes (default: $REPRO_JOBS)"
    )
    resume.add_argument(
        "--backend",
        choices=sorted(BACKENDS),
        default=None,
        help="execution backend (default: $REPRO_BACKEND or the jobs/timeout heuristic)",
    )
    resume.add_argument(
        "--retries", type=int, default=None,
        help="retry budget per failing spec (default: $REPRO_RETRIES)",
    )
    resume.add_argument(
        "--timeout", type=float, default=None,
        help="per-execution timeout in seconds (default: $REPRO_TIMEOUT)",
    )
    resume.add_argument(
        "--backoff", type=float, default=0.05, help="base retry backoff in seconds"
    )
    resume.add_argument(
        "--limit", type=int, default=None,
        help="run at most N incomplete distinct specs (deliberately partial run)",
    )
    resume.add_argument(
        "--no-cache", action="store_true", help="bypass the result cache"
    )

    status = commands.add_parser("status", help="print campaign progress")
    status.add_argument("directory", help="campaign directory")
    status.add_argument(
        "--json", action="store_true", dest="as_json", help="machine-readable output"
    )
    return parser


def _cmd_resume(args: argparse.Namespace) -> int:
    """Run the incomplete remainder of a campaign; 0 only on completion."""
    campaign = Campaign.load(args.directory)
    stats = RunStats()
    report = campaign.run(
        jobs=args.jobs,
        backend=args.backend,
        use_cache=not args.no_cache,
        stats=stats,
        retries=args.retries,
        timeout=args.timeout,
        backoff=args.backoff,
        on_error="partial",
        limit=args.limit,
    )
    done = sum(1 for result in report.results if result is not None)
    print(
        f"campaign {campaign.name}: {done}/{len(report.results)} specs complete "
        f"(executed {stats.executed} this run via {stats.backend}, "
        f"{stats.cache_hits} cache hits, {len(report.failures)} failures)"
    )
    for failure in report.failures[:10]:
        print(
            f"  failed spec {failure.index} [{failure.error_type}] "
            f"{failure.message} after {failure.attempts} attempts"
        )
    return 0 if report.complete else 1


def _cmd_status(args: argparse.Namespace) -> int:
    """Print journal-derived campaign progress."""
    campaign = Campaign.load(args.directory)
    summary = campaign.status()
    if args.as_json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"campaign {summary['name']}: {summary['completed']}/"
            f"{summary['distinct']} distinct specs complete "
            f"({summary['total']} total, {summary['remaining']} remaining)"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI dispatch; returns the process exit status."""
    args = _build_parser().parse_args(argv)
    if args.command == "resume":
        return _cmd_resume(args)
    return _cmd_status(args)


if __name__ == "__main__":
    sys.exit(main())
