"""CLI: ``python -m repro.bench [E1 ...] [--quick]``.

Runs the named experiments (all of them by default) and prints the
paper-comparison tables.  ``--quick`` shrinks every workload for a fast
sanity pass; full-scale runs are what EXPERIMENTS.md records.
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import REGISTRY


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (see --list); default: all",
    )
    parser.add_argument("--quick", action="store_true", help="shrunken CI-speed workloads")
    parser.add_argument("--list", action="store_true", help="list available experiments")
    parser.add_argument(
        "--markdown",
        metavar="FILE",
        help="also write the results as a markdown report to FILE",
    )
    args = parser.parse_args(argv)

    available = REGISTRY.available()
    if args.list:
        for exp_id, description in sorted(available.items()):
            print(f"{exp_id.upper():4s} {description}")
        return 0

    targets = [e.lower() for e in args.experiments] or sorted(available)
    unknown = [t for t in targets if t not in available]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(available))}", file=sys.stderr)
        return 2

    results = []
    for target in targets:
        started = time.perf_counter()
        result = REGISTRY.run(target, quick=args.quick)
        elapsed = time.perf_counter() - started
        results.append((result, elapsed))
        print(result.render())
        print(f"\n[{target.upper()} completed in {elapsed:.1f}s]\n")

    if args.markdown:
        with open(args.markdown, "w") as fh:
            fh.write("# Benchmark report\n\n")
            if args.quick:
                fh.write("> quick mode — shrunken workloads, not paper scale\n\n")
            for result, elapsed in results:
                fh.write(result.to_markdown())
                fh.write(f"\n\n*completed in {elapsed:.1f}s*\n\n---\n\n")
        print(f"markdown report written to {args.markdown}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
