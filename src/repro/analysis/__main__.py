"""CLI entry point: ``python -m repro.analysis [paths ...]``.

One run over the given files and directories (default: ``src tests
benchmarks examples``): every file is parsed once, the per-file rules
run on every file, and telemetry-drift reads the parsed files of each
package found among them (``src/repro`` by default).

Exit codes: 0 — clean (no unsuppressed findings); 1 — findings; 2 —
usage error or no Python files.  ``--json`` emits the machine-readable
report the tier-1 gate parses; ``--list-rules`` prints the rule
catalogue.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .lint import all_rules, lint_paths


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro-lint: repository-specific rules over each file and package",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests", "benchmarks", "examples"],
        help="files or directories to analyse (default: src tests benchmarks examples)",
    )
    parser.add_argument("--json", action="store_true", help="emit a JSON report")
    parser.add_argument(
        "--show-suppressed",
        action="store_true",
        help="also print suppressed findings in the human report",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:24s} {rule.summary}")
        return 0

    report = lint_paths(args.paths)
    if report.files_checked == 0:
        print(f"repro-lint: no python files under {args.paths!r}", file=sys.stderr)
        return 2
    if args.json:
        print(report.render_json())
    else:
        print(report.render(show_suppressed=args.show_suppressed))
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
