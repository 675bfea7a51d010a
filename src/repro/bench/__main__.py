"""CLI: ``python -m repro.bench [E1 ...] [--quick] [--list]``.

Runs the named experiments (all of them by default), prints the
paper-comparison tables and every claim.  A full-size run also runs
the quick form and writes one record per experiment to
``benchmarks/records/<id>.json`` (the Fig. 2 SVGs land beside them);
``--quick`` runs only the quick form and writes nothing.  The exit
status is 1 when any claim is false.
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from pathlib import Path

import numpy

from . import harness
from .experiments import REGISTRY


def _one_blas_thread() -> None:
    """Give numpy's bundled OpenBLAS one thread, unless the caller chose.

    Experiments run their own executor threads; BLAS threads on top of
    them oversubscribe a small host (E9's full form ran three times
    slower on two CPUs).  ``repro`` has loaded numpy before this runs,
    too late for ``OPENBLAS_NUM_THREADS``, so the library's own setter
    is called.  A numpy without a bundled OpenBLAS is left as it is.
    """
    if "OPENBLAS_NUM_THREADS" not in os.environ:
        for path in (Path(numpy.__file__).resolve().parents[1] / "numpy.libs").glob("*openblas*"):
            lib = ctypes.CDLL(str(path))  # numpy's own copy: same file, same handle
            for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads64_"):
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes, setter.restype = [ctypes.c_int], None
                    setter(1)


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
    parser.add_argument(
        "--quick", action="store_true", help="only the CI-sized form; writes no record"
    )
    parser.add_argument("--list", action="store_true", help="list available experiments")
    args = parser.parse_args(argv)

    available = REGISTRY.available()
    in_order = sorted(available, key=lambda exp_id: int(exp_id[1:]))
    if args.list:
        for exp_id in in_order:
            print(f"{exp_id.upper():4s} {available[exp_id]}")
        return 0

    targets = [e.lower() for e in args.experiments] or in_order
    unknown = [t for t in targets if t not in available]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(in_order)}", file=sys.stderr)
        return 2

    failed = []
    for target in targets:
        started = time.perf_counter()
        result = REGISTRY.run(target, quick=args.quick)
        print(result.render())
        forms = [("quick" if args.quick else "full", result)]
        if not args.quick:
            quick = REGISTRY.run(target, quick=True)
            forms.append(("quick", quick))
            path = harness.write_record(result, quick, harness.RECORDS_DIR)
            print(f"\nrecord written to {path}")
        failed += [
            f"{target.upper()} ({form}): {name}"
            for form, run in forms
            for name in run.failed_claims()
        ]
        print(f"\n[{target.upper()} completed in {time.perf_counter() - started:.1f}s]\n")

    if failed:
        print("false claims:\n  " + "\n  ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    _one_blas_thread()
    raise SystemExit(main())
