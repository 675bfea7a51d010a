"""The benchmark's span targets must resolve against ``src/``.

``benchmarks/perf/spans.py`` wraps the library's public entry points by
name.  Deleting or renaming one would only show when the driver runs
``run.py --trace 1``; this check (no workload is run) makes it a tier-1
failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "spans.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_perf_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", [target for _layer, target, _counter in load_targets()])
def test_span_target_resolves(target):
    module_name, qualname = target.split(":")
    module = importlib.import_module(module_name)
    if "." in qualname:  # the recorder patches the class's own attribute
        cls_name, attr = qualname.split(".")
        assert attr in vars(getattr(module, cls_name)), target
    else:
        assert callable(getattr(module, qualname)), target
