"""Caller ratchet: what the platform defines, something outside the tests reads.

DESIGN §22's keep rule.  A function, method or class defined in one of
the audited packages stays only when code outside ``tests/`` refers to
it (``src/``, ``examples/`` or ``benchmarks/``, the span table of
``benchmarks/perf/spans.py`` included), or when it is listed in
:data:`KEPT_FOR_TESTS` under one of the two rules that keep a
test-only name:

* rule 2 — a kept property, model or differential test draws it as an
  operation or uses it as its reference;
* rule 3 — it is a read-only accessor a kept test uses to observe kept
  state.

A reference is a name, an attribute, or a word of a string literal
without whitespace (a dotted target such as
``"repro.hbase.master:HMaster.locate"``).  The definition itself,
imports, docstrings and ``__all__`` entries do not count.  Names are
matched by spelling, so a method that shares its name with a called
one passes unseen: the ratchet catches what creeps back under a new
name, not every collision.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

AUDITED = (
    "alerting", "chaos", "cluster", "core", "hbase", "lifecycle",
    "obs", "serve", "simdata", "sparklet", "tsdb", "viz",
)

#: Defined in an audited package, read only by tests: name -> (rule, user).
KEPT_FOR_TESTS = {
    "split_region": (2, "TestRangeRoutingIdentity draws it as a topology operation"),
    "execute_sync": (2, "TestOneWayToServeATierPlan drives the RPC read path with it"),
    "parse_put_line": (2, "the reference of the block parser's differential test"),
    "table_regions": (3, "region layout after create/split/move/crash"),
    "tombstone_count": (3, "range deletes touch only overlapping regions"),
    "cell_count": (3, "TestRegionModel's live-cell count against the oracle"),
    "buffered": (3, "the proxy's buffer drains to zero"),
    "samples_seen": (3, "the trainer's moments stay untouched by refused batches"),
    "incidents_for_unit": (3, "a unit's incident history"),
    "wait": (3, "FIFO promotion's queue wait"),
    "service_estimate": (3, "admission's service-time estimate tracks observations"),
    "served_from_cache": (3, "a cold miss is not served from the cache"),
    "shed_rate": (3, "a stampede sheds"),
    "events_fired": (3, "what a fault plan fired"),
    "min_value": (3, "a gauge's low-water mark"),
    "is_partitioned": (3, "partition and heal"),
    "busy": (3, "a server's in-service flag"),
    "utilization": (3, "a server's busy fraction"),
    "weights_dict": (3, "a fault spec's sensor weights"),
}


def _skipped(tree: ast.AST) -> set:
    """ids of the string nodes that are docstrings or ``__all__`` entries."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                out.add(id(body[0].value))
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            out.update(id(n) for n in ast.walk(node.value))
    return out


def _references(path: Path) -> Counter:
    tree = ast.parse(path.read_text())
    skipped = _skipped(tree)
    refs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs[node.id] += 1
        elif isinstance(node, ast.Attribute):
            refs[node.attr] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
            and not re.search(r"\s", node.value)
        ):
            refs.update(re.findall(r"\w+", node.value))
    return refs


def _outside_tests() -> Counter:
    refs: Counter = Counter()
    for top in ("src", "examples", "benchmarks"):
        for path in (ROOT / top).rglob("*.py"):
            refs.update(_references(path))
    return refs


def _definitions():
    """(location, name) of every non-dunder def and class in the audited packages."""
    for package in AUDITED:
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    if not (node.name.startswith("__") and node.name.endswith("__")):
                        yield f"{path.relative_to(ROOT)}:{node.lineno}", node.name


def test_every_audited_name_has_a_caller_outside_the_tests():
    refs = _outside_tests()
    uncalled = sorted(
        f"{where} {name}"
        for where, name in _definitions()
        if not refs[name] and name not in KEPT_FOR_TESTS
    )
    assert not uncalled, (
        "defined but read by nothing outside tests/ (delete it with its tests, "
        "or list it in KEPT_FOR_TESTS under rule 2 or 3):\n" + "\n".join(uncalled)
    )


def test_kept_for_tests_is_exactly_the_test_only_names():
    refs = _outside_tests()
    defined = {name for _, name in _definitions()}
    test_text = "\n".join(
        p.read_text() for p in (ROOT / "tests").glob("test_*.py") if p.name != Path(__file__).name
    )
    for name, (rule, _user) in KEPT_FOR_TESTS.items():
        assert rule in (2, 3), name
        assert name in defined, f"{name} is no longer defined: drop its entry"
        assert not refs[name], f"{name} has a caller outside tests/ now: drop its entry"
        assert re.search(rf"\b{name}\b", test_text), f"no kept test uses {name}: it goes"
