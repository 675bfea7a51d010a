"""Option ratchet: the platform's settable values only ever get fewer.

DESIGN §21's one-value rule, held in place.  For each package the
caller ratchet audits, this counts the values a caller can set without
having to:

* every defaulted parameter of a public function or method, ``__init__``
  included (positional and keyword-only alike);
* every defaulted field of a public dataclass.

Public means neither the name nor any class it is defined in starts
with an underscore; functions nested in functions are not counted.
:data:`RECORDED` holds the counts, and the test fails when a package's
count differs from its record: a rise is a new option, which §21's rule
has to admit first; a fall lowers the record in the same change.
"""

import ast
from pathlib import Path

from .test_caller_ratchet import AUDITED

ROOT = Path(__file__).resolve().parents[1]

#: Defaulted public parameters and dataclass fields, per package.
RECORDED = {
    "alerting": 38,
    "chaos": 16,
    "cluster": 17,
    "core": 63,
    "hbase": 63,
    "lifecycle": 10,
    "obs": 10,
    "serve": 42,
    "simdata": 38,
    "sparklet": 4,
    "tsdb": 87,
    "viz": 31,
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _defaulted(body) -> int:
    """Defaulted public parameters and dataclass fields in a module or class body."""
    count = 0
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _is_dataclass(node):
                count += sum(
                    isinstance(item, ast.AnnAssign) and item.value is not None
                    for item in node.body
                )
            count += _defaulted(node.body)
    return count


def option_counts(root: Path = ROOT) -> dict:
    return {
        package: sum(
            _defaulted(ast.parse(path.read_text()).body)
            for path in sorted((root / "src" / "repro" / package).rglob("*.py"))
        )
        for package in AUDITED
    }


def test_no_package_gains_an_option():
    counts = option_counts()
    assert set(counts) == set(RECORDED)
    risen = {p: (RECORDED[p], n) for p, n in counts.items() if n > RECORDED[p]}
    assert not risen, (
        "settable values added (recorded, now); DESIGN §21 keeps a value only "
        f"when two non-test callers need different ones: {risen}"
    )
    fallen = {p: (RECORDED[p], n) for p, n in counts.items() if n < RECORDED[p]}
    assert not fallen, f"settable values removed: lower RECORDED to match (recorded, now): {fallen}"
