"""Option ratchet: the platform's settable values only ever get fewer.

DESIGN §21's one-value rule, held in place.  For each package the
caller ratchet audits, this counts the values a caller can set without
having to:

* every defaulted parameter of a public function or method, ``__init__``
  included (positional and keyword-only alike);
* every defaulted field of a public dataclass or ``NamedTuple``.

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
    "hbase": 61,
    "lifecycle": 10,
    "obs": 10,
    "serve": 41,
    "simdata": 38,
    "sparklet": 4,
    "tsdb": 85,
    "viz": 31,
}


def _name(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    return target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")


def _has_fields(node: ast.ClassDef) -> bool:
    """A dataclass, or a ``NamedTuple``: its annotated defaults are options."""
    return any(_name(deco) == "dataclass" for deco in node.decorator_list) or any(
        _name(base) == "NamedTuple" for base in node.bases
    )


def _defaulted(body) -> int:
    """Defaulted public parameters and dataclass or NamedTuple fields in a body."""
    count = 0
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name.startswith("_") and node.name != "__init__":
                continue
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            if _has_fields(node):
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


def test_namedtuple_and_dataclass_defaults_are_counted():
    source = (
        "class Key(typing.NamedTuple):\n    a: int\n    b: str = 'raw'\n"
        "@dataclass(frozen=True)\nclass Conf:\n    c: int = 1\n"
        "class Plain:\n    d: int = 2\n"
    )
    assert _defaulted(ast.parse(source).body) == 2
