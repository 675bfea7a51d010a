"""Repro-lint: the rule framework and the one analysis run.

A deliberately small, dependency-free analyser tuned to *this*
repository's correctness invariants (seeded RNG, lock discipline,
bounded retries, caches and time ranges, alert routing, telemetry
accounting) rather than general style.  The pieces:

* :class:`SourceFile` — one parsed module plus the comment-derived
  metadata rules need: per-line ``# repro-lint: ignore[rule, ...]``
  suppressions and ``# guarded-by: <lock>`` annotations.
* :class:`Rule` — one rule: ``check`` reads one module,
  ``check_package`` reads every module of one package; the catalogue
  lives in :mod:`repro.analysis.rules`, each rule self-registered via
  :func:`register` (:func:`all_rules`).
* :func:`lint_paths` — the one run: parse each file once, run
  ``check`` on every file and ``check_package`` over the parsed files
  of each package found among them; :func:`lint_source` lints one
  string.
* :class:`LintReport` — findings plus human/JSON renderings; the CLI
  (``python -m repro.analysis``) exits non-zero on any unsuppressed
  finding, which is what the tier-1 gate enforces.

Suppression is per-line and per-rule: ``# repro-lint: ignore[RULE]``
waives ``RULE`` on that line only, ``# repro-lint: ignore`` waives all
rules on the line.  Suppressions are kept in the report (marked
``suppressed``) so waivers stay visible, and the convention is to
follow the marker with ``--`` and a justification.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Type,
    TypeVar,
    Union,
)

__all__ = [
    "Finding",
    "LintReport",
    "Rule",
    "SourceFile",
    "all_rules",
    "dotted_expr",
    "iter_python_files",
    "lint_paths",
    "lint_source",
    "package_roots",
    "register",
]

SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*ignore(?:\[([A-Za-z0-9_,\- ]+)\])?")
GUARD_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")

#: Sentinel stored in a line's suppression set by a bare ``ignore``.
ALL_RULES = "*"

#: Pseudo-rule id attached to files that fail to parse.
PARSE_ERROR = "parse-error"

#: Package names that are test suites, not programs: ``tests`` carries
#: an ``__init__.py`` only so its modules import by dotted name, so the
#: package rules do not run over it.
TEST_PACKAGES = frozenset({"tests"})


def dotted_expr(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def format(self) -> str:
        tail = "  [suppressed]" if self.suppressed else ""
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}{tail}"

    def to_json(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


class SourceFile:
    """A parsed module plus comment metadata (suppressions, guards)."""

    def __init__(self, path: str | Path, text: str) -> None:
        self.path = Path(path)
        self.text = text
        self.lines = text.splitlines()
        self.tree = ast.parse(text, filename=str(path))
        #: line -> set of suppressed rule ids (or {ALL_RULES})
        self.suppressions: Dict[int, Set[str]] = {}
        #: line -> lock attribute name from a ``# guarded-by:`` comment
        self.guards: Dict[int, str] = {}
        for lineno, line in enumerate(self.lines, start=1):
            sup = SUPPRESS_RE.search(line)
            if sup:
                names = sup.group(1)
                self.suppressions[lineno] = (
                    {name.strip() for name in names.split(",") if name.strip()}
                    if names
                    else {ALL_RULES}
                )
            guard = GUARD_RE.search(line)
            if guard:
                self.guards[lineno] = guard.group(1)

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        names = self.suppressions.get(line)
        if not names:
            return False
        return ALL_RULES in names or rule_id in names


class Rule:
    """Base class for rules.

    Subclasses set ``id`` (the suppression token) and ``summary`` and
    implement ``check`` (one module in, findings out; ``applies_to``
    may narrow which modules) or ``check_package`` (every parsed module
    of one package in).  The runner fills in suppression state
    afterwards.
    """

    id: str = ""
    summary: str = ""

    def applies_to(self, source: SourceFile) -> bool:
        return True

    def check(self, source: SourceFile) -> Iterator[Finding]:
        return iter(())

    def check_package(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        return iter(())

    # Convenience for subclasses.
    def finding(self, source: SourceFile, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            path=str(source.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_R = TypeVar("_R", bound=Type[Rule])
_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: _R) -> _R:
    """Class decorator adding a rule to the one catalogue."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    # Importing the catalogue populates the registry on first use.
    from . import rules as _rules  # noqa: F401

    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


# ----------------------------------------------------------------------
# runners
# ----------------------------------------------------------------------
def _mark(found: Finding, source: SourceFile) -> Finding:
    if source.is_suppressed(found.rule, found.line):
        return dataclasses.replace(found, suppressed=True)
    return found


def _run_rules(source: SourceFile, rules: Iterable[Rule]) -> List[Finding]:
    findings = [
        _mark(found, source)
        for rule in rules
        if rule.applies_to(source)
        for found in rule.check(source)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def _parse(text: str, path: str | Path) -> Union[SourceFile, Finding]:
    try:
        return SourceFile(path, text)
    except SyntaxError as exc:
        return Finding(
            rule=PARSE_ERROR,
            path=str(path),
            line=exc.lineno or 1,
            col=exc.offset or 0,
            message=f"syntax error: {exc.msg}",
        )


def lint_source(
    text: str,
    path: str | Path = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run the per-file rules over one module given as a string."""
    parsed = _parse(text, path)
    if isinstance(parsed, Finding):
        return [parsed]
    return _run_rules(parsed, rules if rules is not None else all_rules())


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files to lint."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if "__pycache__" not in sub.parts:
                    yield sub
        elif path.suffix == ".py":
            yield path


def package_roots(sources: Iterable[SourceFile]) -> List[Path]:
    """The packages among ``sources`` that ``check_package`` runs over.

    A package root is a directory whose ``__init__.py`` is among the
    sources while its parent's is not (``src`` → ``src/repro``; a
    subpackage given on its own is its own root).  Test suites
    (:data:`TEST_PACKAGES`) are not programs.
    """
    inits = {s.path.parent for s in sources if s.path.name == "__init__.py"}
    return sorted(
        d for d in inits if d.parent not in inits and d.name not in TEST_PACKAGES
    )


@dataclass
class LintReport:
    """Everything one analysis run produced."""

    findings: List[Finding]
    files_checked: int

    @property
    def unsuppressed(self) -> List[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def ok(self) -> bool:
        return not self.unsuppressed

    def to_json(self) -> Dict[str, object]:
        return {
            "files_checked": self.files_checked,
            "unsuppressed": len(self.unsuppressed),
            "suppressed": len(self.suppressed),
            "findings": [f.to_json() for f in self.findings],
        }

    def render(self, *, show_suppressed: bool = False) -> str:
        lines = [f.format() for f in self.unsuppressed]
        if show_suppressed:
            lines.extend(f.format() for f in self.suppressed)
        lines.append(
            f"repro-lint: {self.files_checked} files, "
            f"{len(self.unsuppressed)} findings, "
            f"{len(self.suppressed)} suppressed"
        )
        return "\n".join(lines)

    def render_json(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def lint_paths(
    paths: Iterable[str | Path], rules: Optional[Sequence[Rule]] = None
) -> LintReport:
    """The one analysis run; the CLI and the tier-1 gate call this.

    Each file is parsed once.  ``check`` runs on every file and
    ``check_package`` over the parsed files of each package
    :func:`package_roots` finds.  Findings come back sorted by location.
    """
    active = list(rules) if rules is not None else all_rules()
    findings: List[Finding] = []
    sources: List[SourceFile] = []
    count = 0
    for path in iter_python_files(paths):
        count += 1
        parsed = _parse(path.read_text(), path)
        if isinstance(parsed, Finding):
            findings.append(parsed)
            continue
        sources.append(parsed)
        findings.extend(_run_rules(parsed, active))
    for root in package_roots(sources):
        package = [s for s in sources if root in s.path.parents]
        by_path = {str(s.path): s for s in package}
        for rule in active:
            findings.extend(
                _mark(found, by_path[found.path]) for found in rule.check_package(package)
            )
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.message))
    return LintReport(findings=findings, files_checked=count)
