"""The rule catalogue.

Eight rules tuned to this repository's correctness invariants: seven
read one module at a time and one, ``telemetry-drift``, reads every
module of a package:

===================  ===================================================
``unseeded-rng``     RNG created or used without an explicit seed
                     (reproducibility: every window must be
                     deterministic per ``(seed, unit)``)
``broad-except``     bare ``except:``, ``except BaseException:``, or an
                     ``except Exception:`` that silently swallows
``guarded-by``       access to a ``# guarded-by: <lock>`` attribute
                     outside a ``with self.<lock>:`` block (or a
                     function asserting ``assert_holds(self.<lock>)``)
``unbounded-retry``  a retry path that re-schedules itself with no
                     attempt bound or budget in sight (every retry in
                     the ingest path must be bounded — see DESIGN.md
                     "Failure model and delivery guarantees")
``unbounded-cache``  a dict/list attribute named like a cache with no
                     eviction bound in its class (the serving tier's
                     memory-safety contract: every cache is LRU/TTL
                     bounded or explicitly cleared)
``unsuppressed-alert-emit``  an alert emission site outside
                     ``repro.alerting`` — ``alert.*`` series writes,
                     ``Incident(...)`` construction, or direct
                     ``record_incident``/``record_resolve`` calls —
                     bypassing the dedup/suppression layer (route
                     events through ``AlertManager.observe`` instead)
``unbounded-time-range``  a ``TsdbQuery`` constructed with an end bound
                     that constant-folds to the open-axis sentinel
                     (``>= 2**31 - 1``) outside tests/benchmarks: such
                     a query scans the whole time axis, defeating the
                     lifecycle tier's rollup routing and retention
                     floors (bound the range, or suppress with a
                     justification where open-ended is the point)
``telemetry-drift``  a metric name emitted but never queried, or
                     queried but never emitted, anywhere in the
                     package (emit and query sides of the metric
                     namespace must agree across modules)
===================  ===================================================

Each rule is registered with :func:`repro.analysis.lint.register` and
suppressable per line via ``# repro-lint: ignore[<id>]``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .lint import Finding, Rule, SourceFile, dotted_expr, register

__all__ = [
    "BroadExceptRule",
    "GuardedByRule",
    "TelemetryDriftRule",
    "UnboundedCacheRule",
    "UnboundedRetryRule",
    "UnboundedTimeRangeRule",
    "UnseededRngRule",
    "UnsuppressedAlertEmitRule",
]


# ----------------------------------------------------------------------
@register
class UnseededRngRule(Rule):
    """Unseeded or global-state RNG use.

    Flags, resolving ``import`` aliases:

    * ``numpy.random.default_rng()`` with no seed argument;
    * any call into numpy's *legacy global* RNG
      (``np.random.normal`` / ``.rand`` / ``.seed`` / ...);
    * stdlib ``random`` module-level functions (global RNG) and
      ``random.Random()`` constructed without a seed.
    """

    id = "unseeded-rng"
    summary = "RNG created or used without an explicit seed"

    # numpy.random attributes that are *not* the legacy global RNG
    _NUMPY_SAFE = {
        "default_rng",
        "Generator",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
    _STDLIB_GLOBAL = {
        "betavariate",
        "choice",
        "choices",
        "expovariate",
        "gauss",
        "getrandbits",
        "lognormvariate",
        "normalvariate",
        "paretovariate",
        "randbytes",
        "randint",
        "random",
        "randrange",
        "sample",
        "seed",
        "shuffle",
        "triangular",
        "uniform",
        "vonmisesvariate",
        "weibullvariate",
    }

    def check(self, source: SourceFile) -> Iterator[Finding]:
        numpy_names: Set[str] = set()  # "numpy" / "np"
        numpy_random_names: Set[str] = set()  # "numpy.random" aliases
        stdlib_random_names: Set[str] = set()  # "random" aliases
        direct_default_rng: Set[str] = set()  # from numpy.random import default_rng
        direct_global_fns: Set[str] = set()  # from random import random, ...

        for node in ast.walk(source.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    if alias.name == "numpy":
                        numpy_names.add(local)
                    elif alias.name == "numpy.random":
                        numpy_random_names.add(alias.asname or "numpy.random")
                        if alias.asname is None:
                            numpy_names.add("numpy")
                    elif alias.name == "random":
                        stdlib_random_names.add(local)
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random":
                    for alias in node.names:
                        if alias.name == "default_rng":
                            direct_default_rng.add(alias.asname or alias.name)
                elif node.module == "numpy":
                    for alias in node.names:
                        if alias.name == "random":
                            numpy_random_names.add(alias.asname or "random")
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name in self._STDLIB_GLOBAL:
                            direct_global_fns.add(alias.asname or alias.name)

        numpy_random_prefixes = {f"{name}.random" for name in numpy_names}
        numpy_random_prefixes.update(numpy_random_names)

        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_expr(node.func)
            if dotted is None:
                continue
            head, _, attr = dotted.rpartition(".")
            unseeded = not node.args and not node.keywords
            if head in numpy_random_prefixes:
                if attr == "default_rng":
                    if unseeded:
                        yield self.finding(
                            source,
                            node,
                            "default_rng() without a seed: runs are not "
                            "reproducible; pass an explicit seed",
                        )
                elif attr not in self._NUMPY_SAFE:
                    yield self.finding(
                        source,
                        node,
                        f"legacy global numpy RNG call {dotted}(): use a "
                        "seeded np.random.default_rng(...) Generator",
                    )
            elif dotted in direct_default_rng and unseeded:
                yield self.finding(
                    source,
                    node,
                    "default_rng() without a seed: runs are not "
                    "reproducible; pass an explicit seed",
                )
            elif head in stdlib_random_names:
                if attr == "Random":
                    if unseeded:
                        yield self.finding(
                            source,
                            node,
                            "random.Random() without a seed: pass an "
                            "explicit seed for reproducibility",
                        )
                elif attr in self._STDLIB_GLOBAL:
                    yield self.finding(
                        source,
                        node,
                        f"stdlib global RNG call {dotted}(): use a seeded "
                        "random.Random(...) (or numpy Generator) instance",
                    )
            elif dotted in direct_global_fns:
                yield self.finding(
                    source,
                    node,
                    f"stdlib global RNG call {dotted}(): use a seeded "
                    "random.Random(...) (or numpy Generator) instance",
                )


# ----------------------------------------------------------------------
@register
class BroadExceptRule(Rule):
    """Bare / over-broad exception handlers.

    Flags ``except:``, ``except BaseException:`` and an
    ``except Exception:`` whose body only ``pass``es (a silent
    swallow).  Cleanup-and-reraise handlers are legitimate — suppress
    with a justification when the breadth is deliberate.
    """

    id = "broad-except"
    summary = "bare or over-broad exception handler"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    source, node, "bare except: catches SystemExit and "
                    "KeyboardInterrupt; name the exceptions"
                )
            elif isinstance(node.type, ast.Name) and node.type.id == "BaseException":
                yield self.finding(
                    source, node, "except BaseException: catches interpreter "
                    "shutdown signals; name the exceptions"
                )
            elif (
                isinstance(node.type, ast.Name)
                and node.type.id == "Exception"
                and all(isinstance(stmt, ast.Pass) for stmt in node.body)
            ):
                yield self.finding(
                    source, node, "except Exception: pass silently swallows "
                    "every error; handle or narrow it"
                )


# ----------------------------------------------------------------------
@register
class GuardedByRule(Rule):
    """Guarded attribute accessed outside its lock.

    The convention: annotate the owning assignment (usually in
    ``__init__``) with ``# guarded-by: <lock_attr>``.  Every other
    method of that class must then touch ``self.<attr>`` only

    * lexically inside ``with self.<lock_attr>:``, or
    * in a function that calls ``assert_holds(self.<lock_attr>)``
      (the runtime auditor enforces the same contract when enabled).

    ``__init__`` / ``__post_init__`` are exempt: the object is not yet
    shared during construction.
    """

    id = "guarded-by"
    summary = "guarded attribute accessed outside its lock"

    _EXEMPT = {"__init__", "__post_init__"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                guards = self._collect_guards(node, source)
                if guards:
                    yield from self._check_class(node, guards, source)

    def _collect_guards(
        self, cls: ast.ClassDef, source: SourceFile
    ) -> Dict[str, str]:
        """Map guarded attribute name -> lock attribute name."""
        guards: Dict[str, str] = {}
        for node in ast.walk(cls):
            lock = source.guards.get(getattr(node, "lineno", -1))
            if lock is None:
                continue
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):
                targets = [node.target]
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    guards[target.attr] = lock
                elif isinstance(target, ast.Name):  # class-level declaration
                    guards[target.id] = lock
        return guards

    def _check_class(
        self, cls: ast.ClassDef, guards: Dict[str, str], source: SourceFile
    ) -> Iterator[Finding]:
        for stmt in cls.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name in self._EXEMPT:
                continue
            held = self._asserted_locks(stmt)
            for body_stmt in stmt.body:
                yield from self._scan(body_stmt, guards, held, source)

    def _asserted_locks(self, fn: ast.AST) -> Set[str]:
        """Locks the function declares held via ``assert_holds(self.X)``."""
        held: Set[str] = set()
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and self._callee_name(node.func) == "assert_holds"
                and node.args
                and isinstance(node.args[0], ast.Attribute)
                and isinstance(node.args[0].value, ast.Name)
                and node.args[0].value.id == "self"
            ):
                held.add(node.args[0].attr)
        return held

    @staticmethod
    def _callee_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _scan(
        self,
        node: ast.AST,
        guards: Dict[str, str],
        held: Set[str],
        source: SourceFile,
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.With, ast.AsyncWith)):
            acquired = set()
            for item in node.items:
                expr = item.context_expr
                # ``with self.<lock>:`` — both plain and audited locks.
                if (
                    isinstance(expr, ast.Attribute)
                    and isinstance(expr.value, ast.Name)
                    and expr.value.id == "self"
                ):
                    acquired.add(expr.attr)
                yield from self._scan(expr, guards, held, source)
            inner = held | acquired
            for child in node.body:
                yield from self._scan(child, guards, inner, source)
            return
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
            and node.attr in guards
            and guards[node.attr] not in held
        ):
            yield self.finding(
                source,
                node,
                f"self.{node.attr} is guarded by self.{guards[node.attr]} "
                f"(# guarded-by) but accessed without holding it",
            )
            return
        for child in ast.iter_child_nodes(node):
            yield from self._scan(child, guards, held, source)


# ----------------------------------------------------------------------
@register
class UnboundedRetryRule(Rule):
    """Retry loop with no attempt bound or budget in sight.

    The ingest path's delivery accounting only converges because every
    retry is *bounded*: a batch that keeps failing must eventually be
    declared permanently failed (or dead-lettered), not re-scheduled
    forever.  This rule flags the shape that breaks that contract — a
    function in a **retry context** that re-schedules work
    (``sim.schedule(...)``) or spins (``while True``) with no **bound
    evidence** anywhere in scope.

    A function is a retry context when any of:

    * its name mentions retrying (``retry``/``resend``/``resubmit``/
      ``requeue``/``redispatch``/``retransmit``);
    * it schedules a callback whose name mentions retrying;
    * it bumps a retry counter (``self.retried += 1`` or
      ``counter("...retries...").inc()``).

    Bound evidence is any identifier naming a limit or an attempt
    count: words like ``attempt``/``attempts``/``budget``/``tries``,
    or any ``max_*`` name.  Evidence in an enclosing function counts
    for its closures (the bound check often lives one frame up).

    Plain periodic self-rescheduling (``self._tick`` scheduling
    ``self._tick``) is exempt — that is a clock, not a retry.
    """

    id = "unbounded-retry"
    summary = "retry path re-schedules with no attempt bound or budget"

    _RETRY = re.compile(r"retr(y|i)|resend|resubmit|requeue|redispatch|retransmit", re.I)
    _BOUND_WORDS = {"attempt", "attempts", "budget", "tries", "try", "retries_left"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        yield from self._walk(source.tree.body, source, inherited=False)

    # ------------------------------------------------------------------
    def _walk(
        self, body: List[ast.stmt], source: SourceFile, inherited: bool
    ) -> Iterator[Finding]:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                bounded = inherited or self._has_bound_evidence(stmt)
                if not bounded and self._is_retry_context(stmt):
                    yield from self._flag_unbounded(stmt, source)
                yield from self._walk(stmt.body, source, inherited=bounded)
            elif isinstance(stmt, ast.ClassDef):
                # A class body resets the scope: methods do not close
                # over module-level bounds.
                yield from self._walk(stmt.body, source, inherited=False)
            else:
                for child in ast.walk(stmt):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        bounded = inherited or self._has_bound_evidence(child)
                        if not bounded and self._is_retry_context(child):
                            yield from self._flag_unbounded(child, source)

    # ------------------------------------------------------------------
    # classification
    # ------------------------------------------------------------------
    def _is_retry_context(self, fn: ast.AST) -> bool:
        name = getattr(fn, "name", "")
        if self._RETRY.search(name):
            return True
        for node in self._own_nodes(fn):
            # self.retried += 1 / report.retransmits += 1
            if (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and self._RETRY.search(node.target.attr)
            ):
                return True
            if isinstance(node, ast.Call):
                # counter("...retries...").inc(...)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "inc"
                    and isinstance(node.func.value, ast.Call)
                    and self._callee_name(node.func.value.func) == "counter"
                    and node.func.value.args
                    and isinstance(node.func.value.args[0], ast.Constant)
                    and isinstance(node.func.value.args[0].value, str)
                    and self._RETRY.search(node.func.value.args[0].value)
                ):
                    return True
                # schedule(..., self._resend, ...)
                if self._is_schedule(node):
                    callback = self._scheduled_callback(node)
                    if callback is not None and self._RETRY.search(
                        callback.rpartition(".")[2]
                    ) and not self._is_self_reschedule(fn, callback):
                        return True
        return False

    def _has_bound_evidence(self, fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            name: Optional[str] = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.arg):
                name = node.arg
            if name is None:
                continue
            lowered = name.lower()
            if lowered.startswith("max"):
                return True
            if self._BOUND_WORDS & set(lowered.split("_")):
                return True
        return False

    # ------------------------------------------------------------------
    # flagging
    # ------------------------------------------------------------------
    def _flag_unbounded(self, fn: ast.AST, source: SourceFile) -> Iterator[Finding]:
        name = getattr(fn, "name", "<lambda>")
        for node in self._own_nodes(fn):
            if isinstance(node, ast.Call) and self._is_schedule(node):
                callback = self._scheduled_callback(node)
                if callback is not None and self._is_self_reschedule(fn, callback):
                    continue
                yield self.finding(
                    source,
                    node,
                    f"{name}() re-schedules a retry with no attempt bound "
                    "or budget in scope; cap it (max_retries / budget) so "
                    "delivery accounting can converge",
                )
            elif (
                isinstance(node, ast.While)
                and isinstance(node.test, ast.Constant)
                and node.test.value is True
                and not any(isinstance(sub, ast.Break) for sub in ast.walk(node))
            ):
                yield self.finding(
                    source,
                    node,
                    f"{name}() spins retries in a while True with no break, "
                    "bound, or budget; cap the attempts",
                )

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _own_nodes(fn: ast.AST) -> Iterator[ast.AST]:
        """Walk ``fn`` without descending into nested function defs."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _is_schedule(node: ast.Call) -> bool:
        return (
            isinstance(node.func, ast.Attribute) and node.func.attr == "schedule"
        ) or (isinstance(node.func, ast.Name) and node.func.id == "schedule")

    @staticmethod
    def _scheduled_callback(node: ast.Call) -> Optional[str]:
        if len(node.args) >= 2:
            return dotted_expr(node.args[1])
        return None

    @staticmethod
    def _is_self_reschedule(fn: ast.AST, callback: str) -> bool:
        return callback.rpartition(".")[2] == getattr(fn, "name", "")

    @staticmethod
    def _callee_name(func: ast.expr) -> Optional[str]:
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None


# ----------------------------------------------------------------------
@register
class UnboundedCacheRule(Rule):
    """A dict/list used as a cache with no eviction bound in sight.

    The serving tier's memory-safety contract: any attribute that
    *names itself a cache* (``cache``/``memo`` in the attribute name)
    and is initialised to an empty ``dict``/``list``/``set``/
    ``OrderedDict`` must come with eviction somewhere in its class —
    otherwise it grows for the life of the process (the classic
    result-cache leak this repo's :class:`~repro.serve.cache.ResultCache`
    exists to prevent).

    **Bound evidence** (either silences the rule for the class):

    * structural: ``self.<attr>.pop/popitem/clear(...)`` or
      ``del self.<attr>[...]`` on the *same* attribute anywhere in the
      class;
    * lexical: an identifier in the class naming a limit —
      ``capacity``/``maxsize``/``max_*``/``limit``/``evict``/``ttl``/
      ``lru``/``expires`` — covering designs that delegate eviction.

    Plain flags like ``self._cached = False`` are not containers and
    are never flagged.
    """

    id = "unbounded-cache"
    summary = "dict/list used as a cache with no eviction bound"

    _CACHE_NAME = re.compile(r"cache|memo", re.I)
    _BOUND_NAME = re.compile(r"capacity|maxsize|max_|limit|evict|ttl|lru|expires", re.I)
    _EVICT_METHODS = {"pop", "popitem", "clear", "popleft"}
    _EMPTY_FACTORIES = {"dict", "list", "set", "OrderedDict", "defaultdict", "deque"}

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if isinstance(node, ast.ClassDef):
                yield from self._check_class(node, source)

    # ------------------------------------------------------------------
    def _check_class(self, cls: ast.ClassDef, source: SourceFile) -> Iterator[Finding]:
        containers: Dict[str, ast.stmt] = {}
        for node in ast.walk(cls):
            attr, value = self._container_assignment(node)
            if (
                attr is not None
                and value is not None
                and self._CACHE_NAME.search(attr)
                and self._is_empty_container(value)
                and attr not in containers
            ):
                containers[attr] = node  # type: ignore[assignment]
        if not containers:
            return
        evicted, lexical_bound = self._class_evidence(cls)
        if lexical_bound:
            return
        for attr, node in containers.items():
            if attr in evicted:
                continue
            yield self.finding(
                source,
                node,
                f"self.{attr} looks like a cache but nothing in "
                f"{cls.name} ever evicts from it: bound it (LRU/TTL/"
                "capacity) or clear it on a lifecycle edge",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _container_assignment(node: ast.AST):
        """``(attr, value)`` for ``self.<attr> = <value>`` forms."""
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target: ast.expr = node.targets[0]
            value: Optional[ast.expr] = node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            value = node.value
        else:
            return None, None
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            return target.attr, value
        return None, None

    def _is_empty_container(self, value: ast.expr) -> bool:
        if isinstance(value, (ast.Dict, ast.List, ast.Set)):
            return not getattr(value, "keys", None) and not getattr(value, "elts", None)
        if isinstance(value, ast.Call) and not value.args and not value.keywords:
            name = dotted_expr(value.func)
            return name is not None and name.rpartition(".")[2] in self._EMPTY_FACTORIES
        return False

    def _class_evidence(self, cls: ast.ClassDef):
        evicted: Set[str] = set()
        lexical = False
        for node in ast.walk(cls):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                # self.<attr>.pop(...) / .popitem() / .clear()
                owner = node.func.value
                if (
                    node.func.attr in self._EVICT_METHODS
                    and isinstance(owner, ast.Attribute)
                    and isinstance(owner.value, ast.Name)
                    and owner.value.id == "self"
                ):
                    evicted.add(owner.attr)
            elif isinstance(node, ast.Delete):
                # del self.<attr>[key]
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Attribute)
                        and isinstance(target.value.value, ast.Name)
                        and target.value.value.id == "self"
                    ):
                        evicted.add(target.value.attr)
            for name in self._identifiers(node):
                if name and self._BOUND_NAME.search(name):
                    lexical = True
        return evicted, lexical

    @staticmethod
    def _identifiers(node: ast.AST) -> Iterator[Optional[str]]:
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.arg):
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name


# ----------------------------------------------------------------------
@register
class UnsuppressedAlertEmitRule(Rule):
    """Alert emission outside the ``repro.alerting`` dedup/suppression layer.

    The alerting tier's contract is that *every* operator-facing alert
    passes through :class:`~repro.alerting.manager.AlertManager` — the
    dedup, hysteresis, flap-suppression, and roll-up machinery.  A
    module that writes ``alert.*`` series, constructs
    :class:`~repro.alerting.events.Incident` objects, or calls the
    store's ``record_incident``/``record_resolve`` directly has minted
    an unsuppressed alert: it will page on transients the manager would
    have discarded and duplicate incidents the manager would have
    folded.  Route raw detections through ``AlertManager.observe`` as
    :class:`~repro.alerting.events.AnomalyEvent` batches instead.
    Tests and benchmarks (outside the package tree) are exempt.
    """

    id = "unsuppressed-alert-emit"
    summary = "alert emission outside the repro.alerting suppression layer"

    _STORE_METHODS = {"record_incident", "record_resolve"}
    _ADVICE = (
        "route detections through AlertManager.observe (repro.alerting) "
        "so dedup, hysteresis, and flap suppression apply"
    )

    def applies_to(self, source: SourceFile) -> bool:
        parts = source.path.parts
        return "repro" in parts and "alerting" not in parts

    def check(self, source: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_expr(node.func)
            terminal = dotted.rpartition(".")[2] if dotted is not None else None
            if terminal == "Incident":
                yield self.finding(
                    source,
                    node,
                    f"Incident(...) constructed outside repro.alerting: "
                    f"{self._ADVICE}",
                )
                continue
            if terminal in self._STORE_METHODS:
                yield self.finding(
                    source,
                    node,
                    f"direct {terminal}(...) call bypasses the suppression "
                    f"layer: {self._ADVICE}",
                )
                continue
            metric = self._alert_metric_literal(node, terminal)
            if metric is not None:
                yield self.finding(
                    source,
                    node,
                    f"'{metric}' series written outside repro.alerting: "
                    f"{self._ADVICE}",
                )

    @staticmethod
    def _alert_metric_literal(node: ast.Call, terminal: Optional[str]) -> Optional[str]:
        """The ``alert.*`` metric name when this call mints such a point."""
        if terminal not in {"DataPoint", "make", "from_columns", "SeriesBlock"}:
            return None
        for arg in node.args[:1]:
            if (
                isinstance(arg, ast.Constant)
                and isinstance(arg.value, str)
                and arg.value.startswith("alert.")
            ):
                return arg.value
        for keyword in node.keywords:
            if (
                keyword.arg == "metric"
                and isinstance(keyword.value, ast.Constant)
                and isinstance(keyword.value.value, str)
                and keyword.value.value.startswith("alert.")
            ):
                return keyword.value.value
        return None


# ----------------------------------------------------------------------
@register
class UnboundedTimeRangeRule(Rule):
    """A ``TsdbQuery`` whose end bound folds to the open-axis sentinel.

    An end of ``2**31 - 1`` (or anything at/above it) means "scan the
    whole time axis": the query can never be served from a rollup tier
    (no tier watermark covers an open end), pins every retention floor
    check, and its cost grows without bound as the fleet's history
    accumulates — exactly the super-linear degradation E18 measures.
    Dashboards and engines must bound their ranges; the few deliberate
    open-axis scans (self-telemetry panels that ride the simulator
    clock) carry a per-line suppression with a justification.

    The end argument is constant-folded through int literals, ``+ - *
    ** //`` arithmetic, module-level and function-local ``NAME =``
    assignments, and both branches of conditional expressions (if
    *either* branch is open, the site can scan the whole axis).  Ends
    that do not fold — call parameters, attribute loads — are assumed
    bounded by the caller.  Tests, benchmarks, and examples (outside
    the package tree) and the ``repro.bench`` harness are exempt.
    """

    id = "unbounded-time-range"
    summary = "TsdbQuery constructed with an effectively unbounded end"

    #: Smallest end value treated as "the whole time axis".
    _OPEN_END = 2**31 - 1

    def applies_to(self, source: SourceFile) -> bool:
        parts = source.path.parts
        return "repro" in parts and "bench" not in parts

    def check(self, source: SourceFile) -> Iterator[Finding]:
        env = self._environment(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_expr(node.func)
            if dotted is None or dotted.rpartition(".")[2] != "TsdbQuery":
                continue
            end = self._end_argument(node)
            if end is None:
                continue
            value = self._fold(end, env)
            if value is not None and value >= self._OPEN_END:
                yield self.finding(
                    source,
                    node,
                    f"query end folds to {value} (>= 2**31-1: the whole "
                    f"time axis) — bound the range so rollup routing and "
                    f"retention floors apply, or suppress with a "
                    f"justification",
                )

    @staticmethod
    def _end_argument(node: ast.Call) -> Optional[ast.expr]:
        """The expression bound to ``end`` (keyword or third positional)."""
        for keyword in node.keywords:
            if keyword.arg == "end":
                return keyword.value
        if len(node.args) >= 3 and not any(
            isinstance(arg, ast.Starred) for arg in node.args[:3]
        ):
            return node.args[2]
        return None

    def _environment(self, tree: ast.AST) -> Dict[str, int]:
        """Foldable ``NAME = <int expr>`` bindings, module + function scope.

        Two passes so a module constant defined before a function still
        resolves inside it regardless of walk order; a name bound more
        than once keeps its *largest* folded value (conservative: the
        rule asks "can this end be open?", not "must it be").
        """
        env: Dict[str, int] = {}
        for _ in range(2):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    if len(node.targets) != 1 or not isinstance(
                        node.targets[0], ast.Name
                    ):
                        continue
                    name, value_node = node.targets[0].id, node.value
                elif isinstance(node, ast.AnnAssign):
                    if not isinstance(node.target, ast.Name) or node.value is None:
                        continue
                    name, value_node = node.target.id, node.value
                else:
                    continue
                value = self._fold(value_node, env)
                if value is not None:
                    env[name] = max(value, env.get(name, value))
        return env

    def _fold(self, node: ast.expr, env: Dict[str, int]) -> Optional[int]:
        """Largest int the expression can evaluate to, or ``None``."""
        if isinstance(node, ast.Constant):
            if isinstance(node.value, int) and not isinstance(node.value, bool):
                return node.value
            return None
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            value = self._fold(node.operand, env)
            return None if value is None else -value
        if isinstance(node, ast.IfExp):
            branches = [self._fold(node.body, env), self._fold(node.orelse, env)]
            known = [b for b in branches if b is not None]
            return max(known) if known else None
        if isinstance(node, ast.BinOp):
            left = self._fold(node.left, env)
            right = self._fold(node.right, env)
            if left is None or right is None:
                return None
            op = node.op
            if isinstance(op, ast.Add):
                return left + right
            if isinstance(op, ast.Sub):
                return left - right
            if isinstance(op, ast.Mult):
                return left * right
            if isinstance(op, ast.Pow) and 0 <= right <= 64:
                return left**right
            if isinstance(op, ast.FloorDiv) and right != 0:
                return left // right
            return None
        return None


# ----------------------------------------------------------------------
#: trailing attributes that mark a registry handle as written to
_EMIT_ATTRS = frozenset({"inc", "add", "observe", "record", "set", "mark", "update"})
#: trailing attributes that mark a registry handle as read
_QUERY_ATTRS = frozenset(
    {"get", "snapshot", "quantile", "percentile", "rate", "value"}
)
#: registry factory methods whose first argument names the series
_METRIC_FACTORIES = frozenset({"counter", "gauge", "histogram", "meter"})
#: derived series appended by the histogram exporter
_HISTOGRAM_SUFFIXES = (".p50", ".p95", ".p99", ".mean", ".count")


@dataclass(frozen=True)
class _MetricSite:
    name: str
    source: SourceFile
    node: ast.Call
    is_histogram: bool


def _module_key(source: SourceFile) -> str:
    """Sort key in dotted-module-name order (``pkg/__init__.py`` is ``pkg``)."""
    return ".".join(p for p in source.path.with_suffix("").parts if p != "__init__")


@register
class TelemetryDriftRule(Rule):
    """Emitted and queried metric namespaces must agree across a package.

    Emit sites are registry-factory calls whose handle is written
    (``...counter("proxy.retries").inc()``) plus ``SelfReporter``
    ``_datapoint`` writes; query sites are handles that are read
    (``....get()``) and dashboard prefix tuples (module-level tuples
    of dot-terminated string literals).  A bare handle (assigned and
    used later) is counted on both sides — flow-insensitively it both
    creates and may read the series.  Dynamic (f-string) names are
    skipped: they emit unknown names, so only exact-name queries are
    checked against the emitted set, never prefixes.
    """

    id = "telemetry-drift"
    summary = "metric names must be both emitted and queried somewhere"

    def check_package(self, sources: Sequence[SourceFile]) -> Iterator[Finding]:
        emits: List[_MetricSite] = []
        queries: List[_MetricSite] = []
        prefixes: Set[str] = set()
        for source in sorted(sources, key=_module_key):
            self._collect_sites(source, emits, queries)
            prefixes |= self._collect_prefixes(source)

        emitted_names: Set[str] = set()
        for site in emits:
            emitted_names.add(site.name)
            if site.is_histogram:
                emitted_names.update(
                    site.name + suffix for suffix in _HISTOGRAM_SUFFIXES
                )
        queried_names = {site.name for site in queries}
        emitted_heads = {name.split(".", 1)[0] for name in emitted_names}

        def covered(name: str) -> bool:
            if name in queried_names:
                return True
            return any(name.startswith(prefix) for prefix in prefixes)

        seen: Set[Tuple[str, str]] = set()
        for site in emits:
            variants = [site.name]
            if site.is_histogram:
                variants += [site.name + s for s in _HISTOGRAM_SUFFIXES]
            if any(covered(v) for v in variants):
                continue
            key = ("emit", site.name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                site.source,
                site.node,
                f"metric '{site.name}' is emitted but never queried — no "
                "reader calls .get() on it and no dashboard prefix tuple "
                "covers it; wire it into a panel or drop the emission",
            )
        for site in queries:
            if site.name in emitted_names:
                continue
            if site.name.split(".", 1)[0] not in emitted_heads:
                # Data-series namespaces (sensor names etc.) are out of
                # scope; only self-telemetry families are checked.
                continue
            key = ("query", site.name)
            if key in seen:
                continue
            seen.add(key)
            yield self.finding(
                site.source,
                site.node,
                f"metric '{site.name}' is queried but never emitted — the "
                "reader will only ever see zeros; fix the name or add the "
                "emitting site",
            )

    # ------------------------------------------------------------------
    def _collect_sites(
        self,
        source: SourceFile,
        emits: List[_MetricSite],
        queries: List[_MetricSite],
    ) -> None:
        parents: Dict[ast.AST, ast.AST] = {}
        for node in ast.walk(source.tree):
            for child in ast.iter_child_nodes(node):
                parents[child] = node
        for node in ast.walk(source.tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant) and isinstance(first.value, str)):
                continue
            name = first.value
            if "." not in name or " " in name:
                continue
            site = _MetricSite(
                name=name,
                source=source,
                node=node,
                is_histogram=func.attr == "histogram",
            )
            if func.attr == "_datapoint":
                emits.append(site)
                continue
            if func.attr not in _METRIC_FACTORIES:
                continue
            trailing = parents.get(node)
            if isinstance(trailing, ast.Attribute):
                if trailing.attr in _EMIT_ATTRS:
                    emits.append(site)
                    continue
                if trailing.attr in _QUERY_ATTRS:
                    queries.append(site)
                    continue
            # Bare handle: registered and possibly read elsewhere.
            emits.append(site)
            queries.append(site)

    @staticmethod
    def _collect_prefixes(source: SourceFile) -> Set[str]:
        out: Set[str] = set()
        for stmt in source.tree.body:
            value: Optional[ast.expr] = None
            if isinstance(stmt, ast.Assign):
                value = stmt.value
            elif isinstance(stmt, ast.AnnAssign):
                value = stmt.value
            if not isinstance(value, (ast.Tuple, ast.List)) or len(value.elts) < 2:
                continue
            literals = [
                e.value
                for e in value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(literals) == len(value.elts) and all(
                lit.endswith(".") for lit in literals
            ):
                out.update(literals)
        return out
