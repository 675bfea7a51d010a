"""Runtime lock-discipline auditor for the concurrent hot path.

The fleet engine fans units across ``SparkletContext`` thread workers
while the publisher tracks acks through the reverse proxy; two modules
on that path share mutable state behind locks (``core/engine.py``,
``tsdb/publish.py``).  Sparklet's own tasks share none, so it owns no
lock.  This module gives those locks a *recorded* discipline:

* :func:`audited_lock` — drop-in lock factory.  With auditing disabled
  (the default) it returns a plain :class:`threading.Lock`/``RLock``,
  so production runs pay **zero** overhead.  With auditing enabled it
  returns an :class:`AuditedLock` that reports every acquire/release to
  the process-wide :class:`LockOrderAuditor`.
* :class:`LockOrderAuditor` — records the *lock-order graph*: an edge
  ``A -> B`` whenever a thread acquires ``B`` while holding ``A``.  A
  cycle in that graph is deadlock potential;
  :meth:`LockOrderAuditor.assert_no_cycles` fails the run with the
  offending cycle spelled out.
* :func:`assert_holds` — guarded-state helper for functions whose
  contract is "caller holds the lock".  No-op on plain locks; on an
  audited lock it raises :class:`GuardedStateError` when the calling
  thread does not hold it.  The static ``guarded-by`` lint rule
  (:mod:`repro.analysis.rules`) treats a function containing
  ``assert_holds(self.<lock>)`` as holding that lock, so the runtime
  check and the static check share one convention.

Tests enable auditing with :func:`auditing` (a context manager) *before*
constructing the objects under test, run the workload, then assert the
recorded graph is acyclic.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple, Union

__all__ = [
    "AuditedLock",
    "GuardedStateError",
    "LockOrderAuditor",
    "LockOrderViolation",
    "assert_holds",
    "audited_lock",
    "auditing",
    "current",
    "disable",
    "enable",
]

LockLike = Union["AuditedLock", threading.Lock, threading.RLock]


class LockOrderViolation(RuntimeError):
    """The recorded lock-order graph contains a cycle (deadlock risk)."""


class GuardedStateError(RuntimeError):
    """Guarded state was touched without its lock held."""


class LockOrderAuditor:
    """Process-wide recorder of lock acquisition order.

    Thread-safe: per-thread held stacks live in thread-local storage;
    the shared edge/count maps are guarded by ``_graph_lock``.
    """

    def __init__(self) -> None:
        self._graph_lock = threading.Lock()
        # (held, acquired) -> times observed; name -> total acquires.
        self._edges: Dict[Tuple[str, str], int] = {}  # guarded-by: _graph_lock
        self._acquires: Dict[str, int] = {}  # guarded-by: _graph_lock
        self._tls = threading.local()

    # ------------------------------------------------------------------
    # recording (called by AuditedLock)
    # ------------------------------------------------------------------
    def _held_stack(self) -> List[str]:
        held = getattr(self._tls, "held", None)
        if held is None:
            held = []
            self._tls.held = held
        return held

    def on_acquire(self, name: str) -> None:
        """Record an acquire *attempt* (before blocking on the lock).

        Recording before the blocking acquire means an actual deadlock
        still leaves its edges in the graph for a watchdog to read.
        """
        held = self._held_stack()
        with self._graph_lock:
            self._acquires[name] = self._acquires.get(name, 0) + 1
            for h in held:
                if h != name:  # reentrant re-acquire is not an ordering edge
                    edge = (h, name)
                    self._edges[edge] = self._edges.get(edge, 0) + 1
        held.append(name)

    def on_release(self, name: str) -> None:
        held = self._held_stack()
        for i in range(len(held) - 1, -1, -1):
            if held[i] == name:
                del held[i]
                return
        raise GuardedStateError(
            f"release of lock {name!r} which this thread does not hold"
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def holds(self, name: str) -> bool:
        """Whether the *calling thread* currently holds the named lock."""
        return name in self._held_stack()

    def edges(self) -> Dict[Tuple[str, str], int]:
        """Snapshot of the lock-order graph (edge -> observation count)."""
        with self._graph_lock:
            return dict(self._edges)

    def acquire_counts(self) -> Dict[str, int]:
        """Snapshot of total acquires per lock name."""
        with self._graph_lock:
            return dict(self._acquires)

    def find_cycle(self) -> Optional[List[str]]:
        """A lock-name cycle in the order graph, or ``None`` if acyclic."""
        graph: Dict[str, List[str]] = {}
        for a, b in self.edges():
            graph.setdefault(a, []).append(b)
        WHITE, GREY, BLACK = 0, 1, 2
        color = {name: WHITE for name in graph}
        parent: Dict[str, str] = {}

        def visit(node: str) -> Optional[List[str]]:
            color[node] = GREY
            for succ in graph.get(node, ()):
                if color.get(succ, WHITE) == GREY:
                    cycle = [succ, node]
                    cur = node
                    while cur != succ:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
                if color.get(succ, WHITE) == WHITE:
                    parent[succ] = node
                    found = visit(succ)
                    if found is not None:
                        return found
            color[node] = BLACK
            return None

        for name in graph:
            if color[name] == WHITE:
                found = visit(name)
                if found is not None:
                    return found
        return None

    def assert_no_cycles(self) -> None:
        """Raise :class:`LockOrderViolation` if the graph has a cycle."""
        cycle = self.find_cycle()
        if cycle is not None:
            raise LockOrderViolation(
                "lock-order cycle (deadlock potential): "
                + " -> ".join(cycle)
            )


class AuditedLock:
    """A named lock that reports acquire/release to an auditor.

    Supports the full context-manager protocol plus explicit
    ``acquire``/``release``, mirroring :class:`threading.Lock`.
    """

    def __init__(
        self, name: str, auditor: LockOrderAuditor, *, reentrant: bool = False
    ) -> None:
        self.name = name
        self.auditor = auditor
        self._inner: Union[threading.Lock, threading.RLock] = (
            threading.RLock() if reentrant else threading.Lock()
        )

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        self.auditor.on_acquire(self.name)
        acquired = self._inner.acquire(blocking, timeout)
        if not acquired:
            self.auditor.on_release(self.name)
        return acquired

    def release(self) -> None:
        self._inner.release()
        self.auditor.on_release(self.name)

    def __enter__(self) -> "AuditedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"AuditedLock({self.name!r})"


# ----------------------------------------------------------------------
# module-level switch
# ----------------------------------------------------------------------
_auditor: Optional[LockOrderAuditor] = None


def enable() -> LockOrderAuditor:
    """Turn auditing on; locks created *after* this call are audited."""
    global _auditor
    _auditor = LockOrderAuditor()
    return _auditor


def disable() -> None:
    """Turn auditing off; subsequently created locks are plain locks."""
    global _auditor
    _auditor = None


def current() -> Optional[LockOrderAuditor]:
    """The active auditor, or ``None`` when auditing is disabled."""
    return _auditor


@contextmanager
def auditing() -> Iterator[LockOrderAuditor]:
    """Enable auditing for a ``with`` block (tests), then restore."""
    auditor = enable()
    try:
        yield auditor
    finally:
        disable()


def audited_lock(name: str, *, reentrant: bool = False) -> LockLike:
    """Lock factory: audited when auditing is enabled, plain otherwise.

    The disabled path returns a raw ``threading.Lock``/``RLock`` — no
    wrapper, no per-acquire branch — so the hot path is untouched in
    production.
    """
    auditor = _auditor
    if auditor is None:
        return threading.RLock() if reentrant else threading.Lock()
    return AuditedLock(name, auditor, reentrant=reentrant)


def assert_holds(lock: LockLike) -> None:
    """Assert the calling thread holds ``lock`` (audited locks only).

    On a plain lock this is a no-op — Python locks do not expose an
    owner — so production code pays one ``isinstance`` check.  The
    static ``guarded-by`` rule treats a function that calls
    ``assert_holds(self.<lock>)`` as holding that lock throughout.
    """
    if isinstance(lock, AuditedLock) and not lock.auditor.holds(lock.name):
        raise GuardedStateError(
            f"guarded state touched without holding lock {lock.name!r}"
        )
