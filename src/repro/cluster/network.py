"""Network latency model for simulated RPC.

RPCs between simulated components are function calls delivered after a
fixed one-way latency: :data:`REMOTE_LATENCY` (propagation + protocol
overhead) between hosts, the much smaller :data:`LOCAL_LATENCY` for
same-host calls.

The model is deliberately coarse — the paper's throughput results are
dominated by server-side service capacity, not by the wire — but
having *some* latency matters: it gives in-flight windows a meaning,
which the backpressure proxy (E7) relies on.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from .simulation import EventHandle, Simulator

__all__ = ["LOCAL_LATENCY", "Network", "REMOTE_LATENCY"]

#: One-way latency (s) of a call between two hosts.
REMOTE_LATENCY = 0.0005

#: One-way latency (s) of a same-host (loopback) call.
LOCAL_LATENCY = 0.00005


class Network:
    """Message-passing fabric: deliver callbacks after modelled latency.

    Components address each other by hostname only for latency purposes;
    delivery is a direct callback invocation.  Partitions can be
    injected for failure testing: messages to/from a partitioned host
    are silently dropped, as on a real network.
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._partitioned: set[str] = set()
        self._slowdowns: dict[str, float] = {}
        self.messages_sent = 0
        self.messages_dropped = 0

    def partition(self, host: str) -> None:
        """Cut a host off from the network."""
        self._partitioned.add(host)

    def heal(self, host: str) -> None:
        """Restore a partitioned host."""
        self._partitioned.discard(host)

    def is_partitioned(self, host: str) -> bool:
        return host in self._partitioned

    # ------------------------------------------------------------------
    # degraded links (chaos: latency inflation without full partition)
    # ------------------------------------------------------------------
    def slow_host(self, host: str, factor: float) -> None:
        """Inflate latency on every link touching ``host`` by ``factor``."""
        if factor < 1.0:
            raise ValueError("slowdown factor must be >= 1")
        self._slowdowns[host] = factor

    def restore_host(self, host: str) -> None:
        """Remove a latency inflation previously set by :meth:`slow_host`."""
        self._slowdowns.pop(host, None)

    def slowdown(self, host: str) -> float:
        """Current latency multiplier for ``host`` (1.0 when healthy)."""
        return self._slowdowns.get(host, 1.0)

    def send(
        self,
        src_host: str,
        dst_host: str,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Optional[EventHandle]:
        """Deliver ``callback(*args)`` at the destination after latency.

        Returns the event handle, or ``None`` if the message was dropped
        because either endpoint is partitioned.
        """
        if src_host in self._partitioned or dst_host in self._partitioned:
            self.messages_dropped += 1
            return None
        self.messages_sent += 1
        delay = LOCAL_LATENCY if src_host == dst_host else REMOTE_LATENCY
        if self._slowdowns:
            delay *= max(self.slowdown(src_host), self.slowdown(dst_host))
        return self.sim.schedule(delay, callback, *args)
