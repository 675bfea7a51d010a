"""Query-serving gateway: the read tier between dashboards and the TSDB.

``cache`` — canonical-keyed LRU+TTL result cache with write-through
invalidation and stale-while-revalidate; ``admission`` — bounded
execution slots, FIFO wait queue, deadlines and load shedding;
``gateway`` — the façade composing them in front of the
:class:`~repro.tsdb.query.QueryEngine`; ``workload`` — a seeded
multi-client fleet driver producing latency / hit-ratio / shed-rate
distributions (the E14 benchmark's engine).
"""

from .admission import AdmissionController, QueryRejected, Ticket
from .cache import CacheLookup, CanonicalQuery, ResultCache, canonical_key, result_etag
from .gateway import GatewayConfig, QueryGateway, ServeResult, ServeServiceModel
from .workload import FleetWorkload, WorkloadConfig, WorkloadReport

__all__ = [
    "AdmissionController",
    "CacheLookup",
    "CanonicalQuery",
    "FleetWorkload",
    "GatewayConfig",
    "QueryGateway",
    "QueryRejected",
    "ResultCache",
    "ServeResult",
    "ServeServiceModel",
    "Ticket",
    "WorkloadConfig",
    "WorkloadReport",
    "canonical_key",
    "result_etag",
]
