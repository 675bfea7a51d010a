"""Discrete-event cluster simulation substrate.

Provides the event loop, machines/servers, network latency model,
failure injection and metrics used to simulate the paper's 32-node
HBase/OpenTSDB ingestion cluster on a single host.
"""

from .failures import OverflowCrashPolicy, RandomCrashInjector
from .metrics import (
    Counter,
    Gauge,
    LatencyHistogram,
    MetricsRegistry,
    TimeSeriesRecorder,
    skew_ratio,
)
from .network import Network
from .node import Node, Server
from .simulation import EventHandle, SimulationError, Simulator

__all__ = [
    "Counter",
    "EventHandle",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Network",
    "Node",
    "OverflowCrashPolicy",
    "RandomCrashInjector",
    "Server",
    "SimulationError",
    "Simulator",
    "TimeSeriesRecorder",
    "skew_ratio",
]
