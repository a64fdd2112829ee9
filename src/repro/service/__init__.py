"""The planning service: concurrent synthesis brokering and plan serving.

The paper's pipeline ends when an algorithm is synthesized; production
serving starts there.  This package turns the synthesis engine into an
online service: typed :class:`PlanRequest`/:class:`PlanResponse` messages
(:mod:`~repro.service.api`), a thread-safe broker that *coalesces*
identical in-flight requests so N concurrent callers trigger exactly one
synthesis (:mod:`~repro.service.broker`), a worker pool whose resolution
ladder degrades from cache hit through incremental synthesis to a baseline
algorithm on deadline expiry (:mod:`~repro.service.workers`), a registry
layering buffer-size routing tables over the algorithm cache
(:mod:`~repro.service.registry`), and a stdlib HTTP endpoint plus client
(:mod:`~repro.service.server`) behind ``repro serve`` / ``repro request``.
"""

from .api import (
    API_VERSION,
    DEFAULT_DEADLINE_S,
    FAULT_ACTIONS,
    FaultRequest,
    FaultResponse,
    PlanRequest,
    PlanResponse,
    ServiceError,
)
from .broker import Broker, BrokerError, Job, Ticket
from .faults import FaultBoard, apply_fault_request
from .registry import (
    DEFAULT_ROUTE_SIZES,
    PlanRegistry,
    RegistryError,
    RouteEntry,
    RoutingTable,
    build_routing_table,
    default_registry,
    routing_key,
)
from .server import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    PlanningHTTPServer,
    ServerThread,
    check_health,
    fetch_metrics,
    fetch_stats,
    make_server,
    request_fault,
    request_plan,
)
from .workers import (
    PlanningService,
    SynthesisResolver,
    WorkerError,
    WorkerPool,
    baseline_algorithm,
)

__all__ = [
    "API_VERSION",
    "Broker",
    "BrokerError",
    "DEFAULT_DEADLINE_S",
    "DEFAULT_HOST",
    "DEFAULT_PORT",
    "DEFAULT_ROUTE_SIZES",
    "FAULT_ACTIONS",
    "FaultBoard",
    "FaultRequest",
    "FaultResponse",
    "Job",
    "PlanRegistry",
    "PlanRequest",
    "PlanResponse",
    "PlanningHTTPServer",
    "PlanningService",
    "RegistryError",
    "RouteEntry",
    "RoutingTable",
    "ServerThread",
    "ServiceError",
    "SynthesisResolver",
    "Ticket",
    "WorkerError",
    "WorkerPool",
    "apply_fault_request",
    "baseline_algorithm",
    "build_routing_table",
    "check_health",
    "fetch_metrics",
    "fetch_stats",
    "default_registry",
    "make_server",
    "request_fault",
    "request_plan",
    "routing_key",
]
