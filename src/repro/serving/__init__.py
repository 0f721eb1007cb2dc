"""Serving layer over compiled inference sessions.

Two drivers share one clock-free scheduling core
(:mod:`repro.serving.scheduler`), where admission control, dynamic
batching with deadline flushing, load shedding, expiry, retry or
failure on worker death (the last death fails every pending request
``no-workers`` and refuses later arrivals ``no-workers``) and the
exactly-once terminal ledger are written once:
:mod:`repro.serving.daemon`, a deterministic virtual-clock event loop
that replays every run bit for bit, injected crashes included, and
:mod:`repro.serving.server`, an always-on TCP/Unix socket server on
worker threads with graceful drain.  Around them:
:mod:`repro.serving.protocol` (length-prefixed JSON frames + output
digests), :mod:`repro.serving.client` (deadline-aware retrying client),
:mod:`repro.serving.health` (liveness/readiness + counters) and
:mod:`repro.serving.netfaults` (seeded chaos for the soak harness).
"""

from repro.serving.arrivals import Request, arrival_stream, poisson_arrivals
from repro.serving.clock import VirtualClock
from repro.serving.daemon import (
    COMPLETED,
    DEFAULT_BATCH_OVERHEAD_US,
    FAILED,
    REJECTED,
    BatchRecord,
    DaemonReport,
    ServedResponse,
    ServingDaemon,
)
from repro.serving.client import (
    RequestBusy,
    RequestNotServed,
    ServerUnavailable,
    ServingClient,
)
from repro.serving.faults import FaultPlan, WorkerKill
from repro.serving.health import HealthMonitor
from repro.serving.netfaults import (
    ANY_WORKER,
    NetFaultSchedule,
    ServerFaultPlan,
    WorkerBatchKill,
)
from repro.serving.pool import SessionPool
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    FrameDecoder,
    ProtocolError,
    functional_run_digest,
)
from repro.serving.queue import (
    FLUSH_DEADLINE,
    FLUSH_DRAIN,
    FLUSH_FULL,
    BatchQueue,
)
from repro.serving.scheduler import Scheduler, ShedPolicy
from repro.serving.server import ServingServer, demo_definitions
from repro.serving.stats import (
    REPORTED_PERCENTILES,
    LatencyRecorder,
    exact_percentile,
)

__all__ = [
    "ANY_WORKER",
    "BatchQueue",
    "BatchRecord",
    "COMPLETED",
    "DEFAULT_BATCH_OVERHEAD_US",
    "DaemonReport",
    "FAILED",
    "FLUSH_DEADLINE",
    "FLUSH_DRAIN",
    "FLUSH_FULL",
    "FaultPlan",
    "FrameDecoder",
    "HealthMonitor",
    "LatencyRecorder",
    "NetFaultSchedule",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "REJECTED",
    "REPORTED_PERCENTILES",
    "Request",
    "RequestBusy",
    "RequestNotServed",
    "Scheduler",
    "ServedResponse",
    "ServerFaultPlan",
    "ServerUnavailable",
    "ServingClient",
    "ServingDaemon",
    "ServingServer",
    "SessionPool",
    "ShedPolicy",
    "VirtualClock",
    "WorkerBatchKill",
    "WorkerKill",
    "arrival_stream",
    "demo_definitions",
    "exact_percentile",
    "functional_run_digest",
    "poisson_arrivals",
]
