"""The serving daemon: the scheduling core on a virtual clock.

:class:`ServingDaemon` turns the one-shot batch fold of
:mod:`repro.nn.session` into a long-running service on a virtual
timeline.  Its scheduling rules — admission, batch selection on
``batch_cap`` or ``deadline_us``, retry or ``no-workers`` failure on
worker death and the exactly-once terminal ledger — are the clock-free
:class:`~repro.serving.scheduler.Scheduler` that the socket server
(:mod:`repro.serving.server`) drives too.  This module keeps only the
event heap, the worker tokens that void a dead worker's completion, the
modelled service time and the report types.  The daemon never drains,
its requests carry no deadline, and its batch cap never shrinks.

Determinism contract
--------------------

* **Time is virtual.**  Every timestamp comes from the injected
  :class:`~repro.serving.clock.VirtualClock`; service time is modelled
  from the batch's exact fused OHMMA count on the configured GPU preset
  plus a fixed per-dispatch ``batch_overhead_us`` (the cost batching
  amortises).  Nothing reads wall time, so latency percentiles are a
  pure function of (schedule, config, fault plan) and are
  golden-snapshotted in the ``serve_daemon`` experiment.
* **Outputs are real.**  Each dispatched batch executes
  :meth:`CompiledModel.run` immediately, so every completed response
  carries the actual :class:`~repro.nn.functional.FunctionalModelRun`,
  bit-identical per image to
  ``run_model_functional(model, ..., image=i, keep_outputs=True)``
  whatever the interleaving.
* **Every caller gets a terminal response**, asserted request by request
  in ``tests/serving/test_fault_injection.py``.

Event ordering at equal virtual times is fixed (kills, then
completions, then arrivals, then deadline timers; ties broken by an
insertion sequence number), so concurrent histories replay exactly.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.errors import ConfigError
from repro.hw.config import GpuConfig, V100_CONFIG
from repro.nn.functional import FunctionalModelRun
from repro.serving.arrivals import Request
from repro.serving.clock import VirtualClock
from repro.serving.faults import FaultPlan
from repro.serving.pool import SessionPool
from repro.serving.scheduler import (
    COMPLETED, FAILED, REJECTED, Scheduler, ShedPolicy,
)
from repro.serving.stats import LatencyRecorder

#: Modelled fixed cost of dispatching one batch (kernel launch, queue
#: bookkeeping) — the term a bigger batch amortises on the virtual
#: timeline, mirroring why real serving systems batch at all.
DEFAULT_BATCH_OVERHEAD_US = 50.0

#: The daemon's shed ladder never shrinks the batch cap.
_NO_SHED = ShedPolicy(cap_divisor=1)

# Event priorities at equal virtual times (see module docstring).
_PRIO_KILL = 0
_PRIO_COMPLETE = 1
_PRIO_ARRIVAL = 2
_PRIO_DEADLINE = 3


@dataclass(frozen=True)
class ServedResponse:
    """The terminal answer one caller receives.

    Attributes:
        request: the originating request.
        status: ``completed``, ``rejected`` or ``failed``.
        finish_us: virtual time of the terminal event.
        latency_us: ``finish_us - arrival_us`` for completed requests,
            ``0.0`` otherwise.
        reason: why a request was rejected (``no-workers``,
            ``duplicate``, ``unknown-model``, ``queue-full``) or failed
            (``worker-died``, ``no-workers``); empty when completed.
        result: the per-image functional run (outputs + DeviceStats),
            present only on completed responses.
        worker: serving worker id (completed responses only).
        batch_size: size of the batch this request completed in.
        flush_cause: why that batch flushed (``full`` / ``deadline`` /
            ``drain``).
        attempts: dispatch attempts (> 1 means the request survived a
            worker death and was retried).
    """

    request: Request
    status: str
    finish_us: float
    latency_us: float = 0.0
    reason: str = ""
    result: "FunctionalModelRun | None" = field(default=None, repr=False)
    worker: int = -1
    batch_size: int = 0
    flush_cause: str = ""
    attempts: int = 0


@dataclass(frozen=True)
class BatchRecord:
    """One dispatched batch, completed or interrupted."""

    model: str
    worker: int
    images: tuple[int, ...]
    flush_cause: str
    dispatch_us: float
    service_us: float
    completed: bool


@dataclass(frozen=True)
class DaemonReport:
    """Everything one daemon run produced."""

    responses: tuple[ServedResponse, ...]
    batches: tuple[BatchRecord, ...]
    latency: LatencyRecorder
    latency_by_model: "dict[str, LatencyRecorder]"
    makespan_us: float
    wall_execute_seconds: float

    def by_id(self) -> "dict[str, ServedResponse]":
        """Responses keyed by request id (terminal answer per caller)."""
        return {resp.request.request_id: resp for resp in self.responses}

    def with_status(self, status: str) -> tuple[ServedResponse, ...]:
        """Responses with one terminal status, in terminal-event order."""
        return tuple(r for r in self.responses if r.status == status)

    @property
    def completed(self) -> tuple[ServedResponse, ...]:
        return self.with_status(COMPLETED)

    @property
    def rejected(self) -> tuple[ServedResponse, ...]:
        return self.with_status(REJECTED)

    @property
    def failed(self) -> tuple[ServedResponse, ...]:
        return self.with_status(FAILED)

    def images_per_sec(self) -> float:
        """Modelled completed-images throughput over the makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return len(self.completed) / (self.makespan_us * 1e-6)


@dataclass
class _Worker:
    """One logical serving worker."""

    worker_id: int
    alive: bool = True
    token: int = 0  # increments per dispatch; stale completions no-op
    inflight: "tuple | None" = None  # (batch, record, run) while busy


class ServingDaemon:
    """Dynamic-batching request daemon over a compiled-session pool.

    Args:
        pool: per-model compiled sessions (weights encoded once).
        batch_cap: maximum requests per flushed batch.
        deadline_us: maximum wait of the oldest pending request before a
            partial batch flushes.
        queue_depth: per-model admission bound on pending requests.
        workers: logical worker count batches are sharded across.
        config: GPU preset converting exact fused OHMMA counts into the
            modelled service time.
        batch_overhead_us: fixed modelled per-dispatch cost.
        faults: scheduled worker deaths (see :mod:`repro.serving.faults`).
        max_retries: additional dispatch attempts a request interrupted
            by a worker death is granted before failing terminally.
        clock: injectable virtual clock (a fresh one per run by default).
    """

    def __init__(
        self,
        pool: SessionPool,
        batch_cap: int = 8,
        deadline_us: float = 5_000.0,
        queue_depth: int = 64,
        workers: int = 2,
        config: "GpuConfig | None" = None,
        batch_overhead_us: float = DEFAULT_BATCH_OVERHEAD_US,
        faults: "FaultPlan | None" = None,
        max_retries: int = 1,
        clock: "VirtualClock | None" = None,
    ) -> None:
        if batch_overhead_us < 0:
            raise ConfigError(
                f"batch_overhead_us must be >= 0, got {batch_overhead_us}"
            )
        self.pool = pool
        self.batch_cap = int(batch_cap)
        self.deadline_us = float(deadline_us)
        self.queue_depth = int(queue_depth)
        self.worker_count = int(workers)
        self.config = config or V100_CONFIG
        self.batch_overhead_us = float(batch_overhead_us)
        self.faults = faults or FaultPlan()
        self.max_retries = int(max_retries)
        self.clock = clock
        self._scheduler()  # validates the geometry, workers and retries

    def _scheduler(self) -> Scheduler:
        """A fresh scheduling core for one run."""
        return Scheduler(
            self.batch_cap, self.deadline_us, self.queue_depth,
            self.worker_count, self.max_retries, known=self._known,
            shed=_NO_SHED,
        )

    def _known(self, model: str) -> bool:
        try:
            self.pool.definition(model)
        except ConfigError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Run
    # ------------------------------------------------------------------ #
    def run(self, requests: Sequence[Request]) -> DaemonReport:
        """Serve one request schedule to completion.

        Processes the schedule as a discrete-event simulation on the
        virtual clock and returns only when every admitted request has a
        terminal response.
        """
        clock = self.clock or VirtualClock()
        core = self._scheduler()
        workers = [_Worker(worker_id=i) for i in range(self.worker_count)]
        responses: list[ServedResponse] = []
        batches: list[BatchRecord] = []
        latency = LatencyRecorder()
        latency_by_model: "dict[str, LatencyRecorder]" = {}
        wall_seconds = 0.0

        events: list = []
        seq = 0

        def push(when_us: float, priority: int, kind: str, payload) -> None:
            nonlocal seq
            heapq.heappush(events, (when_us, priority, seq, kind, payload))
            seq += 1

        ordered = sorted(
            enumerate(requests), key=lambda pair: (pair[1].arrival_us, pair[0])
        )
        for _, request in ordered:
            push(request.arrival_us, _PRIO_ARRIVAL, "arrival", request)
        for kill in self.faults.kills_sorted():
            push(kill.at_us, _PRIO_KILL, "kill", kill.worker)

        # ---------------- event handlers ---------------- #
        def schedule_head_deadline(model: str) -> None:
            deadline = core.queues[model].head_deadline_us()
            if deadline is not None:
                # A head that waited through a busy worker may already be
                # overdue; it is due *now*, never in the past.
                push(
                    max(deadline, clock.now_us),
                    _PRIO_DEADLINE, "deadline", model,
                )

        def answer(terminals, now_us: float) -> None:
            """Record the core's failures and deadline rejections."""
            for request, status, reason in terminals:
                responses.append(ServedResponse(
                    request=request, status=status, finish_us=now_us,
                    reason=reason, attempts=core.attempts[request.request_id],
                ))

        def dispatch_due(now_us: float) -> None:
            """Hand due batches to idle workers while both remain."""
            nonlocal wall_seconds
            while (due := core.due(now_us)) is not None:
                idle = [w for w in workers if w.alive and w.inflight is None]
                if not idle:
                    return
                model, cause, limit = due
                batch, expired = core.take(model, limit, now_us)
                answer(expired, now_us)
                schedule_head_deadline(model)  # the next head starts waiting
                if not batch:
                    continue
                wall_start = time.perf_counter()
                run = self.pool.session(model).run([r.image for r in batch])
                wall_seconds += time.perf_counter() - wall_start
                service_us = self.batch_overhead_us + self.config.cycles_to_us(
                    run.ohmma_issued / self.config.ohmma_slots_per_cycle
                )
                worker = idle[0]
                worker.token += 1
                worker.inflight = (batch, BatchRecord(
                    model=model, worker=worker.worker_id,
                    images=tuple(request.image for request in batch),
                    flush_cause=cause, dispatch_us=now_us,
                    service_us=service_us, completed=False,
                ), run)
                push(
                    now_us + service_us, _PRIO_COMPLETE, "complete",
                    (worker.worker_id, worker.token),
                )

        def on_arrival(request: Request, now_us: float) -> None:
            reason = core.arrive(request, now_us)
            if reason is not None:
                responses.append(ServedResponse(
                    request=request, status=REJECTED, finish_us=now_us,
                    reason=reason,
                ))
                return
            if len(core.queues[request.model]) == 1:
                schedule_head_deadline(request.model)
            dispatch_due(now_us)

        def on_complete(worker_id: int, token: int, now_us: float) -> None:
            worker = workers[worker_id]
            if not worker.alive or worker.token != token:
                return  # stale: the worker died mid-batch
            (batch, record, run), worker.inflight = worker.inflight, None
            batches.append(replace(record, completed=True))
            results = {
                request.request_id: result
                for request, result in zip(batch, run.per_image)
            }
            for request, _, _ in core.complete(batch):
                waited_us = now_us - request.arrival_us
                latency.record(waited_us)
                latency_by_model.setdefault(
                    request.model, LatencyRecorder()
                ).record(waited_us)
                responses.append(ServedResponse(
                    request=request, status=COMPLETED, finish_us=now_us,
                    latency_us=waited_us, result=results[request.request_id],
                    worker=worker_id, batch_size=len(batch),
                    flush_cause=record.flush_cause,
                    attempts=core.attempts[request.request_id],
                ))
            dispatch_due(now_us)

        def on_kill(worker_id: int, now_us: float) -> None:
            if worker_id >= len(workers):
                raise ConfigError(
                    f"fault plan kills worker {worker_id} but only "
                    f"{len(workers)} exist"
                )
            worker = workers[worker_id]
            if not worker.alive:
                return
            worker.alive = False
            inflight, worker.inflight = worker.inflight, None
            if inflight is None:
                answer(core.died(None), now_us)
                return
            batch, record, _ = inflight
            batches.append(record)  # completed=False: interrupted mid-batch
            answer(core.died(record.model, batch), now_us)
            schedule_head_deadline(record.model)  # a requeued head waits
            dispatch_due(now_us)

        # ---------------- event loop ---------------- #
        while events:
            when_us, _, _, kind, payload = heapq.heappop(events)
            clock.advance_to(when_us)
            if kind == "arrival":
                on_arrival(payload, clock.now_us)
            elif kind == "complete":
                on_complete(payload[0], payload[1], clock.now_us)
            elif kind == "kill":
                on_kill(payload, clock.now_us)
            else:  # deadline timer: just wake the dispatcher
                dispatch_due(clock.now_us)

        return DaemonReport(
            responses=tuple(responses),
            batches=tuple(batches),
            latency=latency,
            latency_by_model=latency_by_model,
            makespan_us=clock.now_us,
            wall_execute_seconds=wall_seconds,
        )
