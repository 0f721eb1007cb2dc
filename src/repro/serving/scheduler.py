"""The clock-free scheduling core under both serving drivers.

:class:`Scheduler` holds every scheduling rule of the serving layer and
nothing else: it reads no clock, starts no thread and does no I/O.  The
caller passes the current time (``now_us``) into each event and holds
its own lock around the call.  The virtual-clock
:class:`~repro.serving.daemon.ServingDaemon` drives it from an event
heap; the wall-clock :class:`~repro.serving.server.ServingServer` from
socket and worker threads.  The rules:

* **Admission** refuses, tested in this order: ``draining``,
  ``no-workers``, ``duplicate`` (the id was accepted before),
  ``unknown-model`` (the caller's ``known`` test), ``deadline`` (the
  request's own deadline has passed) and ``queue-full``.
* **Batch selection.**  A queue is due when it holds the batch cap, when
  its oldest request has waited ``deadline_us``, or at once while
  draining.  Among due queues the least recently served goes first, so
  a busy model cannot starve a quiet one.
* **Load shedding** (:class:`ShedPolicy`) only shrinks the cap of a deep
  queue; a full queue refuses new work through its depth bound.
* **Expiry at take.**  A request whose own deadline passed while queued
  is answered ``rejected(deadline)`` and never executed.
* **Worker death.**  Requests of the interrupted batch within
  ``max_retries`` extra dispatches go back to the head of their queue;
  the rest fail ``worker-died``.  When the last worker dies, every
  pending and interrupted request fails ``no-workers`` at once and later
  arrivals are refused ``no-workers``.
* **Terminal ledger.**  Every accepted request gets exactly one terminal
  answer, a ``(request, status, reason)`` triple for the driver to
  deliver.  A second one is counted in ``violations`` and never returned.

Requests are duck-typed: the core reads ``request_id``, ``model``,
``arrival_us`` and, when present, ``deadline_us`` (the daemon's
:class:`~repro.serving.arrivals.Request` has none, so it never expires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.errors import ConfigError
from repro.serving.queue import FLUSH_DRAIN, BatchQueue, check_geometry

#: Terminal response statuses.
COMPLETED = "completed"
REJECTED = "rejected"
FAILED = "failed"

#: The counter each ledgered status feeds (the only ledgered rejection
#: is an expired deadline: refused requests were never accepted).
_OUTCOME_COUNTERS = {
    COMPLETED: "completed",
    FAILED: "failed",
    REJECTED: "rejected_deadline",
}


@dataclass(frozen=True)
class ShedPolicy:
    """The degradation ladder, driven by per-model queue depth.

    Attributes:
        soft_fraction: queue utilization at which level 1 engages.
        cap_divisor: the batch cap shrink factor at level >= 1 (``1``
            never shrinks it).
    """

    soft_fraction: float = 0.5
    cap_divisor: int = 2

    def __post_init__(self) -> None:
        if not 0.0 < self.soft_fraction <= 1.0:
            raise ConfigError(
                f"soft_fraction must be in (0, 1], got {self.soft_fraction}"
            )
        if self.cap_divisor < 1:
            raise ConfigError(
                f"cap_divisor must be >= 1, got {self.cap_divisor}"
            )

    def level(self, depth: int, queue_depth: int) -> int:
        """0 = normal, 1 = shrink the batch cap, 2 = the queue is full."""
        if depth >= queue_depth:
            return 2
        if depth >= self.soft_fraction * queue_depth:
            return 1
        return 0

    def effective_cap(self, batch_cap: int, level: int) -> int:
        """The flush cap at a shed level (never below one)."""
        if level >= 1:
            return max(1, batch_cap // self.cap_divisor)
        return batch_cap


class Scheduler:
    """Admission, batching, retry and the terminal ledger, clock-free.

    ``batch_cap``, ``deadline_us``, ``queue_depth``, ``workers`` and
    ``max_retries`` mean what they mean on the drivers.  ``known`` tests
    whether a model can be served; ``shed`` is the ladder (the default
    halves the cap of a half-full queue); ``tally`` is called with a
    counter name for each outcome the core decides (``completed``,
    ``failed``, ``rejected_deadline``, ``retries``, ``violations``).

    ``queues`` holds one :class:`BatchQueue` per model, least recently
    served first; ``attempts`` counts dispatches per accepted id (its
    keys are what the duplicate test reads); ``terminals`` is the
    ledger; the driver sets ``draining`` to refuse new work and flush.
    """

    def __init__(
        self,
        batch_cap: int,
        deadline_us: float,
        queue_depth: int,
        workers: int,
        max_retries: int,
        known: Callable[[str], bool],
        shed: "ShedPolicy | None" = None,
        tally: "Callable[[str], object] | None" = None,
    ) -> None:
        check_geometry(batch_cap, deadline_us, queue_depth)
        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        if max_retries < 0:
            raise ConfigError(f"max_retries must be >= 0, got {max_retries}")
        self.batch_cap = batch_cap
        self.deadline_us = deadline_us
        self.queue_depth = queue_depth
        self.max_retries = max_retries
        self.known = known
        self.shed = shed or ShedPolicy()
        self._tally = tally or (lambda name: None)
        self.queues: "dict[str, BatchQueue]" = {}
        self.attempts: "dict[str, int]" = {}
        self.terminals: "dict[str, str]" = {}
        self.live_workers = workers
        self.inflight = 0
        self.draining = False

    def arrive(self, request, now_us: float) -> "str | None":
        """Admit one request: ``None`` accepts, a string is the refusal."""
        if self.draining:
            return "draining"
        if self.live_workers == 0:
            return "no-workers"
        if request.request_id in self.attempts:
            return "duplicate"
        if not self.known(request.model):
            return "unknown-model"
        if _expired(request, now_us):
            return "deadline"
        queue = self.queues.get(request.model)
        if queue is None:
            queue = self.queues[request.model] = BatchQueue(
                request.model, self.batch_cap, self.deadline_us,
                self.queue_depth,
            )
        if not queue.offer(request):
            return "queue-full"
        self.attempts[request.request_id] = 0
        return None

    def due(self, now_us: float) -> "tuple[str, str, int] | None":
        """The next batch to take: ``(model, cause, limit)``, or ``None``."""
        for model, queue in self.queues.items():
            depth = len(queue)
            if depth == 0:
                continue
            limit = self.shed.effective_cap(
                self.batch_cap, self.shed.level(depth, self.queue_depth)
            )
            cause = FLUSH_DRAIN if self.draining else queue.due_cause(
                now_us, limit
            )
            if cause is not None:
                return model, cause, limit
        return None

    def take(
        self, model: str, limit: int, now_us: float
    ) -> "tuple[tuple, list[tuple]]":
        """Remove up to ``limit`` requests of ``model`` for one worker.

        Returns:
            ``(batch, expired)``: the requests to execute (each counted
            as one more attempt and in flight) and the ledgered answers
            of those whose own deadline passed while queued.
        """
        batch, stale = [], []
        for request in self.queues[model].take_batch(limit):
            if _expired(request, now_us):
                stale.append(request)
            else:
                self.attempts[request.request_id] += 1
                batch.append(request)
        self.inflight += len(batch)
        # The model just served now waits behind every other one.
        self.queues[model] = self.queues.pop(model)
        return tuple(batch), self._settle(stale, REJECTED, "deadline")

    def complete(self, batch) -> "list[tuple]":
        """A worker finished ``batch``: ledger each request completed."""
        self.inflight -= len(batch)
        return self._settle(batch, COMPLETED)

    def fail(self, batch, reason: str) -> "list[tuple]":
        """A worker could not execute ``batch``: fail it with ``reason``."""
        self.inflight -= len(batch)
        return self._settle(batch, FAILED, reason)

    def died(self, model: "str | None", batch=()) -> "list[tuple]":
        """A worker died holding ``batch`` of ``model`` (may be empty)."""
        self.live_workers -= 1
        self.inflight -= len(batch)
        budget = self.max_retries
        spent = [r for r in batch if self.attempts[r.request_id] > budget]
        retry = [r for r in batch if self.attempts[r.request_id] <= budget]
        answered = self._settle(spent, FAILED, "worker-died")
        if self.live_workers > 0:
            if retry:
                self.queues[model].requeue_front(tuple(retry))
            for _ in retry:
                self._tally("retries")
            return answered
        stranded = retry + [
            request
            for queue in self.queues.values()
            if len(queue)
            for request in queue.take_batch(len(queue))
        ]
        return answered + self._settle(stranded, FAILED, "no-workers")

    def wake_at(self) -> "float | None":
        """The earliest head deadline of a non-empty queue (µs)."""
        return min(
            (q.head_deadline_us() for q in self.queues.values() if len(q)),
            default=None,
        )

    def pending(self) -> int:
        """Requests waiting in every queue."""
        return sum(len(queue) for queue in self.queues.values())

    def shed_level(self) -> int:
        """The deepest queue's shed level."""
        depths = (len(queue) for queue in self.queues.values())
        return max((self.shed.level(d, self.queue_depth) for d in depths),
                   default=0)

    def drained(self) -> bool:
        """Draining, and every accepted request has been answered."""
        return self.draining and self.inflight == 0 and self.pending() == 0

    def _settle(self, requests, status: str, reason: str = "") -> list:
        """Ledger one terminal per request; a second one is a violation."""
        answered = []
        for request in requests:
            if request.request_id in self.terminals:
                self._tally("violations")
                continue
            self.terminals[request.request_id] = status
            self._tally(_OUTCOME_COUNTERS[status])
            answered.append((request, status, reason))
        return answered


def _expired(request, now_us: float) -> bool:
    deadline = getattr(request, "deadline_us", None)
    return deadline is not None and now_us >= deadline
