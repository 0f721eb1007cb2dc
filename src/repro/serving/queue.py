"""Per-model batch queue with deadline flushing and bounded depth.

One :class:`BatchQueue` accumulates the pending requests of a single
model.  A batch becomes *due* the moment the queue holds ``batch_cap``
requests or the oldest pending request has waited ``deadline_us``
(whichever happens first).  The depth bound is hard: once
``queue_depth`` requests wait, further offers are refused.  The queue
knows nothing of workers, clocks or callers; the scheduling core
(:mod:`repro.serving.scheduler`) owns one queue per model, takes due
batches whenever its driver has an idle worker, and turns a refused
offer into the caller's ``rejected(queue-full)`` answer.
"""

from __future__ import annotations

from collections import deque

from repro.errors import ConfigError
from repro.serving.arrivals import Request

#: Flush causes recorded on every dispatched batch.
FLUSH_FULL = "full"
FLUSH_DEADLINE = "deadline"
FLUSH_DRAIN = "drain"


def check_geometry(
    batch_cap: int, deadline_us: float, queue_depth: int
) -> None:
    """Raise :class:`ConfigError` unless a queue of this shape can work."""
    if batch_cap < 1:
        raise ConfigError(f"batch_cap must be >= 1, got {batch_cap}")
    if deadline_us <= 0:
        raise ConfigError(f"deadline_us must be > 0, got {deadline_us}")
    if queue_depth < batch_cap:
        raise ConfigError(
            f"queue_depth ({queue_depth}) must be >= batch_cap "
            f"({batch_cap}); a smaller bound could never admit a "
            "full batch"
        )


class BatchQueue:
    """Pending requests of one model, flushed by size or deadline.

    Args:
        model: model name this queue shards.
        batch_cap: maximum requests per flushed batch (>= 1).
        deadline_us: maximum time the oldest pending request may wait
            before the partial batch becomes due (> 0).
        queue_depth: admission bound on pending requests (>= batch_cap,
            so a full batch can always accumulate).
    """

    __slots__ = ("model", "batch_cap", "deadline_us", "queue_depth", "_pending")

    def __init__(
        self,
        model: str,
        batch_cap: int,
        deadline_us: float,
        queue_depth: int,
    ) -> None:
        check_geometry(batch_cap, deadline_us, queue_depth)
        self.model = model
        self.batch_cap = int(batch_cap)
        self.deadline_us = float(deadline_us)
        self.queue_depth = int(queue_depth)
        self._pending: "deque[Request]" = deque()

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self._pending)

    @property
    def pending(self) -> tuple[Request, ...]:
        """The queued requests, oldest first."""
        return tuple(self._pending)

    def offer(self, request: Request) -> bool:
        """Admit one request; ``False`` means the depth bound refused it."""
        if len(self._pending) >= self.queue_depth:
            return False
        self._pending.append(request)
        return True

    def requeue_front(self, requests: "tuple[Request, ...]") -> None:
        """Put a failed batch back at the head, original order preserved.

        Used by the retry path after a worker death: the requests were
        admitted once, so they bypass the depth bound rather than being
        dropped on a full queue.
        """
        for request in reversed(requests):
            self._pending.appendleft(request)

    # ------------------------------------------------------------------ #
    # Flushing
    # ------------------------------------------------------------------ #
    def head_deadline_us(self) -> "float | None":
        """When the current oldest request's wait expires (None if empty)."""
        if not self._pending:
            return None
        return self._pending[0].arrival_us + self.deadline_us

    def due_cause(
        self, now_us: float, limit: "int | None" = None
    ) -> "str | None":
        """Why a batch is due now: ``full`` (at ``limit``, by default
        ``batch_cap``), ``deadline`` or not due (``None``)."""
        if len(self._pending) >= (self.batch_cap if limit is None else limit):
            return FLUSH_FULL
        deadline = self.head_deadline_us()
        if deadline is not None and now_us >= deadline:
            return FLUSH_DEADLINE
        return None

    def take_batch(self, limit: "int | None" = None) -> tuple[Request, ...]:
        """Remove and return the next batch (FIFO).

        Args:
            limit: cap override for this flush (defaults to
                ``batch_cap``).  The load-shedding ladder passes a
                shrunken cap here when queues run deep, without the
                queue itself having to know about shedding.
        """
        cap = self.batch_cap if limit is None else int(limit)
        if cap < 1:
            raise ConfigError(f"batch limit must be >= 1, got {cap}")
        size = min(cap, len(self._pending))
        return tuple(self._pending.popleft() for _ in range(size))
