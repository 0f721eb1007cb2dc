"""The clock-free scheduling core, driven by hand.

Both serving drivers delegate every scheduling rule to
:class:`~repro.serving.scheduler.Scheduler`, so these tests pin the
rules directly: no clock, no threads, no sessions — time is whatever
``now_us`` the test passes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.errors import ConfigError
from repro.serving.scheduler import (
    COMPLETED,
    FAILED,
    REJECTED,
    Scheduler,
    ShedPolicy,
)


@dataclass(frozen=True)
class Req:
    request_id: str
    model: str = "m"
    arrival_us: float = 0.0
    deadline_us: "float | None" = None


def make(workers=2, max_retries=1, cap=2, depth=4, shed=None, models=("m",)):
    counts = Counter()
    core = Scheduler(
        cap, 100.0, depth, workers, max_retries,
        known=set(models).__contains__,
        shed=shed or ShedPolicy(cap_divisor=1),
        tally=lambda name: counts.update((name,)),
    )
    return core, counts


def ids(terminals):
    return [(request.request_id, status, reason)
            for request, status, reason in terminals]


class TestAdmission:
    def test_each_refusal_reason(self):
        core, _ = make(cap=1, depth=1)
        assert core.arrive(Req("a"), 0.0) is None
        assert core.arrive(Req("a"), 0.0) == "duplicate"
        assert core.arrive(Req("b", model="nope"), 0.0) == "unknown-model"
        assert core.arrive(Req("c", deadline_us=5.0), 5.0) == "deadline"
        assert core.arrive(Req("d"), 0.0) == "queue-full"
        core.draining = True
        assert core.arrive(Req("e"), 0.0) == "draining"

    def test_refusal_order(self):
        core, _ = make(workers=1, cap=1, depth=1)
        assert core.arrive(Req("a"), 0.0) is None
        # Each request below fails every later test too; the earliest
        # test in the order decides the reason.
        assert core.arrive(Req("x", deadline_us=1.0), 2.0) == "deadline"
        assert core.arrive(Req("x", model="nope", deadline_us=1.0), 2.0) == (
            "unknown-model"
        )
        assert core.arrive(Req("a", model="nope"), 2.0) == "duplicate"
        core.died(None)
        assert core.arrive(Req("a", model="nope"), 2.0) == "no-workers"
        core.draining = True
        assert core.arrive(Req("a", model="nope"), 2.0) == "draining"

    def test_refused_requests_never_reach_the_ledger(self):
        core, counts = make()
        core.arrive(Req("a"), 0.0)
        core.arrive(Req("a"), 0.0)
        assert core.terminals == {}
        assert core.attempts == {"a": 0}
        assert counts == Counter()

    def test_validation(self):
        with pytest.raises(ConfigError):
            make(workers=0)
        with pytest.raises(ConfigError):
            make(max_retries=-1)
        with pytest.raises(ConfigError):
            make(cap=4, depth=2)


class TestBatchSelection:
    def test_full_and_deadline_causes(self):
        core, _ = make(cap=2)
        core.arrive(Req("a", arrival_us=0.0), 0.0)
        assert core.due(99.0) is None
        assert core.due(100.0) == ("m", "deadline", 2)
        core.arrive(Req("b", arrival_us=10.0), 10.0)
        assert core.due(10.0) == ("m", "full", 2)

    def test_shrunken_cap_makes_a_full_cause(self):
        core, _ = make(
            cap=4, depth=8, shed=ShedPolicy(soft_fraction=0.5, cap_divisor=2)
        )
        for n in range(3):
            core.arrive(Req(f"r{n}"), 0.0)
        assert core.due(0.0) is None  # depth 3 < 4: level 0, cap 4
        core.arrive(Req("r3"), 0.0)
        assert core.due(0.0) == ("m", "full", 2)  # level 1 halves the cap
        batch, expired = core.take("m", 2, 0.0)
        assert [r.request_id for r in batch] == ["r0", "r1"]
        assert expired == []

    def test_draining_flushes_at_once(self):
        core, _ = make(cap=4)
        core.arrive(Req("a"), 0.0)
        core.draining = True
        assert core.due(0.0) == ("m", "drain", 4)

    def test_least_recently_served_queue_goes_first(self):
        core, _ = make(cap=1, depth=4, models=("m", "n"))
        for n in range(2):
            core.arrive(Req(f"m{n}", model="m"), 0.0)
            core.arrive(Req(f"n{n}", model="n"), 0.0)
        order = []
        while (due := core.due(0.0)) is not None:
            batch, _ = core.take(due[0], due[2], 0.0)
            order.extend(r.request_id for r in batch)
        assert order == ["m0", "n0", "m1", "n1"]

    def test_wake_at_is_the_earliest_head_deadline(self):
        core, _ = make(models=("m", "n"))
        assert core.wake_at() is None
        core.arrive(Req("a", model="m", arrival_us=50.0), 50.0)
        core.arrive(Req("b", model="n", arrival_us=20.0), 50.0)
        assert core.wake_at() == 120.0
        core.take("n", 2, 50.0)
        assert core.wake_at() == 150.0


class TestExpiryAtTake:
    def test_expired_requests_answered_once_and_never_executed(self):
        core, counts = make(cap=2)
        core.arrive(Req("late", deadline_us=30.0), 0.0)
        core.arrive(Req("ok"), 0.0)
        batch, expired = core.take("m", 2, 40.0)
        assert [r.request_id for r in batch] == ["ok"]
        assert ids(expired) == [("late", REJECTED, "deadline")]
        assert core.attempts == {"late": 0, "ok": 1}
        assert core.inflight == 1
        assert counts["rejected_deadline"] == 1
        assert core.terminals == {"late": REJECTED}
        assert core.pending() == 0  # gone from the queue: answered once


class TestWorkerDeath:
    def test_retry_within_budget_goes_back_to_the_head(self):
        core, counts = make(workers=2, max_retries=1, cap=2)
        for rid in ("a", "b", "c"):
            core.arrive(Req(rid), 0.0)
        batch, _ = core.take("m", 2, 0.0)
        assert core.died("m", batch) == []
        assert counts["retries"] == 2
        assert [r.request_id for r in core.queues["m"].pending] == [
            "a", "b", "c",
        ]
        assert core.inflight == 0 and core.live_workers == 1

    def test_past_the_budget_fails_worker_died(self):
        core, counts = make(workers=3, max_retries=0, cap=2)
        core.arrive(Req("a"), 0.0)
        batch, _ = core.take("m", 2, 0.0)
        assert ids(core.died("m", batch)) == [("a", FAILED, "worker-died")]
        assert counts["failed"] == 1 and counts["retries"] == 0

    def test_last_death_fails_everything_no_workers(self):
        core, counts = make(workers=1, max_retries=1, cap=2)
        for rid in ("a", "b", "c"):
            core.arrive(Req(rid), 0.0)
        batch, _ = core.take("m", 2, 0.0)
        assert ids(core.died("m", batch)) == [
            ("a", FAILED, "no-workers"),
            ("b", FAILED, "no-workers"),
            ("c", FAILED, "no-workers"),
        ]
        assert core.pending() == 0 and counts["retries"] == 0
        assert core.arrive(Req("later"), 1.0) == "no-workers"

    def test_idle_last_death_fails_the_pending(self):
        core, _ = make(workers=1)
        core.arrive(Req("a"), 0.0)
        assert ids(core.died(None)) == [("a", FAILED, "no-workers")]


class TestLedger:
    def test_second_terminal_is_a_violation_not_an_answer(self):
        core, counts = make(cap=1)
        core.arrive(Req("a"), 0.0)
        batch, _ = core.take("m", 1, 0.0)
        assert ids(core.complete(batch)) == [("a", COMPLETED, "")]
        assert core.fail(batch, "execute-error:X") == []
        assert counts["violations"] == 1
        assert core.terminals == {"a": COMPLETED}

    def test_drained_waits_for_queues_and_inflight(self):
        core, _ = make(cap=1)
        core.arrive(Req("a"), 0.0)
        core.draining = True
        assert not core.drained()
        batch, _ = core.take("m", 1, 0.0)
        assert not core.drained()
        core.complete(batch)
        assert core.drained()
