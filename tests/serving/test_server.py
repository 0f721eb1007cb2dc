"""Wall-clock socket server: admission, batching, shedding, drain, kills.

Admission-control corners (queue-full, duplicate, draining, unknown
model) are driven *without* starting worker threads — the server object
admits against its real queues but nothing drains them, so depth-based
outcomes are deterministic.  Lifecycle, batching and fault-recovery
behaviour run over real sockets against the tiny conformance models.
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import ConfigError
from repro.runtime.retry import RetryPolicy
from repro.serving.client import (
    RequestNotServed,
    ServerUnavailable,
    ServingClient,
)
from repro.serving.netfaults import (
    ANY_WORKER,
    ServerFaultPlan,
    WorkerBatchKill,
)
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    encode_frame,
    functional_run_digest,
    hello,
    make_request,
)
from repro.serving.server import (
    PendingRequest,
    ServingServer,
    ShedPolicy,
    demo_definitions,
)

SEED = 2021


# --------------------------------------------------------------------- #
# ShedPolicy unit behaviour
# --------------------------------------------------------------------- #
class TestShedPolicy:
    def test_levels_by_depth(self):
        shed = ShedPolicy(soft_fraction=0.5, cap_divisor=2)
        assert shed.level(0, 16) == 0
        assert shed.level(7, 16) == 0
        assert shed.level(8, 16) == 1  # soft threshold
        assert shed.level(15, 16) == 1
        assert shed.level(16, 16) == 2  # full: reject new work

    def test_effective_cap_shrinks_at_level_one(self):
        shed = ShedPolicy(cap_divisor=2)
        assert shed.effective_cap(8, 0) == 8
        assert shed.effective_cap(8, 1) == 4
        assert shed.effective_cap(1, 1) == 1  # never below one

    def test_validation(self):
        with pytest.raises(ConfigError):
            ShedPolicy(soft_fraction=0.0)
        with pytest.raises(ConfigError):
            ShedPolicy(soft_fraction=1.5)
        with pytest.raises(ConfigError):
            ShedPolicy(cap_divisor=0)


class TestServerValidation:
    def test_bad_geometry_rejected_eagerly(self, pool):
        with pytest.raises(ConfigError):
            ServingServer(pool, batch_cap=0)
        with pytest.raises(ConfigError):
            ServingServer(pool, queue_depth=2, batch_cap=4)
        with pytest.raises(ConfigError):
            ServingServer(pool, workers=0)
        with pytest.raises(ConfigError):
            ServingServer(pool, max_retries=-1)

    def test_kill_plan_naming_a_missing_worker_rejected(self, pool):
        with pytest.raises(ConfigError, match="kills worker 2"):
            ServingServer(pool, workers=2, faults=ServerFaultPlan(
                worker_kills=(WorkerBatchKill(2, 1),)
            ))
        ServingServer(pool, workers=2, faults=ServerFaultPlan(
            worker_kills=(WorkerBatchKill(ANY_WORKER, 1),)
        ))

    def test_cli_exits_2_on_a_bad_kill_plan(self, tmp_path, capsys):
        from repro.serving.server import main

        code = main([
            "--unix", str(tmp_path / "s.sock"), "--demo-zoo",
            "--workers", "1", "--kill-worker", "1:1",
        ])
        assert code == 2
        assert "kills worker 1" in capsys.readouterr().err


# --------------------------------------------------------------------- #
# Admission control, no workers running
# --------------------------------------------------------------------- #
class FakeConn:
    """Collects the frames the server would have sent."""

    def __init__(self):
        self.sent = []

    def send(self, frame):
        self.sent.append(frame)
        return True


def _offline_server(pool, **kwargs):
    """A server object that never starts threads: queues never drain."""
    kwargs.setdefault("models", ("Tiny-CNN", "Tiny-GEMM"))
    return ServingServer(pool, **kwargs)


def _admit(server, conn, rid, model="Tiny-CNN", image=0, deadline_ms=None):
    server._handle_request(
        conn, make_request(rid, model, image, deadline_ms)
    )


class TestAdmission:
    def test_queue_full_rejected_with_retry_after(self, pool):
        server = _offline_server(pool, batch_cap=4, queue_depth=4)
        conn = FakeConn()
        for n in range(4):
            _admit(server, conn, f"r{n}")
        assert conn.sent == []  # all four admitted silently
        _admit(server, conn, "overflow")
        (frame,) = conn.sent
        assert frame["status"] == "rejected"
        assert frame["reason"] == "queue-full"
        assert frame["retry_after_ms"] >= 1.0
        assert server.monitor.count("accepted") == 4
        assert server.monitor.count("refused") == 1

    def test_duplicate_id_rejected(self, pool):
        server = _offline_server(pool)
        conn = FakeConn()
        _admit(server, conn, "same")
        _admit(server, conn, "same")
        (frame,) = conn.sent
        assert (frame["status"], frame["reason"]) == ("rejected", "duplicate")

    def test_unknown_model_rejected(self, pool):
        server = _offline_server(pool)
        conn = FakeConn()
        _admit(server, conn, "r1", model="No-Such-Model")
        (frame,) = conn.sent
        assert frame["reason"] == "unknown-model"

    def test_unlisted_zoo_model_rejected(self, pool):
        # Resolvable by the pool, but not on this server's serve list.
        server = _offline_server(pool, models=("Tiny-CNN",))
        conn = FakeConn()
        _admit(server, conn, "r1", model="Tiny-GEMM")
        (frame,) = conn.sent
        assert frame["reason"] == "unknown-model"

    def test_draining_rejects_new_arrivals(self, pool):
        server = _offline_server(pool)
        server.drain()
        conn = FakeConn()
        _admit(server, conn, "late")
        (frame,) = conn.sent
        assert frame["reason"] == "draining"
        assert "retry_after_ms" in frame

    def test_expired_deadline_rejected_at_admission(self, pool):
        server = _offline_server(pool)
        conn = FakeConn()
        preq = PendingRequest(
            request_id="r1", model="Tiny-CNN", image=0,
            arrival_us=0.0, deadline_us=1.0, conn=conn,
        )
        with server._cond:
            reason = server.core.arrive(preq, now_us=2.0)
        assert reason == "deadline"

    def test_shed_ladder_shrinks_flush_cap(self, pool):
        server = _offline_server(
            pool, batch_cap=4, queue_depth=8,
            shed=ShedPolicy(soft_fraction=0.5, cap_divisor=2),
        )
        conn = FakeConn()
        for n in range(4):  # depth 4 >= 0.5 * 8 -> level 1, cap 4 -> 2
            _admit(server, conn, f"r{n}")
        with server._cond:
            due = server.core.due(now_us=0.0)
        assert due is not None
        model, cause, limit = due
        assert cause == "full"  # depth 4 >= shrunken cap 2
        assert limit == 2


# --------------------------------------------------------------------- #
# Socket integration
# --------------------------------------------------------------------- #
@pytest.fixture()
def server(pool):
    live = ServingServer(
        pool,
        models=("Tiny-CNN", "Tiny-GEMM"),
        batch_cap=4,
        deadline_ms=30.0,
        queue_depth=16,
        workers=2,
    )
    live.start()
    yield live
    live.shutdown()


@pytest.fixture()
def client(server):
    with ServingClient(server.address, client="test") as connected:
        yield connected


class TestHandshake:
    def test_hello_ack_advertises_serving_config(self, client):
        info = client.server_info
        assert info["protocol"] == PROTOCOL_VERSION
        assert info["models"] == ["Tiny-CNN", "Tiny-GEMM"]
        assert info["batch_cap"] == 4

    def test_version_mismatch_answered_and_closed(self, server):
        from repro.serving.netfaults import open_raw_connection

        sock = open_raw_connection(server.address, timeout_s=10.0)
        try:
            bad = hello("old-client")
            bad["protocol"] = PROTOCOL_VERSION + 1
            sock.sendall(encode_frame(bad))
            reply = sock.recv(65536)
            assert b"version mismatch" in reply
            assert sock.recv(65536) == b""  # closed after the error frame
        finally:
            sock.close()

    def test_request_before_hello_is_a_protocol_error(self, server):
        from repro.serving.netfaults import open_raw_connection

        sock = open_raw_connection(server.address, timeout_s=10.0)
        try:
            sock.sendall(encode_frame(make_request("r1", "Tiny-CNN", 0)))
            reply = sock.recv(65536)
            assert b"error" in reply
        finally:
            sock.close()
        assert server.monitor.count("protocol_errors") >= 1


class TestServing:
    def test_completed_digest_matches_oracle(self, client, oracle):
        response = client.request("Tiny-CNN", 0, deadline_ms=10000)
        assert response["status"] == "completed"
        assert response["digest"] == functional_run_digest(
            oracle("Tiny-CNN", 0)
        )
        assert response["latency_ms"] > 0
        assert response["attempts"] == 1

    def test_pipelined_requests_form_full_batches(self, server, client):
        rids = [f"b{n}" for n in range(4)]
        for n, rid in enumerate(rids):
            client.send_request(rid, "Tiny-GEMM", n % 2)
        got = client.collect(rids)
        assert {r["status"] for r in got.values()} == {"completed"}
        assert any(r["flush_cause"] == "full" for r in got.values())
        assert max(r["batch_size"] for r in got.values()) >= 2

    def test_single_request_flushes_on_deadline(self, client):
        response = client.request("Tiny-CNN", 1, deadline_ms=10000)
        assert response["flush_cause"] in ("deadline", "full")
        assert response["batch_size"] == 1

    def test_tight_deadline_rejected_not_executed(self, server, client):
        # 1 ms per-request deadline vs a 30 ms flush deadline: the
        # request expires while queued and must be rejected, not run.
        client.send_request("tight", "Tiny-CNN", 0, deadline_ms=1.0)
        got = client.collect(["tight"])
        response = got["tight"]
        assert (response["status"], response["reason"]) == (
            "rejected", "deadline",
        )
        assert server.monitor.count("rejected_deadline") == 1

    def test_health_frame_reports_state_and_counters(self, client):
        client.request("Tiny-CNN", 0, deadline_ms=10000)
        health = client.health()
        assert health["state"] == "ready"
        assert health["live"] is True and health["ready"] is True
        assert health["completed"] >= 1
        assert health["violations"] == 0
        assert health["latency_ms"]["latency_count"] >= 1

    def test_exactly_one_terminal_per_request(self, server, client):
        rids = [f"x{n}" for n in range(8)]
        for n, rid in enumerate(rids):
            client.send_request(rid, "Tiny-CNN", n % 3)
        got = client.collect(rids)
        assert sorted(got) == sorted(rids)
        assert client.stash == {}  # no duplicate terminals anywhere
        assert server.monitor.count("violations") == 0
        assert server.monitor.count("accepted") == len(rids)


class TestDrain:
    def test_drain_finishes_inflight_rejects_new_exits(self, pool):
        server = ServingServer(
            pool, models=("Tiny-CNN",), batch_cap=4,
            deadline_ms=5000.0, queue_depth=16, workers=1,
        )
        server.start()
        try:
            with ServingClient(server.address, client="drainer") as client:
                rids = [f"d{n}" for n in range(3)]
                for n, rid in enumerate(rids):
                    client.send_request(rid, "Tiny-CNN", n)
                ack = client.drain()
                assert ack["state"] in ("draining", "stopped")
                got = client.collect(rids)
                # In-flight work finishes (the 5 s flush deadline never
                # fires — drain flushes the partial batch immediately).
                assert {r["status"] for r in got.values()} == {"completed"}
                assert any(
                    r["flush_cause"] == "drain" for r in got.values()
                )
            assert server.await_drained(timeout_s=30.0)
            assert server.monitor.state == "stopped"
            assert server.monitor.live is False
            # A late arrival cannot be served: the listener is gone.
            late = ServingClient(
                server.address, client="late",
                policy=RetryPolicy(max_retries=0),
            )
            with pytest.raises((ServerUnavailable, RequestNotServed)):
                late.request("Tiny-CNN", 0)
            late.close()
        finally:
            server.shutdown()

    def test_drain_is_idempotent(self, pool):
        server = ServingServer(pool, models=("Tiny-CNN",))
        server.start()
        try:
            server.drain()
            server.drain()
            assert server.await_drained(timeout_s=30.0)
        finally:
            server.shutdown()


class TestWorkerKills:
    def test_single_worker_kill_fails_batch_terminally(self, pool):
        # One worker, killed on its first batch, no retries: the batch
        # fails `worker-died` and the server refuses further arrivals.
        server = ServingServer(
            pool, models=("Tiny-CNN",), batch_cap=2, deadline_ms=20.0,
            queue_depth=8, workers=1, max_retries=0,
            faults=ServerFaultPlan(
                worker_kills=(WorkerBatchKill(0, 1, "before-run"),)
            ),
        )
        server.start()
        try:
            with ServingClient(server.address, client="killed") as client:
                client.send_request("k0", "Tiny-CNN", 0)
                client.send_request("k1", "Tiny-CNN", 1)
                got = client.collect(["k0", "k1"])
                reasons = {
                    (r["status"], r["reason"]) for r in got.values()
                }
                assert reasons <= {
                    ("failed", "worker-died"), ("failed", "no-workers"),
                }
            with ServingClient(server.address, client="after") as probe:
                probe.send_request("late", "Tiny-CNN", 0)
                response = probe.collect(["late"])["late"]
                assert (response["status"], response["reason"]) == (
                    "rejected", "no-workers",
                )
            assert server.monitor.count("violations") == 0
        finally:
            server.shutdown()

    def test_kill_with_survivor_retries_bit_identically(self, pool, oracle):
        # Two workers; whichever takes the first (server-global) batch
        # dies after computing it — the response is never delivered —
        # and the survivor recomputes.  The recomputed output must be
        # bit-identical to the oracle.
        server = ServingServer(
            pool, models=("Tiny-GEMM",), batch_cap=2, deadline_ms=20.0,
            queue_depth=8, workers=2, max_retries=2,
            faults=ServerFaultPlan(
                worker_kills=(WorkerBatchKill(ANY_WORKER, 1, "after-run"),)
            ),
        )
        server.start()
        try:
            with ServingClient(server.address, client="retry") as client:
                client.send_request("r0", "Tiny-GEMM", 0)
                client.send_request("r1", "Tiny-GEMM", 1)
                got = client.collect(["r0", "r1"])
            statuses = {r["status"] for r in got.values()}
            assert statuses == {"completed"}
            for rid, image in (("r0", 0), ("r1", 1)):
                assert got[rid]["digest"] == functional_run_digest(
                    oracle("Tiny-GEMM", image)
                )
            # The first dispatched batch was killed, so at least one
            # request was recomputed by the surviving worker.
            assert max(r["attempts"] for r in got.values()) >= 2
            assert server.monitor.count("retries") >= 1
            assert server.monitor.count("violations") == 0
        finally:
            server.shutdown()


class TestConcurrentClients:
    def test_many_clients_no_lost_or_duplicated_terminals(self, server):
        results = {}
        errors = []
        lock = threading.Lock()

        def one_client(number):
            try:
                with ServingClient(
                    server.address, client=f"c{number}"
                ) as client:
                    rids = [f"c{number}-{n}" for n in range(4)]
                    for n, rid in enumerate(rids):
                        client.send_request(
                            rid, "Tiny-CNN" if n % 2 else "Tiny-GEMM", n % 2
                        )
                    got = client.collect(rids)
                    with lock:
                        results.update(got)
                        if client.stash:
                            errors.append(f"duplicates: {client.stash}")
            except Exception as error:  # surfaces in the main thread
                with lock:
                    errors.append(repr(error))

        threads = [
            threading.Thread(target=one_client, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(results) == 16
        assert {r["status"] for r in results.values()} == {"completed"}
        assert server.monitor.count("violations") == 0


def test_demo_definitions_compile_and_serve():
    from repro.serving.pool import SessionPool

    definitions = demo_definitions()
    pool = SessionPool(seed=SEED, definitions=definitions)
    run = pool.session("Demo-CNN").run([0])
    assert run.per_image[0].layers[-1].output is not None
