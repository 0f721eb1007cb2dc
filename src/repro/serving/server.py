"""Wall-clock socket serving driver over the scheduling core.

This module is the serving driver that *listens*: a TCP / Unix-domain
socket server speaking the length-prefixed JSON protocol of
:mod:`repro.serving.protocol`.  Every scheduling rule — admission and
its refusal order, batch selection, the shed ladder, per-request
deadline expiry, retry or ``no-workers`` failure on worker death and the
exactly-once terminal ledger (a second terminal is counted in
``violations`` and never sent) — is the clock-free
:class:`~repro.serving.scheduler.Scheduler`, the same core the
virtual-clock :class:`~repro.serving.daemon.ServingDaemon` drives.  This
module keeps only sockets, threads, the condition variable every core
call runs under, frames and health counters:

* **Sends never run under the lock**, so a stalled peer costs its own
  connection, not the batching loop.
* **Backpressure.**  A ``queue-full`` or ``draining`` refusal carries a
  ``retry_after_ms`` hint derived from the observed per-request service
  time.  A client-propagated ``deadline_ms`` becomes the request's
  absolute monotonic deadline.
* **Graceful drain vs hard kill.**  SIGTERM (or a ``drain`` frame)
  refuses new work, flushes every queue (flush cause ``drain``),
  finishes in-flight batches, then exits 0.  A SIGKILL tears the process
  down mid-flight; recovery is the *client's* deadline-aware retry
  against a restarted server (exercised in ``tests/serving/test_soak.py``).
* **Worker faults.**  An injected :class:`WorkerBatchKill` kills a
  worker thread as it takes (or finishes computing) a batch; the core
  retries or fails the interrupted requests.

Run it as a process::

    python -m repro.serving.server --unix /tmp/repro.sock --demo-zoo

which warms its sessions, prints one ``READY {...}`` JSON line, and
serves until SIGTERM (drain, exit 0).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import sys
import threading
import time
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.kernels.layer_spec import ConvLayerSpec, GemmLayerSpec
from repro.nn.models import ModelDefinition
from repro.serving.health import HealthMonitor
from repro.serving.netfaults import ServerFaultPlan, WorkerBatchKill
from repro.serving.pool import SessionPool
from repro.serving.protocol import (
    DRAIN,
    DRAIN_ACK,
    HEALTH,
    HEALTH_ACK,
    HELLO_ACK,
    PROTOCOL_VERSION,
    REQUEST,
    RESPONSE,
    FrameDecoder,
    ProtocolError,
    check_hello,
    encode_frame,
    error_frame,
    functional_run_digest,
    parse_request,
    recv_frames,
)
from repro.serving.scheduler import COMPLETED, REJECTED, Scheduler, ShedPolicy
from repro.serving.stats import LatencyRecorder
from repro.version import __version__

#: Fallback per-request service estimate (ms) before the first batch
#: completes — only feeds the ``retry_after_ms`` backpressure hint.
DEFAULT_SERVICE_ESTIMATE_MS = 5.0


def _now_us() -> float:
    """Monotonic wall time in microseconds (never wall-calendar time)."""
    return time.monotonic() * 1e6


@dataclass(slots=True)
class PendingRequest:
    """One wire request, as the scheduling core sees it.

    Carries the ``request_id``, ``model``, ``arrival_us`` and
    ``deadline_us`` the core reads, plus the connection to answer on.
    """

    request_id: str
    model: str
    image: int
    arrival_us: float
    deadline_us: "float | None"
    conn: "_Connection"


class _Connection:
    """One client connection: socket + serialized sends."""

    __slots__ = ("sock", "peer", "client", "_send_lock", "_open")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.client = ""
        self._send_lock = threading.Lock()
        self._open = True

    def send(self, message: dict) -> bool:
        """Send one frame; ``False`` when the peer is gone."""
        try:
            frame = encode_frame(message)
        except ProtocolError:
            return False
        with self._send_lock:
            if not self._open:
                return False
            try:
                self.sock.sendall(frame)
                return True
            except OSError:
                self._open = False
                return False

    def close(self) -> None:
        with self._send_lock:
            self._open = False
            try:
                self.sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self.sock.close()
            except OSError:
                pass


class ServingServer:
    """Always-on socket front-end over a compiled-session pool.

    Args:
        pool: per-model compiled sessions (see :class:`SessionPool`).
        address: ``(host, port)`` for TCP (port 0 picks a free one) or a
            string/path for a Unix domain socket.
        models: the serve list advertised in the handshake and warmed at
            start-up; ``None`` serves everything the pool can resolve.
        batch_cap: maximum requests per flushed batch.
        deadline_ms: maximum wall wait of the oldest pending request
            before a partial batch flushes.
        queue_depth: per-model admission bound on pending requests.
        workers: worker-thread count batches are sharded across.
        max_retries: extra dispatches a request interrupted by a worker
            death is granted before failing terminally.
        shed: the load-shedding ladder (:class:`ShedPolicy`).
        faults: injected worker kills (:class:`ServerFaultPlan`).
    """

    def __init__(
        self,
        pool: SessionPool,
        address=("127.0.0.1", 0),
        models=None,
        batch_cap: int = 4,
        deadline_ms: float = 50.0,
        queue_depth: int = 16,
        workers: int = 2,
        max_retries: int = 1,
        shed: "ShedPolicy | None" = None,
        faults: "ServerFaultPlan | None" = None,
    ) -> None:
        self.pool = pool
        self.requested_address = address
        self.models = tuple(models) if models is not None else pool.known_models()
        self.batch_cap = int(batch_cap)
        self.deadline_ms = float(deadline_ms)
        self.queue_depth = int(queue_depth)
        self.worker_count = int(workers)
        self.faults = faults or ServerFaultPlan()
        self.monitor = HealthMonitor()
        # Every core call runs under ``_cond``.
        self.core = Scheduler(
            self.batch_cap, self.deadline_ms * 1000.0, self.queue_depth,
            self.worker_count, int(max_retries),
            known=self.models.__contains__, shed=shed,
            tally=self.monitor.increment,
        )
        for kill in self.faults.worker_kills:
            if kill.worker >= self.worker_count:
                raise ConfigError(
                    f"fault plan kills worker {kill.worker} but only "
                    f"{self.worker_count} exist"
                )

        self._cond = threading.Condition()
        self._latency = LatencyRecorder()
        self._worker_batches = [0] * self.worker_count
        self._global_batches = 0
        self._service_ms_ema: "float | None" = None
        self._stopping = False

        self._listener: "socket.socket | None" = None
        self._threads: list[threading.Thread] = []
        self._connections: set[_Connection] = set()
        self.address = None  # resolved at start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self, warm: bool = True) -> None:
        """Bind, warm the serve list's sessions, and begin serving."""
        if self._listener is not None:
            raise ConfigError("server already started")
        if isinstance(self.requested_address, (tuple, list)):
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind(tuple(self.requested_address))
            self.address = listener.getsockname()
        else:
            path = str(self.requested_address)
            # A SIGKILLed predecessor leaves a stale socket file behind;
            # rebinding over it is exactly the restart-after-crash path.
            if os.path.exists(path):
                os.unlink(path)
            listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            listener.bind(path)
            self.address = path
        listener.listen(64)
        self._listener = listener
        if warm:
            self.pool.warm(self.models)
        for worker_id in range(self.worker_count):
            thread = threading.Thread(
                target=self._worker_loop, args=(worker_id,),
                name=f"serve-worker-{worker_id}", daemon=True,
            )
            thread.start()
            self._threads.append(thread)
        acceptor = threading.Thread(
            target=self._accept_loop, name="serve-accept", daemon=True
        )
        acceptor.start()
        self._threads.append(acceptor)
        self.monitor.mark_ready()

    def drain(self) -> None:
        """Begin graceful drain: refuse new work, flush, finish, stop.

        Idempotent; callable from a signal handler or a ``drain`` frame.
        """
        with self._cond:
            if self.core.draining:
                return
            self.core.draining = True
            self._cond.notify_all()
        self.monitor.begin_drain()

    def await_drained(self, timeout_s: "float | None" = None) -> bool:
        """Block until every worker exited after a drain; then tear down.

        Returns:
            True when the drain completed (all pending work answered);
            False when the timeout expired first.
        """
        deadline = None if timeout_s is None else time.monotonic() + timeout_s
        for thread in self._threads:
            if thread.name.startswith("serve-worker-"):
                remaining = (
                    None if deadline is None else max(0.0, deadline - time.monotonic())
                )
                thread.join(remaining)
                if thread.is_alive():
                    return False
        self._teardown()
        return True

    def shutdown(self) -> None:
        """Hard stop (test teardown): no terminal-response guarantees."""
        with self._cond:
            self._stopping = True
            self.core.draining = True  # refuse whatever still arrives
            self._cond.notify_all()
        self._teardown()

    def _teardown(self) -> None:
        listener, self._listener = self._listener, None
        if listener is not None:
            try:
                listener.close()
            except OSError:
                pass
            if isinstance(self.address, str) and os.path.exists(self.address):
                try:
                    os.unlink(self.address)
                except OSError:
                    pass
        for conn in tuple(self._connections):
            conn.close()
        self._connections.clear()
        self.monitor.mark_stopped()

    # ------------------------------------------------------------------ #
    # Accept / connection path
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while True:
            listener = self._listener
            if listener is None:
                return
            try:
                sock, peer = listener.accept()
            except OSError:
                return  # listener closed: drain/shutdown
            if sock.family == socket.AF_INET:
                # Frames are tiny; Nagle + delayed ACK would add tens of
                # milliseconds between a client's pipelined requests.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = _Connection(sock, str(peer))
            self._connections.add(conn)
            self.monitor.increment("connections")
            threading.Thread(
                target=self._serve_connection, args=(conn,),
                name="serve-conn", daemon=True,
            ).start()

    def _serve_connection(self, conn: _Connection) -> None:
        decoder = FrameDecoder()
        try:
            frames = recv_frames(conn.sock, decoder)
            first = next(frames, None)
            if first is None:
                return
            conn.client = check_hello(first)
            self.monitor.increment("handshakes")
            conn.send({
                "type": HELLO_ACK,
                "protocol": PROTOCOL_VERSION,
                "server": f"repro-serving/{__version__}",
                "models": list(self.models),
                "batch_cap": self.batch_cap,
                "deadline_ms": self.deadline_ms,
                "queue_depth": self.queue_depth,
            })
            for message in frames:
                kind = message["type"]
                if kind == REQUEST:
                    self._handle_request(conn, message)
                elif kind == HEALTH:
                    conn.send({"type": HEALTH_ACK, **self._health_snapshot()})
                elif kind == DRAIN:
                    self.drain()
                    conn.send({"type": DRAIN_ACK, "state": self.monitor.state})
                else:
                    raise ProtocolError(f"unexpected frame type {kind!r}")
        except ProtocolError as error:
            # A broken stream costs exactly this connection: answer with
            # a protocol error (best-effort) and close; the server keeps
            # serving everyone else.
            self.monitor.increment("protocol_errors")
            conn.send(error_frame("protocol-error", str(error)))
        except OSError:
            pass  # peer vanished mid-read; nothing to answer
        finally:
            conn.close()
            self._connections.discard(conn)

    # ------------------------------------------------------------------ #
    # Admission
    # ------------------------------------------------------------------ #
    def _handle_request(self, conn: _Connection, message: dict) -> None:
        request_id, model, image, deadline_ms = parse_request(message)
        now = _now_us()
        preq = PendingRequest(
            request_id=request_id,
            model=model,
            image=image,
            arrival_us=now,
            deadline_us=None if deadline_ms is None else now + deadline_ms * 1000.0,
            conn=conn,
        )
        with self._cond:
            reason = self.core.arrive(preq, now)
            if reason is None:
                self.monitor.increment("accepted")
                self._cond.notify_all()
                return
            self.monitor.increment("refused")
            frame = self._response(preq, REJECTED, now, reason=reason)
            if reason in ("queue-full", "draining"):
                frame["retry_after_ms"] = self._retry_after_ms_locked(model)
        # Sends never run under the server lock: a stalled peer costs
        # its own connection, not the batching loop.
        self._deliver([(preq, frame)])

    def _deliver(self, outbox) -> None:
        """Send terminal/refusal frames, outside every server lock."""
        for preq, frame in outbox:
            if not preq.conn.send(frame):
                self.monitor.increment("undeliverable")

    def _retry_after_ms_locked(self, model: str) -> float:
        queue = self.core.queues.get(model)
        depth = (len(queue) if queue is not None else 0) + self.core.inflight
        estimate = self._service_ms_ema or DEFAULT_SERVICE_ESTIMATE_MS
        return round(max(1.0, depth * estimate), 3)

    # ------------------------------------------------------------------ #
    # Workers
    # ------------------------------------------------------------------ #
    def _worker_loop(self, worker_id: int) -> None:
        while True:
            task = self._await_batch(worker_id)
            if task is None:
                return
            batch, model, cause, kill = task
            if kill is not None and kill.at == "before-run":
                self._settle(self.core.died, model, batch)
                return
            started = time.perf_counter()
            try:
                run = self.pool.session(model).run(
                    [preq.image for preq in batch]
                )
            except Exception as error:  # a session bug, not a protocol issue
                self._settle(
                    self.core.fail, batch,
                    f"execute-error:{type(error).__name__}",
                )
                continue
            elapsed_s = time.perf_counter() - started
            if kill is not None:  # after-run: died before delivering
                self._settle(self.core.died, model, batch)
                return
            self._batch_completed(worker_id, batch, cause, run, elapsed_s)

    def _await_batch(self, worker_id: int):
        """Block until a batch is due; None means this worker exits."""
        while True:
            with self._cond:
                if self._stopping:
                    return None
                now = _now_us()
                due = self.core.due(now)
                if due is None:
                    if self.core.drained():
                        return None
                    wake = self.core.wake_at()
                    self._cond.wait(
                        None if wake is None else max(0.0, (wake - now) / 1e6)
                    )
                    continue
                model, cause, limit = due
                batch, expired = self.core.take(model, limit, now)
                outbox = self._answer_locked(expired, now)
                if batch:
                    self._worker_batches[worker_id] += 1
                    self._global_batches += 1
                    kill = self.faults.kill_for(
                        worker_id,
                        self._worker_batches[worker_id],
                        global_seq=self._global_batches,
                    )
                    self.monitor.increment("batches")
            # Requests that expired while queued are answered outside
            # the lock; a flush that expired whole means poll again.
            self._deliver(outbox)
            if batch:
                return batch, model, cause, kill

    def _settle(self, event, *args) -> None:
        """Run a failing core event under the lock, then send its answers."""
        with self._cond:
            outbox = self._answer_locked(event(*args), _now_us())
            self._cond.notify_all()
        self._deliver(outbox)

    def _batch_completed(
        self, worker_id: int, batch, cause: str, run, elapsed_s: float
    ) -> None:
        digests = {
            preq.request_id: functional_run_digest(per_image)
            for preq, per_image in zip(batch, run.per_image)
        }
        with self._cond:
            per_request_ms = elapsed_s * 1000.0 / len(batch)
            self._service_ms_ema = (
                per_request_ms
                if self._service_ms_ema is None
                else 0.5 * self._service_ms_ema + 0.5 * per_request_ms
            )
            outbox = self._answer_locked(
                self.core.complete(batch), _now_us(), digests,
                worker=worker_id, batch_size=len(batch), flush_cause=cause,
            )
            self._cond.notify_all()
        self._deliver(outbox)

    # ------------------------------------------------------------------ #
    # Terminal responses
    # ------------------------------------------------------------------ #
    def _response(
        self, preq: PendingRequest, status: str, now_us: float, **fields
    ) -> dict:
        frame = {
            "type": RESPONSE,
            "id": preq.request_id,
            "model": preq.model,
            "image": preq.image,
            "status": status,
            "reason": "",
            "latency_ms": round((now_us - preq.arrival_us) / 1000.0, 3),
            "attempts": 0,
        }
        frame.update(fields)
        return frame

    def _answer_locked(
        self, terminals, now_us: float, digests=None, **fields
    ) -> list:
        """Frames for the core's ledgered terminals, sent after unlocking."""
        outbox = []
        for preq, status, reason in terminals:
            if status == COMPLETED:
                self._latency.record(max(0.0, now_us - preq.arrival_us))
            frame = self._response(
                preq, status, now_us, reason=reason,
                attempts=self.core.attempts[preq.request_id], **fields,
            )
            if digests is not None:
                frame["digest"] = digests[preq.request_id]
            outbox.append((preq, frame))
        return outbox

    # ------------------------------------------------------------------ #
    # Health
    # ------------------------------------------------------------------ #
    def _health_snapshot(self) -> dict:
        with self._cond:
            extras = {
                "models": list(self.models),
                "queue_depth_limit": self.queue_depth,
                "pending": self.core.pending(),
                "inflight": self.core.inflight,
                "live_workers": self.core.live_workers,
                "shed_level": self.core.shed_level(),
                "terminals": len(self.core.terminals),
            }
            latency = self._latency.summary()
        extras["latency_ms"] = {
            key: (value / 1000.0 if key.endswith("_us") else value)
            for key, value in latency.items()
        }
        return self.monitor.snapshot(**extras)


# --------------------------------------------------------------------- #
# Demo zoo
# --------------------------------------------------------------------- #
def demo_definitions() -> "dict[str, ModelDefinition]":
    """Two tiny models the CLI, quickstart and soak harness serve.

    Small enough that a session compiles in milliseconds (so a restarted
    server is back inside its clients' retry budgets) while still
    covering both serving paths: a conv model and a transposed-GEMM
    model, each with a deliberately ragged reduction axis.
    """
    return {
        "Demo-CNN": ModelDefinition(
            name="Demo-CNN",
            kind="cnn",
            pruning_scheme="AGP",
            dataset="synthetic",
            accuracy="-",
            conv_layers=(
                ConvLayerSpec(
                    name="c1", in_channels=3, out_channels=8, height=12,
                    width=12, kernel=3, stride=1, padding=1,
                    weight_sparsity=0.5, activation_sparsity=0.4,
                ),
                ConvLayerSpec(
                    name="c2", in_channels=8, out_channels=16, height=12,
                    width=12, kernel=3, stride=2, padding=1,
                    weight_sparsity=0.5, activation_sparsity=0.5,
                ),
            ),
        ),
        "Demo-GEMM": ModelDefinition(
            name="Demo-GEMM",
            kind="gemm",
            pruning_scheme="magnitude",
            dataset="synthetic",
            accuracy="-",
            gemm_layers=(
                GemmLayerSpec(
                    name="g1", m=16, k=18, n=12,
                    weight_sparsity=0.5, activation_sparsity=0.4,
                ),
                GemmLayerSpec(
                    name="g2", m=16, k=18, n=20,
                    weight_sparsity=0.5, activation_sparsity=0.6,
                ),
            ),
        ),
    }


# --------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------- #
def _parse_kill(text: str) -> WorkerBatchKill:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise argparse.ArgumentTypeError(
            f"expected WORKER:BATCH_SEQ[:at], got {text!r}"
        )
    at = parts[2] if len(parts) == 3 else "before-run"
    try:
        return WorkerBatchKill(int(parts[0]), int(parts[1]), at)
    except (ValueError, ConfigError) as error:
        raise argparse.ArgumentTypeError(str(error)) from error


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving.server", description=__doc__
    )
    where = parser.add_mutually_exclusive_group()
    where.add_argument(
        "--unix", metavar="PATH", help="serve on a Unix domain socket"
    )
    where.add_argument(
        "--port", type=int, default=0,
        help="serve on 127.0.0.1:PORT (0 picks a free port)",
    )
    parser.add_argument(
        "--demo-zoo", action="store_true",
        help="serve the built-in tiny demo models (fast compiles)",
    )
    parser.add_argument(
        "--models", nargs="+", default=None, metavar="NAME",
        help="zoo model names to serve (compiled before READY)",
    )
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--batch-cap", type=int, default=4)
    parser.add_argument("--deadline-ms", type=float, default=50.0)
    parser.add_argument("--queue-depth", type=int, default=16)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-retries", type=int, default=1)
    parser.add_argument(
        "--kill-worker", action="append", default=[], type=_parse_kill,
        metavar="W:SEQ[:at]",
        help="inject a worker kill on its SEQ-th batch "
        "(W = worker index, or -1 for whichever worker takes the "
        "server-global SEQ-th batch; at = before-run|after-run); "
        "repeatable",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.demo_zoo and args.models:
        print("--demo-zoo and --models are mutually exclusive", file=sys.stderr)
        return 2
    definitions = demo_definitions() if args.demo_zoo or not args.models else {}
    pool = SessionPool(
        scale=args.scale, seed=args.seed, definitions=definitions
    )
    models = tuple(args.models) if args.models else tuple(definitions)
    try:
        server = ServingServer(
            pool,
            address=args.unix if args.unix else ("127.0.0.1", args.port),
            models=models,
            batch_cap=args.batch_cap,
            deadline_ms=args.deadline_ms,
            queue_depth=args.queue_depth,
            workers=args.workers,
            max_retries=args.max_retries,
            faults=ServerFaultPlan(worker_kills=tuple(args.kill_worker)),
        )
    except ConfigError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: server.drain())
    signal.signal(signal.SIGINT, lambda signum, frame: server.drain())
    server.start()
    print(
        "READY "
        + json.dumps(
            {
                "address": server.address,
                "models": list(models),
                "pid": os.getpid(),
                "protocol": PROTOCOL_VERSION,
            }
        ),
        flush=True,
    )
    # Block until a drain (SIGTERM / drain frame) completes; exit 0 is
    # the drain contract the soak harness asserts.
    while not server.await_drained(timeout_s=1.0):
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
