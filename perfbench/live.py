"""The ``live-demo`` workload: a server subprocess driven over its socket.

One client process, one connection, two threads (the sender and a
response reader).  Three phases run against one server, in
:data:`CYCLES` light-busy-sat cycles:

* ``light``: open loop, Poisson arrivals at :data:`LIGHT_RPS`; batches
  mostly flush on the server's 50 ms deadline.
* ``busy``: open loop at :data:`BUSY_RPS`; batches mostly fill to the cap.
* ``sat``: closed loop with :data:`SAT_WINDOW` requests outstanding.

Open-loop latency runs from a request's *scheduled* send time to its
terminal response, so a stalled generator or server shows up in every
later request; a refused or failed request counts as an infinite
latency.  Every completed digest is checked against the per-image
oracle, computed here after the phases.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from common import (
    MODEL_SEED,
    OUT_DIR,
    ROOT,
    SETUP_REPEATS,
    ImageIds,
    median,
    peak_rss_mb,
    percentile,
    proc_status,
    sim_metrics,
    tail_note,
)
from tracing import DIGEST, EXEC, Span

#: Server configuration: fixed here, never derived from a measurement.
SERVER_FLAGS = (
    "--demo-zoo",
    "--seed", str(MODEL_SEED),
    "--batch-cap", "4",
    "--deadline-ms", "50",
    "--queue-depth", "16",
    "--workers", "2",
)
MODELS = ("Demo-CNN", "Demo-GEMM")
LIGHT_RPS = 100.0
BUSY_RPS = 160.0
SAT_WINDOW = 16
#: Share of the measured seconds each phase runs for.
PHASE_SHARES = {"light": 0.4, "busy": 0.35, "sat": 0.2}
#: The phases run in this many light-busy-sat cycles, so each phase
#: samples the host over the whole run instead of one stretch.
CYCLES = 5
READY_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
#: How long after its last send a phase waits for outstanding answers.
ANSWER_TIMEOUT_S = 15.0
#: Oracle worker processes (the server has stopped by then).
ORACLE_WORKERS = 2


@dataclass
class Request:
    id: str
    phase: str
    cycle: int
    model: str
    image: int
    due: float = 0.0
    sent: float = 0.0


class Server:
    """A ``repro.serving.server`` subprocess, optionally traced.

    The servers of a run start one after another, each stopped (and its
    socket removed) before the next, so they share one socket path.
    """

    def __init__(self, trace_out: "Path | None" = None) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.socket_path = OUT_DIR / f"live-{os.getpid()}.sock"
        self.trace_out = trace_out
        self.process: "subprocess.Popen | None" = None

    def start(self) -> float:
        """Spawn the server; seconds from spawn to its READY line."""
        if self.trace_out is None:
            program = ["-m", "repro.serving.server"]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            program = [str(launcher), str(self.trace_out)]
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        relative = os.path.relpath(self.socket_path, ROOT)
        start = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, *program, "--unix", relative, *SERVER_FLAGS],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        deadline = start + READY_TIMEOUT_S
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not print READY in time")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if not ready:
                continue
            line = self.process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited before READY (code {self.process.poll()})"
                )
            if line.startswith("READY "):
                return time.perf_counter() - start

    @property
    def pid(self) -> int:
        return self.process.pid

    def stop(self) -> int:
        """SIGTERM (graceful drain), then SIGKILL if it hangs; wait."""
        code = -1
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            try:
                code = self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                code = self.process.wait()
            self.process.stdout.close()
        self.socket_path.unlink(missing_ok=True)
        return code


class Client:
    """One connection: the caller sends, a reader thread collects answers."""

    def __init__(self, path: Path) -> None:
        from repro.serving.protocol import (
            FrameDecoder,
            check_hello_ack,
            encode_frame,
            hello,
        )

        self._encode = encode_frame
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(os.path.relpath(path))
        self.sock.sendall(encode_frame(hello("perfbench")))
        self.decoder = FrameDecoder()
        messages: list[dict] = []
        while not messages:
            chunk = self.sock.recv(65536)
            if not chunk:
                raise RuntimeError("server closed the connection at hello")
            messages = self.decoder.feed(chunk)
        check_hello_ack(messages[0])
        self.answers: dict[str, tuple[float, dict]] = {}
        self.health: "dict | None" = None
        self.on_answer = None
        self._health_seen = threading.Event()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def send(self, frame: dict) -> None:
        self.sock.sendall(self._encode(frame))

    def _read(self) -> None:
        from repro.serving.protocol import (
            HEALTH_ACK,
            RESPONSE,
            ProtocolError,
            recv_frames,
        )

        try:
            for message in recv_frames(self.sock, self.decoder):
                now = time.perf_counter()
                if message["type"] == RESPONSE:
                    self.answers[message["id"]] = (now, message)
                    callback = self.on_answer
                    if callback is not None:
                        callback()
                elif message["type"] == HEALTH_ACK:
                    self.health = message
                    self._health_seen.set()
        except (OSError, ProtocolError):
            pass

    def wait_answers(self, requests) -> None:
        """Wait until every request is answered or the timeout passes."""
        deadline = time.perf_counter() + ANSWER_TIMEOUT_S
        pending = [r.id for r in requests]
        while pending and time.perf_counter() < deadline:
            pending = [rid for rid in pending if rid not in self.answers]
            if pending:
                time.sleep(0.005)

    def probe_health(self) -> dict:
        from repro.serving.protocol import make_health

        self.send(make_health())
        if not self._health_seen.wait(ANSWER_TIMEOUT_S):
            raise RuntimeError("no health answer")
        return self.health

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self._reader.join(timeout=ANSWER_TIMEOUT_S)


def _open_loop(client, phase, cycle, rate, duration, rng, images, prefix):
    """Send Poisson arrivals at ``rate`` for ``duration`` seconds."""
    from repro.serving.protocol import make_request

    gaps = rng.exponential(1.0 / rate, size=int(rate * duration * 2) + 32)
    offsets = np.cumsum(gaps)
    offsets = offsets[offsets < duration]
    choices = rng.integers(len(MODELS), size=len(offsets))
    ids = images.take(len(offsets))
    requests = [
        Request(f"{prefix}-{phase}{cycle}-{i:06d}", phase, cycle, MODELS[c], ids[i])
        for i, c in enumerate(choices)
    ]
    start = time.perf_counter()
    for request, offset in zip(requests, offsets):
        request.due = start + float(offset)
        delay = request.due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        request.sent = time.perf_counter()
        client.send(make_request(request.id, request.model, request.image))
    client.wait_answers(requests)
    return requests


def _closed_loop(client, cycle, duration, rng, images, prefix):
    """Keep :data:`SAT_WINDOW` requests outstanding for ``duration`` s."""
    from repro.serving.protocol import make_request

    slots = threading.Semaphore(SAT_WINDOW)
    client.on_answer = slots.release
    requests = []
    start = time.perf_counter()
    stop = start + duration
    try:
        while True:
            remaining = stop - time.perf_counter()
            if remaining <= 0 or not slots.acquire(timeout=remaining):
                break
            now = time.perf_counter()
            if now >= stop:
                break
            request = Request(
                f"{prefix}-sat{cycle}-{len(requests):06d}", "sat", cycle,
                MODELS[int(rng.integers(len(MODELS)))], images.take(1)[0],
                due=now, sent=now,
            )
            requests.append(request)
            client.send(make_request(request.id, request.model, request.image))
        client.wait_answers(requests)
    finally:
        client.on_answer = None
    return requests


def _oracle_results(items) -> dict:
    """Oracle answer per ``(model, image)``, from worker processes.

    The items are split across :data:`ORACLE_WORKERS` runs of
    ``oracle_worker.py``; each answers with one JSON line per item.
    """
    chunks = [items[i::ORACLE_WORKERS] for i in range(ORACLE_WORKERS)]
    worker = Path(__file__).with_name("oracle_worker.py")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    processes = [
        subprocess.Popen(
            [sys.executable, str(worker)], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for _ in chunks
    ]
    try:
        with ThreadPoolExecutor(len(processes)) as pool:
            outputs = list(pool.map(
                lambda job: job[0].communicate(json.dumps(job[1]))[0],
                zip(processes, chunks),
            ))
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
            process.wait()
    if any(process.returncode != 0 for process in processes):
        raise RuntimeError("an oracle worker failed")
    results = {}
    for chunk, output in zip(chunks, outputs):
        answers = [json.loads(line) for line in output.splitlines()]
        if len(answers) != len(chunk):
            raise RuntimeError("an oracle worker answered too few items")
        results.update(zip(chunk, answers))
    return results


@dataclass
class LivePass:
    setup_times: list
    requests: list
    answers: dict
    health: dict
    threads: int
    rss_mb: float
    spans: "list[Span] | None"


def _measure(seed, seconds, traced: bool) -> LivePass:
    # Each phase of each pass draws its schedule and image ids from its
    # own stream, so the light and busy inputs (and their modelled
    # counts) repeat exactly for a seed however many sat requests ran.
    phases = ("light", "busy", "sat")
    lanes = {
        phase: ImageIds(seed, lane=len(phases) * int(traced) + index)
        for index, phase in enumerate(phases)
    }

    def rng(cycle, phase):
        return np.random.default_rng(
            [seed, int(traced), cycle, phases.index(phase)]
        )

    prefix = f"s{seed}-{'traced' if traced else 'plain'}"
    trace_out = OUT_DIR / f"server-spans-{os.getpid()}.json" if traced else None
    setup_times = []
    for _ in range(SETUP_REPEATS - 1):
        server = Server(trace_out)
        try:
            setup_times.append(server.start())
        finally:
            server.stop()
    server = Server(trace_out)
    try:
        setup_times.append(server.start())
        client = Client(server.socket_path)
        try:
            requests = []
            for cycle in range(CYCLES):
                for phase, rate in (("light", LIGHT_RPS), ("busy", BUSY_RPS)):
                    requests += _open_loop(
                        client, phase, cycle, rate,
                        seconds * PHASE_SHARES[phase] / CYCLES,
                        rng(cycle, phase), lanes[phase], prefix,
                    )
                requests += _closed_loop(
                    client, cycle, seconds * PHASE_SHARES["sat"] / CYCLES,
                    rng(cycle, "sat"), lanes["sat"], prefix,
                )
            health = client.probe_health()
            threads = int(proc_status(server.pid)["Threads"])
            rss_mb = peak_rss_mb(server.pid)
        finally:
            client.close()
    finally:
        code = server.stop()
    spans = None
    if traced:
        if code != 0:
            raise RuntimeError(f"traced server exited with code {code}")
        spans = [Span(**record) for record in json.loads(trace_out.read_text())]
        trace_out.unlink()
    return LivePass(
        setup_times, requests, dict(client.answers), health,
        threads, rss_mb, spans,
    )


def _completed(measured: LivePass, request: Request) -> "dict | None":
    answer = measured.answers.get(request.id)
    if answer is None or answer[1]["status"] != "completed":
        return None
    return answer[1]


def _mismatched(measured: LivePass, failed) -> int:
    """Completed requests whose digest differed from the oracle's."""
    return sum(
        1 for r in measured.requests
        if r.id in failed and _completed(measured, r) is not None
    )


def _check(measured: LivePass):
    """Oracle-check every completed digest; returns (failed ids, counts)."""
    scheduled = [r for r in measured.requests if r.phase != "sat"]
    items = {(r.model, r.image) for r in scheduled}
    items.update(
        (r.model, r.image) for r in measured.requests
        if r.phase == "sat" and _completed(measured, r) is not None
    )
    oracle = _oracle_results(sorted(items))
    failed = set()
    for request in measured.requests:
        answer = _completed(measured, request)
        if answer is None or (
            answer["digest"] != oracle[(request.model, request.image)]["digest"]
        ):
            failed.add(request.id)
    counts = [oracle[(r.model, r.image)]["counts"] for r in scheduled]
    return failed, counts


def _latencies_ms(measured, failed, phase) -> list[float]:
    return [
        float("inf") if r.id in failed
        else (measured.answers[r.id][0] - r.due) * 1e3
        for r in measured.requests if r.phase == phase
    ]


def _end_to_end(measured: LivePass, failed) -> dict:
    # Closed-loop throughput: completions while each sat block held its
    # window full, from its first send to its last send (the drain of
    # the last window after that is left out).
    done, sat_s = 0, 0.0
    for cycle in range(CYCLES):
        block = [r for r in measured.requests if r.phase == "sat" and r.cycle == cycle]
        last_send = block[-1].sent
        done += sum(
            1 for r in block
            if r.id not in failed and measured.answers[r.id][0] <= last_send
        )
        sat_s += last_send - block[0].sent
    metrics = {
        "setup_s": median(measured.setup_times),
        "images_per_s": done / sat_s,
        "peak_rss_mb": measured.rss_mb,
        "ok_share": 1.0 - len(failed) / len(measured.requests),
    }
    for phase in ("light", "busy"):
        latencies = _latencies_ms(measured, failed, phase)
        metrics[f"{phase}.p50_ms"] = percentile(latencies, 50)
        metrics[f"{phase}.p99_ms"] = percentile(latencies, 99)
    return metrics


def _notes(measured: LivePass) -> dict:
    counts = {}
    outcomes: dict = {}
    for request in measured.requests:
        counts[request.phase] = counts.get(request.phase, 0) + 1
        answer = measured.answers.get(request.id)
        outcome = (
            "unanswered" if answer is None
            else f"{answer[1]['status']}:{answer[1]['reason']}".rstrip(":")
        )
        phase_outcomes = outcomes.setdefault(request.phase, {})
        phase_outcomes[outcome] = phase_outcomes.get(outcome, 0) + 1
    return {
        "outcomes": outcomes,
        "light": f"open loop {LIGHT_RPS:g} req/s, {tail_note(counts.get('light', 0))}",
        "busy": f"open loop {BUSY_RPS:g} req/s, {tail_note(counts.get('busy', 0))}",
        "sat": f"closed loop, {SAT_WINDOW} outstanding, {counts.get('sat', 0)} requests",
    }


def _layer_metrics(measured: LivePass, failed) -> dict:
    """Server-side spans joined with the answers, per phase."""
    runs = {}
    digest_s: dict = {}
    for span in measured.spans:
        if span.name == EXEC:
            runs[span.id] = span
        elif span.name == DIGEST:
            digest_s[span.context] = digest_s.get(span.context, 0.0) + span.duration
    batch_of = {
        image: run for run in runs.values() for image in run.meta["images"]
    }
    exec_ms = [run.duration * 1e3 for run in runs.values()]
    digest_ms = [digest_s.get(run.id, 0.0) * 1e3 for run in runs.values()]
    metrics = {
        "serving.exec_ms.p50": percentile(exec_ms, 50),
        "serving.exec_ms.p99": percentile(exec_ms, 99),
        "serving.digest_ms.p50": percentile(digest_ms, 50),
        "serving.digest_ms.p99": percentile(digest_ms, 99),
        "serving.threads": measured.threads,
    }
    for phase in ("light", "busy", "sat"):
        queue_ms, wire_ms, sizes, full = [], [], [], []
        for request in measured.requests:
            if request.phase != phase or request.id in failed:
                continue
            received, answer = measured.answers[request.id]
            run = batch_of[request.image]
            server_ms = answer["latency_ms"]
            queue_ms.append(
                server_ms - (run.duration + digest_s.get(run.id, 0.0)) * 1e3
            )
            wire_ms.append((received - request.sent) * 1e3 - server_ms)
            sizes.append(answer["batch_size"])
            full.append(answer["flush_cause"] == "full")
        metrics[f"serving.{phase}.batch_size_mean"] = float(np.mean(sizes))
        metrics[f"serving.{phase}.flush_full_share"] = float(np.mean(full))
        if phase != "sat":
            metrics[f"serving.{phase}.queue_ms.p50"] = percentile(queue_ms, 50)
            metrics[f"serving.{phase}.wire_ms.p50"] = percentile(wire_ms, 50)
        if phase == "busy":
            metrics["serving.busy.queue_ms.p99"] = percentile(queue_ms, 99)
    for counter in (
        "completed", "failed", "rejected_deadline", "retries",
        "undeliverable", "batches",
    ):
        metrics[f"serving.{counter}"] = measured.health[counter]
    lags = [
        (r.sent - r.due) * 1e3 for r in measured.requests if r.phase != "sat"
    ]
    metrics["client.send_lag_p99_ms"] = percentile(lags, 99)
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run ``live-demo``; see ``run.py`` for the result shape."""
    if not trace:
        measured = _measure(seed, seconds, traced=False)
        failed, _ = _check(measured)
        return {
            "attempted": len(measured.requests),
            "failed": len(failed),
            "correct": _mismatched(measured, failed) == 0,
            "metrics": _end_to_end(measured, failed),
            "notes": _notes(measured),
        }

    plain = _measure(seed, seconds / 2, traced=False)
    plain_failed, _ = _check(plain)
    traced = _measure(seed, seconds / 2, traced=True)
    failed, counts = _check(traced)
    metrics = _layer_metrics(traced, failed)
    metrics.update(sim_metrics(counts))
    plain_e2e = _end_to_end(plain, plain_failed)
    traced_e2e = _end_to_end(traced, failed)
    for key, value in traced_e2e.items():
        metrics[f"trace_overhead.{key}"] = value - plain_e2e[key]
    mismatched = _mismatched(plain, plain_failed) + _mismatched(traced, failed)
    return {
        "attempted": len(plain.requests) + len(traced.requests),
        "failed": len(plain_failed) + len(failed),
        "correct": mismatched == 0,
        "metrics": metrics,
        "notes": {"untraced": plain_e2e, "traced": traced_e2e, **_notes(traced)},
        "spans": [vars(span) for span in traced.spans],
    }
