#!/usr/bin/env bash
# Smoke-test CI: the tier-1 test suite, a doctest pass over the README
# quickstart snippets, the golden-snapshot regression suite (fails on
# any paper-table drift), the im2col + SpGEMM-engine parity suites,
# the encoded-operand + session parity suites (pre-encoded operands and
# batch-folded sessions must be bit-identical to the dense/per-image
# paths), the model-zoo conformance grid (every model x pruning method
# served through compiled sessions, pinned to golden rows),
# the serving suite (the clock-free scheduler core both serving drivers
# share, deterministic fault injection, batching properties,
# exact-percentile stats — each test under a hard SIGALRM timeout — plus
# the serve_daemon golden, so a core change that moves the daemon's
# replayed timeline fails there) and a quick daemon smoke run, a
# wall-clock chaos soak smoke of the socket serving front-end (real
# server subprocess, seeded net
# faults, SIGKILL + restart, SIGTERM drain — the exactly-one-terminal,
# digest-identity and drain invariants must hold), the sweep-runtime
# suite
# (plan/journal/retry/executor-faults/crash-resume, also under SIGALRM
# timeouts) plus a kill-and-resume smoke that SIGKILLs a live sweep and
# demands a byte-identical report after --resume, the conv-pipeline,
# blocked-engine and serving-throughput benchmarks (keep the speedup
# trajectory JSONs populated and gate the 2048^3 >= 5x blocked
# advantage plus the >= 3x batch-8 serving advantage, now also gated
# through the daemon path with p50/p99 SLO rows) and a parallel +
# cached runner smoke pass that must print byte-identical tables on
# the cached re-run.
# Run from anywhere; no arguments.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1: pytest =="
python -m pytest -x -q

echo "== README quickstart doctests =="
python -m pytest -q --doctest-glob=README.md README.md

echo "== golden-snapshot regression suite =="
python -m pytest -q tests/experiments/test_golden.py

echo "== im2col engine parity suite (vectorized vs reference oracles) =="
python -m pytest -q tests/core/test_im2col_engines.py tests/core/test_im2col.py

echo "== SpGEMM engine parity suites (exact CSR x dense and blocked engines vs reference) =="
python -m pytest -q tests/core/test_engine.py tests/core/test_engine_blocked.py \
    tests/formats/test_vectorized_formats.py

echo "== encoded-operand + session parity suites (encoded vs dense, batch vs per-image) =="
python -m pytest -q tests/core/test_encoded_operands.py tests/nn/test_session.py

echo "== model-zoo conformance grid (every model x pruning method x backend vs golden rows) =="
python -m pytest -q -m conformance tests/conformance

echo "== serving suite (scheduler core, fault injection, batching properties, latency stats, serve_daemon golden) =="
# Hard wall-clock bound on top of the per-test SIGALRM timeout: a hung
# virtual-clock event loop must fail CI, not stall it.
timeout 600 python -m pytest -q -m serving tests/serving
timeout 600 python -m pytest -q tests/experiments/test_golden.py -k serve_daemon

echo "== serving daemon smoke (quick Poisson run over the zoo) =="
timeout 300 python -m repro.experiments.runner --quick --no-cache serve_daemon \
    > /dev/null

echo "== live serving soak smoke (socket server, seeded chaos, SIGKILL + restart, drain) =="
# The soak's own invariant checks are the assertion: nonzero exit means
# a robustness breach (duplicate terminal, digest mismatch, bad drain).
timeout 300 python -m repro.experiments.serve_live \
    --requests 24 --clients 2 > /dev/null

echo "== sweep runtime suite (plan, journal, retry, executor faults, crash/resume) =="
timeout 600 python -m pytest -q -m runtime tests/runtime

echo "== crash-safety smoke: SIGKILL a live sweep, --resume to a byte-identical report =="
crash_dir="$(mktemp -d)"
trap 'rm -rf "$crash_dir"' EXIT
CRASH_EXPERIMENTS=(fig19 fig5 table3 fig21)
REPRO_CACHE_DIR="$crash_dir/straight" python -m repro.experiments.runner \
    --quick "${CRASH_EXPERIMENTS[@]}" > "$crash_dir/straight.txt"
REPRO_CACHE_DIR="$crash_dir/killed" python -m repro.experiments.runner \
    --quick "${CRASH_EXPERIMENTS[@]}" > /dev/null 2>&1 &
victim=$!
# Kill as soon as the journal records the first completed task.
for _ in $(seq 1 1500); do
    if grep -qs task_completed "$crash_dir"/killed/runs/*.jsonl; then break; fi
    kill -0 "$victim" 2> /dev/null || { echo "victim exited early" >&2; exit 1; }
    sleep 0.02
done
kill -9 "$victim" 2> /dev/null || true
wait "$victim" 2> /dev/null || true
grep -qs task_completed "$crash_dir"/killed/runs/*.jsonl
! grep -qs run_finished "$crash_dir"/killed/runs/*.jsonl
REPRO_CACHE_DIR="$crash_dir/killed" python -m repro.experiments.runner \
    --quick --resume "${CRASH_EXPERIMENTS[@]}" > "$crash_dir/resumed.txt"
cmp "$crash_dir/straight.txt" "$crash_dir/resumed.txt"

echo "== spconv speedup benchmark (quick: full-res Table III layer) =="
python -m pytest -q benchmarks/test_spconv_speedup.py

echo "== blocked engine speedup benchmark (1024^3/2048^3 + functional ResNet-18 scale=1.0) =="
python -m pytest -q benchmarks/test_blocked_engine_speedup.py

echo "== serving throughput benchmark (compiled batch-8 ResNet-18 session >= 3x per-image loop) =="
python -m pytest -q benchmarks/test_serve_throughput.py

echo "== runner smoke: --quick --jobs 2 --cache, cached re-run byte-identical =="
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir" "$crash_dir"' EXIT
REPRO_CACHE_DIR="$smoke_dir/cache" python -m repro.experiments.runner \
    --quick --jobs 2 --cache > "$smoke_dir/first.txt"
REPRO_CACHE_DIR="$smoke_dir/cache" python -m repro.experiments.runner \
    --quick --jobs 2 --cache > "$smoke_dir/second.txt"
cmp "$smoke_dir/first.txt" "$smoke_dir/second.txt"

echo "CI OK"
