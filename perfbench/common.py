"""Helpers shared by the workloads: statistics, host facts, results."""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
from pathlib import Path

#: Repository root (the checkout the benchmark runs from).
ROOT = Path(__file__).resolve().parents[1]
#: Where results, traces and sockets go; git-ignored.
OUT_DIR = ROOT / ".perfbench_out"
#: Seed of the model weights, shared by every session, server and oracle.
MODEL_SEED = 2021
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; ``inf`` entries (misses) sort last."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_note(count: int) -> str:
    """Which order statistic a p99 over ``count`` samples is.

    A p99 is a real tail only with at least ten samples beyond it; with
    fewer samples the nearest-rank p99 is close to the maximum, and the
    printed note says so.
    """
    beyond = count - max(1, math.ceil(0.99 * count))
    return f"n={count}, {beyond} beyond p99" + (
        "" if beyond >= 10 else " (too few for a true p99)"
    )


def median(values) -> float:
    return float(statistics.median(values))


def sim_counts(stats) -> dict[str, int]:
    """The modelled counts of one DeviceStats (exact, not timed).

    Bytes moved are computed from the compressed operand bytes plus the
    output bytes, not measured.
    """
    return {
        "ohmma_issued": stats.warp.ohmma_issued,
        "ohmma_dense": stats.warp.ohmma_dense,
        "macs": stats.warp.multiply_macs,
        "bytes_moved": stats.a_bytes_compressed
        + stats.b_bytes_compressed
        + stats.output_bytes,
    }


def sim_metrics(counts) -> dict:
    """``sim.*`` metrics from counts summed over many runs."""
    totals = {key: sum(c[key] for c in counts) for key in (
        "ohmma_issued", "ohmma_dense", "macs", "bytes_moved"
    )}
    metrics = {f"sim.{key}": value for key, value in totals.items()}
    metrics["sim.instruction_speedup"] = (
        totals["ohmma_dense"] / totals["ohmma_issued"]
    )
    return metrics


class ImageIds:
    """Fresh image ids, derived from the seed, never repeated within a run.

    Each ``lane`` (a pass or phase of the run) draws from its own range,
    so the ids one lane serves do not depend on how many another lane
    served in its timed loop.
    """

    LANE_SIZE = 100_000

    def __init__(self, seed: int, lane: int = 0) -> None:
        self._next = (seed % 1_000_003) * 10 * self.LANE_SIZE + lane * self.LANE_SIZE

    def take(self, count: int) -> list[int]:
        first = self._next
        self._next += count
        return list(range(first, first + count))


def proc_status(pid: "int | str" = "self") -> dict[str, str]:
    """``/proc/<pid>/status`` as a dict of raw strings."""
    fields = {}
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            fields[key] = value.strip()
    return fields


def peak_rss_mb(pid: "int | str" = "self") -> float:
    """Peak resident set size (``VmHWM``) in MiB."""
    kib = int(proc_status(pid)["VmHWM"].split()[0])
    return kib / 1024.0


def host_fingerprint() -> dict:
    """What the timings depend on: cores, library versions, BLAS threads."""
    import numpy
    import scipy

    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def write_json(name: str, payload) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / name
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path
