"""Exact latency percentiles for the serving daemon.

Tail-latency reporting is only trustworthy when the percentile
definition is exact and documented: this module uses the *nearest-rank*
order statistic — the p-th percentile of n samples is the value at
sorted index ``ceil(p/100 * n) - 1`` — which is always one of the
observed samples (never an interpolation), is defined for ``n == 1``,
and handles tied values naturally.  ``numpy.percentile``'s default
linear interpolation would instead report latencies nobody experienced.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from repro.errors import ConfigError

#: The daemon's reported percentiles, in row order.
REPORTED_PERCENTILES = (50.0, 95.0, 99.0)


def exact_percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: an observed sample, never interpolated.

    Args:
        values: non-empty samples, in any order.
        pct: percentile in ``(0, 100]`` (``p50`` → ``50.0``).

    Returns:
        The value of rank ``ceil(pct/100 * n)`` in sorted order.
    """
    if not 0.0 < pct <= 100.0:
        raise ConfigError(f"percentile must be in (0, 100], got {pct}")
    data = sorted(values)
    if not data:
        raise ConfigError("percentile of an empty sample is undefined")
    return _nearest_rank(data, pct)


def _nearest_rank(data: Sequence[float], pct: float) -> float:
    """The nearest-rank percentile of already sorted, non-empty ``data``."""
    return data[math.ceil(pct / 100.0 * len(data)) - 1]


class LatencyRecorder:
    """Accumulates per-request latencies and reports exact percentiles.

    The recorder keeps every sample (the daemon serves bounded request
    schedules, not unbounded streams) so percentiles are exact order
    statistics rather than sketch estimates.
    """

    __slots__ = ("_samples",)

    def __init__(self, samples: "Iterable[float] | None" = None) -> None:
        self._samples: list[float] = [float(s) for s in samples or ()]

    def record(self, latency_us: float) -> None:
        """Add one request's latency (microseconds)."""
        if latency_us < 0:
            raise ConfigError(f"negative latency: {latency_us}")
        self._samples.append(float(latency_us))

    @property
    def count(self) -> int:
        """Number of recorded samples."""
        return len(self._samples)

    @property
    def samples(self) -> tuple[float, ...]:
        """The recorded samples, in arrival order."""
        return tuple(self._samples)

    def percentile(self, pct: float) -> float:
        """Exact nearest-rank percentile of the recorded samples."""
        return exact_percentile(self._samples, pct)

    def mean(self) -> float:
        """Arithmetic mean of the recorded samples."""
        if not self._samples:
            raise ConfigError("mean of an empty sample is undefined")
        return sum(self._samples) / len(self._samples)

    def summary(self, digits: int = 3) -> dict:
        """p50/p95/p99 + extrema as a JSON-ready row fragment.

        An empty recorder (every request rejected or failed) reports
        zeros rather than raising — a row must always be printable.
        """
        if not self._samples:
            return {
                "latency_count": 0,
                "p50_latency_us": 0.0,
                "p95_latency_us": 0.0,
                "p99_latency_us": 0.0,
                "mean_latency_us": 0.0,
                "max_latency_us": 0.0,
            }
        data = sorted(self._samples)  # once, for every order statistic
        return {
            "latency_count": self.count,
            "p50_latency_us": round(_nearest_rank(data, 50.0), digits),
            "p95_latency_us": round(_nearest_rank(data, 95.0), digits),
            "p99_latency_us": round(_nearest_rank(data, 99.0), digits),
            "mean_latency_us": round(self.mean(), digits),
            "max_latency_us": round(data[-1], digits),
        }
