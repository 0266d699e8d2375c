"""Delay aggregation.

:class:`DelayStats` summarises a set of recorded delays (the worst-case
delay is *the* metric of the paper; mean and percentiles are kept for
diagnostics).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DelayStats"]


@dataclass(frozen=True)
class DelayStats:
    """Summary statistics of a collection of packet delays (seconds)."""

    count: int
    worst: float
    mean: float
    p50: float
    p99: float

    @classmethod
    def from_delays(cls, delays: np.ndarray) -> "DelayStats":
        d = np.asarray(delays, dtype=np.float64)
        if d.size == 0:
            return cls(count=0, worst=0.0, mean=0.0, p50=0.0, p99=0.0)
        return cls(
            count=int(d.size),
            worst=float(d.max()),
            mean=float(d.mean()),
            p50=float(np.percentile(d, 50)),
            p99=float(np.percentile(d, 99)),
        )
