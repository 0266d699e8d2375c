"""Order statistics and the ``--compare`` verdict rule.

Quartiles are :func:`statistics.quantiles` with ``n=4`` (the default
"exclusive" method), so the spread this module reports is the one a
reader gets from the same values with the standard library.
"""

from __future__ import annotations

import statistics
from typing import Mapping, Sequence

__all__ = [
    "percentile",
    "spread_share",
    "summarise",
    "verdict",
]


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def summarise(values: Sequence[float]) -> dict:
    """``median``, quartiles ``q1``/``q3`` and ``n`` of some runs.

    One run has no spread: its quartiles equal its value.
    """
    if not values:
        raise ValueError("summary of no values")
    xs = [float(v) for v in values]
    if len(xs) == 1:
        q1 = q3 = xs[0]
    else:
        q1, _, q3 = statistics.quantiles(xs, n=4)
    return {"median": statistics.median(xs), "q1": q1, "q3": q3, "n": len(xs)}


def _better(a: float, b: float, higher: bool) -> bool:
    return a > b if higher else a < b


def verdict(
    base: Sequence[float], new: Sequence[float], better: str, bound: float
) -> dict:
    """Judge ``new`` runs of one metric against ``base`` runs.

    ``better`` is ``"higher"`` or ``"lower"``; ``bound`` is the share
    of the base median by which the metric may move before it counts.
    The verdict is ``unresolved`` when the base's own quartile spread
    (as a share of its median) exceeds ``bound`` -- the noise hides any
    move of that size -- unless every run of one side beats every run
    of the other.  Otherwise a move past ``bound`` in the good
    direction is ``better``, in the bad direction ``worse``, and
    anything smaller ``unchanged``.  A base median of 0 (a failure
    fraction) makes any increase ``worse`` and any decrease ``better``.
    """
    if better not in ("higher", "lower"):
        raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")
    higher = better == "higher"
    b, n = summarise(base), summarise(new)
    row = {
        "base": b,
        "new": n,
        "ratio": n["median"] / b["median"] if b["median"] else None,
    }
    separated = all(
        _better(x, y, higher) for x in new for y in base
    ) or all(_better(y, x, higher) for x in new for y in base)
    spread = spread_share(b)
    if b["median"] == 0:
        gain = 0.0 if n["median"] == 0 else (
            1.0 if _better(n["median"], 0.0, higher) else -1.0
        )
        limit = 0.0
    else:
        gain = (n["median"] - b["median"]) / abs(b["median"])
        gain = gain if higher else -gain
        limit = bound
    if spread > bound and not separated:
        row["verdict"] = "unresolved"
    elif gain < -limit:
        row["verdict"] = "worse"
    elif gain > limit:
        row["verdict"] = "better"
    else:
        row["verdict"] = "unchanged"
    return row


def spread_share(summary: Mapping) -> float:
    """Quartile spread as a share of the median (0 for a zero median)."""
    med = summary["median"]
    return (summary["q3"] - summary["q1"]) / abs(med) if med else 0.0
