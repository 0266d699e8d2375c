"""Unit conversions and normalisation conventions.

The paper normalises every end-host output link to capacity ``C = 1``
("we assume that each link in the network has a uniform available
capacity C = 1").  All regulator parameters (sigma, rho) are then
expressed as fractions of that capacity: ``rho`` is a dimensionless
utilisation in ``[0, 1]`` and ``sigma`` is an amount of data measured in
*capacity-seconds* (the data transmitted by a full link in ``sigma``
seconds).

The workload models, on the other hand, speak natural units (64 kbps
audio, 1.5 Mbps MPEG-1 video).  The helpers in this module convert
between the two worlds:

``normalize_rate(rate_bps, capacity_bps)``
    maps a bit rate to the dimensionless ``rho`` used by the theory.

``normalized_to_rate(rho, capacity_bps)``
    maps back to bits per second.

Everything is plain float arithmetic; the functions exist to make unit
handling explicit and greppable rather than to hide complexity.
"""

from __future__ import annotations

BITS_PER_BYTE = 8
#: One kilobit per second, in bits per second.
KBPS = 1_000.0
#: One megabit per second, in bits per second.
MBPS = 1_000_000.0

#: Audio stream rate used throughout the paper's evaluation (64 kbps).
AUDIO_RATE_BPS = 64 * KBPS
#: Video stream rate used throughout the paper's evaluation (1.5 Mbps MPEG-1).
VIDEO_RATE_BPS = 1.5 * MBPS


def megabits_to_bits(megabits: float) -> float:
    """Convert megabits to bits."""
    return float(megabits) * MBPS


def bits_to_megabits(bits: float) -> float:
    """Convert bits to megabits."""
    return float(bits) / MBPS


def seconds_to_ms(seconds: float) -> float:
    """Convert seconds to milliseconds."""
    return float(seconds) * 1e3


def ms_to_seconds(ms: float) -> float:
    """Convert milliseconds to seconds."""
    return float(ms) / 1e3


def normalize_rate(rate_bps: float, capacity_bps: float) -> float:
    """Return the dimensionless utilisation ``rho`` of ``rate_bps``.

    Parameters
    ----------
    rate_bps:
        Flow rate in bits per second.
    capacity_bps:
        Link capacity in bits per second (the ``C`` of the paper).

    Returns
    -------
    float
        ``rate_bps / capacity_bps``; the paper's ``rho`` when the link is
        normalised to ``C = 1``.
    """
    if capacity_bps <= 0:
        raise ValueError(f"capacity_bps must be positive, got {capacity_bps}")
    return float(rate_bps) / float(capacity_bps)


def normalized_to_rate(rho: float, capacity_bps: float) -> float:
    """Invert :func:`normalize_rate`."""
    if capacity_bps <= 0:
        raise ValueError(f"capacity_bps must be positive, got {capacity_bps}")
    return float(rho) * float(capacity_bps)


def aggregate_utilization(rates_bps: list[float], capacity_bps: float) -> float:
    """Aggregate utilisation ``u = sum(rho_i)`` of a set of flows.

    This is the x-axis of the paper's Figures 4 and 6 ("average input
    rate of 3 flows" times the flow count; the module docstring states
    the unit convention).
    """
    return sum(normalize_rate(r, capacity_bps) for r in rates_bps)
