"""Traffic sources and packet traces.

The paper's evaluation feeds two kinds of real-time streams into the
network: **64 kbps audio** and **1.5 Mbps MPEG-1 video**, both variable
bit rate ("the audio and video streams in the simulation are all
variable bit rate (VBR) flows", Section VI).  This module provides the
corresponding generators plus generic ones (CBR, on/off, Poisson).

Sources generate a :class:`PacketTrace` -- plain NumPy arrays of
emission times and sizes -- which both the discrete-event and the fluid
backend consume, so the two backends can be compared on *identical*
input.  Sizes are in capacity-seconds (``C = 1`` convention); use
:meth:`TrafficSource.scaled_to` to retarget a source at a given
utilisation, which is how the experiment harness sweeps the x-axis of
Figures 4 and 6.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.calculus.envelope import ArrivalEnvelope
from repro.utils.piecewise import PiecewiseLinearCurve
from repro.utils.rng import RandomSource, ensure_rng
from repro.utils.validation import check_non_negative, check_positive

__all__ = [
    "PacketTrace",
    "trace_from_arrays",
    "TrafficSource",
    "CBRSource",
    "PoissonSource",
    "OnOffSource",
    "AudioSource",
    "VBRVideoSource",
]


@dataclass(frozen=True)
class PacketTrace:
    """A realised packet stream: emission times and sizes (NumPy arrays)."""

    times: np.ndarray
    sizes: np.ndarray

    def __post_init__(self) -> None:
        t = np.asarray(self.times, dtype=np.float64)
        s = np.asarray(self.sizes, dtype=np.float64)
        if t.ndim != 1 or s.ndim != 1 or t.shape != s.shape:
            raise ValueError("times and sizes must be 1-D arrays of equal length")
        if t.size and np.any(np.diff(t) < 0):
            raise ValueError("packet times must be non-decreasing")
        if np.any(s <= 0):
            raise ValueError("packet sizes must be > 0")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "sizes", s)

    def __len__(self) -> int:
        return int(self.times.shape[0])

    @property
    def total(self) -> float:
        """Total data (capacity-seconds) in the trace."""
        return float(self.sizes.sum())

    @property
    def duration(self) -> float:
        return float(self.times[-1] - self.times[0]) if len(self) else 0.0

    def mean_rate(self) -> float:
        """Average rate over the trace duration (0 for degenerate traces)."""
        d = self.duration
        return self.total / d if d > 0 else 0.0

    def to_curve(self) -> PiecewiseLinearCurve:
        """Cumulative arrival staircase of the trace."""
        return PiecewiseLinearCurve.from_packet_arrivals(self.times, self.sizes)

    def empirical_sigma(self, rho: float) -> float:
        """Tightest burst parameter making the trace (sigma, rho)-conformant."""
        return self.to_curve().min_sigma(rho)

    def binned_arrivals(self, dt: float, horizon: float) -> np.ndarray:
        """Rasterise the trace onto a uniform grid: data per bin.

        Bin ``i`` covers ``[i dt, (i+1) dt)``.  This is the fluid
        backend's input; a single vectorised ``np.add.at``.
        """
        check_positive(dt, "dt")
        check_positive(horizon, "horizon")
        return _binned(self.times, self.sizes, dt, int(np.ceil(horizon / dt)))

    def restrict(self, horizon: float) -> "PacketTrace":
        """Keep only packets emitted strictly before ``horizon``."""
        keep = self.times < horizon
        return PacketTrace(self.times[keep], self.sizes[keep])

    def shifted(self, offset: float) -> "PacketTrace":
        """The same packet stream started ``offset`` seconds later.

        Time translation leaves the (sigma, rho) description unchanged
        (burstiness is a difference of the cumulative curve), which is
        what lets adversarial scenario schedules skew per-flow start
        times without invalidating the analytic bounds.
        """
        check_non_negative(offset, "offset")
        return PacketTrace(self.times + offset, self.sizes)

    def fragment(self, mtu: float) -> "PacketTrace":
        """Split packets larger than ``mtu`` into MTU-sized fragments.

        Application frames (a 60 kbit MPEG I-frame, say) are transmitted
        as several link-layer packets; the DES regulators are
        non-preemptive per packet, so fragmenting keeps their deviation
        from the fluid model bounded by one MTU serialisation time.
        Fragments share the original emission time (cumulative curves,
        and hence all delay measures, are unchanged).
        """
        check_positive(mtu, "mtu")
        if len(self) == 0 or float(self.sizes.max()) <= mtu:
            return self
        counts = np.ceil(self.sizes / mtu).astype(np.int64)
        times = np.repeat(self.times, counts)
        sizes = np.full(times.shape, mtu, dtype=np.float64)
        # The last fragment of each packet carries the remainder.
        last_idx = np.cumsum(counts) - 1
        remainders = self.sizes - (counts - 1) * mtu
        sizes[last_idx] = remainders
        return PacketTrace(times, sizes)


def trace_from_arrays(times: np.ndarray, sizes: np.ndarray) -> PacketTrace:
    """Construct a :class:`PacketTrace` from kernel-produced arrays.

    Skips ``__post_init__`` validation: the batch realisation kernels
    produce float64 arrays that are sorted and positive by construction
    (they restate the scalar generators float op for float op), so the
    O(n) re-validation per lane is pure overhead on the campaign hot
    path.  Only for arrays a generator kernel just built -- anything
    that crosses an API boundary goes through ``PacketTrace(...)``.
    """
    tr = object.__new__(PacketTrace)
    object.__setattr__(tr, "times", times)
    object.__setattr__(tr, "sizes", sizes)
    return tr


def _binned(
    times: np.ndarray,
    sizes: np.ndarray,
    dt: float,
    n_bins: int,
    before: Optional[float] = None,
) -> np.ndarray:
    """Data per bin ``[i dt, (i+1) dt)`` of the first ``n_bins`` bins,
    leaving out packets emitted at or after ``before``: the unchecked
    body of :meth:`PacketTrace.binned_arrivals`.  Masking keeps element
    order, so every bin sums its packets in trace order."""
    bins = np.zeros(n_bins, dtype=np.float64)
    if len(times):
        idx = np.floor(times / dt).astype(np.int64)
        keep = idx < n_bins
        if before is not None:
            keep &= times < before
        np.add.at(bins, idx[keep], sizes[keep])
    return bins


def _bursts_arange(
    starts: np.ndarray, stops: np.ndarray, step: float
) -> np.ndarray:
    """Concatenated ``np.arange(start, stop, step)`` over pair arrays.

    Replicates numpy's float-arange semantics bit for bit so the
    vectorised on/off generator matches the per-burst loop it replaced:
    the element count is ``ceil((stop - start) / step)`` in double
    precision, the first two elements are ``start`` and ``start + step``
    exactly, and elements from index 2 on extrapolate as
    ``start + i * delta`` with ``delta = (start + step) - start`` --
    the buffer-fill rule of ``np.arange``, whose ``delta`` differs from
    ``step`` in the last bit whenever ``start + step`` rounds.
    """
    counts_f = np.ceil((stops - starts) / step)
    counts = np.where(counts_f > 0, counts_f, 0.0).astype(np.int64)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.float64)
    rep_start = np.repeat(starts, counts)
    bases = np.concatenate(([0], np.cumsum(counts)[:-1]))
    j = np.arange(total, dtype=np.int64) - np.repeat(bases, counts)
    delta = (starts + step) - starts
    times = rep_start + j.astype(np.float64) * np.repeat(delta, counts)
    # arange writes the first two elements directly; only i >= 2 use
    # the extrapolation rule, so pin j == 1 to start + step (j == 0 is
    # exact already: start + 0.0 * delta == start).
    second = j == 1
    times[second] = rep_start[second] + step
    return times


class TrafficSource:
    """Base class of all traffic generators.

    Subclasses implement :meth:`generate`; the base class provides
    rate-retargeting (:meth:`scaled_to`) and envelope extraction.

    Parameters
    ----------
    rate:
        Nominal sustained rate (utilisation of the ``C = 1`` link).
    """

    def __init__(self, rate: float):
        self.rate = check_positive(rate, "rate")

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        """Produce the packet emissions in ``[0, horizon)``."""
        raise NotImplementedError

    def scaled_to(self, rate: float) -> "TrafficSource":
        """A copy of this source retargeted to a new sustained rate.

        The default implementation rescales packet sizes via a wrapper;
        subclasses with a natural rate parameter override it.
        """
        return _ScaledSource(self, rate)

    def envelope(self, horizon: float, rng: RandomSource = None) -> ArrivalEnvelope:
        """Empirical (sigma, rho) envelope of one realisation.

        ``rho`` is the nominal rate; ``sigma`` is measured from a
        generated trace.  The regulators are configured from this, just
        as a deployment would profile its media streams.
        """
        trace = self.generate(horizon, rng)
        return ArrivalEnvelope(max(trace.empirical_sigma(self.rate), 1e-9), self.rate)


class _ScaledSource(TrafficSource):
    """Wrap another source, scaling its packet sizes to hit a target rate."""

    def __init__(self, inner: TrafficSource, rate: float):
        super().__init__(rate)
        self._inner = inner

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        trace = self._inner.generate(horizon, rng)
        factor = self.rate / self._inner.rate
        return PacketTrace(trace.times, trace.sizes * factor)


class CBRSource(TrafficSource):
    """Constant bit rate source: one packet of fixed size every interval.

    Parameters
    ----------
    rate:
        Sustained rate (utilisation).
    packet_size:
        Size of each packet in capacity-seconds.
    phase:
        Offset of the first packet within the emission interval.
    """

    def __init__(self, rate: float, packet_size: float, phase: float = 0.0):
        super().__init__(rate)
        self.packet_size = check_positive(packet_size, "packet_size")
        self.phase = check_non_negative(phase, "phase")

    def time_grid(self, horizon: float) -> np.ndarray:
        """The deterministic emission grid (no RNG consumed).

        Array entry point for the batch realiser: the grid depends only
        on ``(phase, interval, horizon)``, so cells sharing those share
        one array instead of re-running ``arange`` per cell.
        """
        interval = self.packet_size / self.rate
        times = np.arange(self.phase, horizon, interval, dtype=np.float64)
        return times[times < horizon]  # guard float edge at the stop value

    def trace_on_grid(self, times: np.ndarray) -> PacketTrace:
        """The trace over a precomputed :meth:`time_grid` array."""
        return trace_from_arrays(times, np.full(times.shape, self.packet_size))

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        check_positive(horizon, "horizon")
        return self.trace_on_grid(self.time_grid(horizon))

    def scaled_to(self, rate: float) -> "CBRSource":
        return CBRSource(rate, self.packet_size * rate / self.rate, self.phase)


class PoissonSource(TrafficSource):
    """Poisson packet arrivals with exponential spacing, fixed size."""

    def __init__(self, rate: float, packet_size: float):
        super().__init__(rate)
        self.packet_size = check_positive(packet_size, "packet_size")

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        check_positive(horizon, "horizon")
        gen = ensure_rng(rng)
        mean_gap = self.packet_size / self.rate
        # Draw enough gaps to cover the horizon with margin, then trim.
        n_est = max(int(horizon / mean_gap * 1.5) + 16, 16)
        times = np.cumsum(gen.exponential(mean_gap, size=n_est))
        while times.size and times[-1] < horizon:
            extra = np.cumsum(gen.exponential(mean_gap, size=n_est)) + times[-1]
            times = np.concatenate([times, extra])
        times = times[times < horizon]
        return PacketTrace(times, np.full(times.shape, self.packet_size))

    def scaled_to(self, rate: float) -> "PoissonSource":
        return PoissonSource(rate, self.packet_size * rate / self.rate)


class OnOffSource(TrafficSource):
    """Exponential on/off source emitting CBR bursts at a peak rate.

    During *on* periods packets stream at ``peak_rate``; *off* periods
    are silent.  The sustained rate is
    ``peak_rate * mean_on / (mean_on + mean_off)``.
    """

    def __init__(
        self,
        peak_rate: float,
        mean_on: float,
        mean_off: float,
        packet_size: float,
    ):
        check_positive(peak_rate, "peak_rate")
        check_positive(mean_on, "mean_on")
        check_positive(mean_off, "mean_off")
        rate = peak_rate * mean_on / (mean_on + mean_off)
        super().__init__(rate)
        self.peak_rate = peak_rate
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.packet_size = check_positive(packet_size, "packet_size")

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        """Vectorised on/off realisation, bit-identical to the scalar loop.

        The replaced per-period Python loop drew ``exponential(mean_on)``
        / ``exponential(mean_off)`` alternately and ran one ``arange``
        per burst.  This pre-draws the same alternating stream as one
        ``standard_exponential`` block (``Generator.exponential(scale)``
        is ``scale * standard_exponential()``, so the even/odd split
        times the means reproduces every draw exactly), rebuilds the
        period starts with a cumsum (the same left-to-right float
        accumulation as ``t += on + off``) and synthesises all bursts in
        one :func:`_bursts_arange` pass.  The trace is bit-identical;
        the generator may be advanced *further* than the loop consumed
        (whole pre-drawn blocks), which is invisible to the pipeline --
        every call site seeds a fresh per-trace generator.
        """
        check_positive(horizon, "horizon")
        gen = ensure_rng(rng)
        gap = self.packet_size / self.peak_rate
        mean_period = self.mean_on + self.mean_off
        n_est = max(int(horizon / mean_period * 1.5) + 16, 16)
        raw = gen.standard_exponential(2 * n_est)
        on = raw[0::2] * self.mean_on
        off = raw[1::2] * self.mean_off
        cum = np.cumsum(on + off)
        while cum[-1] < horizon:
            raw = gen.standard_exponential(2 * n_est)
            on = np.concatenate([on, raw[0::2] * self.mean_on])
            off = np.concatenate([off, raw[1::2] * self.mean_off])
            cum = np.cumsum(on + off)
        # Period m is the first whose cumulative end reaches the
        # horizon: the loop ran iterations 0..m (starts all < horizon).
        m = int(np.searchsorted(cum, horizon, side="left"))
        starts = np.concatenate(([0.0], cum[:m]))
        stops = np.minimum(starts + on[: m + 1], horizon)
        times = _bursts_arange(starts, stops, gap)
        return trace_from_arrays(times, np.full(times.shape, self.packet_size))

    def scaled_to(self, rate: float) -> "OnOffSource":
        factor = rate / self.rate
        return OnOffSource(
            self.peak_rate * factor, self.mean_on, self.mean_off,
            self.packet_size * factor,
        )


class AudioSource(TrafficSource):
    """A 64 kbps-style packet-audio stream (paper's audio workload).

    Modelled as 20 ms frames with mild lognormal size variation (VBR
    codecs such as GSM/AMR vary frame sizes; the paper stresses that its
    streams are VBR).  ``rate`` is the sustained utilisation after
    normalising the link capacity; frame period stays fixed while sizes
    scale.

    Parameters
    ----------
    rate:
        Sustained utilisation of the ``C = 1`` link.
    frame_interval:
        Seconds between audio frames (20 ms default).
    variability:
        Standard deviation of the lognormal size multiplier (0 gives
        CBR frames).
    """

    def __init__(
        self,
        rate: float,
        frame_interval: float = 0.020,
        variability: float = 0.15,
    ):
        super().__init__(rate)
        self.frame_interval = check_positive(frame_interval, "frame_interval")
        self.variability = check_non_negative(variability, "variability")

    def time_grid(self, horizon: float) -> np.ndarray:
        """The deterministic frame grid (no RNG consumed).

        Array entry point for the batch realiser: one shared array per
        ``(frame_interval, horizon)`` serves every audio lane; only the
        size draws stay per-lane.
        """
        times = np.arange(0.0, horizon, self.frame_interval, dtype=np.float64)
        return times[times < horizon]  # guard float edge at the stop value

    def trace_on_grid(
        self, times: np.ndarray, rng: RandomSource = None
    ) -> PacketTrace:
        """The trace over a precomputed :meth:`time_grid` array.

        Consumes exactly the RNG draws of :meth:`generate` (the frame
        grid itself is deterministic).
        """
        gen = ensure_rng(rng)
        mean_size = self.rate * self.frame_interval
        if self.variability > 0:
            # Lognormal with unit mean so the sustained rate is preserved.
            sig = self.variability
            mult = gen.lognormal(mean=-0.5 * sig * sig, sigma=sig, size=times.shape)
        else:
            mult = np.ones(times.shape)
        return trace_from_arrays(times, mean_size * mult)

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        check_positive(horizon, "horizon")
        return self.trace_on_grid(self.time_grid(horizon), rng)

    def scaled_to(self, rate: float) -> "AudioSource":
        return AudioSource(rate, self.frame_interval, self.variability)


class VBRVideoSource(TrafficSource):
    """An MPEG-1-style VBR video stream (paper's 1.5 Mbps workload).

    Frames are emitted at ``fps`` with a repeating GoP pattern
    ``IBBPBBPBBPBB`` (12 frames).  Frame sizes follow the classic MPEG
    ratios (I : P : B close to 5 : 3 : 1) modulated by lognormal noise
    and a slow scene-level AR(1) process, producing the bursty traffic
    whose "throughput fluctuation" the paper blames for the simulated
    threshold landing slightly below theory.

    The sustained rate is calibrated so one realisation averages
    ``rate`` (the GoP mix is normalised to unit mean).
    """

    #: MPEG GoP pattern used by the generator.
    GOP_PATTERN = "IBBPBBPBBPBB"
    #: Relative frame sizes (will be normalised to unit mean over a GoP).
    FRAME_WEIGHTS = {"I": 5.0, "P": 3.0, "B": 1.0}

    def __init__(
        self,
        rate: float,
        fps: float = 25.0,
        variability: float = 0.2,
        scene_persistence: float = 0.95,
        scene_strength: float = 0.15,
    ):
        super().__init__(rate)
        self.fps = check_positive(fps, "fps")
        self.variability = check_non_negative(variability, "variability")
        self.scene_persistence = check_non_negative(scene_persistence, "scene_persistence")
        if self.scene_persistence >= 1.0:
            raise ValueError("scene_persistence must be < 1")
        self.scene_strength = check_non_negative(scene_strength, "scene_strength")

    def _gop_weights(self) -> np.ndarray:
        w = np.array([self.FRAME_WEIGHTS[c] for c in self.GOP_PATTERN])
        return w / w.mean()

    def generate(self, horizon: float, rng: RandomSource = None) -> PacketTrace:
        check_positive(horizon, "horizon")
        gen = ensure_rng(rng)
        frame_interval = 1.0 / self.fps
        times = np.arange(0.0, horizon, frame_interval, dtype=np.float64)
        times = times[times < horizon]  # guard float edge at the stop value
        n = times.shape[0]
        weights = np.tile(self._gop_weights(), n // len(self.GOP_PATTERN) + 1)[:n]
        mean_size = self.rate * frame_interval
        sizes = mean_size * weights
        if self.variability > 0:
            sig = self.variability
            sizes = sizes * gen.lognormal(-0.5 * sig * sig, sig, size=n)
        if self.scene_strength > 0:
            # AR(1) scene process in log space, normalised to unit mean.
            phi = self.scene_persistence
            innov = gen.normal(0.0, self.scene_strength * np.sqrt(1 - phi * phi), n)
            scene = np.empty(n)
            acc = 0.0
            for i in range(n):  # short loop: one step per video frame
                acc = phi * acc + innov[i]
                scene[i] = acc
            scene_mult = np.exp(scene)
            sizes = sizes * (scene_mult / scene_mult.mean())
        return PacketTrace(times, sizes)

    def scaled_to(self, rate: float) -> "VBRVideoSource":
        return VBRVideoSource(
            rate, self.fps, self.variability,
            self.scene_persistence, self.scene_strength,
        )
