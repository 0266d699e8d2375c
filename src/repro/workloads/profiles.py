"""Traffic mixes and utilisation scaling.

A :class:`TrafficMix` is an ordered set of per-group sources.  The
experiments sweep the *aggregate utilisation* ``u = sum_i rho_i / C``
(the x-axis of Figures 4 and 6; :mod:`repro.utils.units` states the
unit convention):
:meth:`TrafficMix.at_utilization` rescales every source so the mix sums
to ``u`` while preserving the relative weights of the paper's natural
rates (64 kbps audio vs 1.5 Mbps video).

The paper's three mixes:

* ``AUDIO_MIX`` -- three 64 kbps audio streams (Figs. 4(a)/6(a), Table I);
* ``VIDEO_MIX`` -- three 1.5 Mbps MPEG-1 video streams (Figs. 4(b)/6(b),
  Table II);
* ``HETEROGENEOUS_MIX`` -- one video + two audio (Figs. 4(c)/6(c),
  Table III).

The paper feeds "the same stream" to every group, so by default one
realisation is generated per distinct source *type* and groups carrying
the same type share it (synchronised bursts -- this is what lets the
simulated worst case approach the analytic bounds).  Pass
``shared=False`` to draw independent realisations instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.simulation.flow import (
    AudioSource,
    CBRSource,
    OnOffSource,
    PacketTrace,
    PoissonSource,
    TrafficSource,
    VBRVideoSource,
)
from repro.utils.rng import RandomSource, derive_seed
from repro.utils.validation import check_positive

__all__ = [
    "TrafficMix",
    "MIX_KINDS",
    "make_mix",
    "AUDIO_MIX",
    "VIDEO_MIX",
    "HETEROGENEOUS_MIX",
]

#: Default MTU for fragmenting application frames into link packets, in
#: capacity-seconds (1500 bytes on a ~6 Mbps access link ~= 2 ms).
DEFAULT_MTU = 2e-3


@dataclass(frozen=True)
class TrafficMix:
    """An ordered set of per-group traffic sources.

    Attributes
    ----------
    name:
        Mix label (used in reports).
    sources:
        One :class:`~repro.simulation.flow.TrafficSource` per group; the
        ``rate`` attributes carry the *relative* weights.
    kinds:
        Parallel labels (e.g. ``("video", "audio", "audio")``) -- groups
        with equal labels share one trace realisation when ``shared``.
    """

    name: str
    sources: tuple[TrafficSource, ...]
    kinds: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.sources) != len(self.kinds):
            raise ValueError("sources and kinds must align")
        if not self.sources:
            raise ValueError("a mix needs at least one source")

    @property
    def k(self) -> int:
        """Number of groups (flows per multi-group host)."""
        return len(self.sources)

    @property
    def total_rate(self) -> float:
        return sum(s.rate for s in self.sources)

    @property
    def is_homogeneous(self) -> bool:
        return len(set(self.kinds)) == 1

    # -- scaling ----------------------------------------------------------
    def at_utilization(self, u: float, capacity: float = 1.0) -> "TrafficMix":
        """Rescale so the aggregate sustained rate is ``u * capacity``.

        Relative weights between the streams are preserved (a video
        stream stays 1.5 Mbps / 64 kbps times heavier than an audio
        stream at every sweep point, as in the paper's figures).
        """
        check_positive(u, "u")
        check_positive(capacity, "capacity")
        factor = u * capacity / self.total_rate
        return TrafficMix(
            name=self.name,
            sources=tuple(s.scaled_to(s.rate * factor) for s in self.sources),
            kinds=self.kinds,
        )

    # -- realisation --------------------------------------------------------
    def generate_traces(
        self,
        horizon: float,
        rng: RandomSource = None,
        *,
        shared: bool = True,
        mtu: float = DEFAULT_MTU,
    ) -> list[PacketTrace]:
        """One packet trace per group.

        ``shared=True`` reproduces the paper's setup ("each of the three
        groups is fed with the same ... stream"): groups with the same
        kind *and rate* reuse a single realisation.
        """
        traces: list[PacketTrace] = []
        cache: dict[tuple[str, float], PacketTrace] = {}
        for g, (src, kind) in enumerate(zip(self.sources, self.kinds)):
            key = (kind, round(src.rate, 12))
            if shared and key in cache:
                traces.append(cache[key])
                continue
            seed = derive_seed(rng, "trace", self.name, kind if shared else g)
            trace = src.generate(horizon, rng=seed)
            if mtu is not None:
                trace = trace.fragment(mtu)
            cache[key] = trace
            traces.append(trace)
        return traces

    def envelopes(
        self,
        horizon: float,
        rng: RandomSource = None,
        *,
        shared: bool = True,
        mtu: float = DEFAULT_MTU,
    ) -> list[ArrivalEnvelope]:
        """Per-group empirical (sigma, rho) envelopes of one realisation.

        The regulators are configured from these, the way a deployment
        profiles its media streams before sizing token buckets.
        """
        traces = self.generate_traces(horizon, rng, shared=shared, mtu=mtu)
        return [
            ArrivalEnvelope(
                max(tr.empirical_sigma(src.rate), 1e-9), src.rate
            )
            for tr, src in zip(traces, self.sources)
        ]


#: Stream kinds accepted by :func:`make_mix`.  ``audio``/``video`` are
#: the paper's media streams at their natural rate weights; the generic
#: kinds (used by the scenario matrix) all carry unit weight so a mix of
#: them splits the aggregate utilisation evenly.
MIX_KINDS = ("audio", "video", "cbr", "poisson", "onoff")


def _make_source(kind: str) -> TrafficSource:
    if kind == "audio":
        return AudioSource(rate=0.064)
    if kind == "video":
        return VBRVideoSource(rate=1.5)
    if kind == "cbr":
        return CBRSource(rate=1.0, packet_size=0.004)
    if kind == "poisson":
        return PoissonSource(rate=1.0, packet_size=0.004)
    if kind == "onoff":
        # Duty cycle 1/3: bursts at 3x the sustained rate -- the bursty
        # workload family of the scenario matrix.
        return OnOffSource(
            peak_rate=3.0, mean_on=0.1, mean_off=0.2, packet_size=0.004
        )
    raise ValueError(f"unknown stream kind {kind!r}; expected one of {MIX_KINDS}")


def make_mix(name: str, kinds: Sequence[str]) -> TrafficMix:
    """Build a mix from kind labels (see :data:`MIX_KINDS`).

    Rates carry the paper's natural weights: video : audio =
    1.5 Mbps : 64 kbps (scaled later by :meth:`TrafficMix.at_utilization`);
    the generic kinds weigh 1.0 each.
    """
    sources = [_make_source(kind) for kind in kinds]
    return TrafficMix(name=name, sources=tuple(sources), kinds=tuple(kinds))


#: Three 64 kbps audio streams (Figs. 4(a)/6(a), Table I).
AUDIO_MIX = make_mix("3xaudio", ("audio", "audio", "audio"))
#: Three 1.5 Mbps MPEG-1 video streams (Figs. 4(b)/6(b), Table II).
VIDEO_MIX = make_mix("3xvideo", ("video", "video", "video"))
#: One video + two audio streams (Figs. 4(c)/6(c), Table III).
HETEROGENEOUS_MIX = make_mix("1video+2audio", ("video", "audio", "audio"))
