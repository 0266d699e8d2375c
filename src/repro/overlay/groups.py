"""Multi-group network bookkeeping.

The paper's setting: ``K`` multicast groups over one host population;
an end host joining ``K_hat`` groups must forward ``K_hat``
simultaneous flows (one per group), which is what makes it a potential
bottleneck.  :class:`MultiGroupNetwork` owns the membership relation,
per-group sources, and builds the per-group trees for any of the
paper's three schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.overlay.capacity_aware import capacity_aware_dsct, capacity_aware_nice
from repro.overlay.dsct import build_dsct_tree
from repro.overlay.nice import build_nice_tree
from repro.overlay.tree import MulticastTree
from repro.topology.attach import AttachedNetwork
from repro.topology.routing import host_latency_matrix
from repro.utils.rng import RandomSource, derive_seed, ensure_rng

__all__ = ["MultiGroupNetwork"]

#: Tree-construction schemes recognised by :meth:`MultiGroupNetwork.build_tree`.
SCHEMES = ("dsct", "nice", "capacity-aware-dsct", "capacity-aware-nice")


@dataclass
class MultiGroupNetwork:
    """K multicast groups over an attached host population.

    Attributes
    ----------
    network:
        The underlay (backbone + host attachments).
    memberships:
        ``memberships[g]`` -- sorted host indices joined to group ``g``.
    sources:
        ``sources[g]`` -- the source host of group ``g`` (a member).
    host_capacity:
        Per-host output capacity in normalised link units (1.0 = one
        full link); consumed by the capacity-aware schemes.
    """

    network: AttachedNetwork
    memberships: list[np.ndarray]
    sources: list[int]
    host_capacity: np.ndarray
    _rtt: Optional[np.ndarray] = field(default=None, repr=False)
    _lat: Optional[np.ndarray] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        n = self.network.n_hosts
        if len(self.memberships) != len(self.sources):
            raise ValueError("memberships and sources must align")
        if len(self.memberships) == 0:
            raise ValueError("at least one group is required")
        clean = []
        for g, members in enumerate(self.memberships):
            m = np.unique(np.asarray(members, dtype=np.int64))
            if m.size == 0:
                raise ValueError(f"group {g} has no members")
            if m.min() < 0 or m.max() >= n:
                raise ValueError(f"group {g} references unknown hosts")
            if self.sources[g] not in set(m.tolist()):
                raise ValueError(f"group {g}'s source must be a member")
            clean.append(m)
        self.memberships = clean
        cap = np.asarray(self.host_capacity, dtype=np.float64)
        if cap.shape != (n,):
            raise ValueError("host_capacity must have one entry per host")
        if np.any(cap <= 0):
            raise ValueError("host capacities must be > 0")
        self.host_capacity = cap

    # -- constructors ------------------------------------------------------
    @classmethod
    def fully_joined(
        cls,
        network: AttachedNetwork,
        n_groups: int,
        *,
        host_capacity_range: tuple[float, float] = (4.0, 10.0),
        rng: RandomSource = None,
    ) -> "MultiGroupNetwork":
        """The paper's Simulation II population: every host joins every group.

        Sources are distinct random hosts; capacities are uniform in
        ``host_capacity_range`` (heterogeneous end hosts, in units of
        the normalised link capacity).
        """
        if n_groups < 1:
            raise ValueError("n_groups must be >= 1")
        gen = ensure_rng(rng)
        n = network.n_hosts
        all_hosts = np.arange(n, dtype=np.int64)
        sources = gen.choice(n, size=n_groups, replace=False).tolist()
        lo, hi = host_capacity_range
        caps = gen.uniform(lo, hi, size=n)
        return cls(
            network=network,
            memberships=[all_hosts.copy() for _ in range(n_groups)],
            sources=[int(s) for s in sources],
            host_capacity=caps,
        )

    # -- cached matrices -----------------------------------------------------
    @property
    def rtt(self) -> np.ndarray:
        if self._rtt is None:
            # host_rtt_matrix's own float ops, on the cached latency: the
            # backbone's all-pairs Dijkstra runs once per network.
            self._rtt = 2.0 * self.latency
        return self._rtt

    @property
    def latency(self) -> np.ndarray:
        if self._lat is None:
            self._lat = host_latency_matrix(self.network)
        return self._lat

    # -- membership queries ----------------------------------------------------
    @property
    def n_groups(self) -> int:
        return len(self.memberships)

    def joined_groups(self, host: int) -> list[int]:
        """Groups the host belongs to (its ``K_hat`` in the paper)."""
        return [
            g for g, members in enumerate(self.memberships)
            if host in set(members.tolist())
        ]

    def k_hat(self, host: int) -> int:
        return len(self.joined_groups(host))

    def max_k_hat(self) -> int:
        """The largest per-host group count (drives the MUX analysis)."""
        counts = np.zeros(self.network.n_hosts, dtype=np.int64)
        for members in self.memberships:
            counts[members] += 1
        return int(counts.max())

    # -- tree construction --------------------------------------------------
    def build_tree(
        self,
        group: int,
        scheme: str,
        *,
        k: int = 3,
        aggregate_rate: Optional[float] = None,
        rng: RandomSource = None,
    ) -> MulticastTree:
        """Build group ``group``'s tree under one of the paper's schemes.

        ``aggregate_rate`` (required by the capacity-aware schemes) is
        the summed flow rate each member forwards per child -- ``K rho``
        in the homogeneous experiments.  The RNG is derived from the
        group index so different groups get independent (but
        reproducible) cluster draws.
        """
        if scheme not in SCHEMES:
            raise ValueError(f"scheme must be one of {SCHEMES}, got {scheme!r}")
        members = self.memberships[group].tolist()
        source = self.sources[group]
        group_rng = ensure_rng(derive_seed(rng, "tree", scheme, group))
        if scheme == "dsct":
            return build_dsct_tree(
                source, members, self.rtt, self.network.host_router,
                k=k, rng=group_rng,
            )
        if scheme == "nice":
            return build_nice_tree(source, members, self.rtt, k=k, rng=group_rng)
        if aggregate_rate is None:
            raise ValueError("capacity-aware schemes need aggregate_rate")
        if scheme == "capacity-aware-dsct":
            return capacity_aware_dsct(
                source, members, self.rtt, self.network.host_router,
                self.host_capacity, aggregate_rate, k=k, rng=group_rng,
            )
        return capacity_aware_nice(
            source, members, self.rtt,
            self.host_capacity, aggregate_rate, k=k, rng=group_rng,
        )

    def build_all_trees(
        self,
        scheme: str,
        *,
        k: int = 3,
        aggregate_rate: Optional[float] = None,
        rng: RandomSource = None,
    ) -> list[MulticastTree]:
        """One tree per group under the given scheme."""
        return [
            self.build_tree(
                g, scheme, k=k, aggregate_rate=aggregate_rate, rng=rng
            )
            for g in range(self.n_groups)
        ]
