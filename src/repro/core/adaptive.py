"""The Adaptive Control Algorithm (Section III).

Each group end host ``g_j^i`` watches the average input rate
``rho_bar`` of the ``K_hat`` real-time flows entering it (one per group
it joined) and picks a traffic-control model:

* ``rho_bar in (0, rho*)``       -- normal load: plain (sigma, rho)
  regulators (token buckets), no vacations;
* ``rho_bar in [rho*, 1/K_hat)`` -- heavy load: (sigma, rho, lambda)
  regulators whose working periods are staggered round-robin so that at
  any instant (at most) one flow is being forwarded at full capacity
  while the others are blocked.

:class:`AdaptiveController` makes that decision and, in heavy-load
mode, produces a :class:`StaggerPlan`: per-flow regulators built on the
reduced bursts ``sigma_i*`` of Theorem 1 (which equalise all regulator
periods) plus phase offsets ``o_i = sum_{j<i} W_j`` so the working
windows tile the common period without overlap.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

from repro.calculus.envelope import ArrivalEnvelope
from repro.core.delay_bounds import reduced_sigma_star
from repro.core.regulator import (
    Regulator,
    SigmaRhoLambdaRegulator,
    SigmaRhoRegulator,
)
from repro.core.threshold import heterogeneous_threshold, homogeneous_threshold
from repro.utils.validation import check_positive

__all__ = ["ControlMode", "StaggerPlan", "AdaptiveController", "resolve_mode"]

_RHO_TOL = 1e-9


class ControlMode(enum.Enum):
    """Which regulator family the algorithm selected."""

    SIGMA_RHO = "sigma-rho"
    SIGMA_RHO_LAMBDA = "sigma-rho-lambda"


@dataclass(frozen=True)
class StaggerPlan:
    """A staggered vacation schedule for one end host's regulators.

    Attributes
    ----------
    regulators:
        One (sigma, rho, lambda) regulator per input flow, built on the
        reduced bursts ``sigma_i*``.
    offsets:
        Phase offset of each regulator's cycle (``o_i = sum_{j<i} W_j``).
    period:
        The common regulator period shared by all flows
        (``min_j sigma_j / (rho_j (1 - rho_j))``).
    """

    regulators: tuple[SigmaRhoLambdaRegulator, ...]
    offsets: tuple[float, ...]
    period: float

    def __post_init__(self) -> None:
        if len(self.regulators) != len(self.offsets):
            raise ValueError("regulators and offsets must have equal length")
        total_work = sum(r.working_period for r in self.regulators)
        if total_work > self.period * (1.0 + 1e-9):
            raise ValueError(
                "working periods exceed the common period; the stagger "
                f"cannot tile ({total_work:.6g} > {self.period:.6g}) -- "
                "is the stability condition sum(rho_i) <= C violated?"
            )

    @property
    def utilization(self) -> float:
        """Fraction of the period spent forwarding, ``sum W_i / P``."""
        return sum(r.working_period for r in self.regulators) / self.period

    def windows_overlap(self) -> bool:
        """Whether any two working windows overlap within a period.

        By construction (cumulative offsets over a common period) they
        never do; exposed for property tests and custom plans.
        """
        spans = sorted(
            (o % self.period, (o % self.period) + r.working_period)
            for o, r in zip(self.offsets, self.regulators)
        )
        for (s0, e0), (s1, _e1) in zip(spans, spans[1:]):
            if s1 < e0 - 1e-12:
                return True
        # Wrap-around: the last window must not spill into the first.
        if spans and spans[-1][1] - self.period > spans[0][0] + 1e-12:
            return True
        return False


class AdaptiveController:
    """Decide and build the traffic-control model for one end host.

    Parameters
    ----------
    envelopes:
        The (sigma_i, rho_i) envelopes of the ``K_hat`` flows entering
        the host (one per group joined).
    capacity:
        Output link capacity ``C`` (1.0 under the paper's convention).
    threshold_override:
        Optional per-flow threshold ``rho*``; when omitted the Theorem
        3/4 value for ``K_hat`` flows is used (heterogeneous form unless
        all envelopes are identical).
    """

    def __init__(
        self,
        envelopes: Sequence[ArrivalEnvelope],
        capacity: float = 1.0,
        threshold_override: float | None = None,
    ):
        if not envelopes:
            raise ValueError("at least one input flow is required")
        self.envelopes = tuple(envelopes)
        self.capacity = check_positive(capacity, "capacity")
        self.k_hat = len(envelopes)
        if threshold_override is not None:
            self._rho_star = check_positive(threshold_override, "threshold_override")
        elif self.k_hat < 2:
            # A single-group host never multiplexes competing flows; the
            # vacation regulator can only hurt, so pin the threshold at
            # the stability limit (mode stays SIGMA_RHO).
            self._rho_star = 1.0
        elif self.is_homogeneous:
            self._rho_star = homogeneous_threshold(self.k_hat, self.capacity)
        else:
            self._rho_star = heterogeneous_threshold(self.k_hat, self.capacity)

    # -- measurements ---------------------------------------------------
    @property
    def is_homogeneous(self) -> bool:
        """All flows share the same (sigma, rho) description."""
        first = self.envelopes[0]
        return all(
            abs(e.sigma - first.sigma) <= _RHO_TOL
            and abs(e.rho - first.rho) <= _RHO_TOL
            for e in self.envelopes[1:]
        )

    @property
    def average_rate(self) -> float:
        """``rho_bar = (sum_i rho_i) / K_hat`` -- step 1 of the algorithm."""
        return sum(e.rho for e in self.envelopes) / self.k_hat

    @property
    def aggregate_rate(self) -> float:
        """``sum_i rho_i`` -- must not exceed ``C`` (stability)."""
        return sum(e.rho for e in self.envelopes)

    @property
    def rho_star(self) -> float:
        """The per-flow switching threshold in use."""
        return self._rho_star

    @property
    def is_stable(self) -> bool:
        """The paper's stability condition ``sum rho_i <= C``."""
        return self.aggregate_rate <= self.capacity + _RHO_TOL

    # -- the algorithm ----------------------------------------------------
    def select_mode(self) -> ControlMode:
        """Steps 2-3 of the Adaptive Control Algorithm.

        ``rho_bar < rho*`` selects the (sigma, rho) model, otherwise the
        (sigma, rho, lambda) model.  An unstable host (``sum rho_i > C``)
        is still assigned the lambda model -- it is the best the host can
        do -- but :attr:`is_stable` flags the violation.
        """
        if self.average_rate < self._rho_star:
            return ControlMode.SIGMA_RHO
        return ControlMode.SIGMA_RHO_LAMBDA

    def build_regulators(self) -> list[Regulator]:
        """Instantiate the per-flow regulators for the selected mode."""
        mode = self.select_mode()
        if mode is ControlMode.SIGMA_RHO:
            return [
                SigmaRhoRegulator(e.sigma, e.rho / self.capacity)
                for e in self.envelopes
            ]
        return list(self.build_stagger_plan().regulators)

    def build_stagger_plan(self) -> StaggerPlan:
        """Build the heavy-load round-robin schedule (Theorem 1 setup).

        Uses the reduced bursts ``sigma_i*`` so every regulator has the
        same period ``P = min_j sigma_j/(rho_j (1-rho_j))``, then offsets
        flow ``i`` by the cumulative working periods of flows ``< i``.
        Under stability ``sum_i W_i = P sum_i rho_i <= P``, so the
        windows tile without overlap.
        """
        sigmas = [e.sigma for e in self.envelopes]
        rhos = [e.rho / self.capacity for e in self.envelopes]
        stars = reduced_sigma_star(sigmas, rhos)
        regulators = tuple(
            SigmaRhoLambdaRegulator(s_star, r) for s_star, r in zip(stars, rhos)
        )
        period = regulators[0].regulator_period
        offsets = []
        acc = 0.0
        for reg in regulators:
            offsets.append(acc)
            acc += reg.working_period
        return StaggerPlan(regulators=regulators, offsets=tuple(offsets), period=period)

    def describe(self) -> dict:
        """A JSON-friendly summary (used by examples and the CLI)."""
        mode = self.select_mode()
        info = {
            "k_hat": self.k_hat,
            "homogeneous": self.is_homogeneous,
            "average_rate": self.average_rate,
            "aggregate_rate": self.aggregate_rate,
            "rho_star_per_flow": self._rho_star,
            "rho_star_aggregate": self._rho_star * self.k_hat,
            "stable": self.is_stable,
            "mode": mode.value,
        }
        if mode is ControlMode.SIGMA_RHO_LAMBDA:
            plan = self.build_stagger_plan()
            info["stagger_period"] = plan.period
            info["stagger_utilization"] = plan.utilization
        return info


def resolve_mode(
    mode: str, envelopes: Sequence[ArrivalEnvelope], capacity: float = 1.0
) -> str:
    """The concrete control mode of a host: ``"adaptive"`` becomes the
    mode :meth:`AdaptiveController.select_mode` picks for ``envelopes``
    at ``capacity``; every other mode passes through unchanged."""
    if mode != "adaptive":
        return mode
    return AdaptiveController(envelopes, capacity).select_mode().value
