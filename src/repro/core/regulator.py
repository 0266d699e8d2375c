"""Regulator parameterisations: (sigma, rho) and (sigma, rho, lambda).

This module captures the *mathematics* of the two regulator families --
parameters, derived quantities (working period, vacation, regulator
period), envelopes and per-regulator delay bounds.  The packet and
fluid realisations that actually move traffic live in
:mod:`repro.simulation.batched` and :mod:`repro.simulation.fluid`;
they consume these parameter objects.

The (sigma, rho, lambda) regulator (Section III, Fig. 2 of the paper)
alternates

* an **on-state** ("working period") of ``W = sigma / (1 - rho)`` time
  units, during which it forwards in a work-conserving way at the full
  output capacity (slope 1 in Fig. 2 under the ``C = 1`` convention),
* an **off-state** ("vacation") of ``V = lambda sigma / rho - W`` time
  units, during which the flow's input to the multiplexer is blocked.

The *regulator period* is ``W + V = sigma lambda / rho``.  Choosing the
minimum feasible control factor ``lambda = 1/(1 - rho)`` (equation (1)
of the paper) minimises the vacation and yields ``V = sigma / rho``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.calculus.envelope import ArrivalEnvelope
from repro.utils.validation import check_in_range, check_non_negative, check_positive

__all__ = [
    "control_factor",
    "Regulator",
    "SigmaRhoRegulator",
    "SigmaRhoLambdaRegulator",
]


def control_factor(rho: float) -> float:
    """The minimum feasible control factor ``lambda = 1 / (1 - rho)``.

    Derived in Section III from the conservation requirement
    ``m W <= sigma + [m W + (m-1) V] rho``: any smaller ``lambda`` would
    let the regulator output more than it admits over ``m`` cycles.
    """
    check_in_range(rho, "rho", 0.0, 1.0, inclusive_low=False, inclusive_high=False)
    return 1.0 / (1.0 - rho)


@dataclass(frozen=True)
class Regulator:
    """Common interface of both regulator families.

    Attributes
    ----------
    sigma:
        Burst budget of the regulator (data units; capacity-seconds
        under ``C = 1``).
    rho:
        Sustained rate of the regulated flow (utilisation under
        ``C = 1``).
    """

    sigma: float
    rho: float

    def __post_init__(self) -> None:
        check_positive(self.sigma, "sigma")
        check_in_range(
            self.rho, "rho", 0.0, 1.0, inclusive_low=False, inclusive_high=False
        )

    def envelope(self) -> ArrivalEnvelope:
        """The (sigma, rho) envelope this regulator enforces on its output."""
        return ArrivalEnvelope(self.sigma, self.rho)

    def delay_bound_for_input(self, input_envelope: ArrivalEnvelope) -> float:
        """Worst-case delay added to a conformant input flow."""
        raise NotImplementedError


@dataclass(frozen=True)
class SigmaRhoRegulator(Regulator):
    """The classical Cruz (sigma, rho) regulator (token bucket).

    Fed a flow constrained by ``(sigma*, rho)``, it delays traffic by at
    most ``(sigma* - sigma)+ / rho``: only the burst in excess of its own
    budget must wait, and it drains at the sustained rate.
    """

    def delay_bound_for_input(self, input_envelope: ArrivalEnvelope) -> float:
        excess = max(input_envelope.sigma - self.sigma, 0.0)
        if excess == 0.0:
            return 0.0
        return excess / self.rho


@dataclass(frozen=True)
class SigmaRhoLambdaRegulator(Regulator):
    """The paper's (sigma, rho, lambda) vacation regulator.

    Parameters
    ----------
    sigma, rho:
        As in :class:`Regulator`.
    lam:
        Control factor.  Defaults to the minimum feasible value
        ``1/(1-rho)`` (equation (1)); larger values are legal but
        lengthen the vacation and therefore the delay bound.

    Notes
    -----
    Derived quantities (all properties):

    * working period ``W = sigma / (1 - rho)``,
    * regulator period ``P = sigma * lam / rho``,
    * vacation ``V = P - W`` (``sigma / rho`` at the minimum ``lam``).
    """

    lam: float = field(default=0.0)  # 0.0 means "use the minimum 1/(1-rho)"

    def __post_init__(self) -> None:
        super().__post_init__()
        min_lam = control_factor(self.rho)
        if self.lam == 0.0:
            object.__setattr__(self, "lam", min_lam)
        elif self.lam < min_lam - 1e-12:
            raise ValueError(
                f"lambda must be >= 1/(1-rho) = {min_lam:.6g} "
                f"(conservation constraint), got {self.lam}"
            )

    # -- derived quantities -------------------------------------------
    @property
    def working_period(self) -> float:
        """On-state duration ``W = sigma / (1 - rho)``."""
        return self.sigma / (1.0 - self.rho)

    @property
    def regulator_period(self) -> float:
        """Full cycle length ``P = sigma * lambda / rho``."""
        return self.sigma * self.lam / self.rho

    @property
    def vacation(self) -> float:
        """Off-state duration ``V = P - W`` (``sigma/rho`` at minimum lambda)."""
        return self.regulator_period - self.working_period

    @property
    def duty_cycle(self) -> float:
        """Fraction of time in the on-state, ``W / P``."""
        return self.working_period / self.regulator_period

    # -- bounds ---------------------------------------------------------
    def delay_bound_for_input(self, input_envelope: ArrivalEnvelope) -> float:
        """Lemma 1: ``D = (sigma* - sigma)+ / rho + 2 lambda sigma / rho``."""
        excess = max(input_envelope.sigma - self.sigma, 0.0)
        return excess / self.rho + 2.0 * self.lam * self.sigma / self.rho

    def backlog_bound(self) -> float:
        """Lemma 1's induction invariant: backlog ``<= (1 + lambda) sigma``."""
        return (1.0 + self.lam) * self.sigma

    # -- schedule -------------------------------------------------------
    def windows(
        self, horizon: float, offset: float = 0.0
    ) -> Iterator[tuple[float, float]]:
        """Yield on-state windows ``(start, end)`` up to ``horizon``.

        ``offset`` shifts the phase of the cycle; the adaptive controller
        staggers the offsets of a host's regulators so their working
        periods do not collide (Section III: "one regulator ... at each
        time in turn while other regulators block their flows").
        """
        check_positive(horizon, "horizon")
        check_non_negative(offset, "offset")
        period = self.regulator_period
        w = self.working_period
        start = offset
        while start < horizon:
            yield (start, min(start + w, horizon))
            start += period

    def is_on(self, t: float, offset: float = 0.0) -> bool:
        """Whether the regulator is in its on-state at time ``t``."""
        if t < offset:
            # Before the first scheduled window the regulator is blocked;
            # the adaptive controller starts every cycle at its offset.
            return False
        phase = (t - offset) % self.regulator_period
        return phase < self.working_period
