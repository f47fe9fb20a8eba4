"""Profit-maximizing admission control and dynamic pricing.

The paper's objective is *provider profit*, yet a pure feasibility gate
admits every client that fits — including clients whose power cost
exceeds their revenue.  Mazzucco et al. ("Squeezing out the Cloud via
Profit-Maximizing Resource Allocation Policies") show that under
overload the profit levers are *which* clients you admit and *what* you
charge them; this module supplies both as pluggable strategy objects the
online engine (:class:`~repro.service.engine.AllocationService`) and the
sharded router (:class:`~repro.service.router.ServiceRouter`) consult on
every admit, retry and shed decision.

**Admission policies.**  An :class:`AdmissionPolicy` answers two
questions about a candidate client: *how valuable is it right now*
(:meth:`~AdmissionPolicy.priority`, the ranking signal shared by the
router's shed order and the engine's retry order) and *may the engine
try to place it at all* (:meth:`~AdmissionPolicy.decide`).  Three
concrete policies:

* :class:`AlwaysAdmitIfFeasible` — today's behavior, kept as the
  baseline: every client may try; retries stay FIFO; ranking uses the
  static proxy below.
* :class:`RevenueThreshold` — a floor on the best-case revenue rate
  ``lambda^a * U(0)``; clients below it are refused outright (cheaper
  than estimating placements when the fleet's price of admission is
  known a priori).
* :class:`OpportunityCost` — the live signal: the client's marginal
  profit is estimated by running ``Assign_Distribute`` over the eq.-(16)
  curve blocks already memoized on the engine's
  :class:`~repro.core.state.WorkingState`
  (:func:`repro.core.assign.estimate_marginal_profit` — a read-only
  probe, so the estimate is exactly what :func:`best_placement` would
  commit).  Feasible clients whose estimate falls below ``min_margin``
  are refused; infeasible-now clients (estimate ``-inf``) fall through
  to the ordinary queue-and-retry path, because infeasibility is not
  evidence of unprofitability.

**The static proxy, with units fixed.**  The router's historical
``admit_priority`` subtracted a *utilization demand* (``rate x (t_proc +
t_comm)``, in utilization-time units) directly from a revenue rate in
$/time.  The two terms only share units after the demand is priced:
multiplying by a power coefficient in $/utilization (the fleet's mean
``P1`` by default, :func:`fleet_cost_coefficient`) lands both sides in
$/time.  :func:`static_admit_priority` takes that coefficient.

**Dynamic pricing.**  A :class:`PricingSchedule` maps the engine's
deterministic load index (fraction of fleet processing capacity in use)
to per-class multipliers on the SLA's ``v`` (base value) and ``beta``
(slope).  The engine applies it at admit *and* re-admit time: the spec
that enters the system is the repriced one, so surge revenue flows into
every profit figure, while the pending queue keeps the *original* spec
and re-prices at each retry against the then-current load.  Repriced
utility classes get a fresh class index (derived from the tier, see
:data:`PRICED_CLASS_STRIDE`) so the snapshot codec's per-index
deduplication can never alias two price points of one class.  Because
the load index is a pure function of engine state, repricing is
replay-deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, TYPE_CHECKING

from repro.core.assign import estimate_marginal_profit
from repro.exceptions import ConfigurationError
from repro.model.client import Client
from repro.model.datacenter import CloudSystem
from repro.model.utility import ClippedLinearUtility, UtilityClass

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.engine import AllocationService

#: Repriced utility classes live at ``stride * (tier + 1) + base_index``
#: so every (class, price tier) pair owns a distinct index — the system
#: codec deduplicates utility classes by index, so two price points of
#: one class must never share one.  Mirrors the loadgen's
#: ``GENERATED_ID_BASE`` idiom.
PRICED_CLASS_STRIDE = 1_000_000


def fleet_cost_coefficient(system: CloudSystem) -> float:
    """Mean ``P1`` (power per unit utilization) across the fleet.

    The price that converts a client's utilization demand into the same
    $/time units as its revenue rate; the default coefficient for
    :func:`static_admit_priority`.  Falls back to 1.0 (demand priced
    at par) for a fleet with no servers.
    """
    p1s = [server.server_class.power_per_util for server in system.servers()]
    if not p1s:
        return 1.0
    return sum(p1s) / len(p1s)


def static_admit_priority(client: Client, cost_coefficient: float) -> float:
    """Static marginal-profit proxy: revenue rate minus priced demand.

    Best-case revenue rate (the SLA utility at zero response time times
    the agreed rate) minus the client's utilization demand scaled by
    ``cost_coefficient`` ($/utilization — see
    :func:`fleet_cost_coefficient`).
    """
    demand = client.rate_predicted * (client.t_proc + client.t_comm)
    return client.revenue(0.0) - cost_coefficient * demand


# -- admission policies -------------------------------------------------------


class AdmissionPolicy:
    """Strategy consulted on every admit, retry and shed ranking.

    Subclasses override :meth:`priority` (the ranking signal) and
    :meth:`decide` (the gate).  ``orders_retries`` switches the engine's
    pending-queue retry pass from FIFO to priority order;
    ``uses_live_estimate`` tells the router the policy can price a
    candidate against a live engine (and should, when one is in
    process).
    """

    name: str = "base"
    orders_retries: bool = False
    uses_live_estimate: bool = False

    def priority(self, service: "AllocationService", client: Client) -> float:
        """Marginal-profit signal; higher = keep/admit first."""
        return static_admit_priority(client, service.admit_cost_coefficient)

    def decide(
        self, service: "AllocationService", client: Client
    ) -> Tuple[bool, float]:
        """``(may_try_placement, priority)`` for one candidate."""
        return True, self.priority(service, client)


@dataclass(frozen=True)
class AlwaysAdmitIfFeasible(AdmissionPolicy):
    """The baseline: feasibility is the only gate, retries stay FIFO."""

    name = "always_admit_if_feasible"
    orders_retries = False
    uses_live_estimate = False


@dataclass(frozen=True)
class RevenueThreshold(AdmissionPolicy):
    """Refuse clients whose best-case revenue rate is below a floor.

    ``min_revenue_rate`` is compared against ``lambda^a * U(0)`` — no
    engine state needed, so the gate costs one multiply.  Retries are
    ranked by the static proxy.
    """

    min_revenue_rate: float = 0.0

    name = "revenue_threshold"
    orders_retries = True
    uses_live_estimate = False

    def __post_init__(self) -> None:
        if self.min_revenue_rate < 0.0:
            raise ConfigurationError(
                f"min_revenue_rate must be >= 0, got {self.min_revenue_rate}"
            )

    def decide(
        self, service: "AllocationService", client: Client
    ) -> Tuple[bool, float]:
        return (
            client.revenue(0.0) >= self.min_revenue_rate,
            self.priority(service, client),
        )


@dataclass(frozen=True)
class OpportunityCost(AdmissionPolicy):
    """Gate and rank on the live eq.-(16) marginal-profit estimate.

    The estimate is what ``Assign_Distribute`` would commit for the
    client right now (activation power included), read through the
    memoized curve blocks.  Feasible clients below ``min_margin`` are
    refused outright — admitting them would burn capacity and power on
    negative margin.  Infeasible-now clients (estimate ``-inf``) are
    *not* refused: they take the ordinary queue-and-retry path, and each
    retry re-evaluates the gate against the then-current state.
    """

    min_margin: float = 0.0

    name = "opportunity_cost"
    orders_retries = True
    uses_live_estimate = True

    def __post_init__(self) -> None:
        if not math.isfinite(self.min_margin):
            raise ConfigurationError(
                f"min_margin must be finite, got {self.min_margin}"
            )

    def priority(self, service: "AllocationService", client: Client) -> float:
        return estimate_marginal_profit(
            service.state, client, service.config, service.failed
        )

    def decide(
        self, service: "AllocationService", client: Client
    ) -> Tuple[bool, float]:
        estimate = self.priority(service, client)
        if math.isinf(estimate):
            # No feasible placement right now: queue-and-retry decides.
            return True, estimate
        return estimate >= self.min_margin, estimate


#: CLI/config aliases -> policy constructors.
_POLICY_ALIASES = {
    "always": "always_admit_if_feasible",
    "revenue": "revenue_threshold",
    "opportunity": "opportunity_cost",
}


def make_admission_policy(
    name: str,
    min_revenue_rate: float = 0.0,
    min_margin: float = 0.0,
) -> AdmissionPolicy:
    """Policy factory for CLI/config surfaces; accepts short aliases."""
    canonical = _POLICY_ALIASES.get(name, name)
    if canonical == "always_admit_if_feasible":
        return AlwaysAdmitIfFeasible()
    if canonical == "revenue_threshold":
        return RevenueThreshold(min_revenue_rate=min_revenue_rate)
    if canonical == "opportunity_cost":
        return OpportunityCost(min_margin=min_margin)
    raise ConfigurationError(
        f"unknown admission policy {name!r}; known: "
        f"{sorted(set(_POLICY_ALIASES) | set(_POLICY_ALIASES.values()))}"
    )


# -- dynamic pricing ----------------------------------------------------------


@dataclass(frozen=True)
class PriceTier:
    """One rung of a load-indexed price schedule.

    The tier applies when the load index is at least ``min_load``;
    ``v_factor`` scales the SLA's base value ``v`` and ``beta_factor``
    its slope ``beta``.
    """

    min_load: float
    v_factor: float = 1.0
    beta_factor: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_load <= 1.0:
            raise ConfigurationError(
                f"min_load must lie in [0, 1], got {self.min_load}"
            )
        if self.v_factor <= 0.0 or self.beta_factor <= 0.0:
            raise ConfigurationError(
                "price factors must be > 0, got "
                f"v_factor={self.v_factor}, beta_factor={self.beta_factor}"
            )

    @property
    def is_identity(self) -> bool:
        return self.v_factor == 1.0 and self.beta_factor == 1.0


@dataclass(frozen=True)
class PricingSchedule:
    """Load-indexed per-class repricing of ``v``/``beta``.

    ``tiers`` must be sorted by strictly increasing ``min_load`` and
    start at 0.0, so every load maps to exactly one tier.  Repricing
    replaces the client's utility class with a scaled
    :class:`~repro.model.utility.ClippedLinearUtility` built from the
    class's linear approximation (exact for the linear forms the
    workload generator emits) under a tier-specific class index.
    """

    tiers: Tuple[PriceTier, ...]

    def __post_init__(self) -> None:
        if not self.tiers:
            raise ConfigurationError("a pricing schedule needs >= 1 tier")
        loads = [tier.min_load for tier in self.tiers]
        if loads[0] != 0.0:
            raise ConfigurationError(
                f"the first tier must start at load 0.0, got {loads[0]}"
            )
        if any(b <= a for a, b in zip(loads, loads[1:])):
            raise ConfigurationError(
                f"tier min_loads must be strictly increasing, got {loads}"
            )

    @staticmethod
    def surge(
        knee: float = 0.6,
        peak: float = 0.85,
        knee_v_factor: float = 1.15,
        peak_v_factor: float = 1.30,
        peak_beta_factor: float = 1.10,
    ) -> "PricingSchedule":
        """The stock surge curve: list price, then two overload markups."""
        return PricingSchedule(
            tiers=(
                PriceTier(min_load=0.0),
                PriceTier(min_load=knee, v_factor=knee_v_factor),
                PriceTier(
                    min_load=peak,
                    v_factor=peak_v_factor,
                    beta_factor=peak_beta_factor,
                ),
            )
        )

    def tier_for(self, load: float) -> Tuple[int, PriceTier]:
        """The (index, tier) in force at ``load``."""
        chosen = 0
        for idx, tier in enumerate(self.tiers):
            if load >= tier.min_load:
                chosen = idx
        return chosen, self.tiers[chosen]

    def reprice(self, client: Client, load: float) -> Client:
        """The client as admitted at ``load``: scaled ``v``/``beta``.

        Identity tiers return the client object unchanged (so the
        baseline tier is bitwise today's behavior).  Repricing always
        starts from an unpriced spec — the engine queues originals and
        re-prices per retry — so a client whose class index is already
        in the priced range is refused loudly rather than compounded.
        """
        tier_index, tier = self.tier_for(load)
        if tier.is_identity:
            return client
        base_class = client.utility_class
        if base_class.index >= PRICED_CLASS_STRIDE:
            raise ConfigurationError(
                f"client {client.client_id} already carries priced class "
                f"{base_class.index}; reprice original specs only"
            )
        linear = base_class.linear_approximation()
        priced = UtilityClass(
            index=PRICED_CLASS_STRIDE * (tier_index + 1) + base_class.index,
            function=ClippedLinearUtility(
                base_value=linear.base_value * tier.v_factor,
                slope=linear.slope * tier.beta_factor,
            ),
            name=f"{base_class.name or 'class'}@tier{tier_index}",
        )
        return Client(
            client_id=client.client_id,
            utility_class=priced,
            rate_agreed=client.rate_agreed,
            rate_predicted=client.rate_predicted,
            t_proc=client.t_proc,
            t_comm=client.t_comm,
            storage_req=client.storage_req,
        )
