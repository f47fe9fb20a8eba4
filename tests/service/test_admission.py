"""Admission policies, dynamic pricing, and the open-loop gate fixes.

Covers the admission subsystem end to end: the priced static proxy (and
the units-inversion bug it fixes), policy gating on live engines, surge
repricing, policy-ordered retries with per-policy replay determinism,
the opportunity-cost property contract, and the process-mode
``pending_budget`` overshoot regression.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import SolverConfig
from repro.exceptions import ConfigurationError, ServiceError
from repro.model import (
    Client,
    ClippedLinearUtility,
    CloudSystem,
    Cluster,
    Server,
    ServerClass,
    UtilityClass,
)
from repro.service import (
    AllocationService,
    AlwaysAdmitIfFeasible,
    ClientAdmit,
    ClientDepart,
    EventJournal,
    LoadGenConfig,
    OpportunityCost,
    PriceTier,
    PricingSchedule,
    RevenueThreshold,
    RouterPolicy,
    ServicePolicy,
    ServiceRouter,
    fleet_cost_coefficient,
    generate_load,
    make_admission_policy,
    static_admit_priority,
)
from repro.service.admission import PRICED_CLASS_STRIDE
from repro.service.driver import empty_copy
from repro.workload import overload_system

SOLVER = SolverConfig(seed=0)
POLICY = ServicePolicy(drift_threshold=50.0)


def _client(cid, v, rate=1.0, slope=0.1, t_proc=0.1, t_comm=0.1, storage=0.6):
    return Client(
        client_id=cid,
        utility_class=UtilityClass(
            index=0, function=ClippedLinearUtility(base_value=v, slope=slope)
        ),
        rate_agreed=rate,
        rate_predicted=rate,
        t_proc=t_proc,
        t_comm=t_comm,
        storage_req=storage,
    )


def _fleet(num_servers=1, cap_processing=50.0, cap_storage=1.0, p0=0.1, p1=0.1):
    sku = ServerClass(
        index=0,
        cap_processing=cap_processing,
        cap_bandwidth=cap_processing,
        cap_storage=cap_storage,
        power_fixed=p0,
        power_per_util=p1,
        name="sku",
    )
    servers = [
        Server(server_id=i, cluster_id=0, server_class=sku)
        for i in range(num_servers)
    ]
    return CloudSystem(
        clusters=[Cluster(cluster_id=0, servers=servers)], clients=[], name="t"
    )


# -- the priced static proxy (units bugfix) ----------------------------------


class TestStaticPriority:
    def test_cost_coefficient_can_invert_legacy_order(self):
        """The crafted inversion: high demand but cheap power.

        Client A earns 6 with demand 5; client B earns 3 with demand
        0.5.  Demand priced at par (the order raw demand gives) ranks B
        above A (1 < 2.5), but at a fleet power price of 0.2
        $/utilization A's priced margin (5.0) beats B's (2.9).
        """
        a = _client(1, v=6.0, t_proc=2.5, t_comm=2.5)
        b = _client(2, v=3.0, t_proc=0.25, t_comm=0.25)
        assert static_admit_priority(a, 1.0) < static_admit_priority(b, 1.0)
        assert static_admit_priority(a, 0.2) > static_admit_priority(b, 0.2)

    def test_fleet_cost_coefficient_is_mean_p1(self):
        system = _fleet(num_servers=3, p1=0.7)
        assert fleet_cost_coefficient(system) == pytest.approx(0.7)

    def test_router_derives_coefficient_and_legacy_flag_disables_it(self):
        system = _fleet(num_servers=2, p1=0.9)
        router = ServiceRouter(system, config=SOLVER, policy=POLICY)
        assert router.admit_cost_coefficient == pytest.approx(0.9)


# -- policy objects -----------------------------------------------------------


class TestPolicies:
    def test_factory_aliases(self):
        assert isinstance(make_admission_policy("always"), AlwaysAdmitIfFeasible)
        assert isinstance(
            make_admission_policy("revenue_threshold"), RevenueThreshold
        )
        assert isinstance(
            make_admission_policy("opportunity", min_margin=0.5), OpportunityCost
        )
        with pytest.raises(ConfigurationError):
            make_admission_policy("nope")

    def test_revenue_threshold_refuses_below_floor(self):
        system = _fleet(cap_storage=10.0)
        svc = AllocationService(
            system,
            config=SOLVER,
            policy=POLICY,
            admission=RevenueThreshold(min_revenue_rate=2.0),
        )
        poor = svc.apply(ClientAdmit(client=_client(1, v=1.0)))  # revenue 1.0
        rich = svc.apply(ClientAdmit(client=_client(2, v=3.0)))  # revenue 3.0
        assert not poor.accepted and not poor.queued
        assert rich.accepted
        assert svc.metrics.counters["admits_rejected"] == 1
        assert not svc.system.has_client(1)

    def test_opportunity_cost_refuses_negative_margin(self):
        # Tight, expensive fleet: the junk client fits (split across the
        # three servers) but burns more power than it earns; the
        # profitable client clears the gate.
        system = _fleet(
            num_servers=3, cap_processing=2.0, cap_storage=10.0, p0=1.0, p1=1.0
        )
        svc = AllocationService(
            system, config=SOLVER, policy=POLICY, admission=OpportunityCost()
        )
        junk = svc.apply(
            ClientAdmit(
                client=_client(
                    1, v=0.1, rate=3.0, slope=0.05, t_proc=0.9, t_comm=0.9
                )
            )
        )
        good = svc.apply(ClientAdmit(client=_client(2, v=6.0, rate=1.0)))
        assert not junk.accepted and not junk.queued
        assert good.accepted
        assert svc.metrics.counters["admits_rejected"] == 1

    def test_opportunity_cost_queues_infeasible_clients(self):
        # Storage-gated: the second client cannot fit *now*, which is
        # not evidence of unprofitability — it must queue, not be refused.
        system = _fleet(cap_storage=1.0)
        svc = AllocationService(
            system, config=SOLVER, policy=POLICY, admission=OpportunityCost()
        )
        assert svc.apply(ClientAdmit(client=_client(1, v=4.0))).accepted
        second = svc.apply(ClientAdmit(client=_client(2, v=4.0)))
        assert not second.accepted and second.queued
        assert 2 in svc.pending


# -- dynamic pricing ----------------------------------------------------------


class TestPricing:
    def test_schedule_validation(self):
        with pytest.raises(ConfigurationError):
            PricingSchedule(tiers=())
        with pytest.raises(ConfigurationError):
            PricingSchedule(tiers=(PriceTier(min_load=0.5),))
        with pytest.raises(ConfigurationError):
            PricingSchedule(
                tiers=(PriceTier(min_load=0.0), PriceTier(min_load=0.0))
            )

    def test_tier_selection_and_identity_repricing(self):
        schedule = PricingSchedule.surge(knee=0.6, peak=0.85)
        assert schedule.tier_for(0.0)[0] == 0
        assert schedule.tier_for(0.7)[0] == 1
        assert schedule.tier_for(0.9)[0] == 2
        client = _client(1, v=2.0)
        # The list-price tier is the identity: bitwise today's behavior.
        assert schedule.reprice(client, 0.1) is client

    def test_surge_scales_v_and_assigns_fresh_class_index(self):
        schedule = PricingSchedule.surge(peak_v_factor=1.5, peak_beta_factor=1.2)
        client = _client(1, v=2.0, slope=0.5)
        priced = schedule.reprice(client, 0.95)
        assert priced.revenue(0.0) == pytest.approx(2.0 * 1.5)
        assert priced.utility_class.function.slope == pytest.approx(0.5 * 1.2)
        assert priced.utility_class.index == PRICED_CLASS_STRIDE * 3 + 0
        # Repricing a repriced spec is a bug, not a compounding discount.
        with pytest.raises(ConfigurationError):
            schedule.reprice(priced, 0.95)

    def test_engine_reprices_at_admit_under_load(self):
        # One server, processing-tight (and power expensive enough that
        # shares stay near-minimal): the first client pushes the load
        # index past the knee, so the second admit lands surge-priced.
        system = _fleet(cap_processing=2.0, cap_storage=10.0, p1=1.0)
        svc = AllocationService(
            system,
            config=SOLVER,
            policy=POLICY,
            pricing=PricingSchedule.surge(knee=0.3, peak=0.99),
        )
        svc.apply(ClientAdmit(client=_client(1, v=4.0, rate=2.0, t_proc=0.5)))
        assert svc.load_index() > 0.3
        svc.apply(ClientAdmit(client=_client(2, v=4.0, rate=1.0)))
        admitted = svc.system.client(2)
        assert admitted.utility_class.index >= PRICED_CLASS_STRIDE
        assert admitted.revenue(0.0) > _client(2, v=4.0).revenue(0.0)
        # Snapshot round-trips the priced class (dedup is by index).
        restored = AllocationService.restore(svc.snapshot(), config=SOLVER)
        assert restored.snapshot_hash() == svc.snapshot_hash()


# -- retry order (satellite 3) ------------------------------------------------


def _retry_events():
    filler = ClientAdmit(client=_client(10, v=4.0))
    low = ClientAdmit(client=_client(11, v=2.5))
    high = ClientAdmit(client=_client(12, v=5.0))
    return [filler, low, high, ClientDepart(client_id=10)]


class TestRetryOrder:
    """A freed slot goes to FIFO-oldest (baseline) vs highest-margin."""

    def _run(self, admission, journal=None):
        svc = AllocationService(
            _fleet(cap_storage=1.0),
            config=SOLVER,
            policy=POLICY,
            admission=admission,
            journal=journal,
        )
        svc.apply_many(_retry_events())
        return svc

    def test_admitted_set_differs_by_policy(self):
        fifo = self._run(AlwaysAdmitIfFeasible())
        assert fifo.system.has_client(11) and not fifo.system.has_client(12)
        assert 12 in fifo.pending
        ranked = self._run(OpportunityCost())
        assert ranked.system.has_client(12) and not ranked.system.has_client(11)
        assert 11 in ranked.pending

    @pytest.mark.parametrize(
        "admission",
        [AlwaysAdmitIfFeasible(), RevenueThreshold(), OpportunityCost()],
        ids=lambda p: p.name,
    )
    def test_journal_replay_is_byte_deterministic_per_policy(
        self, admission, tmp_path
    ):
        path = str(tmp_path / "events.jsonl")
        with EventJournal(path) as journal:
            live = self._run(admission, journal=journal)
            live_hash = live.snapshot_hash()
        fresh = AllocationService(
            _fleet(cap_storage=1.0),
            config=SOLVER,
            policy=POLICY,
            admission=admission,
        )
        fresh.apply_many([event for _, event in EventJournal.read(path)])
        assert fresh.snapshot_hash() == live_hash


# -- opportunity-cost properties (satellite 4) --------------------------------


junk_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.15),  # v: revenue <= 0.6
        st.floats(min_value=2.0, max_value=4.0),  # rate
        st.floats(min_value=0.8, max_value=1.0),  # t_proc: cost >= 0.8
    ),
    min_size=1,
    max_size=6,
)
good_specs = st.lists(
    st.tuples(
        st.floats(min_value=3.0, max_value=4.0),  # v
        st.floats(min_value=1.0, max_value=2.0),  # rate
        st.floats(min_value=0.1, max_value=0.3),  # t_proc
    ),
    min_size=1,
    max_size=6,
)


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(junk=junk_specs, good=good_specs, order_seed=st.integers(0, 2**16))
def test_opportunity_cost_never_admits_negative_margin_clients(
    junk, good, order_seed
):
    """No value-destroying client enters the system, whatever the order.

    On this fleet (cap 2, ``P1`` = 1) every junk spec costs at least
    ``rate * t_proc / 2 >= 0.8`` in power while earning at most
    ``rate * v <= 0.6``: its marginal-profit estimate is negative by
    construction, so the gate must refuse it even while profitable
    clients are being admitted or queued around it.
    """
    import random

    system = _fleet(
        num_servers=3, cap_processing=2.0, cap_storage=50.0, p0=0.5, p1=1.0
    )
    admits = [
        ClientAdmit(
            client=_client(
                100 + i, v=v, rate=rate, slope=0.05, t_proc=t, t_comm=t,
                storage=0.2,
            )
        )
        for i, (v, rate, t) in enumerate(junk)
    ] + [
        ClientAdmit(
            client=_client(
                200 + i, v=v, rate=rate, slope=0.5, t_proc=t, t_comm=t,
                storage=0.2,
            )
        )
        for i, (v, rate, t) in enumerate(good)
    ]
    random.Random(order_seed).shuffle(admits)
    svc = AllocationService(
        system, config=SOLVER, policy=POLICY, admission=OpportunityCost()
    )
    svc.apply_many(admits)
    junk_ids = {100 + i for i in range(len(junk))}
    admitted = {c.client_id for c in svc.system.clients}
    assert not admitted & junk_ids
    # Refusal, not queueing: every feasible junk admit was rejected.  The
    # counter is a lower bound, not an equality — once enough good
    # clients saturate the fleet, the gate can legitimately refuse a
    # *good* client too (its live marginal estimate goes negative at
    # high load), and the counters don't attribute refusals per client.
    pending_ids = {c.client_id for c in svc.pending}
    assert svc.metrics.counters.get("admits_rejected", 0) >= len(
        junk_ids - pending_ids
    )


@settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(good=good_specs)
def test_opportunity_cost_matches_baseline_at_zero_load(good):
    """With cheap power and ample capacity every client clears the gate:
    the opportunity-cost engine admits exactly the baseline's set (and
    reaches the identical snapshot)."""
    system = _fleet(num_servers=4, cap_processing=100.0, cap_storage=100.0, p0=0.2, p1=0.2)
    admits = [
        ClientAdmit(
            client=_client(
                300 + i, v=v, rate=rate, slope=0.5, t_proc=t, t_comm=t,
                storage=0.5,
            )
        )
        for i, (v, rate, t) in enumerate(good)
    ]
    baseline = AllocationService(
        system, config=SOLVER, policy=POLICY, admission=AlwaysAdmitIfFeasible()
    )
    gated = AllocationService(
        system, config=SOLVER, policy=POLICY, admission=OpportunityCost()
    )
    baseline.apply_many(admits)
    gated.apply_many(admits)
    assert {c.client_id for c in baseline.system.clients} == {
        c.client_id for c in gated.system.clients
    }
    assert list(baseline.pending) == list(gated.pending)
    assert gated.snapshot_hash() == baseline.snapshot_hash()


# -- pending-budget overshoot (satellite 1) -----------------------------------


class TestPendingBudget:
    BUDGET = 3

    def _bursts(self, system):
        return generate_load(
            system,
            LoadGenConfig(
                num_events=150,
                arrival_rate=300.0,
                admit_weight=0.8,
                depart_weight=0.2,
                rate_update_weight=0.0,
                seed=11,
            ),
        )

    def test_process_mode_never_overshoots_pending_budget(self):
        """The regression: gating on acked worker state alone let up to
        ``batch_size`` extra admits ship per lane.  With in-flight admits
        counted, no worker engine ever holds more than the budget."""
        system = overload_system(8, seed=5)
        with ServiceRouter(
            system,
            router=RouterPolicy(
                num_shards=2,
                queue_budget=64,
                batch_size=8,
                pending_budget=self.BUDGET,
            ),
            config=SOLVER,
            policy=POLICY,
            mode="process",
        ) as router:
            report = router.run_open_loop(self._bursts(system))
        assert report["shed_total"] > 0  # the gate actually engaged
        for lane in router._lanes:
            assert lane.peak_worker_pending <= self.BUDGET
        for cell in report["shards"]:
            assert cell["peak_pending_clients"] <= self.BUDGET

    def test_async_mode_respects_pending_budget(self):
        system = overload_system(8, seed=5)
        with ServiceRouter(
            system,
            router=RouterPolicy(
                num_shards=2,
                queue_budget=64,
                batch_size=8,
                pending_budget=self.BUDGET,
            ),
            config=SOLVER,
            policy=POLICY,
        ) as router:
            report = router.run_open_loop(self._bursts(system))
        for cell in report["shards"]:
            assert cell["pending_clients"] <= self.BUDGET
