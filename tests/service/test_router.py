"""Tests for the sharded async service tier (router, shedding, failover)."""

import asyncio
import dataclasses
import itertools

import pytest

from repro.config import SolverConfig
from repro.exceptions import ConfigurationError, ServiceError
from repro.model.client import Client
from repro.model.utility import ClippedLinearUtility, UtilityClass
from repro.service import (
    ClientAdmit,
    ClientDepart,
    LoadGenConfig,
    RateUpdate,
    RouterPolicy,
    ServerFail,
    ServicePolicy,
    ServiceRouter,
    admit_priority,
    flatten_bursts,
    generate_load,
)
from repro.service.engine import AllocationService
from repro.workload import generate_system
from repro.workload.overload import overload_system

GOLD = UtilityClass(0, ClippedLinearUtility(base_value=3.0, slope=1.0), "gold")

SOLVER = SolverConfig(seed=0)
#: High drift threshold: admission, not re-optimization, is under test.
POLICY = ServicePolicy(drift_threshold=50.0)


def _system(num_clients: int = 12):
    return generate_system(num_clients=num_clients, seed=3)


def _admit(cid: int, rate: float = 1.0) -> ClientAdmit:
    return ClientAdmit(
        client=Client(
            client_id=cid,
            utility_class=GOLD,
            rate_agreed=rate,
            rate_predicted=rate,
            t_proc=0.5,
            t_comm=0.4,
            storage_req=0.5,
        )
    )


def _router(policy: RouterPolicy, **kwargs) -> ServiceRouter:
    return ServiceRouter(
        _system(), router=policy, config=SOLVER, policy=POLICY, **kwargs
    )


class TestRouterPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_shards": 0},
            {"queue_budget": 0},
            {"batch_size": 0},
            {"pending_budget": 0},
        ],
    )
    def test_rejects_non_positive_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            RouterPolicy(**kwargs)

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            _router(RouterPolicy(num_shards=2), mode="threads")


class TestRouting:
    def test_shards_partition_the_fleet(self):
        router = _router(RouterPolicy(num_shards=3))
        seen = set()
        for sub in router.subsystems:
            ids = {s.server_id for c in sub.clusters for s in c.servers}
            assert not ids & seen
            seen |= ids
        full = {
            s.server_id for c in _system().clusters for s in c.servers
        }
        assert seen == full

    def test_client_events_route_by_id_hash(self):
        router = _router(RouterPolicy(num_shards=3))
        for cid in (0, 1, 2, 7, 1_000_003):
            expected = cid % router.num_shards
            assert router.shard_of(_admit(cid)) == expected
            assert router.shard_of(ClientDepart(client_id=cid)) == expected
            assert (
                router.shard_of(RateUpdate(client_id=cid, rate_predicted=1.0))
                == expected
            )

    def test_server_events_route_to_owning_shard(self):
        router = _router(RouterPolicy(num_shards=3))
        for shard_id, sub in enumerate(router.subsystems):
            for cluster in sub.clusters:
                for server in cluster.servers:
                    event = ServerFail(server_id=server.server_id)
                    assert router.shard_of(event) == shard_id

    def test_unknown_server_rejected(self):
        router = _router(RouterPolicy(num_shards=2))
        with pytest.raises(ServiceError):
            router.shard_of(ServerFail(server_id=10_000))

    def test_num_shards_clamped_to_server_count(self):
        system = _system()
        total = sum(len(c.servers) for c in system.clusters)
        router = ServiceRouter(
            system, router=RouterPolicy(num_shards=total + 50), config=SOLVER
        )
        assert router.num_shards <= total


class TestShedPolicy:
    """Synchronous ``offer`` calls — no consumer, the queue just fills."""

    def _full_router(self, budget: int = 3):
        # One shard so every admit lands in the same queue.
        router = _router(RouterPolicy(num_shards=1, queue_budget=budget))
        return router

    def test_low_priority_incoming_is_shed(self):
        router = self._full_router(budget=2)
        assert router.offer(_admit(10, rate=5.0))
        assert router.offer(_admit(11, rate=4.0))
        # Queue at budget; the cheapest client loses at the door.
        assert not router.offer(_admit(12, rate=0.1))
        record = router.shed_log[-1]
        assert record.client_id == 12
        assert record.retained_client_id == 11  # lowest retained admit
        assert record.priority <= record.retained_priority

    def test_high_priority_incoming_displaces_lowest(self):
        router = self._full_router(budget=2)
        router.offer(_admit(10, rate=0.1))
        router.offer(_admit(11, rate=4.0))
        assert router.offer(_admit(12, rate=5.0))  # kept
        record = router.shed_log[-1]
        assert record.client_id == 10  # the cheap one lost its slot
        lane = router._lanes[0]
        assert set(lane.admits) == {11, 12}

    def test_equal_priority_breaks_ties_by_id(self):
        router = self._full_router(budget=1)
        router.offer(_admit(10, rate=1.0))
        # Same priority, lower id: the incoming sheds (key <= victim key).
        assert not router.offer(_admit(9, rate=1.0))
        assert router.shed_log[-1].client_id == 9
        # Same priority, higher id: the incumbent sheds.
        assert router.offer(_admit(11, rate=1.0))
        assert router.shed_log[-1].client_id == 10

    def test_non_admits_are_never_shed(self):
        router = self._full_router(budget=1)
        router.offer(_admit(10, rate=1.0))
        # Over budget with an admit queued: the depart evicts it instead.
        assert router.offer(ClientDepart(client_id=10))
        assert router.shed_log[-1].client_id == 10
        # Over budget with only unsheddable work queued: still accepted.
        assert router.offer(RateUpdate(client_id=10, rate_predicted=2.0))
        lane = router._lanes[0]
        assert len(lane.queue) == 2  # transiently beyond budget, by design
        assert lane.shed == 1

    def test_pending_budget_sheds_at_the_door(self):
        router = _router(
            RouterPolicy(num_shards=1, queue_budget=8, pending_budget=1)
        )
        lane = router._lanes[0]
        # Saturate the engine's pending queue directly: an admit no
        # server can hold (storage beyond any SKU) parks as pending.
        huge = ClientAdmit(
            client=dataclasses.replace(_admit(20).client, storage_req=1e9)
        )
        lane.engine.apply(huge)
        assert len(lane.engine.pending) == 1
        assert not router.offer(_admit(21, rate=100.0))
        assert router.shed_log[-1].client_id == 21

    def test_shed_counters_reconcile(self):
        router = self._full_router(budget=2)
        for cid in range(10, 20):
            router.offer(_admit(cid, rate=float(cid)))
        lane = router._lanes[0]
        assert lane.shed == len(router.shed_log)
        assert lane.offered == 10
        assert len(lane.queue) + lane.shed == lane.offered


class TestOpenLoopDeterminismAndReplay:
    def _run(self, tmp_path, sub):
        system = _system()
        bursts = generate_load(
            system, LoadGenConfig(num_events=120, arrival_rate=300.0, seed=11)
        )
        journal_dir = tmp_path / sub
        journal_dir.mkdir()
        with ServiceRouter(
            system,
            router=RouterPolicy(
                num_shards=3, queue_budget=6, batch_size=4, pending_budget=12
            ),
            config=SOLVER,
            policy=POLICY,
            journal_dir=str(journal_dir),
        ) as router:
            report = router.run_open_loop(bursts)
            hashes = [
                router.verify_shard_replay(i) for i in range(router.num_shards)
            ]
            sheds = [(r.shard_id, r.client_id) for r in router.shed_log]
        return report, hashes, sheds

    def test_every_offered_event_has_one_fate(self, tmp_path):
        report, _, _ = self._run(tmp_path, "a")
        assert report["offered_total"] == 120
        assert (
            report["applied_total"]
            + report["rejected_total"]
            + report["shed_total"]
            == report["offered_total"]
        )

    def test_shard_journals_replay_to_live_hashes(self, tmp_path):
        _, hashes, _ = self._run(tmp_path, "a")
        for live, replayed in hashes:
            assert live == replayed

    def test_identical_runs_shed_identically(self, tmp_path):
        report_a, hashes_a, sheds_a = self._run(tmp_path, "a")
        report_b, hashes_b, sheds_b = self._run(tmp_path, "b")
        assert sheds_a == sheds_b
        assert [h for h, _ in hashes_a] == [h for h, _ in hashes_b]
        assert report_a["aggregate_profit"] == report_b["aggregate_profit"]

    def test_aggregate_profit_is_sum_of_disjoint_shards(self, tmp_path):
        report, _, _ = self._run(tmp_path, "a")
        assert report["aggregate_profit"] == pytest.approx(
            sum(cell["profit"] for cell in report["shards"])
        )


class TestClosedLoop:
    def test_backpressure_never_sheds(self):
        system = _system()
        events = flatten_bursts(
            generate_load(
                system,
                LoadGenConfig(num_events=80, arrival_rate=300.0, seed=4),
            )
        )
        with ServiceRouter(
            system,
            router=RouterPolicy(num_shards=3, queue_budget=2, batch_size=2),
            config=SOLVER,
            policy=POLICY,
        ) as router:
            report = router.run_closed_loop(events)
        assert report["shed_total"] == 0
        assert report["offered_total"] == len(events)
        assert (
            report["applied_total"] + report["rejected_total"] == len(events)
        )


class TestFailover:
    def test_failover_is_hash_asserted_and_transparent(self, tmp_path):
        system = _system()
        bursts = generate_load(
            system, LoadGenConfig(num_events=60, arrival_rate=300.0, seed=7)
        )
        with ServiceRouter(
            system,
            router=RouterPolicy(num_shards=2, queue_budget=32),
            config=SOLVER,
            policy=POLICY,
            journal_dir=str(tmp_path),
        ) as router:
            router.run_open_loop(bursts)
            before = router.engines[0].snapshot_hash()
            asserted = router.failover(0)
            assert asserted == before
            assert router.engines[0].snapshot_hash() == before
            assert router.report()["shards"][0]["failovers"] == 1
            # The standby keeps journaling: replay still matches live.
            live, replayed = router.verify_shard_replay(0)
            assert live == replayed

    def test_failover_requires_async_mode(self):
        router = _router(RouterPolicy(num_shards=2), mode="process")
        with pytest.raises(ServiceError):
            router.failover(0)


class TestProcessMode:
    def test_closed_loop_smoke_with_replay(self, tmp_path):
        system = _system(num_clients=8)
        events = flatten_bursts(
            generate_load(
                system,
                LoadGenConfig(num_events=40, arrival_rate=300.0, seed=9),
            )
        )
        with ServiceRouter(
            system,
            router=RouterPolicy(num_shards=2, queue_budget=8, batch_size=4),
            config=SOLVER,
            policy=POLICY,
            journal_dir=str(tmp_path),
            mode="process",
        ) as router:
            report = router.run_closed_loop(events)
            assert report["mode"] == "process"
            assert report["shed_total"] == 0
            assert (
                report["applied_total"] + report["rejected_total"]
                == len(events)
            )
            for shard_id in range(router.num_shards):
                live, replayed = router.verify_shard_replay(shard_id)
                assert live == replayed


class TestDeadConsumer:
    """A shard engine that fails with anything but a rejected event
    (:class:`ServiceError`) ends the run with that failure, in both
    loops and both modes, instead of leaving the router waiting on a
    lane nobody drains."""

    def _setup(self, mode):
        system = overload_system(12, seed=3)
        router = ServiceRouter(
            system,
            router=RouterPolicy(num_shards=2, queue_budget=4, batch_size=2),
            config=SOLVER,
            policy=POLICY,
            mode=mode,
        )
        bursts = generate_load(
            system, LoadGenConfig(num_events=200, arrival_rate=300.0, seed=5)
        )
        return router, bursts

    @staticmethod
    def _fail_on_fifth_event(apply):
        calls = itertools.count(1)

        def faulty(*args):
            if next(calls) == 5:
                raise RuntimeError("engine 0 fault")
            return apply(*args)

        return faulty

    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_async_loop_reraises_the_fault(self, loop):
        router, bursts = self._setup("async")
        engine = router.engines[0]
        engine.apply = self._fail_on_fifth_event(engine.apply)
        if loop == "open":
            run = router.run_open_loop_async(bursts)
        else:
            run = router.run_closed_loop_async(flatten_bursts(bursts))
        with pytest.raises(RuntimeError, match="engine 0 fault"):
            asyncio.run(asyncio.wait_for(run, 10))

    @pytest.mark.parametrize("loop", ["open", "closed"])
    def test_process_loop_raises_when_a_worker_dies(self, loop, monkeypatch):
        router, bursts = self._setup("process")
        original = AllocationService.apply
        faulty = self._fail_on_fifth_event(original)

        def shard_zero_fails(engine, event):
            if engine.system.name.endswith("/shard-0"):
                return faulty(engine, event)
            return original(engine, event)

        # Forked workers inherit the patched class.
        monkeypatch.setattr(AllocationService, "apply", shard_zero_fails)
        with pytest.raises(ServiceError, match="shard 0"):
            if loop == "open":
                router.run_open_loop(bursts)
            else:
                router.run_closed_loop(flatten_bursts(bursts))


def test_admit_priority_orders_by_margin():
    rich = _admit(1, rate=5.0)
    poor = _admit(2, rate=0.1)
    assert admit_priority(rich.client, 1.0) > admit_priority(poor.client, 1.0)
