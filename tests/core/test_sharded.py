"""Tests for the sharded hierarchical solver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SolverConfig
from repro.core import distributed
from repro.core.allocator import ResourceAllocator
from repro.core.distributed import system_fingerprint
from repro.core.sharded import (
    SHARD_PRICE_GAIN,
    ShardedAllocator,
    ShardSpec,
    _coordination_prices,
    _reassign_stragglers,
    _ShardRuntime,
    _strip_clients,
    plan_shards,
    shard_subsystem,
)
from repro.io import allocation_to_dict, dump_canonical, system_to_dict
from repro.model import Client
from repro.model.allocation import Allocation, AllocationRows
from repro.model.validation import find_violations
from repro.workload import generate_system


def _manifest(allocation: Allocation) -> str:
    return dump_canonical(allocation_to_dict(allocation))


class TestPlanShards:
    def test_partition_is_exact(self, generated_20):
        specs = plan_shards(generated_20, 4)
        clients = [cid for spec in specs for cid in spec.client_ids]
        servers = [sid for spec in specs for sid in spec.server_ids]
        assert sorted(clients) == sorted(generated_20.client_ids())
        assert sorted(servers) == sorted(
            s.server_id for s in generated_20.servers()
        )
        assert len(clients) == len(set(clients))
        assert len(servers) == len(set(servers))

    def test_balanced_within_one(self, generated_20):
        specs = plan_shards(generated_20, 3)
        client_sizes = [len(spec.client_ids) for spec in specs]
        server_sizes = [len(spec.server_ids) for spec in specs]
        assert max(client_sizes) - min(client_sizes) <= 1
        assert max(server_sizes) - min(server_sizes) <= 1

    def test_every_shard_sees_every_cluster(self, generated_20):
        # Striding the cluster-ordered server list deals each cluster's
        # servers round-robin: with >= num_shards servers per cluster,
        # every shard holds a slice of every cluster.
        specs = plan_shards(generated_20, 2)
        all_clusters = set(generated_20.cluster_ids())
        for spec in specs:
            seen = {
                generated_20.cluster_of_server(sid) for sid in spec.server_ids
            }
            assert seen == all_clusters

    def test_clamps_to_population(self, two_cluster_system):
        specs = plan_shards(two_cluster_system, 99)
        # 3 clients / 4 servers -> at most 3 shards.
        assert len(specs) == 3
        assert all(spec.client_ids for spec in specs)
        assert all(spec.server_ids for spec in specs)

    def test_deterministic(self, generated_20):
        assert plan_shards(generated_20, 4) == plan_shards(generated_20, 4)


class TestShardSubsystem:
    def test_shares_objects_and_preserves_ids(self, generated_20):
        # The object path never copies Server objects; exercise it on a
        # materialized twin (the generated fixture is array-backed).
        objects = generated_20.materialize()
        spec = plan_shards(objects, 4)[1]
        sub = shard_subsystem(objects, spec)
        assert {c.client_id for c in sub.clients} == set(spec.client_ids)
        assert {s.server_id for s in sub.servers()} == set(spec.server_ids)
        for server in sub.servers():
            assert server is objects.server(server.server_id)
            assert sub.cluster_of_server(
                server.server_id
            ) == objects.cluster_of_server(server.server_id)

    def test_whole_cluster_reuses_cluster_object(self, generated_20):
        objects = generated_20.materialize()
        spec = ShardSpec(
            shard_id=0,
            client_ids=tuple(objects.client_ids()[:4]),
            server_ids=tuple(objects.cluster(0).server_ids()),
        )
        sub = shard_subsystem(objects, spec)
        assert sub.cluster(0) is objects.cluster(0)

    def test_array_backed_slice_matches_object_path(self, generated_20):
        # The SoA fancy-index slice and the object path must describe the
        # same shard instance field for field.
        for spec in plan_shards(generated_20, 3):
            soa = shard_subsystem(generated_20, spec)
            obj = shard_subsystem(generated_20.materialize(), spec)
            assert dump_canonical(system_to_dict(soa)) == dump_canonical(
                system_to_dict(obj)
            )

    def test_omits_empty_clusters(self, two_cluster_system):
        spec = ShardSpec(shard_id=0, client_ids=(0,), server_ids=(0, 1))
        sub = shard_subsystem(two_cluster_system, spec)
        assert sub.cluster_ids() == [0]


class TestRowsRoundTrip:
    def test_to_rows_from_rows_identity(self, generated_20, fast_config):
        result = ResourceAllocator(fast_config).solve(generated_20)
        rows = result.allocation.to_rows()
        rebuilt = Allocation.from_rows(rows)
        assert _manifest(rebuilt) == _manifest(result.allocation)
        # Iteration order (and hence canonical replay order) survives too.
        assert list(rebuilt.cluster_of) == list(result.allocation.cluster_of)

    def test_concatenate_matches_union(self, generated_20, fast_config):
        result = ResourceAllocator(fast_config).solve(generated_20)
        rows = result.allocation.to_rows()
        half = len(rows.assign_clients) // 2
        first = set(rows.assign_clients[:half].tolist())
        part_a = _strip_clients(
            rows, set(rows.assign_clients.tolist()) - first
        )
        part_b = _strip_clients(rows, first)
        merged = Allocation.from_rows(
            AllocationRows.concatenate([part_a, part_b])
        )
        assert allocation_to_dict(merged) == allocation_to_dict(
            result.allocation
        )


class TestStripClients:
    def test_drops_assignments_and_entries(self, generated_20, fast_config):
        result = ResourceAllocator(fast_config).solve(generated_20)
        rows = result.allocation.to_rows()
        victim = int(rows.assign_clients[0])
        stripped = Allocation.from_rows(_strip_clients(rows, {victim}))
        assert not stripped.is_assigned(victim)
        assert not stripped.entries_of_client(victim)
        survivors = set(rows.assign_clients.tolist()) - {victim}
        assert set(stripped.cluster_of) == survivors

    def test_empty_drop_is_identity(self, generated_20, fast_config):
        result = ResourceAllocator(fast_config).solve(generated_20)
        rows = result.allocation.to_rows()
        assert _strip_clients(rows, set()) is rows


class TestShardedAllocator:
    def test_feasible_and_audit_clean(self, generated_20):
        config = SolverConfig(seed=1, num_shards=2, num_workers=2)
        with ShardedAllocator(config) as allocator:
            result = allocator.solve(generated_20)
        assert result.breakdown.feasible
        assert find_violations(generated_20, result.allocation) == []

    def test_deterministic_across_solves(self, generated_20):
        config = SolverConfig(seed=3, num_shards=2, num_workers=2)
        with ShardedAllocator(config) as allocator:
            first = allocator.solve(generated_20)
            second = allocator.solve(generated_20)
        assert _manifest(first.allocation) == _manifest(second.allocation)
        assert first.profit == second.profit

    def test_quality_comparable_to_unsharded(self, generated_20):
        config = SolverConfig(seed=1, num_shards=2, num_workers=2)
        with ShardedAllocator(config) as allocator:
            sharded = allocator.solve(generated_20)
        unsharded = ResourceAllocator(SolverConfig(seed=1)).solve(generated_20)
        assert sharded.profit >= unsharded.profit * 0.9

    def test_single_shard_degenerates_to_plain_heuristic(self, generated_20):
        config = SolverConfig(seed=1, num_shards=1)
        with ShardedAllocator(config) as allocator:
            sharded = allocator.solve(generated_20)
        plain = ResourceAllocator(SolverConfig(seed=1)).solve(generated_20)
        assert _manifest(sharded.allocation) == _manifest(plain.allocation)

    def test_profit_history_tracks_rounds(self, generated_20):
        config = SolverConfig(
            seed=1, num_shards=2, num_workers=2, shard_coordination_rounds=2
        )
        with ShardedAllocator(config) as allocator:
            result = allocator.solve(generated_20)
        # 1 (round 0) + 2 coordination rounds, plus >= 1 polish round.
        assert len(result.profit_history) >= 4
        assert result.profit >= result.profit_history[0] - 1e-9


class TestShardRuntime:
    """In-process worker runtime: warm rounds must be cache-warm."""

    def _runtime(self, system, num_shards=2):
        spec = plan_shards(system, num_shards)[0]
        config = SolverConfig(
            seed=2, num_initial_solutions=1, max_improvement_rounds=3
        )
        return _ShardRuntime(system, spec, config)

    def test_solve_then_export_is_feasible(self, generated_20):
        runtime = self._runtime(generated_20)
        result = runtime.solve_initial(seed=11, prices=None)
        sub = runtime.sub_system
        merged = Allocation.from_rows(result.rows)
        assert find_violations(sub, merged, require_all_served=False) == []
        assert result.nonce == runtime.nonce

    def test_warm_round_has_no_curve_misses(self, generated_20):
        runtime = self._runtime(generated_20)
        runtime.solve_initial(seed=11, prices=None)
        # Round 1 populates the runtime's cache (solve_initial builds its
        # own internal state, so the resident cache starts cold).
        runtime.improve_round(seed=13, prices=None)
        before = dict(runtime.state.cache.stats)
        runtime.improve_round(seed=17, prices=None)
        after = runtime.state.cache.stats
        # Unchanged prices keep every curve block valid: revalidation may
        # patch rows but never rebuilds a block from scratch.
        assert after["curve_misses"] == before["curve_misses"]
        assert after["curve_hits"] > before["curve_hits"]

    def test_price_change_clears_curve_cache(self, generated_20):
        runtime = self._runtime(generated_20)
        runtime.solve_initial(seed=11, prices=None)
        runtime.improve_round(seed=13, prices=None)
        before = dict(runtime.state.cache.stats)
        prices = tuple(
            (kid, 0.5) for kid in sorted(runtime.sub_system.cluster_ids())
        )
        runtime.improve_round(seed=17, prices=prices)
        after = runtime.state.cache.stats
        # CurveBlock validation covers capacity inputs, not prices, so the
        # runtime must drop the cache wholesale on a price change.
        assert after["curve_misses"] > before["curve_misses"]

    def test_marginal_response_covers_clusters(self, generated_20):
        runtime = self._runtime(generated_20)
        result = runtime.solve_initial(seed=11, prices=None)
        assert set(result.marginal) == set(runtime.sub_system.cluster_ids())


class TestCoordination:
    def _result_stub(self, shard_id, runtime_result):
        return runtime_result

    def test_prices_rise_with_utilization(self, generated_20):
        runtime = _ShardRuntime(
            generated_20,
            plan_shards(generated_20, 2)[0],
            SolverConfig(seed=2, num_initial_solutions=1, max_improvement_rounds=2),
        )
        result = runtime.solve_initial(seed=7, prices=None)
        config = SolverConfig()
        prices = _coordination_prices(config, [result])
        base = config.bandwidth_shadow_price
        for kid, price in prices:
            usage = result.usage[kid]
            expected = base * (
                1.0
                + SHARD_PRICE_GAIN
                * usage.used_bandwidth
                / max(usage.total_servers, 1)
            )
            assert price == pytest.approx(expected)
            assert price >= base

    def test_straggler_moves_to_roomier_shard(self, generated_20):
        config = SolverConfig(
            seed=2, num_initial_solutions=1, max_improvement_rounds=2
        )
        specs = plan_shards(generated_20, 2)
        results = []
        for spec in specs:
            runtime = _ShardRuntime(generated_20, spec, config)
            results.append(runtime.solve_initial(seed=7, prices=None))
        # Pretend shard 0's first client went unplaced.
        victim = specs[0].client_ids[0]
        from dataclasses import replace

        doctored = replace(results[0], unplaced=(victim,))
        new_specs, moved_from = _reassign_stragglers(
            generated_20, specs, [doctored, results[1]]
        )
        if moved_from:
            assert moved_from == {0: {victim}}
            assert victim in new_specs[1].client_ids
            assert victim not in new_specs[0].client_ids
            assert new_specs[0].server_ids == specs[0].server_ids
        else:
            # Legitimate outcome: shard 1 had no room/profit headroom.
            assert new_specs == specs

    def test_no_stragglers_is_identity(self, generated_20):
        config = SolverConfig(
            seed=2, num_initial_solutions=1, max_improvement_rounds=2
        )
        specs = plan_shards(generated_20, 2)
        results = [
            _ShardRuntime(generated_20, spec, config).solve_initial(
                seed=7, prices=None
            )
            for spec in specs
        ]
        for result in results:
            assert result.unplaced == ()
        new_specs, moved_from = _reassign_stragglers(
            generated_20, specs, results
        )
        assert new_specs is specs
        assert moved_from == {}


class TestFingerprintMemo:
    def test_repeated_calls_hit_memo(self, generated_20):
        first = system_fingerprint(generated_20)
        slot = distributed._FINGERPRINT_MEMO[id(generated_20)]
        assert system_fingerprint(generated_20) == first
        # Same memo slot object: the second call did not recompute.
        assert distributed._FINGERPRINT_MEMO[id(generated_20)] is slot

    def test_membership_edit_invalidates(self, generated_20, gold_class):
        before = system_fingerprint(generated_20)
        new_id = max(generated_20.client_ids()) + 1
        generated_20.add_client(
            Client(
                client_id=new_id,
                utility_class=gold_class,
                rate_agreed=1.0,
                t_proc=0.4,
                t_comm=0.4,
                storage_req=0.5,
            )
        )
        after = system_fingerprint(generated_20)
        assert after != before
        generated_20.remove_client(new_id)
        assert system_fingerprint(generated_20) == before

    def test_dead_system_evicted(self, gold_class):
        import gc

        system = generate_system(num_clients=4, seed=9)
        key = id(system)
        system_fingerprint(system)
        assert key in distributed._FINGERPRINT_MEMO
        del system
        gc.collect()
        assert key not in distributed._FINGERPRINT_MEMO


class TestTwoTierMergeParity:
    """The level-2 row merge must be bitwise-identical to the flat merge.

    Shard row tables are produced once (a real solve per shard of a
    fixed plan); Hypothesis then draws the super-shard grouping and a
    mutate/restore interleaving — each touched shard's rows are pushed
    through a :class:`WorkingState`, mutated, snapshot-restored and
    re-exported before merging — and the grouped pairwise concatenation
    must reproduce the flat concatenation column for column, bit for
    bit.
    """

    _pieces = None

    @classmethod
    def _shard_pieces(cls):
        if cls._pieces is None:
            system = generate_system(num_clients=20, seed=5)
            config = SolverConfig(
                seed=0,
                num_initial_solutions=1,
                alpha_granularity=5,
                max_improvement_rounds=2,
            )
            specs = plan_shards(system, 5)
            pieces = []
            for spec in specs:
                sub = shard_subsystem(system, spec)
                result = ResourceAllocator(config).solve(sub)
                pieces.append((spec, sub, result.allocation.to_rows()))
            cls._pieces = (system, pieces)
        return cls._pieces

    @staticmethod
    def _assert_bitwise_equal(a: AllocationRows, b: AllocationRows) -> None:
        for field in (
            "assign_clients",
            "assign_clusters",
            "entry_clients",
            "entry_servers",
            "alpha",
            "phi_p",
            "phi_b",
        ):
            left = getattr(a, field)
            right = getattr(b, field)
            assert left.dtype == right.dtype
            assert left.tobytes() == right.tobytes()

    @settings(deadline=None, max_examples=30)
    @given(data=st.data())
    def test_grouped_merge_bitwise_matches_flat(self, data):
        from repro.core.sharded import _super_shard_groups
        from repro.core.state import WorkingState

        _, pieces = self._shard_pieces()
        count = len(pieces)
        cuts = data.draw(
            st.sets(st.integers(1, count - 1), max_size=count - 1),
            label="group cuts",
        )
        bounds = [0, *sorted(cuts), count]
        groups = [range(a, b) for a, b in zip(bounds[:-1], bounds[1:])]

        rows_by_shard = []
        for index, (spec, sub, rows) in enumerate(pieces):
            interleave = data.draw(
                st.booleans(), label=f"interleave shard {index}"
            )
            if interleave:
                # Mutate-then-restore round trip: the exported table must
                # be byte-identical to what went in, so the merge cannot
                # depend on a shard's mutation history.
                state = WorkingState(sub)
                state.restore_rows(rows)
                saved = state.snapshot()
                victim = int(rows.entry_clients[0])
                state.clear_client(victim)
                state.restore(saved)
                rows = state.export_rows()
                self._assert_bitwise_equal(rows, pieces[index][2])
            rows_by_shard.append(rows)

        flat = AllocationRows.concatenate(rows_by_shard)
        grouped = AllocationRows.concatenate(
            [
                AllocationRows.concatenate([rows_by_shard[i] for i in group])
                for group in groups
            ]
        )
        self._assert_bitwise_equal(grouped, flat)

        # The production grouping (contiguous ~sqrt partition) is one of
        # the drawn shapes; pin it explicitly too.
        production = AllocationRows.concatenate(
            [
                AllocationRows.concatenate([rows_by_shard[i] for i in group])
                for group in _super_shard_groups(count)
            ]
        )
        self._assert_bitwise_equal(production, flat)


class TestSolverTopologies:
    def _config(self, **overrides):
        base = dict(
            seed=3,
            num_shards=4,
            num_workers=1,
            num_initial_solutions=1,
            max_improvement_rounds=2,
            shard_coordination_rounds=1,
            shard_final_rounds=1,
        )
        base.update(overrides)
        return SolverConfig(**base)

    def test_two_tier_solve_matches_flat(self, generated_20):
        with ShardedAllocator(self._config()) as allocator:
            flat = allocator.solve(generated_20)
        with ShardedAllocator(
            self._config(shard_levels=2)
        ) as allocator:
            tiered = allocator.solve(generated_20)
        assert tiered.profit == flat.profit
        assert tiered.profit_history == flat.profit_history
        assert allocation_to_dict(tiered.allocation) == allocation_to_dict(
            flat.allocation
        )

    def test_inline_executor_matches_pool(self, generated_20):
        with ShardedAllocator(self._config(num_workers=1)) as allocator:
            inline = allocator.solve(generated_20)
        with ShardedAllocator(self._config(num_workers=2)) as allocator:
            pooled = allocator.solve(generated_20)
        assert inline.profit == pooled.profit
        assert allocation_to_dict(inline.allocation) == allocation_to_dict(
            pooled.allocation
        )

    def test_telemetry_recorded(self, generated_20):
        allocator = ShardedAllocator(self._config())
        with allocator:
            allocator.solve(generated_20)
        assert allocator.last_telemetry["shard_count"] == 4
        assert allocator.last_telemetry["shard_solve_seconds_total"] > 0.0
