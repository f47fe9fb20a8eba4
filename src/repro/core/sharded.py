"""Sharded hierarchical solver: price-coordinated shard decomposition.

The paper's clients interact only through two couplings: the shared
capacity of their cluster's servers and the cross-cluster assignment
step.  That makes the problem decomposable: partition the clients *and*
each cluster's servers into disjoint shards, solve every shard as a
standalone instance of the full heuristic, and the union of the shard
allocations is feasible by construction — no server is visible to two
shards, so no capacity constraint can be violated by the merge.

What the decomposition loses is the couplings, and the hierarchy puts
them back:

* **price coordination** — after each round the coordinator sums every
  shard's per-cluster usage summary and re-prices bandwidth per cluster
  (``price_k = base * (1 + gain * utilization_k)``); shards see the new
  prices through ``SolverConfig.cluster_bandwidth_prices`` and their
  eq.-(16) curves — the marginal-profit response — steer traffic away
  from congested clusters in the next improvement round;
* **straggler reassignment** — clients a shard could not place are moved
  (between rounds) to the shard with the most free capacity whose
  eq.-(16) probe says it can still host profitably.

Workers keep a resident :class:`_ShardRuntime` per shard — sub-system,
working state, delta scorer and :class:`~repro.core.cache.MemoCache` —
so a warm coordination round revalidates its curve blocks instead of
rebuilding them.  Warm-vs-cold is bit-transparent: every round starts by
canonicalizing the state and resyncing the scorer from scratch, so the
merged result does not depend on which worker ran which shard, or on
whether a runtime survived between rounds (the same discipline the
snapshot/restore machinery uses).

The merge is O(rows): shards export :class:`~repro.model.allocation.AllocationRows`
tables (struct-of-arrays) and the coordinator concatenates them.  The
profit of the merged allocation is exactly the sum of shard profits —
the shards share no servers and no clients — so round-over-round
acceptance needs no global re-evaluation; only the returned best is
re-scored (and audited) against the full system.

The gap vs. the unsharded heuristic comes from placements the partition
forbids (a client can only use its own shard's server slices).  Striding
both clients and servers keeps every shard a balanced miniature of the
full instance — each shard sees ~1/S of every cluster's servers and a
demand-representative 1/S of the clients — which empirically holds the
gap within the benchmark's 1% bound at n <= 1k (see BENCH_scale.json)
while the per-shard solve cost drops superlinearly.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.core import distributed
from repro.core.allocator import AllocationResult, ResourceAllocator
from repro.core.assign import batched_server_curves
from repro.core.cache import maybe_attach_cache
from repro.core.delta import DeltaScorer
from repro.core.distributed import WorkerPool
from repro.core.state import ClusterUsage, WorkingState
from repro.model.allocation import Allocation, AllocationRows
from repro.model.cluster import Cluster
from repro.model.datacenter import ArrayBackedCloudSystem, CloudSystem
from repro.model.profit import evaluate_profit
from repro.optim.dp import NEG_INF

#: The per-cluster price tuple shipped to shards (None = flat base price).
PriceTuple = Optional[Tuple[Tuple[int, float], ...]]

#: Sensitivity of the coordinator's per-cluster price update,
#: ``price_k = base * (1 + SHARD_PRICE_GAIN * utilization_k)``.
SHARD_PRICE_GAIN = 0.5


@dataclass(frozen=True)
class ShardSpec:
    """One shard's slice of the system: disjoint clients and servers."""

    shard_id: int
    client_ids: Tuple[int, ...]
    server_ids: Tuple[int, ...]


@dataclass(frozen=True)
class ShardRoundResult:
    """What one shard reports back after a solve/improve round."""

    shard_id: int
    rows: AllocationRows
    profit: float
    initial_profit: float
    usage: Dict[int, ClusterUsage]
    unplaced: Tuple[int, ...]
    marginal: Dict[int, float]
    cache_stats: Dict[str, int]
    nonce: Tuple[int, int]
    #: Wall seconds the worker spent inside this round's solve/improve
    #: (excludes dispatch); feeds the scale benchmark's per-shard cost
    #: statistics.
    solve_seconds: float = 0.0


def deal_servers(system: CloudSystem, num_shards: int) -> List[Tuple[int, ...]]:
    """Deal the cluster-ordered server list round-robin into ``num_shards`` hands.

    Striding the (cluster-contiguous) server list deals each cluster's
    servers round-robin, so every hand holds ~1/S of every cluster's
    capacity — a balanced capacity miniature of the full fleet.  Clamped
    so every hand owns at least one server.  Shared by the batch
    hierarchy (:func:`plan_shards`) and the online service tier
    (:class:`repro.service.router.ServiceRouter`), which partitions only
    servers because its clients arrive later, as events.
    """
    servers = [s.server_id for s in system.servers()]
    count = max(1, min(num_shards, len(servers)))
    return [tuple(servers[s::count]) for s in range(count)]


def plan_shards(system: CloudSystem, num_shards: int) -> List[ShardSpec]:
    """Partition clients and servers into balanced disjoint shards.

    Both partitions stride sorted id order: shard ``s`` takes every
    ``S``-th client and every ``S``-th server of the cluster-ordered
    server list (:func:`deal_servers`), so every shard holds ~1/S of
    every cluster's capacity and a demand-representative client sample —
    a balanced miniature of the full instance.  ``num_shards`` is
    clamped so every shard owns at least one client and one server.
    """
    clients = sorted(system.client_ids())
    count = max(1, min(num_shards, len(clients), system.num_servers))
    hands = deal_servers(system, count)
    return [
        ShardSpec(
            shard_id=s,
            client_ids=tuple(clients[s::count]),
            server_ids=hands[s],
        )
        for s in range(count)
    ]


def shard_subsystem(system: CloudSystem, spec: ShardSpec) -> CloudSystem:
    """One shard's standalone instance.

    Cluster ids are preserved — a shard's cluster ``k`` is a slice of the
    real cluster ``k`` — so per-cluster prices and the merged allocation
    speak the global id space.  Clusters with no servers in the slice are
    omitted.

    On an array-backed system this is O(fields): each client/server
    column is fancy-indexed once and the slice is wrapped as a new
    array-backed system — no per-object work at all.  On an object-backed
    system the Server/Client objects are shared (never copied), and a
    shard that owns *every* server of a cluster reuses the system's own
    Cluster object instead of constructing (and re-validating) a new one.
    Both backings produce systems with bit-identical field values, so the
    shard solve does not depend on the backing.
    """
    if isinstance(system, ArrayBackedCloudSystem) and system.is_array_backed:
        arrays = system.arrays
        client_pos = np.searchsorted(
            arrays.client_ids, np.asarray(spec.client_ids, dtype=np.int64)
        )
        # Server ids are dealt from the cluster-ordered (= id-sorted) row
        # order, so sorting the spec's ids keeps the slice
        # cluster-contiguous — the layout invariant SystemArrays requires.
        server_pos = np.searchsorted(
            arrays.server_ids, np.sort(np.asarray(spec.server_ids, dtype=np.int64))
        )
        sub_arrays = arrays.slice_clients(client_pos).slice_servers(server_pos)
        return CloudSystem.from_arrays(
            sub_arrays, name=f"{system.name}/shard-{spec.shard_id}"
        )
    by_cluster: Dict[int, List] = {}
    for sid in spec.server_ids:
        by_cluster.setdefault(system.cluster_of_server(sid), []).append(
            system.server(sid)
        )
    clusters = []
    for kid in sorted(by_cluster):
        whole = system.cluster(kid)
        if len(by_cluster[kid]) == len(whole):
            # The shard owns the entire cluster: reuse the existing
            # (already-validated) Cluster object rather than building a
            # duplicate around the same Server objects.
            clusters.append(whole)
        else:
            clusters.append(Cluster(cluster_id=kid, servers=by_cluster[kid]))
    clients = [system.client(cid) for cid in spec.client_ids]
    return CloudSystem(
        clusters=clusters,
        clients=clients,
        name=f"{system.name}/shard-{spec.shard_id}",
    )


# -- worker side --------------------------------------------------------------

#: shard_id -> resident runtime, per worker process.  Bounded: each
#: runtime pins a sub-system, a working state and a curve cache, so at
#: hundreds of shards per worker the oldest runtimes are dropped and
#: simply rebuild cold from their shipped rows on the next touch.
_SHARD_RUNTIMES: Dict[int, "_ShardRuntime"] = {}
_RUNTIME_LIMIT = 8
_NONCE_COUNTER = 0


def _next_nonce() -> Tuple[int, int]:
    """Identity of one runtime state epoch (pid + per-process counter).

    The coordinator echoes the nonce back with the next round's task; a
    worker warm-continues only when its resident runtime is the exact
    state that produced the rows the coordinator holds.
    """
    global _NONCE_COUNTER
    _NONCE_COUNTER += 1
    return (os.getpid(), _NONCE_COUNTER)


class _ShardRuntime:
    """Worker-resident persistent solve state for one shard."""

    def __init__(
        self, system: CloudSystem, spec: ShardSpec, base_config: SolverConfig
    ) -> None:
        self.spec = spec
        self.base_config = base_config
        self.sub_system = shard_subsystem(system, spec)
        self.state = WorkingState(self.sub_system)
        if base_config.use_delta_scoring:
            DeltaScorer(self.state, validate=base_config.validate_delta_scoring)
        maybe_attach_cache(self.state, base_config)
        self.last_prices: PriceTuple = None
        self.nonce: Optional[Tuple[int, int]] = None

    def _round_config(self, seed: int, prices: PriceTuple) -> SolverConfig:
        return replace(
            self.base_config, seed=seed, cluster_bandwidth_prices=prices
        )

    def solve_initial(self, seed: int, prices: PriceTuple) -> ShardRoundResult:
        """Round 0: the full heuristic on the shard's standalone instance."""
        config = self._round_config(seed, prices)
        self.last_prices = prices
        result = ResourceAllocator(config).solve(self.sub_system)
        self.state.restore_rows(result.allocation.to_rows())
        return self._export(config, initial_profit=result.initial_profit)

    def improve_round(self, seed: int, prices: PriceTuple) -> ShardRoundResult:
        """One coordinated improvement round under the given prices.

        Warm and cold runtimes converge to bit-identical states here:
        canonicalize sorts the allocation and recounts aggregates in that
        order, and the scorer is resynced from scratch, so nothing of the
        runtime's mutation (or shipping) history survives into the round.
        A price change invalidates the curve cache wholesale — curve
        blocks validate against capacity inputs only, not prices — while
        unchanged prices keep the blocks warm (the all-hit round).
        """
        config = self._round_config(seed, prices)
        if prices != self.last_prices:
            if self.state.cache is not None:
                self.state.cache.clear()
            self.last_prices = prices
        self.state.canonicalize()
        if self.state.scorer is not None:
            self.state.scorer.mark_all()
            self.state.scorer.resync()
        allocator = ResourceAllocator(config)
        rng = np.random.default_rng(seed)
        allocator.improvement_round(self.state, rng)
        return self._export(config, initial_profit=NEG_INF)

    def _export(
        self, config: SolverConfig, initial_profit: float
    ) -> ShardRoundResult:
        profit = evaluate_profit(
            self.sub_system, self.state.allocation, require_all_served=False
        ).total_profit
        unplaced = tuple(
            cid
            for cid in self.spec.client_ids
            if not self.state.allocation.entries_of_client(cid)
        )
        cache = self.state.cache
        self.nonce = _next_nonce()
        return ShardRoundResult(
            shard_id=self.spec.shard_id,
            rows=self.state.export_rows(),
            profit=profit,
            initial_profit=initial_profit,
            usage=self.state.cluster_usage_summary(),
            unplaced=unplaced,
            marginal=self._marginal_response(config),
            cache_stats=dict(cache.stats) if cache is not None else {},
            nonce=self.nonce,
        )

    def _marginal_response(self, config: SolverConfig) -> Dict[int, float]:
        """Best eq.-(16) one-grid-unit profit per cluster, probe clients.

        The shard's marginal-profit response surface, reported upward so
        the coordinator can route stragglers toward shards that can still
        host profitably (``-inf`` marks a saturated cluster slice).
        """
        probes = [
            self.sub_system.client(cid) for cid in self.spec.client_ids[:3]
        ]
        response: Dict[int, float] = {}
        for kid, sids in self.state.cluster_server_ids.items():
            best = NEG_INF
            for client in probes:
                _, values, _, _ = batched_server_curves(
                    self.state, client, sids, config
                )
                if values.shape[1] > 1:
                    best = max(best, float(values[:, 1].max()))
            response[kid] = best
        return response


def _store_runtime(runtime: _ShardRuntime) -> None:
    _SHARD_RUNTIMES[runtime.spec.shard_id] = runtime
    while len(_SHARD_RUNTIMES) > _RUNTIME_LIMIT:
        _SHARD_RUNTIMES.pop(next(iter(_SHARD_RUNTIMES)))


def _shard_solve_task(
    args: Tuple[ShardSpec, int, PriceTuple]
) -> ShardRoundResult:
    """Round-0 task: cold-build the runtime and run the full heuristic."""
    spec, seed, prices = args
    assert distributed._WORKER_SYSTEM is not None
    assert distributed._WORKER_CONFIG is not None
    started = time.perf_counter()
    runtime = _ShardRuntime(
        distributed._WORKER_SYSTEM, spec, distributed._WORKER_CONFIG
    )
    result = runtime.solve_initial(seed, prices)
    _store_runtime(runtime)
    return replace(result, solve_seconds=time.perf_counter() - started)


def _shard_improve_task(
    args: Tuple[ShardSpec, AllocationRows, int, PriceTuple, Tuple[int, int]]
) -> ShardRoundResult:
    """Coordination-round task: warm-continue or cold-rebuild, then improve."""
    spec, rows, seed, prices, expected_nonce = args
    assert distributed._WORKER_SYSTEM is not None
    assert distributed._WORKER_CONFIG is not None
    started = time.perf_counter()
    runtime = _SHARD_RUNTIMES.get(spec.shard_id)
    if (
        runtime is None
        or runtime.spec != spec
        or runtime.nonce != expected_nonce
    ):
        runtime = _ShardRuntime(
            distributed._WORKER_SYSTEM, spec, distributed._WORKER_CONFIG
        )
        runtime.state.restore_rows(rows)
        runtime.last_prices = None
        _store_runtime(runtime)
    result = runtime.improve_round(seed, prices)
    return replace(result, solve_seconds=time.perf_counter() - started)


class _InlineExecutor:
    """Drop-in for the worker pool when only one worker would exist.

    On a single-core host a process pool buys no parallelism but still
    pays system pickling, task serialization and IPC on every dispatch.
    This executor runs the very same task functions in-process: it
    installs the system/config in :mod:`repro.core.distributed`'s
    worker globals (exactly what ``_pool_initializer`` does in a worker)
    and maps tasks synchronously, so shard runtimes, nonces and results
    are bit-identical to a one-worker pool — the tasks are deterministic
    functions of their arguments and the installed system.
    """

    def __init__(self, system: CloudSystem, worker_config: SolverConfig) -> None:
        self._system = system
        self._worker_config = worker_config

    def map(self, fn, tasks):
        distributed._pool_initializer(self._system, self._worker_config)
        return [fn(task) for task in tasks]


# -- coordinator --------------------------------------------------------------


def _super_shard_groups(count: int) -> List[range]:
    """Contiguous shard-index ranges, one per super-shard (level 2).

    ~sqrt(count) groups of ~sqrt(count) shards: the root coordinator
    then deals with group summaries and group row-merges only, never
    with more than ~sqrt(count) objects at a level.
    """
    num_groups = max(1, int(np.ceil(np.sqrt(count))))
    bounds = np.linspace(0, count, num_groups + 1).astype(int)
    return [
        range(int(start), int(stop))
        for start, stop in zip(bounds[:-1], bounds[1:])
        if stop > start
    ]


def _coordination_prices(
    config: SolverConfig, results: Sequence[ShardRoundResult]
) -> PriceTuple:
    """Congestion re-pricing from the merged per-cluster usage summaries."""
    used: Dict[int, float] = {}
    servers: Dict[int, int] = {}
    for result in results:
        for kid, usage in result.usage.items():
            used[kid] = used.get(kid, 0.0) + usage.used_bandwidth
            servers[kid] = servers.get(kid, 0) + usage.total_servers
    base = config.bandwidth_shadow_price
    pairs = []
    for kid in sorted(used):
        utilization = used[kid] / servers[kid] if servers[kid] else 0.0
        pairs.append((kid, base * (1.0 + SHARD_PRICE_GAIN * utilization)))
    return tuple(pairs)


def _strip_clients(rows: AllocationRows, drop: Set[int]) -> AllocationRows:
    if not drop:
        return rows
    drop_list = list(drop)
    keep_a = ~np.isin(rows.assign_clients, drop_list)
    keep_e = ~np.isin(rows.entry_clients, drop_list)
    return AllocationRows(
        rows.assign_clients[keep_a],
        rows.assign_clusters[keep_a],
        rows.entry_clients[keep_e],
        rows.entry_servers[keep_e],
        rows.alpha[keep_e],
        rows.phi_p[keep_e],
        rows.phi_b[keep_e],
    )


def _reassign_stragglers(
    system: CloudSystem,
    specs: List[ShardSpec],
    results: Sequence[ShardRoundResult],
) -> Tuple[List[ShardSpec], Dict[int, Set[int]]]:
    """Move unplaced clients to the shard most likely to host them.

    Targets are ranked by (can any cluster slice still host a probe
    client profitably, total free capacity); the free-capacity score is
    decremented by a rough demand estimate as clients are routed, so one
    round spreads stragglers instead of dogpiling the roomiest shard.
    Returns the updated specs plus, per donor shard, the clients to strip
    from its shipped rows.
    """
    free_score = {
        r.shard_id: sum(
            u.free_processing + u.free_bandwidth for u in r.usage.values()
        )
        for r in results
    }
    can_host = {
        r.shard_id: any(m > NEG_INF for m in r.marginal.values())
        for r in results
    }
    members: Dict[int, Set[int]] = {
        spec.shard_id: set(spec.client_ids) for spec in specs
    }
    moved_from: Dict[int, Set[int]] = {}
    moved_any = False
    for result in results:
        for cid in sorted(result.unplaced):
            source = result.shard_id
            candidates = [s for s in free_score if s != source]
            if not candidates:
                continue
            target = max(
                candidates, key=lambda s: (can_host[s], free_score[s], -s)
            )
            if not can_host[target] or free_score[target] <= free_score[source]:
                continue
            client = system.client(cid)
            members[source].discard(cid)
            members[target].add(cid)
            moved_from.setdefault(source, set()).add(cid)
            free_score[target] -= client.rate_predicted * (
                client.t_proc + client.t_comm
            )
            moved_any = True
    if not moved_any:
        return specs, {}
    new_specs = [
        ShardSpec(
            shard_id=spec.shard_id,
            client_ids=tuple(sorted(members[spec.shard_id])),
            server_ids=spec.server_ids,
        )
        for spec in specs
    ]
    return new_specs, moved_from


class ShardedAllocator:
    """Hierarchical solver: disjoint shard solves + price coordination.

    Partitions the system into ``config.num_shards`` balanced shards
    (:func:`plan_shards`), solves each with the full heuristic on the
    persistent worker pool, then runs ``config.shard_coordination_rounds``
    rounds of per-cluster price updates, straggler reassignment and
    shard-local improvement.  Returns the best merged allocation found
    across rounds (shards are disjoint, so the sum of shard profits *is*
    the merged profit).  Use as a context manager — or call
    :meth:`close` — to release the worker processes.
    """

    def __init__(self, config: Optional[SolverConfig] = None) -> None:
        base = config or SolverConfig()
        self.config = base
        # Shards run the full heuristic (they hold every cluster's slice,
        # so cross-cluster reassignment stays on); nested sharding is off.
        self._worker_config = replace(base, num_shards=1)
        self._pool_manager = WorkerPool()
        #: Telemetry of the most recent :meth:`solve` — shard count and
        #: aggregate per-shard solve seconds.  Read by the scale
        #: benchmark; not part of the result contract.
        self.last_telemetry: Dict[str, object] = {}

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent)."""
        self._pool_manager.close()

    def __enter__(self) -> "ShardedAllocator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def solve(self, system: CloudSystem) -> AllocationResult:
        started = time.perf_counter()
        config = self.config
        count = max(1, min(config.num_shards, system.num_clients, system.num_servers))
        self.last_telemetry = {"shard_count": count}
        if count <= 1:
            # Degenerate partition: the hierarchy adds nothing over the
            # plain heuristic, so run it directly.
            return ResourceAllocator(config).solve(system)

        specs = plan_shards(system, count)
        max_workers = config.num_workers or min(count, os.cpu_count() or 1)
        if max_workers == 1:
            # A one-worker pool has no parallelism to offer; run the same
            # task functions in-process and skip pickling/IPC entirely.
            pool = _InlineExecutor(system, self._worker_config)
        else:
            pool = self._pool_manager.acquire(
                system, self._worker_config, max_workers
            )
        seed_source = np.random.default_rng(config.seed)
        rounds = config.shard_coordination_rounds
        seeds = seed_source.integers(0, 2**31 - 1, size=(rounds + 1, count))
        if config.shard_levels == 2 and count >= 4:
            groups = _super_shard_groups(count)
        else:
            groups = [range(count)]
        best_rows, initial_profit, history = self._coordinate(
            system, specs, groups, pool, seeds
        )

        merged = Allocation.from_rows(best_rows)
        if config.shard_final_rounds > 0:
            merged, polish_history = self._polish_merged(system, merged)
            history.extend(polish_history)
        # Same scoring discipline as the unsharded allocator: an unserved
        # client (one no shard managed to place) marks the breakdown
        # infeasible rather than being silently dropped.
        breakdown = evaluate_profit(system, merged)
        return AllocationResult(
            allocation=merged,
            breakdown=breakdown,
            initial_profit=initial_profit,
            profit_history=history,
            rounds=len(history) - 1,
            runtime_seconds=time.perf_counter() - started,
        )

    def _coordinate(
        self,
        system: CloudSystem,
        specs: List[ShardSpec],
        groups: List[range],
        pool,
        seeds: np.ndarray,
    ) -> Tuple[AllocationRows, float, List[float]]:
        """Shard solves and coordination rounds over groups of shards.

        ``groups`` partitions the shard indices into contiguous ranges:
        one range over every shard is the flat coordinator, ~sqrt(S)
        ranges (:func:`_super_shard_groups`) the two-tier one.  The shard
        *plan* is the same either way; only the coordination topology
        changes.  Each group dispatches its member shards and merges
        their row tables once per round; the root then merges the group
        tables — so with several groups no ``AllocationRows.concatenate``
        call sees all S row sets at once, yet the final table is
        bitwise-identical to the flat merge of the same results
        (concatenation in shard order is associative; property-tested).
        Prices stay global — the usage summaries are summed in shard
        order whatever the grouping — while straggler reassignment is
        confined within each group (a donor's rows and a receiver's spec
        then never cross a group boundary, keeping every group merge
        self-contained).

        With ``shard_coordination_rounds == 0`` the per-shard results are
        released as soon as their group is merged, bounding peak memory
        by one group's row tables plus the running merges — the scale
        profile.

        Returns the best round's merged rows, the summed initial
        (pre-local-search) profit and the per-round profit history.
        """
        rounds = self.config.shard_coordination_rounds
        shard_seconds: List[float] = []

        group_results: List[List[ShardRoundResult]] = []
        group_rows: List[AllocationRows] = []
        # Per-shard profits are collected in shard order and summed once:
        # summing per group and then across groups would make the float
        # accumulation order, hence the totals' last bits, depend on the
        # grouping.
        initial_profits: List[float] = []
        round_profits: List[float] = []
        for group in groups:
            results = list(
                pool.map(
                    _shard_solve_task,
                    [(specs[i], int(seeds[0, i]), None) for i in group],
                )
            )
            initial_profits.extend(r.initial_profit for r in results)
            round_profits.extend(r.profit for r in results)
            shard_seconds.extend(r.solve_seconds for r in results)
            group_rows.append(
                AllocationRows.concatenate([r.rows for r in results])
            )
            if rounds > 0:
                group_results.append(results)
            del results
        initial_profit = sum(initial_profits)
        round_profit = sum(round_profits)
        history = [round_profit]
        best_profit = round_profit
        best_rows = AllocationRows.concatenate(group_rows)
        del group_rows

        for round_index in range(1, rounds + 1):
            prices = _coordination_prices(
                self.config, [r for results in group_results for r in results]
            )
            new_group_results: List[List[ShardRoundResult]] = []
            new_group_rows: List[AllocationRows] = []
            round_profits = []
            for gi, group in enumerate(groups):
                g_specs = [specs[i] for i in group]
                g_specs, moved_from = _reassign_stragglers(
                    system, g_specs, group_results[gi]
                )
                for local, i in enumerate(group):
                    specs[i] = g_specs[local]
                by_shard = {r.shard_id: r for r in group_results[gi]}
                tasks = []
                for local, i in enumerate(group):
                    spec = g_specs[local]
                    prev = by_shard[spec.shard_id]
                    rows = _strip_clients(
                        prev.rows, moved_from.get(spec.shard_id, set())
                    )
                    # Shards whose client set changed (donors and
                    # receivers) fail the worker-side spec comparison and
                    # rebuild cold from these rows; unchanged shards
                    # warm-continue only when the nonce proves their
                    # resident state produced exactly these rows.
                    tasks.append(
                        (spec, rows, int(seeds[round_index, i]), prices, prev.nonce)
                    )
                results = list(pool.map(_shard_improve_task, tasks))
                round_profits.extend(r.profit for r in results)
                shard_seconds.extend(r.solve_seconds for r in results)
                new_group_rows.append(
                    AllocationRows.concatenate([r.rows for r in results])
                )
                new_group_results.append(results)
            group_results = new_group_results
            round_profit = sum(round_profits)
            history.append(round_profit)
            if round_profit > best_profit:
                best_profit = round_profit
                best_rows = AllocationRows.concatenate(new_group_rows)

        self.last_telemetry["shard_solve_seconds_total"] = sum(shard_seconds)
        self.last_telemetry["shard_solve_seconds_max"] = max(shard_seconds)
        return best_rows, initial_profit, history

    def _polish_merged(
        self, system: CloudSystem, merged: Allocation
    ) -> Tuple[Allocation, List[float]]:
        """The hierarchy's repair step: global rounds on the merged state.

        Shard-local solving can never consider a placement that crosses
        shard boundaries; these sequential improvement rounds see the
        whole system, so clients re-disperse onto any server and the
        usual tolerance exit applies.  This closes most of the partition
        gap (measured in BENCH_scale.json).
        """
        config = self.config
        state = WorkingState(system, merged)
        if config.use_delta_scoring:
            DeltaScorer(state, validate=config.validate_delta_scoring)
        maybe_attach_cache(state, config)
        state.canonicalize()
        if state.scorer is not None:
            state.scorer.mark_all()
            state.scorer.resync()
        allocator = ResourceAllocator(config)
        rng = np.random.default_rng(config.seed)
        blocked: Set[int] = set()
        history: List[float] = []
        profit = evaluate_profit(
            system, state.allocation, require_all_served=False
        ).total_profit
        for _ in range(config.shard_final_rounds):
            allocator.improvement_round(state, rng, blocked)
            new_profit = evaluate_profit(
                system, state.allocation, require_all_served=False
            ).total_profit
            history.append(new_profit)
            if new_profit <= profit + config.improvement_tolerance:
                break
            profit = new_profit
        return state.allocation, history
