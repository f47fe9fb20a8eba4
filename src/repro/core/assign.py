"""``Assign_Distribute`` — place one client inside one cluster (section V.A).

For a candidate cluster the constructor answers: *if this client joined
this cluster right now, how would its traffic best split across servers,
what shares would it get, and what profit would that earn?*

Following the paper:

* the utility is replaced by its linear surrogate ``v - beta * R``;
* ``alpha`` is discretized on a grid of ``G = config.alpha_granularity``
  steps; for each server and each grid point the optimal shares come from
  the closed form of eq. (16) (processing priced at the server's real
  ``P1``, bandwidth at the configured shadow price);
* servers without enough free disk for the client are excluded up front
  (constraint (8));
* a dynamic program combines the per-server curves into traffic portions
  summing to exactly one;
* inactive servers carry their activation cost ``P0`` on any positive
  traffic, so the constructor weighs consolidation against queueing delay;
* per-server-class memoization: servers of the same class with identical
  free capacity and activity (e.g. all still-empty servers of one SKU)
  share one curve evaluation.

Two curve kernels implement the same eq.-(16) arithmetic:

* :func:`_server_curves` — the scalar reference: one server, one Python
  loop over the grid;
* :func:`batched_server_curves` — the production kernel: all memo-unique
  servers of a cluster times all ``G`` grid points in single NumPy
  expressions.  Every element goes through the identical sequence of
  IEEE-754 operations, so the two kernels agree bit-for-bit
  (property-tested in ``tests/core/test_vectorized.py``).

``SolverConfig.use_vectorized_kernels`` selects the kernel (and the
matching array vs. scalar DP).

When the working state carries a :class:`~repro.core.cache.MemoCache`
(``SolverConfig.use_curve_cache``), a third path serves curves from a
per-client :class:`~repro.core.cache.CurveBlock` — the client's curve
matrix over the whole server universe.  Validation is two-tier: one
vectorized compare of per-server mutation epochs narrows to rows a
mutation may have touched, then those rows' stored capacity inputs are
compared by value, and only rows whose inputs actually changed are
recomputed.  The per-cluster DP is memoized against the block's per-row
content versions.  The kernel is element-wise per row, so a patched
subset batch produces bitwise the rows a full batch would — making the
cached path bit-identical to the uncached one (differentially
verified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SolverConfig
from repro.core.cache import CurveBlock, MemoCache
from repro.core.state import WorkingState
from repro.model.client import Client
from repro.optim.dp import (
    NEG_INF,
    combine_curve_batches,
    combine_server_curves,
    combine_server_curves_scalar,
)

#: (alpha, phi_p, phi_b) chosen for one server.
EntryTriple = Tuple[float, float, float]

#: Below this many curve cells (servers x (G+1)) the memoized scalar loop
#: beats the batched NumPy kernel, whose fixed broadcast/dispatch
#: overhead dominates tiny batches (measured on the reference host:
#: scalar wins to ~66 cells, the array kernel from ~88 cells — the
#: scalar twin's matrix scatter eats its memo win beyond a handful of
#: servers).  Mirrors ``SCALAR_CROSSOVER_CELLS`` in
#: :mod:`repro.optim.dp`; asserted never slower than scalar by
#: ``benchmarks/check_regression.py``.
CURVE_SCALAR_CROSSOVER_CELLS = 72

#: Rounding room of the cluster screen in :func:`best_placement`: a
#: cluster is dropped only when its summed headroom misses the client's
#: need by more than this share of the need plus this share of the
#: cluster's summed capacity.  Both dwarf the few-ulp error of the
#: kernel's per-server floor test and of the headroom sums, so rounding
#: can never drop a cluster the kernel would accept.
SCREEN_RELATIVE_SLACK = 1e-9
SCREEN_CAPACITY_SLACK = 1e-12


@dataclass(frozen=True)
class CandidatePlacement:
    """Outcome of ``Assign_Distribute`` for one (client, cluster) pair."""

    client_id: int
    cluster_id: int
    estimated_profit: float
    entries: Dict[int, EntryTriple]


def _closed_form_share(
    service_per_share: float,
    arrival: float,
    weight: float,
    price: float,
    lower: float,
    upper: float,
) -> float:
    """Eq. (16): the bounded optimal share for one queue."""
    if weight <= 0.0:
        return lower
    if price <= 0.0:
        return upper
    unclipped = (
        arrival + math.sqrt(weight * service_per_share / price)
    ) / service_per_share
    return min(max(unclipped, lower), upper)


def _server_curves(
    state: WorkingState,
    client: Client,
    server_id: int,
    config: SolverConfig,
) -> Tuple[List[float], List[Tuple[float, float]]]:
    """Profit curve and matching share choices for one server.

    Returns ``(values, shares)`` where ``values[g]`` is the estimated
    profit contribution of sending ``g / G`` of the client's traffic here
    and ``shares[g]`` the (phi_p, phi_b) that achieves it.  Infeasible
    grid points are ``-inf``.
    """
    granularity = config.alpha_granularity
    values = [NEG_INF] * (granularity + 1)
    shares: List[Tuple[float, float]] = [(0.0, 0.0)] * (granularity + 1)
    values[0] = 0.0

    server = state.system.server(server_id)
    if state.free_storage(server_id) < client.storage_req:
        return values, shares

    free_p = state.free_processing(server_id)
    free_b = state.free_bandwidth(server_id)
    was_active = state.server_is_active(server_id)
    linear = client.utility_class.linear_approximation()
    weight_base = client.rate_agreed * linear.slope
    s_p = server.cap_processing / client.t_proc
    s_b = server.cap_bandwidth / client.t_comm
    # Capacity is priced at its opportunity cost, not just the marginal
    # energy cost: a hogged share forces the next client onto a fresh
    # server at P0 (see SolverConfig.capacity_price_factor).
    amortized = config.capacity_price_factor * server.server_class.power_fixed
    price_p = server.server_class.power_per_util + amortized
    price_b = state.bandwidth_price_of(server_id, config) + amortized

    for g in range(1, granularity + 1):
        alpha = g / granularity
        arrival = alpha * client.rate_predicted
        weight = weight_base * alpha
        lower_p = arrival / s_p * config.stability_margin + config.min_share
        lower_b = arrival / s_b * config.stability_margin + config.min_share
        if lower_p > free_p or lower_b > free_b:
            continue
        phi_p = _closed_form_share(s_p, arrival, weight, price_p, lower_p, free_p)
        phi_b = _closed_form_share(s_b, arrival, weight, price_b, lower_b, free_b)
        head_p = s_p * phi_p - arrival
        head_b = s_b * phi_b - arrival
        if head_p <= 0.0 or head_b <= 0.0:
            continue
        response_cost = alpha * (1.0 / head_p + 1.0 / head_b)
        # The shadow prices above only size the shares; the DP ranks grid
        # points by the *real* incremental cost (energy + activation).
        value = (
            -weight_base * response_cost
            - server.server_class.power_per_util * phi_p
        )
        if not was_active:
            value -= server.server_class.power_fixed
        values[g] = value
        shares[g] = (phi_p, phi_b)
    return values, shares


def batched_server_curves(
    state: WorkingState,
    client: Client,
    server_ids: Sequence[int],
    config: SolverConfig,
) -> Tuple[List[int], np.ndarray, np.ndarray, np.ndarray]:
    """Eq.-(16) curves for many servers at once.

    Returns ``(rows, values, phi_p, phi_b)`` where ``rows[i]`` indexes the
    matrix row holding the curve of ``server_ids[i]``, ``values`` is the
    ``(n, G + 1)`` profit matrix (``-inf`` marks infeasible points, column
    0 is the no-traffic point) and the ``phi`` matrices hold the matching
    share choices.  Rows map one-to-one: an earlier version deduped
    signature-equal servers onto shared rows, but building those Python
    keys cost more than the duplicate NumPy lanes they saved, and since
    the kernel is element-wise per row the duplicates are bitwise equal
    anyway.
    """
    idx = state.server_indices(server_ids)
    values, phi_p_out, phi_b_out = _curves_at_indices(state, client, idx, config)
    return list(range(len(server_ids))), values, phi_p_out, phi_b_out


def _curves_at_indices(
    state: WorkingState,
    client: Client,
    idx: np.ndarray,
    config: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Curve matrices for the servers at dense-array rows ``idx``.

    The free-capacity/activity inputs come straight from the state's
    incrementally maintained aggregate arrays; each output row runs the
    identical IEEE operation sequence as the scalar kernel on that server,
    independent of which other rows share the batch — which is what makes
    subset batches (cache patching) bitwise exact.

    Small batches (below :data:`CURVE_SCALAR_CROSSOVER_CELLS` cells)
    dispatch to the signature-memoized scalar kernel, which produces the
    same matrices bit-for-bit (the two kernels are property-tested
    identical) without NumPy's per-expression launch overhead.
    """
    granularity = config.alpha_granularity
    if len(idx) * (granularity + 1) <= CURVE_SCALAR_CROSSOVER_CELLS:
        return _curves_scalar_at_indices(state, client, idx, config)

    fp = 1.0 - state._bg_p_arr[idx] - state._used_p_arr[idx]
    fp = np.where(fp < 0.0, 0.0, fp)
    fb = 1.0 - state._bg_b_arr[idx] - state._used_b_arr[idx]
    fb = np.where(fb < 0.0, 0.0, fb)
    fs = state._fs_base_arr[idx] - state._used_s_arr[idx]
    fs = np.where(fs < 0.0, 0.0, fs)
    usable = fs >= client.storage_req
    active = state._hasbg_arr[idx] | (state._active_arr[idx] > 0)

    n = len(idx)
    values = np.full((n, granularity + 1), NEG_INF)
    values[:, 0] = 0.0
    phi_p_out = np.zeros((n, granularity + 1))
    phi_b_out = np.zeros((n, granularity + 1))
    if not usable.any():
        return values, phi_p_out, phi_b_out

    s_p = state._cap_p_arr[idx] / client.t_proc
    s_b = state._cap_b_arr[idx] / client.t_comm
    # Capacity is priced at its opportunity cost, not just the marginal
    # energy cost (see SolverConfig.capacity_price_factor).
    amortized = config.capacity_price_factor * state._pfix_arr[idx]
    power_per_util = state._ppu_arr[idx]
    power_fixed = state._pfix_arr[idx]
    price_p = power_per_util + amortized
    price_b = state.bandwidth_prices_at(idx, config) + amortized
    free_p = fp
    free_b = fb

    linear = client.utility_class.linear_approximation()
    weight_base = client.rate_agreed * linear.slope

    grid = np.arange(1, granularity + 1)
    alpha = grid / granularity  # (G,)
    arrival = alpha * client.rate_predicted
    weight = weight_base * alpha
    s_p_col = s_p[:, None]
    s_b_col = s_b[:, None]
    lower_p = arrival[None, :] / s_p_col * config.stability_margin + config.min_share
    lower_b = arrival[None, :] / s_b_col * config.stability_margin + config.min_share
    feasible = (lower_p <= free_p[:, None]) & (lower_b <= free_b[:, None])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if weight_base <= 0.0:
            # Scalar kernel: non-positive weight pins the share at its
            # stability lower bound.
            phi_p = lower_p
            phi_b = lower_b
        else:
            # price == 0 rows degrade gracefully: sqrt(w*s/0) = inf, and
            # the upper clip then returns the free capacity — exactly the
            # scalar kernel's "zero price takes everything" branch.
            phi_p = np.minimum(
                np.maximum(
                    (arrival[None, :] + np.sqrt(weight[None, :] * s_p_col / price_p[:, None]))
                    / s_p_col,
                    lower_p,
                ),
                free_p[:, None],
            )
            phi_b = np.minimum(
                np.maximum(
                    (arrival[None, :] + np.sqrt(weight[None, :] * s_b_col / price_b[:, None]))
                    / s_b_col,
                    lower_b,
                ),
                free_b[:, None],
            )
        head_p = s_p_col * phi_p - arrival[None, :]
        head_b = s_b_col * phi_b - arrival[None, :]
        ok = usable[:, None] & feasible & (head_p > 0.0) & (head_b > 0.0)
        response_cost = alpha[None, :] * (1.0 / head_p + 1.0 / head_b)
        value = -weight_base * response_cost - power_per_util[:, None] * phi_p
        value = np.where(active[:, None], value, value - power_fixed[:, None])

    values[:, 1:] = np.where(ok, value, NEG_INF)
    phi_p_out[:, 1:] = np.where(ok, phi_p, 0.0)
    phi_b_out[:, 1:] = np.where(ok, phi_b, 0.0)
    return values, phi_p_out, phi_b_out


def _curves_scalar_at_indices(
    state: WorkingState,
    client: Client,
    idx: np.ndarray,
    config: SolverConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Scalar twin of the batched curve kernel for small batches.

    Runs :func:`_server_curves` per memo-unique signature (class, free
    capacities, storage fit, activity, bandwidth price) and scatters the
    resulting rows into the same matrices the vectorized kernel returns.
    Signature-equal servers — typically the still-empty ones of one SKU —
    share a single curve evaluation, which is where the scalar path's win
    on small clusters comes from.
    """
    granularity = config.alpha_granularity
    count = len(idx)
    values = np.full((count, granularity + 1), NEG_INF)
    values[:, 0] = 0.0
    phi_p_out = np.zeros((count, granularity + 1))
    phi_b_out = np.zeros((count, granularity + 1))
    sid_order = state._sid_order
    memo: Dict[Tuple, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
    for row in range(count):
        sid = sid_order[idx[row]]
        key = (
            state.server_statics[sid].class_index,
            state.free_processing(sid),
            state.free_bandwidth(sid),
            state.free_storage(sid) >= client.storage_req,
            state.server_is_active(sid),
            state.bandwidth_price_of(sid, config),
        )
        rows = memo.get(key)
        if rows is None:
            curve, shares = _server_curves(state, client, sid, config)
            share_arr = np.asarray(shares)
            rows = (np.asarray(curve), share_arr[:, 0], share_arr[:, 1])
            memo[key] = rows
        values[row] = rows[0]
        phi_p_out[row] = rows[1]
        phi_b_out[row] = rows[2]
    return values, phi_p_out, phi_b_out


def assign_distribute(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    config: SolverConfig,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> Optional[CandidatePlacement]:
    """Best placement of ``client`` inside ``cluster_id`` given free capacity.

    Returns ``None`` when the cluster cannot stably host the client's full
    traffic under current free capacities.  The placement is *not* applied;
    use :func:`apply_placement`.  ``excluded_server_ids`` removes servers
    from consideration (used when evacuating a server to turn it off).
    """
    cluster = state.system.cluster(cluster_id)
    if not cluster.servers:
        return None
    excluded = excluded_server_ids or frozenset()
    eligible = [s.server_id for s in cluster if s.server_id not in excluded]
    if not eligible:
        return None

    if config.use_vectorized_kernels:
        cache = state.cache
        if cache is not None:
            return _assign_distribute_cached(
                state, client, cluster_id, eligible, config, cache
            )
        return _assign_distribute_vectorized(
            state, client, cluster_id, eligible, config
        )
    return _assign_distribute_scalar(state, client, cluster_id, eligible, config)


def _assign_distribute_scalar(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    eligible: Sequence[int],
    config: SolverConfig,
) -> Optional[CandidatePlacement]:
    """Reference path: per-server scalar curves + pure-Python DP."""
    # Memoize curves per (class, capacity signature): interchangeable
    # servers — typically the still-empty ones of a SKU — share one solve.
    cache: Dict[Tuple, Tuple[List[float], List[Tuple[float, float]]]] = {}
    curves: List[List[float]] = []
    share_tables: List[List[Tuple[float, float]]] = []
    server_ids: List[int] = []
    for sid in eligible:
        server = state.system.server(sid)
        key = (
            server.server_class.index,
            state.free_processing(sid),
            state.free_bandwidth(sid),
            state.free_storage(sid) >= client.storage_req,
            state.server_is_active(sid),
        )
        if key not in cache:
            cache[key] = _server_curves(state, client, sid, config)
        values, shares = cache[key]
        curves.append(values)
        share_tables.append(shares)
        server_ids.append(sid)

    total, units = combine_server_curves_scalar(curves, config.alpha_granularity)
    if total == NEG_INF:
        return None

    entries: Dict[int, EntryTriple] = {}
    for idx, g in enumerate(units):
        if g == 0:
            continue
        alpha = g / config.alpha_granularity
        phi_p, phi_b = share_tables[idx][g]
        entries[server_ids[idx]] = (alpha, phi_p, phi_b)
    return _finish_placement(client, cluster_id, total, entries)


def _assign_distribute_vectorized(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    eligible: Sequence[int],
    config: SolverConfig,
) -> Optional[CandidatePlacement]:
    """Production path: batched NumPy curves + array DP.

    Servers whose whole positive-traffic curve is infeasible are pruned
    before the DP — they could only ever take 0 grid units, so dropping
    them is exact and shrinks the DP when a cluster is mostly full.
    """
    idx = state.server_indices(eligible)
    values, phi_p, phi_b = _curves_at_indices(state, client, idx, config)
    rows = np.nonzero(values[:, 1:].max(axis=1) > NEG_INF)[0]

    granularity = config.alpha_granularity
    total, units = combine_server_curves([values[r] for r in rows], granularity)
    if total == NEG_INF:
        return None

    entries: Dict[int, EntryTriple] = {}
    for row, g in zip(rows, units):
        if g == 0:
            continue
        entries[eligible[row]] = (
            g / granularity,
            float(phi_p[row, g]),
            float(phi_b[row, g]),
        )
    return _finish_placement(client, cluster_id, total, entries)


def _client_curve_block(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    cache: MemoCache,
) -> CurveBlock:
    """The client's memoized curve matrix over the whole server universe.

    Validation is two-tier.  A vectorized compare of the block's stored
    epoch snapshot against the state's live epoch array narrows to the
    rows a mutation may have touched; those rows' stored capacity inputs
    are then compared *by value*, and only rows whose inputs actually
    changed are recomputed through :func:`_curves_at_indices` and patched
    in place (bumping their content version for the DP memo).  The curve
    kernel is a pure element-wise function of the compared inputs, so
    every row served from the block — including rows whose epoch moved
    but whose inputs came back, e.g. after a rejected move's rollback or
    a snapshot restore — is bitwise the row a fresh full evaluation would
    produce.
    """
    token = cache.client_token(client)
    blocks = cache._blocks
    epochs = state._epoch_arr
    stats = cache.stats
    block = blocks.get(token[0])
    if block is not None and block.token == token:
        moved = np.nonzero(block.epochs != epochs)[0]
        if moved.size == 0:
            stats["curve_hits"] += 1
            return block
        cur_p = state._used_p_arr[moved]
        cur_b = state._used_b_arr[moved]
        cur_s = state._used_s_arr[moved]
        cur_act = state._hasbg_arr[moved] | (state._active_arr[moved] > 0)
        differs = (
            (block.in_p[moved] != cur_p)
            | (block.in_b[moved] != cur_b)
            | (block.in_s[moved] != cur_s)
            | (block.in_act[moved] != cur_act)
        )
        block.epochs[moved] = epochs[moved]
        if not differs.any():
            stats["curve_hits"] += 1
            return block
        changed = moved[differs]
        stats["curve_patches"] += 1
        values, phi_p, phi_b = _curves_at_indices(state, client, changed, config)
        block.values[changed] = values
        block.phi_p[changed] = phi_p
        block.phi_b[changed] = phi_b
        block.row_ok[changed] = values[:, 1:].max(axis=1) > NEG_INF
        block.in_p[changed] = cur_p[differs]
        block.in_b[changed] = cur_b[differs]
        block.in_s[changed] = cur_s[differs]
        block.in_act[changed] = cur_act[differs]
        block.row_version[changed] += 1
        return block
    stats["curve_misses"] += 1
    idx = np.arange(len(epochs), dtype=np.intp)
    values, phi_p, phi_b = _curves_at_indices(state, client, idx, config)
    block = CurveBlock(
        token,
        epochs.copy(),
        state._used_p_arr.copy(),
        state._used_b_arr.copy(),
        state._used_s_arr.copy(),
        state._hasbg_arr | (state._active_arr > 0),
        values,
        phi_p,
        phi_b,
        values[:, 1:].max(axis=1) > NEG_INF,
    )
    if len(blocks) >= cache.max_curve_entries:
        # The DP memo goes with the blocks: a rebuilt block restarts its
        # row versions at zero, which must not alias tables computed
        # against the evicted block's content.
        blocks.clear()
        cache._dp.clear()
        stats["evictions"] += 1
    blocks[token[0]] = block
    return block


def _block_cluster_solve(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    block: CurveBlock,
    idx: np.ndarray,
    granularity: int,
) -> Optional[CandidatePlacement]:
    """DP over a block's rows at ``idx`` (unmemoized; exclusion path)."""
    sel = idx[block.row_ok[idx]]
    values = block.values
    total, units = combine_server_curves([values[i] for i in sel], granularity)
    if total == NEG_INF:
        return None
    return _finish_placement(
        client, cluster_id, total, _block_entries(state, block, sel, units, granularity)
    )


def _block_entries(
    state: WorkingState,
    block: CurveBlock,
    sel: np.ndarray,
    units: Sequence[int],
    granularity: int,
) -> Dict[int, EntryTriple]:
    sid_order = state._sid_order
    entries: Dict[int, EntryTriple] = {}
    for i, g in zip(sel, units):
        if g == 0:
            continue
        entries[sid_order[i]] = (
            g / granularity,
            float(block.phi_p[i, g]),
            float(block.phi_b[i, g]),
        )
    return entries


def _cached_cluster_solve(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    block: CurveBlock,
    granularity: int,
    cache: MemoCache,
) -> Optional[CandidatePlacement]:
    """Whole-cluster DP memoized per (client, cluster).

    The memo holds the *finished* :class:`CandidatePlacement` (or
    ``None`` for an infeasible cluster) and is validated against the
    block's content-version counters sliced at the cluster's rows: the
    selection, every curve fed to the DP, and the resulting entries are
    functions of those rows' content alone, and the versions move
    exactly when a row's content is recomputed, so version-slice
    equality replays the exact uncached result without rebuilding it.
    """
    arr = state.cluster_index_arrays[cluster_id]
    token = block.token
    cluster_versions = block.row_version[arr]
    memo = cache._dp
    key = (token[0], cluster_id)
    hit = memo.get(key)
    if (
        hit is not None
        and hit[0] == token
        and np.array_equal(hit[1], cluster_versions)
    ):
        cache.stats["dp_hits"] += 1
        return hit[2]
    cache.stats["dp_misses"] += 1
    sel = arr[block.row_ok[arr]]
    if sel.size == 0:
        placement = None
    else:
        values = block.values
        total, units = combine_server_curves(
            [values[i] for i in sel], granularity
        )
        if total == NEG_INF:
            placement = None
        else:
            placement = _finish_placement(
                client,
                cluster_id,
                total,
                _block_entries(state, block, sel, units, granularity),
            )
    if hit is None and len(memo) >= cache.max_aux_entries:
        memo.clear()
        cache.stats["evictions"] += 1
    memo[key] = (token, cluster_versions, placement)
    return placement


def _assign_distribute_cached(
    state: WorkingState,
    client: Client,
    cluster_id: int,
    eligible: Sequence[int],
    config: SolverConfig,
    cache: MemoCache,
) -> Optional[CandidatePlacement]:
    """Memoized production path: block curve rows + per-cluster DP memo."""
    block = _client_curve_block(state, client, config, cache)
    granularity = config.alpha_granularity
    if len(eligible) == len(state.cluster_server_ids[cluster_id]):
        return _cached_cluster_solve(
            state, client, cluster_id, block, granularity, cache
        )
    # Exclusions change the DP's input set, so bypass the whole-cluster
    # memo rather than key on arbitrary subsets.
    return _block_cluster_solve(
        state, client, cluster_id, block, state.server_indices(eligible), granularity
    )


def _finish_placement(
    client: Client,
    cluster_id: int,
    total: float,
    entries: Dict[int, EntryTriple],
) -> Optional[CandidatePlacement]:
    if not entries:
        return None
    linear = client.utility_class.linear_approximation()
    estimated = client.rate_agreed * linear.base_value + total
    return CandidatePlacement(
        client_id=client.client_id,
        cluster_id=cluster_id,
        estimated_profit=estimated,
        entries=entries,
    )


def apply_placement(state: WorkingState, placement: CandidatePlacement) -> None:
    """Write a placement into the working state (clearing prior entries)."""
    state.assign_client(placement.client_id, placement.cluster_id)
    state.clear_client(placement.client_id)
    for server_id, (alpha, phi_p, phi_b) in placement.entries.items():
        state.set_entry(placement.client_id, server_id, alpha, phi_p, phi_b)


def best_placement(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    cluster_ids: Optional[List[int]] = None,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> Optional[CandidatePlacement]:
    """``Assign_Distribute`` across clusters: pick the most profitable one.

    ``excluded_server_ids`` removes servers from every candidate cluster
    (the online service uses it to place around failed servers).  The
    production path first drops the clusters whose summed headroom
    cannot carry the client (:func:`_clusters_with_room`) and returns
    ``None`` without building a curve when none is left; the scalar
    path stays unscreened as the reference.
    """
    kids = list(cluster_ids or state.system.cluster_ids())
    excluded = excluded_server_ids or frozenset()
    if config.use_vectorized_kernels:
        kids = _clusters_with_room(state, client, config, kids, excluded)
        if not kids:
            return None
        cache = state.cache
        if cache is not None:
            return _best_placement_cached(state, client, kids, config, excluded, cache)
        return _best_placement_vectorized(state, client, kids, config, excluded)
    candidates: List[CandidatePlacement] = []
    for cluster_id in kids:
        placement = assign_distribute(
            state, client, cluster_id, config, excluded_server_ids=excluded
        )
        if placement is not None:
            candidates.append(placement)
    if not candidates:
        return None
    return max(candidates, key=lambda p: p.estimated_profit)


def _clusters_with_room(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    kids: List[int],
    excluded: AbstractSet[int],
) -> List[int]:
    """``kids`` minus the clusters that provably cannot host ``client``.

    A server taking a share ``a_j`` of the client's traffic must give it
    at least the M/M/1 floor ``a_j*lambda*t/C_j*stability_margin +
    min_share`` of each resource, so summing under ``sum(a_j) = 1`` a
    cluster can host the client only if ``sum(max(free_j - min_share,
    0)*C_j) >= lambda*t*stability_margin`` over its non-excluded servers,
    for processing and bandwidth alike.  The test is necessary, not
    sufficient: storage, the grid and the DP still decide among the
    clusters that pass, and dropping one that fails changes no result.
    """
    position, top_p, top_b = _cluster_headroom(state, config.min_share, excluded)
    stretch = (
        client.rate_predicted
        * config.stability_margin
        * (1.0 - SCREEN_RELATIVE_SLACK)
    )
    need_p = stretch * client.t_proc
    need_b = stretch * client.t_comm
    return [
        kid
        for kid in kids
        if not (top_p[position[kid]] < need_p or top_b[position[kid]] < need_b)
    ]


def _cluster_headroom(
    state: WorkingState,
    min_share: float,
    excluded: AbstractSet[int],
) -> Tuple[Dict[int, int], List[float], List[float]]:
    """Per-cluster summed headroom, padded with the capacity slack.

    Returns ``(position, top_p, top_b)``: ``top_p[position[kid]]`` is
    ``sum((max(free - min_share, 0) + SCREEN_CAPACITY_SLACK) * C)`` over
    the cluster's non-excluded servers (``-inf`` for a cluster without
    servers), ``top_b`` its bandwidth twin.  Storage is ignored, so the
    sums cover a superset of the usable servers and hold for every
    client.  They are rebuilt from the dense arrays only when the state
    has mutated since the last call, or ``min_share`` or the excluded set
    changed: a retry pass or an admission burst probes one state many
    times.  Every entry write bumps the allocation's monotone
    ``mutation_epoch``, and every bulk rebuild of the aggregates (restore,
    canonicalize) drops the memo, so the epoch is the mutation count.
    """
    mutations = state.allocation.mutation_epoch
    memo = state._screen_memo
    if (
        memo is not None
        and memo[0] == mutations
        and memo[1] == min_share
        and memo[2] == excluded
    ):
        return memo[3]
    layout = state._screen_layout
    if layout is None or layout[0] != min_share:
        layout = state._screen_layout = _screen_layout(state, min_share)
    _, position, order, starts, avail, caps, head = layout
    np.subtract(avail[0], state._used_p_arr, out=head[0])
    np.subtract(avail[1], state._used_b_arr, out=head[1])
    np.maximum(head, SCREEN_CAPACITY_SLACK, out=head)
    head *= caps
    if excluded:
        index = state._sid_index
        head[:, [index[sid] for sid in excluded if sid in index]] = 0.0
    top_p: List[float] = []
    top_b: List[float] = []
    if starts.size:
        summed = head if order is None else head[:, order]
        top_p, top_b = np.add.reduceat(summed, starts, axis=1).tolist()
    # The row every cluster without servers points at.
    top_p.append(NEG_INF)
    top_b.append(NEG_INF)
    result = (position, top_p, top_b)
    state._screen_memo = (mutations, min_share, frozenset(excluded), result)
    return result


def _screen_layout(state: WorkingState, min_share: float) -> Tuple:
    """The static half of :func:`_cluster_headroom`, built once per state.

    ``avail`` holds ``1 - background - min_share + SCREEN_CAPACITY_SLACK``
    per resource, so one subtraction and one ``np.maximum`` give the
    padded headroom; ``head`` is the scratch row pair they write into.
    ``np.add.reduceat`` needs each cluster's servers contiguous and every
    segment non-empty (an empty one would yield its successor's first
    element), so only clusters with servers are reduced, in order, and
    the rest point at one trailing ``-inf`` row.  The dense order is
    permuted only when those clusters are not already laid out back to
    back (``order`` is ``None`` when they are).
    """
    position: Dict[int, int] = {}
    parts: List[np.ndarray] = []
    for kid, arr in state.cluster_index_arrays.items():
        if arr.size:
            position[kid] = len(parts)
            parts.append(arr)
    for kid in state.cluster_index_arrays:
        position.setdefault(kid, len(parts))
    order: Optional[np.ndarray] = None
    starts = np.zeros(0, dtype=np.intp)
    if parts:
        order = np.concatenate(parts)
        if np.array_equal(order, np.arange(len(state._sid_order))):
            order = None
        starts = np.cumsum([0] + [arr.size for arr in parts[:-1]]).astype(np.intp)
    offset = SCREEN_CAPACITY_SLACK - min_share
    avail = np.stack((1.0 - state._bg_p_arr, 1.0 - state._bg_b_arr)) + offset
    caps = np.stack((state._cap_p_arr, state._cap_b_arr))
    return (min_share, position, order, starts, avail, caps, np.empty_like(avail))


def estimate_marginal_profit(
    state: WorkingState,
    client: Client,
    config: SolverConfig,
    excluded_server_ids: Optional[AbstractSet[int]] = None,
) -> float:
    """Eq.-(16) estimate of the profit admitting ``client`` would add.

    A read-only probe: the value is the ``estimated_profit`` of the
    :func:`best_placement` the engine would commit for the client right
    now — revenue term plus the summed per-server curve contributions,
    activation power included — without touching the working state.
    When a :class:`~repro.core.cache.MemoCache` is attached the probe
    reads (and warms) the same curve blocks the subsequent placement
    will use, so estimating then admitting costs one evaluation, not
    two.  A hopeless probe, one that no cluster passes the capacity
    screen for, reads and warms no curve block.  Returns ``-inf`` when
    no feasible placement exists, so callers can distinguish
    "unprofitable" from "does not fit".
    """
    placement = best_placement(
        state, client, config, excluded_server_ids=excluded_server_ids
    )
    if placement is None:
        return NEG_INF
    return placement.estimated_profit


def _best_placement_cached(
    state: WorkingState,
    client: Client,
    kids: List[int],
    config: SolverConfig,
    excluded: AbstractSet[int],
    cache: MemoCache,
) -> Optional[CandidatePlacement]:
    """Memoized cross-cluster placement.

    Mirrors :func:`_best_placement_vectorized` — one curve fetch across
    all candidate clusters (cluster membership comes from the state's
    precomputed lists), then one memoized per-cluster DP with the same
    first-maximum tie-breaks — so it returns exactly what the uncached
    path would, while repeat evaluations cost dictionary lookups.
    """
    block = _client_curve_block(state, client, config, cache)
    granularity = config.alpha_granularity
    cluster_lists = state.cluster_server_ids

    if excluded:
        best = None
        for kid in kids:
            ids = [sid for sid in cluster_lists[kid] if sid not in excluded]
            if not ids:
                continue
            placement = _block_cluster_solve(
                state, client, kid, block, state.server_indices(ids), granularity
            )
            if placement is not None and (
                best is None or placement.estimated_profit > best.estimated_profit
            ):
                best = placement
        return best

    # Memo pass: resolve every cluster against the (client, cluster)
    # placement memo first, then solve all misses in one lockstep batch.
    token = block.token
    memo = cache._dp
    cluster_arrays = state.cluster_index_arrays
    placements: List[Optional[CandidatePlacement]] = []
    miss_positions: List[int] = []
    miss_keys: List[Tuple[int, np.ndarray, np.ndarray]] = []
    groups: List[np.ndarray] = []
    for kid in kids:
        arr = cluster_arrays[kid]
        cluster_versions = block.row_version[arr]
        hit = memo.get((token[0], kid))
        if (
            hit is not None
            and hit[0] == token
            and np.array_equal(hit[1], cluster_versions)
        ):
            cache.stats["dp_hits"] += 1
            placements.append(hit[2])
            continue
        cache.stats["dp_misses"] += 1
        sel = arr[block.row_ok[arr]]
        if sel.size == 0:
            placements.append(None)
            if hit is None and len(memo) >= cache.max_aux_entries:
                memo.clear()
                cache.stats["evictions"] += 1
            memo[(token[0], kid)] = (token, cluster_versions, None)
            continue
        miss_positions.append(len(placements))
        miss_keys.append((kid, cluster_versions, sel))
        groups.append(block.values[sel])
        placements.append(None)
    if groups:
        for position, (kid, versions, sel), (total, units) in zip(
            miss_positions, miss_keys, combine_curve_batches(groups, granularity)
        ):
            if total == NEG_INF:
                placement = None
            else:
                placement = _finish_placement(
                    client,
                    kid,
                    total,
                    _block_entries(state, block, sel, units, granularity),
                )
            placements[position] = placement
            if (
                (token[0], kid) not in memo
                and len(memo) >= cache.max_aux_entries
            ):
                memo.clear()
                cache.stats["evictions"] += 1
            memo[(token[0], kid)] = (token, versions, placement)

    best = None
    for placement in placements:
        if placement is not None and (
            best is None or placement.estimated_profit > best.estimated_profit
        ):
            best = placement
    return best


def _best_placement_vectorized(
    state: WorkingState,
    client: Client,
    kids: List[int],
    config: SolverConfig,
    excluded: AbstractSet[int] = frozenset(),
) -> Optional[CandidatePlacement]:
    """One batched curve evaluation across *all* candidate clusters.

    Curves depend only on the (client, server signature) pair, never on
    cluster identity, so the memo dedup is valid across clusters and one
    NumPy evaluation amortizes the kernel-launch overhead that dominates
    per-cluster calls on small arrays.  The per-cluster DP and the
    first-maximum tie-break are unchanged, so this returns exactly what
    the per-cluster loop would.
    """
    cluster_lists = state.cluster_server_ids
    cluster_arrays = state.cluster_index_arrays
    parts: List[np.ndarray] = []
    spans: List[Tuple[int, int, int]] = []
    offset = 0
    for kid in kids:
        if excluded:
            ids = [sid for sid in cluster_lists[kid] if sid not in excluded]
            if not ids:
                continue
            arr = state.server_indices(ids)
        else:
            arr = cluster_arrays[kid]
            if arr.size == 0:
                continue
        parts.append(arr)
        spans.append((kid, offset, offset + arr.size))
        offset += arr.size
    if not parts:
        return None

    idx = parts[0] if len(parts) == 1 else np.concatenate(parts)
    values, phi_p, phi_b = _curves_at_indices(state, client, idx, config)
    takes_traffic = values[:, 1:].max(axis=1) > NEG_INF
    granularity = config.alpha_granularity
    sid_order = state._sid_order

    groups: List[np.ndarray] = []
    group_rows: List[Tuple[int, np.ndarray]] = []
    for kid, start, end in spans:
        rows = start + np.nonzero(takes_traffic[start:end])[0]
        if rows.size == 0:
            continue
        groups.append(values[rows])
        group_rows.append((kid, rows))

    best: Optional[CandidatePlacement] = None
    for (kid, rows), (total, units) in zip(
        group_rows, combine_curve_batches(groups, granularity)
    ):
        if total == NEG_INF:
            continue
        entries: Dict[int, EntryTriple] = {}
        for row, g in zip(rows, units):
            if g == 0:
                continue
            entries[sid_order[idx[row]]] = (
                g / granularity,
                float(phi_p[row, g]),
                float(phi_b[row, g]),
            )
        placement = _finish_placement(client, kid, total, entries)
        if placement is not None and (
            best is None or placement.estimated_profit > best.estimated_profit
        ):
            best = placement
    return best
