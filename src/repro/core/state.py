"""Mutable working state shared by the heuristic's moves.

:class:`WorkingState` wraps a :class:`~repro.model.CloudSystem` and an
:class:`~repro.model.Allocation` and keeps per-server usage aggregates
(processing share, bandwidth share, storage) incrementally up to date, so
the inner loops query free capacity in O(1) instead of rescanning entries.

Conventions enforced here:

* an entry with ``alpha <= 0`` is never stored (setting one removes the
  entry), so "has an entry" always means "serves traffic and reserves
  storage";
* storage is reserved once per (client, server) pair regardless of alpha,
  per the paper's constraint (8).

Two optional facilities support the incremental hot-path engine:

* **transactions** — ``begin_txn`` starts recording an undo log of every
  entry/cluster mutation; ``rollback_txn`` replays it backwards, undoing
  a rejected move in O(mutations) instead of the O(entries) cost of a
  full ``snapshot``/``restore`` round-trip.  Transactions nest:
  committing an inner transaction folds its log into the enclosing one,
  so an outer rollback still undoes inner committed work.
* **scorer attachment** — a :class:`~repro.core.delta.DeltaScorer` may
  register itself via :meth:`attach_scorer`; every mutation then marks
  the touched client/server dirty so profit queries re-score only what
  changed.
* **cache attachment** — a :class:`~repro.core.cache.MemoCache` may be
  attached via :meth:`attach_cache`; the state maintains, per server, a
  monotone *mutation epoch* (bumped on every entry write, and for every
  server on ``restore``/``canonicalize``) that the cache uses as a fast
  staleness filter: rows whose epoch is unchanged are provably
  untouched, and only the rows whose epoch moved are rechecked against
  their stored input values.

The usage aggregates are kept twice, deliberately: as dicts (the O(1)
point queries every move uses) and as dense NumPy arrays in a fixed
server order (the batched curve kernel reads whole columns without a
per-server Python loop).  Both run the same IEEE operations in the same
order, so they are bitwise interchangeable.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.exceptions import ModelError
from repro.model.allocation import Allocation, AllocationRows, ServerAllocation
from repro.model.datacenter import CloudSystem

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cache import MemoCache
    from repro.core.delta import DeltaScorer


class ClusterUsage(NamedTuple):
    """Aggregate capacity picture of one cluster (coordination summary)."""

    used_processing: float
    used_bandwidth: float
    free_processing: float
    free_bandwidth: float
    active_servers: int
    total_servers: int

#: Undo-log record: ("entry", client_id, server_id, previous_entry_or_None)
#: or ("cluster", client_id, previous_cluster_or_None).
_UndoOp = Tuple


def _entry_counts_active(entry: ServerAllocation) -> bool:
    """Same predicate as ``Allocation.server_is_used``, per entry."""
    return entry.alpha > 0.0 or entry.phi_p > 0.0 or entry.phi_b > 0.0


class ServerStatics:
    """Per-server constants, pre-resolved once so the hot kernels avoid
    repeated property chains (``server.server_class.power_fixed`` etc.)."""

    __slots__ = (
        "class_index",
        "cap_processing",
        "cap_bandwidth",
        "power_fixed",
        "power_per_util",
        "background_processing",
        "background_bandwidth",
        "free_storage_base",
        "has_background_load",
    )

    def __init__(self, server) -> None:
        self.class_index = server.server_class.index
        self.cap_processing = server.cap_processing
        self.cap_bandwidth = server.cap_bandwidth
        self.power_fixed = server.server_class.power_fixed
        self.power_per_util = server.server_class.power_per_util
        self.background_processing = server.background_processing
        self.background_bandwidth = server.background_bandwidth
        self.free_storage_base = server.free_storage
        self.has_background_load = server.has_background_load


class WorkingState:
    """System + allocation + O(1) capacity aggregates."""

    def __init__(
        self, system: CloudSystem, allocation: Optional[Allocation] = None
    ) -> None:
        self.system = system
        self.allocation = allocation if allocation is not None else Allocation()
        self._used_p: Dict[int, float] = {}
        self._used_b: Dict[int, float] = {}
        self._used_storage: Dict[int, float] = {}
        self._active_entries: Dict[int, int] = {}
        self._scorer: Optional["DeltaScorer"] = None
        self._cache: Optional["MemoCache"] = None
        self._txn_stack: List[List[_UndoOp]] = []
        self.server_statics: Dict[int, ServerStatics] = {
            s.server_id: ServerStatics(s) for s in system.servers()
        }
        #: Fixed server order shared by every dense array below.
        self._sid_order: List[int] = [s.server_id for s in system.servers()]
        self._sid_index: Dict[int, int] = {
            sid: i for i, sid in enumerate(self._sid_order)
        }
        statics = [self.server_statics[sid] for sid in self._sid_order]
        self._bg_p_arr = np.array([st.background_processing for st in statics])
        self._bg_b_arr = np.array([st.background_bandwidth for st in statics])
        self._fs_base_arr = np.array([st.free_storage_base for st in statics])
        self._cap_p_arr = np.array([st.cap_processing for st in statics])
        self._cap_b_arr = np.array([st.cap_bandwidth for st in statics])
        self._ppu_arr = np.array([st.power_per_util for st in statics])
        self._pfix_arr = np.array([st.power_fixed for st in statics])
        self._hasbg_arr = np.array(
            [st.has_background_load for st in statics], dtype=bool
        )
        #: Monotone per-server mutation counter — never reset, so an
        #: epoch-keyed cache entry can go unreachable but never stale.
        self._epoch_arr = np.zeros(len(self._sid_order), dtype=np.int64)
        #: Static cluster membership, precomputed so the placement loops
        #: don't rebuild server-id lists on every candidate evaluation.
        self.cluster_server_ids: Dict[int, List[int]] = {
            c.cluster_id: [s.server_id for s in c] for c in system.clusters
        }
        self.cluster_index_arrays: Dict[int, np.ndarray] = {
            kid: np.array([self._sid_index[sid] for sid in sids], dtype=np.intp)
            for kid, sids in self.cluster_server_ids.items()
        }
        #: Per-(price-override, base) dense price vectors, built lazily.
        self._cluster_price_arrays: Dict[Tuple, np.ndarray] = {}
        #: The cluster screen of ``repro.core.assign.best_placement``: its
        #: static layout and its last headroom sums, both built lazily.
        self._screen_layout: Optional[Tuple] = None
        self._screen_memo: Optional[Tuple] = None
        self._recompute_aggregates()

    def _recompute_aggregates(self, rows: Optional[AllocationRows] = None) -> None:
        # Any aggregate may move, so the placement screen's sums go too.
        self._screen_memo = None
        if rows is not None:
            self._recompute_aggregates_from_rows(rows)
            return
        self._used_p = {s.server_id: 0.0 for s in self.system.servers()}
        self._used_b = dict(self._used_p)
        self._used_storage = dict(self._used_p)
        self._active_entries = {sid: 0 for sid in self._used_p}
        for client_id, server_id, entry in self.allocation.iter_entries():
            self._used_p[server_id] += entry.phi_p
            self._used_b[server_id] += entry.phi_b
            self._used_storage[server_id] += self.system.client(client_id).storage_req
            if _entry_counts_active(entry):
                self._active_entries[server_id] += 1
        order = self._sid_order
        self._used_p_arr = np.array([self._used_p[sid] for sid in order])
        self._used_b_arr = np.array([self._used_b[sid] for sid in order])
        self._used_s_arr = np.array([self._used_storage[sid] for sid in order])
        self._active_arr = np.array(
            [self._active_entries[sid] for sid in order], dtype=np.int64
        )
        # A bulk rebuild may reorder per-server aggregation, so every
        # epoch-keyed cache entry must become unreachable.
        self._epoch_arr += 1

    def _recompute_aggregates_from_rows(self, rows: AllocationRows) -> None:
        """Array-built twin of the dict recount above.

        ``np.add.at`` is unbuffered — each occurrence adds sequentially in
        row order, so per-server partial-sum sequences are identical to
        the dict loop over ``iter_entries`` (whose order the rows mirror)
        and both layouts stay bitwise interchangeable.
        """
        count = len(self._sid_order)
        used_p = np.zeros(count)
        used_b = np.zeros(count)
        used_s = np.zeros(count)
        active = np.zeros(count, dtype=np.int64)
        if rows.num_entries:
            sidx = self.server_indices(rows.entry_servers.tolist())
            np.add.at(used_p, sidx, rows.phi_p)
            np.add.at(used_b, sidx, rows.phi_b)
            storage = np.fromiter(
                (
                    self.system.client(cid).storage_req
                    for cid in rows.entry_clients.tolist()
                ),
                dtype=np.float64,
                count=rows.num_entries,
            )
            np.add.at(used_s, sidx, storage)
            counts_active = (rows.alpha > 0.0) | (rows.phi_p > 0.0) | (rows.phi_b > 0.0)
            np.add.at(active, sidx[counts_active], 1)
        self._used_p_arr = used_p
        self._used_b_arr = used_b
        self._used_s_arr = used_s
        self._active_arr = active
        order = self._sid_order
        self._used_p = dict(zip(order, used_p.tolist()))
        self._used_b = dict(zip(order, used_b.tolist()))
        self._used_storage = dict(zip(order, used_s.tolist()))
        self._active_entries = dict(zip(order, active.tolist()))
        self._epoch_arr += 1

    # -- scorer attachment --------------------------------------------------

    @property
    def scorer(self) -> Optional["DeltaScorer"]:
        """The attached incremental scorer, if any."""
        return self._scorer

    def attach_scorer(self, scorer: Optional["DeltaScorer"]) -> None:
        """Register (or detach, with ``None``) an incremental scorer."""
        self._scorer = scorer

    def _mark(self, client_id: int, server_id: Optional[int] = None) -> None:
        if self._scorer is not None:
            self._scorer.mark_client(client_id)
            if server_id is not None:
                self._scorer.mark_server(server_id)

    # -- cache attachment ---------------------------------------------------

    @property
    def cache(self) -> Optional["MemoCache"]:
        """The attached memoization cache, if any."""
        return self._cache

    def attach_cache(self, cache: Optional["MemoCache"]) -> None:
        """Register (or detach, with ``None``) a memoization cache."""
        if cache is not None:
            cache.attach(self)
        self._cache = cache

    def server_epoch(self, server_id: int) -> int:
        """Monotone mutation counter for one server (cache key component)."""
        return int(self._epoch_arr[self._sid_index[server_id]])

    def server_indices(self, server_ids: Sequence[int]) -> np.ndarray:
        """Dense-array row indices for a sequence of server ids."""
        index = self._sid_index
        return np.fromiter(
            (index[sid] for sid in server_ids),
            dtype=np.intp,
            count=len(server_ids),
        )

    def note_client_replaced(self, client_id: int) -> None:
        """The client *object* behind this id changed (e.g. a rate update).

        Cached curves keyed on the old client parameters must become
        unreachable, and so must epoch-keyed per-server derivations
        (incumbent stability bounds) on every server currently hosting
        the client — its entries did not move, but their meaning did.
        """
        if self._cache is not None:
            self._cache.invalidate_client(client_id)
        for server_id in self.allocation.entries_of_client(client_id):
            self._epoch_arr[self._sid_index[server_id]] += 1

    # -- capacity queries ---------------------------------------------------

    def free_processing(self, server_id: int) -> float:
        server = self.system.server(server_id)
        return max(
            1.0 - server.background_processing - self._used_p[server_id], 0.0
        )

    def free_bandwidth(self, server_id: int) -> float:
        server = self.system.server(server_id)
        return max(
            1.0 - server.background_bandwidth - self._used_b[server_id], 0.0
        )

    def free_storage(self, server_id: int) -> float:
        server = self.system.server(server_id)
        return max(server.free_storage - self._used_storage[server_id], 0.0)

    def used_processing(self, server_id: int) -> float:
        return self._used_p[server_id]

    def used_bandwidth(self, server_id: int) -> float:
        return self._used_b[server_id]

    def used_storage(self, server_id: int) -> float:
        return self._used_storage[server_id]

    def server_is_active(self, server_id: int) -> bool:
        """ON per constraint (3): carries cloud traffic or background load.

        O(1): background load is static and the count of traffic-carrying
        entries is maintained incrementally by the mutators below.
        """
        if self.server_statics[server_id].has_background_load:
            return True
        return self._active_entries[server_id] > 0

    def active_server_ids(self, cluster_id: Optional[int] = None) -> Set[int]:
        servers: Iterable = (
            self.system.cluster(cluster_id).servers
            if cluster_id is not None
            else self.system.servers()
        )
        return {s.server_id for s in servers if self.server_is_active(s.server_id)}

    def inactive_server_ids(self, cluster_id: int) -> Set[int]:
        cluster = self.system.cluster(cluster_id)
        return {
            s.server_id
            for s in cluster
            if not self.server_is_active(s.server_id)
        }

    # -- mutations ------------------------------------------------------------

    def assign_client(self, client_id: int, cluster_id: int) -> None:
        previous = self.allocation.cluster_of.get(client_id)
        if previous is not None and previous != cluster_id:
            self.clear_client(client_id)
        if self._txn_stack:
            self._txn_stack[-1].append(("cluster", client_id, previous))
        self.allocation.assign_client(client_id, cluster_id)
        self._mark(client_id)

    def set_entry(
        self,
        client_id: int,
        server_id: int,
        alpha: float,
        phi_p: float,
        phi_b: float,
    ) -> None:
        """Create/overwrite an entry, keeping aggregates in sync.

        ``alpha <= 0`` removes the entry instead (zero-traffic entries are
        never stored).
        """
        if alpha <= 0.0:
            self.remove_entry(client_id, server_id)
            return
        old = self.allocation.entry(client_id, server_id)
        if self._txn_stack:
            self._txn_stack[-1].append(
                ("entry", client_id, server_id, old.copy() if old else None)
            )
        storage = self.system.client(client_id).storage_req
        idx = self._sid_index[server_id]
        if old is not None:
            self._used_p[server_id] -= old.phi_p
            self._used_b[server_id] -= old.phi_b
            self._used_storage[server_id] -= storage
            if _entry_counts_active(old):
                self._active_entries[server_id] -= 1
        self.allocation.set_entry(client_id, server_id, alpha, phi_p, phi_b)
        self._used_p[server_id] += phi_p
        self._used_b[server_id] += phi_b
        self._used_storage[server_id] += storage
        self._active_entries[server_id] += 1
        self._used_p_arr[idx] = self._used_p[server_id]
        self._used_b_arr[idx] = self._used_b[server_id]
        self._used_s_arr[idx] = self._used_storage[server_id]
        self._active_arr[idx] = self._active_entries[server_id]
        self._epoch_arr[idx] += 1
        self._mark(client_id, server_id)

    def remove_entry(self, client_id: int, server_id: int) -> None:
        old = self.allocation.entry(client_id, server_id)
        if old is None:
            return
        if self._txn_stack:
            self._txn_stack[-1].append(("entry", client_id, server_id, old.copy()))
        self._used_p[server_id] -= old.phi_p
        self._used_b[server_id] -= old.phi_b
        self._used_storage[server_id] -= self.system.client(client_id).storage_req
        if _entry_counts_active(old):
            self._active_entries[server_id] -= 1
        self.allocation.remove_entry(client_id, server_id)
        idx = self._sid_index[server_id]
        self._used_p_arr[idx] = self._used_p[server_id]
        self._used_b_arr[idx] = self._used_b[server_id]
        self._used_s_arr[idx] = self._used_storage[server_id]
        self._active_arr[idx] = self._active_entries[server_id]
        self._epoch_arr[idx] += 1
        self._mark(client_id, server_id)

    def clear_client(self, client_id: int) -> None:
        for server_id in list(self.allocation.entries_of_client(client_id)):
            self.remove_entry(client_id, server_id)

    def unassign_client(self, client_id: int) -> None:
        self.clear_client(client_id)
        previous = self.allocation.cluster_of.get(client_id)
        if self._txn_stack:
            self._txn_stack[-1].append(("cluster", client_id, previous))
        self.allocation.unassign_client(client_id)
        self._mark(client_id)

    # -- transactions -----------------------------------------------------------

    def begin_txn(self) -> None:
        """Start recording an undo log; pair with commit_txn/rollback_txn."""
        self._txn_stack.append([])

    def commit_txn(self) -> None:
        """Keep the recorded mutations.

        Inside a nested transaction the log is folded into the enclosing
        frame, so a later outer rollback still undoes this work.
        """
        if not self._txn_stack:
            raise ModelError("commit_txn without a matching begin_txn")
        ops = self._txn_stack.pop()
        if self._txn_stack:
            self._txn_stack[-1].extend(ops)

    def rollback_txn(self) -> None:
        """Undo every mutation recorded since the matching begin_txn."""
        if not self._txn_stack:
            raise ModelError("rollback_txn without a matching begin_txn")
        ops = self._txn_stack.pop()
        for op in reversed(ops):
            if op[0] == "entry":
                _, client_id, server_id, old = op
                self._write_entry(client_id, server_id, old)
            else:
                _, client_id, previous = op
                if previous is None:
                    self.allocation.cluster_of.pop(client_id, None)
                else:
                    self.allocation.cluster_of[client_id] = previous
                self._mark(client_id)

    def in_txn(self) -> bool:
        return bool(self._txn_stack)

    def _write_entry(
        self,
        client_id: int,
        server_id: int,
        entry: Optional[ServerAllocation],
    ) -> None:
        """Force one entry to a recorded value (rollback path; not logged)."""
        old = self.allocation.entry(client_id, server_id)
        storage = self.system.client(client_id).storage_req
        if old is not None:
            self._used_p[server_id] -= old.phi_p
            self._used_b[server_id] -= old.phi_b
            self._used_storage[server_id] -= storage
            if _entry_counts_active(old):
                self._active_entries[server_id] -= 1
        if entry is None:
            self.allocation.remove_entry(client_id, server_id)
        else:
            self.allocation.set_entry(
                client_id, server_id, entry.alpha, entry.phi_p, entry.phi_b
            )
            self._used_p[server_id] += entry.phi_p
            self._used_b[server_id] += entry.phi_b
            self._used_storage[server_id] += storage
            if _entry_counts_active(entry):
                self._active_entries[server_id] += 1
        idx = self._sid_index[server_id]
        self._used_p_arr[idx] = self._used_p[server_id]
        self._used_b_arr[idx] = self._used_b[server_id]
        self._used_s_arr[idx] = self._used_storage[server_id]
        self._active_arr[idx] = self._active_entries[server_id]
        self._epoch_arr[idx] += 1
        self._mark(client_id, server_id)

    # -- snapshots --------------------------------------------------------------

    def snapshot(self) -> Allocation:
        """Deep copy of the allocation, for rollback."""
        return self.allocation.copy()

    def restore(self, snapshot: Allocation) -> None:
        """Replace the allocation with a snapshot and rebuild aggregates."""
        if self._txn_stack:
            raise ModelError(
                "restore() during an open transaction would corrupt the undo "
                "log; rollback_txn/commit_txn first"
            )
        self.allocation = snapshot.copy()
        self._recompute_aggregates()
        if self._cache is not None:
            self._cache.note_state_reset()
        if self._scorer is not None:
            # mark_all alone would fold the restored terms into the old
            # running sums, whose Kahan compensation still encodes the
            # discarded mutation history; resync rebuilds the totals from
            # scratch so a restored scorer is bit-identical to a fresh one.
            self._scorer.mark_all()
            self._scorer.resync()

    def export_rows(self) -> AllocationRows:
        """Flat row-table snapshot of the allocation (shard shipping)."""
        return self.allocation.to_rows()

    def restore_rows(self, rows: AllocationRows) -> None:
        """Replace the allocation from row tables and rebuild aggregates.

        The O(rows) twin of :meth:`restore`: aggregates are rebuilt by
        unbuffered array scatter-adds instead of the per-entry dict loop,
        bitwise identical because the rows mirror iteration order.  Same
        cache/scorer reset discipline as :meth:`restore`.
        """
        if self._txn_stack:
            raise ModelError(
                "restore_rows() during an open transaction would corrupt the "
                "undo log; rollback_txn/commit_txn first"
            )
        self.allocation = Allocation.from_rows(rows)
        self._recompute_aggregates(rows)
        if self._cache is not None:
            self._cache.note_state_reset()
        if self._scorer is not None:
            self._scorer.mark_all()
            self._scorer.resync()

    def cluster_usage_summary(self) -> Dict[int, ClusterUsage]:
        """Per-cluster capacity aggregates, read off the dense arrays.

        This is the coordination payload the sharded solver ships upward:
        O(servers) NumPy reductions, no per-entry traversal.
        """
        summary: Dict[int, ClusterUsage] = {}
        for kid, cidx in self.cluster_index_arrays.items():
            free_p = np.maximum(
                1.0 - self._bg_p_arr[cidx] - self._used_p_arr[cidx], 0.0
            )
            free_b = np.maximum(
                1.0 - self._bg_b_arr[cidx] - self._used_b_arr[cidx], 0.0
            )
            active = self._hasbg_arr[cidx] | (self._active_arr[cidx] > 0)
            summary[kid] = ClusterUsage(
                used_processing=float(self._used_p_arr[cidx].sum()),
                used_bandwidth=float(self._used_b_arr[cidx].sum()),
                free_processing=float(free_p.sum()),
                free_bandwidth=float(free_b.sum()),
                active_servers=int(active.sum()),
                total_servers=int(len(cidx)),
            )
        return summary

    # -- cluster-level shadow prices ----------------------------------------

    def bandwidth_price_of(self, server_id: int, config) -> float:
        """The bandwidth shadow price charged on one server.

        ``config.cluster_bandwidth_prices`` (when set) overrides the flat
        ``config.bandwidth_shadow_price`` per cluster — the coordination
        signal of the sharded solver.  Scalar twin of
        :meth:`bandwidth_prices_at`; both read the same dense vector, so
        the two eq.-(16) kernels keep seeing identical operands.
        """
        overrides = config.cluster_bandwidth_prices
        if overrides is None:
            return config.bandwidth_shadow_price
        arr = self._bandwidth_price_array(overrides, config.bandwidth_shadow_price)
        return float(arr[self._sid_index[server_id]])

    def bandwidth_prices_at(self, idx: np.ndarray, config):
        """Bandwidth shadow prices for dense-array rows ``idx``.

        Returns the flat scalar when no per-cluster overrides are set (so
        the vectorized kernel's arithmetic is unchanged bit-for-bit), and
        a per-row float64 vector otherwise.
        """
        overrides = config.cluster_bandwidth_prices
        if overrides is None:
            return config.bandwidth_shadow_price
        arr = self._bandwidth_price_array(overrides, config.bandwidth_shadow_price)
        return arr[idx]

    def _bandwidth_price_array(
        self, overrides: Tuple[Tuple[int, float], ...], base: float
    ) -> np.ndarray:
        key = (overrides, base)
        arr = self._cluster_price_arrays.get(key)
        if arr is None:
            if len(self._cluster_price_arrays) >= 8:
                self._cluster_price_arrays.pop(next(iter(self._cluster_price_arrays)))
            lookup = dict(overrides)
            arr = np.full(len(self._sid_order), base, dtype=np.float64)
            for kid, cidx in self.cluster_index_arrays.items():
                price = lookup.get(kid)
                if price is not None:
                    arr[cidx] = price
            self._cluster_price_arrays[key] = arr
        return arr

    def canonicalize(self) -> None:
        """Normalize history-dependent internal state into canonical form.

        Reorders the allocation's dicts/sets into sorted order and
        recomputes the usage aggregates in that order, so that two states
        reached through different mutation histories — e.g. a live service
        engine versus one restored from its snapshot — hold bit-identical
        derived values.  Clients whose per-server entry order changed are
        re-marked dirty on the attached scorer (their cached revenue was
        summed in the dead order), as are servers whose recomputed
        aggregates changed at the ulp level.  Not allowed inside an open
        transaction (the undo log records dict positions implicitly).
        """
        if self._txn_stack:
            raise ModelError(
                "canonicalize() during an open transaction; "
                "rollback_txn/commit_txn first"
            )
        reordered_clients = self.allocation.canonicalize()
        old_p = self._used_p
        old_b = self._used_b
        old_storage = self._used_storage
        self._recompute_aggregates()
        if self._cache is not None:
            self._cache.note_state_reset()
        if self._scorer is not None:
            for cid in reordered_clients:
                self._scorer.mark_client(cid)
            for sid in self._used_p:
                if (
                    self._used_p[sid] != old_p.get(sid)
                    or self._used_b[sid] != old_b.get(sid)
                    or self._used_storage[sid] != old_storage.get(sid)
                ):
                    self._scorer.mark_server(sid)
            self._scorer.observe()

    def check_consistency(self) -> None:
        """Assert the cached aggregates match a full recount (tests only)."""
        used_p, used_b, used_m, active = (
            dict(self._used_p),
            dict(self._used_b),
            dict(self._used_storage),
            dict(self._active_entries),
        )
        self._recompute_aggregates()
        for sid in used_p:
            if (
                abs(used_p[sid] - self._used_p[sid]) > 1e-9
                or abs(used_b[sid] - self._used_b[sid]) > 1e-9
                or abs(used_m[sid] - self._used_storage[sid]) > 1e-9
                or active[sid] != self._active_entries[sid]
            ):
                raise ModelError(f"aggregate drift detected on server {sid}")
