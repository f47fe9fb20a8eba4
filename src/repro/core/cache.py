"""Cross-move memoization of the heuristic's pure inner kernels.

The local search spends almost all of its time inside a handful of
functions that are *pure* given their inputs, yet are recomputed on every
candidate move:

* the eq.-(16) force-profit curves of ``Assign_Distribute``
  (:func:`repro.core.assign.batched_server_curves`) — a function of
  (client, server class, free capacity, activity);
* the server-combination DP over those curves
  (:func:`repro.optim.dp.combine_server_curves`) — a function of the
  curves alone;
* the activation profiles of ``TurnON_servers``
  (:func:`repro.core.power._activation_candidates`'s per-grid-point
  shares) — same eq.-(16) arithmetic against an idle server;
* the incumbent stability bounds of the merge move
  (:func:`repro.core.power._incumbent_minimum_shares`) — a function of a
  server's current entries;
* the convex traffic resplit (:func:`repro.optim.kkt.optimal_dispersion`)
  — a function of the branch service rates.

:class:`MemoCache` stores each of these exactly as the kernel computed it
and keys each entry on *every* input the kernel reads, so a cache hit is
bit-for-bit the value a fresh evaluation would produce (the PR-4
differential harness runs with caching on and checks scalar/vectorized
bit-parity end to end).  Invalidation therefore never has to guess:

* **curves** are held per client as one :class:`CurveBlock` — the full
  ``(num_servers, G + 1)`` matrix plus a snapshot of the exact capacity
  inputs (used processing/bandwidth/storage, activity) each row was
  computed from.  Validation is two-tier: a vectorized compare of the
  stored *mutation-epoch* snapshot finds rows a mutation may have
  touched, then those rows' stored inputs are compared by value and only
  rows whose inputs actually changed are recomputed.  Value comparison
  (not epoch comparison) is what decides, so the unassign/rollback churn
  of the local search — which returns the aggregates to bitwise the same
  values — revalidates blocks instead of discarding them, and a
  ``restore``/``canonicalize`` (which bumps every epoch) costs one full
  value recheck rather than a rebuild.  The client side of the key is a
  **rate epoch** token that bumps whenever the client object's
  parameters change (rate updates in the online service);
* **DP tables** are memoized per (client, cluster) and validated against
  the block's per-row *content version* (a counter bumped exactly when a
  row is recomputed to new inputs) sliced at the cluster's rows, so a
  changed curve can never alias a stale table;
* **incumbent bounds** are keyed on the server's *mutation epoch*, a
  monotone counter :class:`~repro.core.state.WorkingState` bumps on every
  entry mutation (and for every server on ``restore``/``canonicalize``),
  so entries recorded before any mutation are unreachable rather than
  stale;
* **dispersion resplits** are keyed on the exact branch rates — pure
  value keys that cannot go stale.

Size is bounded per store: crossing the limit (:data:`MAX_CURVE_ENTRIES`
for curve blocks, :data:`MAX_AUX_ENTRIES` for the others) clears the
store (the DP memo together with the block store).  Clearing is always
safe — the cache is an accelerator, never a source of truth.

A ``MemoCache`` belongs to exactly one ``WorkingState`` (server epochs
are state-local); :meth:`attach` enforces this.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.config import SolverConfig
    from repro.core.state import WorkingState
    from repro.model.client import Client

from repro.exceptions import SolverError

#: Eviction bound of the per-client curve block store; crossing it clears
#: the block and DP stores (simple, predictable, never stale).
MAX_CURVE_ENTRIES = 200_000
#: Eviction bound of the DP table store and of the auxiliary
#: activation/incumbent/dispersion stores.
MAX_AUX_ENTRIES = 200_000

#: Grid-point record of an activation profile:
#: ``(g, phi_p, phi_b, cost_new_branch)`` for each feasible grid point.
ActivationPoint = Tuple[int, float, float, float]


def maybe_attach_cache(state: "WorkingState", config: "SolverConfig"):
    """Attach a fresh :class:`MemoCache` when the config asks for one.

    Caching only accelerates the vectorized kernels; the scalar path is
    kept cache-free as the reference oracle, so attachment requires both
    ``use_curve_cache`` and ``use_vectorized_kernels``.  Returns the
    attached cache, or ``None``.
    """
    if config.use_curve_cache and config.use_vectorized_kernels:
        cache = MemoCache(config)
        state.attach_cache(cache)
        return cache
    return None


class CurveBlock:
    """One client's memoized curve matrix over the whole server universe.

    ``epochs`` snapshots every server's mutation epoch at the moment its
    row was last validated: an unchanged epoch proves the row untouched.
    ``in_p``/``in_b``/``in_s``/``in_act`` snapshot the exact aggregate
    inputs the row was computed from; when an epoch moved, the row is
    recomputed only if those inputs differ by value (the curve kernel is
    a pure element-wise function of them, so equal inputs mean the
    stored row is bitwise what a fresh evaluation would produce).
    ``row_version`` counts actual recomputations per row — the DP memo
    validates against it, never against raw epochs.  ``row_ok`` caches
    the per-row takes-traffic predicate the DP pruning reads on every
    lookup.
    """

    __slots__ = (
        "token",
        "epochs",
        "in_p",
        "in_b",
        "in_s",
        "in_act",
        "row_version",
        "values",
        "phi_p",
        "phi_b",
        "row_ok",
    )

    def __init__(
        self,
        token: Tuple[int, int],
        epochs: np.ndarray,
        in_p: np.ndarray,
        in_b: np.ndarray,
        in_s: np.ndarray,
        in_act: np.ndarray,
        values: np.ndarray,
        phi_p: np.ndarray,
        phi_b: np.ndarray,
        row_ok: np.ndarray,
    ) -> None:
        self.token = token
        self.epochs = epochs
        self.in_p = in_p
        self.in_b = in_b
        self.in_s = in_s
        self.in_act = in_act
        self.row_version = np.zeros(len(epochs), dtype=np.int64)
        self.values = values
        self.phi_p = phi_p
        self.phi_b = phi_b
        self.row_ok = row_ok


class MemoCache:
    """Bitwise-transparent memoization of curve/DP/activation kernels."""

    def __init__(
        self,
        config: "SolverConfig",
        max_curve_entries: int = MAX_CURVE_ENTRIES,
        max_aux_entries: int = MAX_AUX_ENTRIES,
    ) -> None:
        self.config = config
        self.max_curve_entries = max_curve_entries
        self.max_aux_entries = max_aux_entries
        self._owner: Optional["WorkingState"] = None
        #: ``client_id -> CurveBlock`` (one block per client).
        self._blocks: Dict[int, CurveBlock] = {}
        #: ``(client_id, cluster_id) -> (token, row-version slice, total, units)``.
        self._dp: Dict[
            Tuple[int, int],
            Tuple[Tuple[int, int], np.ndarray, float, Tuple[int, ...]],
        ] = {}
        self._activation: Dict[Tuple, List[ActivationPoint]] = {}
        self._incumbent: Dict[Tuple[int, int], Tuple[float, float]] = {}
        self._dispersion: Dict[Tuple, Optional[Tuple[float, ...]]] = {}
        #: ``client_id -> (client object, rate epoch)``.
        self._client_tokens: Dict[int, Tuple["Client", int]] = {}
        self.stats: Dict[str, int] = {
            "curve_hits": 0,
            "curve_patches": 0,
            "curve_misses": 0,
            "dp_hits": 0,
            "dp_misses": 0,
            "activation_hits": 0,
            "activation_misses": 0,
            "incumbent_hits": 0,
            "incumbent_misses": 0,
            "dispersion_hits": 0,
            "dispersion_misses": 0,
            "evictions": 0,
            "client_epoch_bumps": 0,
        }

    # -- attachment ----------------------------------------------------------

    def attach(self, state: "WorkingState") -> None:
        """Bind the cache to one working state (epoch keys are state-local)."""
        if self._owner is not None and self._owner is not state:
            raise SolverError(
                "MemoCache is already attached to another WorkingState; "
                "server mutation epochs are state-local, so sharing a cache "
                "between states would alias unrelated epochs"
            )
        self._owner = state

    # -- client rate epochs --------------------------------------------------

    def client_token(self, client: "Client") -> Tuple[int, int]:
        """``(client_id, rate_epoch)`` identity for curve/activation keys.

        The epoch bumps whenever the client *object* for this id changes
        in any field (the online service swaps the spec on rate updates),
        so curves priced against the old rates become unreachable.  Same
        object — or an equal one — keeps the epoch, making the common
        case one identity comparison.
        """
        client_id = client.client_id
        token = self._client_tokens.get(client_id)
        if token is not None:
            stored, epoch = token
            if stored is client:
                return client_id, epoch
            if stored == client:
                self._client_tokens[client_id] = (client, epoch)
                return client_id, epoch
            epoch += 1
            self.stats["client_epoch_bumps"] += 1
            self._client_tokens[client_id] = (client, epoch)
            return client_id, epoch
        self._client_tokens[client_id] = (client, 0)
        return client_id, 0

    def invalidate_client(self, client_id: int) -> None:
        """Explicitly retire every cached object derived from this client."""
        token = self._client_tokens.get(client_id)
        if token is not None:
            self.stats["client_epoch_bumps"] += 1
            self._client_tokens[client_id] = (token[0], token[1] + 1)

    # -- auxiliary stores (activation / incumbent / dispersion) --------------

    def lookup_activation(self, key: Tuple) -> Optional[List[ActivationPoint]]:
        hit = self._activation.get(key)
        if hit is None:
            self.stats["activation_misses"] += 1
        else:
            self.stats["activation_hits"] += 1
        return hit

    def store_activation(self, key: Tuple, profile: List[ActivationPoint]) -> None:
        if len(self._activation) >= self.max_aux_entries:
            self._activation.clear()
            self.stats["evictions"] += 1
        self._activation[key] = profile

    def lookup_incumbent(
        self, server_id: int, epoch: int
    ) -> Optional[Tuple[float, float]]:
        hit = self._incumbent.get((server_id, epoch))
        if hit is None:
            self.stats["incumbent_misses"] += 1
        else:
            self.stats["incumbent_hits"] += 1
        return hit

    def store_incumbent(
        self, server_id: int, epoch: int, bounds: Tuple[float, float]
    ) -> None:
        if len(self._incumbent) >= self.max_aux_entries:
            self._incumbent.clear()
            self.stats["evictions"] += 1
        self._incumbent[(server_id, epoch)] = bounds

    def lookup_dispersion(self, key: Tuple):
        """Returns ``(found, alphas_or_None)`` — ``None`` results are cached."""
        sentinel = object()
        hit = self._dispersion.get(key, sentinel)
        if hit is sentinel:
            self.stats["dispersion_misses"] += 1
            return False, None
        self.stats["dispersion_hits"] += 1
        return True, hit

    def store_dispersion(
        self, key: Tuple, alphas: Optional[Tuple[float, ...]]
    ) -> None:
        if len(self._dispersion) >= self.max_aux_entries:
            self._dispersion.clear()
            self.stats["evictions"] += 1
        self._dispersion[key] = alphas

    # -- invalidation hooks --------------------------------------------------

    def note_state_reset(self) -> None:
        """Hook for ``WorkingState.restore``/``canonicalize``.

        Correctness needs nothing here: the state bumps every server's
        mutation epoch, making incumbent entries unreachable, and the
        curve blocks and DP tables validate by *input value* — a reset
        merely forces each block's next lookup through one full value
        recheck, after which rows whose inputs came back (the common
        case when the improvement loop restores its best-so-far
        snapshot) keep serving hits.  Only the epoch-keyed incumbent
        store turns to garbage wholesale; drop it eagerly so memory
        stays flat across the snapshot/restore churn.
        """
        self._incumbent.clear()

    def note_resync(self) -> None:
        """Hook for :meth:`repro.core.delta.DeltaScorer.resync`.

        ``resync`` rebuilds the scorer's running sums after a restore or a
        canonicalization boundary; mirror the same hygiene here (see
        :meth:`note_state_reset`).
        """
        self._incumbent.clear()

    def clear(self) -> None:
        """Drop every store (token epochs survive, so keys stay fresh)."""
        self._blocks.clear()
        self._dp.clear()
        self._activation.clear()
        self._incumbent.clear()
        self._dispersion.clear()

    # -- reporting -----------------------------------------------------------

    def hit_rate(self, section: str) -> float:
        hits = self.stats[f"{section}_hits"]
        misses = self.stats[f"{section}_misses"]
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> str:
        parts = []
        for section in ("curve", "dp", "activation", "incumbent", "dispersion"):
            hits = self.stats[f"{section}_hits"]
            misses = self.stats[f"{section}_misses"]
            parts.append(f"{section} {hits}/{hits + misses}")
        parts.append(f"patches {self.stats['curve_patches']}")
        parts.append(f"evictions {self.stats['evictions']}")
        return "memo cache hits: " + ", ".join(parts)
