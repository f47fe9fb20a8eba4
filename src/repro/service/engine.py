"""The online allocation engine.

:class:`AllocationService` is a long-lived decision process over one
datacenter: it consumes :mod:`repro.service.events` one at a time,
maintains a live :class:`~repro.model.Allocation` plus a running profit
(via an always-attached :class:`~repro.core.delta.DeltaScorer`), and
repairs locally — in ``O(touched)`` per event — instead of re-running the
batch solver:

* **admit** — constructor placement (:func:`~repro.core.repair.place_client`)
  inside a transaction; rolled back and queued when no feasible placement
  exists;
* **depart** — release the client's shares, rebalance and try to power
  down the servers it touched, then retry the pending queue;
* **rate update** — swap the client spec, rebalance its servers; if the
  new rate broke stability, re-place the client from scratch (queueing it
  if that fails too), then check the drift trigger;
* **server fail** — forcibly drain the server (stay-feasible per client);
  clients that cannot be rehomed are queued;
* **server recover** — return the server to the eligible pool and retry
  the queue.

When accumulated rate drift (relative to the rates at the last
re-optimization) exceeds ``ServicePolicy.drift_threshold`` — or every
``oracle_period`` events — the engine runs the full batch solver on the
non-failed portion of the system and atomically swaps the result in
*only if* it beats the incrementally-repaired allocation.

**Replay determinism.**  The engine is a deterministic function of
(initial system, config, policy, event sequence): no wall clock enters
any decision, the solver draws from a fresh seeded RNG per solve, and —
crucially — every event ends with a *canonicalization boundary*
(:meth:`~repro.core.state.WorkingState.canonicalize` +
:meth:`~repro.core.delta.DeltaScorer.resync`) that normalizes all
history-dependent derived state (dict order, aggregate and Kahan sums).
A service restored from :meth:`snapshot` therefore continues
bit-identically to one that never died, which the replay-determinism CI
gate checks by hashing final snapshots.

Invariant between events: every client inside the system is fully served
(its traffic sums to 1 over live entries) and the state is feasible —
clients the engine cannot serve wait in :attr:`pending`, outside the
system, and earn nothing.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Set

from repro.audit.hooks import audit_enabled, audit_point
from repro.audit.invariants import check_no_entries_on_servers
from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.core.cache import maybe_attach_cache
from repro.core.delta import AGREEMENT_TOLERANCE, DeltaScorer
from repro.core.repair import (
    consolidate_servers,
    drain_server,
    place_client,
    rebalance_servers,
    reseat_client,
)
from repro.core.scoring import score
from repro.core.state import WorkingState
from repro.exceptions import ConfigurationError, ServiceError
from repro.io import (
    allocation_from_dict,
    allocation_to_dict,
    client_from_dict,
    client_to_dict,
    dump_canonical,
    require_format,
    system_from_dict,
    system_to_dict,
)
from repro.model.allocation import Allocation
from repro.model.client import Client
from repro.model.cluster import Cluster
from repro.model.datacenter import CloudSystem
from repro.service.admission import (
    AdmissionPolicy,
    AlwaysAdmitIfFeasible,
    PricingSchedule,
    fleet_cost_coefficient,
)
from repro.service.events import (
    ClientAdmit,
    ClientDepart,
    RateUpdate,
    ServerFail,
    ServerRecover,
    ServiceEvent,
    _EVENT_TAGS,
)
from repro.service.metrics import MetricsRegistry

SNAPSHOT_FORMAT = "repro.service-snapshot"
SNAPSHOT_VERSION = 1


@dataclass(frozen=True)
class ServicePolicy:
    """Knobs governing when incremental repair gives way to a full re-solve.

    ``drift_threshold`` — relative accumulated rate drift (weighted L1
    against the rates at the last re-optimization) that triggers a
    re-solve; ``oracle_period`` — additionally re-solve every N events
    (0 disables); ``regression_tolerance`` — the batch candidate must
    beat the repaired allocation by more than this to be swapped in.
    """

    drift_threshold: float = 0.25
    oracle_period: int = 0
    regression_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if not self.drift_threshold > 0.0:
            raise ConfigurationError(
                f"drift_threshold must be > 0, got {self.drift_threshold}"
            )
        if self.oracle_period < 0:
            raise ConfigurationError(
                f"oracle_period must be >= 0, got {self.oracle_period}"
            )
        if self.regression_tolerance < 0.0:
            raise ConfigurationError(
                f"regression_tolerance must be >= 0, got {self.regression_tolerance}"
            )


class PendingQueue:
    """FIFO admission queue indexed by client id.

    The engine's original pending list made every membership probe an
    O(n) scan, so one queue-retry pass under overload was O(n²).  This
    keeps the same FIFO iteration order (dict insertion order) while
    membership, lookup, in-place replace and removal are O(1).

    ``on_change`` fires with the new depth after every mutation; the
    engine wires it to ``metrics.queue_depth``, so the gauge is updated
    at the single point where the queue actually changes and can never
    go stale, whichever event path touched it.
    """

    def __init__(self, on_change: Optional[Callable[[int], None]] = None) -> None:
        self._clients: Dict[int, Client] = {}
        self._on_change = on_change

    def _changed(self) -> None:
        if self._on_change is not None:
            self._on_change(len(self._clients))

    def add(self, client: Client) -> None:
        if client.client_id in self._clients:
            raise ServiceError(
                f"client {client.client_id} is already pending"
            )
        self._clients[client.client_id] = client
        self._changed()

    def remove(self, client_id: int) -> Client:
        try:
            client = self._clients.pop(client_id)
        except KeyError:
            raise ServiceError(f"client {client_id} is not pending") from None
        self._changed()
        return client

    def replace(self, client: Client) -> None:
        """Swap a queued client's spec without losing its queue position."""
        if client.client_id not in self._clients:
            raise ServiceError(f"client {client.client_id} is not pending")
        self._clients[client.client_id] = client
        self._changed()

    def get(self, client_id: int) -> Optional[Client]:
        return self._clients.get(client_id)

    def clear(self) -> None:
        self._clients.clear()
        self._changed()

    def __contains__(self, client_id: int) -> bool:
        return client_id in self._clients

    def __len__(self) -> int:
        return len(self._clients)

    def __iter__(self) -> Iterator[Client]:
        return iter(self._clients.values())

    def __getitem__(self, index: int) -> Client:
        return list(self._clients.values())[index]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PendingQueue):
            return list(self) == list(other)
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PendingQueue({sorted(self._clients)})"


@dataclass
class EventOutcome:
    """What one :meth:`AllocationService.apply` call did."""

    seq: int
    event: ServiceEvent
    accepted: bool = True
    queued: bool = False
    swapped: bool = False
    stranded: List[int] = field(default_factory=list)
    profit: float = 0.0
    repair_seconds: float = 0.0


class AllocationService:
    """Event-driven incremental allocation over one datacenter.

    The constructor deep-copies ``system`` (the caller's object is never
    mutated) and places any client that ``allocation`` leaves unserved;
    clients with no feasible placement start in :attr:`pending`.
    """

    def __init__(
        self,
        system: CloudSystem,
        config: Optional[SolverConfig] = None,
        policy: Optional[ServicePolicy] = None,
        allocation: Optional[Allocation] = None,
        journal: Optional[Any] = None,
        admission: Optional[AdmissionPolicy] = None,
        pricing: Optional[PricingSchedule] = None,
    ) -> None:
        self.config = config or SolverConfig()
        self.policy = policy or ServicePolicy()
        #: Admission gate + ranking signal for admits and retries; the
        #: default reproduces the historical pure-feasibility behavior.
        self.admission = admission or AlwaysAdmitIfFeasible()
        #: Optional load-indexed repricing of v/beta, applied to event
        #: clients at admit and re-admit time (never to the constructor's
        #: batch-given clients, which arrive already priced).
        self.pricing = pricing
        # JSON round-trip = deep copy with exact float preservation; the
        # live system and a restored one are then bytes-for-bytes equal.
        self.system = system_from_dict(system_to_dict(system))
        #: $/utilization price the static admission proxy multiplies a
        #: client's demand by (the fleet's mean P1).
        self.admit_cost_coefficient = fleet_cost_coefficient(self.system)
        self.state = WorkingState(
            self.system, allocation.copy() if allocation is not None else None
        )
        self.scorer = DeltaScorer(
            self.state, validate=self.config.validate_delta_scoring
        )
        maybe_attach_cache(self.state, self.config)
        self.journal = journal
        self.metrics = MetricsRegistry()
        self.seq = 0
        self.failed: Set[int] = set()
        self.pending = PendingQueue(on_change=self._note_queue_depth)
        self._drift_ref: Dict[int, float] = {}
        self._events_since_oracle = 0

        for client in list(self.system.clients):
            if self.state.allocation.entries_of_client(client.client_id):
                self._drift_ref[client.client_id] = client.rate_predicted
            elif not self._try_place(client):
                self.pending.add(self._evict(client.client_id))
        self._boundary()
        if math.isinf(self.scorer.profit()):
            raise ServiceError("initial allocation is infeasible")

    def _note_queue_depth(self, depth: int) -> None:
        """Single queue-depth sink: every PendingQueue mutation lands here."""
        self.metrics.queue_depth = depth

    # -- public surface ------------------------------------------------------

    @property
    def allocation(self) -> Allocation:
        """The live allocation (a mutable view; ``copy()`` it to keep)."""
        return self.state.allocation

    def profit(self) -> float:
        """Running profit of the current allocation (incremental)."""
        return self.scorer.profit()

    def load_index(self) -> float:
        """Fraction of live fleet processing capacity in use, in [0, 1].

        The pricing schedule's load signal.  A pure function of the
        canonicalized working state (servers iterated in fixed fleet
        order, failed servers excluded), so repricing decisions replay
        deterministically.
        """
        used = 0.0
        capacity = 0.0
        for server in self.system.servers():
            if server.server_id in self.failed:
                continue
            cap = server.cap_processing
            capacity += cap
            # Shares are fractions of one server; weight by capacity so
            # the index reflects work, not server count.
            used += cap * (1.0 - self.state.free_processing(server.server_id))
        if capacity <= 0.0:
            return 1.0
        return min(max(used / capacity, 0.0), 1.0)

    def _reprice(self, client: Client) -> Client:
        """The spec the service would admit right now (surge applied)."""
        if self.pricing is None:
            return client
        return self.pricing.reprice(client, self.load_index())

    def apply(self, event: ServiceEvent) -> EventOutcome:
        """Apply one event: validate, journal, repair, re-optimize if due.

        Raises :class:`~repro.exceptions.ServiceError` on an invalid event
        *before* the journal records it, so a journal never contains a
        rejected event.
        """
        self._validate(event)
        self.seq += 1
        if self.journal is not None:
            self.journal.append(self.seq, event)
        started = time.perf_counter()
        outcome = self._dispatch(event)
        self._events_since_oracle += 1
        if (
            self.policy.oracle_period
            and self._events_since_oracle >= self.policy.oracle_period
        ):
            outcome.swapped = self._reoptimize() or outcome.swapped
        self._boundary()
        if audit_enabled():
            audit_point(
                self.system,
                self.state.allocation,
                f"service.apply[{type(event).__name__} seq={self.seq}]",
                require_all_served=True,
                extra_violations=check_no_entries_on_servers(
                    self.state.allocation, self.failed
                ),
            )
        profit = self.scorer.profit()
        if math.isinf(profit):
            raise ServiceError(
                f"service invariant broken after event {self.seq}: "
                "state is infeasible"
            )
        outcome.seq = self.seq
        outcome.profit = profit
        outcome.repair_seconds = time.perf_counter() - started
        self.metrics.incr(f"events_{_EVENT_TAGS[type(event)]}")
        self.metrics.record_event(self.seq, profit, outcome.repair_seconds)
        return outcome

    def apply_many(self, events) -> List[EventOutcome]:
        return [self.apply(event) for event in events]

    # -- validation ----------------------------------------------------------

    def _validate(self, event: ServiceEvent) -> None:
        if isinstance(event, ClientAdmit):
            cid = event.client.client_id
            if self.system.has_client(cid) or cid in self.pending:
                raise ServiceError(f"client {cid} is already known to the service")
        elif isinstance(event, (ClientDepart, RateUpdate)):
            cid = event.client_id
            if not self.system.has_client(cid) and cid not in self.pending:
                raise ServiceError(f"client {cid} is not known to the service")
        elif isinstance(event, ServerFail):
            if event.server_id not in self.state.server_statics:
                raise ServiceError(f"unknown server {event.server_id}")
            if event.server_id in self.failed:
                raise ServiceError(f"server {event.server_id} already failed")
        elif isinstance(event, ServerRecover):
            if event.server_id not in self.failed:
                raise ServiceError(f"server {event.server_id} is not failed")
        else:
            raise ServiceError(f"not a service event: {type(event).__name__}")

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, event: ServiceEvent) -> EventOutcome:
        outcome = EventOutcome(seq=self.seq, event=event)
        if isinstance(event, ClientAdmit):
            self._admit(event.client, outcome)
        elif isinstance(event, ClientDepart):
            self._depart(event.client_id)
        elif isinstance(event, RateUpdate):
            self._rate_update(event, outcome)
        elif isinstance(event, ServerFail):
            self._server_fail(event.server_id, outcome)
        else:
            self._server_recover(event.server_id)
        return outcome

    def _try_place(self, client: Client) -> bool:
        """Place a client already registered in the system, atomically.

        The placement plus its local rebalance either commits with a
        feasible score or rolls back leaving no trace.
        """
        self.state.begin_txn()
        if place_client(
            self.state, client, self.config, excluded_server_ids=self.failed
        ) and not math.isinf(self.scorer.profit()):
            self.state.commit_txn()
            self._drift_ref[client.client_id] = client.rate_predicted
            return True
        self.state.rollback_txn()
        return False

    def _admit(self, client: Client, outcome: EventOutcome) -> None:
        priced = self._reprice(client)
        allowed, _ = self.admission.decide(self, priced)
        if not allowed:
            # Refused on profit grounds: never placed, never queued.
            # The event is journaled (it validated), so replaying with
            # the same policy reproduces the refusal byte-for-byte.
            outcome.accepted = False
            self.metrics.incr("admits_rejected")
            return
        self.system.add_client(priced)
        self.scorer.register_client(priced.client_id)
        if self._try_place(priced):
            self.metrics.incr("admits_accepted")
            return
        self.scorer.deregister_client(priced.client_id)
        self.system.remove_client(priced.client_id)
        # Queue the *original* spec: each retry re-prices against the
        # load in force at that instant, not at first arrival.
        self.pending.add(client)
        outcome.accepted = False
        outcome.queued = True
        self.metrics.incr("admits_queued")

    def _evict(self, client_id: int) -> Client:
        """Remove a served client from the system (shares released)."""
        self.state.unassign_client(client_id)
        self.scorer.deregister_client(client_id)
        self._drift_ref.pop(client_id, None)
        return self.system.remove_client(client_id)

    def _depart(self, client_id: int) -> None:
        if client_id in self.pending:
            self.pending.remove(client_id)
            return
        touched = sorted(self.state.allocation.entries_of_client(client_id))
        self._evict(client_id)
        rebalance_servers(self.state, touched, self.config)
        consolidate_servers(
            self.state, touched, self.config, excluded_server_ids=self.failed
        )
        self._retry_pending()

    def _rate_update(self, event: RateUpdate, outcome: EventOutcome) -> None:
        queued = self.pending.get(event.client_id)
        if queued is not None:
            updated = dataclasses.replace(
                queued, rate_predicted=event.rate_predicted
            )
            self.pending.replace(updated)
            # No capacity was freed, so every *other* pending client is
            # still unplaceable (retry passes are exhaustive after each
            # event); only the updated client's feasibility can have
            # changed.  Retrying just it is equivalent to a full pass —
            # and keeps overload rate-churn O(1) instead of O(pending).
            self._retry_one(updated)
            return
        updated = dataclasses.replace(
            self.system.client(event.client_id), rate_predicted=event.rate_predicted
        )
        self.system.replace_client(updated)
        # The system changed behind the allocation's back; the client's
        # revenue/stability terms must be re-derived, and any cached
        # curves priced against the old rates retired.
        self.scorer.mark_client(updated.client_id)
        self.state.note_client_replaced(updated.client_id)
        touched = sorted(self.state.allocation.entries_of_client(updated.client_id))
        rebalance_servers(self.state, touched, self.config)
        if math.isinf(self.scorer.profit()):
            # Local repair could not restore stability at the new rate:
            # re-place the client from scratch, queueing it as a last resort.
            self.state.unassign_client(updated.client_id)
            rebalance_servers(self.state, touched, self.config)
            if not self._try_place(updated):
                self._evict(updated.client_id)
                self.pending.add(updated)
                outcome.queued = True
                outcome.stranded.append(updated.client_id)
                self.metrics.incr("clients_stranded")
        else:
            # Share rebalancing cannot fix a stale *placement*: the new
            # rate may make a different server strictly better.  Try the
            # accept-if-better move, then see whether the servers the
            # client vacated (or shrank on) can now power down.
            if reseat_client(
                self.state, updated, self.config, excluded_server_ids=self.failed
            ):
                self.metrics.incr("clients_reseated")
            touched = sorted(
                set(touched)
                | set(self.state.allocation.entries_of_client(updated.client_id))
            )
            consolidate_servers(
                self.state, touched, self.config, excluded_server_ids=self.failed
            )
        if self._relative_drift() > self.policy.drift_threshold:
            outcome.swapped = self._reoptimize() or outcome.swapped

    def _server_fail(self, server_id: int, outcome: EventOutcome) -> None:
        self.failed.add(server_id)
        rehomed, stranded = drain_server(
            self.state, server_id, self.config, excluded_server_ids=self.failed
        )
        for client_id in stranded:
            client = self._evict(client_id)
            self.pending.add(client)
            outcome.stranded.append(client_id)
            self.metrics.incr("clients_stranded")
        # Post-drain audit (defense in depth): no surviving row may
        # reference failed hardware — it would silently bill traffic to a
        # dead server and poison every profit figure from here on.  Any
        # offender is zeroed and re-placed atomically (or evicted to the
        # pending queue) before the profit recompute below can see it.
        stale = sorted(
            {
                client_id
                for client_id, sid, _ in self.state.allocation.iter_entries()
                if sid in self.failed
            }
        )
        for client_id in stale:
            self.metrics.incr("stale_rows_purged")
            client = self.system.client(client_id)
            self.state.unassign_client(client_id)
            if client_id in rehomed:
                rehomed.remove(client_id)
            if not self._try_place(client):
                self.pending.add(self._evict(client_id))
                outcome.stranded.append(client_id)
                self.metrics.incr("clients_stranded")
        receiving: Set[int] = set()
        for client_id in rehomed:
            receiving.update(self.state.allocation.entries_of_client(client_id))
        rebalance_servers(self.state, receiving, self.config)

    def _server_recover(self, server_id: int) -> None:
        self.failed.discard(server_id)
        self._retry_pending()

    def _retry_one(
        self, client: Client, priced: Optional[Client] = None
    ) -> bool:
        """Attempt to place one queued client; True iff it left the queue.

        Re-prices and re-gates against the *current* state: a client
        that was profitable at arrival may not be at retry time (or vice
        versa), and the spec admitted is the one priced at this instant.
        The pending queue keeps the original spec either way.
        """
        if priced is None:
            priced = self._reprice(client)
        allowed, _ = self.admission.decide(self, priced)
        if not allowed:
            return False
        self.system.add_client(priced)
        self.scorer.register_client(priced.client_id)
        if self._try_place(priced):
            self.pending.remove(client.client_id)
            self.metrics.incr("pending_placed")
            return True
        self.scorer.deregister_client(priced.client_id)
        self.system.remove_client(priced.client_id)
        return False

    def _retry_pending(self) -> None:
        """One pass over the queue; admits every client that now fits.

        Order is the admission policy's call: FIFO for the baseline
        (``orders_retries=False`` — freed capacity goes to the oldest
        pending client), priority-descending otherwise, so a freed slot
        goes to the highest-marginal-profit candidate.  Priorities are
        evaluated once against the pass's starting state (ties broken by
        queue position), which keeps the pass deterministic and one
        estimate per client; the per-client gate inside
        :meth:`_retry_one` still sees the live state.  Nothing mutates
        the state while the list is built, so the whole pass is priced
        at one load index.
        """
        if not self.pending:
            return
        if self.pricing is None:
            entries = [(client, self._reprice(client)) for client in self.pending]
        else:
            load = self.load_index()
            entries = [
                (client, self.pricing.reprice(client, load))
                for client in self.pending
            ]
        if self.admission.orders_retries and len(entries) > 1:
            ranked = sorted(
                range(len(entries)),
                key=lambda i: (
                    -self.admission.priority(self, entries[i][1]),
                    i,
                ),
            )
            entries = [entries[i] for i in ranked]
        for client, priced in entries:
            self._retry_one(client, priced)

    # -- drift-triggered re-optimization -------------------------------------

    def _relative_drift(self) -> float:
        """Weighted L1 drift of predicted rates since the last re-solve."""
        numerator = 0.0
        denominator = 0.0
        for client_id in sorted(self._drift_ref):
            reference = self._drift_ref[client_id]
            numerator += abs(
                self.system.client(client_id).rate_predicted - reference
            )
            denominator += reference
        return numerator / denominator if denominator > 0.0 else 0.0

    def _reduced_system(self) -> Optional[CloudSystem]:
        """The solvable sub-system: clusters minus failed servers."""
        if not self.system.clients:
            return None
        if not self.failed:
            return self.system
        clusters: List[Cluster] = []
        for cluster in self.system.clusters:
            servers = [
                s for s in cluster.servers if s.server_id not in self.failed
            ]
            if not servers:
                continue
            if len(servers) == len(cluster.servers):
                clusters.append(cluster)
            else:
                clusters.append(
                    Cluster(
                        cluster_id=cluster.cluster_id,
                        name=cluster.name,
                        servers=servers,
                    )
                )
        if not clusters:
            return None
        return CloudSystem(
            clusters=clusters, clients=list(self.system.clients), name=self.system.name
        )

    def _reoptimize(self) -> bool:
        """Full batch re-solve; atomically swap in the result iff it wins.

        Either way the drift reference resets to the current rates — the
        decision "repair is still good enough" is itself re-anchored.
        """
        self._events_since_oracle = 0
        self.metrics.incr("reoptimizations")
        self._drift_ref = {
            client.client_id: client.rate_predicted
            for client in self.system.clients
        }
        reduced = self._reduced_system()
        if reduced is None:
            return False
        candidate = ResourceAllocator(self.config).solve(reduced).allocation
        candidate_profit = score(self.system, candidate)
        if candidate_profit <= self.scorer.profit() + self.policy.regression_tolerance:
            return False
        self.state.restore(candidate)
        self.metrics.incr("reoptimizations_swapped")
        # The batch solver may have left some clients unserved; they leave
        # the system for the queue (the engine's invariant: in-system means
        # served), then the queue gets a retry against the new allocation.
        for client in list(self.system.clients):
            if not self.state.allocation.entries_of_client(client.client_id):
                self.pending.add(self._evict(client.client_id))
        self._retry_pending()
        return True

    # -- canonical event boundary --------------------------------------------

    def _boundary(self) -> None:
        """Normalize history-dependent derived state (see module docs)."""
        self.state.canonicalize()
        self.scorer.resync()

    # -- snapshot / restore ----------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """Serialize the full logical state as a versioned document.

        The ``profit`` field is the *full evaluator's* value on the
        canonicalized state — a pure function of (system, allocation) — so
        equal logical states always snapshot to identical bytes.
        """
        self._boundary()
        return {
            "format": SNAPSHOT_FORMAT,
            "version": SNAPSHOT_VERSION,
            "seq": self.seq,
            "system": system_to_dict(self.system),
            "allocation": allocation_to_dict(self.state.allocation),
            "failed_servers": sorted(self.failed),
            "pending": [client_to_dict(c) for c in self.pending],
            "drift_ref": {
                str(cid): rate for cid, rate in sorted(self._drift_ref.items())
            },
            "events_since_oracle": self._events_since_oracle,
            "profit": score(self.system, self.state.allocation),
            "counters": self.metrics.deterministic_counters(),
        }

    def snapshot_hash(self) -> str:
        """SHA-256 of the canonical snapshot rendering."""
        return hashlib.sha256(
            dump_canonical(self.snapshot()).encode("utf-8")
        ).hexdigest()

    @classmethod
    def restore(
        cls,
        doc: Dict[str, Any],
        config: Optional[SolverConfig] = None,
        policy: Optional[ServicePolicy] = None,
        journal: Optional[Any] = None,
        admission: Optional[AdmissionPolicy] = None,
        pricing: Optional[PricingSchedule] = None,
    ) -> "AllocationService":
        """Rebuild a service from :meth:`snapshot` output.

        The restored engine continues bit-identically to the one that was
        snapshotted (given the same config/policy).  Raises
        :class:`~repro.exceptions.ServiceError` when the document's stored
        profit disagrees with the restored state.
        """
        require_format(doc, SNAPSHOT_FORMAT, max_version=SNAPSHOT_VERSION)
        try:
            system = system_from_dict(doc["system"])
            allocation = allocation_from_dict(doc["allocation"])
            service = cls(
                system,
                config=config,
                policy=policy,
                allocation=allocation,
                journal=journal,
                admission=admission,
                pricing=pricing,
            )
            service.seq = doc["seq"]
            service.failed = set(doc["failed_servers"])
            service.pending.clear()
            for entry in doc["pending"]:
                service.pending.add(client_from_dict(entry))
            service._drift_ref = {
                int(cid): rate for cid, rate in doc["drift_ref"].items()
            }
            service._events_since_oracle = doc["events_since_oracle"]
            service.metrics.seed_counters(doc["counters"])
            stored_profit = doc["profit"]
        except ServiceError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ServiceError(f"malformed service snapshot: {exc}") from exc
        restored_profit = score(service.system, service.state.allocation)
        if abs(restored_profit - stored_profit) > AGREEMENT_TOLERANCE:
            raise ServiceError(
                "snapshot is inconsistent: stored profit "
                f"{stored_profit!r} but restored state evaluates to "
                f"{restored_profit!r}"
            )
        return service
