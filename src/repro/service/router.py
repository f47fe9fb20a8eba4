"""Sharded async service tier: N engines behind a backpressured router.

One :class:`~repro.service.engine.AllocationService` tops out at a few
hundred events/sec — every event repairs against the whole datacenter's
state.  The router turns the service into a *tier*: the fleet's servers
are dealt round-robin into ``num_shards`` disjoint cluster slices
(:func:`repro.core.sharded.deal_servers` — the same dealing the batch
hierarchy uses, so every shard owns ~1/S of every cluster's capacity),
and each slice is run by its own independent engine.  Clients route to
shards by stable id hash, server events by slice ownership, so every
event has exactly one home and shard engines never share state.

**Ingestion.**  An asyncio event router fronts the engines with one
bounded queue per shard.  Consumers drain their queue in batches of
``batch_size`` events between repair commits and yield between batches,
so ingestion interleaves with repair instead of starving behind it.
Producers choose their coupling:

* :meth:`ServiceRouter.submit` (closed loop) — **backpressure**: when
  the shard's queue is at ``queue_budget`` the caller awaits until the
  consumer frees a slot; nothing is ever dropped;
* :meth:`ServiceRouter.offer` (open loop) — **load shedding**: arrivals
  cannot be paused, so when a queue is at budget the *lowest
  marginal-profit admit* loses its slot (Mazzucco-style admission under
  overload: what you refuse is the profit lever).  Departures, rate
  updates and server events are never shed — dropping them would
  desynchronize the router from reality — so the queue may transiently
  exceed its budget when it holds only unsheddable work.

Shedding ranks admits by marginal profit: with an
:class:`~repro.service.admission.OpportunityCost` policy on an
in-process engine the rank is the *live* eq.-(16) estimate from the
shard's cached marginal curves; otherwise it falls back to
:func:`admit_priority`, a static proxy (best-case revenue rate minus
the utilization demand priced at the fleet's mean ``P1``).  Client id
is the deterministic tie-break; every decision is logged as a
:class:`ShedRecord` carrying the best retained candidate so tests can
assert the policy exactly.

**Failover.**  :meth:`ServiceRouter.failover` ships a shard's state
through the versioned snapshot codec (the same document the journal
recovery path consumes), restores it into a standby engine, asserts the
standby's snapshot hash is byte-identical to the live engine's, and
atomically swaps it in — the standby continues bit-identically, queued
events and all.

**Determinism.**  Each engine remains a deterministic function of its
event substream; with per-shard journals armed, replaying shard ``i``'s
journal into a fresh engine over the same slice reproduces the live
engine's snapshot hash (:meth:`ServiceRouter.verify_shard_replay` — the
sharded replay-determinism CI gate).  Router-level decisions (routing,
shedding) depend only on event content and queue occupancy, never on
the wall clock, so a repeated run over the same burst stream sheds the
same admits and reaches the same per-shard hashes.

**Scaling out.**  ``mode="async"`` (the default) runs every engine in
the host process — fully deterministic, but repair work serializes on
one core.  ``mode="process"`` forks one long-lived engine process per
shard: the parent keeps routing, queueing and shedding; workers own
their engine and journal and apply shipped batches with at most one
batch in flight per shard.  Shard engines then repair *concurrently*,
so aggregate events/sec scales with shard count.  Shed decisions in
this mode depend on batch-acknowledgement timing and are not
reproducible run-to-run, but per-shard *replay* determinism is
untouched: whatever substream a worker journaled replays to its exact
snapshot hash.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection, wait as connection_wait
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from collections import deque

from repro.config import SolverConfig
from repro.core.sharded import ShardSpec, deal_servers, shard_subsystem
from repro.exceptions import ConfigurationError, ServiceError
from repro.io import dump_canonical
from repro.model.client import Client
from repro.model.datacenter import CloudSystem
from repro.service.admission import (
    AdmissionPolicy,
    AlwaysAdmitIfFeasible,
    PricingSchedule,
    fleet_cost_coefficient,
    static_admit_priority,
)
from repro.service.engine import AllocationService, ServicePolicy
from repro.service.events import (
    ClientAdmit,
    ClientDepart,
    RateUpdate,
    ServerFail,
    ServerRecover,
    ServiceEvent,
)
from repro.service.journal import EventJournal
from repro.service.metrics import LatencyHistogram, merged_quantiles


@dataclass(frozen=True)
class RouterPolicy:
    """Shape of the service tier.

    ``num_shards`` — independent engines (clamped to the server count);
    ``queue_budget`` — per-shard queue depth at which backpressure (closed
    loop) or shedding (open loop) engages; ``batch_size`` — events a
    consumer applies per drain slice before yielding to ingestion;
    ``pending_budget`` — optional open-loop admission gate: when a
    shard's total *pending exposure* (unplaced admits on the engine,
    plus admits still queued or in flight toward it) reaches this many
    clients, further admits are shed at the door instead of piling onto
    the engine's pending queue (every capacity-freeing event retries
    that whole queue, so letting it grow without bound turns overload
    into quadratic work).  ``None`` (the default) disables the gate;
    closed loop ignores it.

    ``admit_cost_coefficient`` — price per unit of utilization demand
    used by the static shed proxy (see :func:`admit_priority`).
    ``None`` (the default) derives it from the fleet's mean marginal
    power price ``P1``.
    """

    num_shards: int = 4
    queue_budget: int = 64
    batch_size: int = 16
    pending_budget: Optional[int] = None
    admit_cost_coefficient: Optional[float] = None

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ConfigurationError(
                f"num_shards must be >= 1, got {self.num_shards}"
            )
        if self.queue_budget < 1:
            raise ConfigurationError(
                f"queue_budget must be >= 1, got {self.queue_budget}"
            )
        if self.batch_size < 1:
            raise ConfigurationError(
                f"batch_size must be >= 1, got {self.batch_size}"
            )
        if self.pending_budget is not None and self.pending_budget < 1:
            raise ConfigurationError(
                f"pending_budget must be >= 1, got {self.pending_budget}"
            )
        if self.admit_cost_coefficient is not None:
            if not self.admit_cost_coefficient >= 0.0:
                raise ConfigurationError(
                    "admit_cost_coefficient must be >= 0, got "
                    f"{self.admit_cost_coefficient}"
                )


def admit_priority(client: Client, cost_coefficient: float) -> float:
    """Static marginal-profit proxy used to rank admits for shedding.

    Best-case revenue rate (the SLA utility at zero response time times
    the agreed rate) minus a cost estimate: the client's utilization
    demand (predicted rate times total per-request service demand)
    priced at ``cost_coefficient`` dollars per unit of utilization —
    normally the fleet's mean marginal power price ``P1``, which puts
    both terms in $/time.  A cheap stand-in for the
    eq.-(16) marginal curve that needs no engine state, so the router
    can rank a queue without touching a shard.
    """
    return static_admit_priority(client, cost_coefficient)


def _shed_key(priority: float, client_id: int) -> Tuple[float, int]:
    """Total order for shedding: lowest priority first, id as tie-break."""
    return (priority, client_id)


@dataclass(frozen=True)
class ShedRecord:
    """One shedding decision, with the best admit it chose to keep."""

    shard_id: int
    client_id: int
    priority: float
    #: Lowest-priority admit retained in the queue at decision time
    #: (``None`` when the shed emptied the queue of admits).
    retained_client_id: Optional[int]
    retained_priority: Optional[float]


class _ShardLane:
    """One shard's ingestion lane: bounded queue + engine + counters.

    In async mode ``engine`` is the live in-process engine; in process
    mode it is ``None`` and the engine lives behind ``conn`` in a forked
    worker (``worker_pending`` / ``summary`` mirror its acked state).
    """

    def __init__(
        self,
        shard_id: int,
        engine: Optional[AllocationService],
        journal_path: Optional[str],
    ) -> None:
        self.shard_id = shard_id
        self.engine = engine
        self.journal_path = journal_path
        self.queue: Deque[ServiceEvent] = deque()
        #: queued admits by client id -> (priority, event); the shed
        #: policy's O(1) membership + O(budget) min scan.
        self.admits: Dict[int, Tuple[float, ClientAdmit]] = {}
        self.wakeup = asyncio.Event()
        self.space = asyncio.Event()
        #: the async-mode task draining this lane in the latest run.
        self.consumer: Optional["asyncio.Task[None]"] = None
        self.offered = 0
        self.applied = 0
        self.shed = 0
        self.rejected = 0
        self.failovers = 0
        self.peak_depth = 0
        # process-mode plumbing
        self.proc: Optional[multiprocessing.Process] = None
        self.conn: Optional[Connection] = None
        self.inflight = 0
        #: admits inside the in-flight batch: shipped to the worker but
        #: not yet reflected in ``worker_pending`` (ack pending).
        self.inflight_admits = 0
        self.worker_pending = 0
        self.peak_worker_pending = 0
        self.summary: Optional[Dict[str, Any]] = None

    def push(self, event: ServiceEvent, priority: Optional[float] = None) -> None:
        self.queue.append(event)
        if priority is not None and isinstance(event, ClientAdmit):
            self.admits[event.client.client_id] = (priority, event)
        self.peak_depth = max(self.peak_depth, len(self.queue))
        self.wakeup.set()

    def pop_batch(self, limit: int) -> List[ServiceEvent]:
        batch: List[ServiceEvent] = []
        for _ in range(min(limit, len(self.queue))):
            event = self.queue.popleft()
            if isinstance(event, ClientAdmit):
                self.admits.pop(event.client.client_id, None)
            batch.append(event)
        return batch

    def lowest_admit(self) -> Tuple[int, float]:
        """The queued admit the shed policy would drop first."""
        cid = min(self.admits, key=lambda c: _shed_key(self.admits[c][0], c))
        return cid, self.admits[cid][0]

    def drop_admit(self, client_id: int) -> None:
        _, event = self.admits.pop(client_id)
        self.queue.remove(event)


def _shard_worker_main(
    conn: Connection,
    sub_system: CloudSystem,
    config: Optional[SolverConfig],
    policy: Optional[ServicePolicy],
    journal_path: Optional[str],
    admission: Optional[AdmissionPolicy] = None,
    pricing: Optional[PricingSchedule] = None,
) -> None:
    """Engine process: apply shipped batches until the ``None`` sentinel.

    Each batch is acked with ``(applied, rejected, engine_pending)``;
    the sentinel is answered with the shard's final summary (profit,
    snapshot hash, shipped histogram state) before the process exits.
    """
    journal = EventJournal(journal_path) if journal_path is not None else None
    engine = AllocationService(
        sub_system,
        config=config,
        policy=policy,
        journal=journal,
        admission=admission,
        pricing=pricing,
    )
    try:
        while True:
            batch = conn.recv()
            if batch is None:
                break
            applied = 0
            rejected = 0
            for event in batch:
                try:
                    engine.apply(event)
                    applied += 1
                except ServiceError:
                    rejected += 1
            conn.send((applied, rejected, len(engine.pending)))
        conn.send(
            {
                "profit": engine.profit(),
                "snapshot_hash": engine.snapshot_hash(),
                "pending_clients": len(engine.pending),
                "repair_latency": engine.metrics.repair_latency.to_dict(),
                "histogram_state": engine.metrics.repair_latency.state(),
                "counters": engine.metrics.deterministic_counters(),
            }
        )
    finally:
        if journal is not None:
            journal.close()
        conn.close()


class ServiceRouter:
    """The sharded service tier; see module docstring.

    ``system`` provides the fleet (its clusters are dealt into slices);
    any clients it carries are ignored — clients arrive as events.  Pass
    ``journal_dir`` to journal each shard's accepted substream to
    ``shard-<i>.jsonl`` (required by :meth:`verify_shard_replay`).
    ``mode`` is ``"async"`` (in-process, deterministic) or ``"process"``
    (one forked engine per shard — see module docstring).
    """

    def __init__(
        self,
        system: CloudSystem,
        router: Optional[RouterPolicy] = None,
        config: Optional[SolverConfig] = None,
        policy: Optional[ServicePolicy] = None,
        journal_dir: Optional[str] = None,
        mode: str = "async",
        admission: Optional[AdmissionPolicy] = None,
        pricing: Optional[PricingSchedule] = None,
    ) -> None:
        if mode not in ("async", "process"):
            raise ConfigurationError(
                f"mode must be 'async' or 'process', got {mode!r}"
            )
        self.policy = router or RouterPolicy()
        self.mode = mode
        self._config = config
        self._engine_policy = policy
        self.admission = admission if admission is not None else AlwaysAdmitIfFeasible()
        self.pricing = pricing
        if self.policy.admit_cost_coefficient is not None:
            self.admit_cost_coefficient = self.policy.admit_cost_coefficient
        else:
            self.admit_cost_coefficient = fleet_cost_coefficient(system)
        hands = deal_servers(system, self.policy.num_shards)
        self.num_shards = len(hands)
        self.subsystems: List[CloudSystem] = []
        self._lanes: List[_ShardLane] = []
        self._server_shard: Dict[int, int] = {}
        self.shed_log: List[ShedRecord] = []
        self._closing = False
        for shard_id, server_ids in enumerate(hands):
            spec = ShardSpec(
                shard_id=shard_id, client_ids=(), server_ids=server_ids
            )
            sub_system = shard_subsystem(system, spec)
            self.subsystems.append(sub_system)
            journal_path = None
            if journal_dir is not None:
                journal_path = os.path.join(
                    journal_dir, f"shard-{shard_id}.jsonl"
                )
            engine = None
            if mode == "async":
                journal = (
                    EventJournal(journal_path)
                    if journal_path is not None
                    else None
                )
                engine = AllocationService(
                    sub_system,
                    config=config,
                    policy=policy,
                    journal=journal,
                    admission=self.admission,
                    pricing=self.pricing,
                )
            self._lanes.append(_ShardLane(shard_id, engine, journal_path))
            for sid in server_ids:
                self._server_shard[sid] = shard_id

    # -- routing -------------------------------------------------------------

    def shard_of_client(self, client_id: int) -> int:
        """Stable client->shard hash; a client's whole life stays on one shard."""
        return client_id % self.num_shards

    def shard_of(self, event: ServiceEvent) -> int:
        if isinstance(event, ClientAdmit):
            return self.shard_of_client(event.client.client_id)
        if isinstance(event, (ClientDepart, RateUpdate)):
            return self.shard_of_client(event.client_id)
        if isinstance(event, (ServerFail, ServerRecover)):
            try:
                return self._server_shard[event.server_id]
            except KeyError:
                raise ServiceError(
                    f"unknown server {event.server_id}"
                ) from None
        raise ServiceError(f"not a service event: {type(event).__name__}")

    @property
    def engines(self) -> List[AllocationService]:
        if self.mode != "async":
            raise ServiceError("engines live in worker processes in process mode")
        return [lane.engine for lane in self._lanes]

    def _engine_pending(self, lane: _ShardLane) -> int:
        """Unplaced admits on the shard's engine (acked mirror in
        process mode — stale by at most one in-flight batch)."""
        if lane.engine is not None:
            return len(lane.engine.pending)
        return lane.worker_pending

    def _pending_exposure(self, lane: _ShardLane) -> int:
        """Worst-case unplaced admits the shard could reach: admits the
        engine has already parked, plus admits queued on the lane, plus
        admits inside the in-flight batch.  The acked engine count alone
        lags by up to ``batch_size`` events in process mode, so gating
        on it lets admissions overshoot ``pending_budget``; gating on
        the full exposure keeps the budget a hard ceiling in both
        modes."""
        return self._engine_pending(lane) + len(lane.admits) + lane.inflight_admits

    def _admit_priority(self, lane: _ShardLane, client: Client) -> float:
        """Shed-ranking priority for one admit: the live eq.-(16)
        marginal-profit estimate when the admission policy provides one
        and the shard's engine is in-process, else the static priced
        proxy.  Infeasible-now estimates (``-inf``) fall back to the
        static proxy so a client the engine would queue-and-retry is
        ranked by its prospects, not shed unconditionally."""
        if self.admission.uses_live_estimate and lane.engine is not None:
            estimate = self.admission.priority(lane.engine, client)
            if estimate == estimate and abs(estimate) != float("inf"):
                return estimate
        return static_admit_priority(client, self.admit_cost_coefficient)

    # -- ingestion -----------------------------------------------------------

    def offer(self, event: ServiceEvent) -> bool:
        """Open-loop enqueue: shed rather than block; returns False iff the
        offered event itself was shed (a displaced *queued* admit also
        counts against the lane's ``shed`` counter but not this return)."""
        lane = self._lanes[self.shard_of(event)]
        lane.offered += 1
        over_budget = len(lane.queue) >= self.policy.queue_budget
        if isinstance(event, ClientAdmit):
            priority = self._admit_priority(lane, event.client)
            if (
                self.policy.pending_budget is not None
                and self._pending_exposure(lane) >= self.policy.pending_budget
            ):
                # The engine is saturated past its retry budget: this
                # admit could only join an already-hopeless queue.
                self._record_shed(lane, event.client.client_id, priority)
                return False
            if over_budget:
                if not lane.admits:
                    # Only unsheddable work queued: the newcomer is the
                    # sole candidate and loses.
                    self._record_shed(lane, event.client.client_id, priority)
                    return False
                victim_id, victim_priority = lane.lowest_admit()
                if _shed_key(priority, event.client.client_id) <= _shed_key(
                    victim_priority, victim_id
                ):
                    self._record_shed(lane, event.client.client_id, priority)
                    return False
                lane.drop_admit(victim_id)
                self._record_shed(lane, victim_id, victim_priority)
            lane.push(event, priority)
            return True
        # Departures / rate updates / server events are never shed; free a
        # slot by evicting the worst queued admit when over budget.
        if over_budget and lane.admits:
            victim_id, victim_priority = lane.lowest_admit()
            lane.drop_admit(victim_id)
            self._record_shed(lane, victim_id, victim_priority)
        lane.push(event)
        return True

    def _record_shed(
        self, lane: _ShardLane, client_id: int, priority: float
    ) -> None:
        lane.shed += 1
        retained_id: Optional[int] = None
        retained_priority: Optional[float] = None
        if lane.admits:
            retained_id, retained_priority = lane.lowest_admit()
        self.shed_log.append(
            ShedRecord(
                shard_id=lane.shard_id,
                client_id=client_id,
                priority=priority,
                retained_client_id=retained_id,
                retained_priority=retained_priority,
            )
        )

    async def submit(self, event: ServiceEvent) -> None:
        """Closed-loop enqueue: await a free slot instead of shedding."""
        lane = self._lanes[self.shard_of(event)]
        while len(lane.queue) >= self.policy.queue_budget:
            self._raise_if_consumer_died(lane)
            lane.space.clear()
            if len(lane.queue) < self.policy.queue_budget:
                break
            await lane.space.wait()
        lane.offered += 1
        if isinstance(event, ClientAdmit):
            lane.push(event, self._admit_priority(lane, event.client))
        else:
            lane.push(event)

    # -- consumers -----------------------------------------------------------

    async def _drain_lane(self, lane: _ShardLane) -> None:
        while True:
            if not lane.queue:
                if self._closing:
                    return
                lane.wakeup.clear()
                if lane.queue or self._closing:
                    continue
                await lane.wakeup.wait()
                continue
            batch = lane.pop_batch(self.policy.batch_size)
            for event in batch:
                try:
                    lane.engine.apply(event)
                    lane.applied += 1
                except ServiceError:
                    # An event invalidated upstream — typically the
                    # departure or rate update of a client whose admit
                    # was shed.  The engine rejects it before journaling,
                    # so the shard's replay stream stays clean.
                    lane.rejected += 1
            lane.space.set()
            # One batch per slice: yield so ingestion and the other
            # lanes interleave between repair commits.
            await asyncio.sleep(0)

    def _start_consumers(self) -> List["asyncio.Task[None]"]:
        for lane in self._lanes:
            lane.consumer = asyncio.create_task(self._drain_lane(lane))
            # Wake a producer blocked in submit() whenever the consumer
            # ends, so a consumer that died is noticed, not awaited.
            lane.consumer.add_done_callback(
                lambda _task, lane=lane: lane.space.set()
            )
        return [lane.consumer for lane in self._lanes]

    @staticmethod
    def _raise_if_consumer_died(lane: _ShardLane) -> None:
        """Re-raise the fault that ended ``lane``'s consumer, if any.

        A consumer returns only once the run is closing, so one that is
        done mid-run died on an exception other than a rejected event
        (:class:`ServiceError`); its lane would never drain again.
        """
        consumer = lane.consumer
        if consumer is not None and consumer.done() and not consumer.cancelled():
            consumer.result()

    async def _run_to_completion(self) -> None:
        while any(lane.queue for lane in self._lanes):
            for lane in self._lanes:
                self._raise_if_consumer_died(lane)
            await asyncio.sleep(0)
        self._closing = True
        for lane in self._lanes:
            lane.wakeup.set()

    async def run_open_loop_async(
        self, bursts: Sequence[Any]
    ) -> Dict[str, Any]:
        """Feed timestamped bursts open-loop (see :mod:`repro.service.loadgen`);
        drains every queue, then returns :meth:`report` with wall time."""
        started = time.perf_counter()
        consumers = self._start_consumers()
        try:
            for burst in bursts:
                for event in burst.events:
                    self.offer(event)
                # The burst boundary is the ingestion tier's scheduling
                # point: consumers run between bursts, as they would
                # between arrival instants.
                await asyncio.sleep(0)
            await self._run_to_completion()
            await asyncio.gather(*consumers)
        finally:
            self._closing = False
            for task in consumers:
                task.cancel()
        return self.report(elapsed=time.perf_counter() - started)

    def run_open_loop(self, bursts: Sequence[Any]) -> Dict[str, Any]:
        if self.mode == "process":
            return self._run_open_loop_process(bursts)
        return asyncio.run(self.run_open_loop_async(bursts))

    # -- process mode ---------------------------------------------------------

    def _start_workers(self) -> None:
        ctx = multiprocessing.get_context("fork")
        for lane in self._lanes:
            lane.summary = None
            parent_conn, child_conn = ctx.Pipe()
            lane.conn = parent_conn
            lane.proc = ctx.Process(
                target=_shard_worker_main,
                args=(
                    child_conn,
                    self.subsystems[lane.shard_id],
                    self._config,
                    self._engine_policy,
                    lane.journal_path,
                    self.admission,
                    self.pricing,
                ),
                daemon=True,
            )
            lane.proc.start()
            child_conn.close()

    def _pump_lane(self, lane: _ShardLane) -> None:
        """Ship the next batch if the lane is idle and has queued work.

        One batch in flight per shard: the worker is never asked to
        buffer, so parent-side queue occupancy (the shed signal) stays
        an honest measure of how far behind the shard is.
        """
        if lane.inflight == 0 and lane.queue:
            batch = lane.pop_batch(self.policy.batch_size)
            lane.conn.send(batch)
            lane.inflight = len(batch)
            # Shipped admits stay counted against pending_budget until
            # the ack folds them into worker_pending (satellite fix for
            # the up-to-batch_size overshoot).
            lane.inflight_admits = sum(
                1 for event in batch if isinstance(event, ClientAdmit)
            )

    def _collect_acks(self, block: bool) -> None:
        conns = [lane.conn for lane in self._lanes if lane.inflight]
        if not conns:
            return
        for conn in connection_wait(conns, timeout=0.05 if block else 0):
            lane = next(l for l in self._lanes if l.conn is conn)
            try:
                applied, rejected, pending = conn.recv()
            except EOFError:
                raise ServiceError(
                    f"shard {lane.shard_id} engine worker exited mid-batch "
                    "(its traceback is on stderr)"
                ) from None
            lane.applied += applied
            lane.rejected += rejected
            lane.worker_pending = pending
            lane.peak_worker_pending = max(lane.peak_worker_pending, pending)
            lane.inflight = 0
            lane.inflight_admits = 0

    def _run_open_loop_process(self, bursts: Sequence[Any]) -> Dict[str, Any]:
        started = time.perf_counter()
        self._start_workers()
        try:
            for burst in bursts:
                for event in burst.events:
                    self.offer(event)
                self._collect_acks(block=False)
                for lane in self._lanes:
                    self._pump_lane(lane)
            while any(lane.queue or lane.inflight for lane in self._lanes):
                self._collect_acks(block=True)
                for lane in self._lanes:
                    self._pump_lane(lane)
            elapsed = time.perf_counter() - started
            for lane in self._lanes:
                lane.conn.send(None)
            for lane in self._lanes:
                lane.summary = lane.conn.recv()
                lane.worker_pending = lane.summary["pending_clients"]
                lane.peak_worker_pending = max(
                    lane.peak_worker_pending, lane.worker_pending
                )
        finally:
            self._teardown_workers()
        return self.report(elapsed=elapsed)

    def _teardown_workers(self) -> None:
        for lane in self._lanes:
            if lane.proc is not None:
                if lane.summary is None:
                    # The run failed before this worker got its stop
                    # sentinel: it is blocked waiting for a next batch.
                    lane.proc.terminate()
                lane.proc.join(timeout=10)
                if lane.proc.is_alive():
                    lane.proc.terminate()
                lane.proc = None
            if lane.conn is not None:
                lane.conn.close()
                lane.conn = None
            lane.inflight = 0
            lane.inflight_admits = 0

    async def run_closed_loop_async(
        self, events: Sequence[ServiceEvent]
    ) -> Dict[str, Any]:
        """Feed a flat stream with backpressure; nothing is ever shed."""
        started = time.perf_counter()
        consumers = self._start_consumers()
        try:
            for event in events:
                await self.submit(event)
            await self._run_to_completion()
            await asyncio.gather(*consumers)
        finally:
            self._closing = False
            for task in consumers:
                task.cancel()
        return self.report(elapsed=time.perf_counter() - started)

    def run_closed_loop(self, events: Sequence[ServiceEvent]) -> Dict[str, Any]:
        if self.mode == "process":
            return self._run_closed_loop_process(events)
        return asyncio.run(self.run_closed_loop_async(events))

    def _run_closed_loop_process(
        self, events: Sequence[ServiceEvent]
    ) -> Dict[str, Any]:
        """Process-mode closed loop: block on a full lane, never shed.

        This is the tier's *capacity* measurement — every event is
        applied (or rejected by validation), and the four engines repair
        concurrently.
        """
        started = time.perf_counter()
        self._start_workers()
        try:
            for event in events:
                lane = self._lanes[self.shard_of(event)]
                while len(lane.queue) >= self.policy.queue_budget:
                    self._collect_acks(block=True)
                    for other in self._lanes:
                        self._pump_lane(other)
                lane.offered += 1
                if isinstance(event, ClientAdmit):
                    lane.push(event, self._admit_priority(lane, event.client))
                else:
                    lane.push(event)
                self._collect_acks(block=False)
                for other in self._lanes:
                    self._pump_lane(other)
            while any(lane.queue or lane.inflight for lane in self._lanes):
                self._collect_acks(block=True)
                for lane in self._lanes:
                    self._pump_lane(lane)
            elapsed = time.perf_counter() - started
            for lane in self._lanes:
                lane.conn.send(None)
            for lane in self._lanes:
                lane.summary = lane.conn.recv()
                lane.worker_pending = lane.summary["pending_clients"]
                lane.peak_worker_pending = max(
                    lane.peak_worker_pending, lane.worker_pending
                )
        finally:
            self._teardown_workers()
        return self.report(elapsed=elapsed)

    # -- failover ------------------------------------------------------------

    def ship_snapshot(self, shard_id: int) -> Dict[str, Any]:
        """The shard's state as a wire document (canonical JSON round-trip)."""
        lane = self._lanes[shard_id]
        if lane.engine is None:
            raise ServiceError(
                "snapshot shipping and failover need mode='async' "
                "(process-mode engines live in workers)"
            )
        doc = lane.engine.snapshot()
        return json.loads(dump_canonical(doc))

    def failover(self, shard_id: int) -> str:
        """Warm-failover shard ``shard_id``: snapshot -> standby -> swap.

        The standby restores from the shipped document and must hash
        byte-identically to the live engine before it takes over (raises
        :class:`ServiceError` otherwise).  Queued events survive — they
        apply to the standby exactly as they would have to the original.
        Returns the asserted snapshot hash.
        """
        lane = self._lanes[shard_id]
        document = self.ship_snapshot(shard_id)
        expected = lane.engine.snapshot_hash()
        standby = AllocationService.restore(
            document,
            config=self._config,
            policy=self._engine_policy,
            journal=lane.engine.journal,
            admission=self.admission,
            pricing=self.pricing,
        )
        actual = standby.snapshot_hash()
        if actual != expected:
            raise ServiceError(
                f"shard {shard_id} failover diverged: live snapshot "
                f"{expected[:12]}... but standby restored to {actual[:12]}..."
            )
        lane.engine = standby
        lane.failovers += 1
        return expected

    # -- determinism ---------------------------------------------------------

    def verify_shard_replay(self, shard_id: int) -> Tuple[str, str]:
        """(live hash, journal-replay hash) for one shard; equal iff the
        shard's applied substream replays byte-deterministically."""
        lane = self._lanes[shard_id]
        if lane.journal_path is None:
            raise ServiceError(
                "shard replay verification requires journal_dir"
            )
        if lane.engine is not None:
            live = lane.engine.snapshot_hash()
        elif lane.summary is not None:
            live = lane.summary["snapshot_hash"]
        else:
            raise ServiceError(
                f"shard {shard_id} has no live hash yet: run the router "
                "(process mode) before verifying replay"
            )
        fresh = AllocationService(
            self.subsystems[shard_id],
            config=self._config,
            policy=self._engine_policy,
            admission=self.admission,
            pricing=self.pricing,
        )
        fresh.apply_many(
            [event for _, event in EventJournal.read(lane.journal_path)]
        )
        return live, fresh.snapshot_hash()

    def close(self) -> None:
        """Close every shard journal (idempotent; workers close their own)."""
        for lane in self._lanes:
            if lane.engine is not None and lane.engine.journal is not None:
                lane.engine.journal.close()

    def __enter__(self) -> "ServiceRouter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- reporting -----------------------------------------------------------

    def report(self, elapsed: Optional[float] = None) -> Dict[str, Any]:
        shards = []
        histograms: List[LatencyHistogram] = []
        for lane in self._lanes:
            cell = {
                "shard_id": lane.shard_id,
                "offered": lane.offered,
                "applied": lane.applied,
                "shed": lane.shed,
                "rejected": lane.rejected,
                "failovers": lane.failovers,
                "queue_depth": len(lane.queue),
                "peak_queue_depth": lane.peak_depth,
            }
            if lane.engine is not None:
                cell["pending_clients"] = len(lane.engine.pending)
                cell["profit"] = lane.engine.profit()
                cell["snapshot_hash"] = lane.engine.snapshot_hash()
                cell["repair_latency"] = lane.engine.metrics.repair_latency.to_dict()
                histograms.append(lane.engine.metrics.repair_latency)
            elif lane.summary is not None:
                state = lane.summary["histogram_state"]
                cell["pending_clients"] = lane.summary["pending_clients"]
                cell["peak_pending_clients"] = lane.peak_worker_pending
                cell["profit"] = lane.summary["profit"]
                cell["snapshot_hash"] = lane.summary["snapshot_hash"]
                cell["repair_latency"] = lane.summary["repair_latency"]
                histograms.append(
                    LatencyHistogram.from_state(
                        state["samples"],
                        state["count"],
                        state["sum_seconds"],
                        state["max_seconds"],
                        capacity=state["capacity"],
                    )
                )
            else:
                cell["pending_clients"] = 0
                cell["profit"] = 0.0
            shards.append(cell)
        applied = sum(s["applied"] for s in shards)
        report: Dict[str, Any] = {
            "mode": self.mode,
            "admission_policy": self.admission.name,
            "dynamic_pricing": self.pricing is not None,
            "num_shards": self.num_shards,
            "queue_budget": self.policy.queue_budget,
            "batch_size": self.policy.batch_size,
            "offered_total": sum(s["offered"] for s in shards),
            "applied_total": applied,
            "shed_total": sum(s["shed"] for s in shards),
            "rejected_total": sum(s["rejected"] for s in shards),
            # Shards are disjoint, so the tier's profit is the plain sum.
            "aggregate_profit": sum(s["profit"] for s in shards),
            "repair_latency": merged_quantiles(histograms),
            "shards": shards,
        }
        if elapsed is not None:
            report["elapsed_seconds"] = elapsed
            report["events_per_second"] = applied / elapsed if elapsed > 0 else 0.0
        return report
