"""The four workloads: their inputs, configs, timed region and checks.

Each workload is one *repetition* function, run in a fresh interpreter
per repetition (see ``run.py``).  A repetition builds its inputs from a
seed, times its set-up and its main operation through a :class:`Clock`,
and then checks the program's outputs outside the timed region.  Service
journals go to a ``tempfile`` directory, removed when the repetition
ends.

``attempted`` counts a repetition's operations (clients placed, events
offered) and ``failed`` those that went wrong: a client left unserved or
placed in violation of an invariant, an event the engine rejected or a
client it left stranded, an event the router lost.  Under deliberate
overload, shedding an event or refusing an admission is the router's
decision, not a failure; ``served`` leaves those out as well.

Inputs and the seed.  The catalogue of an instance -- its utility
(SLA price) classes, server SKUs and the fleet built from them -- is the
same in every run: it is drawn once from ``CATALOG_SEED``.  The seed
draws everything that arrives: the client population of the solve
workloads, the event streams of the serve workloads, and
``SolverConfig.seed``.  A provider's price list and hardware change
rarely while its demand changes every day; and with the catalogue drawn
per seed, profit across seeds spreads 20-30% (5 SLA classes and 10 SKUs
decide most of it), which no regression bound can sit above.  At seed
``CATALOG_SEED`` every instance equals the plain ``generate_system`` /
``overload_system`` instance of that seed.

The benchmark defines its own configs and imports nothing from
``benchmarks/bench_*.py``.
"""

from __future__ import annotations

import dataclasses
import os
import resource
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List

from repro.audit.invariants import find_violations
from repro.config import SolverConfig
from repro.core.allocator import AllocationResult, ResourceAllocator
from repro.core.sharded import ShardedAllocator
from repro.exceptions import ServiceError
from repro.model.arrays import SystemArrays
from repro.model.datacenter import CloudSystem
from repro.model.profit import evaluate_profit
from repro.service import (
    AllocationService,
    EventJournal,
    LoadGenConfig,
    OpportunityCost,
    PricingSchedule,
    RouterPolicy,
    ServicePolicy,
    ServiceRouter,
    TraceDriverConfig,
    generate_epoch_events,
    generate_load,
)
from repro.service.driver import empty_copy
from repro.workload.generator import generate_system
from repro.workload.overload import overload_system

CATALOG_SEED = 7

#: Absolute agreement required between a solver's reported profit and an
#: independent re-score of its allocation.
RESCORE_TOLERANCE = 1e-9

PAPER_CLIENTS = 240
SCALE_CLIENTS = 10_000
#: Scale-profile shard size: the measured sweet spot of the n=10k sweep.
SCALE_SHARD_SIZE = 160
CHURN_CLIENTS = 120
CHURN_EPOCHS = 40
#: Steady events per serve-churn pass.  The trace's event count depends
#: on the seed (about 1,700 to 2,300 over 30 epochs); a fixed count keeps
#: the pass time comparable across seeds.
CHURN_EVENTS = 2_000
OVERLOAD_TEMPLATES = 60
OVERLOAD_EVENTS = 20_000


def paper_instance(num_clients: int, seed: int) -> CloudSystem:
    """The catalogue of ``CATALOG_SEED`` with the client population of ``seed``."""
    catalog = generate_system(num_clients, seed=CATALOG_SEED).arrays
    demand = generate_system(num_clients, seed=seed).arrays
    clients = {name: getattr(demand, name) for name in SystemArrays._CLIENT_COLUMNS}
    return CloudSystem.from_arrays(
        dataclasses.replace(catalog, **clients),
        name=f"e2e(n={num_clients}, seed={seed})",
    )


class Clock:
    """Accumulates set-up and timed seconds; enables the tracer when timing.

    Set-up is timed in CPU seconds, the timed region in CPU and wall
    seconds.  The workloads run on one thread and never wait, so on an
    idle host the two agree; on a shared host wall time also counts the
    time other processes held the core, which has doubled it for minutes
    at a time.  ``peak_rss_mb`` is the process's high-water mark read as
    the timed region ends, before the output checks allocate anything.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.setup_cpu_s = 0.0
        self.cpu_s = 0.0
        self.wall_s = 0.0
        self.peak_rss_mb = 0.0

    @contextmanager
    def setup(self) -> Iterator[None]:
        started = time.process_time()
        try:
            yield
        finally:
            self.setup_cpu_s += time.process_time() - started

    @contextmanager
    def timed(self) -> Iterator[None]:
        if self.tracer is not None:
            self.tracer.enabled = True
        started_cpu, started = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu_s += time.process_time() - started_cpu
            self.wall_s += time.perf_counter() - started
            if self.tracer is not None:
                self.tracer.enabled = False
            # ru_maxrss is in KiB on Linux.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class RepOutcome:
    """What one repetition reports besides its clock."""

    profit: float
    attempted: int
    served: int
    failed: int
    problems: List[str]
    latencies_s: List[float] = dataclasses.field(default_factory=list)
    detail: Dict[str, object] = dataclasses.field(default_factory=dict)


def _audit_solve(
    system: CloudSystem, result: AllocationResult, require_all_served: bool
) -> RepOutcome:
    """Section-IV invariants on the placed clients plus a profit re-score."""
    violations = find_violations(system, result.allocation, require_all_served=False)
    problems = [str(v) for v in violations[:5]]
    rescored = evaluate_profit(
        system, result.allocation, require_all_served=False
    ).total_profit
    if not abs(rescored - result.profit) <= RESCORE_TOLERANCE:
        problems.append(
            f"reported profit {result.profit!r} but re-score gives {rescored!r}"
        )
    unserved = sum(
        1 for cid in system.client_ids() if not result.allocation.entries_of_client(cid)
    )
    if unserved and require_all_served:
        problems.append(f"{unserved} clients left unserved (constraint 6)")
    attempted = system.num_clients
    return RepOutcome(
        profit=result.profit,
        attempted=attempted,
        served=attempted - unserved - len(violations),
        failed=unserved + len(violations),
        problems=problems,
        detail={"rounds": result.rounds, "unserved": unserved},
    )


def paper_solve(
    seed: int,
    clock: Clock,
    full_check: bool,
    num_clients: int = PAPER_CLIENTS,
) -> RepOutcome:
    """The paper's heuristic, default config, on one 240-client instance."""
    with clock.setup():
        system = paper_instance(num_clients, seed)
        allocator = ResourceAllocator(SolverConfig(seed=seed))
    with clock.timed():
        result = allocator.solve(system)
    return _audit_solve(system, result, require_all_served=True)


def scale_config(seed: int, num_clients: int) -> SolverConfig:
    """The scale profile: one greedy pass and one improvement round per
    shard, no coordination or global polish, undo-log shutdown rollback,
    two-tier coordinator, inline single-worker dispatch."""
    return SolverConfig(
        seed=seed,
        num_shards=max(2, num_clients // SCALE_SHARD_SIZE),
        num_workers=1,
        num_initial_solutions=1,
        max_improvement_rounds=1,
        shard_coordination_rounds=0,
        shard_final_rounds=0,
        use_txn_shutdown=True,
        shard_levels=2,
    )


def scale_solve(
    seed: int,
    clock: Clock,
    full_check: bool,
    num_clients: int = SCALE_CLIENTS,
) -> RepOutcome:
    """The sharded hierarchy under the scale profile at n=10,000."""
    with clock.setup():
        system = paper_instance(num_clients, seed)
        allocator = ShardedAllocator(scale_config(seed, num_clients))
    with allocator:
        with clock.timed():
            result = allocator.solve(system)
    # The reduced profile may leave stragglers; they count as not served.
    return _audit_solve(system, result, require_all_served=False)


def serve_churn(
    seed: int,
    clock: Clock,
    full_check: bool,
    num_clients: int = CHURN_CLIENTS,
    num_epochs: int = CHURN_EPOCHS,
    num_events: int = CHURN_EVENTS,
) -> RepOutcome:
    """One engine under rate drift, client churn and server fail/recover."""
    with clock.setup():
        system = generate_system(num_clients, seed=CATALOG_SEED)
    batches = generate_epoch_events(
        system,
        TraceDriverConfig(
            pattern="random_walk",
            num_epochs=num_epochs,
            drift=0.1,
            seed=seed,
            churn_probability=0.5,
            failure_probability=0.3,
        ),
    )
    steady = [event for batch in batches[1:] for event in batch][:num_events]
    config = SolverConfig(seed=seed)

    def make_engine(journal=None) -> AllocationService:
        return AllocationService(empty_copy(system), config=config, journal=journal)

    with tempfile.TemporaryDirectory() as tmp:
        journal_path = os.path.join(tmp, "journal.jsonl")
        with EventJournal(journal_path) as journal:
            with clock.setup():
                service = make_engine(journal)
                service.apply_many(batches[0])
            latencies: List[float] = []
            rejected = 0
            perf_counter = time.perf_counter
            with clock.timed():
                for event in steady:
                    started = perf_counter()
                    try:
                        service.apply(event)
                    except ServiceError:
                        rejected += 1
                    latencies.append(perf_counter() - started)
        problems = [str(v) for v in find_violations(service.system, service.allocation)[:5]]
        if full_check:
            fresh = make_engine()
            fresh.apply_many([event for _, event in EventJournal.read(journal_path)])
            live, replayed = service.snapshot_hash(), fresh.snapshot_hash()
            if live != replayed:
                problems.append(f"journal replay hash {replayed[:12]} != live {live[:12]}")
    stranded = len(service.pending)
    return RepOutcome(
        profit=service.profit(),
        attempted=len(steady),
        served=len(steady) - rejected - stranded,
        failed=rejected + stranded,
        problems=problems,
        latencies_s=latencies,
        detail={
            "events": len(steady),
            "stranded": stranded,
            "counters": service.metrics.deterministic_counters(),
        },
    )


def serve_overload(
    seed: int,
    clock: Clock,
    full_check: bool,
    num_templates: int = OVERLOAD_TEMPLATES,
    num_events: int = OVERLOAD_EVENTS,
) -> RepOutcome:
    """The sharded router open-loop under admission gating and surge pricing.

    Rate updates stay out of the mix: with surge pricing they make the
    router hang (see README.md, "Known hang").
    """
    with clock.setup():
        system = overload_system(num_templates, seed=CATALOG_SEED)
    bursts = generate_load(
        system,
        LoadGenConfig(
            num_events=num_events,
            arrival_rate=500.0,
            burst_mean=6.0,
            admit_weight=0.8,
            depart_weight=0.2,
            rate_update_weight=0.0,
            seed=seed,
        ),
    )
    latencies: List[float] = []

    def timed_apply(apply):
        perf_counter = time.perf_counter

        def wrapper(event):
            started = perf_counter()
            try:
                return apply(event)
            finally:
                latencies.append(perf_counter() - started)

        return wrapper

    with tempfile.TemporaryDirectory() as tmp:
        with clock.setup():
            router = ServiceRouter(
                system,
                router=RouterPolicy(
                    num_shards=4, queue_budget=64, batch_size=16, pending_budget=64
                ),
                config=SolverConfig(seed=seed),
                policy=ServicePolicy(drift_threshold=50.0),
                journal_dir=tmp,
                admission=OpportunityCost(),
                pricing=PricingSchedule.surge(),
            )
            for engine in router.engines:
                engine.apply = timed_apply(engine.apply)
        with router:
            with clock.timed():
                report = router.run_open_loop(bursts)
            problems: List[str] = []
            for shard_id, engine in enumerate(router.engines):
                problems += [
                    f"shard {shard_id}: {v}"
                    for v in find_violations(engine.system, engine.allocation)[:5]
                ]
                if full_check:
                    live, replayed = router.verify_shard_replay(shard_id)
                    if live != replayed:
                        problems.append(
                            f"shard {shard_id} journal replay hash "
                            f"{replayed[:12]} != live {live[:12]}"
                        )
    offered, applied = report["offered_total"], report["applied_total"]
    return RepOutcome(
        profit=report["aggregate_profit"],
        attempted=offered,
        served=applied,
        failed=offered - applied - report["shed_total"] - report["rejected_total"],
        problems=problems,
        latencies_s=latencies,
        detail={
            "applied": report["applied_total"],
            "shed": report["shed_total"],
            "rejected": report["rejected_total"],
        },
    )
