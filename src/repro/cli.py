"""``repro-cloud`` — command-line interface.

Subcommands::

    describe    generate an instance and print its topology
    solve       run the profit-maximizing heuristic on one instance
    compare     heuristic vs modified PS vs Monte Carlo on one instance
    experiment  regenerate a paper artifact: fig4 | fig5 | scalability
    simulate    validate the analytical response times with the DES
    epochs      epoch-driven re-allocation vs a static allocation
    serve       replay a workload trace through the online service
    audit       differential verification + feasibility audit
    gap         optimality-gap certification (exact + dual bounds)

Library errors (:class:`repro.exceptions.ReproError`) are reported as a
one-line message on stderr with exit status 2; tracebacks are reserved
for genuine bugs.  ``audit`` exits 1 when it finds violations or
cross-path disagreement; ``gap`` exits 1 when any cell breaches the
``dual >= certified optimum >= heuristic`` sandwich, fails to certify
within its node budget, or exceeds its gap threshold.

``solve``, ``epochs``, ``serve``, and ``simulate`` accept ``--audit``
(equivalent to ``REPRO_AUDIT=1``): every solver pass, repair op, and
service event then re-runs the full invariant pack and aborts loudly on
the first infeasible intermediate state.

Every subcommand accepts ``--clients`` and ``--seed``; ``experiment``
honours ``--full`` (equivalent to ``REPRO_FULL=1``) for paper-sized runs
and drives the fault-tolerant parallel engine: ``--workers`` shards
scenario cells across processes, ``--run-dir`` checkpoints each finished
cell (JSONL) plus a deterministic manifest, ``--resume`` continues an
interrupted sweep, and ``--cell-timeout`` bounds one cell's wall clock.
A partial sweep prints a coverage report and exits with status 3.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import List, Optional

from repro.analysis.experiments import (
    ExperimentConfig,
    run_figure4,
    run_figure5,
    run_scalability_report,
)
from repro.analysis.reporting import format_coverage, format_fleet, format_table
from repro.baselines.bounds import profit_upper_bound
from repro.baselines.monte_carlo import MonteCarloSearch
from repro.baselines.proportional_share import modified_proportional_share
from repro.config import SolverConfig
from repro.core.allocator import ResourceAllocator
from repro.exceptions import ReproError
from repro.model.profit import evaluate_profit
from repro.sim.epoch import EpochConfig, run_epoch_simulation
from repro.sim.gps import SharingMode
from repro.sim.simulator import DatacenterSimulator
from repro.workload.generator import generate_system


def _add_instance_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--clients", type=int, default=20, help="number of clients")
    parser.add_argument("--seed", type=int, default=0, help="instance seed")


def _add_audit_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--audit",
        action="store_true",
        help="re-run the invariant pack after every solver pass / repair "
        "op / service event (same as REPRO_AUDIT=1)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-cloud",
        description=(
            "Reproduction of 'Maximizing Profit in Cloud Computing System "
            "via Resource Allocation' (Goudarzi & Pedram, 2011)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="print the generated topology")
    _add_instance_args(p)

    p = sub.add_parser("solve", help="run the heuristic on one instance")
    _add_instance_args(p)
    _add_audit_flag(p)
    p.add_argument("--rounds", type=int, default=25, help="max improvement rounds")
    p.add_argument(
        "--fleet", action="store_true", help="print per-server utilization bars"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="partition the instance into this many shards and solve them "
        "on a worker pool with price coordination (1 = unsharded)",
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the sharded solver "
        "(default: min(shards, cpu count))",
    )
    p.add_argument(
        "--shard-levels",
        type=int,
        default=1,
        choices=(1, 2),
        help="coordinator-tree depth for the sharded solver: 1 = flat, "
        "2 = super-shard groups with pairwise upward row merges "
        "(memory-bounded at very large n)",
    )

    p = sub.add_parser("compare", help="heuristic vs baselines on one instance")
    _add_instance_args(p)
    p.add_argument("--mc-trials", type=int, default=50)

    p = sub.add_parser("experiment", help="regenerate a paper artifact")
    p.add_argument("name", choices=["fig4", "fig5", "scalability"])
    p.add_argument("--full", action="store_true", help="paper-sized run")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for scenario cells (1 = serial oracle)",
    )
    p.add_argument(
        "--run-dir",
        default=None,
        help="checkpoint directory (cells.jsonl / manifest.json / telemetry.json)",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted sweep from --run-dir checkpoints",
    )
    p.add_argument(
        "--cell-timeout",
        type=float,
        default=None,
        help="wall-clock budget per scenario cell, in seconds",
    )
    p.add_argument(
        "--sweep-clients",
        type=int,
        nargs="+",
        default=None,
        metavar="N",
        help="override the sweep's client counts",
    )
    p.add_argument(
        "--scenarios",
        type=int,
        default=None,
        help="override scenarios per sweep point",
    )
    p.add_argument(
        "--mc-trials",
        type=int,
        default=None,
        help="override Monte Carlo trials per scenario",
    )

    p = sub.add_parser("simulate", help="DES validation of the queueing model")
    _add_instance_args(p)
    _add_audit_flag(p)
    p.add_argument("--duration", type=float, default=2000.0)
    p.add_argument(
        "--mode",
        choices=[m.value for m in SharingMode],
        default=SharingMode.PARTITIONED.value,
    )

    p = sub.add_parser("epochs", help="dynamic re-allocation across epochs")
    _add_instance_args(p)
    _add_audit_flag(p)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--drift", type=float, default=0.25)
    p.add_argument(
        "--pattern",
        choices=["random_walk", "diurnal", "bursty"],
        default="random_walk",
    )
    p.add_argument(
        "--warm",
        action="store_true",
        help="also run the online service as a warm-start policy",
    )

    p = sub.add_parser(
        "serve", help="replay a workload trace through the online service"
    )
    _add_instance_args(p)
    _add_audit_flag(p)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument(
        "--pattern",
        choices=["random_walk", "diurnal", "bursty"],
        default="random_walk",
    )
    p.add_argument(
        "--churn", type=float, default=0.0, help="per-epoch client churn probability"
    )
    p.add_argument(
        "--failures",
        type=float,
        default=0.0,
        help="per-epoch server fail/recover probability",
    )
    p.add_argument(
        "--drift-threshold",
        type=float,
        default=0.25,
        help="relative rate drift that triggers full re-optimization",
    )
    p.add_argument(
        "--journal", default=None, help="append accepted events to this file"
    )
    p.add_argument(
        "--snapshot", default=None, help="write the final snapshot to this file"
    )
    p.add_argument(
        "--shards",
        type=int,
        default=1,
        help="engine shards; >1 runs the sharded async tier under an "
        "open-loop Poisson load (50 events/epoch) with load shedding",
    )
    p.add_argument(
        "--queue-budget",
        type=int,
        default=64,
        help="per-shard ingestion queue bound before the router sheds "
        "the lowest-marginal-profit queued admit (sharded mode only)",
    )
    p.add_argument(
        "--admission",
        choices=["always", "revenue", "opportunity"],
        default="always",
        help="admission policy: always (feasibility only, the default), "
        "revenue (best-case revenue-rate floor), opportunity (live "
        "eq.-(16) marginal-profit gate)",
    )
    p.add_argument(
        "--revenue-floor",
        type=float,
        default=0.0,
        help="minimum best-case revenue rate for --admission revenue",
    )
    p.add_argument(
        "--min-margin",
        type=float,
        default=0.0,
        help="minimum estimated marginal profit for --admission opportunity",
    )
    p.add_argument(
        "--surge-pricing",
        action="store_true",
        help="apply the stock load-indexed surge schedule to v/beta at "
        "admit and re-admit time",
    )

    p = sub.add_parser(
        "audit", help="differential verification + feasibility audit"
    )
    p.add_argument(
        "--seeds", type=int, default=20, help="seeded instances to verify"
    )
    p.add_argument("--clients", type=int, default=10, help="clients per instance")
    p.add_argument(
        "--cache",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="arm the memo cache on the vectorized/delta/service paths "
        "(--no-cache audits the uncached kernels only); with the cache "
        "on, every instance additionally cross-checks cached vs uncached "
        "vectorized solves bitwise",
    )
    p.add_argument(
        "--dual-bound",
        action="store_true",
        help="additionally check every path's reported profit against "
        "the Lagrangian upper bound (an independent judge: no feasible "
        "allocation can exceed it)",
    )
    p.add_argument(
        "--snapshot", default=None, help="audit a saved service snapshot"
    )
    p.add_argument(
        "--journal",
        default=None,
        help="replay this journal on top of --snapshot with auditing armed",
    )

    p = sub.add_parser(
        "gap", help="certify the heuristic's optimality gap (exact + dual)"
    )
    p.add_argument(
        "--clients",
        type=int,
        nargs="+",
        default=[20, 24],
        metavar="N",
        help="exact-tier instance sizes (branch-and-bound certificates)",
    )
    p.add_argument(
        "--seeds", type=int, default=2, help="seeded instances per size"
    )
    p.add_argument(
        "--budget",
        type=int,
        default=40_000,
        help="branch-and-bound node budget per exact cell",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.18,
        help="relative MIP-gap tolerance for the exact certificates",
    )
    p.add_argument(
        "--dual-clients",
        type=int,
        default=1000,
        help="dual-tier instance size (0 skips the dual-only cell)",
    )
    p.add_argument(
        "--scenario",
        choices=["certification", "paper"],
        default="certification",
        help="instance family the matrix draws from",
    )
    p.add_argument(
        "--backend",
        choices=["bnb", "cpsat"],
        default="bnb",
        help="exact engine: the built-in branch-and-bound, or OR-tools "
        "CP-SAT as an independent cross-check (optional dependency; "
        "tiny instances only)",
    )

    p = sub.add_parser("multitier", help="solve a multi-tier application instance")
    p.add_argument("--apps", type=int, default=8, help="number of applications")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "admission", help="admission-controlled solve (may reject clients)"
    )
    _add_instance_args(p)

    p = sub.add_parser(
        "predict", help="prediction-error study (predicted vs agreed rates)"
    )
    _add_instance_args(p)
    p.add_argument(
        "--factors",
        type=float,
        nargs="+",
        default=[0.5, 0.7, 0.9, 1.0],
        help="predicted/agreed rate ratios to sweep",
    )
    return parser


def _maybe_enable_audit(args: argparse.Namespace) -> None:
    if getattr(args, "audit", False):
        from repro.audit.hooks import enable_audit

        enable_audit()


def _cmd_describe(args: argparse.Namespace) -> int:
    system = generate_system(num_clients=args.clients, seed=args.seed)
    print(system.describe())
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    _maybe_enable_audit(args)
    system = generate_system(num_clients=args.clients, seed=args.seed)
    config = SolverConfig(
        seed=args.seed,
        max_improvement_rounds=args.rounds,
        num_shards=args.shards,
        num_workers=args.workers,
        shard_levels=args.shard_levels,
    )
    if args.shards > 1:
        from repro.core.sharded import ShardedAllocator

        with ShardedAllocator(config) as allocator:
            result = allocator.solve(system)
    else:
        result = ResourceAllocator(config).solve(system)
    print(result.breakdown.summary())
    print(
        f"initial profit {result.initial_profit:.4f} -> final "
        f"{result.profit:.4f} in {result.rounds} rounds "
        f"({result.runtime_seconds:.2f}s)"
    )
    if args.fleet:
        print()
        print(format_fleet(result.breakdown, system))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    system = generate_system(num_clients=args.clients, seed=args.seed)
    config = SolverConfig(seed=args.seed)
    proposed = ResourceAllocator(config).solve(system)
    ps = evaluate_profit(
        system,
        modified_proportional_share(system, config),
        require_all_served=False,
    )
    mc = MonteCarloSearch(num_trials=args.mc_trials, config=config).run(
        system, seed=args.seed + 1
    )
    bound = profit_upper_bound(system)
    best = max(proposed.profit, mc.best_profit)
    rows = [
        ("analytical upper bound", bound.profit_bound, bound.profit_bound / best),
        ("proposed heuristic", proposed.profit, proposed.profit / best),
        (f"Monte Carlo best ({args.mc_trials} trials)", mc.best_profit, mc.best_profit / best),
        ("modified PS", ps.total_profit, ps.total_profit / best),
    ]
    print(format_table(["method", "profit", "normalized"], rows))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    config = (
        ExperimentConfig.paper_scale()
        if args.full
        else ExperimentConfig.from_environment()
    )
    overrides = {
        "n_workers": args.workers,
        "run_dir": args.run_dir,
        "resume": args.resume,
        "cell_timeout": args.cell_timeout,
    }
    if args.sweep_clients is not None:
        overrides["client_counts"] = tuple(args.sweep_clients)
    if args.scenarios is not None:
        overrides["scenarios_per_point"] = args.scenarios
        overrides["scenarios_at_largest"] = args.scenarios
    if args.mc_trials is not None:
        overrides["mc_trials"] = args.mc_trials
    config = replace(config, **overrides)
    if args.name == "fig4":
        result = run_figure4(config)
        print("Figure 4 — normalized total profit vs number of clients")
        print(result.to_table())
        print()
        print(result.to_chart())
        coverage = result.coverage
        print(f"\n({result.runtime_seconds:.1f}s)")
    elif args.name == "fig5":
        result = run_figure5(config)
        print("Figure 5 — random initial solutions vs final results")
        print(result.to_table())
        print()
        print(result.to_chart())
        coverage = result.coverage
        print(f"\n({result.runtime_seconds:.1f}s)")
    else:
        report = run_scalability_report(
            client_counts=config.client_counts
            if args.sweep_clients is not None
            else (10, 20, 40, 80),
            engine=config.engine(),
        )
        print("Runtime scaling of the full heuristic")
        print(
            format_table(
                ["clients", "servers", "solve seconds", "profit"],
                [
                    (r.num_clients, r.num_servers, r.solve_seconds, r.profit)
                    for r in report.rows
                ],
            )
        )
        coverage = report.coverage
    if coverage is not None:
        print(format_coverage(coverage))
    if args.run_dir:
        print(f"run dir: {args.run_dir}")
    return 0 if coverage is None or coverage.complete else 3


def _cmd_simulate(args: argparse.Namespace) -> int:
    _maybe_enable_audit(args)
    system = generate_system(num_clients=args.clients, seed=args.seed)
    config = SolverConfig(seed=args.seed)
    result = ResourceAllocator(config).solve(system)
    simulator = DatacenterSimulator(
        system,
        result.allocation,
        mode=SharingMode(args.mode),
        seed=args.seed + 1,
    )
    report = simulator.run(duration=args.duration)
    rows = [
        (
            stats.client_id,
            stats.completed,
            stats.measured_mean,
            stats.analytical_mean,
            (stats.relative_error() * 100 if stats.completed else float("nan")),
        )
        for stats in sorted(report.clients.values(), key=lambda s: s.client_id)
    ]
    print(
        format_table(
            ["client", "completed", "measured mean", "analytical mean", "error %"],
            rows,
        )
    )
    print(
        f"\nmode={args.mode}, duration={report.duration}, "
        f"arrivals={report.total_arrivals}, "
        f"worst |error| {report.worst_relative_error() * 100:.1f}%"
    )
    return 0


def _cmd_epochs(args: argparse.Namespace) -> int:
    _maybe_enable_audit(args)
    system = generate_system(num_clients=args.clients, seed=args.seed)
    report = run_epoch_simulation(
        system,
        EpochConfig(
            num_epochs=args.epochs,
            drift=args.drift,
            seed=args.seed + 1,
            pattern=args.pattern,
            warm_start=args.warm,
        ),
        SolverConfig(seed=args.seed),
    )
    if report.warm_profits:
        rows = [
            (idx, realloc, warm, static)
            for idx, (realloc, warm, static) in enumerate(
                zip(
                    report.reallocate_profits,
                    report.warm_profits,
                    report.static_profits,
                )
            )
        ]
        print(format_table(["epoch", "re-allocate", "warm service", "static"], rows))
    else:
        rows = [
            (idx, realloc, static)
            for idx, (realloc, static) in enumerate(
                zip(report.reallocate_profits, report.static_profits)
            )
        ]
        print(format_table(["epoch", "re-allocate", "static"], rows))
    print(f"\ntotal gain from per-epoch decisions: {report.reallocation_gain:.3f}")
    print(f"cold solves: {report.cold_solves} for {args.epochs} epochs")
    return 0


def _serve_admission(args: argparse.Namespace):
    from repro.service import make_admission_policy

    return make_admission_policy(
        args.admission,
        min_revenue_rate=args.revenue_floor,
        min_margin=args.min_margin,
    )


def _serve_pricing(args: argparse.Namespace):
    from repro.service import PricingSchedule

    return PricingSchedule.surge() if args.surge_pricing else None


def _cmd_serve(args: argparse.Namespace) -> int:
    import json

    _maybe_enable_audit(args)

    from repro.service import EventJournal, ServicePolicy, TraceDriverConfig
    from repro.service.driver import run_service_trace

    system = generate_system(num_clients=args.clients, seed=args.seed)
    if args.shards > 1:
        return _serve_sharded(args, system)
    journal = EventJournal(args.journal) if args.journal else None
    report = run_service_trace(
        system,
        TraceDriverConfig(
            pattern=args.pattern,
            num_epochs=args.epochs,
            seed=args.seed + 1,
            churn_probability=args.churn,
            failure_probability=args.failures,
        ),
        solver_config=SolverConfig(seed=args.seed),
        policy=ServicePolicy(drift_threshold=args.drift_threshold),
        journal=journal,
        admission=_serve_admission(args),
        pricing=_serve_pricing(args),
    )
    service = report["service"]
    if journal is not None:
        journal.close()
    if args.snapshot:
        with open(args.snapshot, "w") as handle:
            json.dump(service.snapshot(), handle, indent=2, sort_keys=True)
    rows = [
        (epoch, profit) for epoch, profit in enumerate(report["epoch_profits"])
    ]
    print(format_table(["epoch", "profit"], rows))
    latency = service.metrics.repair_latency
    print(
        f"\n{report['events_applied']} events "
        f"({report['events_queued']} queued, {report['reopt_swaps']} re-opt swaps, "
        f"{report['pending_clients']} clients pending), "
        f"repair p50 {latency.quantile(0.5) * 1000:.2f} ms, "
        f"p99 {latency.quantile(0.99) * 1000:.2f} ms"
    )
    rejected = service.metrics.counters.get("admits_rejected", 0)
    if args.admission != "always" or rejected:
        print(
            f"admission policy {service.admission.name}: "
            f"{rejected} admits refused"
        )
    print(f"final profit {report['final_profit']:.4f}")
    print(f"snapshot hash {report['snapshot_hash']}")
    if args.journal:
        print(f"journal: {args.journal}")
    if args.snapshot:
        print(f"snapshot: {args.snapshot}")
    return 0


def _serve_sharded(args: argparse.Namespace, system) -> int:
    """``serve --shards N``: the open-loop sharded tier with shedding.

    Clients arrive as generated admit/depart/rate-drift events rather
    than from the trace driver (the sharded tier is an ingestion layer:
    overload behaviour is the point), so ``--epochs`` scales the load
    (50 events per epoch) instead of counting re-optimization rounds.
    ``--journal`` names a directory; each shard journals its accepted
    substream to ``shard-<i>.jsonl`` there and the run finishes by
    hash-asserting every shard's journal replay against its live engine.
    """
    import os
    import tempfile

    from repro.service import (
        LoadGenConfig,
        RouterPolicy,
        ServicePolicy,
        ServiceRouter,
        generate_load,
    )

    load = LoadGenConfig(
        num_events=50 * args.epochs, arrival_rate=200.0, seed=args.seed + 1
    )
    bursts = generate_load(system, load)
    router_policy = RouterPolicy(
        num_shards=args.shards,
        queue_budget=args.queue_budget,
        pending_budget=args.queue_budget,
    )
    journal_dir = args.journal
    cleanup = None
    if journal_dir is None:
        cleanup = tempfile.TemporaryDirectory()
        journal_dir = cleanup.name
    else:
        os.makedirs(journal_dir, exist_ok=True)
    try:
        with ServiceRouter(
            system,
            router=router_policy,
            config=SolverConfig(seed=args.seed),
            policy=ServicePolicy(drift_threshold=args.drift_threshold),
            journal_dir=journal_dir,
            admission=_serve_admission(args),
            pricing=_serve_pricing(args),
        ) as router:
            report = router.run_open_loop(bursts)
            verified = 0
            for shard_id in range(router.num_shards):
                live, replayed = router.verify_shard_replay(shard_id)
                if live != replayed:
                    print(
                        f"error: shard {shard_id} journal replay diverged "
                        f"({live[:12]}... != {replayed[:12]}...)",
                        file=sys.stderr,
                    )
                    return 1
                verified += 1
    finally:
        if cleanup is not None:
            cleanup.cleanup()
    rows = [
        (
            cell["shard_id"],
            cell["offered"],
            cell["applied"],
            cell["shed"],
            cell["rejected"],
            cell["pending_clients"],
            cell["profit"],
        )
        for cell in report["shards"]
    ]
    print(
        format_table(
            ["shard", "offered", "applied", "shed", "rejected", "pending", "profit"],
            rows,
        )
    )
    latency = report["repair_latency"]
    print(
        f"\n{report['offered_total']} events offered at queue budget "
        f"{router_policy.queue_budget}: {report['applied_total']} applied, "
        f"{report['shed_total']} shed, {report['rejected_total']} rejected "
        f"in {report['elapsed_seconds']:.3f}s "
        f"({report['offered_total'] / report['elapsed_seconds']:.0f} ev/s "
        "ingested)"
    )
    print(
        f"repair p50 {latency['p50_seconds'] * 1000:.2f} ms, "
        f"p99 {latency['p99_seconds'] * 1000:.2f} ms"
    )
    print(f"aggregate profit {report['aggregate_profit']:.4f}")
    if args.admission != "always" or args.surge_pricing:
        surge = " + surge pricing" if args.surge_pricing else ""
        print(f"admission policy {report['admission_policy']}{surge}")
    print(f"replay verified on {verified}/{router.num_shards} shards")
    if args.journal:
        print(f"journals: {journal_dir}/shard-*.jsonl")
    if args.snapshot:
        print(
            "note: --snapshot applies to the single-engine path; "
            "sharded runs persist per-shard journals instead",
            file=sys.stderr,
        )
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    import json

    from repro.audit import differential

    problems_found = 0
    if args.snapshot:
        with open(args.snapshot) as handle:
            doc = json.load(handle)
        problems = differential.audit_snapshot(doc)
        for problem in problems:
            print(f"snapshot: {problem}")
        problems_found += len(problems)
        if args.journal:
            problems = differential.audit_journal(doc, args.journal)
            for problem in problems:
                print(f"journal: {problem}")
            problems_found += len(problems)
        if problems_found == 0:
            target = args.snapshot + (f" + {args.journal}" if args.journal else "")
            print(f"audit clean: {target}")
        return 1 if problems_found else 0
    if args.journal:
        print("error: --journal requires --snapshot", file=sys.stderr)
        return 2

    reports = differential.run_matrix(
        seeds=range(args.seeds),
        num_clients=args.clients,
        use_cache=args.cache,
        check_dual_bound=args.dual_bound,
    )
    failures = [r for r in reports if not r.ok]
    for report in failures:
        print(f"seed {report.seed}:")
        print(report.summary())
    cache_mode = "memo cache on" if args.cache else "memo cache off"
    print(
        f"differential audit: {len(reports) - len(failures)}/{len(reports)} "
        f"instances clean across {', '.join(differential.PATH_NAMES)} "
        f"({cache_mode})"
    )
    return 1 if failures else 0


def _cmd_gap(args: argparse.Namespace) -> int:
    from repro.gap import GapCellSpec, cpsat_cross_check, run_gap_cell

    if args.backend == "cpsat":
        # Independent enumeration engine; tiny sizes only, so it reuses
        # the smallest requested size and certifies by exhaustion.
        num_clients = min(args.clients)
        spec = GapCellSpec(
            tier="exact",
            num_clients=num_clients,
            scenario=args.scenario,
            seed_index=0,
        )
        result = cpsat_cross_check(spec.build_system(), SolverConfig(seed=0))
        print(
            f"cp-sat n={num_clients}: optimum {result.best_profit:.6f} over "
            f"{result.assignments_tried} assignments"
        )
        return 0

    breaches = 0
    specs: List[GapCellSpec] = []
    for point, num_clients in enumerate(args.clients):
        for seed_index in range(args.seeds):
            specs.append(
                GapCellSpec(
                    tier="exact",
                    num_clients=num_clients,
                    scenario=args.scenario,
                    point_index=point,
                    seed_index=seed_index,
                    node_budget=args.budget,
                    relative_gap_tolerance=args.tolerance,
                )
            )
    if args.dual_clients > 0:
        specs.append(
            GapCellSpec(
                tier="dual",
                num_clients=args.dual_clients,
                scenario=args.scenario,
                point_index=len(args.clients),
                seed_index=0,
            )
        )
    for spec in specs:
        result = run_gap_cell(spec)
        print(result.summary())
        breaches += len(result.failures)
    if breaches:
        print(f"gap harness: {breaches} breached check(s)")
        return 1
    print(
        f"gap harness: {len(specs)} cells clean "
        "(dual >= certified optimum >= heuristic)"
    )
    return 0


def _cmd_multitier(args: argparse.Namespace) -> int:
    from repro.multitier import MultiTierAllocator, generate_multitier_system

    system = generate_multitier_system(num_applications=args.apps, seed=args.seed)
    result = MultiTierAllocator(SolverConfig(seed=args.seed)).solve(system)
    print(result.breakdown.summary())
    rows = [
        (
            outcome.app_id,
            len(outcome.tier_response_times),
            outcome.cluster_id,
            outcome.response_time,
            outcome.revenue,
        )
        for outcome in result.breakdown.applications.values()
    ]
    print(
        format_table(["app", "tiers", "cluster", "end-to-end R", "revenue"], rows)
    )
    return 0


def _cmd_admission(args: argparse.Namespace) -> int:
    from repro.core.admission import admission_controlled_solve

    system = generate_system(num_clients=args.clients, seed=args.seed)
    result = admission_controlled_solve(system, SolverConfig(seed=args.seed))
    print(
        format_table(
            ["policy", "profit", "served"],
            [
                ("serve everyone", result.baseline_profit, system.num_clients),
                ("admission control", result.profit, len(result.accepted)),
            ],
        )
    )
    if result.rejected:
        print(f"\nrejected clients: {result.rejected}")
    else:
        print("\nno client was worth rejecting")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.analysis.prediction import run_prediction_study

    study = run_prediction_study(
        factors=tuple(args.factors),
        num_clients=args.clients,
        seed=args.seed,
        solver=SolverConfig(seed=args.seed),
    )
    print(study.to_table())
    return 0


_COMMANDS = {
    "describe": _cmd_describe,
    "solve": _cmd_solve,
    "compare": _cmd_compare,
    "experiment": _cmd_experiment,
    "simulate": _cmd_simulate,
    "epochs": _cmd_epochs,
    "serve": _cmd_serve,
    "audit": _cmd_audit,
    "gap": _cmd_gap,
    "multitier": _cmd_multitier,
    "admission": _cmd_admission,
    "predict": _cmd_predict,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        # Library errors are user-facing conditions (bad arguments, an
        # infeasible instance, a corrupt artifact), not bugs: one line on
        # stderr, exit status 2.  Tracebacks stay for real defects.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
