"""End-to-end benchmark of the allocator and the allocation service.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py                       # all four workloads, seed 7
    python3 benchmarks/e2e/run.py --workload serve-churn --seed 3 --seconds 30 --trace 0
    python3 benchmarks/e2e/run.py --trace               # per-layer metrics as well
    python3 benchmarks/e2e/run.py --runs 10 --out benchmarks/e2e/results/set-a.json
    python3 benchmarks/e2e/run.py compare A.json B.json

A run of one workload makes ``floor(seconds / rep_seconds)`` repetitions
(at least one), each in a fresh single-threaded interpreter with a
wall-clock timeout of three times its expected time.  Repetition ``i``
uses the seed ``rep_seed(seed, i)``; the first one also replays the
service journals.  With ``--trace`` the same repetitions run a second
time with the per-layer tracer installed (``tracing.py``).

Every metric is printed by name with its unit; with ``--workload`` the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
``BENCHMARK.json``, or its per-layer metrics with ``--trace``).  A crash
or timeout prints no result and exits 1; a failed output check prints
``"correct": false`` and exits 1.  ``--out`` also writes every run to a
results file.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from metrics import max_sustainable_rate, paired_verdict, percentile, quartiles, verdict

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SPEC_PATH = REPO_ROOT / "BENCHMARK.json"
#: The children's temporary directory (service journals), so a run writes
#: only inside its checkout; ignored by git.
WORK_DIR = BENCH_DIR / "work"
DEFAULT_SEED = 7
DEFAULT_SECONDS = 30
#: A repetition's timeout is this many times its expected duration.
TIMEOUT_FACTOR = 3.0
#: Tracing slows a repetition down (by under 10% measured); its timeout
#: grows by this factor.  With it, a traced run whose traced repetition
#: hangs still ends within 180 s at the default ``--seconds``.
TRACE_SLOWDOWN = 1.5

#: Single-threaded children with reproducible hashing.
CHILD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


@dataclass(frozen=True)
class Plan:
    """How one workload is scheduled; its code is ``workloads.<name>``."""

    #: Expected seconds of timed work per repetition on the reference
    #: host (2 cores); a run makes ``floor(seconds / rep_seconds)``.
    rep_seconds: float
    #: Expected seconds of the rest of a repetition: interpreter start,
    #: set-up and the output checks (journal replay included).
    overhead_seconds: float
    #: The program layer whose spans ``trace.coverage`` is measured on.
    root: str
    #: Whether the timed region applies events back to back on one
    #: engine, so the open-loop rate search may replay its latencies.
    back_to_back: bool = False

    def reps_for(self, seconds: float) -> int:
        return max(1, int(seconds // self.rep_seconds))


PLANS: Dict[str, Plan] = {
    "paper-solve": Plan(6.5, 1.5, root="allocator.solve"),
    "scale-solve": Plan(27.0, 4.0, root="sharded.solve"),
    "serve-churn": Plan(6.5, 7.0, root="service.apply", back_to_back=True),
    "serve-overload": Plan(4.5, 2.5, root="router.run_open_loop"),
}


def rep_seed(seed: int, index: int) -> int:
    """Seed of repetition ``index``; repetition 0 uses the run's seed."""
    return seed + 1_000_003 * index


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


# -- one repetition, in its own interpreter -------------------------------------


def child_main(name: str, seed: int, trace: bool, full_check: bool) -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import workloads
    from tracing import Tracer, call_tree, per_layer_metrics

    # CPU seconds since the interpreter started: start-up plus imports.
    import_cpu_s = time.process_time()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    clock = workloads.Clock(tracer)
    WORK_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = str(WORK_DIR)
    rep = getattr(workloads, name.replace("-", "_"))
    outcome = rep(seed, clock, full_check)
    record = {
        "seed": seed,
        "setup_cpu_s": import_cpu_s + clock.setup_cpu_s,
        "cpu_s": clock.cpu_s,
        "wall_s": clock.wall_s,
        "peak_rss_mb": clock.peak_rss_mb,
        "profit": outcome.profit,
        "attempted": outcome.attempted,
        "served": outcome.served,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "latencies_s": outcome.latencies_s,
        "detail": outcome.detail,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = per_layer_metrics(tracer, PLANS[name].root)
        record["tree"] = call_tree(tracer.spans())
        record["missing_layers"] = tracer.missing
    print(json.dumps(record))
    return 0


def run_child(command: Sequence[str], timeout: float) -> Tuple[Optional[dict], Optional[str]]:
    """Run one child; returns (its record, None) or (None, what went wrong).

    ``subprocess.run`` kills the child and waits for it when the timeout
    expires, so no process outlives this call.
    """
    try:
        proc = subprocess.run(
            list(command),
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=REPO_ROOT,
            env={**os.environ, **CHILD_ENV},
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        return None, f"exited {proc.returncode}: " + " | ".join(tail)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1]), None
    except (IndexError, ValueError):
        return None, "printed no result"


# -- one run of one workload ------------------------------------------------------


def child_command(name: str, seed: int, trace: bool, full_check: bool) -> List[str]:
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--child",
        name,
        "--seed",
        str(seed),
        "--trace",
        "1" if trace else "0",
    ]
    return command + ["--full-check"] if full_check else command


def _repetitions(name: str, seed: int, seconds: float, trace: bool):
    """Yield (record, error) per repetition; the first untraced one also
    replays the journals."""
    plan = PLANS[name]
    timeout = TIMEOUT_FACTOR * (plan.rep_seconds + plan.overhead_seconds)
    if trace:
        timeout *= TRACE_SLOWDOWN
    for index in range(plan.reps_for(seconds)):
        command = child_command(
            name, rep_seed(seed, index), trace, full_check=index == 0 and not trace
        )
        yield run_child(command, timeout)


def end_to_end_metrics(records: Sequence[dict]) -> Dict[str, float]:
    """Medians of the timings, mean profit per instance, pooled served share."""
    return {
        "setup_s": statistics.median([r["setup_cpu_s"] for r in records]),
        "cpu_s": statistics.median([r["cpu_s"] for r in records]),
        "profit": statistics.fmean(r["profit"] for r in records),
        "served_share": sum(r["served"] for r in records)
        / sum(r["attempted"] for r in records),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in records]),
    }


def layer_metrics(
    name: str, seed: int, traced: Sequence[dict], untraced: Sequence[dict]
) -> Dict[str, float]:
    """Per-layer medians of the traced repetitions, the tracing overhead
    (paired by seed), and the service latencies of the untraced ones."""
    layers = {
        key: statistics.median([r["layers"][key] for r in traced])
        for key in traced[0]["layers"]
    }
    layers["trace.overhead"] = statistics.median(
        [t["cpu_s"] / u["cpu_s"] - 1.0 for t, u in zip(traced, untraced)]
    )
    latencies = [s for r in untraced for s in r["latencies_s"]]
    layers["service.event_p50_ms"] = percentile(latencies, 0.50) * 1e3
    layers["service.event_p99_ms"] = percentile(latencies, 0.99) * 1e3
    layers["service.max_rate_eps"] = (
        max_sustainable_rate(latencies, seed) if PLANS[name].back_to_back else 0.0
    )
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: its repetitions, their checks, and every metric."""
    run: Dict[str, object] = {"workload": name, "seed": seed, "seconds": seconds}
    # A crash or timeout serves nobody.
    crashed = {"correct": False, "metrics": {"served_share": 0.0}}
    records: List[dict] = []
    for record, error in _repetitions(name, seed, seconds, trace=False):
        if error is not None:
            run.update(crashed, error=error)
            return run
        records.append(record)
    problems = [p for r in records for p in r["problems"]]
    run.update(
        correct=not problems,
        problems=problems,
        attempted=sum(r["attempted"] for r in records),
        failed=sum(r["failed"] for r in records),
        reps=len(records),
        metrics=end_to_end_metrics(records),
        wall_s=statistics.median([r["wall_s"] for r in records]),
        latency_samples=sum(len(r["latencies_s"]) for r in records),
        detail=[
            {
                "seed": r["seed"],
                "setup_s": r["setup_cpu_s"],
                "cpu_s": r["cpu_s"],
                "profit": r["profit"],
                **r["detail"],
            }
            for r in records
        ],
    )
    if not trace:
        return run
    traced: List[dict] = []
    for record, error in _repetitions(name, seed, seconds, trace=True):
        if error is not None:
            run.update(crashed, error=f"traced repetition {error}")
            return run
        traced.append(record)
    # A layer the tracer cannot find (renamed or removed) would read as
    # idle, which looks like a 100% gain; the run fails instead.
    problems += [f"layer not found: {layer}" for layer in traced[0]["missing_layers"]]
    run.update(
        correct=not problems,
        problems=problems,
        layers=layer_metrics(name, seed, traced, records),
        missing_layers=traced[0]["missing_layers"],
        tree=traced[0]["tree"],
    )
    return run


# -- reporting --------------------------------------------------------------------


def _format(value: float) -> str:
    return f"{value:.6g}" if abs(value) < 1e6 else f"{value:.0f}"


def print_run(run: dict, spec: dict, trace: bool) -> None:
    status = "ok" if run["correct"] else "FAILED"
    print(f"{run['workload']} seed={run['seed']} reps={run.get('reps', 0)} {status}")
    if "error" in run:
        print(f"  error: {run['error']}")
        # A crash or timeout serves nobody.
        print("  served_share 0 fraction (failed_share 1)")
        return
    for problem in run["problems"][:10]:
        print(f"  check failed: {problem}")
    for metric in spec["end_to_end"]:
        print(
            f"  {metric['name']:<14} {_format(run['metrics'][metric['name']]):>14} "
            f"{metric['unit']}"
        )
    print(f"  {'wall_s':<14} {_format(run['wall_s']):>14} s (not gated)")
    print(f"  {'samples':<14} {run['reps']:>14} repetitions, {run['latency_samples']} event latencies")
    if trace and "layers" in run:
        for metric in spec["per_layer"]:
            print(
                f"  {metric['name']:<44} {_format(run['layers'][metric['name']]):>14} "
                f"{metric['unit']}"
            )


def result_line(run: dict, spec: dict, trace: bool) -> str:
    """The machine-readable last line for one run."""
    if trace:
        values, names = run["layers"], spec["per_layer"]
    else:
        values, names = run["metrics"], spec["end_to_end"]
    return json.dumps(
        {
            "correct": run["correct"],
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names
            },
        }
    )


# -- comparing two result files -----------------------------------------------------


#: Metrics a run's seed fixes exactly.  When both sets ran the same seeds
#: they are compared seed by seed (``paired_verdict``), not by the bound.
SEED_DETERMINED = ("profit", "served_share")


def _runs_cell(entry: Optional[dict]) -> str:
    if entry is None:
        return "missing"
    failed = sum(1 for r in entry["runs"] if not r["correct"])
    return f"{failed} of {len(entry['runs'])} runs failed"


def compare(path_a: str, path_b: str) -> int:
    """Print a verdict per workload and metric; 1 if any is worse.

    A workload that one set lacks, or that has a crashed, timed-out or
    incorrect run in either set, is one ``worse`` row.
    """
    spec = load_spec()
    sides = [json.loads(Path(p).read_text())["workloads"] for p in (path_a, path_b)]
    worse = 0
    print(f"{'workload':<15} {'metric':<13} {'A median [q1, q3]':>34} "
          f"{'B median [q1, q3]':>34}  verdict")
    for name in [w["name"] for w in spec["workloads"]]:
        entries = [side.get(name) for side in sides]
        if entries == [None, None]:
            continue
        if None in entries or any(not r["correct"] for e in entries for r in e["runs"]):
            worse += 1
            cells = [_runs_cell(e) for e in entries]
            print(f"{name:<15} {'runs':<13} {cells[0]:>34} {cells[1]:>34}  worse")
            continue
        runs = [e["runs"] for e in entries]
        paired = [r["seed"] for r in runs[0]] == [r["seed"] for r in runs[1]]
        for metric in spec["end_to_end"]:
            a, b = ([r["metrics"][metric["name"]] for r in side] for side in runs)
            if paired and metric["name"] in SEED_DETERMINED:
                outcome = paired_verdict(a, b, metric["better"])
            else:
                outcome = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            cells = []
            for values in (a, b):
                q1, median, q3 = quartiles(values)
                cells.append(f"{_format(median)} [{_format(q1)}, {_format(q3)}]")
            print(f"{name:<15} {metric['name']:<13} {cells[0]:>34} {cells[1]:>34}  {outcome}")
    return 1 if worse else 0


# -- entry point ----------------------------------------------------------------------


def main(argv: Sequence[str]) -> int:
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("a")
        parser.add_argument("b")
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    parser = argparse.ArgumentParser(description="End-to-end benchmark (see README.md).")
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, help="write every run to this results JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--full-check", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args.child, args.seed, bool(args.trace), args.full_check)

    spec = load_spec()
    known = [w["name"] for w in spec["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    trace = bool(args.trace)
    results: Dict[str, Dict[str, list]] = {name: {"runs": []} for name in names}
    for offset in range(args.runs):
        for name in names:
            run = run_workload(name, args.seed + offset, args.seconds, trace)
            results[name]["runs"].append(run)
            print_run(run, spec, trace)
            sys.stdout.flush()
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "seconds": args.seconds,
                    "trace": trace,
                    "host": {
                        "cpus": os.cpu_count(),
                        "machine": platform.machine(),
                        "python": platform.python_version(),
                    },
                    "workloads": results,
                },
                indent=1,
            )
            + "\n"
        )
    runs = [run for entry in results.values() for run in entry["runs"]]
    if any("error" in run for run in runs):
        return 1
    if len(runs) == 1:
        print(result_line(runs[0], spec, trace))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
