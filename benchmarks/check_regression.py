"""Guard the hot paths: fail when they get materially slower.

Re-runs ``benchmarks/bench_hotpaths.py`` and compares the *fast-path*
timings against the committed ``BENCH_hotpaths.json`` baseline.  Exits
non-zero when any fast-path timing regressed by more than
``THRESHOLD`` (default 25%), or when the adaptive DP dispatch picked a
path slower than the scalar reference (the crossover constant exists
precisely so that can never happen).

Absolute timings move with the host, so CI runs the full sweep as a
non-blocking step — it flags suspicious slowdowns for a human to look
at rather than gating merges on machine luck::

    PYTHONPATH=src python benchmarks/check_regression.py
    PYTHONPATH=src python benchmarks/check_regression.py --threshold 0.5

The cache-focused CI job runs a restricted sweep at one small size with
a tight threshold::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --sections curve_cache,dp_combine,pool_dispatch --sizes 60 \
        --threshold 0.10

``--suite scale`` gates the sharded hierarchical solver instead: it
re-runs ``benchmarks/bench_scale.py`` at the requested sizes (default
the n=1k and n=10k points), which itself asserts the audit-clean merge,
the 1e-9 bit-parity pin at n=1k and the profit-gap bounds, then
compares wall clock against the committed ``BENCH_scale.json`` and
statically checks the committed n>=100k rows against the
struct-of-arrays bytes-per-client ceiling::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --suite scale --sizes 1000,10000 --threshold 0.10

``--suite service`` gates the sharded async service tier: it re-runs
the 10x open-loop cell from ``benchmarks/bench_service.py`` (which
itself hash-asserts per-shard replay determinism) and compares the
aggregate ingest rate (``events_per_second``, regression = lower) and
the repair tail (``repair_p99_seconds``, regression = higher) against
the committed ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --suite service --threshold 0.10

``--suite admission`` gates the admission-control subsystem: it re-runs
the overload profit cells from ``benchmarks/bench_admission.py`` (which
themselves assert that the ``opportunity_cost`` policy strictly beats
``always_admit_if_feasible`` on every cell, and hash-assert per-policy
journal replay), requires each policy row to reproduce the committed
``BENCH_admission.json`` row exactly (profit, admit counts, pending
queue, invalid events, snapshot hash), then compares best-of-N
per-decision latency against the committed file::

    PYTHONPATH=src python benchmarks/check_regression.py \
        --suite admission --threshold 0.10
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import bench_admission  # noqa: E402
import bench_scale  # noqa: E402
import bench_service  # noqa: E402
from bench_hotpaths import OUTPUT_PATH, SECTIONS, run_benchmarks  # noqa: E402

#: Keys holding the measured-code timing per benchmark section.
FAST_KEYS = {
    "curve_construction": "vectorized_s",
    "dp_combine": "vectorized_s",
    "curve_cache": "warm_s",
    "local_search_pass": "fast_s",
    "pool_dispatch": "delta_s",
    "pending_queue": "indexed_s",
}

#: Allowed noise margin for the "adaptive DP never slower than scalar"
#: invariant — the dispatch picks the scalar core below the crossover,
#: so only timer jitter can make the ratio exceed 1.
DP_ADAPTIVE_TOLERANCE = 0.10

#: Same invariant for the adaptive curve-construction dispatch
#: (``CURVE_SCALAR_CROSSOVER_CELLS`` in ``repro.core.assign``): below
#: the crossover it runs the memoized scalar loop, so the measured
#: "vectorized" path can only lose to the scalar reference by jitter.
CURVE_ADAPTIVE_TOLERANCE = 0.15

#: Absolute slowdown below which a relative regression is ignored: the
#: warm-cache sections run in single-digit milliseconds at the small
#: sizes, where scheduler jitter alone (measured at 2-3ms run-to-run on
#: a loaded single-core host) exceeds any percentage threshold.
NOISE_FLOOR_S = 0.005

#: Best-of-N attempts for the service-tier wall-clock gate: ingest rate
#: jitters +-10% run-to-run on a loaded host, so a single sample cannot
#: distinguish a real slowdown from scheduler luck at a 10% threshold.
SERVICE_ATTEMPTS = 3

#: Best-of-N attempts for the admission decision-latency gate (same
#: rationale: the expensive policy decides in ~100us, where scheduler
#: jitter swamps any single sample).
ADMISSION_ATTEMPTS = 3

#: Absolute per-decision slowdown below which a relative latency
#: regression is ignored: the cheap policies decide in under a
#: microsecond, where a 10% threshold is pure timer noise.
ADMISSION_LATENCY_FLOOR_S = 2e-5


def compare(baseline: dict, current: dict, threshold: float) -> list:
    regressions = []
    for section, fast_key in FAST_KEYS.items():
        base_section = baseline["results"].get(section, {})
        for size, row in current["results"].get(section, {}).items():
            base_row = base_section.get(size)
            if base_row is None:
                continue
            base_s = base_row[fast_key]
            now_s = row[fast_key]
            if (
                base_s > 0
                and now_s > base_s * (1.0 + threshold)
                and now_s - base_s > NOISE_FLOOR_S
            ):
                regressions.append(
                    f"{section} n={size}: {base_s:.4f}s -> {now_s:.4f}s "
                    f"(+{(now_s / base_s - 1.0) * 100.0:.0f}%)"
                )
    return regressions


def check_dp_adaptive(current: dict) -> list:
    """The adaptive combine kernel must never lose to its scalar oracle."""
    problems = []
    for size, row in current["results"].get("dp_combine", {}).items():
        limit = row["scalar_s"] * (1.0 + DP_ADAPTIVE_TOLERANCE)
        if row["vectorized_s"] > limit:
            problems.append(
                f"dp_combine n={size}: adaptive path {row['vectorized_s']:.4f}s "
                f"slower than scalar {row['scalar_s']:.4f}s"
            )
    return problems


def check_curve_adaptive(current: dict) -> list:
    """The adaptive curve construction must never lose to the scalar loop.

    Below ``CURVE_SCALAR_CROSSOVER_CELLS`` the dispatch *is* the scalar
    loop (modulo memo-key bookkeeping); above it the vectorized kernel
    wins by construction.  Either way, losing to the scalar reference
    beyond jitter + noise floor means the crossover constant is wrong
    for this host.
    """
    problems = []
    for size, row in current["results"].get("curve_construction", {}).items():
        limit = row["scalar_s"] * (1.0 + CURVE_ADAPTIVE_TOLERANCE)
        if row["vectorized_s"] > limit and (
            row["vectorized_s"] - row["scalar_s"] > NOISE_FLOOR_S
        ):
            problems.append(
                f"curve_construction n={size}: adaptive path "
                f"{row['vectorized_s']:.4f}s slower than scalar "
                f"{row['scalar_s']:.4f}s"
            )
    return problems


def check_scale_suite(baseline_path: Path, sizes, threshold: float) -> list:
    """The sharded-solver gate: re-run small scale points, compare.

    Re-runs ``bench_scale`` at the requested sizes (default: the 1k and
    10k points — the big sizes are measured offline and committed).
    ``bench_scale.run_benchmarks`` already asserts the hard invariants
    (audit-clean merge, the 1e-9 bit-parity pin and speedup > 1 at
    n = 1k); this adds a wall-clock comparison against the committed
    baseline, plus a *static* memory check: every committed row at
    n >= 100k must respect the struct-of-arrays bytes-per-client
    ceiling, so a model-core field regression fails CI without anyone
    re-running a 100k point.
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; run bench_scale.py first"]
    baseline = json.loads(baseline_path.read_text())
    problems = []
    for size, base_row in baseline["results"].items():
        if int(size) < 100_000:
            continue
        bytes_per_client = (base_row.get("memory") or {}).get(
            "bytes_per_client"
        )
        if bytes_per_client is None:
            problems.append(
                f"scale n={size}: committed row has no bytes_per_client; "
                "regenerate BENCH_scale.json"
            )
        elif bytes_per_client > bench_scale.BYTES_PER_CLIENT_CEILING:
            problems.append(
                f"scale n={size}: committed {bytes_per_client:.0f} B/client "
                f"exceeds the {bench_scale.BYTES_PER_CLIENT_CEILING} B "
                "ceiling"
            )
    chosen = sizes if sizes is not None else (1000, 10_000)
    current = bench_scale.run_benchmarks(sizes=chosen)
    for size, row in current["results"].items():
        base_row = baseline["results"].get(size)
        if base_row is None:
            continue
        base_s = base_row["sharded_s"]
        now_s = row["sharded_s"]
        if base_s > 0 and now_s > base_s * (1.0 + threshold):
            problems.append(
                f"scale n={size}: sharded {base_s:.1f}s -> {now_s:.1f}s "
                f"(+{(now_s / base_s - 1.0) * 100.0:.0f}%)"
            )
    return problems


def check_service_suite(baseline_path: Path, threshold: float) -> list:
    """The sharded service-tier gate: re-run the 10x cell, compare.

    ``bench_service.bench_sharded_load`` hash-asserts per-shard replay
    determinism on every cell it runs, so reaching the comparison at
    all already proves the journals replay byte-identically.  The
    comparison then guards the two load-facing numbers: aggregate
    ingest rate (lower is a regression) and repair p99 (higher is a
    regression, subject to the absolute noise floor — the tail sits in
    single-digit milliseconds where scheduler jitter dominates).
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; run bench_service.py first"]
    baseline = json.loads(baseline_path.read_text())
    base_tier = baseline.get("sharded_load")
    if not base_tier:
        return [f"{baseline_path} has no sharded_load section; regenerate it"]
    base_cells = {c["load_multiplier"]: c for c in base_tier["cells"]}
    # Wall-clock ingest jitters +-10% run-to-run on a loaded single-core
    # host, which is the same order as the threshold itself.  Best-of-N
    # keeps the gate about the code, not the scheduler: a real regression
    # slows every attempt, jitter only slows some.
    attempts = [
        bench_service.bench_sharded_load(multipliers=(10,))["cells"][0]
        for _ in range(SERVICE_ATTEMPTS)
    ]
    best = dict(attempts[0])
    best["events_per_second"] = max(a["events_per_second"] for a in attempts)
    best["repair_p99_seconds"] = min(a["repair_p99_seconds"] for a in attempts)
    problems = []
    for cell in (best,):
        base_cell = base_cells.get(cell["load_multiplier"])
        if base_cell is None:
            continue
        base_eps = base_cell["events_per_second"]
        now_eps = cell["events_per_second"]
        if base_eps > 0 and now_eps < base_eps * (1.0 - threshold):
            problems.append(
                f"service {cell['load_multiplier']}x: ingest "
                f"{base_eps:.0f} ev/s -> {now_eps:.0f} ev/s "
                f"({(now_eps / base_eps - 1.0) * 100.0:.0f}%)"
            )
        base_p99 = base_cell["repair_p99_seconds"]
        now_p99 = cell["repair_p99_seconds"]
        if (
            base_p99 > 0
            and now_p99 > base_p99 * (1.0 + threshold)
            and now_p99 - base_p99 > NOISE_FLOOR_S
        ):
            problems.append(
                f"service {cell['load_multiplier']}x: repair p99 "
                f"{base_p99 * 1e3:.2f}ms -> {now_p99 * 1e3:.2f}ms "
                f"(+{(now_p99 / base_p99 - 1.0) * 100.0:.0f}%)"
            )
    return problems


#: Per-policy fields of a committed admission profit cell that a re-run
#: must reproduce exactly: admission decisions are deterministic, so any
#: drift in them is a behavior change, not noise.
ADMISSION_EXACT_FIELDS = (
    "profit",
    "admits_accepted",
    "admits_rejected",
    "pending_clients",
    "invalid_events",
    "snapshot_hash",
)


def check_admission_suite(baseline_path: Path, threshold: float) -> list:
    """The admission-control gate: exact profit cells + decision latency.

    Re-runs the committed overload profit cells —
    ``bench_admission.bench_policy_cell`` itself raises when the
    ``opportunity_cost`` policy fails to strictly beat the always-admit
    baseline, or when any policy's journal replay diverges — and
    requires every policy row to match the committed one exactly on
    :data:`ADMISSION_EXACT_FIELDS`, so reaching the latency comparison
    proves all three.  The latency gate then compares best-of-N mean
    per-decision cost against the committed baseline, per policy,
    subject to the absolute floor.
    """
    if not baseline_path.exists():
        return [f"no baseline at {baseline_path}; run bench_admission.py first"]
    baseline = json.loads(baseline_path.read_text())
    base_latency = baseline.get("decision_latency")
    if not base_latency:
        return [
            f"{baseline_path} has no decision_latency section; regenerate it"
        ]
    base_cells = {
        cell["trace_seed"]: cell for cell in baseline.get("profit_cells", [])
    }
    problems = []
    for seed in bench_admission.TRACE_SEEDS:
        base_cell = base_cells.get(seed)
        if base_cell is None:
            problems.append(
                f"{baseline_path} has no profit cell for trace seed {seed}; "
                "regenerate it"
            )
            continue
        try:
            cell = bench_admission.bench_policy_cell(trace_seed=seed)
        except AssertionError as exc:
            problems.append(str(exc))
            continue
        for name, base_row in base_cell["policies"].items():
            row = cell["policies"].get(name)
            if row is None:
                problems.append(f"admission trace {seed}: policy {name} missing")
                continue
            for field in ADMISSION_EXACT_FIELDS:
                if row[field] != base_row[field]:
                    problems.append(
                        f"admission trace {seed} {name}: {field} "
                        f"{base_row[field]!r} -> {row[field]!r}"
                    )
    if problems:
        return problems
    attempts = [
        bench_admission.bench_decision_latency()
        for _ in range(ADMISSION_ATTEMPTS)
    ]
    for name, base_row in base_latency["policies"].items():
        base_s = base_row["mean_decision_seconds"]
        now_s = min(
            attempt["policies"][name]["mean_decision_seconds"]
            for attempt in attempts
        )
        if (
            base_s > 0
            and now_s > base_s * (1.0 + threshold)
            and now_s - base_s > ADMISSION_LATENCY_FLOOR_S
        ):
            problems.append(
                f"admission {name}: decision latency "
                f"{base_s * 1e6:.1f}us -> {now_s * 1e6:.1f}us "
                f"(+{(now_s / base_s - 1.0) * 100.0:.0f}%)"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="allowed fractional slowdown before failing (default 0.25)",
    )
    parser.add_argument(
        "--suite",
        choices=("hotpaths", "scale", "service", "admission"),
        default="hotpaths",
        help="hotpaths: kernel micro-benchmarks vs BENCH_hotpaths.json; "
        "scale: sharded-solver points vs BENCH_scale.json; "
        "service: sharded service-tier 10x load cell vs BENCH_service.json; "
        "admission: overload profit dominance + decision latency vs "
        "BENCH_admission.json",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline JSON to compare against (default: the suite's "
        "committed BENCH_*.json)",
    )
    parser.add_argument(
        "--sections",
        type=str,
        default=None,
        help="comma-separated subset of sections to run "
        f"(default all: {','.join(SECTIONS)})",
    )
    parser.add_argument(
        "--sizes",
        type=str,
        default=None,
        help="comma-separated client counts to run (default the full sweep)",
    )
    args = parser.parse_args()

    sizes = (
        tuple(int(n) for n in args.sizes.split(","))
        if args.sizes
        else None
    )

    if args.suite == "admission":
        baseline_path = args.baseline or bench_admission.OUTPUT_PATH
        problems = check_admission_suite(baseline_path, args.threshold)
        if problems:
            print("admission-suite regressions beyond threshold:")
            for line in problems:
                print(f"  {line}")
            return 1
        print(
            f"admission suite within {args.threshold * 100:.0f}% of baseline "
            "(profit dominance, per-policy replay and exact cells asserted)"
        )
        return 0

    if args.suite == "service":
        baseline_path = args.baseline or bench_service.OUTPUT_PATH
        problems = check_service_suite(baseline_path, args.threshold)
        if problems:
            print("service-suite regressions beyond threshold:")
            for line in problems:
                print(f"  {line}")
            return 1
        print(
            f"service suite within {args.threshold * 100:.0f}% of baseline "
            "(per-shard replay hash-asserted)"
        )
        return 0

    if args.suite == "scale":
        baseline_path = args.baseline or bench_scale.OUTPUT_PATH
        problems = check_scale_suite(baseline_path, sizes, args.threshold)
        if problems:
            print("scale-suite regressions beyond threshold:")
            for line in problems:
                print(f"  {line}")
            return 1
        print(f"scale suite within {args.threshold * 100:.0f}% of baseline")
        return 0

    baseline_path = args.baseline or OUTPUT_PATH
    if not baseline_path.exists():
        print(f"no baseline at {baseline_path}; run bench_hotpaths.py first")
        return 1
    baseline = json.loads(baseline_path.read_text())
    sections = args.sections.split(",") if args.sections else None
    current = (
        run_benchmarks(sections=sections)
        if sizes is None
        else run_benchmarks(sizes=sizes, sections=sections)
    )

    problems = compare(baseline, current, args.threshold)
    problems.extend(check_dp_adaptive(current))
    problems.extend(check_curve_adaptive(current))
    if problems:
        print("hot-path regressions beyond threshold:")
        for line in problems:
            print(f"  {line}")
        return 1
    print(f"hot paths within {args.threshold * 100:.0f}% of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
