"""Statistics the benchmark reports: percentiles, the open-loop rate
search, and the two-set comparison verdicts."""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence, Tuple

import numpy as np

#: serve-churn's latency limit on the p99 of due-to-done time.
LATENCY_LIMIT_S = 0.025
LATENCY_QUANTILE = 0.99
#: Bisection steps of the rate search; 50 halvings reach float precision.
RATE_SEARCH_STEPS = 50
#: Relative change of a seed-determined metric that still reads as equal:
#: rounding, not a different outcome.
PAIRED_TOLERANCE = 1e-6


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def lindley_latencies(
    service_s: Sequence[float], interarrival_s: Sequence[float]
) -> List[float]:
    """Due-to-done time of each event on one FIFO server.

    Event ``i`` is due at the running sum of the interarrival times and
    is done at ``done_i = max(due_i, done_{i-1}) + s_i``.
    """
    due = 0.0
    done = 0.0
    latencies = []
    for service, gap in zip(service_s, interarrival_s):
        due += gap
        done = max(due, done) + service
        latencies.append(done - due)
    return latencies


def meets_limit(service_s: Sequence[float], unit_gaps: Sequence[float], rate: float) -> bool:
    """Whether arrivals at ``rate`` keep the p99 within ``LATENCY_LIMIT_S``
    and end without a backlog beyond it."""
    latencies = lindley_latencies(service_s, [gap / rate for gap in unit_gaps])
    return (
        percentile(latencies, LATENCY_QUANTILE) <= LATENCY_LIMIT_S
        and latencies[-1] <= LATENCY_LIMIT_S
    )


def max_rate_for_gaps(service_s: Sequence[float], unit_gaps: Sequence[float]) -> float:
    """Highest rate at which arrivals spaced ``unit_gaps / rate`` meet the limit.

    Scaling fixed gaps by the rate makes every latency non-decreasing in
    the rate, so bisection between 0 and the saturation rate
    ``1 / mean(service)`` finds the boundary.  Returns 0.0 when even an
    idle server misses the limit.
    """
    if not service_s:
        return 0.0
    low, high = 0.0, len(service_s) / sum(service_s)
    if not meets_limit(service_s, unit_gaps, high * 1e-9):
        return 0.0
    for _ in range(RATE_SEARCH_STEPS):
        middle = (low + high) / 2
        if meets_limit(service_s, unit_gaps, middle):
            low = middle
        else:
            high = middle
    return low


def max_sustainable_rate(service_s: Sequence[float], seed: int) -> float:
    """Highest Poisson arrival rate (events/s) that meets the latency limit.

    Replays the measured service times through the Lindley recursion with
    exponential unit gaps drawn from ``seed``.  The engine serves one
    event at a time, in order, and an event's service time does not
    depend on when it arrived, so the replay is what an open-loop run at
    that rate would see.
    """
    gaps = np.random.default_rng(seed).exponential(1.0, size=len(service_s))
    return max_rate_for_gaps(service_s, gaps.tolist())


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) as ``statistics`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    if median == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(median)


def verdict(
    before: Sequence[float], after: Sequence[float], better: str, bound: float
) -> str:
    """better / same / worse / unresolved for one metric on one workload.

    When either side's spread is wider than ``bound``: ``better`` if
    every ``after`` run reads better than every ``before`` run, else
    ``unresolved``.  Otherwise ``worse`` when the median moved the wrong
    way by more than ``bound`` (a share of the ``before`` median),
    ``better`` when it improved by more than the ``before`` runs' own
    spread, and ``same`` in between.
    """
    sign = 1.0 if better == "lower" else -1.0
    base = abs(statistics.median(before)) or 1.0
    # Positive = moved the wrong way, as a share of the before median.
    change = sign * (statistics.median(after) - statistics.median(before)) / base
    if max(relative_spread(before), relative_spread(after)) > bound:
        all_better = all(sign * a < sign * b for a in after for b in before)
        return "better" if all_better else "unresolved"
    if change > bound:
        return "worse"
    if -change > relative_spread(before):
        return "better"
    return "same"


def paired_verdict(before: Sequence[float], after: Sequence[float], better: str) -> str:
    """better / same / worse for a metric the seed fixes, pair by pair.

    ``worse`` if any seed's value moved the wrong way by more than
    ``PAIRED_TOLERANCE`` of its before value, ``better`` if none did and
    one moved the right way by more, else ``same``.
    """
    sign = 1.0 if better == "lower" else -1.0
    improved = False
    for b, a in zip(before, after):
        change = sign * (a - b) / (abs(b) or 1.0)
        if change > PAIRED_TOLERANCE:
            return "worse"
        improved = improved or -change > PAIRED_TOLERANCE
    return "better" if improved else "same"
