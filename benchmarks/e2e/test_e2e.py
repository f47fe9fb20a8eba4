"""Tests of the end-to-end benchmark itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py``.
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
import time

import numpy as np
import pytest

import metrics
import run
import tracing
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


# -- workloads ---------------------------------------------------------------------


TINY = {
    "paper-solve": dict(num_clients=12),
    "scale-solve": dict(num_clients=200),
    "serve-churn": dict(num_clients=12, num_epochs=4, num_events=30),
    "serve-overload": dict(num_templates=8, num_events=200),
}


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_smoke(name, tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    clock = workloads.Clock()
    rep = getattr(workloads, name.replace("-", "_"))
    outcome = rep(3, clock, True, **TINY[name])
    assert outcome.problems == []
    assert outcome.attempted > 0
    assert outcome.failed == 0
    assert 0 <= outcome.served <= outcome.attempted
    assert clock.wall_s > 0 and clock.cpu_s > 0 and clock.setup_cpu_s > 0
    assert list(tmp_path.iterdir()) == []


def test_paper_instance_at_catalog_seed_is_the_generator_instance():
    from repro.io import system_to_dict
    from repro.workload.generator import generate_system

    seed = workloads.CATALOG_SEED
    assert system_to_dict(workloads.paper_instance(20, seed)) == {
        **system_to_dict(generate_system(20, seed=seed)),
        "name": workloads.paper_instance(20, seed).name,
    }


def test_traced_repetition_restores_the_program():
    from repro.core import allocator, power

    original = power.turn_off_servers
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert allocator.turn_off_servers is not original
        workloads.paper_solve(3, workloads.Clock(tracer), True, num_clients=12)
    finally:
        tracer.uninstall()
    assert allocator.turn_off_servers is original
    assert power.turn_off_servers is original
    assert tracer.missing == []
    layers = tracing.per_layer_metrics(tracer, "allocator.solve")
    assert layers["allocator.solve.calls"] == 1
    assert layers["allocator.improvement_round.calls"] >= 1
    assert 0.9 <= layers["trace.coverage"] <= 1.0


# -- open-loop rate search --------------------------------------------------------


def test_lindley_against_hand_computed_queue():
    # due at 0, 0.5, 1.0; each takes 1 s: done at 1, 2, 3.
    assert metrics.lindley_latencies([1.0, 1.0, 1.0], [0.0, 0.5, 0.5]) == [1.0, 1.5, 2.0]
    # an idle gap resets the queue
    assert metrics.lindley_latencies([1.0, 1.0], [0.0, 3.0]) == [1.0, 1.0]


def test_max_rate_for_deterministic_arrivals():
    # Two 20 ms events then 48 of 1 ms, evenly spaced at gap g.  The
    # second event waits 20 ms - g, so its latency is 40 ms - g; with 50
    # samples the nearest-rank p99 is the maximum, so 40 ms - g <= 25 ms
    # gives g >= 15 ms: at most 66.7 events/s, below saturation (568/s).
    assert metrics.LATENCY_LIMIT_S == 0.025
    service = [0.02, 0.02] + [0.001] * 48
    rate = metrics.max_rate_for_gaps(service, [1.0] * 50)
    assert rate == pytest.approx(1 / 0.015, rel=1e-6)
    assert metrics.meets_limit(service, [1.0] * 50, 60.0)
    assert not metrics.meets_limit(service, [1.0] * 50, 70.0)
    # Equal 10 ms events never queue below saturation (100/s), so the
    # search ends there: a faster arrival rate would grow the backlog.
    flat = metrics.max_rate_for_gaps([0.01] * 100, [1.0] * 100)
    assert flat == pytest.approx(100.0, rel=1e-6)


def test_max_rate_is_zero_when_service_alone_misses_the_limit():
    assert metrics.max_rate_for_gaps([0.03] * 50, [1.0] * 50) == 0.0
    assert metrics.max_sustainable_rate([], seed=1) == 0.0


def test_max_sustainable_rate_is_a_boundary():
    service = [0.002 + 0.001 * (i % 7) for i in range(500)]
    rate = metrics.max_sustainable_rate(service, seed=5)
    assert 0 < rate < len(service) / sum(service)
    gaps = np.random.default_rng(5).exponential(1.0, size=500).tolist()
    assert metrics.meets_limit(service, gaps, rate)
    assert not metrics.meets_limit(service, gaps, rate * 1.01)


def test_percentile_nearest_rank():
    assert metrics.percentile(list(range(1, 101)), 0.99) == 99
    assert metrics.percentile([5.0], 0.5) == 5.0
    assert metrics.percentile([], 0.5) == 0.0


# -- span arithmetic ---------------------------------------------------------------


def test_self_time_on_nested_span_tree():
    Span = tracing.Span
    spans = [
        Span("a", -1, 0.0, 10.0),
        Span("b", 0, 1.0, 4.0),
        Span("c", 1, 2.0, 3.0),
        Span("b", 0, 5.0, 6.0),
        Span("a", 0, 6.0, 9.0),  # a re-entering itself
        Span("d", 4, 7.0, 8.0),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"] == (2, 10.0, 5.0)  # total counts the outer a only
    assert stats["b"] == (2, 4.0, 3.0)
    assert stats["c"] == (1, 1.0, 1.0)
    assert stats["d"] == (1, 1.0, 1.0)
    assert sum(s.self_s for s in stats.values()) == 10.0
    assert tracing.coverage(spans, "a") == pytest.approx(0.7)
    tree = {node["path"]: node for node in tracing.call_tree(spans)}
    assert tree["a/b"]["calls"] == 2 and tree["a/b"]["self_s"] == 3.0
    assert tree["a/a/d"]["total_s"] == 1.0


# -- names and the benchmark description ------------------------------------------


def test_benchmark_json_meets_its_limits(spec):
    assert set(spec) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert spec["paths"] == ["benchmarks/e2e"]
    assert 1 <= spec["run_seconds"] <= 60
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(len(w["why"]) <= 200 and set(w) == {"name", "why"} for w in spec["workloads"])
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert len(spec["per_layer"]) <= 128


def test_emitted_names_match_benchmark_json(spec):
    assert list(run.PLANS) == [w["name"] for w in spec["workloads"]]
    for name in run.PLANS:
        assert callable(getattr(workloads, name.replace("-", "_")))
    record = {
        "setup_cpu_s": 0.3, "cpu_s": 2.0, "wall_s": 2.1, "profit": 5.0,
        "served": 3, "attempted": 4, "peak_rss_mb": 50.0, "latencies_s": [0.001, 0.002],
        "layers": tracing.per_layer_metrics(tracing.Tracer(), "allocator.solve"),
    }
    e2e = run.end_to_end_metrics([record])
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    layers = run.layer_metrics("serve-churn", 1, [record], [record])
    assert sorted(layers) == sorted(m["name"] for m in spec["per_layer"])
    line = json.loads(run.result_line(
        {"correct": True, "attempted": 4, "failed": 0, "metrics": e2e, "layers": layers},
        spec, trace=False,
    ))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(NAME.match(name) for name in line["metrics"])


# -- isolation and timeouts ----------------------------------------------------------


def test_sleeping_child_times_out():
    started = time.monotonic()
    record, error = run.run_child(
        [sys.executable, "-c", "import time; time.sleep(60)"], timeout=1.0
    )
    assert record is None and error.startswith("timed out")
    assert time.monotonic() - started < 10


def test_timed_out_workload_fails_the_run_without_a_result(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(run.PLANS, "paper-solve", run.Plan(0.1, 0.2, root="allocator.solve"))
    monkeypatch.setattr(
        run,
        "child_command",
        lambda *args, **kwargs: [sys.executable, "-c", "import time; time.sleep(60)"],
    )
    started = time.monotonic()
    code = run.main(
        ["--workload", "paper-solve", "--seconds", "1", "--out", str(tmp_path / "r.json")]
    )
    assert code == 1
    assert time.monotonic() - started < 10
    out = capsys.readouterr().out
    assert "timed out" in out and "failed_share 1" in out
    assert not out.strip().splitlines()[-1].startswith("{")
    saved = json.loads((tmp_path / "r.json").read_text())
    crashed = saved["workloads"]["paper-solve"]["runs"][0]
    assert crashed["correct"] is False
    assert crashed["metrics"] == {"served_share": 0.0}


def _fake_record(seed, trace):
    record = {
        "seed": seed, "setup_cpu_s": 0.3, "cpu_s": 2.0, "wall_s": 2.1, "profit": 5.0,
        "attempted": 4, "served": 4, "failed": 0, "peak_rss_mb": 50.0, "problems": [],
        "latencies_s": [0.001, 0.002], "detail": {},
    }
    if trace:
        record.update(
            layers=tracing.per_layer_metrics(tracing.Tracer(), "allocator.solve"),
            tree=[],
            missing_layers=["power.turn_off_servers"],
        )
    return record


def test_traced_run_with_a_missing_layer_is_not_correct(monkeypatch):
    monkeypatch.setattr(
        run,
        "_repetitions",
        lambda name, seed, seconds, trace: iter([(_fake_record(seed, trace), None)]),
    )
    assert run.run_workload("paper-solve", 1, 1.0, trace=False)["correct"] is True
    traced = run.run_workload("paper-solve", 1, 1.0, trace=True)
    assert traced["correct"] is False
    assert traced["problems"] == ["layer not found: power.turn_off_servers"]


# -- comparing result sets ------------------------------------------------------------


def _write_set(path, runs_by_workload):
    path.write_text(json.dumps(
        {"workloads": {name: {"runs": runs} for name, runs in runs_by_workload.items()}}
    ))
    return str(path)


def _good_run(seed, spec, **changes):
    metrics_ = {m["name"]: 1.0 + 0.001 * seed for m in spec["end_to_end"]}
    metrics_.update(changes)
    return {"seed": seed, "correct": True, "metrics": metrics_}


def test_compare_same_code_passes(spec, tmp_path, capsys):
    runs = {"paper-solve": [_good_run(s, spec) for s in range(1, 6)]}
    a = _write_set(tmp_path / "a.json", runs)
    b = _write_set(tmp_path / "b.json", runs)
    assert run.compare(a, b) == 0
    assert "worse" not in capsys.readouterr().out


def test_compare_fails_a_set_with_a_timed_out_run(spec, tmp_path, capsys):
    good = [_good_run(s, spec) for s in range(1, 6)]
    timed_out = {
        "seed": 6, "correct": False, "error": "timed out after 30 s",
        "metrics": {"served_share": 0.0},
    }
    a = _write_set(tmp_path / "a.json", {"paper-solve": good + [_good_run(6, spec)]})
    b = _write_set(tmp_path / "b.json", {"paper-solve": good + [timed_out]})
    assert run.compare(a, b) == 1
    assert "1 of 6 runs failed" in capsys.readouterr().out
    # A workload one set lacks is a failure as well.
    c = _write_set(tmp_path / "c.json", {"paper-solve": good, "serve-churn": good})
    assert run.compare(c, a) == 1
    assert "missing" in capsys.readouterr().out


def test_compare_holds_seed_determined_metrics_to_each_seed(spec, tmp_path):
    before = [_good_run(s, spec) for s in range(1, 6)]
    # One seed of five loses 1% of its profit: far inside the bound, but
    # the seed fixes profit, so it is a different outcome.
    after = before[:4] + [_good_run(5, spec, profit=before[4]["metrics"]["profit"] * 0.99)]
    a = _write_set(tmp_path / "a.json", {"paper-solve": before})
    b = _write_set(tmp_path / "b.json", {"paper-solve": after})
    assert run.compare(a, b) == 1
    assert run.compare(b, a) == 0


def test_paired_verdict():
    assert metrics.paired_verdict([1.0, 2.0], [1.0, 2.0], "higher") == "same"
    assert metrics.paired_verdict([1.0, 2.0], [1.0, 2.0 * (1 + 1e-9)], "higher") == "same"
    assert metrics.paired_verdict([1.0, 2.0], [1.1, 2.0], "higher") == "better"
    assert metrics.paired_verdict([1.0, 2.0], [1.1, 1.9], "higher") == "worse"
    assert metrics.paired_verdict([0.0], [0.1], "lower") == "worse"


def test_verdicts():
    assert metrics.verdict([10.0, 10.1, 10.2], [10.0, 10.1, 10.2], "lower", 0.1) == "same"
    assert metrics.verdict([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", 0.1) == "worse"
    assert metrics.verdict([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", 0.1) == "better"
    assert metrics.verdict([5.0, 10.0, 15.0], [5.0, 10.0, 15.0], "lower", 0.1) == "unresolved"
    # every run of the change better than every run of the parent
    assert metrics.verdict([5.0, 10.0, 15.0], [1.0, 2.0, 3.0], "lower", 0.1) == "better"
    assert metrics.verdict([100.0], [99.0], "higher", 1e-6) == "worse"
