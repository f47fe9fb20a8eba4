"""Per-layer spans timed from outside the program.

The tracer never edits ``src/``.  :meth:`Tracer.install` replaces each
layer's public function with a timing wrapper at every place the program
looks it up: the attribute of every loaded ``repro`` module that holds the
original function (so ``repro.core.allocator.turn_off_servers`` and
``repro.core.power.turn_off_servers`` both go through it), or the class
attribute for methods.  Wrappers record a span only while the tracer is
enabled, so set-up work outside the timed region leaves no spans.

Spans live in memory as parallel arrays of name, parent, start and end,
and are reduced when the run ends: per layer the number of calls, the
total time (outermost spans of that layer only, so recursion is not
counted twice) and the self time (span minus the time its direct child
spans cover).  The program is single-threaded and a span never stays
open across an ``await`` (wrapped coroutines are entered through
``asyncio.run``, which is itself the enclosing span), so the open spans
always form one stack.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

#: (layer name, "module:qualified name").  Names are metric prefixes, so
#: they stay stable when the code behind them moves; targets name the
#: module that defines the function or class.
SPAN_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("allocator.solve", "repro.core.allocator:ResourceAllocator.solve"),
    ("allocator.improvement_round", "repro.core.allocator:ResourceAllocator._improvement_round"),
    ("initial.build_initial_solution", "repro.core.initial:build_initial_solution"),
    ("shares.adjust_resource_shares", "repro.core.shares:adjust_resource_shares"),
    ("dispersion.adjust_dispersion_rates", "repro.core.dispersion:adjust_dispersion_rates"),
    ("power.turn_on_servers", "repro.core.power:turn_on_servers"),
    ("power.turn_off_servers", "repro.core.power:turn_off_servers"),
    ("power.try_shutdown_server", "repro.core.power:try_shutdown_server"),
    ("local_search.reassignment_pass", "repro.core.local_search:reassignment_pass"),
    ("assign.best_placement", "repro.core.assign:best_placement"),
    ("assign.assign_distribute", "repro.core.assign:assign_distribute"),
    ("assign.estimate_marginal_profit", "repro.core.assign:estimate_marginal_profit"),
    ("profit.evaluate_profit", "repro.model.profit:evaluate_profit"),
    ("sharded.solve", "repro.core.sharded:ShardedAllocator.solve"),
    ("sharded.plan_shards", "repro.core.sharded:plan_shards"),
    ("sharded.shard_subsystem", "repro.core.sharded:shard_subsystem"),
    ("allocation.rows_concatenate", "repro.model.allocation:AllocationRows.concatenate"),
    ("allocation.from_rows", "repro.model.allocation:Allocation.from_rows"),
    ("state.restore_rows", "repro.core.state:WorkingState.restore_rows"),
    ("state.export_rows", "repro.core.state:WorkingState.export_rows"),
    ("state.canonicalize", "repro.core.state:WorkingState.canonicalize"),
    ("delta.resync", "repro.core.delta:DeltaScorer.resync"),
    ("service.apply", "repro.service.engine:AllocationService.apply"),
    ("service.load_index", "repro.service.engine:AllocationService.load_index"),
    ("repair.place_client", "repro.core.repair:place_client"),
    ("repair.reseat_client", "repro.core.repair:reseat_client"),
    ("repair.rebalance_servers", "repro.core.repair:rebalance_servers"),
    ("repair.consolidate_servers", "repro.core.repair:consolidate_servers"),
    ("repair.drain_server", "repro.core.repair:drain_server"),
    ("journal.append", "repro.service.journal:EventJournal.append"),
    ("admission.priority", "repro.service.admission:OpportunityCost.priority"),
    ("admission.decide", "repro.service.admission:OpportunityCost.decide"),
    ("admission.reprice", "repro.service.admission:PricingSchedule.reprice"),
    ("router.offer", "repro.service.router:ServiceRouter.offer"),
    ("router.run_open_loop", "repro.service.router:ServiceRouter.run_open_loop"),
)

#: Boundaries called too often and too cheaply for a span; only counted.
COUNT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("state.begin_txn", "repro.core.state:WorkingState.begin_txn"),
    ("state.commit_txn", "repro.core.state:WorkingState.commit_txn"),
)

#: Waste ratios: (metric, layer whose calls are the base, predicate on
#: the layer's return value that marks a useful outcome).
OUTCOME_RATIOS: Tuple[Tuple[str, str, Callable[[object], bool]], ...] = (
    ("power.try_shutdown_server.accept_ratio", "power.try_shutdown_server", lambda r: r > 0.0),
    ("assign.best_placement.feasible_ratio", "assign.best_placement", lambda r: r is not None),
)


class Span(NamedTuple):
    name: str
    parent: int
    start: float
    end: float


class LayerStats(NamedTuple):
    calls: int
    total_s: float
    self_s: float


def _resolve(target: str) -> Tuple[object, str, object]:
    """(owner, attribute, raw attribute value) for a ``module:qualname``."""
    module_name, qualname = target.split(":")
    owner: object = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attribute = parts[-1]
    return owner, attribute, vars(owner)[attribute]


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self._patches: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spans(self) -> List[Span]:
        return [
            Span(self.names[n], p, s, e)
            for n, p, s, e in zip(
                self.span_name, self.span_parent, self.span_start, self.span_end
            )
        ]

    def _span_wrapper(self, name: str, fn: Callable, outcome: Optional[Callable]) -> Callable:
        name_id = self._name_id(name)
        accept_key = f"{name}.accepted"
        stack = self._stack
        perf_counter = time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_end.append(0.0)
            stack.append(index)
            self.span_start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.span_end[index] = perf_counter()
                stack.pop()
            if outcome is not None and outcome(result):
                self.counts[accept_key] = self.counts.get(accept_key, 0) + 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer at every site the program looks it up."""
        outcomes = {layer: test for _, layer, test in OUTCOME_RATIOS}
        counted = {name for name, _ in COUNT_LAYERS}
        for name, target in SPAN_LAYERS + COUNT_LAYERS:
            try:
                owner, attribute, raw = _resolve(target)
            except (ImportError, AttributeError, KeyError):
                # A renamed or removed layer reads as idle; the run lists
                # it under ``missing_layers`` instead of failing.
                self.missing.append(name)
                continue
            fn = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
            if name in counted:
                wrapped = self._count_wrapper(name, fn)
            else:
                wrapped = self._span_wrapper(name, fn, outcomes.get(name))
            if isinstance(owner, type):
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapped = type(raw)(wrapped)
                self._patch(owner, attribute, wrapped)
                continue
            for module in list(sys.modules.values()):
                if not getattr(module, "__name__", "").startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._patch(module, key, wrapped)

    def _patch(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()


# -- reduction -----------------------------------------------------------------


def _outermost(spans: Sequence[Span]) -> List[bool]:
    """Whether each span has no ancestor of its own name."""
    flags = []
    for span in spans:
        ancestor = span.parent
        while ancestor >= 0 and spans[ancestor].name != span.name:
            ancestor = spans[ancestor].parent
        flags.append(ancestor < 0)
    return flags


def _child_time(spans: Sequence[Span]) -> List[float]:
    """Seconds each span's direct children cover (children never overlap)."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return covered


def layer_stats(spans: Sequence[Span]) -> Dict[str, LayerStats]:
    """Calls, total and self seconds per span name.

    ``total_s`` sums only the outermost span of each name on a path, so a
    layer that re-enters itself is not counted twice; ``self_s`` is each
    span's duration minus its direct children's, which partitions the
    traced time exactly.
    """
    child_time = _child_time(spans)
    calls: Dict[str, int] = {}
    total: Dict[str, float] = {}
    own: Dict[str, float] = {}
    for span, covered, outermost in zip(spans, child_time, _outermost(spans)):
        duration = span.end - span.start
        calls[span.name] = calls.get(span.name, 0) + 1
        own[span.name] = own.get(span.name, 0.0) + duration - covered
        if outermost:
            total[span.name] = total.get(span.name, 0.0) + duration
    return {name: LayerStats(calls[name], total[name], own[name]) for name in calls}


def coverage(spans: Sequence[Span], root: str) -> float:
    """Share of the outermost ``root`` spans' time their direct children cover."""
    covered = 0.0
    root_time = 0.0
    for span, children, outermost in zip(spans, _child_time(spans), _outermost(spans)):
        if span.name == root and outermost:
            root_time += span.end - span.start
            covered += children
    return covered / root_time if root_time > 0 else 0.0


def call_tree(spans: Sequence[Span]) -> List[Dict[str, object]]:
    """Spans merged by call path (``a/b/c``): calls, total and self seconds."""
    paths: List[str] = []
    nodes: Dict[str, List[float]] = {}
    for span in spans:
        parent_path = paths[span.parent] + "/" if span.parent >= 0 else ""
        path = parent_path + span.name
        paths.append(path)
        node = nodes.setdefault(path, [0, 0.0, 0.0])
        duration = span.end - span.start
        node[0] += 1
        node[1] += duration
        node[2] += duration
        if span.parent >= 0:
            nodes[paths[span.parent]][2] -= duration
    return [
        {"path": path, "calls": int(n[0]), "total_s": n[1], "self_s": n[2]}
        for path, n in sorted(nodes.items())
    ]


def per_layer_metrics(tracer: Tracer, root: str) -> Dict[str, float]:
    """Every per-layer metric this tracer defines, idle layers as zeros.

    Ratios are 0 when their base count is 0; the base is always reported
    alongside (``<layer>.calls`` or ``state.begin_txn.calls``).
    """
    spans = tracer.spans()
    stats = layer_stats(spans)
    metrics: Dict[str, float] = {}
    for name, _ in SPAN_LAYERS:
        layer = stats.get(name, LayerStats(0, 0.0, 0.0))
        metrics[f"{name}.calls"] = layer.calls
        metrics[f"{name}.total_s"] = layer.total_s
        metrics[f"{name}.self_s"] = layer.self_s
    for name, _ in COUNT_LAYERS:
        metrics[f"{name}.calls"] = tracer.counts.get(name, 0)
    for metric, base, _ in OUTCOME_RATIOS:
        calls = metrics[f"{base}.calls"]
        accepted = tracer.counts.get(f"{base}.accepted", 0)
        metrics[metric] = accepted / calls if calls else 0.0
    begins = metrics["state.begin_txn.calls"]
    metrics["state.txn.commit_ratio"] = (
        metrics["state.commit_txn.calls"] / begins if begins else 0.0
    )
    metrics["trace.coverage"] = coverage(spans, root)
    return metrics
