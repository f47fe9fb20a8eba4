"""Vectorized kernels vs their scalar oracles.

The production NumPy kernels (`batched_server_curves`, the array DP, the
cross-cluster `best_placement`) are required to reproduce the scalar
reference implementations *exactly* — same -inf structure, same shares,
same tie-breaks — because the solver's accept-if-better decisions would
otherwise diverge between the two configurations.  Together these checks
cover several hundred random instances.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.assignment import (
    build_allocation_for_assignment,
    random_assignment,
)
from repro.config import SolverConfig
from repro.core.assign import (
    _clusters_with_room,
    _server_curves,
    assign_distribute,
    batched_server_curves,
    best_placement,
)
from repro.core.cache import maybe_attach_cache
from repro.exceptions import ServiceError
from repro.optim.dp import (
    NEG_INF,
    brute_force_combination,
    combine_server_curves,
    combine_server_curves_scalar,
)
from repro.service import (
    AllocationService,
    LoadGenConfig,
    OpportunityCost,
    PricingSchedule,
    ServerFail,
    ServicePolicy,
    flatten_bursts,
    generate_load,
)
from repro.service.driver import empty_copy
from repro.workload import WorkloadConfig, generate_system, overload_system

SCALAR = SolverConfig(use_vectorized_kernels=False, use_delta_scoring=False)
VECTOR = SolverConfig()


def _random_state(seed: int, num_clients: int = 10):
    system = generate_system(num_clients=num_clients, seed=seed)
    rng = np.random.default_rng(seed + 1)
    assignment = random_assignment(system, rng)
    return build_allocation_for_assignment(system, assignment, SCALAR)


@pytest.mark.parametrize("seed", range(12))
def test_batched_curves_match_scalar_exactly(seed):
    """Every (client, server) curve: identical values, -inf cells, shares."""
    state = _random_state(seed)
    system = state.system
    for cid in system.client_ids():
        client = system.client(cid)
        for kid in system.cluster_ids():
            server_ids = [s.server_id for s in system.cluster(kid)]
            rows, values, phi_p, phi_b = batched_server_curves(
                state, client, server_ids, VECTOR
            )
            for sid, row in zip(server_ids, rows):
                ref_values, ref_shares = _server_curves(state, client, sid, SCALAR)
                got = values[row]
                assert list(got) == ref_values, (seed, cid, sid)
                for g, (ref_p, ref_b) in enumerate(ref_shares):
                    if ref_values[g] == NEG_INF:
                        assert phi_p[row, g] == 0.0 and phi_b[row, g] == 0.0
                    else:
                        assert phi_p[row, g] == ref_p, (seed, cid, sid, g)
                        assert phi_b[row, g] == ref_b, (seed, cid, sid, g)


@pytest.mark.parametrize("seed", range(12, 18))
def test_assign_distribute_paths_agree(seed):
    """Vectorized and scalar Assign_Distribute pick identical placements."""
    state = _random_state(seed)
    system = state.system
    for cid in system.client_ids():
        client = system.client(cid)
        for kid in system.cluster_ids():
            a = assign_distribute(state, client, kid, VECTOR)
            b = assign_distribute(state, client, kid, SCALAR)
            if a is None or b is None:
                assert a is None and b is None, (seed, cid, kid)
                continue
            assert a.cluster_id == b.cluster_id
            assert a.estimated_profit == b.estimated_profit
            assert a.entries == b.entries


def _saturated_service(fail_server: bool):
    """An overloaded admission engine and its template clients.

    Surge-priced opportunity-cost admission on a 12-template overload
    fleet, fed admits and departs only (rate updates with surge pricing
    can hang the engine), so most clients no longer fit anywhere.
    """
    system = overload_system(12, seed=7)
    events = flatten_bursts(
        generate_load(
            system,
            LoadGenConfig(
                num_events=300,
                arrival_rate=500.0,
                admit_weight=0.8,
                depart_weight=0.2,
                rate_update_weight=0.0,
                seed=7,
            ),
        )
    )
    service = AllocationService(
        empty_copy(system),
        config=SolverConfig(seed=0),
        policy=ServicePolicy(drift_threshold=50.0),
        admission=OpportunityCost(),
        pricing=PricingSchedule.surge(),
    )
    for event in events:
        try:
            service.apply(event)
        except ServiceError:
            pass  # a depart of a refused client, as the router skips it
    if fail_server:
        busiest = max(
            service.state.server_statics,
            key=lambda sid: len(service.state.allocation.clients_on_server(sid)),
        )
        service.apply(ServerFail(server_id=busiest))
    return service, system.clients


def _placement_probes(case):
    """(state, probe clients, excluded servers) for one agreement case."""
    if isinstance(case, int):
        state = _random_state(case)
        clients = [state.system.client(cid) for cid in state.system.client_ids()]
        return state, clients, frozenset()
    service, templates = _saturated_service(case == "saturated-failed")
    # Each round of clones scales every template's demand down once more,
    # so the probes run from hopeless to comfortably placeable.
    scales = (1.0, 0.3, 0.1, 0.03, 0.01)
    probes = []
    for i in range(240):
        template = templates[i % len(templates)]
        scale = scales[(i // len(templates)) % len(scales)]
        probes.append(
            dataclasses.replace(
                template,
                client_id=9_000_000 + i,
                rate_predicted=template.rate_predicted * scale,
            )
        )
    return service.state, probes, frozenset(service.failed)


@pytest.mark.parametrize(
    "case", [*range(18, 24), "saturated", "saturated-failed"]
)
def test_best_placement_paths_agree(case):
    """The cross-cluster batched path returns what the per-cluster loop would.

    The saturated engine states are where the production path's cluster
    screen drops clusters (and usually every cluster) before any curve
    is built; the random states are where nearly every client fits.
    """
    state, clients, excluded = _placement_probes(case)
    hopeless = 0
    for client in clients:
        a = best_placement(state, client, VECTOR, excluded_server_ids=excluded)
        b = best_placement(state, client, SCALAR, excluded_server_ids=excluded)
        if a is None or b is None:
            assert a is None and b is None, (case, client.client_id)
            hopeless += 1
            continue
        assert a.cluster_id == b.cluster_id
        assert a.estimated_profit == b.estimated_profit
        assert a.entries == b.entries
    if isinstance(case, str):
        assert 0 < hopeless < len(clients), (case, hopeless)


def _headroom(state, server_ids, min_share, excluded):
    """Python-float sums of ``max(free - min_share, 0) * C`` per resource."""
    total_p = total_b = 0.0
    for sid in server_ids:
        if sid in excluded:
            continue
        statics = state.server_statics[sid]
        room_p = max(state.free_processing(sid) - min_share, 0.0)
        room_b = max(state.free_bandwidth(sid) - min_share, 0.0)
        total_p += room_p * statics.cap_processing
        total_b += room_b * statics.cap_bandwidth
    return total_p, total_b


def _same_placement(a, b):
    if a is None or b is None:
        return a is None and b is None
    return (
        a.cluster_id == b.cluster_id
        and a.estimated_profit.hex() == b.estimated_profit.hex()
        and a.entries == b.entries
    )


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10_000),
    num_clusters=st.integers(min_value=1, max_value=4),
    per_cluster=st.integers(min_value=1, max_value=5),
    background=st.sampled_from([0.0, 0.5, 1.0]),
    placed_share=st.floats(min_value=0.0, max_value=1.0),
    min_share=st.floats(min_value=1e-9, max_value=0.1),
    stability_margin=st.floats(min_value=1.0, max_value=2.0),
    demand=st.sampled_from(["drawn", "tiny", "boundary"]),
    boundary_gap=st.floats(min_value=-1e-6, max_value=1e-6),
    zero_storage=st.booleans(),
)
def test_cluster_screen_is_sound(
    data,
    seed,
    num_clusters,
    per_cluster,
    background,
    placed_share,
    min_share,
    stability_margin,
    demand,
    boundary_gap,
    zero_storage,
):
    """The cluster screen only drops clusters the scalar oracle rejects.

    Random fleets with background load and a partial allocation, failed
    servers excluded, a candidate-cluster subset, and probes whose
    demand is drawn, tiny (``lambda*t`` near 1e-12) or set within 1e-6
    (relative) of one cluster's summed headroom.  Every dropped cluster
    must be one where the unscreened scalar ``assign_distribute`` finds
    nothing, and the screened ``best_placement`` (uncached, then with a
    memo cache attached) must equal the scalar one field by field.
    """
    system = generate_system(
        num_clients=8,
        seed=seed,
        config=WorkloadConfig(
            num_clusters=num_clusters,
            servers_per_cluster=per_cluster,
            background_load_fraction=background,
        ),
    )
    vector = SolverConfig(min_share=min_share, stability_margin=stability_margin)
    scalar = dataclasses.replace(
        vector, use_vectorized_kernels=False, use_delta_scoring=False
    )
    rng = np.random.default_rng(seed)
    placed = {
        cid: kid
        for cid, kid in random_assignment(system, rng).items()
        if rng.random() < placed_share
    }
    state = build_allocation_for_assignment(system, placed, scalar)

    server_ids = [s.server_id for s in system.servers()]
    excluded = frozenset(data.draw(st.sets(st.sampled_from(server_ids))))
    kids = system.cluster_ids()
    candidates = data.draw(
        st.lists(st.sampled_from(kids), min_size=1, max_size=len(kids), unique=True)
    )
    template = system.client(data.draw(st.sampled_from(system.client_ids())))
    probe = dataclasses.replace(
        template,
        client_id=1_000_000,
        storage_req=0.0 if zero_storage else template.storage_req,
    )
    if demand == "tiny":
        probe = dataclasses.replace(probe, rate_predicted=1e-12 / probe.t_proc)
    elif demand == "boundary":
        target = data.draw(st.sampled_from(candidates))
        room_p, room_b = _headroom(
            state, state.cluster_server_ids[target], min_share, excluded
        )
        rate = min(
            room_p / (probe.t_proc * stability_margin),
            room_b / (probe.t_comm * stability_margin),
        ) * (1.0 + boundary_gap)
        probe = dataclasses.replace(probe, rate_predicted=max(rate, 1e-300))

    kept = _clusters_with_room(state, probe, vector, list(candidates), excluded)
    for kid in set(candidates) - set(kept):
        assert (
            assign_distribute(state, probe, kid, scalar, excluded_server_ids=excluded)
            is None
        ), kid

    reference = best_placement(
        state, probe, scalar, cluster_ids=candidates, excluded_server_ids=excluded
    )
    uncached = best_placement(
        state, probe, vector, cluster_ids=candidates, excluded_server_ids=excluded
    )
    assert _same_placement(uncached, reference)
    maybe_attach_cache(state, vector)
    cached = best_placement(
        state, probe, vector, cluster_ids=candidates, excluded_server_ids=excluded
    )
    assert _same_placement(cached, reference)


def _random_curves(data, num_servers, granularity):
    curves = []
    for _ in range(num_servers):
        points = [0.0]
        for _ in range(granularity):
            if data.draw(st.booleans()):
                points.append(
                    data.draw(st.floats(min_value=-10.0, max_value=10.0))
                )
            else:
                points.append(NEG_INF)
        curves.append(points)
    return curves


@settings(max_examples=120, deadline=None)
@given(
    data=st.data(),
    num_servers=st.integers(min_value=1, max_value=5),
    granularity=st.integers(min_value=1, max_value=8),
)
def test_array_dp_matches_scalar_dp(data, num_servers, granularity):
    """Same totals AND same unit vectors — the tie-breaks must agree too."""
    curves = _random_curves(data, num_servers, granularity)
    np_total, np_units = combine_server_curves(curves, granularity)
    py_total, py_units = combine_server_curves_scalar(curves, granularity)
    assert np_total == py_total or np_total == pytest.approx(py_total)
    assert np_units == py_units


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    num_servers=st.integers(min_value=1, max_value=4),
    granularity=st.integers(min_value=1, max_value=6),
)
def test_scalar_dp_matches_brute_force(data, num_servers, granularity):
    """The retained scalar oracle itself stays exact."""
    curves = _random_curves(data, num_servers, granularity)
    dp_total, dp_units = combine_server_curves_scalar(curves, granularity)
    bf_total, _ = brute_force_combination(curves, granularity)
    if bf_total == NEG_INF:
        assert dp_total == NEG_INF
    else:
        assert dp_total == pytest.approx(bf_total)
        assert sum(dp_units) == granularity


def test_dp_accepts_ndarray_rows():
    """The production path feeds ndarray rows straight into the DP."""
    curves = np.array([[0.0, -1.0, -2.0], [0.0, -0.5, NEG_INF]])
    total, units = combine_server_curves([curves[0], curves[1]], 2)
    ref_total, ref_units = combine_server_curves_scalar(
        [list(curves[0]), list(curves[1])], 2
    )
    assert total == ref_total and units == ref_units
