import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.dists import sample_dist
from fission_sim.drs import (
    DataItem,
    DrsRoundReport,
    DrsState,
    ProviderNode,
    RetrievalRequest,
    _check_loads,
    accounting,
    build_instance,
    drs_potential,
    drs_round,
    equilibrium_threshold,
    omega,
    scan_round,
    simulate_drs,
    underloaded_count,
)
from fission_sim.errors import InvariantViolation
from fission_sim.seeding import split
from reference import request_cost


def test_request_cost_examples():
    assert request_cost(80, 10, 10, 30) == 0  # fully servable: 80 <= 100
    assert request_cost(150, 10, 10, 30) == 30  # min(50, 30)
    assert request_cost(120, 10, 10, 30) == 20  # partial overflow


def add_request(state, requester, key, born=0.0):
    """A new unplaced request for ``key``, appended to the pool."""
    req = RetrievalRequest(len(state.requests), requester, key, state.items[key].size, born)
    state.requests.append(req)
    return req


def single_provider_state(capacity, deadline, weights):
    # one item per request so each request carries its own size
    providers = [ProviderNode(id=0, capacity=capacity)]
    state = DrsState(providers, [], deadline)
    for i, w in enumerate(weights):
        state.items.append(DataItem(key=i, size=w, providers=[0]))
        req = add_request(state, requester=100 + i, key=i)
        ref_move(state, req, 0)
    return state


def test_cost_potential_identity_on_random_queues():
    # brute-force queue walk: summed request costs equal the provider overflow
    rng = random.Random(3)
    for _ in range(200):
        capacity = rng.randint(1, 20)
        deadline = rng.randint(1, 10)
        weights = [rng.randint(1, 40) for _ in range(rng.randint(0, 12))]
        state = single_provider_state(capacity, deadline, weights)
        heights = state.heights()
        cost_sum = sum(
            request_cost(heights[r.rid], deadline, capacity, r.weight) for r in state.requests
        )
        overflow = drs_potential(state.providers, deadline)
        assert cost_sum == pytest.approx(overflow, abs=1e-9)


def test_potential_zero_when_underloaded():
    providers = [ProviderNode(0, 10, load=50), ProviderNode(1, 10, load=79)]
    assert drs_potential(providers, 8.0) == 0.0


def test_potential_direct_subtraction():
    providers = [ProviderNode(0, capacity=12.5, load=300)]
    assert drs_potential(providers, 8.0) == pytest.approx(200.0)


def test_bounded_jump_rule_examples():
    # h=150, remaining budget 100, w=30 -> eligible (50 >= 30)
    state = single_provider_state(capacity=10, deadline=10, weights=[120, 30])
    heights = state.heights()
    assert heights[1] == 150
    assert ref_eligible(state, state.requests[1], 0.0, heights)
    # h=120, w=30 -> cost 20 < 30, not eligible
    state2 = single_provider_state(capacity=10, deadline=10, weights=[90, 30])
    heights2 = state2.heights()
    assert heights2[1] == 120
    assert not ref_eligible(state2, state2.requests[1], 0.0, heights2)


def test_deadline_expiry_sends_request_to_relayer():
    # one overloaded provider, no alternatives: past the deadline the requests
    # that could not complete resolve through the relay network
    providers = [ProviderNode(0, capacity=1)]
    items = [DataItem(key=0, size=50, providers=[0]), DataItem(key=1, size=50, providers=[0])]
    state = DrsState(providers, items, deadline=4.0)
    r0 = add_request(state, 0, 0)
    r1 = add_request(state, 1, 1)
    ref_move(state, r0, 0)
    ref_move(state, r1, 0)
    rng = split(0, "deadline")
    report = drs_round(state, rng, t=5.0)
    assert r0.at_relayer and r1.at_relayer
    assert report.to_relayer == 2
    assert state.relayer_direct == 100
    # before the deadline neither leaves: r1 probes (no candidates), r0 partial
    state2 = DrsState([ProviderNode(0, capacity=1)], items, deadline=4.0)
    a = add_request(state2, 0, 0)
    b = add_request(state2, 1, 1)
    ref_move(state2, a, 0)
    ref_move(state2, b, 0)
    drs_round(state2, split(1, "deadline"), t=0.0)
    assert not a.at_relayer and not b.at_relayer


def test_migration_to_single_underloaded_provider_is_certain():
    providers = [ProviderNode(0, capacity=1), ProviderNode(1, capacity=100)]
    items = [DataItem(key=0, size=40, providers=[0, 1])]
    state = DrsState(providers, items, deadline=2.0)
    blocker = add_request(state, 9, 0)
    ref_move(state, blocker, 0)
    mover = add_request(state, 10, 0)
    ref_move(state, mover, 0)  # height 80 > 2*1, cost = 40 = w
    report = drs_round(state, split(1, "mig"), t=0.0)
    assert report.migrations >= 1
    assert mover.provider == 1


def test_empty_probe_set_request_stays():
    providers = [ProviderNode(0, capacity=1)]
    items = [DataItem(key=0, size=50, providers=[0])]
    state = DrsState(providers, items, deadline=2.0)
    a = add_request(state, 1, 0)
    b = add_request(state, 2, 0)
    ref_move(state, a, 0)
    ref_move(state, b, 0)
    report = drs_round(state, split(2, "stay"), t=0.0)
    assert report.migrations == 0
    assert b.provider == 0 and not b.at_relayer


def test_potential_never_increases_within_runs():
    for seed in range(8):
        run = simulate_drs(
            128, 16, "uniform:8:64", "uniform:2:16", 3, 8.0, seed, start="concentrated"
        )
        phis = [row.phi for row in run.rows]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:])), (seed, phis)


def test_omega_zero_cases():
    providers = [ProviderNode(0, capacity=100)]
    items = [DataItem(key=0, size=10, providers=[0])]
    state = DrsState(providers, items, deadline=8.0)
    req = add_request(state, 1, 0)
    ref_move(state, req, 0)
    assert drs_potential(state.providers, 8.0) == 0.0
    assert omega(state, 0.0) == 0.0  # equilibrium: everything servable

    # no underloaded providers over active keys -> omega 0 despite overflow
    jammed = DrsState([ProviderNode(0, capacity=1)], [DataItem(0, 50, [0])], deadline=2.0)
    r1 = add_request(jammed, 1, 0)
    r2 = add_request(jammed, 2, 0)
    ref_move(jammed, r1, 0)
    ref_move(jammed, r2, 0)
    assert drs_potential(jammed.providers, 2.0) > 0
    assert underloaded_count(jammed, 0.0) == 0
    assert omega(jammed, 0.0) == 0.0


def test_omega_contraction_from_concentrated_states():
    # mean omega after one round well below the 0.3 slack bound
    for seed in (21, 22):
        base = build_instance(128, 16, "fixed:64", "uniform:2:64", 3, 8.0, seed, start="concentrated")
        om0 = omega(base, 0.0)
        if om0 == 0:
            continue
        trials = 300
        total = 0.0
        for t in range(trials):
            state = build_instance(128, 16, "fixed:64", "uniform:2:64", 3, 8.0, seed, start="concentrated")
            drs_round(state, split(seed, "omega-mc", t), 0.0)
            total += omega(state, 0.0)
        assert total / trials <= 0.3 * om0, (seed, total / trials, om0)


def test_accounting_identity_exact():
    run = simulate_drs(256, 32, "fixed:64", "uniform:2:64", 3, 8.0, seed=4, start="concentrated")
    served, relayer, total = accounting(run.state)
    assert served + relayer == pytest.approx(total, abs=1e-9)
    assert run.rows[-1].relayer_kb == pytest.approx(relayer, abs=1e-9)


def test_unreplicated_key_goes_to_relayer():
    providers = [ProviderNode(0, capacity=10)]
    items = [DataItem(key=0, size=30, providers=[])]
    state = DrsState(providers, items, deadline=8.0)
    req = add_request(state, 5, 0)
    req.at_relayer = True  # P_k empty forces relayer fallback at birth
    state.relayer_direct += req.weight
    served, relayer, total = accounting(state)
    assert (served, relayer, total) == (0.0, 30.0, 30.0)


def test_probe_timeouts_only_delay_convergence():
    fast = simulate_drs(128, 16, "fixed:32", "uniform:2:32", 3, 8.0, seed=6, start="concentrated")
    slow = simulate_drs(
        128, 16, "fixed:32", "uniform:2:32", 3, 8.0, seed=6, start="concentrated", timeout_prob=0.8
    )
    assert fast.converged_round is not None and slow.converged_round is not None
    assert slow.converged_round >= fast.converged_round
    assert slow.rows[-1].phi == pytest.approx(fast.rows[-1].phi, rel=0.5)


def test_equilibrium_threshold_scale():
    state = build_instance(16, 4, "fixed:64", "fixed:8", 2, 8.0, seed=7)
    assert equilibrium_threshold(state) == 64.0


def test_fifo_heights_are_prefix_sums():
    state = single_provider_state(capacity=5, deadline=4, weights=[10, 20, 30])
    heights = state.heights()
    assert [heights[r.rid] for r in state.requests] == [10, 30, 60]


# --- per-request reference: the round, count and sums that scan_round,
# drs_round, underloaded_count, drs_potential and accounting replace. Each
# reads only state data, so a fault in the module cannot reach it.


def ref_heights(state):
    hs = {}
    for node in state.providers:
        acc = 0.0
        for rid in node.queue:
            acc += state.requests[rid].weight
            hs[rid] = acc
    return hs


def ref_eligible(state, req, t, heights):
    if req.at_relayer:
        return False
    if req.provider is None:
        return True
    node = state.providers[req.provider]
    d_rem = state.deadline - t + req.born
    return min(max(heights[req.rid] - d_rem * node.capacity, 0.0), req.weight) >= req.weight


def ref_move(state, req, target):
    if req.provider is not None:
        old = state.providers[req.provider]
        old.queue.remove(req.rid)
        old.load -= req.weight
        req.provider = None
    if target is not None:
        new = state.providers[target]
        new.queue.append(req.rid)
        new.load += req.weight
        req.provider = target


def ref_drs_round(state, rng, t, timeout_prob=0.0):
    heights = ref_heights(state)
    snapshot_loads = [p.load for p in state.providers]
    report = DrsRoundReport()
    for req in state.requests:
        if req.at_relayer:
            continue
        if not ref_eligible(state, req, t, heights):
            continue
        d_rem = state.deadline - t + req.born
        if t > req.born + state.deadline:
            ref_move(state, req, None)
            req.at_relayer = True
            state.relayer_direct += req.weight
            report.to_relayer += 1
            continue
        candidates = [
            i
            for i in state.items[req.key].providers
            if snapshot_loads[i] < d_rem * state.providers[i].capacity
        ]
        if not candidates:
            continue
        target = candidates[rng.randrange(len(candidates))]
        report.probes += 1
        if timeout_prob > 0 and rng.random() < timeout_prob:
            continue
        if snapshot_loads[target] <= d_rem * state.providers[target].capacity:
            ref_move(state, req, target)
            report.migrations += 1
    return report


def ref_underloaded_count(state, t):
    heights = ref_heights(state)
    providers = set()
    for req in state.requests:
        if not ref_eligible(state, req, t, heights):
            continue
        d_rem = state.deadline - t + req.born
        providers.update(
            i
            for i in state.items[req.key].providers
            if state.providers[i].load < d_rem * state.providers[i].capacity
        )
    return len(providers)


def ref_potential(providers, deadline):
    return sum(max(p.load - deadline * p.capacity, 0.0) for p in providers)


def ref_accounting(state):
    served = sum(min(p.load, state.deadline * p.capacity) for p in state.providers)
    unplaced = sum(r.weight for r in state.requests if r.provider is None and not r.at_relayer)
    relayer = ref_potential(state.providers, state.deadline) + state.relayer_direct + unplaced
    return served, relayer, sum(r.weight for r in state.requests)


def ref_build_instance(n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed,
                       requests_per_node, start):
    rng = split(seed, "drs-setup")
    providers = [
        ProviderNode(id=i, capacity=sample_dist(cap_dist, rng, integer=True, minimum=1))
        for i in range(n_nodes)
    ]
    items = []
    for k in range(n_keys):
        holders = rng.sample(range(n_nodes), min(replication, n_nodes))
        items.append(
            DataItem(k, sample_dist(size_dist, rng, integer=True, minimum=1), holders)
        )
    state = DrsState(providers, items, deadline)
    for node in range(n_nodes):
        for _ in range(requests_per_node):
            add_request(state, node, rng.randrange(n_keys))
    place_rng = split(seed, "drs-place")
    for req in state.requests:
        holders = state.items[req.key].providers
        if not holders:
            req.at_relayer = True
            state.relayer_direct += req.weight
            continue
        if start == "concentrated":
            ref_move(state, req, holders[0])
            continue
        open_now = [
            i for i in holders if state.providers[i].load < deadline * state.providers[i].capacity
        ]
        pool = open_now if open_now else holders
        ref_move(state, req, pool[place_rng.randrange(len(pool))])
    return state


def state_view(state):
    """Everything a round can change, floats as repr so -0.0 and ulps count."""
    return (
        [(p.id, repr(p.capacity), list(p.queue), repr(p.load)) for p in state.providers],
        [
            (r.rid, r.requester, r.key, repr(r.weight), repr(r.born), r.provider, r.at_relayer)
            for r in state.requests
        ],
        repr(state.relayer_direct),
    )


def sums_view(state):
    return repr(drs_potential(state.providers, state.deadline)), repr(accounting(state))


def ref_sums_view(state):
    return repr(ref_potential(state.providers, state.deadline)), repr(ref_accounting(state))


amounts = st.integers(1, 40) | st.floats(0.25, 40.0)
sizes = amounts | st.sampled_from([0, 0.0])


@st.composite
def drs_specs(draw):
    """A small instance as plain data: float or integer capacities and sizes,
    zero sizes, keys without holders, several requests per requester, mixed birth times,
    and requests queued, unplaced or already at the relayer."""
    n = draw(st.integers(1, 6))
    caps = [draw(amounts) for _ in range(n)]
    n_keys = draw(st.integers(1, 5))
    items = [
        (draw(sizes), draw(st.lists(st.integers(0, n - 1), unique=True, max_size=min(n, 4))))
        for _ in range(n_keys)
    ]
    deadline = draw(st.sampled_from([1.0, 2.5, 8.0]) | st.floats(0.5, 10.0))
    requests = []
    for _ in range(draw(st.integers(0, 24))):
        key = draw(st.integers(0, n_keys - 1))
        born = draw(st.sampled_from([0.0, 0.5, -1.0, 2.0]) | st.floats(-3.0, 3.0))
        holders = items[key][1]
        where = draw(st.sampled_from(["queued", "queued", "unplaced", "relayer"]))
        if where == "queued":
            where = draw(st.sampled_from(holders)) if holders else "unplaced"
        requests.append((draw(st.integers(0, 5)), key, born, where))
    return caps, items, deadline, requests


def make_state(spec):
    caps, items, deadline, requests = spec
    state = DrsState(
        [ProviderNode(i, c) for i, c in enumerate(caps)],
        [DataItem(k, size, list(holders)) for k, (size, holders) in enumerate(items)],
        deadline,
    )
    for requester, key, born, where in requests:
        req = add_request(state, requester, key, born)
        if where == "relayer":
            req.at_relayer = True
            state.relayer_direct += req.weight
        elif where != "unplaced":
            ref_move(state, req, where)
    return state


def assert_rounds_match(state, ref, seed, times, timeout_prob, share_scan):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert sums_view(state) == ref_sums_view(ref)
    for t in times:
        scan = scan_round(state, t) if share_scan else None
        assert underloaded_count(state, t, scan) == ref_underloaded_count(ref, t)
        report = drs_round(state, rng, t, timeout_prob=timeout_prob, scan=scan)
        assert report == ref_drs_round(ref, ref_rng, t, timeout_prob=timeout_prob)
        assert state_view(state) == state_view(ref)
        assert sums_view(state) == ref_sums_view(ref)
        assert underloaded_count(state, t) == ref_underloaded_count(ref, t)
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    spec=drs_specs(),
    seed=st.integers(0, 2**64),
    times=st.lists(st.sampled_from([0.0, 0.75, 3.0, 12.0]) | st.floats(0.0, 15.0),
                   min_size=1, max_size=3),
    timeout_prob=st.sampled_from([0.0, 0.0, 0.3, 0.9]),
    share_scan=st.booleans(),
)
def test_round_matches_per_request_reference(spec, seed, times, timeout_prob, share_scan):
    state, ref = make_state(spec), make_state(spec)
    assert state_view(state) == state_view(ref)
    assert_rounds_match(state, ref, seed, times, timeout_prob, share_scan)


DIST_SPECS = ["fixed:64", "fixed:0.4", "uniform:2:64", "uniform:0.2:3.7", "pareto:1.3"]


@settings(max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(1, 24),
    n_keys=st.integers(1, 6),
    size_dist=st.sampled_from(DIST_SPECS),
    cap_dist=st.sampled_from(DIST_SPECS),
    replication=st.integers(0, 5),
    deadline=st.sampled_from([2.0, 7.3]),
    seed=st.integers(0, 2**32),
    requests_per_node=st.integers(1, 3),
    start=st.sampled_from(["uniform", "concentrated"]),
    timeout_prob=st.sampled_from([0.0, 0.3]),
)
def test_build_and_rounds_match_reference(
    n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed, requests_per_node, start,
    timeout_prob,
):
    args = (n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed)
    state = build_instance(*args, requests_per_node=requests_per_node, start=start)
    ref = ref_build_instance(*args, requests_per_node, start)
    assert state_view(state) == state_view(ref)
    assert [(i.key, repr(i.size), i.providers) for i in state.items] == [
        (i.key, repr(i.size), i.providers) for i in ref.items
    ]
    assert_rounds_match(state, ref, seed, [0.0, 0.0, 1.5], timeout_prob, share_scan=True)


def test_build_instance_rejects_keyless_requests():
    with pytest.raises(ValueError):
        build_instance(4, 0, "fixed:8", "fixed:2", 1, 8.0, seed=1)


def test_load_check_fails_when_a_load_drifts_from_its_queue():
    state = build_instance(64, 8, "fixed:64", "uniform:2:64", 3, 8.0, 1, start="concentrated")
    drs_round(state, random.Random(1), 0.0)
    _check_loads(state)
    state.providers[state.requests[0].provider].load += 1.0
    with pytest.raises(InvariantViolation) as err:
        _check_loads(state)
    assert err.value.invariant == "load-sum"
