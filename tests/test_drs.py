import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fission_sim import drs
from fission_sim.dists import sample_dist
from fission_sim.drs import (
    DrsRoundReport,
    DrsState,
    build_instance,
    drs_potential,
    drs_round,
    equilibrium_threshold,
    scan_round,
    simulate_drs,
    underloaded_count,
)
from fission_sim.errors import InvariantViolation, ValidationError
from fission_sim.seeding import split
from reference import accounting, omega, request_cost, simulate_drs_with_expiry


def test_request_cost_examples():
    assert request_cost(80, 10, 10, 30) == 0  # fully servable: 80 <= 100
    assert request_cost(150, 10, 10, 30) == 30  # min(50, 30)
    assert request_cost(120, 10, 10, 30) == 20  # partial overflow


def add_request(state, key, born=0.0):
    """A new unplaced request for ``key``, appended to the columns; returns its id."""
    requests = state.requests
    requests.key.append(key)
    requests.weight.append(state.size[key])
    requests.born.append(born)
    requests.provider.append(None)
    requests.at_relayer.append(False)
    return len(requests) - 1


def single_provider_state(capacity, deadline, weights):
    # one item per request so each request carries its own size
    state = DrsState([capacity], list(weights), [[0] for _ in weights], deadline)
    for key in range(len(weights)):
        ref_move(state, add_request(state, key), 0)
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
            request_cost(heights[rid], deadline, capacity, w)
            for rid, w in enumerate(state.requests.weight)
        )
        overflow = drs_potential(state)
        assert cost_sum == pytest.approx(overflow, abs=1e-9)


def test_potential_zero_when_underloaded():
    state = DrsState([10, 10], [50, 79], [[0], [1]], 8.0)
    for key in (0, 1):
        ref_move(state, add_request(state, key), key)
    assert drs_potential(state) == 0.0


def test_potential_direct_subtraction():
    state = DrsState([12.5], [300], [[0]], 8.0)
    ref_move(state, add_request(state, 0), 0)
    assert drs_potential(state) == pytest.approx(200.0)


def test_bounded_jump_rule_examples():
    # h=150, remaining budget 100, w=30 -> eligible (50 >= 30)
    state = single_provider_state(capacity=10, deadline=10, weights=[120, 30])
    heights = state.heights()
    assert heights[1] == 150
    assert ref_eligible(state, 1, 0.0, heights)
    # h=120, w=30 -> cost 20 < 30, not eligible
    state2 = single_provider_state(capacity=10, deadline=10, weights=[90, 30])
    heights2 = state2.heights()
    assert heights2[1] == 120
    assert not ref_eligible(state2, 1, 0.0, heights2)


def test_deadline_expiry_sends_request_to_relayer():
    # one overloaded provider, no alternatives: past the deadline the requests
    # that could not complete resolve through the relay network
    state = DrsState([1], [50, 50], [[0], [0]], deadline=4.0)
    r0 = add_request(state, 0)
    r1 = add_request(state, 1)
    ref_move(state, r0, 0)
    ref_move(state, r1, 0)
    rng = split(0, "deadline")
    report = drs_round(state, rng, scan_round(state, 5.0))
    assert state.requests.at_relayer[r0] and state.requests.at_relayer[r1]
    assert report.to_relayer == 2
    assert state.queue == [[]] and scan_round(state, 5.0).direct_kb == 100
    # before the deadline neither leaves: r1 probes (no candidates), r0 partial
    state2 = DrsState([1], [50, 50], [[0], [0]], deadline=4.0)
    a = add_request(state2, 0)
    b = add_request(state2, 1)
    ref_move(state2, a, 0)
    ref_move(state2, b, 0)
    drs_round(state2, split(1, "deadline"), scan_round(state2, 0.0))
    assert not state2.requests.at_relayer[a] and not state2.requests.at_relayer[b]


def test_migration_to_single_underloaded_provider_is_certain():
    state = DrsState([1, 100], [40], [[0, 1]], deadline=2.0)
    blocker = add_request(state, 0)
    ref_move(state, blocker, 0)
    mover = add_request(state, 0)
    ref_move(state, mover, 0)  # height 80 > 2*1, cost = 40 = w
    report = drs_round(state, split(1, "mig"), scan_round(state, 0.0))
    assert report.migrations >= 1
    assert state.requests.provider[mover] == 1


def test_empty_probe_set_request_stays():
    state = DrsState([1], [50], [[0]], deadline=2.0)
    a = add_request(state, 0)
    b = add_request(state, 0)
    ref_move(state, a, 0)
    ref_move(state, b, 0)
    report = drs_round(state, split(2, "stay"), scan_round(state, 0.0))
    assert report.migrations == 0
    assert state.requests.provider[b] == 0 and not state.requests.at_relayer[b]


def test_potential_never_increases_within_runs():
    for seed in range(8):
        run = simulate_drs(
            128, 16, "uniform:8:64", "uniform:2:16", 3, 8.0, seed, start="concentrated"
        )
        phis = [row.phi for row in run.rows]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:])), (seed, phis)


def test_omega_zero_cases():
    state = DrsState([100], [10], [[0]], deadline=8.0)
    ref_move(state, add_request(state, 0), 0)
    assert drs_potential(state) == 0.0
    assert omega(state, 0.0) == 0.0  # equilibrium: everything servable

    # no underloaded providers over active keys -> omega 0 despite overflow
    jammed = DrsState([1], [50], [[0]], deadline=2.0)
    ref_move(jammed, add_request(jammed, 0), 0)
    ref_move(jammed, add_request(jammed, 0), 0)
    assert drs_potential(jammed) > 0
    assert underloaded_count(scan_round(jammed, 0.0)) == 0
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
            drs_round(state, split(seed, "omega-mc", t), scan_round(state, 0.0))
            total += omega(state, 0.0)
        assert total / trials <= 0.3 * om0, (seed, total / trials, om0)


def test_accounting_identity_exact():
    run = simulate_drs(256, 32, "fixed:64", "uniform:2:64", 3, 8.0, seed=4, start="concentrated")
    served, relayer, total = accounting(run.state)
    assert served + relayer == pytest.approx(total, abs=1e-9)
    assert run.rows[-1].relayer_kb == pytest.approx(relayer, abs=1e-9)


def test_unreplicated_key_goes_to_relayer():
    state = DrsState([10], [30], [[]], deadline=8.0)
    rid = add_request(state, 0)
    state.requests.at_relayer[rid] = True  # P_k empty forces relayer fallback at birth
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
    state = build_instance(16, 4, "fixed:64", "fixed:8", 2, 8.0, seed=7, start="uniform")
    assert equilibrium_threshold(sum(state.requests.weight), len(state.requests)) == 64.0


def test_fifo_heights_are_prefix_sums():
    state = single_provider_state(capacity=5, deadline=4, weights=[10, 20, 30])
    heights = state.heights()
    assert [heights[rid] for rid in range(len(state.requests))] == [10, 30, 60]


# --- per-provider and per-request reference: the round, count and sums that
# scan_round, drs_round, underloaded_count and drs_potential replace. Each
# reads only state columns, so a fault in the module cannot reach it.


def ref_heights(state):
    hs = {}
    for queue in state.queue:
        acc = 0
        for rid in queue:
            acc += state.requests.weight[rid]
            hs[rid] = acc
    return hs


def ref_loads(state):
    return [sum(state.requests.weight[rid] for rid in queue) for queue in state.queue]


def ref_eligible(state, rid, t, heights):
    requests = state.requests
    if requests.at_relayer[rid]:
        return False
    provider = requests.provider[rid]
    if provider is None:
        return True
    d_rem = state.deadline - t + requests.born[rid]
    weight = requests.weight[rid]
    return min(max(heights[rid] - d_rem * state.capacity[provider], 0.0), weight) >= weight


def ref_move(state, rid, target):
    requests = state.requests
    old = requests.provider[rid]
    if old is not None:
        state.queue[old].remove(rid)
        requests.provider[rid] = None
    if target is not None:
        state.queue[target].append(rid)
        requests.provider[rid] = target


def ref_probe_set(state, key, d_rem, loads=None):
    """The holders of ``key`` whose load (``loads``, else the current one)
    is under the remaining time budget."""
    loads = ref_loads(state) if loads is None else loads
    return [i for i in state.holders[key] if loads[i] < d_rem * state.capacity[i]]


def ref_hunting(state, t):
    heights = ref_heights(state)
    return [rid for rid in range(len(state.requests)) if ref_eligible(state, rid, t, heights)]


def ref_drs_round(state, rng, t, timeout_prob=0.0):
    snapshot_loads = ref_loads(state)
    requests = state.requests
    report = DrsRoundReport()
    for rid in ref_hunting(state, t):
        born = requests.born[rid]
        d_rem = state.deadline - t + born
        if t > born + state.deadline:
            ref_move(state, rid, None)
            requests.at_relayer[rid] = True
            report.to_relayer += 1
            continue
        candidates = ref_probe_set(state, requests.key[rid], d_rem, snapshot_loads)
        if not candidates:
            continue
        target = candidates[rng.randrange(len(candidates))]
        report.probes += 1
        if timeout_prob > 0 and rng.random() < timeout_prob:
            continue
        if snapshot_loads[target] <= d_rem * state.capacity[target]:
            ref_move(state, rid, target)
            report.migrations += 1
    return report


def ref_underloaded_count(state, t):
    requests = state.requests
    providers = set()
    for rid in ref_hunting(state, t):
        d_rem = state.deadline - t + requests.born[rid]
        providers.update(ref_probe_set(state, requests.key[rid], d_rem))
    return len(providers)


def ref_potential(state):
    return sum(
        max(load - state.deadline * c, 0.0) for load, c in zip(ref_loads(state), state.capacity)
    )


def ref_direct_kb(state):
    requests = state.requests
    return sum(requests.weight[rid] for rid in range(len(requests)) if requests.at_relayer[rid])


def ref_unplaced_kb(state):
    requests = state.requests
    return sum(
        requests.weight[rid]
        for rid in range(len(requests))
        if requests.provider[rid] is None and not requests.at_relayer[rid]
    )


def ref_accounting(state):
    served = sum(min(load, state.deadline * c) for load, c in zip(ref_loads(state), state.capacity))
    relayer = ref_potential(state) + ref_direct_kb(state) + ref_unplaced_kb(state)
    return served, relayer, sum(w for w in state.requests.weight)


def ref_build_instance(n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed,
                       requests_per_node, start):
    rng = split(seed, "drs-setup")
    capacity = [sample_dist(cap_dist, rng, integer=True, minimum=1) for _ in range(n_nodes)]
    size, holders = [], []
    for _ in range(n_keys):
        holders.append(rng.sample(range(n_nodes), min(replication, n_nodes)))
        size.append(sample_dist(size_dist, rng, integer=True, minimum=1))
    state = DrsState(capacity, size, holders, deadline)
    for _node in range(n_nodes):
        for _ in range(requests_per_node):
            add_request(state, rng.randrange(n_keys))
    place_rng = split(seed, "drs-place")
    requests = state.requests
    for rid in range(len(requests)):
        pool = state.holders[requests.key[rid]]
        if not pool:
            requests.at_relayer[rid] = True
            continue
        if start == "concentrated":
            ref_move(state, rid, pool[0])
            continue
        pool = ref_probe_set(state, requests.key[rid], deadline) or pool
        ref_move(state, rid, pool[place_rng.randrange(len(pool))])
    return state


def state_view(state):
    """Every column a round can change, floats as repr so -0.0 and ulps count."""
    requests = state.requests
    return {
        "capacity": [repr(c) for c in state.capacity],
        "queue": [list(queue) for queue in state.queue],
        "key": list(requests.key),
        "weight": [repr(w) for w in requests.weight],
        "born": [repr(b) for b in requests.born],
        "provider": list(requests.provider),
        "at_relayer": list(requests.at_relayer),
    }


def sums_view(state):
    return repr(drs_potential(state)), repr(accounting(state))


def ref_sums_view(state):
    return repr(ref_potential(state)), repr(ref_accounting(state))


amounts = st.integers(1, 40) | st.floats(0.25, 40.0)
sizes = st.integers(1, 40) | st.just(0)
times = st.sampled_from([0.0, 0.75, 3.0, 12.0]) | st.floats(0.0, 15.0)


@st.composite
def drs_specs(draw):
    """A small instance as plain data: float or integer capacities, integer
    sizes (zero included), keys without holders, several requests for one
    key, mixed birth times, and requests queued, unplaced or already at the
    relayer."""
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
        requests.append((key, born, where))
    return caps, items, deadline, requests


def make_state(spec):
    caps, items, deadline, requests = spec
    state = DrsState(
        list(caps), [size for size, _ in items], [list(holders) for _, holders in items], deadline
    )
    for key, born, where in requests:
        rid = add_request(state, key, born)
        if where == "relayer":
            state.requests.at_relayer[rid] = True
        elif where != "unplaced":
            ref_move(state, rid, where)
    return state


def assert_rounds_match(state, ref, seed, times, timeout_prob):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert sums_view(state) == ref_sums_view(ref)
    for t in times:
        scan = scan_round(state, t)
        assert underloaded_count(scan) == ref_underloaded_count(ref, t)
        report = drs_round(state, rng, scan, timeout_prob=timeout_prob)
        assert report == ref_drs_round(ref, ref_rng, t, timeout_prob=timeout_prob)
        assert state_view(state) == state_view(ref)
        assert sums_view(state) == ref_sums_view(ref)
        assert underloaded_count(scan_round(state, t)) == ref_underloaded_count(ref, t)
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    spec=drs_specs(),
    seed=st.integers(0, 2**64),
    times=st.lists(times, min_size=1, max_size=3),
    timeout_prob=st.sampled_from([0.0, 0.0, 0.3, 0.9]),
)
def test_round_matches_per_request_reference(spec, seed, times, timeout_prob):
    state, ref = make_state(spec), make_state(spec)
    assert state_view(state) == state_view(ref)
    assert_rounds_match(state, ref, seed, times, timeout_prob)


@settings(max_examples=200, deadline=None)
@given(spec=drs_specs(), t=times)
def test_scan_matches_per_provider_and_per_request_reference(spec, t):
    state = make_state(spec)
    scan = scan_round(state, t)
    assert repr(scan.phi) == repr(ref_potential(state))
    assert scan.queued_kb == sum(ref_loads(state))
    assert (scan.direct_kb, scan.unplaced_kb) == (ref_direct_kb(state), ref_unplaced_kb(state))
    requests = state.requests
    hunting = ref_hunting(state, t)
    d_rem = {rid: state.deadline - t + requests.born[rid] for rid in hunting}
    assert set(scan.probe_sets) == {(requests.key[rid], d_rem[rid]) for rid in hunting}
    for (key, rem), probes in scan.probe_sets.items():
        assert probes == ref_probe_set(state, key, rem)
    assert scan.acting == [
        rid for rid in hunting
        if ref_probe_set(state, requests.key[rid], d_rem[rid]) or t > requests.born[rid] + state.deadline
    ]


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
    assert [repr(size) for size in state.size] == [repr(size) for size in ref.size]
    assert state.holders == ref.holders
    assert_rounds_match(state, ref, seed, [0.0, 0.0, 1.5], timeout_prob)


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(1, 24),
    n_keys=st.integers(1, 6),
    size_dist=st.sampled_from(DIST_SPECS),
    cap_dist=st.sampled_from(DIST_SPECS),
    replication=st.integers(0, 4),
    seed=st.integers(0, 2**32),
    start=st.sampled_from(["uniform", "concentrated"]),
    timeout_prob=st.sampled_from([0.0, 0.3]),
    round_duration=st.sampled_from([0.0, 2.5]),
)
# few generated runs last to round 4, past the deadline; this one does, and
# every request in it expires to the relay network
@example(
    n_nodes=9, n_keys=6, size_dist="fixed:64", cap_dist="uniform:0.2:3.7", replication=4,
    seed=19154, start="concentrated", timeout_prob=0.3, round_duration=2.5,
)
def test_runs_conserve_bytes_exactly(
    n_nodes, n_keys, size_dist, cap_dist, replication, seed, start, timeout_prob, round_duration
):
    args = (n_nodes, n_keys, size_dist, cap_dist, replication, 7.3, seed)
    if round_duration:
        run = simulate_drs_with_expiry(
            *args, start=start, timeout_prob=timeout_prob, round_duration=round_duration
        )
    else:
        run = simulate_drs(*args, start=start, timeout_prob=timeout_prob)
    state = run.state
    assert run.rows[-1].relayer_kb == accounting(state)[1]
    assert not [rid for queue in state.queue for rid in queue if state.requests.at_relayer[rid]]


def test_build_instance_rejects_keyless_requests():
    with pytest.raises(ValueError):
        build_instance(4, 0, "fixed:8", "fixed:2", 1, 8.0, seed=1, start="uniform")


def test_build_instance_keeps_every_byte_count_below_2_53():
    # 2^53 - 1 is the largest count whose float sums stay exact
    top = 2**53 - 1
    state = build_instance(1, 1, f"fixed:{top}", f"fixed:{top}", 1, 8.0, seed=1, start="uniform")
    assert state.size == [top] and state.capacity == [top] and sum(state.requests.weight) == top
    for n_nodes, size, capacity, key in (
        (1, top + 1, top, "drs.size_dist"),
        (1, top, top + 1, "drs.cap_dist"),
        (2, top, top, "drs.size_dist"),  # two requests of one key: the total reaches 2^53
    ):
        with pytest.raises(ValidationError) as err:
            build_instance(n_nodes, 1, f"fixed:{size}", f"fixed:{capacity}", 1, 8.0, seed=1, start="uniform")
        assert err.value.field == key


def pile_onto_smallest(state):
    """Move every queued request onto the provider of least capacity."""
    target = min(range(len(state.capacity)), key=state.capacity.__getitem__)
    for queue in state.queue:
        for rid in list(queue):
            ref_move(state, rid, target)


def lose_a_request(state):
    """Take request 0 out of its queue while its provider column still names
    it: its bytes are then neither queued, unplaced nor at the relayer."""
    state.queue[state.requests.provider[0]].remove(0)


@pytest.mark.parametrize(
    "breakage, invariant",
    [(pile_onto_smallest, "monotone-potential"), (lose_a_request, "primal-dual-identity")],
    ids=["monotone-potential", "primal-dual-identity"],
)
def test_each_invariant_fires_from_simulate_drs(monkeypatch, breakage, invariant):
    real_round = drs.drs_round

    def round_then_break(state, *args, **kwargs):
        report = real_round(state, *args, **kwargs)
        breakage(state)
        return report

    args = (64, 8, "fixed:64", "uniform:2:64", 3, 8.0, 1)
    assert len(simulate_drs(*args, start="concentrated").rows) > 1
    monkeypatch.setattr(drs, "drs_round", round_then_break)
    with pytest.raises(InvariantViolation) as err:
        simulate_drs(*args, start="concentrated")
    assert err.value.invariant == invariant


@pytest.mark.parametrize(
    "breakage, invariant",
    [(lose_a_request, "primal-dual-identity")],
    ids=["primal-dual-identity"],
)
def test_invariants_are_checked_before_round_1(monkeypatch, breakage, invariant):
    real_build = drs.build_instance

    def build_then_break(*args, **kwargs):
        state = real_build(*args, **kwargs)
        breakage(state)
        return state

    def no_round(*args, **kwargs):
        raise AssertionError("a round ran on a broken initial state")

    monkeypatch.setattr(drs, "build_instance", build_then_break)
    monkeypatch.setattr(drs, "drs_round", no_round)
    with pytest.raises(InvariantViolation) as err:
        simulate_drs(64, 8, "fixed:64", "uniform:2:64", 3, 8.0, 1, start="concentrated")
    assert err.value.invariant == invariant


def test_trace_row_counts_unplaced_bytes_as_relayer_bound():
    state = DrsState([10], [30, 20], [[0], [0]], deadline=8.0)
    ref_move(state, add_request(state, 0), 0)  # 30 of the 80 KB budget
    add_request(state, 1)  # never placed
    scan = scan_round(state, 0.0)
    row = drs._trace_row(0, scan)
    assert (scan.queued_kb, scan.direct_kb, scan.unplaced_kb, row.relayer_kb) == (30, 0, 20, 20.0)
    drs._check_identity(scan, 50)
