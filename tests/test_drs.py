import random

import pytest
from hypothesis import given, settings
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
from reference import accounting, omega, request_cost


def test_request_cost_examples():
    assert request_cost(80, 10, 10, 30) == 0  # fully servable: 80 <= 100
    assert request_cost(150, 10, 10, 30) == 30  # min(50, 30)
    assert request_cost(120, 10, 10, 30) == 20  # partial overflow


def add_request(state, key, provider):
    """A new request for ``key``, appended to the columns and queued last at
    ``provider``; returns its id."""
    requests = state.requests
    rid = len(requests)
    requests.key.append(key)
    requests.weight.append(state.size[key])
    requests.provider.append(provider)
    state.queue[provider].append(rid)
    return rid


def single_provider_state(capacity, deadline, weights):
    # one item per request so each request carries its own size
    state = DrsState([capacity], list(weights), [[0] for _ in weights], deadline)
    for key in range(len(weights)):
        add_request(state, key, 0)
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
        add_request(state, key, key)
    assert drs_potential(state) == 0.0


def test_potential_direct_subtraction():
    state = DrsState([12.5], [300], [[0]], 8.0)
    add_request(state, 0, 0)
    assert drs_potential(state) == pytest.approx(200.0)


def test_bounded_jump_rule_examples():
    # h=150, budget 100, w=30 -> eligible (50 >= 30)
    state = single_provider_state(capacity=10, deadline=10, weights=[120, 30])
    heights = state.heights()
    assert heights[1] == 150
    assert ref_eligible(state, 1, heights)
    # h=120, w=30 -> cost 20 < 30, not eligible
    state2 = single_provider_state(capacity=10, deadline=10, weights=[90, 30])
    heights2 = state2.heights()
    assert heights2[1] == 120
    assert not ref_eligible(state2, 1, heights2)


def test_migration_to_single_underloaded_provider_is_certain():
    state = DrsState([1, 100], [40], [[0, 1]], deadline=2.0)
    add_request(state, 0, 0)
    mover = add_request(state, 0, 0)  # height 80 > 2*1, cost = 40 = w
    report = drs_round(state, split(1, "mig"), scan_round(state))
    assert report.migrations >= 1
    assert state.requests.provider[mover] == 1


def test_empty_probe_set_request_stays():
    state = DrsState([1], [50], [[0]], deadline=2.0)
    add_request(state, 0, 0)
    b = add_request(state, 0, 0)
    report = drs_round(state, split(2, "stay"), scan_round(state))
    assert report.migrations == 0
    assert state.requests.provider[b] == 0 and state.queue == [[0, b]]


def test_potential_never_increases_within_runs():
    for seed in range(8):
        run = simulate_drs(
            128, 16, "uniform:8:64", "uniform:2:16", 3, 8.0, seed, start="concentrated"
        )
        phis = [row.phi for row in run.rows]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:])), (seed, phis)


def test_omega_zero_cases():
    state = DrsState([100], [10], [[0]], deadline=8.0)
    add_request(state, 0, 0)
    assert drs_potential(state) == 0.0
    assert omega(state) == 0.0  # equilibrium: everything servable

    # no underloaded providers over active keys -> omega 0 despite overflow
    jammed = DrsState([1], [50], [[0]], deadline=2.0)
    add_request(jammed, 0, 0)
    add_request(jammed, 0, 0)
    assert drs_potential(jammed) > 0
    assert underloaded_count(scan_round(jammed)) == 0
    assert omega(jammed) == 0.0


def test_omega_contraction_from_concentrated_states():
    # mean omega after one round well below the 0.3 slack bound
    for seed in (21, 22):
        base = build_instance(128, 16, "fixed:64", "uniform:2:64", 3, 8.0, seed, start="concentrated")
        om0 = omega(base)
        if om0 == 0:
            continue
        trials = 300
        total = 0.0
        for t in range(trials):
            state = build_instance(128, 16, "fixed:64", "uniform:2:64", 3, 8.0, seed, start="concentrated")
            drs_round(state, split(seed, "omega-mc", t), scan_round(state))
            total += omega(state)
        assert total / trials <= 0.3 * om0, (seed, total / trials, om0)


def test_accounting_identity_exact():
    run = simulate_drs(256, 32, "fixed:64", "uniform:2:64", 3, 8.0, seed=4, start="concentrated")
    served, relayer, total = accounting(run.state)
    assert served + relayer == pytest.approx(total, abs=1e-9)
    assert run.rows[-1].relayer_kb == pytest.approx(relayer, abs=1e-9)


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


def ref_eligible(state, rid, heights):
    requests = state.requests
    budget = state.deadline * state.capacity[requests.provider[rid]]
    weight = requests.weight[rid]
    return min(max(heights[rid] - budget, 0.0), weight) >= weight


def ref_move(state, rid, target):
    requests = state.requests
    state.queue[requests.provider[rid]].remove(rid)
    state.queue[target].append(rid)
    requests.provider[rid] = target


def ref_probe_set(state, key, loads=None):
    """The holders of ``key`` whose load (``loads``, else the current one)
    is under the budget."""
    loads = ref_loads(state) if loads is None else loads
    return [i for i in state.holders[key] if loads[i] < state.deadline * state.capacity[i]]


def ref_hunting(state):
    heights = ref_heights(state)
    return [rid for rid in range(len(state.requests)) if ref_eligible(state, rid, heights)]


def ref_drs_round(state, rng):
    snapshot_loads = ref_loads(state)
    requests = state.requests
    report = DrsRoundReport()
    for rid in ref_hunting(state):
        candidates = ref_probe_set(state, requests.key[rid], snapshot_loads)
        if not candidates:
            continue
        target = candidates[rng.randrange(len(candidates))]
        report.probes += 1
        if snapshot_loads[target] <= state.deadline * state.capacity[target]:
            ref_move(state, rid, target)
            report.migrations += 1
    return report


def ref_underloaded_count(state):
    requests = state.requests
    providers = set()
    for rid in ref_hunting(state):
        providers.update(ref_probe_set(state, requests.key[rid]))
    return len(providers)


def ref_potential(state):
    return sum(
        max(load - state.deadline * c, 0.0) for load, c in zip(ref_loads(state), state.capacity)
    )


def ref_accounting(state):
    served = sum(min(load, state.deadline * c) for load, c in zip(ref_loads(state), state.capacity))
    return served, ref_potential(state), sum(w for w in state.requests.weight)


def ref_build_instance(n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed, start):
    rng = split(seed, "drs-setup")
    capacity = [sample_dist(cap_dist, rng, integer=True, minimum=1) for _ in range(n_nodes)]
    size, holders = [], []
    for _ in range(n_keys):
        holders.append(rng.sample(range(n_nodes), min(replication, n_nodes)))
        size.append(sample_dist(size_dist, rng, integer=True, minimum=1))
    state = DrsState(capacity, size, holders, deadline)
    keys = [rng.randrange(n_keys) for _node in range(n_nodes)]
    place_rng = split(seed, "drs-place")
    for key in keys:
        pool = state.holders[key]
        if start == "concentrated":
            add_request(state, key, pool[0])
        else:
            pool = ref_probe_set(state, key) or pool
            add_request(state, key, pool[place_rng.randrange(len(pool))])
    return state


def state_view(state):
    """Every column a round can change, floats as repr so -0.0 and ulps count."""
    requests = state.requests
    return {
        "capacity": [repr(c) for c in state.capacity],
        "queue": [list(queue) for queue in state.queue],
        "key": list(requests.key),
        "weight": [repr(w) for w in requests.weight],
        "provider": list(requests.provider),
    }


def sums_view(state):
    return repr(drs_potential(state)), repr(accounting(state))


def ref_sums_view(state):
    return repr(ref_potential(state)), repr(ref_accounting(state))


amounts = st.integers(1, 40) | st.floats(0.25, 40.0)
sizes = st.integers(1, 40) | st.just(0)


@st.composite
def drs_specs(draw):
    """A small instance as plain data: float or integer capacities, integer
    sizes (zero included), several requests for one key, and each request
    queued at one holder of its key."""
    n = draw(st.integers(1, 6))
    caps = [draw(amounts) for _ in range(n)]
    n_keys = draw(st.integers(1, 5))
    items = [
        (draw(sizes), draw(st.lists(st.integers(0, n - 1), min_size=1, unique=True, max_size=min(n, 4))))
        for _ in range(n_keys)
    ]
    deadline = draw(st.sampled_from([1.0, 2.5, 8.0]) | st.floats(0.5, 10.0))
    requests = []
    for _ in range(draw(st.integers(0, 24))):
        key = draw(st.integers(0, n_keys - 1))
        requests.append((key, draw(st.sampled_from(items[key][1]))))
    return caps, items, deadline, requests


def make_state(spec):
    caps, items, deadline, requests = spec
    state = DrsState(
        list(caps), [size for size, _ in items], [list(holders) for _, holders in items], deadline
    )
    for key, provider in requests:
        add_request(state, key, provider)
    return state


def assert_rounds_match(state, ref, seed, rounds):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    assert sums_view(state) == ref_sums_view(ref)
    for _ in range(rounds):
        scan = scan_round(state)
        assert underloaded_count(scan) == ref_underloaded_count(ref)
        report = drs_round(state, rng, scan)
        assert report == ref_drs_round(ref, ref_rng)
        assert state_view(state) == state_view(ref)
        assert sums_view(state) == ref_sums_view(ref)
        assert underloaded_count(scan_round(state)) == ref_underloaded_count(ref)
        assert rng.getstate() == ref_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(spec=drs_specs(), seed=st.integers(0, 2**64), rounds=st.integers(1, 3))
def test_round_matches_per_request_reference(spec, seed, rounds):
    state, ref = make_state(spec), make_state(spec)
    assert state_view(state) == state_view(ref)
    assert_rounds_match(state, ref, seed, rounds)


@settings(max_examples=200, deadline=None)
@given(spec=drs_specs())
def test_scan_matches_per_provider_and_per_request_reference(spec):
    state = make_state(spec)
    scan = scan_round(state)
    assert repr(scan.phi) == repr(ref_potential(state))
    assert scan.queued_kb == sum(ref_loads(state))
    keys = state.requests.key
    hunting = ref_hunting(state)
    assert set(scan.probe_sets) == {keys[rid] for rid in hunting}
    for key, probes in scan.probe_sets.items():
        assert probes == ref_probe_set(state, key)
    assert scan.acting == [rid for rid in hunting if ref_probe_set(state, keys[rid])]


DIST_SPECS = ["fixed:64", "fixed:0.4", "uniform:2:64", "uniform:0.2:3.7", "pareto:1.3"]


@settings(max_examples=100, deadline=None)
@given(
    n_nodes=st.integers(1, 24),
    n_keys=st.integers(1, 6),
    size_dist=st.sampled_from(DIST_SPECS),
    cap_dist=st.sampled_from(DIST_SPECS),
    replication=st.integers(1, 5),
    deadline=st.sampled_from([2.0, 7.3]),
    seed=st.integers(0, 2**32),
    start=st.sampled_from(["uniform", "concentrated"]),
)
def test_build_and_rounds_match_reference(
    n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed, start
):
    args = (n_nodes, n_keys, size_dist, cap_dist, replication, deadline, seed)
    state = build_instance(*args, start=start)
    ref = ref_build_instance(*args, start)
    assert state_view(state) == state_view(ref)
    assert [repr(size) for size in state.size] == [repr(size) for size in ref.size]
    assert state.holders == ref.holders
    assert_rounds_match(state, ref, seed, 3)


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(1, 24),
    n_keys=st.integers(1, 6),
    size_dist=st.sampled_from(DIST_SPECS),
    cap_dist=st.sampled_from(DIST_SPECS),
    replication=st.integers(1, 4),
    seed=st.integers(0, 2**32),
    start=st.sampled_from(["uniform", "concentrated"]),
)
def test_runs_conserve_bytes_exactly(n_nodes, n_keys, size_dist, cap_dist, replication, seed, start):
    run = simulate_drs(n_nodes, n_keys, size_dist, cap_dist, replication, 7.3, seed, start=start)
    state = run.state
    assert run.rows[-1].relayer_kb == accounting(state)[1]
    # every request sits once, in the queue of the holder its column names
    requests = state.requests
    assert sorted(rid for queue in state.queue for rid in queue) == list(range(len(requests)))
    for rid, provider in enumerate(requests.provider):
        assert rid in state.queue[provider] and provider in state.holders[requests.key[rid]]


def test_build_instance_rejects_keyless_requests():
    # no key to request, no holder to queue at, or no time to serve in
    for n_keys, replication, deadline in ((0, 1, 8.0), (2, 0, 8.0), (2, 1, 0.0), (2, 1, -2.5)):
        with pytest.raises(ValueError):
            build_instance(4, n_keys, "fixed:8", "fixed:2", replication, deadline, seed=1, start="uniform")


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
    it: its bytes are then in no queue."""
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
