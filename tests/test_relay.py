import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.errors import EmptySpace
from fission_sim.relay import (
    POISSON_PART,
    RelaySystemState,
    _poisson,
    apply_churn,
    broadcast_hops,
    expected_delay,
    is_eps_nash,
    potential,
    simulate_prs,
    synchronous_round,
    validate_lemma_expectation,
    validate_lemma_variance,
)
from fission_sim.seeding import split
from reference import apply_churn as churn_reference
from reference import attach, initial_relayer, populate_random, prs_step


class FakeRng:
    """Plays back preset values for random(); randrange unused here."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def state_with_loads(capacities, loads, **kw):
    state = RelaySystemState(capacities, **kw)
    for relayer, load in enumerate(loads):
        for _ in range(load):
            attach(state, relayer)
    return state


# --- identifier space / initial selection ---


def test_identifier_space_multiplicities():
    state = RelaySystemState([10, 30], mu=10)
    assert sorted(state.identifier_space) == [0, 1, 1, 1]  # Pr = (0.25, 0.75)


def test_initial_relayer_single():
    state = RelaySystemState([5.0])
    rng = random.Random(0)
    assert all(initial_relayer(rng, state.identifier_space) == 0 for _ in range(50))


def test_initial_relayer_empty_space():
    with pytest.raises(EmptySpace):
        initial_relayer(random.Random(0), [])


def test_initial_relayer_capacity_proportional_frequencies():
    # 1e5 draws within 3 sigma of u_k / |U|
    state = RelaySystemState([10, 30], mu=10)
    rng = split(42, "init-relayer")
    n = 100_000
    hits = sum(initial_relayer(rng, state.identifier_space) == 1 for _ in range(n))
    p = 0.75
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(hits - n * p) <= 3 * sigma


# --- the probabilistic switch rule ---


def test_prs_step_switch_probability_boundary():
    # r_j = 0.6, r_k = 0.2 -> switch with probability 2/3
    threshold = 1 - 0.2 / 0.6
    assert prs_step(0.6, 0.2, FakeRng([threshold - 1e-9])) is True
    assert prs_step(0.6, 0.2, FakeRng([threshold + 1e-9])) is False


def test_prs_step_keeps_when_not_strictly_better():
    rng = random.Random(1)
    assert prs_step(0.2, 0.6, rng) is False
    assert prs_step(0.5, 0.5, rng) is False
    assert prs_step(0.0, 0.0, rng) is False


def test_prs_step_always_switches_to_idle_relayer():
    rng = random.Random(2)
    assert all(prs_step(0.5, 0.0, rng) for _ in range(100))


def test_prs_step_empirical_frequency():
    rng = split(3, "prs-freq")
    n = 20_000
    hits = sum(prs_step(0.6, 0.2, rng) for _ in range(n))
    p = 2 / 3
    assert abs(hits - n * p) <= 3 * math.sqrt(n * p * (1 - p))


# --- potential and delay ---


def test_potential_zero_iff_balanced():
    state = state_with_loads([10, 10], [4, 4])
    assert potential(state) == pytest.approx(0.0, abs=1e-15)


def test_potential_hand_value():
    state = state_with_loads([10, 10], [6, 2])
    assert potential(state) == pytest.approx(0.08, abs=1e-12)  # (0.2)^2 + (-0.2)^2


def test_expected_delay_hand_values():
    state = state_with_loads([10, 10], [6, 2])
    assert expected_delay(state) == pytest.approx(0.5, abs=1e-12)  # (3.6+0.4)/8
    balanced = state_with_loads([10, 10], [4, 4])
    assert expected_delay(balanced) == pytest.approx(0.4, abs=1e-12)
    single = state_with_loads([10], [8])
    assert expected_delay(single) == pytest.approx(8 / 10 * 1.0 * 8 / 8, abs=1e-12)  # w|V|/u


def test_delay_direction_balanced_is_better():
    assert expected_delay(state_with_loads([10, 10], [4, 4])) < expected_delay(
        state_with_loads([10, 10], [6, 2])
    )


# --- synchronous rounds and convergence ---


def test_single_relayer_already_steady():
    run = simulate_prs(64, [8.0], rounds=5, seed=0)
    assert run.rows[0].phi == pytest.approx(0.0, abs=1e-15)
    assert run.converged_round == 0


def test_worst_case_start_converges_fast():
    caps = [2.0 + (i % 4) for i in range(16)]
    run = simulate_prs(512, caps, rounds=20, seed=1, start="worst")
    assert run.converged_round is not None
    assert run.converged_round <= 10


def test_load_conservation_each_round():
    caps = [4.0] * 8
    state = RelaySystemState(caps)
    rng = split(5, "conserve")
    state.populate(100, rng, start="random")
    for _ in range(10):
        synchronous_round(state, rng)
        assert sum(state.loads) == 100


def test_round_mean_potential_non_increasing_homogeneous():
    # Monte Carlo: mean phi after one round from a fixed random start never
    # exceeds the starting phi (100 trials)
    caps = [4.0] * 8
    base = RelaySystemState(caps)
    base.populate(96, split(7, "start"), start="random")
    phi0 = potential(base)
    if phi0 == 0.0:
        return
    total = 0.0
    trials = 100
    for t in range(trials):
        work = state_with_loads(caps, base.loads)
        synchronous_round(work, split(8, "mc", t))
        total += potential(work)
    assert total / trials <= phi0


def reference_round(state, rng):
    """The per-node round that ``synchronous_round`` inlines: one
    ``randrange`` candidate and one ``prs_step`` call per node."""
    ratios = state.ratios()
    space = state.identifier_space
    moves = []
    for node, j in enumerate(state.assignment):
        k = space[rng.randrange(len(space))]
        if k == j:
            continue
        if prs_step(ratios[j], ratios[k], rng):
            moves.append((node, j, k))
    for node, j, k in moves:
        state.assignment[node] = k
        state.loads[j] -= 1
        state.loads[k] += 1
    return len(moves)


# identifier-space sizes at the edges of getrandbits' rejection: 1, 2^k, 2^k + 1
EDGE_SIZES = [1, 2, 3, 4, 5, 8, 9, 64, 65, 256, 257]
STATE_MU = 2.0  # the identifier unit of relay_states


@st.composite
def relay_states(draw):
    size = draw(st.sampled_from(EDGE_SIZES) | st.integers(1, 400))
    m = draw(st.integers(1, min(size, 8)))
    cuts = sorted(draw(st.lists(st.integers(1, size - 1), min_size=m - 1, max_size=m - 1,
                                unique=True))) if m > 1 else []
    mults = [b - a for a, b in zip([0] + cuts, cuts + [size])]
    # floor(u / STATE_MU) == mult for u in [2 * mult, 2 * mult + 2)
    caps = [2.0 * mult + draw(st.floats(0.0, 1.99)) for mult in mults]
    assignment = draw(st.lists(st.integers(0, m - 1), max_size=300))
    state = RelaySystemState(caps, mu=STATE_MU)
    for relayer in assignment:
        attach(state, relayer)
    assert len(state.identifier_space) == size
    return state


def test_randrange_is_getrandbits_rejection():
    # synchronous_round repeats this method inline; if randrange ever draws
    # differently, the relay stream and output bytes would move
    assert random.Random._randbelow is random.Random._randbelow_with_getrandbits


def copy_of(state):
    """A state with the same capacities and nodes, built one node at a time."""
    copy = RelaySystemState(state.capacities, mu=STATE_MU)
    for relayer in state.assignment:
        attach(copy, relayer)
    return copy


@settings(max_examples=150, deadline=None)
@given(state=relay_states(), seed=st.integers(0, 2**64), rounds=st.integers(1, 3))
def test_synchronous_round_matches_per_node_reference(state, seed, rounds):
    ref = copy_of(state)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    for _ in range(rounds):
        assert synchronous_round(state, rng) == reference_round(ref, ref_rng)
        assert state.assignment == ref.assignment
        assert state.loads == ref.loads
        assert rng.getstate() == ref_rng.getstate()


class ScriptedRng(FakeRng):
    """Plays back preset getrandbits() and random() values."""

    def __init__(self, bits, values):
        super().__init__(values)
        self.bits = list(bits)

    def getrandbits(self, k):
        assert k == 3  # identifier space of size 4
        return self.bits.pop(0)


def test_synchronous_round_scripted_draws_at_switch_threshold():
    # r_j = 1.5, r_k = 0.5: 1.0 - r_k / r_j is 0.6666666666666667, one ulp above
    # (r_j - r_k) / r_j, so only the prs_step expression switches on the lower draw
    state = state_with_loads([2.0, 2.0], [3, 1])
    threshold = 1.0 - 0.5 / 1.5
    rng = ScriptedRng(
        bits=[2, 3, 5, 0, 1],  # node 2 redraws after 5 >= 4; node 3 draws a busier relayer
        values=[math.nextafter(threshold, 0.0), threshold],
    )
    assert synchronous_round(state, rng) == 1
    assert state.assignment == [1, 0, 0, 1]
    assert state.loads == [2, 2]
    assert rng.bits == [] and rng.values == []


def test_synchronous_round_scripted_movers_at_both_ends():
    # relayer 0 holds 3 of 4 nodes (r = 1.5), relayer 1 one (r = 0.5); the
    # first and the last node switch, so both ends of the mover indexing show
    state = state_with_loads([2.0, 2.0], [3, 1])
    state.assignment = [0, 1, 0, 0]
    rng = ScriptedRng(
        # node 0 draws relayer 1; node 1 a busier one, so no random(); node 2
        # relayer 1 but keeps at 0.9; node 3 redraws after 6 >= 4, then relayer 1
        bits=[2, 0, 2, 6, 3],
        values=[0.0, 0.9, 0.5],
    )
    assert synchronous_round(state, rng) == 2
    assert state.assignment == [1, 1, 0, 1]
    assert state.loads == [1, 3]
    assert rng.bits == [] and rng.values == []


def test_worst_start_stacks_on_relayer_zero_without_draws():
    state = RelaySystemState([4.0, 6.0, 8.0])
    attach(state, 2)
    rng = random.Random(3)
    before = rng.getstate()
    state.populate(50, rng, start="worst")
    assert state.assignment == [2] + [0] * 50
    assert state.loads == [50, 0, 1]
    assert rng.getstate() == before


def test_lemma_validators_leave_state_untouched():
    state = state_with_loads([2.0, 4.0, 8.0], [40, 0, 0])
    assignment, loads = list(state.assignment), list(state.loads)
    validate_lemma_expectation(state, trials=20, seed=1)
    validate_lemma_variance(state, trials=20, seed=2)
    assert state.assignment == assignment and state.loads == loads


def test_trace_schema_and_round_zero():
    run = simulate_prs(32, [4.0] * 4, rounds=6, seed=2, start="worst", stop_at_steady=False)
    assert run.rows[0].round == 0 and run.rows[0].switches == 0
    assert len(run.rows) == 7


# --- lemma validators ---


def test_lemma_expectation_adversarial_start():
    state = state_with_loads([2.0, 4.0, 8.0], [40, 0, 0])
    report = validate_lemma_expectation(state, trials=4000, seed=11)
    assert report.max_abs_z <= 4.0, report.means


def test_lemma_expectation_balanced_start():
    state = state_with_loads([2.0, 4.0, 8.0], [10, 20, 40])  # exactly proportional
    report = validate_lemma_expectation(state, trials=500, seed=12)
    # balanced: nobody can move, means equal r_bar exactly
    assert report.means == [pytest.approx(report.r_bar, abs=1e-12)] * 3


def test_lemma_variance_balanced_start_is_exactly_zero():
    state = state_with_loads([2.0, 4.0, 8.0], [10, 20, 40])
    report = validate_lemma_variance(state, trials=300, seed=13)
    assert report.variance_sum == 0.0
    assert report.bound == pytest.approx(0.0, abs=1e-12)


def test_lemma_variance_bound_all_on_one():
    state = state_with_loads([2.0] * 16, [64] + [0] * 15)
    report = validate_lemma_variance(state, trials=2000, seed=14)
    assert report.within_margin, (report.variance_sum, report.bound)


def test_lemma_variance_bound_random_starts():
    rng = random.Random(15)
    for trial in range(10):
        m = rng.randint(2, 8)
        caps = [float(rng.randint(2, 8)) for _ in range(m)]
        loads = [rng.randint(0, 12) for _ in range(m)]
        if sum(loads) == 0:
            loads[0] = 5
        state = state_with_loads(caps, loads)
        report = validate_lemma_variance(state, trials=1500, seed=100 + trial)
        assert report.within_margin, (trial, report.variance_sum, report.bound)


# --- churn ---


def test_churn_conserves_load_accounting():
    state = state_with_loads([4.0] * 4, [10, 10, 10, 10])
    rng = split(21, "churn")
    for _ in range(20):
        apply_churn(state, rng, join_rate=2.0, leave_rate=0.1)
        assert sum(state.loads) == state.n_nodes


@settings(max_examples=100, deadline=None)
@given(
    state=relay_states(),
    seed=st.integers(0, 2**64),
    starters=st.integers(0, 300),
    leave_rate=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    # 0, a small rate, and one above POISSON_PART that draws in three parts
    join_rate=st.sampled_from([0.0, 2.5, 2.5 * POISSON_PART]) | st.floats(0.0, 50.0),
    rounds=st.integers(1, 3),
)
def test_churn_and_random_start_match_per_node_reference(
    state, seed, starters, leave_rate, join_rate, rounds
):
    ref = copy_of(state)
    rng, ref_rng = random.Random(seed), random.Random(seed)
    state.populate(starters, rng, start="random")
    populate_random(ref, starters, ref_rng)
    assert state.assignment == ref.assignment
    assert state.loads == ref.loads
    assert rng.getstate() == ref_rng.getstate()
    for _ in range(rounds):
        counts = apply_churn(state, rng, join_rate, leave_rate)
        assert counts == churn_reference(ref, ref_rng, join_rate, leave_rate)
        assert state.assignment == ref.assignment
        assert state.loads == ref.loads
        assert rng.getstate() == ref_rng.getstate()


def knuth_poisson(rng, lam):
    """Knuth's method in one part, as joiners were drawn at every rate."""
    threshold = math.exp(-lam)
    count, prod = 0, rng.random()
    while prod > threshold:
        count += 1
        prod *= rng.random()
    return count


@pytest.mark.parametrize("lam", [0.5, 3.0, 655.0, 700.0])
def test_poisson_keeps_its_stream_up_to_one_part(lam):
    ours, knuth = split(3, "poisson"), split(3, "poisson")
    assert [_poisson(ours, lam) for _ in range(50)] == [knuth_poisson(knuth, lam) for _ in range(50)]
    assert ours.getstate() == knuth.getstate()


@pytest.mark.parametrize("lam", [1000.0, 5000.0])
def test_poisson_above_the_underflow_has_its_mean_and_variance(lam):
    # Knuth's threshold exp(-lam) underflows past 745, which capped draws there
    n = 300
    rng = split(1, "poisson", lam)
    draws = [_poisson(rng, lam) for _ in range(n)]
    mean = sum(draws) / n
    var = sum((d - mean) ** 2 for d in draws) / (n - 1)
    # standard errors of a Poisson sample's mean and variance (excess kurtosis 1/lam)
    assert abs(mean - lam) < 4 * math.sqrt(lam / n)
    assert abs(var - lam) < 4 * lam * math.sqrt(2 / (n - 1) + 1 / (lam * n))


def test_convergence_survives_churn():
    caps = [4.0] * 16
    run = simulate_prs(
        256, caps, rounds=40, seed=23, start="worst",
        join_rate=3.0, leave_rate=0.02, stop_at_steady=False,
    )
    assert len(run.rows) == 41
    # churn keeps the system from freezing but the game keeps it near balance:
    # the second half of the run stays well under the worst-case start
    late = [row.phi for row in run.rows[20:]]
    assert max(late) < run.rows[0].phi / 10


# --- structural properties ---


def test_broadcast_hop_bound():
    state = state_with_loads([4.0, 4.0, 4.0], [5, 3, 2])
    for origin in range(state.n_nodes):
        hops = broadcast_hops(state, origin)
        assert max(hops) <= 3
        assert hops[origin] == 0


def test_eps_nash_detected_near_balance():
    # states inside the potential threshold admit no profitable deviation
    eps = 0.3
    m = 3
    rng = random.Random(31)
    checked = 0
    while checked < 25:
        caps = [float(rng.randint(2, 8)) for _ in range(m)]
        total_cap = sum(caps)
        n = math.ceil(1.5 * total_cap)
        loads = [round(n * u / total_cap) for u in caps]
        loads[0] += n - sum(loads)
        state = state_with_loads(caps, loads)
        if potential(state) > eps**2 * m / 4:
            continue
        checked += 1
        assert is_eps_nash(state, eps), (caps, loads)


def test_eps_nash_rejects_unbalanced():
    state = state_with_loads([4.0, 4.0], [12, 0])
    assert not is_eps_nash(state, 0.3)
