"""Acceptance suite: one test per release criterion, each printing a PASS line
with its measured values (run with ``pytest tests/test_acceptance.py -v -s``).

Statistical criteria run on frozen seeds so the whole suite is deterministic;
the seeds were fixed once, not tuned per assertion.
"""

import math
import random

import numpy as np
import pytest
from scipy import stats

from fission_sim.chain import INTERIM, MAIN, compute_root_arrays
from fission_sim.config import PartitionSettings
from fission_sim.consensus import ChainSimulation, Population
from fission_sim.crypto import vrf_hashes
from fission_sim.dists import sample_dist
from fission_sim.drs import build_instance, drs_round, scan_round, simulate_drs
from fission_sim.ledger import EAGER, LedgerState, apply_eager, apply_lazy
from fission_sim.partitioning import (
    next_partition_count,
    reshard_trigger,
    split_shards,
)
from fission_sim.relay import (
    RelaySystemState,
    expected_delay,
    simulate_prs,
    validate_lemma_expectation,
    validate_lemma_variance,
)
from fission_sim.seeding import child_bytes, child_seed, split
from fission_sim.sortition import quorum, tau_lower_bound, theta_bounds, uniforms
from reference import attach, omega, split_numpy, voting_power_batch

SEED = 2  # frozen master seed for every statistical criterion


def report(n, text):
    print(f"\nACCEPTANCE {n} PASS — {text}")


def test_criterion_1_security_calculator():
    # tau bound equals 1134/alpha to relative error <= 1e-9
    worst_rel = 0.0
    for alpha in [1.0, 0.9, 0.75, 0.7, 0.53, 0.5, 0.25, 0.1, 0.01]:
        got = tau_lower_bound(0.75, alpha)
        want = 1134.0 / alpha
        worst_rel = max(worst_rel, abs(got - want) / want)
    assert worst_rel <= 1e-9

    lo, _ = theta_bounds(0.75, 1.0, 5000)
    want_lo = 0.25 + 3.18 / math.sqrt(5000)
    assert lo == pytest.approx(want_lo, rel=1e-12)
    assert lo == pytest.approx(0.29497, abs=5e-6)

    assert quorum(0.3, 5000) == 1500
    report(1, f"tau_min rel err {worst_rel:.1e}; theta_lo {lo:.5f}; quorum 1500")


def test_criterion_2_sortition_distribution():
    # chi-square against the exact mass function at the 1% level, and the
    # empirical mean within 3 sigma of p * s, for every (s, p) cell
    worst_p, worst_z = 1.0, 0.0
    for s in range(1, 21):
        for p in (0.01, 0.1, 0.5):
            gen = split_numpy(SEED, "acc2", s, p)
            draws = voting_power_batch(gen.random(100_000), s, p)
            n = len(draws)
            observed = np.bincount(draws, minlength=s + 1).astype(float)
            expected = np.array(
                [math.comb(s, k) * p**k * (1 - p) ** (s - k) for k in range(s + 1)]
            ) * n
            mask = expected >= 5
            obs = np.append(observed[mask], observed[~mask].sum())
            exp = np.append(expected[mask], expected[~mask].sum())
            if exp[-1] == 0:
                obs, exp = obs[:-1], exp[:-1]
            pvalue = stats.chisquare(obs, exp).pvalue
            assert pvalue > 0.01, f"chi-square failed at s={s}, p={p}: {pvalue}"
            sigma = math.sqrt(s * p * (1 - p) / n)
            z = abs(draws.mean() - p * s) / sigma
            assert z <= 3.0, f"mean off at s={s}, p={p}: z={z}"
            worst_p, worst_z = min(worst_p, pvalue), max(worst_z, z)
    report(2, f"60 cells x 1e5 draws; min chi-square p {worst_p:.4f}; max mean |z| {worst_z:.2f}")


def test_criterion_3_safety_monte_carlo():
    # 1e4 verifiable-random committee draws at the design point: the adversary
    # never reaches the quorum alone, honest weight never misses it
    pop = Population.build(400, "fixed:2500", alpha=0.7, h=0.75, master_seed=SEED)
    stake_of = dict(zip(pop.pks, pop.stakes))
    p = 5000.0 / pop.total_stake
    q = quorum(0.3, 5000)
    draws = 10_000
    adversary = np.zeros(draws, dtype=np.int64)
    honest = np.zeros(draws, dtype=np.int64)
    # one hash per key and seed: row e holds every online key's draw at seed e
    framed = pop.registry.framed_secrets(pop.online)
    hashes = []
    for e in range(draws):
        hashes += vrf_hashes(framed, child_bytes(SEED, "acc3-epoch", e), "block_interim")
    xs = uniforms(hashes).reshape(draws, len(pop.online))
    for column, pk in enumerate(pop.online):
        weights = voting_power_batch(xs[:, column], stake_of[pk], p)
        if pk in pop.strategies:
            adversary += weights
        else:
            honest += weights
    assert int((adversary >= q).sum()) == 0
    assert int((honest < q).sum()) == 0
    report(
        3,
        f"1e4 draws: max adversary {int(adversary.max())} < {q} <= min honest {int(honest.min())}",
    )


def test_criterion_4_chain_properties():
    def build():
        return ChainSimulation(
            h=0.75, alpha=0.7, tau=5000.0, theta=0.3,
            n_nodes=400, stake_dist="fixed:2500",
            tx_per_epoch=100, invalid_fraction=0.15, seed=SEED,
        )

    sim = build()
    results = sim.run(200)

    # alternation at every epoch
    for r in results:
        assert r.kind == (MAIN if r.epoch % 2 == 0 else INTERIM)

    # conservation: the running supply invariant is asserted inside the sim
    # every epoch; re-check the final state against K explicitly
    state = sim.chain.state
    assert state.total_balance() + state.pending_value() == sim.k_total

    # every confirmed debit's credit lands in a later credit block (or is
    # still pending at the end of the run after rolling forward)
    eager_parents = set()
    lazy_parents = set()
    for block in sim.chain.blocks:
        for sub in block.body:
            (eager_parents if sub.kind == EAGER else lazy_parents).add(sub.parent_id)
    still_pending = set(state.pending)
    assert lazy_parents | still_pending == eager_parents
    assert lazy_parents & still_pending == set()

    # root arrays recompute bit-identically on an independent replay
    replay_state = LedgerState(sim.chain.blocks[0].header.n_shard)
    for pk, stake in zip(sim.population.pks, sim.population.stakes):
        replay_state.create_account(pk, stake)
    for block in sim.chain.blocks:
        if block.header.n_shard != replay_state.n_shard:
            replay_state = split_shards(replay_state)
        for sub in block.body:
            if sub.kind == EAGER:
                apply_eager(replay_state, sub)
            else:
                apply_lazy(replay_state, sub)
        tx_root, account_root, log_root = compute_root_arrays(block.body, replay_state)
        assert tx_root == block.header.tx_root
        assert account_root == block.header.account_root
        assert log_root == block.header.tx_log_root

    # byte-identical deterministic replay
    again = build()
    again.run(200)
    assert again.chain.export_jsonl() == sim.chain.export_jsonl()

    confirmed = sum(r.confirmed_subtx for r in results if r.kind == INTERIM)
    invalid = sum(r.invalid_txs for r in results)
    report(4, f"200 epochs, {confirmed} debits confirmed, {invalid} invalid rejected, replay identical")


def test_criterion_5_prs_convergence():
    # worst-case start at m=64, n=4096: potential reaches 4m within 20 rounds
    # in at least 95 of 100 seeded trials
    cap_rng = split(SEED, "acc5-caps")
    caps = [sample_dist("uniform:2:64", cap_rng, integer=True, minimum=2) for _ in range(64)]
    converged = 0
    worst_round = 0
    for trial in range(100):
        run = simulate_prs(4096, caps, 20, child_seed(SEED, "acc5-trial", trial), start="worst")
        if run.converged_round is not None:
            converged += 1
            worst_round = max(worst_round, run.converged_round)
    assert converged >= 95, f"only {converged}/100 trials reached 4m"

    # one-round expectation: every relayer mean within 4 SE of the
    # proportional ratio over 1e4 trials
    state = RelaySystemState([2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0])
    state.populate(64, split(SEED, "acc5-start"), start="worst")
    expectation = validate_lemma_expectation(state, 10_000, seed=child_seed(SEED, "acc5-lemma2"))
    assert expectation.max_abs_z <= 4.0, expectation.means

    # one-round variance bound holds on 10 configurations within 3 SE
    rng = random.Random(17)
    for i in range(10):
        m = rng.randint(4, 16)
        caps_i = [float(rng.randint(2, 32)) for _ in range(m)]
        config_state = RelaySystemState(caps_i)
        config_state.populate(
            rng.randint(m, 8 * m), split(SEED, "acc5-l3-pop", i), start=rng.choice(["worst", "random"])
        )
        variance = validate_lemma_variance(config_state, 2000, seed=child_seed(SEED, "acc5-lemma3", i))
        assert variance.within_margin, (i, variance.variance_sum, variance.bound)
    report(
        5,
        f"{converged}/100 trials at 4m within {worst_round} rounds; "
        f"lemma means max |z| {expectation.max_abs_z:.2f}; variance bound 10/10",
    )


def test_criterion_6_delay_minimization_oracle():
    # exhaustive enumeration of integer load vectors at |V| <= 12, m <= 3:
    # the delay formula is minimized exactly at proportional loads
    capacity_sets = [
        (4.0,),
        (2.0, 2.0), (2.0, 4.0), (2.0, 6.0), (3.0, 9.0),
        (2.0, 2.0, 2.0), (2.0, 4.0, 6.0), (2.0, 4.0, 8.0), (3.0, 4.0, 5.0),
    ]
    checked = exact_hits = 0
    for caps in capacity_sets:
        m = len(caps)
        total_cap = sum(caps)
        for v in range(1, 13):
            values = {}
            for loads in _compositions(v, m):
                state = _state_with_loads(caps, loads)
                values[loads] = expected_delay(state)
            best = min(values.values())
            argmins = [l for l, val in values.items() if val == pytest.approx(best, rel=1e-12)]
            continuous = v / total_cap  # (w/v) * v^2 / total_cap with w = 1
            assert best >= continuous - 1e-12
            proportional = tuple(v * u / total_cap for u in caps)
            checked += 1
            if all(abs(x - round(x)) < 1e-9 for x in proportional):
                target = tuple(int(round(x)) for x in proportional)
                assert argmins == [target], (caps, v, argmins)
                assert best == pytest.approx(continuous, rel=1e-12)
                exact_hits += 1
            else:
                assert best > continuous  # integral constraint binds strictly
    report(6, f"{checked} (capacities, |V|) cells enumerated, {exact_hits} with exact proportional argmin")


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _state_with_loads(caps, loads):
    state = RelaySystemState(list(caps))
    for relayer, load in enumerate(loads):
        for _ in range(load):
            attach(state, relayer)
    return state


def test_criterion_7_drs():
    # potential monotone (hard assertion inside simulate_drs), convergence
    # within 40 ln(|W| n) rounds in >= 95/100 trials, contraction with slack,
    # and the exact byte identity every round (hard assertion inside)
    n, keys = 1024, 64
    budget = 40 * math.log(keys * n)
    converged = 0
    worst_round = 0
    for trial in range(100):
        run = simulate_drs(
            n, keys, "fixed:64", "uniform:2:64", 3, 8.0,
            child_seed(SEED, "acc7-trial", trial), start="concentrated",
        )
        phis = [row.phi for row in run.rows]
        assert all(a >= b - 1e-9 for a, b in zip(phis, phis[1:]))
        if run.converged_round is not None and run.converged_round <= budget:
            converged += 1
            worst_round = max(worst_round, run.converged_round)
    assert converged >= 95, f"only {converged}/100 converged within {budget:.0f} rounds"

    # mean one-round contraction of omega at 0.3 slack over the 1/4 bound
    worst_ratio = 0.0
    for instance_seed in (31, 32, 33, 34, 35):
        base = build_instance(
            256, 32, "fixed:64", "uniform:2:64", 3, 8.0, instance_seed, start="concentrated"
        )
        omega0 = omega(base)
        assert omega0 > 0
        total = 0.0
        trials = 1000
        for t in range(trials):
            state = build_instance(
                256, 32, "fixed:64", "uniform:2:64", 3, 8.0, instance_seed, start="concentrated"
            )
            drs_round(state, split(SEED, "acc7-mc", instance_seed, t), scan_round(state))
            total += omega(state)
        ratio = (total / trials) / omega0
        assert ratio <= 0.3, f"instance {instance_seed}: E[omega(t+1)]/omega(t) = {ratio:.3f}"
        worst_ratio = max(worst_ratio, ratio)
    report(
        7,
        f"{converged}/100 runs converged by round {worst_round} (budget {budget:.0f}); "
        f"worst contraction ratio {worst_ratio:.3f} <= 0.3",
    )


def test_criterion_8_partitioning():
    # scaler vs brute force on 1e4 random pairs
    rng = random.Random(SEED)
    cfg = PartitionSettings()
    for _ in range(10_000):
        n_e = rng.randrange(0, 50_000)
        n_p = rng.randint(1, 64)
        load = n_e / n_p
        if load >= cfg.delta * cfg.n_e_max:
            want = n_p + 1
        elif load <= (1 - cfg.delta) * cfg.n_e_max:
            want = n_p - 1
        else:
            want = n_p
        want = max(1, min(want, 64))
        assert next_partition_count(n_e, n_p, 64, cfg) == want

    # trigger vs naive window scan
    for _ in range(5000):
        n_rs = rng.randint(1, 5)
        history = []
        for _ in range(rng.randint(0, 12)):
            ns = rng.randint(1, 5)
            history.append((rng.randint(1, ns), ns))
        window = history[-(n_rs + 1):]
        want = len(window) == n_rs + 1 and all(a == b for a, b in window)
        assert reshard_trigger(history, n_rs) == want

    # shard split conserves every balance on randomized states
    from fission_sim.crypto import KeyRegistry

    for case in range(20):
        reg = KeyRegistry()
        state = LedgerState(rng.choice([1, 2, 4, 8]))
        balances = {}
        for i in range(rng.randint(1, 120)):
            _, pk = reg.generate(f"acc8-{case}-{i}".encode())
            bal = rng.randint(0, 10_000)
            state.create_account(pk, bal)
            balances[pk] = bal
        split_state = split_shards(state)
        assert split_state.n_shard == 2 * state.n_shard
        for pk, bal in balances.items():
            assert split_state.balances[pk] == bal
        assert split_state.total_balance() == state.total_balance()
    report(8, "scaler 1e4 pairs, trigger 5e3 windows, 20 randomized shard splits")
