import contextlib
import copy
import gc
import io
import tempfile
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fission_sim import cli, consensus
from fission_sim.chain import INTERIM, MAIN, Votes, next_seed, tally
from fission_sim.consensus import (
    Ballot,
    ChainSimulation,
    Population,
    cast_ballot,
    draw_traffic,
    micro_round,
    run_epoch,
)
from fission_sim.config import CHAIN_KEYWORDS, EpochSettings, load_config
from fission_sim.crypto import KeyRegistry, sha3, sign
from fission_sim.dists import dist_sampler
from fission_sim.errors import InvariantViolation, TransactionRejected, ValidationError
from fission_sim.ledger import (
    LedgerState,
    apply_eager,
    home_partitions,
    make_transfer,
    split_transaction,
)
from fission_sim.seeding import split
from fission_sim.sortition import BLOCK_INTERIM, BLOCK_MAIN, leader_ticket, select_committee
from reference import elect_proposer, generate_transactions, leader_order, secret_key
from test_golden import CASES

# small all-honest world used by most pipeline tests
SMALL = dict(h=1.0, alpha=1.0, tau=50.0, theta=0.3, n_nodes=12, stake_dist="fixed:100")


def small_sim(**overrides):
    params = dict(SMALL)
    params.update(overrides)
    return ChainSimulation(tx_per_epoch=0, seed=3, **params)


# --- tally ---


def votes(h, *cast):
    """``Votes`` on ``h`` from (voter, weight) pairs, in casting order."""
    voters = [pk for pk, _ in cast]
    return Votes(h, voters, [w for _, w in cast], b"".join(sign(b"sk" + pk, h) for pk in voters))


def test_tally_boundary():
    h = sha3(b"block")
    a, b = b"\x01" * 32, b"\x02" * 32
    assert tally(votes(h, (a, 800), (b, 700))) >= 1500
    assert not tally(votes(h, (a, 800), (b, 699))) >= 1500


def test_tally_counts_duplicate_voters_once():
    h = sha3(b"block")
    a, b = b"\x01" * 32, b"\x02" * 32
    weight = tally(votes(h, (a, 800), (a, 800), (b, 700)))
    assert weight == 1500


def test_tally_matches_bruteforce_dedup_sum():
    # duplicate voters carry their own weights; the first vote of each counts
    import random

    rng = random.Random(8)
    h = sha3(b"b")
    pks = [bytes([i]) * 32 for i in range(6)]
    repeated = 0
    for _ in range(300):
        cast = [(rng.choice(pks), rng.randint(1, 50)) for _ in range(rng.randint(0, 12))]
        quorum = rng.randint(1, 200)
        seen = {}
        for voter, weight in cast:
            seen.setdefault(voter, weight)
        repeated += len(seen) < len(cast)
        weight = tally(votes(h, *cast))
        assert weight == sum(seen.values())
        assert (weight >= quorum) == (sum(seen.values()) >= quorum)
    assert repeated > 100  # the duplicate path is exercised, not only the distinct one


# --- next_seed ---


def test_next_seed_deterministic_and_sensitive():
    s = sha3(b"seed")
    h1, h2 = sha3(b"b1"), sha3(b"b2")
    assert next_seed(s, h1) == next_seed(s, h1)
    assert next_seed(s, h1) != next_seed(s, h2)
    assert next_seed(s, h1) != next_seed(sha3(b"other"), h1)


def test_seed_sequence_uniformity():
    from scipy import stats

    seed = sha3(b"start")
    draws = []
    for i in range(100):
        seed = next_seed(seed, sha3(b"block%d" % i))
        draws.append(int.from_bytes(seed, "big") / 2**256)
    assert stats.kstest(draws, "uniform").pvalue > 0.01


# --- vote collection ---


def reference_votes(committee, population, proposal, offline):
    """Every vote cast on a proposal, spelled out per member with
    ``crypto.sign``: the votes for it (``collect_votes``) and the conflicting
    votes, which name one conflict hash derived once per proposal."""

    def cast(column, pk, weight, sk):
        column.voters.append(pk)
        column.weights.append(weight)
        column.signatures += sign(sk, column.block_hash)

    other = sha3(b"conflict" + proposal)
    votes, conflicting = Votes(proposal), Votes(other)
    for pk, weight in zip(committee.pks, committee.weights):
        if pk in offline:
            continue
        role = population.strategies.get(pk)  # None for an honest member
        sk = secret_key(population.registry, pk)
        if role in (None, consensus.EQUIVOCATE):
            cast(votes, pk, weight, sk)
        if role in (consensus.VOTE_CONFLICTING, consensus.EQUIVOCATE):
            cast(conflicting, pk, weight, sk)
    # with no conflicting member, no conflict hash is derived
    return votes, conflicting if conflicting else Votes()


ROLES = st.sampled_from((None,) + consensus.STRATEGIES)  # None: honest
VOTING_WORLDS = dict(
    roles=st.lists(ROLES, min_size=16, max_size=16),
    offline_mask=st.lists(st.booleans(), min_size=16, max_size=16),
    proposal=st.binary(min_size=32, max_size=32),
    world=st.integers(0, 3),
)


def voting_world(roles, offline_mask, proposal, world):
    """A 16-node population with the given roles, its offline keys, and its
    main-block committee at seed ``proposal``."""
    built = Population.build(16, "fixed:100", alpha=1.0, h=1.0, master_seed=world)
    strategies = {pk: role for pk, role in zip(built.pks, roles) if role is not None}
    population = Population(built.pks, built.stakes, built.online, strategies, built.registry)
    offline = {pk for pk, dark in zip(population.pks, offline_mask) if dark}
    committee = select_committee(population.electorate, proposal, BLOCK_MAIN, 0.05)
    return population, offline, committee


@settings(max_examples=100, deadline=None)
@given(**VOTING_WORLDS)
def test_collect_votes_equals_per_member_signatures(roles, offline_mask, proposal, world):
    population, offline, committee = voting_world(roles, offline_mask, proposal, world)
    ballot = cast_ballot(committee, population, offline)
    votes = consensus.collect_votes(ballot, population, proposal)
    assert votes == reference_votes(committee, population, proposal, offline)[0]
    byzantine = [w for pk, w in zip(committee.pks, committee.weights) if pk in population.strategies]
    assert ballot.adversary == sum(byzantine)


@settings(max_examples=100, deadline=None)
@given(**VOTING_WORLDS)
def test_vote_weights_equal_tallies_of_the_reference_votes(roles, offline_mask, proposal, world):
    population, offline, committee = voting_world(roles, offline_mask, proposal, world)
    votes, conflicting = reference_votes(committee, population, proposal, offline)
    ballot = cast_ballot(committee, population, offline)
    assert (ballot.yes, ballot.conflicting) == (tally(votes), tally(conflicting))
    assert ballot.n_online == sum(pk not in offline for pk in committee.pks)


# --- micro rounds ---


def test_micro_round_zero_online_weight_times_out():
    sim = small_sim()
    committee = select_committee(sim.population.electorate, b"s", "partition:0", sim.p)
    offline = set(committee.pks)
    outcome, deferred, invalid = micro_round(
        [], cast_ballot(committee, sim.population, offline), sim.chain.state.clone(),
        sim.chain.quorum, sim.config.epochs,
    )
    assert outcome is None


def test_micro_round_defers_overflow_prefix_by_arrival():
    sim = small_sim()
    cfg = EpochSettings(delta_micro=1.0)
    committee = select_committee(sim.population.electorate, b"s", "partition:0", sim.p)
    capacity_target = 3
    cfg.micro_throughput = capacity_target / (cfg.delta_micro * len(committee))
    reg = sim.population.registry
    sender, receiver = sim.population.pks[:2]
    subs = []
    for n in range(1, 7):
        tx = make_transfer(reg, sender, receiver, 1, n)
        subs.append(split_transaction(tx, reg))
    ballot = cast_ballot(committee, sim.population, set())
    outcome, deferred, invalid = micro_round(subs, ballot, sim.chain.state.clone(), sim.chain.quorum, cfg)
    assert outcome is not None
    assert [nonce for _, _, _, _, nonce in outcome] == [1, 2, 3]  # arrival-order prefix
    assert [nonce for _, _, _, _, nonce in deferred] == [4, 5, 6]
    assert invalid == []


def test_micro_round_capacity_counts_online_members_only():
    # one sub-transaction per online member; offline keys outside the
    # committee do not count against it
    sim = small_sim()
    reg = sim.population.registry
    committee = select_committee(sim.population.electorate, b"s", "partition:0", sim.p)
    offline = {committee.pks[0], b"\x00" * 32}
    cfg = EpochSettings(delta_micro=1.0, micro_throughput=1.0)
    sender, receiver = sim.population.pks[:2]
    subs = [
        split_transaction(make_transfer(reg, sender, receiver, 1, n), reg)
        for n in range(1, len(committee) + 1)
    ]
    outcome, deferred, invalid = micro_round(
        subs, cast_ballot(committee, sim.population, offline), sim.chain.state.clone(), sim.chain.quorum, cfg
    )
    assert len(committee) > 1
    assert len(outcome) == len(committee) - 1
    assert deferred == subs[len(committee) - 1:] and invalid == []


def test_micro_round_filters_invalid_state_transitions():
    sim = small_sim()
    reg = sim.population.registry
    sender, receiver = sim.population.pks[:2]
    good = split_transaction(make_transfer(reg, sender, receiver, 1, 1), reg)
    overdraw = split_transaction(
        make_transfer(reg, sender, receiver, 10**9, 2), reg
    )
    committee = select_committee(sim.population.electorate, b"s", "partition:0", sim.p)
    outcome, deferred, invalid = micro_round(
        [good, overdraw], cast_ballot(committee, sim.population, set()), sim.chain.state.clone(),
        sim.chain.quorum, sim.config.epochs,
    )
    assert [nonce for _, _, _, _, nonce in outcome] == [1]
    assert invalid == [overdraw]


def test_micro_round_propagates_errors_that_are_not_protocol_errors(monkeypatch):
    # only a TransactionRejected marks a sub-transaction invalid; a bug in state
    # application must surface instead of being counted as invalid traffic
    sim = small_sim()
    reg = sim.population.registry
    sender, receiver = sim.population.pks[:2]
    eager = split_transaction(make_transfer(reg, sender, receiver, 1, 1), reg)
    committee = select_committee(sim.population.electorate, b"s", "partition:0", sim.p)

    def broken(state, sub):
        raise RuntimeError("state bug")

    monkeypatch.setattr(consensus, "apply_eager", broken)
    with pytest.raises(RuntimeError, match="state bug"):
        micro_round(
            [eager], cast_ballot(committee, sim.population, set()), sim.chain.state.clone(),
            sim.chain.quorum, sim.config.epochs,
        )


def test_run_epoch_raises_an_invariant_violation_instead_of_counting_it(monkeypatch):
    # only a TransactionRejected marks traffic invalid; an invariant broken
    # while a debit applies stops the run
    sim = small_sim()
    sim.config.chain.tx_per_epoch = 5
    sim.generate_transactions()

    def broken(state, sub):
        raise InvariantViolation("core-ledger", "test", "raised while applying a debit")

    monkeypatch.setattr(consensus, "apply_eager", broken)
    with pytest.raises(InvariantViolation, match="raised while applying a debit"):
        run_epoch(sim.chain, sim.mempool, sim.p, sim.config.epochs, sim.population, set())
    assert len(sim.chain.blocks) == 1


# accounts of the shared-scratch property, 30 tokens each, and its quorum
SCRATCH_KEYS = [sha3(b"scratch-account-%d" % i) for i in range(8)]
SCRATCH_QUORUM = 5


@st.composite
def partitioned_mempools(draw):
    """A state with some debits already pending, and for n_partition >= 2
    partitions each one's routed debits and ballot."""
    n_shard = draw(st.integers(2, 8))
    n_partition = draw(st.integers(2, n_shard))
    state = LedgerState(n_shard)
    for pk in SCRATCH_KEYS:
        state.create_account(pk, 30)
    # (sender, receiver, value, nonce offset, parent tag): a parent id hashes
    # its sender, and its few tags let a sender's debits share one
    debit = st.tuples(
        st.sampled_from(SCRATCH_KEYS), st.sampled_from(SCRATCH_KEYS),
        st.integers(1, 20), st.sampled_from([0, 0, 0, 1, -1]), st.integers(0, 3),
    )
    next_nonce = dict.fromkeys(SCRATCH_KEYS, 1)

    def sub_of(sender, receiver, value, offset, tag):
        nonce = next_nonce[sender] + offset
        if not offset:
            next_nonce[sender] += 1
        return (sha3(sender + bytes([tag])), sender, receiver, value, nonce)

    for sub in [sub_of(*d) for d in draw(st.lists(debit, max_size=6))]:
        try:
            apply_eager(state, sub)
        except TransactionRejected:
            pass
    next_nonce.update((pk, n + 1) for pk, n in state.nonces.items())
    subs = [sub_of(*d) for d in draw(st.lists(debit, max_size=40))]
    routed = [[] for _ in range(n_partition)]
    for sub, home in zip(subs, home_partitions([sender for _, sender, _, _, _ in subs], n_shard, n_partition)):
        routed[home].append(sub)
    # a yes weight below the quorum, or no online member, times a round out
    ballots = [
        Ballot([], [], draw(st.sampled_from([SCRATCH_QUORUM - 1, SCRATCH_QUORUM])), 0, 0, draw(st.integers(0, 8)))
        for _ in range(n_partition)
    ]
    return state, routed, ballots


@settings(max_examples=150, deadline=None)
@given(case=partitioned_mempools())
def test_partitions_on_one_shared_scratch_equal_partitions_on_own_clones(case):
    # routing gives partitions disjoint senders, and a debit's parent id
    # hashes its sender, so no round reads what another round wrote
    state, routed, ballots = case
    epochs = EpochSettings(delta_micro=1.0, micro_throughput=1.0)  # one debit per online member
    clones = [state.clone() for _ in routed]
    own = [micro_round(subs, ballot, clone, SCRATCH_QUORUM, epochs)
           for subs, ballot, clone in zip(routed, ballots, clones)]
    scratch = state.clone()
    shared = [micro_round(subs, ballot, scratch, SCRATCH_QUORUM, epochs) for subs, ballot in zip(routed, ballots)]
    assert shared == own
    # the shared scratch holds each partition's writes, each from its own round
    homes = home_partitions(SCRATCH_KEYS, state.n_shard, len(routed))
    for pk, home in zip(SCRATCH_KEYS, homes):
        assert (scratch.balances[pk], scratch.nonces[pk]) == (clones[home].balances[pk], clones[home].nonces[pk])
    assert scratch.pending == {pid: sub for clone in clones for pid, sub in clone.pending.items()}


def test_each_role_clones_the_chain_state_once_per_epoch(monkeypatch):
    # the micro rounds share one scratch, so an interim epoch clones for the
    # committees, the proposer and the validator at any partition count, and
    # a main epoch for the proposer and the validator
    params, epochs, _ = CASES["reshard"]
    calls = Counter()
    clone = LedgerState.clone

    def counted(self):
        calls["clone"] += 1
        return clone(self)

    monkeypatch.setattr(LedgerState, "clone", counted)
    sim = ChainSimulation(**params)
    per_epoch = []
    for _ in range(epochs):
        before = calls["clone"]
        result = sim.step()
        per_epoch.append((result.kind, result.n_partition, calls["clone"] - before))
    assert {n for kind, n, _ in per_epoch if kind == INTERIM} == {1, 2, 3, 4}
    assert all(clones == (3 if kind == INTERIM else 2) for kind, _, clones in per_epoch)


def test_chain_history_adds_no_tracked_object_per_record():
    # chain-traffic, scaled down. Every retained block keeps its body, and
    # the records in it and in the pending log are tuples of bytes and ints,
    # which a collection stops tracking. So the tracked-object count grows by
    # the few objects each block holds, not by its traffic, and a full
    # collection walks live state, not history. A count, unlike a pause,
    # does not depend on the machine.
    sim = ChainSimulation(n_nodes=100, tx_per_epoch=200, invalid_fraction=0.05, seed=7)
    per_pair, warm, pairs = 25, 10, 30
    for _ in range(2 * warm):
        sim.step()
    gc.collect()
    before, first = len(gc.get_objects()), len(sim.chain.blocks)
    for _ in range(2 * pairs):
        sim.step()
    gc.collect()
    grown = len(gc.get_objects()) - before
    records = sum(len(block.body) for block in sim.chain.blocks[first:])
    # one tracked object per record would break the bound four times over
    assert records > 4 * per_pair * pairs
    assert grown <= per_pair * pairs
    assert sim.step().kind == INTERIM and sim.chain.state.pending
    gc.collect()
    assert not any(gc.is_tracked(sub) for block in sim.chain.blocks for sub in block.body)
    assert not any(gc.is_tracked(debit) for debit in sim.chain.state.pending.values())


def test_the_spendable_view_holds_the_mempool_senders_only(monkeypatch):
    # before every interim epoch the view holds one entry per mempool sender,
    # netted of its debits; the draw reads each other sender from the state
    # and gives the transactions and entries of a view of every account
    counts = []

    def recording(rng, registry, view, pks, *rest):
        state = sim.chain.state
        full = {pk: (state.balances[pk], state.nonces[pk]) for pk in pks}
        for tx in sim.mempool:
            balance, nonce = full[tx.sender]
            full[tx.sender] = (balance - tx.value, nonce + 1)
        senders = {tx.sender for tx in sim.mempool}
        assert sorted(view) == sorted(senders) and all(full[pk] == entry for pk, entry in view.items())
        counts.append(len(view))
        full_rng = split(0, "unused")
        full_rng.setstate(rng.getstate())
        txs = draw_traffic(rng, registry, view, pks, *rest)
        assert txs == draw_traffic(full_rng, registry, full, pks, *rest)
        assert all(full[pk] == entry for pk, entry in view.items())
        assert len(view) <= len(senders) + len(txs)
        return txs

    monkeypatch.setattr(consensus, "draw_traffic", recording)
    # half the keys offline: interim epochs time out and requeue 40, 80, 120
    # and 160 transactions, whose distinct senders are the view's entries
    params, epochs, _ = CASES["offline"]
    sim = ChainSimulation(**dict(params, offline_rate=0.5))
    sim.run(epochs)
    assert counts == [0, 31, 49, 55, 56]
    assert len(sim.chain.state.balances) == 60


def test_the_kept_account_column_is_the_sorted_accounts(monkeypatch):
    # before every interim epoch the traffic is drawn on the kept column,
    # which equals the sorted accounts, also after a test adds an account;
    # the chain's credited ids stay one log all run, re-shards included
    drawn = []

    def recording(rng, registry, view, pks, *rest):
        drawn.append(pks)
        return draw_traffic(rng, registry, view, pks, *rest)

    monkeypatch.setattr(consensus, "draw_traffic", recording)
    params, epochs, _ = CASES["reshard"]
    sim = ChainSimulation(**params)
    log = sim.chain.state.credited.log
    late = sim.population.registry.generate(b"late account")[1]
    for epoch in range(epochs + 2):
        if epoch == epochs:
            sim.chain.state.create_account(late, 0)
        accounts = sorted(sim.chain.state.balances)
        result = sim.step()
        if result.kind == INTERIM:
            assert drawn.pop() == accounts
        assert sim.chain.state.credited.log is log
    assert not drawn and late in accounts and sim.chain.state.n_shard > params["n_shard"]


# the shape of the chain-committee benchmark workload, at a tenth of its nodes
COMMITTEE_SHAPED = dict(n_nodes=200, stake_dist="fixed:2500", tx_per_epoch=100, offline_rate=0.1, seed=5)


def test_the_electorate_frames_its_keys_once(monkeypatch):
    # the electorate's keys are framed once, when the population is built,
    # and never again over ten epochs
    framed_lists = []
    framed_secrets = KeyRegistry.framed_secrets

    def recording(self, pks):
        framed_lists.append(list(pks))
        return framed_secrets(self, pks)

    monkeypatch.setattr(KeyRegistry, "framed_secrets", recording)
    sim = ChainSimulation(**COMMITTEE_SHAPED)
    electorate = sim.population.electorate
    assert [pks == electorate.pks for pks in framed_lists] == [True]
    sim.run(10)
    assert [pks == electorate.pks for pks in framed_lists].count(True) == 1


def test_committee_draws_read_no_registry(monkeypatch):
    # every committee of ten epochs, drawn again from a fresh population's
    # electorate with the registry unable to frame any key
    draws = []

    def recording(electorate, seed, ctype, p):
        committee = select_committee(electorate, seed, ctype, p)
        draws.append((seed, ctype, p, committee.pks, committee.weights))
        return committee

    monkeypatch.setattr(consensus, "select_committee", recording)
    ChainSimulation(**COMMITTEE_SHAPED).run(10)
    electorate = ChainSimulation(**COMMITTEE_SHAPED).population.electorate

    def unreadable(self, pks):
        raise AssertionError("a draw read the registry")

    monkeypatch.setattr(KeyRegistry, "framed_secrets", unreadable)
    assert {ctype for _, ctype, *_ in draws} >= {BLOCK_INTERIM, BLOCK_MAIN, "partition:0"}
    for seed, ctype, p, pks, weights in draws:
        committee = select_committee(electorate, seed, ctype, p)
        assert (committee.pks, committee.weights) == (pks, weights)


# --- run_epoch / pipeline ---


def test_empty_mempool_appends_empty_block():
    sim = small_sim()
    result = sim.step()
    assert result.kind == INTERIM and result.empty
    assert len(sim.chain.blocks) == 2


def test_epoch_pair_confirms_eagers_then_lazies():
    sim = small_sim(tau=50.0)
    sim.config.chain.tx_per_epoch = 30
    interim = sim.step()
    main = sim.step()
    assert interim.kind == INTERIM and main.kind == MAIN
    # oracle recount: every debit confirmed in the interim body has exactly one
    # credit in the main body, matched by parent id
    blocks = sim.chain.blocks
    eager_parents = sorted(parent_id for parent_id, _, _, _, _ in blocks[interim.epoch].body)
    lazy_parents = sorted(parent_id for parent_id, _, _, _, _ in blocks[main.epoch].body)
    assert eager_parents == lazy_parents
    assert interim.confirmed_subtx == 30
    assert sim.chain.state.total_balance() == sim.k_total


def test_mixed_validity_traffic_only_confirms_valid():
    sim = ChainSimulation(
        tx_per_epoch=40, invalid_fraction=0.3, seed=5,
        h=1.0, alpha=1.0, tau=50.0, theta=0.3, n_nodes=12, stake_dist="fixed:100",
    )
    interim = sim.step()
    assert interim.invalid_txs > 0
    assert interim.confirmed_subtx < 40
    sim.step()
    assert sim.chain.state.total_balance() == sim.k_total


def test_clock_advances_by_epoch_budget():
    sim = small_sim()
    cfg = sim.config.epochs
    sim.step()
    assert sim.clock == pytest.approx(cfg.interim_budget)
    sim.step()
    assert sim.clock == pytest.approx(cfg.interim_budget + cfg.main_budget)


def test_leader_fallback_skips_offline_proposer():
    # with the head of the leader order dark, the reference elects the next
    # entry, which votes on the epoch's block while the head does not
    sim = small_sim()
    reg = sim.population.registry
    seed = next_seed(sim.chain.tip.header.seed, sim.chain.tip.hash)
    committee = select_committee(sim.population.electorate, seed, BLOCK_INTERIM, sim.p)
    order = leader_order([(pk, leader_ticket(secret_key(reg, pk), seed).hash) for pk in committee.pks])
    result = run_epoch(
        sim.chain, [], sim.p, sim.config.epochs, sim.population,
        offline={order[0]},
    )
    block = sim.chain.blocks[result.epoch]
    assert block.header.seed == seed
    assert elect_proposer(reg, committee.pks, seed, set()) == order[0]
    proposer = elect_proposer(reg, committee.pks, seed, {order[0]})
    assert proposer == order[1]
    voters = block.header.votes.voters
    assert proposer in voters and order[0] not in voters
    assert elect_proposer(reg, committee.pks, seed, set(committee.pks)) is None


def test_offline_committee_yields_empty_block_not_stall():
    sim = small_sim()
    result = run_epoch(
        sim.chain, [], sim.p, sim.config.epochs, sim.population,
        offline=set(sim.population.pks),
    )
    assert result.empty and sim.chain.tip.is_timeout_block
    assert len(sim.chain.blocks) == 2


def test_interim_timeout_requeues_transactions():
    sim = small_sim()
    sim.config.chain.tx_per_epoch = 5
    sim.generate_transactions()
    assert len(sim.mempool) == 5
    result = run_epoch(
        sim.chain, sim.mempool, sim.p, sim.config.epochs, sim.population,
        offline=set(sim.population.pks),
    )
    assert result.empty
    assert len(sim.mempool) == 5  # everything deferred to the next round


# --- traffic generation ---

TRAFFIC_REGISTRY = KeyRegistry()
TRAFFIC_PKS = [TRAFFIC_REGISTRY.generate(b"traffic-%d" % i)[1] for i in range(70)]


@settings(max_examples=120, deadline=None)
@given(
    # 2^k and 2^k + 1 accounts sit on either side of a draw's bit-length step
    n_accounts=st.one_of(st.sampled_from([1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]), st.integers(1, 70)),
    accounts=st.lists(st.tuples(st.integers(-80, 120), st.integers(0, 2**32)), min_size=70, max_size=70),
    invalid_fraction=st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 1.0)),
    tx_per_epoch=st.integers(0, 200),
    seed=st.integers(0, 2**32),
)
def test_draw_traffic_repeats_the_randrange_choice_and_randint_generator(
    n_accounts, accounts, invalid_fraction, tx_per_epoch, seed
):
    view = dict(zip(TRAFFIC_PKS[:n_accounts], accounts))
    ours_view, ref_view = dict(view), dict(view)
    ours_rng, ref_rng = split(seed, "txgen"), split(seed, "txgen")
    ours = draw_traffic(ours_rng, TRAFFIC_REGISTRY, ours_view, sorted(view), tx_per_epoch, invalid_fraction)
    ref = generate_transactions(ref_rng, TRAFFIC_REGISTRY, ref_view, tx_per_epoch, invalid_fraction)
    # a Transaction compares every field, the signature included
    assert ours == ref
    assert ours_view == ref_view
    assert ours_rng.getstate() == ref_rng.getstate()


def test_draw_traffic_on_no_account_raises_as_randrange_does():
    assert draw_traffic(split(1, "txgen"), TRAFFIC_REGISTRY, {}, [], 0, 0.0) == []
    with pytest.raises(ValueError):
        generate_transactions(split(1, "txgen"), TRAFFIC_REGISTRY, {}, 1, 0.0)
    with pytest.raises(ValueError):
        draw_traffic(split(1, "txgen"), TRAFFIC_REGISTRY, {}, [], 1, 0.0)


def test_overdraws_near_the_balance_limit_stay_within_eight_bytes():
    # an overdraw asks for 10 past the balance; where that passes 2^64 - 1,
    # the largest value a transfer encodes, the draw takes the nonce-gap form
    low, high = TRAFFIC_PKS[:2]
    view = {low: (2**64 - 11, 0), high: (2**64 - 1, 0)}
    ours_view, ref_view = dict(view), dict(view)
    ours_rng, ref_rng = split(1, "txgen"), split(1, "txgen")
    ours = draw_traffic(ours_rng, TRAFFIC_REGISTRY, ours_view, sorted(view), 40, 1.0)
    ref = generate_transactions(ref_rng, TRAFFIC_REGISTRY, ref_view, 40, 1.0)
    assert ours == ref
    assert {tx.value for tx in ours if tx.sender == low} == {1, 2**64 - 1}
    assert {tx.value for tx in ours if tx.sender == high} == {1}
    assert {tx.nonce for tx in ours if tx.sender == high} == {1, 7}
    # every draw is invalid traffic: the ledger rejects each one
    state = LedgerState(1)
    for pk, (balance, nonce) in view.items():
        state.create_account(pk, balance, nonce)
    for tx in ours:
        with pytest.raises(TransactionRejected):
            apply_eager(state, split_transaction(tx, TRAFFIC_REGISTRY))


def test_alternation_over_many_epochs():
    sim = small_sim()
    sim.config.chain.tx_per_epoch = 8
    results = sim.run(12)
    for r in results:
        assert r.kind == (MAIN if r.epoch % 2 == 0 else INTERIM)


def test_deterministic_replay_same_seed():
    a = ChainSimulation(tx_per_epoch=25, invalid_fraction=0.2, seed=11, **SMALL)
    b = ChainSimulation(tx_per_epoch=25, invalid_fraction=0.2, seed=11, **SMALL)
    a.run(8)
    b.run(8)
    assert a.chain.export_jsonl() == b.chain.export_jsonl()


def test_different_seed_changes_chain():
    a = ChainSimulation(tx_per_epoch=25, seed=11, **SMALL)
    b = ChainSimulation(tx_per_epoch=25, seed=12, **SMALL)
    a.run(4)
    b.run(4)
    assert a.chain.export_jsonl() != b.chain.export_jsonl()


def test_adversarial_population_never_reaches_quorum_short_run():
    sim = ChainSimulation(
        h=0.75, alpha=0.7, tau=5000.0, theta=0.3,
        n_nodes=100, stake_dist="fixed:2500", tx_per_epoch=10, seed=13,
    )
    results = sim.run(10)
    quorum = sim.chain.quorum
    for r in results:
        assert r.adversary_weight < quorum
        assert not r.empty  # honest majority keeps confirming


def test_population_stake_partitioning():
    pop = Population.build(200, "fixed:100", alpha=0.7, h=0.75, master_seed=1)
    total = pop.total_stake
    stake_of = dict(zip(pop.pks, pop.stakes))
    online = sum(stake_of[pk] for pk in pop.online)
    byz = sum(stake_of[pk] for pk in pop.strategies)
    assert abs(online - 0.7 * total) <= 200  # within stake granularity
    assert byz <= 0.25 * online
    assert set(pop.strategies) <= set(pop.online)


STAKE_SPECS = st.one_of(
    st.integers(1, 1000).map(lambda v: f"fixed:{v}"),
    st.tuples(st.integers(1, 100), st.integers(0, 900)).map(lambda t: f"uniform:{t[0]}:{t[0] + t[1]}"),
    st.sampled_from([1.1, 1.5, 2.0, 3.0]).map(lambda shape: f"pareto:{shape}"),
)


@settings(max_examples=150, deadline=None)
@given(
    n_nodes=st.integers(1, 60),
    spec=STAKE_SPECS,
    alpha=st.floats(0.01, 1.0),
    h=st.floats(0.67, 1.0),
    seed=st.integers(0, 2**32),
)
def test_population_build_on_generated_inputs(n_nodes, spec, alpha, h, seed):
    pop = Population.build(n_nodes, spec, alpha=alpha, h=h, master_seed=seed)
    assert len(pop.pks) == len(pop.stakes) == n_nodes == len(set(pop.pks))
    online = set(pop.online)
    assert pop.online == [pk for pk in pop.pks if pk in online]
    # the online set is the shortest prefix of the build's node shuffle that
    # reaches alpha * K
    rng = split(seed, "population")
    assert dist_sampler(spec, integer=True, minimum=1)(rng, n_nodes) == pop.stakes
    order = list(range(n_nodes))
    rng.shuffle(order)
    added = order[:len(online)]
    assert {pop.pks[i] for i in added} == online
    online_stake = sum(pop.stakes[i] for i in added)
    assert online_stake >= alpha * pop.total_stake
    assert online_stake - pop.stakes[added[-1]] < alpha * pop.total_stake
    stake_of = dict(zip(pop.pks, pop.stakes))
    assert set(pop.strategies) <= online
    assert set(pop.strategies.values()) <= set(consensus.STRATEGIES)
    assert sum(stake_of[pk] for pk in pop.strategies) <= (1.0 - h) * online_stake
    assert pop.electorate.pks == sorted(online)
    sim = small_sim(offline_rate=0.5)
    sim.population = pop
    assert sim._draw_offline() <= online


def test_unknown_keyword_key_is_a_type_error():
    # a config section's full name is no keyword, nor is a relay or drs key
    for name in ("nodes", "population.nodes", "relayers", "partition_cfg"):
        with pytest.raises(TypeError, match=name):
            ChainSimulation(**{name: 1})


def test_every_stake_must_fit_the_eight_byte_balance():
    # 2^64 - 2048 is the largest float-parsed stake below 2^64
    sim = ChainSimulation(n_nodes=2, stake_dist=f"fixed:{2**64 - 2048}")
    assert sim.population.stakes == [2**64 - 2048] * 2
    with pytest.raises(ValidationError) as err:
        ChainSimulation(n_nodes=2, stake_dist=f"fixed:{2**64}")
    assert err.value.field == "population.stake_dist"


def test_epoch_config_rejects_non_positive_durations():
    # the library path rejects what a config file would, before any draw
    for key in ("delta_micro", "delta_interim", "delta_main", "delta_leader"):
        with pytest.raises(ValidationError) as err:
            ChainSimulation(**{key: 0.0})
        assert err.value.field == f"epochs.{key}"


def test_assemble_interim_rejects_misrouted_micro_block():
    from fission_sim.errors import InvariantViolation
    from fission_sim.consensus import assemble_interim

    sim = small_sim(n_nodes=12)
    reg = sim.population.registry
    sender, receiver = sim.population.pks[:2]
    eager = split_transaction(make_transfer(reg, sender, receiver, 1, 1), reg)
    (home,) = home_partitions([sender], sim.chain.state.n_shard, 2)
    wrong = 1 - home
    seed = next_seed(sim.chain.tip.header.seed, sim.chain.tip.hash)
    committee = select_committee(sim.population.electorate, seed, BLOCK_INTERIM, sim.p)
    micros = [[], []]  # partition k's included debits at position k
    micros[wrong].append(eager)
    with pytest.raises(InvariantViolation) as err:
        assemble_interim(sim.chain, micros, cast_ballot(committee, sim.population, set()), sim.population)
    assert err.value.invariant == "micro-partition"


def test_conflicting_quorum_is_caught_at_assembly():
    # run_epoch's adversary-quorum check fires first on such a committee, so
    # only a direct call reaches this invariant
    sim = small_sim()
    pop = sim.population
    strategies = dict.fromkeys(pop.pks, consensus.VOTE_CONFLICTING)
    sim.population = Population(pop.pks, pop.stakes, pop.online, strategies, pop.registry)
    committee = select_committee(sim.population.electorate, sim.chain.next_header().seed, BLOCK_MAIN, sim.p)
    assert sum(committee.weights) >= sim.chain.quorum
    tip = sim.chain.tip
    with pytest.raises(InvariantViolation) as err:
        consensus.assemble_main(sim.chain, cast_ballot(committee, sim.population, set()), sim.population)
    assert err.value.invariant == "conflicting-block"
    assert sim.chain.tip is tip


def test_partition_count_scales_and_resharding_doubles_shards():
    # a tiny per-partition budget forces the partition count up to the shard
    # count; a full window of saturated credit blocks then splits the shards
    sim = ChainSimulation(
        h=1.0, alpha=1.0, tau=50.0, theta=0.3, n_nodes=12, stake_dist="fixed:100",
        n_partition=1, n_shard=2, n_e_max=4, delta=0.8, n_rs=2,
        tx_per_epoch=40, seed=3,
    )
    results = sim.run(16)
    assert any(r.n_partition == 2 and r.n_shard == 2 for r in results)  # saturated
    assert sim.chain.state.n_shard >= 4  # at least one split happened
    shard_trajectory = [r.n_shard for r in results]
    assert shard_trajectory == sorted(shard_trajectory)  # shards only grow
    assert sim.chain.state.total_balance() + sim.chain.state.pending_value() == sim.k_total
    # re-homed accounts keep their balances through the split
    for pk in sim.population.pks:
        assert pk in sim.chain.state.balances


def test_reshard_window_restarts_after_a_split():
    # from one shard the first main block after a split is already saturated,
    # so only a window cleared at the split keeps the saturated main blocks
    # before it from splitting the shards again at once
    sim = ChainSimulation(
        **SMALL, tx_per_epoch=40, seed=3,
        n_partition=1, n_shard=1, n_e_max=4, delta=0.8, n_rs=1,
    )
    results = sim.run(10)
    assert [r.n_partition for r in results] == [1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert [r.n_shard for r in results] == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4]


def test_reshard_window_holds_only_what_the_trigger_reads():
    # the eight default shards never saturate here, so no split clears the
    # window; it still keeps only the last n_rs + 1 main blocks
    sim = ChainSimulation(**SMALL, seed=3, n_rs=3)
    results = sim.run(40)
    assert all(r.n_partition < r.n_shard == 8 for r in results)
    assert len(sim.chain._main_window) == 4


# --- chain properties on generated configs ---


@settings(max_examples=60, deadline=None)
@given(
    n_nodes=st.integers(8, 60),
    stake_dist=STAKE_SPECS,
    offline_rate=st.floats(0.0, 0.9),
    invalid_fraction=st.floats(0.0, 1.0),
    tx_per_epoch=st.integers(0, 40),
    n_shard=st.integers(1, 8),
    n_partition=st.integers(1, 8),
    n_e_max=st.integers(1, 8),
    n_rs=st.integers(1, 3),
    epochs=st.integers(4, 16),
    seed=st.integers(0, 2**16),
)
# a timeout defers an overdraw, whose debit leaves the sender's spendable view
# below zero for the next overdraw drawn on it
@example(
    n_nodes=8, stake_dist="fixed:1", offline_rate=0.6, invalid_fraction=0.5, tx_per_epoch=10,
    n_shard=2, n_partition=1, n_e_max=1, n_rs=1, epochs=5, seed=0,
)
# busy enough to saturate one shard and then two, so it re-shards at epochs
# 4 and 8, and the second window holds only main blocks after the first split
@example(
    n_nodes=20, stake_dist="fixed:100", offline_rate=0.0, invalid_fraction=0.0, tx_per_epoch=40,
    n_shard=1, n_partition=1, n_e_max=1, n_rs=1, epochs=12, seed=1,
)
def test_chain_properties_on_generated_configs(epochs, **keys):
    # an all-honest, always-active population, with tau below any drawn K
    keys.update(h=1.0, alpha=1.0, tau=5.0, theta=0.3)
    try:
        cfg = load_config(None, {CHAIN_KEYWORDS[key]: value for key, value in keys.items()})
        before = copy.deepcopy(cfg)
        sim = ChainSimulation(cfg)
    except ValidationError:
        assume(False)
    shards = [cfg.partition.n_shard]
    results = []
    for _ in range(epochs):
        r = sim.step()
        results.append(r)
        state = sim.chain.state
        assert state.total_balance() + state.pending_value() == sim.k_total
        assert r.kind == (MAIN if r.epoch % 2 == 0 else INTERIM)
        assert 1 <= r.n_partition <= r.n_shard
        shards += [r.n_shard, state.n_shard]
    assert all(b in (a, 2 * a) for a, b in zip(shards, shards[1:]))

    # re-shard window: the shard count doubles right after the main block
    # that completes a run of n_rs + 1 saturated (n_partition == n_shard)
    # main blocks since the last re-shard, and after no other block; genesis
    # is sealed, not appended, so the first run starts at epoch 2
    headers = [block.header for block in sim.chain.blocks[1:]]
    following = [header.n_shard for header in headers[1:]] + [state.n_shard]
    run = 0
    for header, n_shard in zip(headers, following):
        if header.kind == MAIN:
            run = run + 1 if header.n_partition == header.n_shard else 0
        reshard = run == cfg.partition.n_rs + 1
        assert n_shard == (2 if reshard else 1) * header.n_shard
        if reshard:
            run = 0

    # eventual atomicity: each confirmed debit is credited exactly once, by
    # the next non-empty main block, or is still pending at the end; records
    # are hashable tuples, so they count as they are
    interims = [block for block in sim.chain.blocks if block.header.kind == INTERIM]
    debits = Counter(parent_id for block in interims for parent_id, _, _, _, _ in block.body)
    assert all(n == 1 for n in debits.values())
    outstanding = Counter()
    for block in sim.chain.blocks:
        if block.header.kind == INTERIM:
            outstanding += Counter(block.body)
        elif block.body:
            assert Counter(block.body) == outstanding
            outstanding = Counter()
    assert outstanding == Counter(state.pending.values())

    again = ChainSimulation(cfg)
    assert again.run(epochs) == results
    assert again.chain.export_jsonl() == sim.chain.export_jsonl()
    assert cfg == before and sim.config == before and again.config == before


@settings(max_examples=25, deadline=None)
@given(
    n_nodes=st.integers(8, 40),
    stake_dist=STAKE_SPECS,
    offline_rate=st.floats(0.0, 0.9),
    invalid_fraction=st.floats(0.0, 1.0),
    tx_per_epoch=st.integers(0, 30),
    n_shard=st.integers(1, 4),
    n_partition=st.integers(1, 4),
    epochs=st.integers(0, 10),
    seed=st.integers(0, 2**16),
)
def test_two_chain_cli_runs_write_the_same_rows_and_summary(epochs, seed, **keys):
    # the CSV rows and the summary are as pure as the JSONL: two in-process
    # `fission-sim chain` runs of one generated config write the same bytes
    keys.update(h=1.0, alpha=1.0, tau=5.0, theta=0.3)
    config = "".join(f"{CHAIN_KEYWORDS[key]} = {value}\n" for key, value in keys.items())
    outputs = []
    with tempfile.TemporaryDirectory() as tmp:
        for run in ("a", "b"):
            root = Path(tmp, run)
            root.mkdir()
            (root / "run.cfg").write_text(config)
            argv = [
                "chain", "--config", str(root / "run.cfg"), "--epochs", str(epochs), "--seed", str(seed),
                "--out", str(root / "chain.jsonl"), "--metrics", str(root / "metrics.csv"),
            ]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assume(code == 0)  # a config that fails validation exits 2 and writes nothing
            outputs.append({path.name: path.read_bytes() for path in sorted(root.iterdir())})
    assert sorted(outputs[0]) == ["chain.jsonl", "metrics.csv", "metrics.summary.json", "run.cfg"]
    assert outputs[0] == outputs[1]
    assert outputs[0]["metrics.csv"].count(b"\n") == epochs + 1
