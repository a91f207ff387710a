from functools import lru_cache
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim import consensus
from fission_sim.chain import INTERIM, MAIN, Votes, next_seed, tally
from fission_sim.consensus import (
    ChainSimulation,
    EpochConfig,
    Population,
    Timeout,
    _elect_proposer,
    micro_round,
    run_epoch,
)
from fission_sim.crypto import VrfOutput, sha3, sign
from fission_sim.errors import InvariantViolation, ValidationError
from fission_sim.ledger import make_transfer, split_transaction
from fission_sim.partitioning import PartitionConfig
from fission_sim.sortition import (
    BLOCK_INTERIM,
    BLOCK_MAIN,
    SecurityParams,
    Committee,
    leader_order,
    leader_ticket,
    leader_tickets,
    select_committee,
)

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
    return Votes(h, voters, [w for _, w in cast], [sign(b"sk" + pk, h) for pk in voters])


def test_tally_boundary():
    h = sha3(b"block")
    a, b = b"\x01" * 32, b"\x02" * 32
    assert tally(votes(h, (a, 800), (b, 700)), 1500).confirmed
    assert not tally(votes(h, (a, 800), (b, 699)), 1500).confirmed


def test_tally_counts_duplicate_voters_once():
    h = sha3(b"block")
    a, b = b"\x01" * 32, b"\x02" * 32
    result = tally(votes(h, (a, 800), (a, 800), (b, 700)), 1500)
    assert result.confirmed and result.weight == 1500


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
        result = tally(votes(h, *cast), quorum)
        assert result.weight == sum(seen.values())
        assert result.confirmed == (sum(seen.values()) >= quorum)
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
        column.signatures.append(sign(sk, column.block_hash))

    other = sha3(b"conflict" + proposal)
    votes, conflicting = Votes(proposal), Votes(other)
    nodes = {n.pk: n for n in population.nodes}
    for pk, weight in zip(committee.pks, committee.weights):
        node = nodes[pk]
        if pk in offline:
            continue
        if not node.byzantine or node.strategy == consensus.EQUIVOCATE:
            cast(votes, pk, weight, node.sk)
        if node.byzantine and node.strategy in (consensus.VOTE_CONFLICTING, consensus.EQUIVOCATE):
            cast(conflicting, pk, weight, node.sk)
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
    population = Population.build(16, "fixed:100", alpha=1.0, h=1.0, master_seed=world)
    for node, role in zip(population.nodes, roles):
        node.byzantine, node.strategy = role is not None, role or consensus.WITHHOLD
    population = Population(population.nodes, population.registry)  # roles are read at build
    offline = {n.pk for n, dark in zip(population.nodes, offline_mask) if dark}
    committee = select_committee(
        population.online_stakes(), proposal, BLOCK_MAIN, 0.05, population.registry
    )
    return population, offline, committee


@settings(max_examples=100, deadline=None)
@given(**VOTING_WORLDS)
def test_collect_votes_equals_per_member_signatures(roles, offline_mask, proposal, world):
    population, offline, committee = voting_world(roles, offline_mask, proposal, world)
    votes = consensus.collect_votes(committee, population, proposal, offline)
    assert votes == reference_votes(committee, population, proposal, offline)[0]
    nodes = {n.pk: n for n in population.nodes}
    byzantine = [w for pk, w in zip(committee.pks, committee.weights) if nodes[pk].byzantine]
    assert consensus.adversary_weight(committee, population) == sum(byzantine)


@settings(max_examples=100, deadline=None)
@given(**VOTING_WORLDS)
def test_vote_weights_equal_tallies_of_the_reference_votes(roles, offline_mask, proposal, world):
    population, offline, committee = voting_world(roles, offline_mask, proposal, world)
    votes, conflicting = reference_votes(committee, population, proposal, offline)
    assert consensus.vote_weights(committee, population, offline) == (
        tally(votes, 0).weight, tally(conflicting, 0).weight
    )


# --- micro rounds ---


def test_micro_round_zero_online_weight_times_out():
    sim = small_sim()
    committee = select_committee(
        sim.population.online_stakes(), b"s", "partition:0", sim.security.p, sim.population.registry
    )
    offline = set(committee.pks)
    outcome, deferred, invalid = micro_round(
        0, [], committee, sim.epoch_cfg, sim.chain.state, sim.population, offline
    )
    assert isinstance(outcome, Timeout)


def test_micro_round_defers_overflow_prefix_by_arrival():
    sim = small_sim()
    cfg = EpochConfig(
        security=sim.security, delta_micro=1.0, micro_throughput=0.0001
    )  # capacity rounds down to 0 per member... use throughput that yields capacity 3
    committee = select_committee(
        sim.population.online_stakes(), b"s", "partition:0", sim.security.p, sim.population.registry
    )
    capacity_target = 3
    cfg.micro_throughput = capacity_target / (cfg.delta_micro * len(committee))
    reg = sim.population.registry
    sender = sim.population.nodes[0]
    subs = []
    for n in range(1, 7):
        tx = make_transfer(reg, sender.sk, sim.population.nodes[1].pk, 1, n)
        subs.append(split_transaction(tx, reg))
    outcome, deferred, invalid = micro_round(
        0, subs, committee, cfg, sim.chain.state, sim.population
    )
    assert not isinstance(outcome, Timeout)
    assert [s.nonce for s in outcome.sub_txs] == [1, 2, 3]  # arrival-order prefix
    assert [s.nonce for s in deferred] == [4, 5, 6]
    assert invalid == []


def test_micro_round_capacity_counts_online_members_only():
    # one sub-transaction per online member; offline keys outside the
    # committee do not count against it
    sim = small_sim()
    reg = sim.population.registry
    committee = select_committee(
        sim.population.online_stakes(), b"s", "partition:0", sim.security.p, reg
    )
    offline = {committee.pks[0], b"\x00" * 32}
    cfg = EpochConfig(security=sim.security, delta_micro=1.0, micro_throughput=1.0)
    sender, receiver = sim.population.nodes[0], sim.population.nodes[1]
    subs = [
        split_transaction(make_transfer(reg, sender.sk, receiver.pk, 1, n), reg)
        for n in range(1, len(committee) + 1)
    ]
    outcome, deferred, invalid = micro_round(
        0, subs, committee, cfg, sim.chain.state, sim.population, offline
    )
    assert len(committee) > 1
    assert len(outcome.sub_txs) == len(committee) - 1
    assert deferred == subs[len(committee) - 1:] and invalid == []


def test_micro_round_filters_invalid_state_transitions():
    sim = small_sim()
    reg = sim.population.registry
    sender = sim.population.nodes[0]
    good = split_transaction(make_transfer(reg, sender.sk, sim.population.nodes[1].pk, 1, 1), reg)
    overdraw = split_transaction(
        make_transfer(reg, sender.sk, sim.population.nodes[1].pk, 10**9, 2), reg
    )
    committee = select_committee(
        sim.population.online_stakes(), b"s", "partition:0", sim.security.p, sim.population.registry
    )
    outcome, deferred, invalid = micro_round(
        0, [good, overdraw], committee, sim.epoch_cfg, sim.chain.state, sim.population
    )
    assert [s.nonce for s in outcome.sub_txs] == [1]
    assert invalid == [overdraw]


def test_micro_round_propagates_errors_that_are_not_protocol_errors(monkeypatch):
    # only FissionError marks a sub-transaction invalid; a bug in state
    # application must surface instead of being counted as invalid traffic
    sim = small_sim()
    reg = sim.population.registry
    sender = sim.population.nodes[0]
    eager = split_transaction(make_transfer(reg, sender.sk, sim.population.nodes[1].pk, 1, 1), reg)
    committee = select_committee(
        sim.population.online_stakes(), b"s", "partition:0", sim.security.p, reg
    )

    def broken(state, sub):
        raise RuntimeError("state bug")

    monkeypatch.setattr(consensus, "apply_eager", broken)
    with pytest.raises(RuntimeError, match="state bug"):
        micro_round(0, [eager], committee, sim.epoch_cfg, sim.chain.state, sim.population)


# --- run_epoch / pipeline ---


def test_empty_mempool_appends_empty_block():
    sim = small_sim()
    result = sim.step()
    assert result.kind == INTERIM and result.empty
    assert len(sim.chain.blocks) == 2


def test_epoch_pair_confirms_eagers_then_lazies():
    sim = small_sim(tau=50.0)
    sim.tx_per_epoch = 30
    interim = sim.step()
    main = sim.step()
    assert interim.kind == INTERIM and main.kind == MAIN
    # oracle recount: every debit confirmed in the interim body has exactly one
    # credit in the main body, matched by parent id
    eager_parents = sorted(s.parent_id for s in interim.block.body)
    lazy_parents = sorted(s.parent_id for s in main.block.body)
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
    cfg = sim.epoch_cfg
    sim.step()
    assert sim.clock == pytest.approx(cfg.interim_budget)
    sim.step()
    assert sim.clock == pytest.approx(cfg.interim_budget + cfg.main_budget)


def test_leader_fallback_skips_offline_proposer():
    sim = small_sim()
    seed = next_seed(sim.chain.tip.header.seed, sim.chain.tip.hash)
    stakes = sim.population.online_stakes()
    committee = select_committee(stakes, seed, BLOCK_INTERIM, sim.security.p, sim.population.registry)
    tickets = [
        (pk, leader_ticket(sim.population.registry.secret_for(pk), seed).hash) for pk in committee.pks
    ]
    order = leader_order(tickets)
    result = run_epoch(
        sim.chain, [], sim.epoch_cfg, sim.population,
        offline={order[0]},
    )
    assert result.proposer == order[1]


@lru_cache(maxsize=1)
def proposer_world():
    """A 40-node population and its block committee at the first epoch seed."""
    sim = ChainSimulation(n_nodes=40, tx_per_epoch=0, seed=4)
    seed = next_seed(sim.chain.tip.header.seed, sim.chain.tip.hash)
    committee = select_committee(
        sim.population.online_stakes(), seed, BLOCK_INTERIM, sim.security.p, sim.population.registry
    )
    return sim.population, committee


def coarse_ticket(sk, seed):
    """A leader ticket with three possible values, so that pks break ties."""
    return VrfOutput(hash=bytes([leader_ticket(sk, seed).hash[0] % 3]) * 32, proof=b"")


def coarse_tickets(framed_sks, seed):
    """``coarse_ticket`` on the batched ticket path."""
    return [bytes([t[0] % 3]) * 32 for t in leader_tickets(framed_sks, seed)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), seed=st.binary(max_size=40), coarse=st.booleans())
def test_elect_proposer_is_first_online_entry_of_leader_order(data, seed, coarse):
    population, committee = proposer_world()
    picked = sorted(data.draw(st.sets(st.sampled_from(range(len(committee))))))
    members = Committee(
        [committee.pks[i] for i in picked],
        [committee.weights[i] for i in picked],
        [committee.hashes[i] for i in picked],
    )
    offline = data.draw(st.sets(st.sampled_from(committee.pks + [b"\x00" * 32])))
    ticket = coarse_ticket if coarse else leader_ticket
    order = leader_order(
        [(pk, ticket(population.registry.secret_for(pk), seed).hash) for pk in members.pks]
    ) if members else []
    expected = next((pk for pk in order if pk not in offline), None)
    with patch.object(consensus, "leader_tickets", coarse_tickets if coarse else leader_tickets):
        assert _elect_proposer(members, population, seed, offline) == expected
        assert _elect_proposer(members, population, seed, set(members.pks)) is None


def test_offline_committee_yields_empty_block_not_stall():
    sim = small_sim()
    all_pks = {n.pk for n in sim.population.nodes}
    result = run_epoch(
        sim.chain, [], sim.epoch_cfg, sim.population,
        offline=all_pks,
    )
    assert result.empty and result.block.is_timeout_block
    assert len(sim.chain.blocks) == 2


def test_interim_timeout_requeues_transactions():
    sim = small_sim()
    sim.tx_per_epoch = 5
    sim.generate_transactions()
    assert len(sim.mempool) == 5
    all_pks = {n.pk for n in sim.population.nodes}
    result = run_epoch(
        sim.chain, sim.mempool, sim.epoch_cfg, sim.population,
        offline=all_pks,
    )
    assert result.empty
    assert len(sim.mempool) == 5  # everything deferred to the next round


def test_alternation_over_many_epochs():
    sim = small_sim()
    sim.tx_per_epoch = 8
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
    quorum = sim.security.quorum
    for r in results:
        assert r.adversary_weight < quorum
        assert not r.empty  # honest majority keeps confirming


def test_population_stake_partitioning():
    pop = Population.build(200, "fixed:100", alpha=0.7, h=0.75, master_seed=1)
    total = pop.total_stake
    online = sum(n.stake for n in pop.nodes if n.online)
    byz = sum(n.stake for n in pop.nodes if n.byzantine)
    assert abs(online - 0.7 * total) <= 200  # within stake granularity
    assert byz <= 0.25 * online
    assert all(n.online for n in pop.nodes if n.byzantine)


def test_every_stake_must_fit_the_eight_byte_balance():
    # 2^64 - 2048 is the largest float-parsed stake below 2^64
    sim = ChainSimulation(n_nodes=2, stake_dist=f"fixed:{2**64 - 2048}")
    assert [n.stake for n in sim.population.nodes] == [2**64 - 2048] * 2
    with pytest.raises(ValidationError) as err:
        ChainSimulation(n_nodes=2, stake_dist=f"fixed:{2**64}")
    assert err.value.field == "population.stake_dist"


def test_epoch_config_rejects_non_positive_durations():
    params = SecurityParams(0.75, 0.7, 5000, 0.3, 1_000_000)
    with pytest.raises(ValueError):
        EpochConfig(security=params, delta_micro=0.0)


def test_assemble_interim_rejects_misrouted_micro_block():
    from fission_sim.chain import MicroBlock
    from fission_sim.errors import InvariantViolation
    from fission_sim.consensus import assemble_interim
    from fission_sim.partitioning import partition_of
    from fission_sim.ledger import shard_of

    sim = small_sim(n_nodes=12)
    reg = sim.population.registry
    sender = sim.population.nodes[0]
    eager = split_transaction(make_transfer(reg, sender.sk, sim.population.nodes[1].pk, 1, 1), reg)
    home = partition_of(shard_of(sender.pk, sim.chain.state.n_shard), 2)
    wrong = 1 - home
    seed = next_seed(sim.chain.tip.header.seed, sim.chain.tip.hash)
    committee = select_committee(
        sim.population.online_stakes(), seed, BLOCK_INTERIM, sim.security.p, reg
    )
    with pytest.raises(InvariantViolation):
        assemble_interim(
            sim.chain, [MicroBlock(wrong, [eager])], committee, sim.epoch_cfg,
            sim.population,
        )


def test_conflicting_quorum_is_caught_at_assembly():
    # run_epoch's adversary-quorum check fires first on such a committee, so
    # only a direct call reaches this invariant
    sim = small_sim()
    for node in sim.population.nodes:
        node.byzantine, node.strategy = True, consensus.VOTE_CONFLICTING
    sim.population = Population(sim.population.nodes, sim.population.registry)  # roles are read at build
    committee = select_committee(
        sim.population.online_stakes(), sim.chain.next_header().seed, BLOCK_MAIN,
        sim.security.p, sim.population.registry,
    )
    assert sum(committee.weights) >= sim.security.quorum
    tip = sim.chain.tip
    with pytest.raises(InvariantViolation) as err:
        consensus.assemble_main(sim.chain, committee, sim.epoch_cfg, sim.population)
    assert err.value.invariant == "conflicting-block"
    assert sim.chain.tip is tip


def test_partition_count_scales_and_resharding_doubles_shards():
    # a tiny per-partition budget forces the partition count up to the shard
    # count; a full window of saturated credit blocks then splits the shards
    sim = ChainSimulation(
        h=1.0, alpha=1.0, tau=50.0, theta=0.3, n_nodes=12, stake_dist="fixed:100",
        partition_cfg=PartitionConfig(n_partition=1, n_shard=2, n_e_max=4, delta=0.8, n_rs=2),
        tx_per_epoch=40, seed=3,
    )
    results = sim.run(16)
    assert any(r.n_partition == 2 and r.n_shard == 2 for r in results)  # saturated
    assert sim.chain.state.n_shard >= 4  # at least one split happened
    shard_trajectory = [r.n_shard for r in results]
    assert shard_trajectory == sorted(shard_trajectory)  # shards only grow
    assert sim.chain.state.total_balance() + sim.chain.state.pending_value() == sim.k_total
    # re-homed accounts keep their balances through the split
    for node in sim.population.nodes:
        assert sim.chain.state.get_account(node.pk) is not None


def test_reshard_window_restarts_after_a_split():
    # from one shard the first main block after a split is already saturated,
    # so only a window cleared at the split keeps the saturated main blocks
    # before it from splitting the shards again at once
    sim = ChainSimulation(
        **SMALL, tx_per_epoch=40, seed=3,
        partition_cfg=PartitionConfig(n_partition=1, n_shard=1, n_e_max=4, delta=0.8, n_rs=1),
    )
    results = sim.run(10)
    assert [r.n_partition for r in results] == [1, 1, 1, 1, 1, 2, 2, 2, 2, 3]
    assert [r.n_shard for r in results] == [1, 1, 1, 1, 2, 2, 2, 2, 4, 4]
