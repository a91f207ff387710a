from dataclasses import replace
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.chain import (
    GENESIS_SEED,
    INTERIM,
    MAIN,
    ZERO_HASH,
    Block,
    BlockHeader,
    Chain,
    Votes,
    block_to_dict,
    compute_root_arrays,
    kind_for_epoch,
    next_seed,
    tally,
)
from fission_sim.config import PartitionSettings
from fission_sim.consensus import ChainSimulation, cast_ballot, collect_votes
from fission_sim.crypto import KeyRegistry, sha3, sign
from fission_sim.errors import (
    AlternationViolation,
    BadInterimLink,
    BadNonce,
    CreditMismatch,
    DoubleCredit,
    DuplicateDebit,
    FissionError,
    InsufficientVotes,
    InvariantViolation,
    MalformedBody,
    MalformedCertificate,
    PartitionMismatch,
    RootMismatch,
)
from fission_sim.ledger import (
    EAGER,
    LAZY,
    LedgerState,
    apply_eager,
    apply_lazy,
    make_transfer,
    split_transaction,
)
from fission_sim.sortition import BLOCK_MAIN, select_committee
from test_golden import CASES
from test_state_properties import equal_copy, snapshot


def build_chain(n_shard=4, quorum=10, balances=(), partition=None):
    state = LedgerState(n_shard)
    for pk, bal in balances:
        state.create_account(pk, bal)
    partition = partition or PartitionSettings(n_shard=n_shard, n_partition=1)
    return Chain(state, quorum=quorum, partition=partition)


def make_block(chain, body, kind=None, votes=None, seed=None):
    """The next block for ``body``, derived here independently of
    ``Chain.propose``."""
    tip = chain.tip
    epoch = tip.epoch + 1
    kind = kind or kind_for_epoch(epoch)
    entry_kind = EAGER if kind == INTERIM else LAZY
    scratch = chain.state.clone()
    for sub in body:
        (apply_eager if entry_kind == EAGER else apply_lazy)(scratch, sub)
    tx_root, account_root, log_root = compute_root_arrays(entry_kind, body, scratch)
    header = BlockHeader(
        epoch=epoch,
        kind=kind,
        parent_hash=tip.hash,
        interim_hash=tip.hash if kind == MAIN else ZERO_HASH,
        tx_root=tx_root,
        account_root=account_root,
        tx_log_root=log_root,
        seed=seed if seed is not None else sha3(tip.header.seed + tip.hash),
        n_shard=chain.state.n_shard,
        n_partition=tip.header.n_partition,
        votes=votes or Votes(),
    )
    return Block(header=header, body=body)


def signed_votes(block, sk, *cast):
    """``Votes`` on ``block``'s hash from (voter, weight) pairs, each signed with ``sk``."""
    h = block.hash
    return Votes(h, [pk for pk, _ in cast], [w for _, w in cast], sign(sk, h) * len(cast))


def test_genesis_is_main_at_epoch_zero():
    chain = build_chain()
    g = chain.tip
    assert g.epoch == 0 and g.header.kind == MAIN
    assert g.header.seed == GENESIS_SEED == sha3(b"fission-genesis")


def test_genesis_then_interim_accepted():
    chain = build_chain()
    chain.append_block(make_block(chain, []))
    assert chain.tip.epoch == 1 and chain.tip.header.kind == INTERIM


def test_alternation_enforced():
    chain = build_chain()
    bad = make_block(chain, [], kind=MAIN)  # epoch 1 must be interim
    bad.header.interim_hash = chain.tip.hash
    with pytest.raises(AlternationViolation):
        chain.append_block(bad)


def test_epoch_gap_rejected():
    chain = build_chain()
    block = make_block(chain, [])
    block.header.epoch = 3
    with pytest.raises(AlternationViolation):
        chain.append_block(block)


def test_main_block_needs_interim_link():
    chain = build_chain()
    chain.append_block(make_block(chain, []))  # interim, epoch 1
    main = make_block(chain, [])  # main, epoch 2
    main.header.interim_hash = sha3(b"wrong")
    with pytest.raises(BadInterimLink):
        chain.append_block(main)


def test_root_mismatch_detected():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    _, pk_b = reg.generate(b"b")
    chain = build_chain(balances=[(pk_a, 100), (pk_b, 0)])
    eager = split_transaction(make_transfer(reg, pk_a, pk_b, 5, 1), reg)
    block = make_block(chain, [eager])
    block.header.tx_root = [sha3(b"junk")] * chain.state.n_shard
    with pytest.raises(RootMismatch):
        chain.append_block(block)


def test_account_root_tracks_nonce_at_equal_balance():
    # a self-transfer's debit and credit leave the balance as it was and bump
    # the nonce; the cached leaf of the old (balance, nonce) must not be reused
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    state = LedgerState(2)
    state.create_account(pk_a, 100)
    _, before, _ = compute_root_arrays(EAGER, [], state)
    debit = split_transaction(make_transfer(reg, pk_a, pk_a, 5, 1), reg)
    after = state.clone()
    apply_eager(after, debit)
    apply_lazy(after, debit)
    assert after.balances[pk_a] == 100
    _, rooted, _ = compute_root_arrays(EAGER, [], after)
    fresh = LedgerState(2)
    fresh.create_account(pk_a, 100, nonce=1)
    assert rooted == compute_root_arrays(EAGER, [], fresh)[1] != before
    assert compute_root_arrays(EAGER, [], state)[1] == before


def test_vote_quorum_enforced():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    _, pk_b = reg.generate(b"b")
    chain = build_chain(quorum=10, balances=[(pk_a, 100), (pk_b, 0)])
    eager = split_transaction(make_transfer(reg, pk_a, pk_b, 5, 1), reg)

    underweight = make_block(chain, [eager])
    underweight.header.votes = signed_votes(underweight, sk_a, (pk_a, 9))
    with pytest.raises(InsufficientVotes):
        chain.append_block(underweight)

    enough = make_block(chain, [eager])
    enough.header.votes = signed_votes(enough, sk_a, (pk_a, 6), (pk_b, 4))
    chain.append_block(enough)
    assert chain.tip is enough


def test_duplicate_voters_counted_once_at_append():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    chain = build_chain(quorum=10, balances=[(pk_a, 100)])
    block = make_block(chain, [])
    block.header.votes = signed_votes(block, sk_a, (pk_a, 6), (pk_a, 6))
    with pytest.raises(InsufficientVotes):
        chain.append_block(block)


def test_block_to_dict_writes_each_vote_as_voter_weight_signature():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    _, pk_b = reg.generate(b"b")
    chain = build_chain(quorum=10, balances=[(pk_a, 100)])
    block = make_block(chain, [])
    assert block_to_dict(block)["votes"] == []
    block.header.votes = Votes(block.hash, [pk_a, pk_b], [6, 4], b"\x01" * 32 + b"\x02" * 32)
    assert block_to_dict(block)["votes"] == [
        [pk_a.hex(), 6, "01" * 32],
        [pk_b.hex(), 4, "02" * 32],
    ]


def test_votes_are_slotted_columns():
    votes = Votes(b"h" * 32, [b"a", b"b"], [1, 2], b"s" * 32 + b"t" * 32)
    assert not hasattr(votes, "__dict__")
    with pytest.raises(AttributeError):
        votes.extra = 1
    assert len(votes) == 2 and len(Votes()) == 0 and not Votes()


@pytest.mark.parametrize(
    "voters, weights, signatures",
    [
        ([b"a", b"b"], [1, 2], b"s" * 32),  # one signature short
        ([b"a", b"b"], [1, 2], b"s" * 65),  # one byte over
        ([b"a", b"b"], [1, 2], [b"s" * 32, b"t" * 32]),  # one object per vote
        ([b"a", b"b"], [1], b"s" * 64),  # one weight short
        ([], [], b"s" * 32),  # a signature with no voter
    ],
)
def test_votes_with_a_column_of_the_wrong_size_are_malformed(voters, weights, signatures):
    with pytest.raises(MalformedCertificate):
        Votes(b"h" * 32, voters, weights, signatures)


def test_timeout_block_accepted_without_votes():
    chain = build_chain(quorum=1_000_000)
    empty = make_block(chain, [])
    chain.append_block(empty)  # designated empty block: no body, no votes
    assert chain.tip.is_timeout_block


def test_seed_must_derive_from_tip():
    from fission_sim.errors import InvariantViolation

    chain = build_chain()
    block = make_block(chain, [], seed=sha3(b"rogue seed"))
    with pytest.raises(InvariantViolation):
        chain.append_block(block)


@pytest.mark.parametrize(
    "field, wrong",
    [
        ("n_partition", lambda n: n + 1),
        ("n_partition", lambda n: n - 1),
        ("n_shard", lambda n: n * 2),
        ("n_shard", lambda n: n // 2),
    ],
    ids=["partitions+1", "partitions-1", "shards*2", "shards//2"],
)
def test_header_counts_must_match_the_epoch_rules(field, wrong):
    chain = build_chain(n_shard=4, partition=PartitionSettings(n_shard=4, n_partition=2))
    tip, state = chain.tip, chain.state
    block = make_block(chain, [])
    setattr(block.header, field, wrong(getattr(block.header, field)))
    with pytest.raises(PartitionMismatch):
        chain.append_block(block)
    assert chain.tip is tip and chain.state is state
    assert (chain.n_partition, chain.state.n_shard) == (2, 4)
    chain.append_block(make_block(chain, []))


@lru_cache(maxsize=None)
def simulated_run(case):
    """A golden run and its partition settings; callers must not change them."""
    params, epochs, _ = CASES[case]
    sim = ChainSimulation(**params)
    sim.run(epochs)
    return sim, sim.config.partition


def fresh_replica(sim, partition):
    """A chain that knows only the run's genesis accounts and partition rules."""
    state = LedgerState(partition.n_shard)
    for pk, stake in zip(sim.population.pks, sim.population.stakes):
        state.create_account(pk, stake)
    return Chain(state, sim.chain.quorum, partition)


def derived_header(chain):
    """The header after the chain's tip, its parent hash and seed hashed
    afresh from the tip."""
    tip = chain.tip
    epoch, parent = tip.epoch + 1, tip.hash
    kind = kind_for_epoch(epoch)
    return BlockHeader(
        epoch, kind, parent, parent if kind == MAIN else ZERO_HASH, [], [], [],
        next_seed(tip.header.seed, parent), chain.state.n_shard, chain.n_partition,
    )


@pytest.mark.parametrize("case", ["offline", "reshard"])
def test_fresh_chain_replays_a_simulated_run(case):
    # a validator that knows only the genesis accounts and the partition rules
    # re-derives every header, re-shards included, and proposes the same
    # blocks; the header it derives from the tip hash and seed it recorded
    # equals one hashed afresh, after genesis and after every append
    sim, partition = simulated_run(case)
    replica = fresh_replica(sim, partition)
    assert replica.tip.hash == sim.chain.blocks[0].hash
    assert replica.next_header() == derived_header(replica)
    for block in sim.chain.blocks[1:]:
        assert replica.propose(block.body).hash == block.hash
        replica.append_block(block)
        assert replica.next_header() == derived_header(replica)
    assert replica.state.n_shard == sim.chain.state.n_shard
    if case == "reshard":
        assert replica.state.n_shard > partition.n_shard
    account_roots = [compute_root_arrays(EAGER, [], chain.state)[1] for chain in (replica, sim.chain)]
    assert account_roots[0] == account_roots[1]


# runs with offline voters and invalid transactions; at offline rate 0.5
# some main blocks time out, so their credits wait for a later one
OFFLINE_RUNS = {
    "offline-invalid": dict(n_nodes=120, offline_rate=0.3, invalid_fraction=0.1, seed=9),
    "main-timeouts": dict(n_nodes=120, offline_rate=0.5, invalid_fraction=0.1, seed=1),
}


@lru_cache(maxsize=None)
def offline_run(case):
    """A ten-epoch run of ``OFFLINE_RUNS[case]``, its epoch results and its
    partition settings; callers must not change them."""
    sim = ChainSimulation(**OFFLINE_RUNS[case])
    return sim, sim.run(10), sim.config.partition


@pytest.mark.parametrize("case", ["reshard", *OFFLINE_RUNS])
def test_a_main_block_credits_the_debit_records_an_interim_block_confirmed(case):
    # one record per transfer: every credit is the very debit record that an
    # earlier interim block confirmed, however many main blocks it waited
    if case in OFFLINE_RUNS:
        sim, results, partition = offline_run(case)
        assert sum(r.invalid_txs for r in results)
    else:
        sim, partition = simulated_run(case)
        assert sim.chain.state.n_shard > partition.n_shard
    confirmed = {}  # parent id -> (debit record, epoch of its interim block)
    waited = 0  # credits of a debit older than the interim block just before
    for block in sim.chain.blocks:
        if block.header.kind == INTERIM:
            confirmed.update((sub.parent_id, (sub, block.epoch)) for sub in block.body)
            continue
        for sub in block.body:
            debit, epoch = confirmed.pop(sub.parent_id)
            assert sub is debit
            waited += epoch < block.epoch - 1
    assert bool(waited) == (case == "main-timeouts")
    # the validator compares fields, never identity: main blocks rebuilt from
    # new, equal records append on a fresh replica
    replica = fresh_replica(sim, partition)
    for block in sim.chain.blocks[1:]:
        if block.header.kind == MAIN:
            block = Block(header=block.header, body=[equal_copy(sub) for sub in block.body])
        replica.append_block(block)
    assert replica.tip.hash == sim.chain.tip.hash


def test_propose_matches_the_reference_header():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    _, pk_b = reg.generate(b"b")
    chain = build_chain(quorum=10, balances=[(pk_a, 100), (pk_b, 0)])
    debit = split_transaction(make_transfer(reg, pk_a, pk_b, 5, 1), reg)
    for body in ([debit], [debit], []):
        block = chain.propose(body)
        assert block.body is body and len(block.header.votes) == 0
        assert block.header == make_block(chain, body).header
        block.header.votes = signed_votes(block, sk_a, (pk_a, 10))
        chain.append_block(block)
    assert [b.header.kind for b in chain.blocks] == [MAIN, INTERIM, MAIN, INTERIM]


HEADER_FIELDS = ("epoch", "kind", "parent_hash", "interim_hash", "seed", "n_shard", "n_partition")
ROOT_FIELDS = ("tx_root", "account_root", "tx_log_root")
CREDIT_FIELDS = ("sender", "receiver", "value", "nonce")
# a field given a value that equals one of its type but is of another
WRONG_TYPES = ("float value", "bool nonce", "bytearray receiver")


def other_hash(data, old):
    return data.draw(st.binary(min_size=32, max_size=32).filter(lambda h: h != old))


def wrong_type(sub, what):
    """The field ``what`` of ``WRONG_TYPES`` names, given an equal value of
    the wrong type."""
    if what == "float value":
        return {"value": float(sub.value)}
    if what == "bool nonce":
        return {"nonce": True}
    return {"receiver": bytearray(sub.receiver)}


def mutate(block, what, data):
    """A copy of ``block`` with one mutation, and the error class (and
    invariant, for an ``InvariantViolation``) the chain must raise for it."""
    header = replace(block.header, **{f: list(getattr(block.header, f)) for f in ROOT_FIELDS})
    body = list(block.body)
    old = getattr(header, what, None)
    if what == "epoch":
        header.epoch += data.draw(st.integers(-3, 3).filter(bool))
        expected = AlternationViolation
    elif what == "kind":
        header.kind = INTERIM if old == MAIN else MAIN
        expected = AlternationViolation
    elif what in ("parent_hash", "interim_hash"):
        setattr(header, what, other_hash(data, old))
        expected = BadInterimLink
    elif what == "seed":
        header.seed = other_hash(data, old)
        expected = (InvariantViolation, "seed-evolution")
    elif what in ("n_shard", "n_partition"):
        setattr(header, what, data.draw(st.integers(1, 64).filter(lambda n: n != old)))
        expected = PartitionMismatch
    elif what in ROOT_FIELDS:
        i = data.draw(st.integers(0, len(old) - 1))
        old[i] = other_hash(data, old[i])
        expected = RootMismatch
    elif what == "drop":
        i = data.draw(st.integers(0, len(body) - 1))
        dropped = body.pop(i)
        if header.kind == MAIN:
            # the dropped credit's debit stays pending, unless nothing is left
            expected = (InvariantViolation, "lazy-completeness") if body else RootMismatch
        else:
            # the sender's later debits lose their nonce predecessor
            later = any(sub.sender == dropped.sender for sub in body[i:])
            expected = BadNonce if later else RootMismatch
    elif what in CREDIT_FIELDS:
        # a credit that pays out other than its debit says
        i = data.draw(st.integers(0, len(body) - 1))
        old = getattr(body[i], what)
        if what in ("sender", "receiver"):
            new = other_hash(data, old)
        else:
            new = data.draw(st.integers(0, 2**64 - 1).filter(lambda n: n != old))
        body[i] = replace(body[i], **{what: new})
        expected = CreditMismatch
    elif what in WRONG_TYPES:
        # the root memo compares entries by value: 1.0 == True == 1, and a
        # bytearray equals its bytes
        i = data.draw(st.integers(0, len(body) - 1))
        body[i] = replace(body[i], **wrong_type(body[i], what))
        expected = MalformedBody
    elif what == "reparent":
        # a later debit, valid on its own, takes an earlier one's parent id
        i = data.draw(st.integers(0, len(body) - 2))
        j = data.draw(st.integers(i + 1, len(body) - 1))
        body[j] = replace(body[j], parent_id=body[i].parent_id)
        expected = DuplicateDebit
    else:
        i = data.draw(st.integers(0, len(body) - 1))
        body.insert(data.draw(st.integers(0, len(body))), body[i])
        expected = DoubleCredit if header.kind == MAIN else BadNonce
    return Block(header=header, body=body), expected


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_single_header_or_body_mutation_is_rejected_and_changes_nothing(data):
    sim, partition = simulated_run("reshard")
    blocks = sim.chain.blocks[1:]
    index = data.draw(st.integers(0, len(blocks) - 1))
    chain = fresh_replica(sim, partition)
    for block in blocks[:index]:
        chain.append_block(block)
    block = blocks[index]
    mutations = HEADER_FIELDS + ROOT_FIELDS + (("drop", "duplicate") + WRONG_TYPES if block.body else ())
    if block.header.kind == INTERIM and len(block.body) > 1:
        mutations += ("reparent",)
    if block.header.kind == MAIN and block.body:
        mutations += CREDIT_FIELDS
    bad, expected = mutate(block, data.draw(st.sampled_from(mutations)), data)
    expected_type, invariant = expected if isinstance(expected, tuple) else (expected, None)
    tip, state, n_partition = chain.tip, chain.state, chain.n_partition
    with pytest.raises(FissionError) as err:
        chain.append_block(bad)
    assert type(err.value) is expected_type
    assert getattr(err.value, "invariant", None) == invariant
    assert chain.tip is tip and chain.state is state and chain.n_partition == n_partition
    chain.append_block(block)
    assert chain.tip is block


def test_credit_rewritten_to_another_receiver_is_rejected():
    # a main block whose first credit pays another receiver 999 more than its
    # debit withdrew, signed by its real committee
    sim = ChainSimulation(
        n_nodes=20, stake_dist="fixed:100", h=1.0, alpha=1.0, tau=50.0, tx_per_epoch=10, seed=3
    )
    sim.step()
    chain, population = sim.chain, sim.population
    pending = chain.state.pending
    body = [pending[pid] for pid in sorted(pending)]
    other = next(pk for pk in population.pks if pk not in (body[0].sender, body[0].receiver))
    bad = [replace(body[0], receiver=other, value=body[0].value + 999)] + body[1:]
    with pytest.raises(CreditMismatch):
        chain.propose(bad)
    block = chain.propose(body)
    block.body = bad
    committee = select_committee(population.electorate, block.header.seed, BLOCK_MAIN, sim.p)
    block.header.votes = collect_votes(cast_ballot(committee, population, set()), population, block.hash)
    assert tally(block.header.votes) >= chain.quorum
    tip, state = chain.tip, chain.state
    with pytest.raises(CreditMismatch):
        chain.append_block(block)
    assert chain.tip is tip and chain.state is state and state.balances[other] == 100


def test_a_debit_whose_field_only_equals_one_of_its_type_is_malformed():
    # the proposer's rooting fills the root memo, which compares body entries
    # by value: unchecked, a debit of value 1.0 * v, nonce True (== 1) or a
    # bytearray receiver would repeat that rooting and leave a float, a bool
    # or an unhashable receiver in the state. Both roles check the types
    # before applying anything.
    sim = ChainSimulation(
        n_nodes=20, stake_dist="fixed:100", h=1.0, alpha=1.0, tau=50.0, tx_per_epoch=10, seed=3
    )
    sim.step()
    block = sim.chain.tip
    chain = fresh_replica(sim, sim.config.partition)
    assert chain.propose(block.body).hash == block.hash
    first, rest = block.body[0], block.body[1:]
    assert first.nonce == 1
    tip, state = chain.tip, chain.state
    before = snapshot(state)
    for what in WRONG_TYPES:
        bad = replace(first, **wrong_type(first, what))
        assert bad == first
        with pytest.raises(MalformedBody):
            chain.propose([bad] + rest)
        with pytest.raises(MalformedBody):
            chain.append_block(Block(header=block.header, body=[bad] + rest))
        assert chain.tip is tip and chain.state is state
        assert snapshot(state) == before
    chain.append_block(block)
    assert all(type(n) is int for column in (chain.state.balances, chain.state.nonces) for n in column.values())


def test_debit_reusing_a_pending_parent_id_is_rejected_keeping_supply():
    reg = KeyRegistry()
    (sk_a, pk_a), (_, pk_b), (_, pk_c) = (reg.generate(label) for label in (b"a", b"b", b"c"))
    chain = build_chain(quorum=1, balances=[(pk_a, 100), (pk_b, 100), (pk_c, 100)])
    d1 = split_transaction(make_transfer(reg, pk_a, pk_c, 40, 1), reg)
    d2 = replace(split_transaction(make_transfer(reg, pk_b, pk_c, 40, 1), reg), parent_id=d1.parent_id)
    with pytest.raises(DuplicateDebit):
        chain.propose([d1, d2])
    block = chain.propose([d1])
    block.body = [d1, d2]
    block.header.votes = signed_votes(block, sk_a, (pk_a, 1))
    tip, state = chain.tip, chain.state
    with pytest.raises(DuplicateDebit):
        chain.append_block(block)
    assert chain.tip is tip and chain.state is state
    assert state.total_balance() + state.pending_value() == 300


def test_main_block_leaving_credits_pending_is_rejected():
    reg = KeyRegistry()
    sk_a, pk_a = reg.generate(b"a")
    _, pk_b = reg.generate(b"b")
    chain = build_chain(quorum=10, balances=[(pk_a, 100), (pk_b, 0)])
    first, second = (split_transaction(make_transfer(reg, pk_a, pk_b, 5, n), reg) for n in (1, 2))
    interim = make_block(chain, [first, second])
    interim.header.votes = signed_votes(interim, sk_a, (pk_a, 10))
    chain.append_block(interim)
    tip, state = chain.tip, chain.state
    main = make_block(chain, [])
    main.body = [first]  # the second debit's credit is missing
    with pytest.raises(InvariantViolation) as err:
        chain.append_block(main)
    assert err.value.invariant == "lazy-completeness"
    assert chain.tip is tip and chain.state is state and len(state.pending) == 2


def test_an_unvoted_empty_block_is_taken_as_a_timeout_on_trust():
    # the documented trust boundary: no block proves that a timeout happened,
    # so empty blocks with no votes stall the chain and hold back every
    # pending credit with no committee weight behind them
    sim = ChainSimulation(n_nodes=100, stake_dist="fixed:2500", tx_per_epoch=50, seed=3)
    sim.run(3)
    chain = sim.chain
    assert len(chain.state.pending) == 50
    chain.append_block(chain.propose([]))
    assert (chain.tip.epoch, chain.tip.header.kind) == (4, MAIN)
    assert chain.tip.is_timeout_block and len(chain.state.pending) == 50
    for _ in range(6):
        chain.append_block(chain.propose([]))
    assert chain.tip.epoch == 10 and len(chain.state.pending) == 50


def test_export_jsonl_deterministic_and_one_line_per_block():
    chain1 = build_chain()
    chain2 = build_chain()
    for chain in (chain1, chain2):
        chain.append_block(make_block(chain, []))
    assert chain1.export_jsonl() == chain2.export_jsonl()
    assert len(chain1.export_jsonl().strip().split("\n")) == 2
