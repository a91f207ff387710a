"""Property tests of ledger clones and cached account roots.

A clone copies the balance and nonce columns and shares pending-credit
bookkeeping, per-shard account trees and the one root memo with its
parent. These tests drive random debit/credit sequences (failing ones
included) through parents, clones and siblings, and check the results
against deep copies and against a root computation that uses no cache at
all. A sequence may mix debits and credits, but each rooting takes the
entries of one kind, as a block does (``block_of``). The credited ids,
one commit log that copies share, are checked against a plain set that
every copy copies whole (``reference.EagerCreditedIds``).
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim.chain import compute_root_arrays
from fission_sim.crypto import encode_fields, encode_uint, sha3
from fission_sim.errors import FissionError
from fission_sim.ledger import (
    EAGER,
    LAZY,
    LedgerState,
    SubTransaction,
    apply_eager,
    apply_lazy,
)
from fission_sim.merkle import merkle_levels, merkle_root
from fission_sim.partitioning import split_shards
from reference import EagerCreditedIds, shard_of

KEYS = [sha3(b"prop-key-%d" % i) for i in range(16)]
FUNDED = 12  # KEYS[FUNDED:] start without an account
# one distinct id per debit of a dense sweep; random ops draw from the first
# eight, so that credits and repeats often meet a logged debit
PARENT_IDS = [sha3(b"prop-parent-%d" % i) for i in range(80)]
DRAWN_PARENT = st.integers(0, 7)

OPS = st.lists(
    st.tuples(
        st.sampled_from([EAGER, LAZY]),
        st.integers(0, len(KEYS) - 1),  # sender
        st.integers(0, len(KEYS) - 1),  # receiver
        st.integers(1, 60),  # value
        st.integers(-1, 1),  # nonce offset from the valid one
        DRAWN_PARENT,
    ),
    max_size=25,
)
SHARDS = st.sampled_from([1, 2, 4])


def fresh_state(n_shard: int) -> LedgerState:
    state = LedgerState(n_shard)
    for i, pk in enumerate(KEYS[:FUNDED]):
        state.create_account(pk, 40 + 10 * i)
    return state


def apply_ops(state: LedgerState, ops, keys=KEYS) -> tuple[list[tuple[str, SubTransaction]], list[str]]:
    """Apply each op; returns the (kind, sub-transaction) pairs that applied
    and the outcome (error class name or "ok") of every op. A credit of a
    logged debit is a new record equal to it."""
    applied, outcomes = [], []
    for kind, s, r, value, offset, p in ops:
        parent_id = PARENT_IDS[p]
        if kind == EAGER:
            nonce = state.nonces.get(keys[s], 0) + 1 + offset
            sub = (parent_id, keys[s], keys[r], value, nonce)
        else:
            entry = state.pending.get(parent_id)
            if entry is None:
                sub = (parent_id, keys[s], keys[r], value, 1)
            else:
                sub = (*entry,)  # a new tuple
        try:
            execute(state, [(kind, sub)])
        except FissionError as exc:
            outcomes.append(type(exc).__name__)
            continue
        applied.append((kind, sub))
        outcomes.append("ok")
    return applied, outcomes


def execute(state: LedgerState, applied) -> None:
    """Apply (kind, sub-transaction) pairs in order."""
    for kind, sub in applied:
        (apply_eager if kind == EAGER else apply_lazy)(state, sub)


def block_of(applied) -> tuple[str, list[SubTransaction]]:
    """The kind and body that a rooting after ``applied`` takes: one kind, as
    a block's body has, that of the first pair (EAGER if there is none),
    and the entries of that kind in order."""
    kind = applied[0][0] if applied else EAGER
    return kind, [sub for k, sub in applied if k == kind]


def shard_accounts(state: LedgerState) -> list[list[tuple[bytes, int, int]]]:
    """Each shard's (pk, balance, nonce) triples in key order, grouped by
    ``shard_of`` over the state's balance and nonce columns."""
    shards = [[] for _ in range(state.n_shard)]
    for pk, balance in sorted(state.balances.items()):
        shards[shard_of(pk, state.n_shard)].append((pk, balance, state.nonces[pk]))
    return shards


def snapshot(state: LedgerState):
    return state.n_shard, shard_accounts(state), dict(state.pending), set(state.credited)


def reference_roots(kind, body, state):
    """compute_root_arrays written out with no cache and no memoised ids."""
    n = state.n_shard
    tx_leaves = [[] for _ in range(n)]
    log_leaves = [[] for _ in range(n)]
    for parent_id, sender, receiver, value, nonce in body:
        key = sender if kind == EAGER else receiver
        tx_leaves[shard_of(key, n)].append(sha3(encode_fields(
            kind.encode(), parent_id, sender, receiver,
            encode_uint(value), encode_uint(nonce),
        )))
        if kind == EAGER:
            log_leaves[shard_of(sender, n)].append(
                sha3(encode_fields(parent_id, receiver, encode_uint(value)))
            )
    account_roots = [
        merkle_root([
            sha3(encode_fields(pk, encode_uint(balance), encode_uint(nonce)))
            for pk, balance, nonce in shard
        ])
        for shard in shard_accounts(state)
    ]
    return (
        [merkle_root(lv) for lv in tx_leaves],
        account_roots,
        [merkle_root(lv) for lv in log_leaves],
    )


@settings(max_examples=60, deadline=None)
@given(n_shard=SHARDS, history=OPS, ops=OPS, sibling_ops=OPS)
def test_clone_writes_never_reach_parent_or_sibling(n_shard, history, ops, sibling_ops):
    parent = fresh_state(n_shard)
    apply_ops(parent, history)
    before = snapshot(parent)
    reference = copy.deepcopy(parent)

    child = parent.clone()
    sibling = parent.clone()
    _, child_outcomes = apply_ops(child, ops)
    apply_ops(sibling, sibling_ops)
    _, reference_outcomes = apply_ops(reference, ops)

    assert snapshot(parent) == before
    assert child_outcomes == reference_outcomes
    assert snapshot(child) == snapshot(reference)
    # the parent writes after cloning too, and must copy rather than share
    apply_ops(parent, sibling_ops)
    assert snapshot(child) == snapshot(reference)


@settings(max_examples=40, deadline=None)
@given(n_shard=SHARDS, generations=st.lists(OPS, min_size=1, max_size=6))
def test_committed_clones_match_deep_copies(n_shard, generations):
    # the chain pattern: each generation clones the committed state, applies
    # a block to the clone, and commits it; a discarded scratch clone
    # applies the same block first, as the proposer does
    state = fresh_state(n_shard)
    reference = copy.deepcopy(state)
    for ops in generations:
        scratch = state.clone()
        apply_ops(scratch, ops)
        committed = state.clone()
        _, outcomes = apply_ops(committed, ops)
        _, reference_outcomes = apply_ops(reference, ops)
        assert outcomes == reference_outcomes
        assert snapshot(committed) == snapshot(reference) == snapshot(scratch)
        state = committed


@settings(max_examples=40, deadline=None)
@given(
    n_shard=SHARDS,
    blocks=st.lists(st.tuples(OPS, OPS, st.booleans()), min_size=1, max_size=6),
)
def test_cached_roots_equal_cache_free_roots(n_shard, blocks):
    state = fresh_state(n_shard)
    assert compute_root_arrays(EAGER, [], state) == reference_roots(EAGER, [], state)
    for ops, rival_ops, split in blocks:
        if split:
            state = split_shards(state)
        # a rival clone shares the root memo and fills it with other balances
        rival = state.clone()
        rival_block = block_of(apply_ops(rival, rival_ops)[0])
        assert compute_root_arrays(*rival_block, rival) == reference_roots(*rival_block, rival)

        proposal = state.clone()
        block = block_of(apply_ops(proposal, ops)[0])
        expected = reference_roots(*block, proposal)
        assert compute_root_arrays(*block, proposal) == expected
        # the validator's recomputation on its own clone hits the root memo
        validator = state.clone()
        apply_ops(validator, ops)
        assert compute_root_arrays(*block, validator) == expected
        # the pre-state still roots as it did before any clone wrote
        assert compute_root_arrays(EAGER, [], state) == reference_roots(EAGER, [], state)
        state = validator


# --- credited ids: copies of copies, with forks ---

# the parent ids that credited-ids programs credit and probe
CREDIT_IDS = PARENT_IDS[:10]
# every program starts with two siblings that both credit and then both get
# cloned: the second clone's commit forks the log
SIBLINGS = [("clone", 0), ("clone", 0), ("credit", 1, 0), ("credit", 2, 1), ("clone", 1), ("clone", 2)]
STATE_INDEX = st.integers(0, 40)  # taken mod the number of live states
CREDIT_STEPS = st.lists(
    st.tuples(st.just("clone"), STATE_INDEX)
    | st.tuples(st.just("credit"), STATE_INDEX, st.integers(0, len(CREDIT_IDS) - 1))
    | st.tuples(st.just("split"), STATE_INDEX),
    max_size=16,
)


def outcome(apply, state: LedgerState, sub: SubTransaction) -> str:
    """The error class name that ``apply(state, sub)`` raises, or "ok"."""
    try:
        apply(state, sub)
    except FissionError as exc:
        return type(exc).__name__
    return "ok"


def credit(state: LedgerState, p: int) -> tuple[str, str]:
    """The outcomes of a debit of parent id ``CREDIT_IDS[p]``, then of its
    credit."""
    sender = KEYS[p % FUNDED]
    debit = (CREDIT_IDS[p], sender, KEYS[(3 * p + 1) % len(KEYS)], 1, state.nonces[sender] + 1)
    return outcome(apply_eager, state, debit), outcome(apply_lazy, state, debit)


def trial(state: LedgerState) -> LedgerState:
    """A stand-in for ``state`` whose columns, written keys and pending log
    are copies, so that a debit applied to it writes to no state; it shares
    the credited ids, which ``apply_eager`` only reads."""
    other = copy.copy(state)
    other.balances, other.nonces = dict(state.balances), dict(state.nonces)
    other.pending, other.written = dict(state.pending), set(state.written)
    return other


def credited_answers(state: LedgerState):
    """All that ``state`` answers about credited ids: its set, membership of
    each of ``CREDIT_IDS``, and the outcome of a debit naming each (on a
    ``trial`` stand-in) and of a credit of each, which raises without
    writing, since no debit is left pending."""
    assert not state.pending
    credited, sender = state.credited, KEYS[0]
    nonce = state.nonces[sender] + 1
    return (
        set(credited),
        [pid in credited for pid in CREDIT_IDS],
        [outcome(apply_eager, trial(state), (pid, sender, KEYS[1], 1, nonce)) for pid in CREDIT_IDS],
        [outcome(apply_lazy, state, (pid, sender, KEYS[1], 1, 1)) for pid in CREDIT_IDS],
    )


@settings(max_examples=60, deadline=None)
@given(n_shard=SHARDS, steps=CREDIT_STEPS)
def test_credited_ids_of_copies_of_copies_equal_eagerly_copied_sets(n_shard, steps):
    # a tree of states, each with a twin whose credited ids are a set that
    # every clone and split copies whole; a step clones any live state,
    # credits a debit on any state, or splits any state's shards
    states, twins = [fresh_state(n_shard)], [fresh_state(n_shard)]
    twins[0].credited = EagerCreditedIds()
    for step in SIBLINGS + steps:
        i = step[1] % len(states)
        if step[0] == "clone":
            states.append(states[i].clone())
            twins.append(twins[i].clone())
        elif step[0] == "split":
            states.append(split_shards(states[i]))
            twins.append(split_shards(twins[i]))
        else:
            assert credit(states[i], step[2]) == credit(twins[i], step[2])
        for state, twin in zip(states, twins):
            assert credited_answers(state) == credited_answers(twin)
            assert snapshot(state) == snapshot(twin)


# a record's fields in tuple order
RECORD_FIELDS = ("parent_id", "sender", "receiver", "value", "nonce")
# "kind" roots the same entries as the other half of their transfers
SUB_FIELDS = ("kind", *RECORD_FIELDS)


def with_field(sub: SubTransaction, name: str, value) -> tuple:
    """A new record, ``sub`` with its field ``name`` set to ``value``."""
    fields = list(sub)
    fields[RECORD_FIELDS.index(name)] = value
    return tuple(fields)


def equal_copy(sub: SubTransaction) -> SubTransaction:
    """A new record equal to ``sub`` whose byte fields are new objects too."""
    parent_id, sender, receiver, value, nonce = sub
    return (bytes(bytearray(parent_id)), bytes(bytearray(sender)), bytes(bytearray(receiver)), value, nonce)


@settings(max_examples=40, deadline=None)
@given(n_shard=SHARDS, history=OPS, ops=OPS, data=st.data())
def test_root_memo_is_keyed_on_body_content(n_shard, history, ops, data):
    state = fresh_state(n_shard)
    apply_ops(state, history)
    compute_root_arrays(EAGER, [], state)
    proposal = state.clone()
    applied, _ = apply_ops(proposal, ops)
    kind, body = block_of(applied)
    expected = compute_root_arrays(kind, body, proposal)
    hashed = []

    def counting_sha3(message):
        hashed.append(message)
        return sha3(message)

    # the validator's body is rebuilt from new records equal to the
    # proposer's: it repeats the proposer's rooting and hashes nothing
    rebuilt = [(k, equal_copy(sub)) for k, sub in applied]
    validator = state.clone()
    execute(validator, rebuilt)
    with pytest.MonkeyPatch.context() as patch:
        for module in ("chain", "ledger", "merkle"):
            patch.setattr(f"fission_sim.{module}.sha3", counting_sha3)
        assert compute_root_arrays(*block_of(rebuilt), validator) == expected
        assert hashed == []
        assert all(mine is theirs for mine, theirs in zip(validator.trees, proposal.trees))
        if not body:
            return
        # over the same trees and written accounts, the same entries rooted
        # as the other half of their transfers, or with one field of one
        # entry changed: the memo misses, and the body roots as the
        # cache-free reference
        i = data.draw(st.integers(0, len(body) - 1))
        what = data.draw(st.sampled_from(SUB_FIELDS))
        changed = list(body)
        if what == "kind":
            kind = LAZY if kind == EAGER else EAGER
        else:
            old = body[i][RECORD_FIELDS.index(what)]
            if isinstance(old, int):
                new = data.draw(st.integers(0, 2**64 - 1).filter(lambda n: n != old))
            else:
                new = data.draw(st.binary(min_size=32, max_size=32).filter(lambda b: b != old))
            changed[i] = with_field(body[i], what, new)
        other = state.clone()
        execute(other, applied)
        roots = compute_root_arrays(kind, changed, other)
        assert len(hashed) >= len(changed)  # at least every entry's id
    assert roots == reference_roots(kind, changed, other)


# Shards of 0-70 accounts for the tree tests; keys past a state's funded
# ones have no account until a credit creates it.
TREE_KEYS = [sha3(b"tree-key-%d" % i) for i in range(76)]
TREE_SIZES = st.sampled_from([0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 32, 33, 64, 65]) | st.integers(0, 70)


@st.composite
def tree_ops(draw, n_accounts):
    """Sparse mixed-kind ops, mostly valid, over the funded keys and a few
    new ones; or a dense sweep that debits every funded account of a prefix
    and credits some of those debits, new keys included."""
    if draw(st.booleans()):
        key = st.integers(0, n_accounts + 5)
        op = st.tuples(
            st.sampled_from([EAGER, LAZY]),
            key,  # sender
            key,  # receiver
            st.integers(1, 60),  # value
            st.sampled_from([0, 0, 0, -1, 1]),  # nonce offset from the valid one
            DRAWN_PARENT,
        )
        return draw(st.lists(op, max_size=12))
    width = draw(st.integers(0, n_accounts))
    debits = [(EAGER, i, n_accounts + i % 6, 1, 0, i) for i in range(width)]
    credits = [(LAZY, 0, 0, 1, 0, p) for p in draw(st.sets(DRAWN_PARENT))]
    return debits + credits


def tree_state(n_shard: int, n_accounts: int) -> LedgerState:
    state = LedgerState(n_shard)
    for i, pk in enumerate(TREE_KEYS[:n_accounts]):
        state.create_account(pk, 100 + i)
    return state


def check_roots(applied, state):
    """Root ``state`` after ``applied``, as ``block_of`` gives its body, and
    check the roots against the cache-free reference."""
    block = block_of(applied)
    expected = reference_roots(*block, state)
    assert compute_root_arrays(*block, state) == expected
    assert not state.written
    return expected


@settings(max_examples=150, deadline=None)
@given(n_shard=st.sampled_from([1, 2, 3]), n_accounts=TREE_SIZES, data=st.data())
def test_dirty_shard_trees_equal_cache_free_roots(n_shard, n_accounts, data):
    ops_of = tree_ops(n_accounts)
    state = tree_state(n_shard, n_accounts)
    check_roots([], state)
    for _ in range(data.draw(st.integers(1, 4))):
        if data.draw(st.booleans()):
            state = split_shards(state)
        ops = data.draw(ops_of)
        proposal = state.clone()
        applied, _ = apply_ops(proposal, ops, TREE_KEYS)
        expected = check_roots(applied, proposal)
        # a rival sibling roots other content between proposer and validator
        rival = state.clone()
        check_roots(apply_ops(rival, data.draw(ops_of), TREE_KEYS)[0], rival)
        validator = state.clone()
        apply_ops(validator, ops, TREE_KEYS)
        assert compute_root_arrays(*block_of(applied), validator) == expected
        # the rival's fork replays the proposal: the same written leaves over
        # another base tree
        replay = rival.clone()
        check_roots(apply_ops(replay, ops, TREE_KEYS)[0], replay)
        state = rival if data.draw(st.booleans()) else validator

        if data.draw(st.booleans()):
            # the committed state is written and rooted again, and a clone
            # taken while its writes were unrooted roots them as well
            extra, _ = apply_ops(state, data.draw(ops_of), TREE_KEYS)
            pending_clone = state.clone()
            check_roots(extra, state)
            more, _ = apply_ops(pending_clone, data.draw(ops_of), TREE_KEYS)
            check_roots(extra + more, pending_clone)


@settings(max_examples=60, deadline=None)
@given(n_accounts=TREE_SIZES.filter(bool), data=st.data())
def test_rooting_hashes_only_the_paths_above_written_leaves(n_accounts, data):
    state = tree_state(1, n_accounts)
    compute_root_arrays(EAGER, [], state)
    tree = state.trees[0]
    dirty = data.draw(st.sets(st.integers(0, n_accounts - 1)) | st.just(set(range(n_accounts))))

    def debited(value, accounts):
        clone = state.clone()
        for i in accounts:
            apply_eager(clone, (PARENT_IDS[i], TREE_KEYS[i], TREE_KEYS[i], value, 1))
        return clone

    child = debited(1, dirty)
    # one leaf per written account, then each distinct ancestor once
    order = sorted(TREE_KEYS[:n_accounts])
    level = {order.index(TREE_KEYS[i]) for i in dirty}
    expected, width = len(dirty), n_accounts
    while True:
        level, width = {i >> 1 for i in level}, (width + 1) >> 1
        expected += len(level)
        if width == 1:
            break

    hashed = []

    def counting_sha3(data):
        hashed.append(data)
        return sha3(data)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("fission_sim.chain.sha3", counting_sha3)
        patch.setattr("fission_sim.merkle.sha3", counting_sha3)
        roots = compute_root_arrays(EAGER, [], child)
        assert len(hashed) == expected
        # a sibling with the same writes, as the validator is to the
        # proposer, repeats the child's rooting from the memo
        sibling = debited(1, dirty)
        assert compute_root_arrays(EAGER, [], sibling) == roots and len(hashed) == expected
        assert sibling.trees[0] is child.trees[0]
        # nothing written since: the same tree, nothing hashed
        rooted = child.trees[0]
        assert compute_root_arrays(EAGER, [], child) == roots
        assert child.trees[0] is rooted and len(hashed) == expected
        # once a clone with other writes has rooted in between, a sibling
        # roots on its own, with no more hashing than the child did
        compute_root_arrays(EAGER, [], debited(2, dirty | {0}))
        del hashed[:]
        late = debited(1, dirty)
        late_roots = compute_root_arrays(EAGER, [], late)
        assert len(hashed) <= expected
    assert roots == reference_roots(EAGER, [], child)
    assert late_roots == reference_roots(EAGER, [], late)
    # the same writes under another body root that body
    body = [(PARENT_IDS[0], TREE_KEYS[0], TREE_KEYS[0], 1, 1)]
    replay = debited(1, dirty)
    assert compute_root_arrays(EAGER, body, replay) == reference_roots(EAGER, body, replay)
    assert state.trees[0] is tree


def check_trees(state: LedgerState) -> None:
    """Each shard's tree is ``merkle_levels`` over that shard's accounts of
    the one table, in key order, with each key at its leaf position."""
    for tree, accounts in zip(state.trees, shard_accounts(state)):
        leaves = [
            sha3(encode_fields(pk, encode_uint(balance), encode_uint(nonce)))
            for pk, balance, nonce in accounts
        ]
        assert tree.levels == merkle_levels(leaves)
        assert tree.index == {pk: i for i, (pk, _, _) in enumerate(accounts)}


@settings(max_examples=100, deadline=None)
@given(n_shard=st.sampled_from([1, 2, 3]), n_accounts=TREE_SIZES, data=st.data())
def test_flat_table_trees_equal_per_shard_merkle_levels(n_shard, n_accounts, data):
    ops_of = tree_ops(n_accounts)
    state = tree_state(n_shard, n_accounts)
    compute_root_arrays(EAGER, [], state)
    check_trees(state)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            state = split_shards(state)
        child = state.clone()
        applied, _ = apply_ops(child, data.draw(ops_of), TREE_KEYS)
        # the parent writes after the clone too, and roots on its own
        parent_applied, _ = apply_ops(state, data.draw(ops_of), TREE_KEYS)
        for rooted, rooted_applied in ((child, applied), (state, parent_applied)):
            compute_root_arrays(*block_of(rooted_applied), rooted)
            check_trees(rooted)
        state = child if data.draw(st.booleans()) else state
