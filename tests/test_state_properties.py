"""Property tests of ledger clones and cached account roots.

A clone copies the balance and nonce columns and shares pending-credit
bookkeeping, per-shard account trees and per-shard root memos with its
parent. These tests drive random debit/credit sequences (failing ones
included) through parents, clones and siblings, and check the results
against deep copies and against a root computation that uses no cache at
all.
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
    shard_of,
)
from fission_sim.merkle import merkle_levels, merkle_root
from fission_sim.partitioning import split_shards

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


def apply_ops(state: LedgerState, ops, keys=KEYS) -> tuple[list[SubTransaction], list[str]]:
    """Apply each op; returns the sub-transactions that applied and the
    outcome (error class name or "ok") of every op."""
    applied, outcomes = [], []
    for kind, s, r, value, offset, p in ops:
        parent_id = PARENT_IDS[p]
        if kind == EAGER:
            acct = state.get_account(keys[s])
            nonce = (acct.nonce if acct else 0) + 1 + offset
            sub = SubTransaction(EAGER, parent_id, keys[s], keys[r], value, nonce)
            apply = apply_eager
        else:
            entry = state.pending.get(parent_id)
            if entry is None:
                sub = SubTransaction(LAZY, parent_id, keys[s], keys[r], value, 1)
            else:
                sub = SubTransaction(
                    LAZY, parent_id, entry.sender, entry.receiver, entry.value, entry.nonce
                )
            apply = apply_lazy
        try:
            apply(state, sub)
        except FissionError as exc:
            outcomes.append(type(exc).__name__)
            continue
        applied.append(sub)
        outcomes.append("ok")
    return applied, outcomes


def shard_accounts(state: LedgerState) -> list[list[tuple[bytes, int, int]]]:
    """Each shard's (pk, balance, nonce) triples in key order, grouped by
    ``shard_of`` over the state's balance and nonce columns."""
    shards = [[] for _ in range(state.n_shard)]
    for pk, balance in sorted(state.balances.items()):
        shards[shard_of(pk, state.n_shard)].append((pk, balance, state.nonces[pk]))
    return shards


def snapshot(state: LedgerState):
    return state.n_shard, shard_accounts(state), dict(state.pending), set(state.credited)


def reference_roots(body, state):
    """compute_root_arrays written out with no cache and no memoised ids."""
    n = state.n_shard
    tx_leaves = [[] for _ in range(n)]
    log_leaves = [[] for _ in range(n)]
    for sub in body:
        key = sub.sender if sub.kind == EAGER else sub.receiver
        tx_leaves[shard_of(key, n)].append(sha3(sub.encode()))
        if sub.kind == EAGER:
            log_leaves[shard_of(sub.sender, n)].append(
                sha3(encode_fields(sub.parent_id, sub.receiver, encode_uint(sub.value)))
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
    assert compute_root_arrays([], state) == reference_roots([], state)
    for ops, rival_ops, split in blocks:
        if split:
            state = split_shards(state)
        # a rival clone shares and rewrites the leaf cache with other balances
        rival = state.clone()
        rival_body, _ = apply_ops(rival, rival_ops)
        assert compute_root_arrays(rival_body, rival) == reference_roots(rival_body, rival)

        proposal = state.clone()
        body, _ = apply_ops(proposal, ops)
        expected = reference_roots(body, proposal)
        assert compute_root_arrays(body, proposal) == expected
        # the validator's recomputation on its own clone hits the warm cache
        validator = state.clone()
        apply_ops(validator, ops)
        assert compute_root_arrays(body, validator) == expected
        # the pre-state still roots as it did before any clone wrote
        assert compute_root_arrays([], state) == reference_roots([], state)
        state = validator


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


def check_roots(body, state):
    expected = reference_roots(body, state)
    assert compute_root_arrays(body, state) == expected
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
        body, _ = apply_ops(proposal, ops, TREE_KEYS)
        expected = check_roots(body, proposal)
        # a rival sibling roots other content between proposer and validator
        rival = state.clone()
        check_roots(apply_ops(rival, data.draw(ops_of), TREE_KEYS)[0], rival)
        validator = state.clone()
        apply_ops(validator, ops, TREE_KEYS)
        assert compute_root_arrays(body, validator) == expected
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
    compute_root_arrays([], state)
    tree = state.shards[0].tree
    dirty = data.draw(st.sets(st.integers(0, n_accounts - 1)) | st.just(set(range(n_accounts))))
    child = state.clone()
    for i in dirty:
        apply_eager(child, SubTransaction(EAGER, PARENT_IDS[i], TREE_KEYS[i], TREE_KEYS[i], 1, 1))
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
        roots = compute_root_arrays([], child)
        assert len(hashed) == expected
        # nothing written since: the same tree, nothing hashed
        rooted = child.shards[0].tree
        assert compute_root_arrays([], child) == roots
        assert child.shards[0].tree is rooted and len(hashed) == expected
    assert roots == reference_roots([], child)
    assert state.shards[0].tree is tree


def check_trees(state: LedgerState) -> None:
    """Each shard's tree is ``merkle_levels`` over that shard's accounts of
    the one table, in key order, with each key at its leaf position."""
    for shard, accounts in zip(state.shards, shard_accounts(state)):
        leaves = [
            sha3(encode_fields(pk, encode_uint(balance), encode_uint(nonce)))
            for pk, balance, nonce in accounts
        ]
        assert shard.tree.levels == merkle_levels(leaves)
        assert shard.tree.index == {pk: i for i, (pk, _, _) in enumerate(accounts)}


@settings(max_examples=100, deadline=None)
@given(n_shard=st.sampled_from([1, 2, 3]), n_accounts=TREE_SIZES, data=st.data())
def test_flat_table_trees_equal_per_shard_merkle_levels(n_shard, n_accounts, data):
    ops_of = tree_ops(n_accounts)
    state = tree_state(n_shard, n_accounts)
    compute_root_arrays([], state)
    check_trees(state)
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            state = split_shards(state)
        child = state.clone()
        body, _ = apply_ops(child, data.draw(ops_of), TREE_KEYS)
        # the parent writes after the clone too, and roots on its own
        parent_body, _ = apply_ops(state, data.draw(ops_of), TREE_KEYS)
        for rooted, rooted_body in ((child, body), (state, parent_body)):
            compute_root_arrays(rooted_body, rooted)
            check_trees(rooted)
        state = child if data.draw(st.booleans()) else state
