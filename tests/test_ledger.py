import math
import random

import pytest

from fission_sim.crypto import KeyRegistry, sha3
from fission_sim.errors import (
    BadNonce,
    DoubleCredit,
    InsufficientBalance,
    InvalidSignature,
    MissingEagerLog,
    NonPositiveValue,
    UnknownAccount,
)
from fission_sim.ledger import (
    EAGER,
    LAZY,
    LedgerState,
    Transaction,
    apply_eager,
    apply_lazy,
    make_transfer,
    shard_of,
    split_transaction,
)


@pytest.fixture
def reg():
    return KeyRegistry()


def new_key(reg, label):
    return reg.generate(label.encode())


def test_split_produces_debit_and_credit(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    tx = make_transfer(reg, sk_a, pk_b, 10, 1)
    eager, lazy = split_transaction(tx, reg)
    assert eager.kind == EAGER and lazy.kind == LAZY
    assert eager.parent_id == lazy.parent_id == tx.id
    assert eager.sender == pk_a and lazy.receiver == pk_b
    assert eager.value == lazy.value == 10


def test_split_self_transfer_nets_to_zero(reg):
    sk_a, pk_a = new_key(reg, "a")
    tx = make_transfer(reg, sk_a, pk_a, 5, 1)
    eager, lazy = split_transaction(tx, reg)
    state = LedgerState(4)
    state.create_account(pk_a, 50)
    apply_eager(state, eager)
    apply_lazy(state, lazy)
    acct = state.get_account(pk_a)
    assert acct.balance == 50 and acct.nonce == 1


def test_split_rejects_bad_signature(reg):
    sk_a, _ = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    good = make_transfer(reg, sk_a, pk_b, 10, 1)
    forged = Transaction(
        good.tx_type, good.sender, good.receiver, good.value,
        good.nonce, good.data_hash, sha3(b"x" + good.signature),
    )
    with pytest.raises(InvalidSignature):
        split_transaction(forged, reg)


def test_split_rejects_non_positive_value(reg):
    sk_a, _ = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    with pytest.raises(NonPositiveValue):
        split_transaction(make_transfer(reg, sk_a, pk_b, 0, 1), reg)


def test_split_roundtrip_over_random_batch(reg):
    # oracle: re-merging the two halves reproduces the original fields
    rng = random.Random(11)
    keys = [new_key(reg, f"k{i}") for i in range(10)]
    for i in range(100):
        sk_s, pk_s = keys[rng.randrange(10)]
        _, pk_r = keys[rng.randrange(10)]
        value = rng.randint(1, 10_000)
        nonce = rng.randint(1, 50)
        tx = make_transfer(reg, sk_s, pk_r, value, nonce)
        eager, lazy = split_transaction(tx, reg)
        merged = (eager.sender, lazy.receiver, eager.value, eager.nonce)
        assert merged == (tx.sender, tx.receiver, tx.value, tx.nonce)
        assert lazy.value == eager.value and lazy.nonce == eager.nonce


def test_transaction_id_is_stable_and_tamper_evident(reg):
    sk_a, _ = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    tx = make_transfer(reg, sk_a, pk_b, 10, 1)
    same = make_transfer(reg, sk_a, pk_b, 10, 1)
    other = make_transfer(reg, sk_a, pk_b, 11, 1)
    assert tx.id == same.id
    assert tx.id != other.id


# --- eager application ---


def eager_for(reg, sk, receiver, value, nonce):
    tx = make_transfer(reg, sk, receiver, value, nonce)
    return split_transaction(tx, reg)


def test_apply_eager_exact_balance_boundary(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 10)
    eager, _ = eager_for(reg, sk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    assert state.get_account(pk_a).balance == 0
    assert list(state.pending) == [eager.parent_id]
    entry = state.pending[eager.parent_id]
    assert (entry.sender, entry.receiver, entry.value, entry.nonce) == (pk_a, pk_b, 10, 1)


def test_apply_eager_insufficient_balance_leaves_state_unchanged(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 5)
    eager, _ = eager_for(reg, sk_a, pk_b, 10, 1)
    with pytest.raises(InsufficientBalance):
        apply_eager(state, eager)
    acct = state.get_account(pk_a)
    assert acct.balance == 5 and acct.nonce == 0
    assert not state.pending


def test_apply_eager_guards(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    bad_nonce, _ = eager_for(reg, sk_a, pk_b, 1, 3)
    with pytest.raises(BadNonce):
        apply_eager(state, bad_nonce)
    sk_c, _ = new_key(reg, "c")  # no account in state
    ghost, _ = eager_for(reg, sk_c, pk_b, 1, 1)
    with pytest.raises(UnknownAccount):
        apply_eager(state, ghost)


def test_eager_conservation_over_random_batch(reg):
    # oracle: total balance drops by exactly the sum of applied values
    rng = random.Random(5)
    n_accounts = 20
    keys = [new_key(reg, f"c{i}") for i in range(n_accounts)]
    state = LedgerState(8)
    for _, pk in keys:
        state.create_account(pk, 10_000_000)
    nonces = {pk: 0 for _, pk in keys}
    before = state.total_balance()
    total_moved = 0
    for i in range(1000):
        sk_s, pk_s = keys[rng.randrange(n_accounts)]
        _, pk_r = keys[rng.randrange(n_accounts)]
        value = rng.randint(1, 500)
        nonces[pk_s] += 1
        eager, _ = eager_for(reg, sk_s, pk_r, value, nonces[pk_s])
        apply_eager(state, eager)
        total_moved += value
    assert state.total_balance() == before - total_moved
    assert len(state.pending) == 1000
    assert state.pending_value() == total_moved


# --- lazy application ---


def test_apply_lazy_completes_transfer(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    state.create_account(pk_b, 0)
    eager, lazy = eager_for(reg, sk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    apply_lazy(state, lazy)
    assert state.get_account(pk_b).balance == 10
    assert not state.pending


def test_apply_lazy_requires_matching_log(reg):
    sk_a, _ = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    _, lazy = eager_for(reg, sk_a, pk_b, 10, 1)
    with pytest.raises(MissingEagerLog):
        apply_lazy(state, lazy)


def test_apply_lazy_rejects_double_credit(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    eager, lazy = eager_for(reg, sk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    apply_lazy(state, lazy)
    with pytest.raises(DoubleCredit):
        apply_lazy(state, lazy)


def test_full_phase_pair_restores_supply(reg):
    # oracle: after applying every debit then every credit, supply is exact
    rng = random.Random(17)
    keys = [new_key(reg, f"p{i}") for i in range(25)]
    state = LedgerState(8)
    for _, pk in keys:
        state.create_account(pk, 1_000_000)
    supply = state.total_balance()
    nonces = {pk: 0 for _, pk in keys}
    lazies = []
    for _ in range(500):
        sk_s, pk_s = keys[rng.randrange(25)]
        _, pk_r = keys[rng.randrange(25)]
        nonces[pk_s] += 1
        eager, lazy = eager_for(reg, sk_s, pk_r, rng.randint(1, 100), nonces[pk_s])
        apply_eager(state, eager)
        lazies.append(lazy)
    assert state.total_balance() < supply
    for lazy in lazies:
        apply_lazy(state, lazy)
    assert state.total_balance() == supply
    assert not state.pending


def test_nonce_monotonicity(reg):
    sk_a, pk_a = new_key(reg, "a")
    _, pk_b = new_key(reg, "b")
    state = LedgerState(2)
    state.create_account(pk_a, 1000)
    for n in range(1, 11):
        eager, _ = eager_for(reg, sk_a, pk_b, 1, n)
        apply_eager(state, eager)
    assert state.get_account(pk_a).nonce == 10
    applied = [e.nonce for e in state.pending.values() if e.sender == pk_a]
    assert applied == list(range(1, 11))


# --- shard mapping ---


def test_shard_of_trivial_values():
    assert shard_of((0).to_bytes(32, "big"), 4) == 0
    assert shard_of((7).to_bytes(32, "big"), 4) == 3


def test_shard_of_uniformity_chi_square():
    # oracle: occupancy within 3 sigma of uniform over 1e5 random keys
    rng = random.Random(23)
    n, shards = 100_000, 8
    counts = [0] * shards
    for _ in range(n):
        counts[shard_of(rng.randbytes(32), shards)] += 1
    expected = n / shards
    sigma = math.sqrt(n * (1 / shards) * (1 - 1 / shards))
    for c in counts:
        assert abs(c - expected) <= 3 * sigma, counts
