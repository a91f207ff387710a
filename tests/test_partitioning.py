import random

import pytest

from fission_sim.chain import compute_root_arrays
from fission_sim.crypto import KeyRegistry, encode_fields, encode_uint, sha3
from fission_sim.errors import DoubleCredit
from fission_sim.ledger import (
    LedgerState,
    apply_eager,
    apply_lazy,
    credit_of,
    make_transfer,
    shard_of,
    split_transaction,
)
from fission_sim.merkle import merkle_root
from fission_sim.partitioning import (
    PartitionConfig,
    next_partition_count,
    partition_of,
    reshard_trigger,
    split_shards,
)


def test_partition_of_examples():
    assert partition_of(5, 3) == 2
    assert all(partition_of(s, 1) == 0 for s in range(10))
    assert [partition_of(s, 6) for s in range(6)] == list(range(6))


def cfg(n_partition, n_shard=64, n_e_max=1000, delta=0.8):
    return PartitionConfig(n_partition=n_partition, n_shard=n_shard, n_e_max=n_e_max, delta=delta)


def test_scaler_examples():
    # direct evaluation of the piecewise rule
    assert next_partition_count(3300, cfg(4)) == 5  # 825 >= 800
    assert next_partition_count(700, cfg(4)) == 3  # 175 <= 200
    assert next_partition_count(1200, cfg(4)) == 4  # 300 inside the band


def test_scaler_clamps_to_range():
    assert next_partition_count(0, cfg(1)) == 1
    assert next_partition_count(10**9, cfg(4, n_shard=4)) == 4


def scaler_oracle(n_e, n_p, n_e_max, delta, n_shard):
    load = n_e / n_p
    if load >= delta * n_e_max:
        out = n_p + 1
    elif load <= (1 - delta) * n_e_max:
        out = n_p - 1
    else:
        out = n_p
    return max(1, min(out, n_shard))


def test_scaler_matches_bruteforce_on_random_inputs():
    rng = random.Random(3)
    for _ in range(10_000):
        n_e = rng.randrange(0, 20_000)
        n_p = rng.randint(1, 64)
        c = cfg(n_p)
        assert next_partition_count(n_e, c) == scaler_oracle(n_e, n_p, c.n_e_max, c.delta, 64)


def test_scaler_moves_at_most_one():
    rng = random.Random(4)
    for _ in range(2000):
        n_p = rng.randint(1, 64)
        n_e = rng.randrange(0, 100_000)
        assert abs(next_partition_count(n_e, cfg(n_p)) - n_p) <= 1


def test_scaler_fixed_point_inside_band():
    c = cfg(4)
    for n_e in (4 * 201, 4 * 500, 4 * 799):
        assert next_partition_count(n_e, c) == 4


def test_reshard_trigger_tail_cases():
    assert reshard_trigger([(4, 4), (4, 4), (4, 4)], 2)
    assert not reshard_trigger([(4, 4), (3, 4), (4, 4)], 2)
    assert not reshard_trigger([(4, 4), (4, 4)], 2)  # window not filled yet


def test_reshard_trigger_matches_window_scan():
    rng = random.Random(9)
    for _ in range(2000):
        n_rs = rng.randint(1, 4)
        hist = []
        for _ in range(rng.randint(0, 10)):
            ns = rng.randint(1, 4)
            np_ = rng.randint(1, ns)
            hist.append((np_, ns))
        window = hist[-(n_rs + 1):]
        oracle = len(window) == n_rs + 1 and all(a == b for a, b in window)
        assert reshard_trigger(hist, n_rs) == oracle


def test_partition_config_validation():
    with pytest.raises(ValueError):
        PartitionConfig(n_partition=5, n_shard=4)
    with pytest.raises(ValueError):
        PartitionConfig(n_partition=1, n_shard=4, delta=1.0)


# --- shard splitting ---


def make_state_with_accounts(n_shard, count, seed=0):
    reg = KeyRegistry()
    rng = random.Random(seed)
    state = LedgerState(n_shard)
    for i in range(count):
        _, pk = reg.generate(f"{seed}-{i}".encode())
        balance = rng.randint(0, 10_000)
        state.create_account(pk, balance, rng.randint(0, 20))
    return state


def reference_account_roots(state):
    """Each shard's account root from no cache: the accounts of the state's
    one table grouped by ``shard_of``, in key order."""
    leaves = [[] for _ in range(state.n_shard)]
    for pk, balance in sorted(state.balances.items()):
        leaf = sha3(encode_fields(pk, encode_uint(balance), encode_uint(state.nonces[pk])))
        leaves[shard_of(pk, state.n_shard)].append(leaf)
    return [merkle_root(lv) for lv in leaves]


def test_split_shards_parity():
    state = LedgerState(1)
    pks = [(i).to_bytes(32, "big") for i in range(4)]
    for pk in pks:
        state.create_account(pk, 1)
    split = split_shards(state)
    assert split.n_shard == 2
    _, roots, _ = compute_root_arrays([], split)
    assert sorted(int.from_bytes(pk, "big") for pk in split.shards[0].tree.index) == [0, 2]
    assert sorted(int.from_bytes(pk, "big") for pk in split.shards[1].tree.index) == [1, 3]
    assert roots == reference_account_roots(split)


def test_split_shards_conserves_balance_and_accounts():
    state = make_state_with_accounts(4, 200, seed=1)
    before = state.total_balance()
    split = split_shards(state)
    assert split.n_shard == 8
    assert split.total_balance() == before
    assert len(split.balances) == len(state.balances) == 200


def test_split_shards_per_account_lookup_matches():
    for seed in range(5):
        state = make_state_with_accounts(4, 100, seed=seed)
        split = split_shards(state)
        _, roots, _ = compute_root_arrays([], split)
        for acct in state.iter_accounts():
            moved = split.get_account(acct.pk)
            assert moved is not None
            assert moved.balance == acct.balance and moved.nonce == acct.nonce
            assert [i for i, s in enumerate(split.shards) if acct.pk in s.tree.index] == [
                shard_of(acct.pk, 8)
            ]
        assert roots == reference_account_roots(split)


def test_split_shards_keeps_pending_and_credited():
    reg = KeyRegistry()
    keys = [reg.generate(f"split-{i}".encode()) for i in range(10)]
    state = LedgerState(2)
    for _, pk in keys:
        state.create_account(pk, 1000)
    lazies = []
    for i, (sk, pk) in enumerate(keys):
        tx = make_transfer(reg, sk, keys[(i + 3) % len(keys)][1], 5 + i, 1)
        eager = split_transaction(tx, reg)
        lazy = credit_of(eager)
        apply_eager(state, eager)
        lazies.append(lazy)
    for lazy in lazies[:4]:
        apply_lazy(state, lazy)
    split = split_shards(state)
    assert split.pending == state.pending and len(split.pending) == 6
    assert set(split.credited) == set(state.credited) == {lazy.parent_id for lazy in lazies[:4]}
    with pytest.raises(DoubleCredit):
        apply_lazy(split, lazies[0])
    for lazy in lazies[4:]:
        apply_lazy(split, lazy)
    assert not split.pending
    assert split.total_balance() == 1000 * len(keys)
