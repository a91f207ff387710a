import random

import pytest

from fission_sim.chain import compute_root_arrays
from fission_sim.config import PartitionSettings
from fission_sim.crypto import KeyRegistry, encode_fields, encode_uint, sha3
from fission_sim.consensus import ChainSimulation
from fission_sim.errors import DoubleCredit, ValidationError
from fission_sim.ledger import (
    EAGER,
    LedgerState,
    apply_eager,
    apply_lazy,
    home_partitions,
    make_transfer,
    split_transaction,
)
from fission_sim.merkle import merkle_root
from fission_sim.partitioning import (
    next_partition_count,
    reshard_trigger,
    split_shards,
)
from reference import shard_of


def test_partition_of_examples():
    # a key's partition is its shard mod n_partition
    keys = [(v).to_bytes(32, "big") for v in range(24)]
    assert home_partitions(keys[:1] + keys[13:14], 8, 3) == [0, 2]  # shards 0 and 5
    assert home_partitions(keys, 10, 1) == [0] * 24
    assert home_partitions(keys, 6, 6) == [v % 6 for v in range(24)]
    rng = random.Random(5)
    keys = [rng.randbytes(32) for _ in range(500)]
    assert home_partitions(keys, 12, 5) == [shard_of(key, 12) % 5 for key in keys]
    with pytest.raises(ValueError):
        home_partitions(keys, 4, 0)


RULES = PartitionSettings(n_e_max=1000, delta=0.8)


def test_scaler_examples():
    # direct evaluation of the piecewise rule
    assert next_partition_count(3300, 4, 64, RULES) == 5  # 825 >= 800
    assert next_partition_count(700, 4, 64, RULES) == 3  # 175 <= 200
    assert next_partition_count(1200, 4, 64, RULES) == 4  # 300 inside the band


def test_scaler_clamps_to_range():
    assert next_partition_count(0, 1, 64, RULES) == 1
    assert next_partition_count(10**9, 4, 4, RULES) == 4


def test_scaler_reads_only_the_rules_of_its_settings():
    # the counts it scales are arguments; the settings' own are starting values
    rules = PartitionSettings(n_shard=1, n_partition=1, n_e_max=1000, delta=0.8)
    assert next_partition_count(3300, 4, 64, rules) == 5
    assert rules == PartitionSettings(n_shard=1, n_partition=1, n_e_max=1000, delta=0.8)


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
        assert next_partition_count(n_e, n_p, 64, RULES) == scaler_oracle(
            n_e, n_p, RULES.n_e_max, RULES.delta, 64
        )


def test_scaler_moves_at_most_one():
    rng = random.Random(4)
    for _ in range(2000):
        n_p = rng.randint(1, 64)
        n_e = rng.randrange(0, 100_000)
        assert abs(next_partition_count(n_e, n_p, 64, RULES) - n_p) <= 1


def test_scaler_fixed_point_inside_band():
    for n_e in (4 * 201, 4 * 500, 4 * 799):
        assert next_partition_count(n_e, 4, 64, RULES) == 4


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
    # the library path rejects what a config file would, before any draw
    for keys, field in [
        (dict(n_partition=5, n_shard=4), "partition.n_partition"),
        (dict(n_partition=0), "partition.n_partition"),
        (dict(delta=1.0), "partition.delta"),
        (dict(delta=0.0), "partition.delta"),
        (dict(n_e_max=0), "partition.n_e_max"),
        (dict(n_rs=0), "partition.n_rs"),
        (dict(n_shard=0), "partition.n_shard"),
    ]:
        with pytest.raises(ValidationError) as err:
            ChainSimulation(**keys)
        assert err.value.field == field


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
    _, roots, _ = compute_root_arrays(EAGER, [], split)
    assert sorted(int.from_bytes(pk, "big") for pk in split.trees[0].index) == [0, 2]
    assert sorted(int.from_bytes(pk, "big") for pk in split.trees[1].index) == [1, 3]
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
        _, roots, _ = compute_root_arrays(EAGER, [], split)
        for pk, balance in state.balances.items():
            assert (split.balances[pk], split.nonces[pk]) == (balance, state.nonces[pk])
            assert [i for i, tree in enumerate(split.trees) if pk in tree.index] == [shard_of(pk, 8)]
        assert roots == reference_account_roots(split)


def test_split_shards_keeps_pending_and_credited():
    reg = KeyRegistry()
    keys = [reg.generate(f"split-{i}".encode()) for i in range(10)]
    state = LedgerState(2)
    for _, pk in keys:
        state.create_account(pk, 1000)
    lazies = []
    for i, (_, pk) in enumerate(keys):
        tx = make_transfer(reg, pk, keys[(i + 3) % len(keys)][1], 5 + i, 1)
        debit = split_transaction(tx, reg)
        apply_eager(state, debit)
        lazies.append(debit)
    for lazy in lazies[:4]:
        apply_lazy(state, lazy)
    split = split_shards(state)
    assert split.pending == state.pending and len(split.pending) == 6
    assert set(split.credited) == set(state.credited) == {parent_id for parent_id, _, _, _, _ in lazies[:4]}
    with pytest.raises(DoubleCredit):
        apply_lazy(split, lazies[0])
    for lazy in lazies[4:]:
        apply_lazy(split, lazy)
    assert not split.pending
    assert split.total_balance() == 1000 * len(keys)
