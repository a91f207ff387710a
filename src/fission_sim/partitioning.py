"""Shard-to-partition mapping, partition-count auto-scaling, and re-sharding.

Partitions group shards (``shard mod n_partition``) so committee work tracks
transaction volume instead of the static shard count. The scaler moves the
partition count by at most one per block and re-sharding doubles the shard
count once the partition count has sat at the shard count for a full window.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .ledger import LedgerState

if TYPE_CHECKING:  # config loads the numpy-backed sortition module
    from .config import PartitionSettings


def next_partition_count(n_e: int, n_partition: int, n_shard: int, rules: PartitionSettings) -> int:
    """Scale the partition count by the per-partition confirmed-debit load.

    Grow when load per partition reaches delta * n_e_max, shrink when it falls
    to (1 - delta) * n_e_max, otherwise hold; always clamped to [1, n_shard].
    Only ``rules``' n_e_max and delta are read.
    """
    if n_e < 0:
        raise ValueError("n_e must be >= 0")
    load = n_e / n_partition
    if load >= rules.delta * rules.n_e_max:
        nxt = n_partition + 1
    elif load <= (1.0 - rules.delta) * rules.n_e_max:
        nxt = n_partition - 1
    else:
        nxt = n_partition
    return max(1, min(nxt, n_shard))


def reshard_trigger(history: list[tuple[int, int]], n_rs: int) -> bool:
    """True when the last n_rs + 1 main blocks all ran saturated (n_partition
    equal to n_shard)."""
    if len(history) < n_rs + 1:
        return False
    return all(np == ns for np, ns in history[-(n_rs + 1):])


def split_shards(state: LedgerState) -> LedgerState:
    """Double the shard count, so each account's home becomes pk mod
    (2 * n_shard); the new state's trees are built at its first rooting.
    Balances, nonces, pending debit logs and credited ids carry over exactly;
    the credited ids as a copy on the state's commit log, so a split costs
    the accounts, not the credited history."""
    new_state = LedgerState(2 * state.n_shard)
    nonces = state.nonces
    for pk, balance in state.balances.items():
        new_state.create_account(pk, balance, nonces[pk])
    new_state.pending = dict(state.pending)
    new_state.credited = state.credited.copy()
    return new_state
