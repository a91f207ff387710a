"""Shard-to-partition mapping, partition-count auto-scaling, and re-sharding.

Partitions group shards (``shard mod n_partition``) so committee work tracks
transaction volume instead of the static shard count. The scaler moves the
partition count by at most one per block and re-sharding doubles the shard
count once the partition count has sat at the shard count for a full window.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ledger import LedgerState

DEFAULT_N_E_MAX = 1000
DEFAULT_DELTA = 0.8
DEFAULT_N_RS = 3


@dataclass
class PartitionConfig:
    n_partition: int
    n_shard: int
    n_e_max: int = DEFAULT_N_E_MAX
    delta: float = DEFAULT_DELTA
    n_rs: int = DEFAULT_N_RS

    def __post_init__(self):
        if not 1 <= self.n_partition <= self.n_shard:
            raise ValueError("need 1 <= n_partition <= n_shard")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must be in (0, 1)")
        if self.n_e_max < 1 or self.n_rs < 1:
            raise ValueError("n_e_max and n_rs must be positive")


def partition_of(shard_index: int, n_partition: int) -> int:
    if n_partition < 1:
        raise ValueError("n_partition must be >= 1")
    return shard_index % n_partition


def next_partition_count(n_e: int, cfg: PartitionConfig) -> int:
    """Scale the partition count by the per-partition confirmed-debit load.

    Grow when load per partition reaches delta * n_e_max, shrink when it falls
    to (1 - delta) * n_e_max, otherwise hold; always clamped to [1, n_shard].
    """
    if n_e < 0:
        raise ValueError("n_e must be >= 0")
    load = n_e / cfg.n_partition
    if load >= cfg.delta * cfg.n_e_max:
        nxt = cfg.n_partition + 1
    elif load <= (1.0 - cfg.delta) * cfg.n_e_max:
        nxt = cfg.n_partition - 1
    else:
        nxt = cfg.n_partition
    return max(1, min(nxt, cfg.n_shard))


def reshard_trigger(history: list[tuple[int, int]], n_rs: int) -> bool:
    """True when the last n_rs + 1 main blocks all ran saturated (n_partition
    equal to n_shard)."""
    if len(history) < n_rs + 1:
        return False
    return all(np == ns for np, ns in history[-(n_rs + 1):])


def split_shards(state: LedgerState) -> LedgerState:
    """Double the shard count, so each account's home becomes pk mod
    (2 * n_shard); the new state's trees are built at its first rooting.
    Balances, nonces, pending debit logs and credited ids carry over exactly."""
    new_state = LedgerState(2 * state.n_shard)
    nonces = state.nonces
    for pk, balance in state.balances.items():
        new_state.create_account(pk, balance, nonces[pk])
    new_state.pending = dict(state.pending)
    new_state.credited = state.credited.copy()
    return new_state
