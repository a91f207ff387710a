"""Block structures and the alternating two-phase chain.

Blocks alternate: even epochs carry credit (main) blocks, odd epochs carry
debit (interim) blocks. The chain owns the ledger state and re-executes every
appended body, so header root arrays are verified against an independent
recomputation rather than trusted.

Block hash = SHA3-256 of the core header encoding (everything except votes);
votes sign that hash, so they cannot be part of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .crypto import encode_fields, encode_uint, sha3
from .errors import (
    AlternationViolation,
    BadInterimLink,
    InsufficientVotes,
    InvariantViolation,
    RootMismatch,
)
from .ledger import (
    EAGER,
    LAZY,
    Account,
    AccountTree,
    LeafCache,
    LedgerState,
    ShardState,
    SubTransaction,
    apply_eager,
    apply_lazy,
    shard_of,
)
from .merkle import merkle_levels, merkle_root, merkle_update

INTERIM = "interim"
MAIN = "main"
ZERO_HASH = bytes(32)

GENESIS_SEED = sha3(b"fission-genesis")


def kind_for_epoch(epoch: int) -> str:
    return MAIN if epoch % 2 == 0 else INTERIM


@dataclass(slots=True)
class Vote:
    voter: bytes
    block_hash: bytes
    weight: int
    signature: bytes


@dataclass
class BlockHeader:
    epoch: int
    kind: str
    parent_hash: bytes
    interim_hash: bytes  # ZERO_HASH except on main blocks
    tx_root: list[bytes]
    account_root: list[bytes]
    tx_log_root: list[bytes]
    seed: bytes
    n_shard: int
    n_partition: int
    votes: list[Vote] = field(default_factory=list)

    def core_bytes(self) -> bytes:
        return encode_fields(
            encode_uint(self.epoch),
            self.kind.encode(),
            self.parent_hash,
            self.interim_hash,
            b"".join(self.tx_root),
            b"".join(self.account_root),
            b"".join(self.tx_log_root),
            self.seed,
            encode_uint(self.n_shard),
            encode_uint(self.n_partition),
        )


@dataclass
class Block:
    header: BlockHeader
    body: list[SubTransaction]

    @property
    def hash(self) -> bytes:
        return sha3(self.header.core_bytes())

    @property
    def epoch(self) -> int:
        return self.header.epoch

    @property
    def is_timeout_block(self) -> bool:
        """The designated empty block appended when no quorum formed in time."""
        return not self.body and not self.header.votes


@dataclass
class MicroBlock:
    """Per-partition consensus output, later merged into an interim block."""

    partition_index: int
    sub_txs: list[SubTransaction]


def body_shard(sub: SubTransaction, n_shard: int) -> int:
    """Shard a sub-transaction by the account it mutates (sender for debits,
    receiver for credits)."""
    key = sub.sender if sub.kind == EAGER else sub.receiver
    return shard_of(key, n_shard)


def compute_root_arrays(
    body: list[SubTransaction], post_state: LedgerState
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Per-shard Merkle roots of the block body, the post-state account tables,
    and the log entries this block created (credits create none).

    Roots ``post_state``: each shard's tree becomes current and ``written``
    is emptied. Only written accounts are rehashed, and work whose content
    matches a shard's memos (see ``LeafCache``) is not repeated.
    """
    n = post_state.n_shard
    subs: list[list[SubTransaction]] = [[] for _ in range(n)]
    for sub in body:
        subs[body_shard(sub, n)].append(sub)
    written: list[list[bytes]] = [[] for _ in range(n)]
    for pk in post_state.written:
        written[shard_of(pk, n)].append(pk)
    tx_roots, account_roots, log_roots = [], [], []
    for shard, shard_subs, keys in zip(post_state.shards, subs, written):
        tx_root, log_root = _body_roots(shard_subs, shard.cache)
        tx_roots.append(tx_root)
        log_roots.append(log_root)
        if keys or shard.tree is None:
            shard.tree = _derive_tree(shard, keys)
        account_roots.append(shard.tree.root)
    post_state.written.clear()
    return tx_roots, account_roots, log_roots


def _body_roots(subs: list[SubTransaction], cache: LeafCache) -> tuple[bytes, bytes]:
    """(tx root, log root) of one shard's part of a body, in body order."""
    ids = [sub.id for sub in subs]
    key = b"".join(ids)
    memo = cache.body
    if memo is None or memo[0] != key:
        logs = [
            sha3(encode_fields(sub.parent_id, sub.receiver, encode_uint(sub.value)))
            for sub in subs
            if sub.kind == EAGER
        ]
        memo = cache.body = (key, (merkle_root(ids), merkle_root(logs)))
    return memo[1]


def _leaf(known: dict[bytes, tuple[int, int, bytes]], acct: Account) -> bytes:
    hit = known.get(acct.pk)
    if hit is None or hit[0] != acct.balance or hit[1] != acct.nonce:
        leaf = sha3(encode_fields(acct.pk, encode_uint(acct.balance), encode_uint(acct.nonce)))
        hit = known[acct.pk] = (acct.balance, acct.nonce, leaf)
    return hit[2]


def _derive_tree(shard: ShardState, keys: list[bytes]) -> AccountTree:
    """The tree of the shard's accounts, given that only ``keys`` changed
    since ``shard.tree`` (all of them when that is None).

    Recomputes the paths above the changed leaves when every key is already
    in the tree; a new key shifts positions, so it rebuilds the tree.
    """
    accounts, cache, base = shard.accounts, shard.cache, shard.tree
    known = cache.leaves
    changes = tuple((pk, _leaf(known, accounts[pk])) for pk in sorted(keys))
    memo = cache.derived
    if memo is not None and memo[0] is base and memo[1] == changes:
        return memo[2]
    if base is not None and all(pk in base.index for pk in keys):
        index = base.index
        levels = merkle_update(base.levels, {index[pk]: leaf for pk, leaf in changes})
        tree = AccountTree(index, levels)
    else:
        order = sorted(accounts)
        levels = merkle_levels([_leaf(known, accounts[pk]) for pk in order])
        tree = AccountTree({pk: i for i, pk in enumerate(order)}, levels)
    cache.derived = (base, changes, tree)
    return tree


class Chain:
    """Validating chain: holds blocks plus the ledger state they produce."""

    def __init__(self, state: LedgerState, quorum: int, n_partition: int = 1):
        self.state = state
        self.quorum = quorum
        self.blocks: list[Block] = []
        genesis = self._make_genesis(n_partition)
        self.blocks.append(genesis)

    def _make_genesis(self, n_partition: int) -> Block:
        tx_root, account_root, log_root = compute_root_arrays([], self.state)
        header = BlockHeader(
            epoch=0,
            kind=MAIN,
            parent_hash=ZERO_HASH,
            interim_hash=ZERO_HASH,
            tx_root=tx_root,
            account_root=account_root,
            tx_log_root=log_root,
            seed=GENESIS_SEED,
            n_shard=self.state.n_shard,
            n_partition=n_partition,
        )
        return Block(header=header, body=[])

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def append_block(self, block: Block) -> None:
        """Validate and execute a block, extending the chain by one epoch.

        Execution happens on a scratch copy; the chain state only advances if
        every check passes.
        """
        tip = self.tip
        header = block.header
        if header.epoch != tip.epoch + 1:
            raise AlternationViolation(
                f"epoch {header.epoch} does not follow tip epoch {tip.epoch}"
            )
        if header.kind != kind_for_epoch(header.epoch):
            raise AlternationViolation(
                f"epoch {header.epoch} must be {kind_for_epoch(header.epoch)}, got {header.kind}"
            )
        if header.parent_hash != tip.hash:
            raise BadInterimLink("parent hash does not match chain tip")
        if header.kind == MAIN:
            if header.interim_hash != tip.hash:
                raise BadInterimLink("main block must reference the preceding block's hash")
        elif header.interim_hash != ZERO_HASH:
            raise BadInterimLink("non-main block carries an interim reference")
        if header.seed != sha3(tip.header.seed + tip.hash):
            raise InvariantViolation(
                "consensus-engine", "seed-evolution", f"epoch {header.epoch} seed not derived from tip"
            )

        expected_kind = EAGER if header.kind == INTERIM else LAZY
        if any(sub.kind != expected_kind for sub in block.body):
            raise InvariantViolation(
                "core-ledger", "body-kind", f"{header.kind} block holds foreign sub-transactions"
            )

        scratch = self.state.clone()
        for sub in block.body:
            if sub.kind == EAGER:
                apply_eager(scratch, sub)
            else:
                apply_lazy(scratch, sub)
        if header.kind == MAIN and block.body and scratch.pending:
            raise InvariantViolation(
                "core-ledger",
                "lazy-completeness",
                f"{len(scratch.pending)} pending credits left out of a non-empty main block",
            )

        tx_root, account_root, log_root = compute_root_arrays(block.body, scratch)
        if (
            tx_root != header.tx_root
            or account_root != header.account_root
            or log_root != header.tx_log_root
        ):
            raise RootMismatch("recomputed root arrays do not match the header")

        if not block.is_timeout_block:
            weight = 0
            seen: set[bytes] = set()
            for vote in header.votes:
                if vote.voter in seen:
                    continue
                seen.add(vote.voter)
                weight += vote.weight
            if weight < self.quorum:
                raise InsufficientVotes(f"vote weight {weight} below quorum {self.quorum}")

        self.state = scratch
        self.blocks.append(block)

    # --- export ---

    def export_jsonl(self) -> str:
        """One canonical JSON object per block, newline-separated."""
        lines = [json.dumps(block_to_dict(b), sort_keys=True, separators=(",", ":"))
                 for b in self.blocks]
        return "\n".join(lines) + "\n"


def block_to_dict(block: Block) -> dict:
    h = block.header
    return {
        "epoch": h.epoch,
        "kind": h.kind,
        "hash": block.hash.hex(),
        "parent_hash": h.parent_hash.hex(),
        "interim_hash": h.interim_hash.hex() if h.kind == MAIN else None,
        "seed": h.seed.hex(),
        "n_shard": h.n_shard,
        "n_partition": h.n_partition,
        "tx_root": [r.hex() for r in h.tx_root],
        "account_root": [r.hex() for r in h.account_root],
        "tx_log_root": [r.hex() for r in h.tx_log_root],
        "votes": [[v.voter.hex(), v.weight, v.signature.hex()] for v in h.votes],
        "body": [
            {
                "kind": s.kind,
                "parent_id": s.parent_id.hex(),
                "sender": s.sender.hex(),
                "receiver": s.receiver.hex(),
                "value": s.value,
                "nonce": s.nonce,
            }
            for s in block.body
        ],
    }
