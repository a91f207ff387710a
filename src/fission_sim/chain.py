"""Block structures and the alternating two-phase chain.

Blocks alternate: even epochs carry credit (main) blocks, odd epochs carry
debit (interim) blocks. The chain owns the ledger state and re-executes every
appended body, so header root arrays are verified against an independent
recomputation rather than trusted. It also applies the partition scaler and
re-sharding. One derivation gives every other header field: ``propose``
fills a new block's header from it and ``append_block`` checks against it.

Block hash = SHA3-256 of the core header encoding (everything except votes);
votes sign that hash, so they cannot be part of it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

from .crypto import UINT_PREFIX, encode_fields, encode_uint, length_prefix, sha3
from .errors import (
    AlternationViolation,
    BadInterimLink,
    InsufficientVotes,
    InvariantViolation,
    PartitionMismatch,
    RootMismatch,
)
from .ledger import (
    EAGER,
    LAZY,
    AccountTree,
    LeafCache,
    LedgerState,
    ShardState,
    SubTransaction,
    apply_eager,
    apply_lazy,
)
from .merkle import merkle_levels, merkle_root, merkle_update
from .partitioning import PartitionConfig, next_partition_count, reshard_trigger, split_shards

INTERIM = "interim"
MAIN = "main"
ZERO_HASH = bytes(32)

GENESIS_SEED = sha3(b"fission-genesis")


def kind_for_epoch(epoch: int) -> str:
    return MAIN if epoch % 2 == 0 else INTERIM


def next_seed(seed: bytes, block_hash: bytes) -> bytes:
    """Epoch seed evolution: fold the confirmed block hash into the old seed."""
    return sha3(seed + block_hash)


@dataclass(slots=True)
class Votes:
    """The votes on one block hash as parallel columns in casting order:
    each voter's key, its claimed weight and its signature."""

    block_hash: bytes = b""
    voters: list[bytes] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)
    signatures: list[bytes] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.voters)


@dataclass
class TallyResult:
    confirmed: bool
    weight: int


def tally(votes: Votes, quorum: int) -> TallyResult:
    """Sum distinct-voter weights against the quorum; a voter that votes
    again counts once, with its first weight."""
    # built back to front, so each voter keeps its first weight
    weight = sum(dict(zip(reversed(votes.voters), reversed(votes.weights))).values())
    return TallyResult(confirmed=weight >= quorum, weight=weight)


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
    votes: Votes = field(default_factory=Votes)

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


def compute_root_arrays(
    body: list[SubTransaction], post_state: LedgerState
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Per-shard Merkle roots of the block body, the post-state accounts of
    each shard, and the log entries this block created (credits create none).

    A sub-transaction belongs to the shard of the account it mutates (sender
    for debits, receiver for credits). Roots ``post_state``: each shard's
    tree becomes current and ``written`` is emptied. Only written accounts
    are rehashed, and work whose content matches a shard's memos (see
    ``LeafCache``) is not repeated.
    """
    n = post_state.n_shard
    from_bytes = int.from_bytes  # shard_of's arithmetic, inlined per entry
    subs: list[list[SubTransaction]] = [[] for _ in range(n)]
    for sub in body:
        subs[from_bytes(sub.sender if sub.kind == EAGER else sub.receiver, "big") % n].append(sub)
    written: list[list[bytes]] = [[] for _ in range(n)]
    for pk in post_state.written:
        written[from_bytes(pk, "big") % n].append(pk)
    tx_roots, account_roots, log_roots = [], [], []
    for shard, shard_subs, keys in zip(post_state.shards, subs, written):
        tx_root, log_root = _body_roots(shard_subs, shard.cache)
        tx_roots.append(tx_root)
        log_roots.append(log_root)
        if keys or shard.tree is None:
            shard.tree = _derive_tree(shard, keys, post_state)
        account_roots.append(shard.tree.root)
    post_state.written.clear()
    return tx_roots, account_roots, log_roots


def _body_roots(subs: list[SubTransaction], cache: LeafCache) -> tuple[bytes, bytes]:
    """(tx root, log root) of one shard's part of a body, in body order."""
    ids = [sub.id for sub in subs]
    key = b"".join(ids)
    memo = cache.body
    if memo is None or memo[0] != key:
        # each log leaf is sha3(encode_fields(parent_id, receiver, encode_uint(value)))
        logs = [
            sha3(b"".join((
                length_prefix(len(sub.parent_id)), sub.parent_id,
                length_prefix(len(sub.receiver)), sub.receiver,
                UINT_PREFIX, int(sub.value).to_bytes(8, "big"),
            )))
            for sub in subs
            if sub.kind == EAGER
        ]
        memo = cache.body = (key, (merkle_root(ids), merkle_root(logs)))
    return memo[1]


def _leaf(known: dict[bytes, tuple[int, int, bytes]], pk: bytes, balance: int, nonce: int) -> bytes:
    """The account's leaf, ``sha3(encode_fields(pk, encode_uint(balance),
    encode_uint(nonce)))``, reused from ``known`` when balance and nonce match."""
    hit = known.get(pk)
    if hit is None or hit[0] != balance or hit[1] != nonce:
        leaf = sha3(b"".join((
            length_prefix(len(pk)), pk,
            UINT_PREFIX, int(balance).to_bytes(8, "big"),
            UINT_PREFIX, int(nonce).to_bytes(8, "big"),
        )))
        hit = known[pk] = (balance, nonce, leaf)
    return hit[2]


def _derive_tree(shard: ShardState, keys: list[bytes], state: LedgerState) -> AccountTree:
    """The tree of the shard's accounts in ``state``, given that only
    ``keys`` changed since ``shard.tree``.

    Recomputes the paths above the changed leaves when every key is already
    in the tree; a new key shifts positions, so it rebuilds the tree over the
    tree's keys and the written ones. A shard never rooted has no tree, and
    its written keys are all its accounts.
    """
    cache, base = shard.cache, shard.tree
    known, balances, nonces = cache.leaves, state.balances, state.nonces
    changes = tuple((pk, _leaf(known, pk, balances[pk], nonces[pk])) for pk in sorted(keys))
    memo = cache.derived
    if memo is not None and memo[0] is base and memo[1] == changes:
        return memo[2]
    if base is not None and all(pk in base.index for pk in keys):
        index = base.index
        levels = merkle_update(base.levels, {index[pk]: leaf for pk, leaf in changes})
        tree = AccountTree(index, levels)
    else:
        order = sorted(base.index.keys() | keys) if base is not None else [pk for pk, _ in changes]
        levels = merkle_levels([_leaf(known, pk, balances[pk], nonces[pk]) for pk in order])
        tree = AccountTree({pk: i for i, pk in enumerate(order)}, levels)
    cache.derived = (base, changes, tree)
    return tree


class Chain:
    """Validating chain: holds blocks plus the ledger state they produce.

    ``partition`` (one partition if omitted) is copied, never written; the
    shard count is ``state``'s.
    """

    def __init__(self, state: LedgerState, quorum: int, partition: PartitionConfig | None = None):
        self.state = state
        self.quorum = quorum
        self._partition = replace(partition or PartitionConfig(1, state.n_shard), n_shard=state.n_shard)
        # (n_partition, n_shard) of each main block since the last re-shard
        self._main_window: list[tuple[int, int]] = []
        self.blocks: list[Block] = []
        self.blocks.append(self._seal([], state))

    @property
    def n_partition(self) -> int:
        """The partition count the next block's header must carry."""
        return self._partition.n_partition

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def next_header(self) -> BlockHeader:
        """The header the next block must carry, root arrays still empty:
        the one derivation of its fields, for ``propose`` and
        ``append_block``. With no blocks yet it is the genesis header."""
        if self.blocks:
            tip = self.tip
            parent = tip.hash
            epoch, seed = tip.epoch + 1, next_seed(tip.header.seed, parent)
        else:
            epoch, parent, seed = 0, ZERO_HASH, GENESIS_SEED
        kind = kind_for_epoch(epoch)
        return BlockHeader(
            epoch=epoch,
            kind=kind,
            parent_hash=parent,
            interim_hash=parent if kind == MAIN else ZERO_HASH,
            tx_root=[],
            account_root=[],
            tx_log_root=[],
            seed=seed,
            n_shard=self.state.n_shard,
            n_partition=self.n_partition,
        )

    def propose(self, body: list[SubTransaction]) -> Block:
        """The next block holding ``body``, unvoted, with every header field
        derived as ``append_block`` checks it."""
        return self._seal(body, self._execute(body))

    def _seal(self, body: list[SubTransaction], post_state: LedgerState) -> Block:
        """The next block of ``body``, whose execution left ``post_state``;
        roots ``post_state``."""
        header = self.next_header()
        header.tx_root, header.account_root, header.tx_log_root = compute_root_arrays(body, post_state)
        return Block(header=header, body=body)

    def _execute(self, body: list[SubTransaction]) -> LedgerState:
        """A clone of the chain state with ``body`` applied."""
        scratch = self.state.clone()
        for sub in body:
            if sub.kind == EAGER:
                apply_eager(scratch, sub)
            else:
                apply_lazy(scratch, sub)
        return scratch

    def append_block(self, block: Block) -> None:
        """Validate and execute a block, extending the chain by one epoch, then
        apply the epoch rules: an interim block's confirmed debits scale the
        partition count, and a main block can complete a saturated re-shard
        window.

        Every header field is checked against ``next_header`` before the body
        runs. Execution happens on a scratch copy; the chain state only
        advances if every check passes.
        """
        header = block.header
        expected = self.next_header()
        if header.epoch != expected.epoch:
            raise AlternationViolation(
                f"epoch {header.epoch} does not follow tip epoch {self.tip.epoch}"
            )
        if header.kind != expected.kind:
            raise AlternationViolation(
                f"epoch {header.epoch} must be {expected.kind}, got {header.kind}"
            )
        if header.parent_hash != expected.parent_hash:
            raise BadInterimLink("parent hash does not match chain tip")
        if header.interim_hash != expected.interim_hash:
            raise BadInterimLink(
                "main block must reference the preceding block's hash"
                if header.kind == MAIN
                else "non-main block carries an interim reference"
            )
        if header.seed != expected.seed:
            raise InvariantViolation(
                "consensus-engine", "seed-evolution", f"epoch {header.epoch} seed not derived from tip"
            )
        if header.n_partition != expected.n_partition or header.n_shard != expected.n_shard:
            raise PartitionMismatch(
                f"header counts (n_partition {header.n_partition}, n_shard {header.n_shard}) differ "
                f"from the chain's ({expected.n_partition}, {expected.n_shard})"
            )

        expected_kind = EAGER if header.kind == INTERIM else LAZY
        if any(sub.kind != expected_kind for sub in block.body):
            raise InvariantViolation(
                "core-ledger", "body-kind", f"{header.kind} block holds foreign sub-transactions"
            )

        scratch = self._execute(block.body)
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
            result = tally(header.votes, self.quorum)
            if not result.confirmed:
                raise InsufficientVotes(f"vote weight {result.weight} below quorum {self.quorum}")

        self.state = scratch
        self.blocks.append(block)
        if header.kind == INTERIM:
            self._partition.n_partition = next_partition_count(len(block.body), self._partition)
            return
        self._main_window.append((header.n_partition, header.n_shard))
        if reshard_trigger(self._main_window, self._partition.n_rs):
            self.state = split_shards(self.state)
            self._partition.n_shard = self.state.n_shard
            self._main_window.clear()

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
        "votes": [
            [voter.hex(), weight, signature.hex()]
            for voter, weight, signature in zip(h.votes.voters, h.votes.weights, h.votes.signatures)
        ],
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
