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
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .crypto import HASH_BYTES, UINT, encode_fields, encode_uint, record_layout, sha3
from .errors import (
    AlternationViolation,
    BadInterimLink,
    InsufficientVotes,
    InvariantViolation,
    MalformedCertificate,
    PartitionMismatch,
    RootMismatch,
)
from .ledger import (
    EAGER,
    LAZY,
    AccountTree,
    LedgerState,
    SubTransaction,
    apply_eager,
    apply_lazy,
    home_partitions,
    sub_ids,
)
from .merkle import merkle_levels, merkle_root, merkle_update
from .partitioning import next_partition_count, reshard_trigger, split_shards

if TYPE_CHECKING:  # config loads the numpy-backed sortition module
    from .config import PartitionSettings

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
    each voter's key, its claimed weight and its signature. The signatures
    are one column of ``HASH_BYTES`` per voter, as ``sign_each`` joins them.

    Raises ``MalformedCertificate`` unless the columns have one entry per
    voter, so a signature column is never split at the wrong place.
    """

    block_hash: bytes = b""
    voters: list[bytes] = field(default_factory=list)
    weights: list[int] = field(default_factory=list)
    signatures: bytes = b""

    def __post_init__(self) -> None:
        n = len(self.voters)
        if len(self.weights) != n or len(self.signatures) != HASH_BYTES * n:
            raise MalformedCertificate(
                f"{n} voters with {len(self.weights)} weights and a {len(self.signatures)}-byte "
                f"signature column; expected {n} weights and {HASH_BYTES * n} bytes"
            )

    def __len__(self) -> int:
        return len(self.voters)


def tally(votes: Votes) -> int:
    """The vote weight of distinct voters; a voter that votes again counts
    once, with its first weight."""
    # built back to front, so each voter keeps its first weight
    return sum(dict(zip(reversed(votes.voters), reversed(votes.weights))).values())


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


def compute_root_arrays(
    body: list[SubTransaction], post_state: LedgerState
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Per-shard Merkle roots of the block body, the post-state accounts of
    each shard, and the log entries this block created (credits create none).

    A sub-transaction belongs to the shard of the account it mutates (sender
    for debits, receiver for credits). Roots ``post_state``: its ``trees``
    become current and ``written`` is emptied. Only written accounts are
    rehashed.

    The result depends only on the trees the state was last rooted at, the
    balance and nonce of each written account and the body's sub-transaction
    ids, so those three make the key of the state's ``root_memo``. A rooting
    with the key of the last one, as the validator's repeats the proposer's,
    installs that rooting's trees and hashes nothing.
    """
    balances, nonces = post_state.balances, post_state.nonces
    key = (
        tuple(post_state.trees),  # AccountTree has no __eq__: compared by identity
        [(pk, balances[pk], nonces[pk]) for pk in sorted(post_state.written)],
        sub_ids(body),  # hashes each id not yet memoised
    )
    memo = post_state.root_memo[0]
    if memo is None or memo[0] != key:
        n = post_state.n_shard  # home_partitions with n partitions of one shard each
        subs: list[list[SubTransaction]] = [[] for _ in range(n)]
        mutated = [sub.sender if sub.kind == EAGER else sub.receiver for sub in body]
        for sub, shard in zip(body, home_partitions(mutated, n, n)):
            subs[shard].append(sub)
        written = key[1]
        changes: list[list[tuple[bytes, bytes]]] = [[] for _ in range(n)]
        for (pk, balance, nonce), shard in zip(written, home_partitions([pk for pk, _, _ in written], n, n)):
            changes[shard].append((pk, _leaf(pk, balance, nonce)))
        trees = [
            _derive_tree(base, shard_changes) if shard_changes or base is None else base
            for base, shard_changes in zip(key[0], changes)
        ]
        body_roots = [_body_roots(shard_subs) for shard_subs in subs]
        roots = (
            [tx_root for tx_root, _ in body_roots],
            [tree.root for tree in trees],
            [log_root for _, log_root in body_roots],
        )
        memo = post_state.root_memo[0] = (key, trees, roots)
    post_state.trees = list(memo[1])
    post_state.written.clear()
    # headers keep the lists they are given, so each call returns its own
    tx_roots, account_roots, log_roots = memo[2]
    return list(tx_roots), list(account_roots), list(log_roots)


def _body_roots(subs: list[SubTransaction]) -> tuple[bytes, bytes]:
    """(tx root, log root) of one shard's part of a body, in body order."""
    # each log leaf is sha3(encode_fields(parent_id, receiver, encode_uint(value)))
    logs = [
        sha3(record_layout(len(sub.parent_id), len(sub.receiver), UINT)(sub.parent_id, sub.receiver, sub.value))
        for sub in subs
        if sub.kind == EAGER
    ]
    return merkle_root(sub_ids(subs)), merkle_root(logs)


def _leaf(pk: bytes, balance: int, nonce: int) -> bytes:
    """The account's leaf, ``sha3(encode_fields(pk, encode_uint(balance),
    encode_uint(nonce)))``."""
    return sha3(record_layout(len(pk), UINT, UINT)(pk, balance, nonce))


def _derive_tree(base: AccountTree | None, changes: list[tuple[bytes, bytes]]) -> AccountTree:
    """The tree of ``base`` with the leaves of ``changes``, ``(pk, leaf)``
    pairs in key order, set.

    Recomputes the paths above the changed leaves when every key is already
    in ``base``; a new key shifts positions, so it rebuilds the tree, taking
    the unchanged leaves from ``base``'s leaf layer. A shard never rooted has
    no base, and its changes are all its accounts.
    """
    if base is not None and all(pk in base.index for pk, _ in changes):
        index = base.index
        return AccountTree(index, merkle_update(base.levels, {index[pk]: leaf for pk, leaf in changes}))
    # an index lists its keys in leaf order, so it zips with the leaf layer
    leaves = {} if base is None else dict(zip(base.index, base.levels[0]))
    leaves.update(changes)
    order = sorted(leaves)
    return AccountTree({pk: i for i, pk in enumerate(order)}, merkle_levels([leaves[pk] for pk in order]))


class Chain:
    """Validating chain: holds blocks plus the ledger state they produce.

    ``partition`` gives the first partition count and the scaling and
    re-shard rules; it is read, never written. The two counts that move are
    ``n_partition`` and the shard count of ``state``.
    """

    def __init__(self, state: LedgerState, quorum: int, partition: PartitionSettings):
        self.state = state
        self.quorum = quorum
        self.partition = partition
        self.n_partition = partition.n_partition  # the count the next header carries
        # (n_partition, n_shard) of the last n_rs + 1 main blocks since the
        # last re-shard, all that reshard_trigger reads
        self._main_window: list[tuple[int, int]] = []
        self.blocks: list[Block] = []
        self.blocks.append(self._seal([], state))

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
            weight = tally(header.votes)
            if weight < self.quorum:
                raise InsufficientVotes(f"vote weight {weight} below quorum {self.quorum}")

        self.state = scratch
        self.blocks.append(block)
        if header.kind == INTERIM:
            self.n_partition = next_partition_count(
                len(block.body), self.n_partition, self.state.n_shard, self.partition
            )
            return
        window = self._main_window
        window.append((header.n_partition, header.n_shard))
        del window[: -(self.partition.n_rs + 1)]
        if reshard_trigger(window, self.partition.n_rs):
            self.state = split_shards(self.state)
            window.clear()

    # --- export ---

    def export_jsonl(self) -> str:
        """Every block's ``block_line``, in chain order."""
        return "".join(map(block_line, self.blocks))


def block_line(block: Block) -> str:
    """The block as one canonical JSON object, with its newline."""
    return json.dumps(block_to_dict(block), sort_keys=True, separators=(",", ":")) + "\n"


def block_to_dict(block: Block) -> dict:
    h = block.header
    votes = h.votes
    starts = range(0, len(votes.signatures), HASH_BYTES)  # one per vote, as Votes checks
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
            [voter.hex(), weight, votes.signatures[start : start + HASH_BYTES].hex()]
            for voter, weight, start in zip(votes.voters, votes.weights, starts)
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
