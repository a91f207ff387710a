"""Block structures and the alternating two-phase chain.

Blocks alternate: even epochs carry credit (main) blocks, odd epochs carry
debit (interim) blocks, and a main block credits the very debit records an
interim block confirmed: the header's kind says which half every entry is.
The chain owns the ledger state and re-executes every appended body, so
header root arrays are verified against an independent recomputation rather
than trusted. It also applies the partition scaler and re-sharding. One
derivation gives every other header field: ``propose`` fills a new block's
header from it and ``append_block`` checks against it.

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
    MalformedBody,
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

ENTRY_KIND = {INTERIM: EAGER, MAIN: LAZY}  # the half every entry of a block is


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
    kind: str, body: list[SubTransaction], post_state: LedgerState
) -> tuple[list[bytes], list[bytes], list[bytes]]:
    """Per-shard Merkle roots of the block body of ``kind`` (EAGER or LAZY)
    entries, the post-state accounts of each shard, and the log entries
    this block created (credits create none).

    A sub-transaction belongs to the shard of the account it mutates (sender
    for debits, receiver for credits). Roots ``post_state``: its ``trees``
    become current and ``written`` is emptied. Only written accounts are
    rehashed.

    The result depends only on the trees the state was last rooted at, the
    balance and nonce of each written account, the kind (equal entries root
    apart as debits and credits) and the body's entries, so those four make
    the key of the state's ``root_memo``. The entries are tuples, compared
    by value in body order, so no id is hashed to build the key: a rooting
    with the key of the last one, as the validator's repeats the
    proposer's, installs that rooting's trees and hashes nothing, even for
    a body rebuilt from equal records. A miss hashes each entry's id, and
    each debit's log leaf, once.
    """
    balances, nonces = post_state.balances, post_state.nonces
    key = (
        tuple(post_state.trees),  # AccountTree has no __eq__: compared by identity
        [(pk, balances[pk], nonces[pk]) for pk in sorted(post_state.written)],
        kind,
        list(body),  # records are tuples, compared by value
    )
    memo = post_state.root_memo[0]
    if memo is None or memo[0] != key:
        n = post_state.n_shard  # home_partitions with n partitions of one shard each
        tx_leaves: list[list[bytes]] = [[] for _ in range(n)]
        log_leaves: list[list[bytes]] = [[] for _ in range(n)]
        if kind == EAGER:
            mutated = [sender for _, sender, _, _, _ in body]
        else:
            mutated = [receiver for _, _, receiver, _, _ in body]
        shards = home_partitions(mutated, n, n)
        for sub_id, shard in zip(sub_ids(kind, body), shards):
            tx_leaves[shard].append(sub_id)
        if kind == EAGER:
            for sub, shard in zip(body, shards):
                log_leaves[shard].append(_log_leaf(sub))
        written = key[1]
        changes: list[list[tuple[bytes, bytes]]] = [[] for _ in range(n)]
        for (pk, balance, nonce), shard in zip(written, home_partitions([pk for pk, _, _ in written], n, n)):
            changes[shard].append((pk, _leaf(pk, balance, nonce)))
        trees = [
            _derive_tree(base, shard_changes) if shard_changes or base is None else base
            for base, shard_changes in zip(key[0], changes)
        ]
        roots = (
            [merkle_root(leaves) for leaves in tx_leaves],
            [tree.root for tree in trees],
            [merkle_root(leaves) for leaves in log_leaves],
        )
        memo = post_state.root_memo[0] = (key, trees, roots)
    post_state.trees = list(memo[1])
    post_state.written.clear()
    # headers keep the lists they are given, so each call returns its own
    tx_roots, account_roots, log_roots = memo[2]
    return list(tx_roots), list(account_roots), list(log_roots)


def _log_leaf(debit: SubTransaction) -> bytes:
    """The debit's log leaf, ``sha3(encode_fields(parent_id, receiver,
    encode_uint(value)))``."""
    parent, _, receiver, value, _ = debit
    return sha3(record_layout(len(parent), len(receiver), UINT)(parent, receiver, value))


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
        self._extend(self._seal(self.next_header(), [], state))

    @property
    def tip(self) -> Block:
        return self.blocks[-1]

    def _extend(self, block: Block) -> None:
        """Make ``block`` the tip, and record its hash and the seed of the
        epoch after it, which ``next_header`` reads."""
        self.blocks.append(block)
        self._tip_hash = block.hash
        self._next_seed = next_seed(block.header.seed, self._tip_hash)

    def next_header(self) -> BlockHeader:
        """The header the next block must carry, root arrays still empty:
        the one derivation of its fields, for ``propose`` and
        ``append_block``. With no blocks yet it is the genesis header.

        It hashes nothing: the tip's hash and the next seed were recorded
        when the tip was appended."""
        if self.blocks:
            epoch, parent, seed = self.tip.epoch + 1, self._tip_hash, self._next_seed
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
        header = self.next_header()
        return self._seal(header, body, self._execute(ENTRY_KIND[header.kind], body))

    def _seal(self, header: BlockHeader, body: list[SubTransaction], post_state: LedgerState) -> Block:
        """The block of ``header`` and ``body``, whose execution left
        ``post_state``; roots ``post_state`` into the header's root arrays."""
        roots = compute_root_arrays(ENTRY_KIND[header.kind], body, post_state)
        header.tx_root, header.account_root, header.tx_log_root = roots
        return Block(header=header, body=body)

    def _execute(self, kind: str, body: list[SubTransaction]) -> LedgerState:
        """A clone of the chain state with ``body`` applied as ``kind`` (EAGER
        or LAZY) halves. Raises ``MalformedBody`` for an entry that is not
        exactly a ``tuple`` of five fields, or for a field not of its exact
        type: the root memo compares by value, a tuple subclass can redefine
        equality, and 1.0 == True == 1 and bytearray(b) == b."""
        apply = apply_eager if kind == EAGER else apply_lazy
        scratch = self.state.clone()
        for sub in body:
            if type(sub) is not tuple or len(sub) != 5:
                shape = f"a {len(sub)}-tuple" if type(sub) is tuple else f"a {type(sub).__name__}"
                raise MalformedBody(f"body entry is {shape}, not a 5-tuple")
            parent_id, sender, receiver, value, nonce = sub
            if not (
                type(value) is type(nonce) is int
                and type(parent_id) is type(sender) is type(receiver) is bytes
            ):
                types = ", ".join(type(field).__name__ for field in sub)
                raise MalformedBody(f"body entry of types ({types}), not (bytes, bytes, bytes, int, int)")
            apply(scratch, sub)
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

        kind = ENTRY_KIND[header.kind]
        scratch = self._execute(kind, block.body)
        if header.kind == MAIN and block.body and scratch.pending:
            raise InvariantViolation(
                "core-ledger",
                "lazy-completeness",
                f"{len(scratch.pending)} pending credits left out of a non-empty main block",
            )

        tx_root, account_root, log_root = compute_root_arrays(kind, block.body, scratch)
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
        self._extend(block)
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
                "kind": ENTRY_KIND[h.kind],
                "parent_id": parent_id.hex(),
                "sender": sender.hex(),
                "receiver": receiver.hex(),
                "value": value,
                "nonce": nonce,
            }
            for parent_id, sender, receiver, value, nonce in block.body
        ],
    }
