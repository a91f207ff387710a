"""Accounts, two-phase transfers, and the sharded ledger state machine.

Every transfer splits into a debit half and a credit half that are confirmed
in successive blocks. The debit (eager) withdraws from the sender and stays in
the pending log; the credit (lazy) pays the receiver by consuming that debit.
Both halves are one ``SubTransaction`` record, the exact tuple
``(parent_id, sender, receiver, value, nonce)``; its block's kind says which.
Readers unpack a record's fields by name.
An account is a balance and a nonce, which a state keeps as two int columns
keyed by public key. Accounts live in the shard ``pk mod n_shard`` with the
key read as a big-endian unsigned integer.

Canonical transaction byte layout (all fields length-prefixed, fixed order):
``tx_type, sender, receiver, value(8B BE), nonce(8B BE), data_hash`` is the
signed portion; the transaction id is SHA3-256 over that portion plus the
signature field. A sub-transaction id hashes its block's kind tag (``eager``
or ``lazy``), then ``parent_id, sender, receiver, value, nonce``.

Each record's bytes are packed by the compiled layout of its shape
(``crypto.record_layout``): ``crypto.encode_fields`` of the same fields, with
integers as ``crypto.encode_uint``.
"""

from __future__ import annotations

import sys
from collections.abc import Iterable
from dataclasses import dataclass, field

from . import crypto
from .crypto import UINT, KeyRegistry, record_layout, sha3
from .errors import (
    BadNonce,
    CreditMismatch,
    DoubleCredit,
    DuplicateDebit,
    InsufficientBalance,
    InvalidSignature,
    InvariantViolation,
    MissingEagerLog,
    NonPositiveValue,
    UnknownAccount,
)
from .merkle import EMPTY_ROOT

TX_TYPE_TRANSFER = "transfer"
ZERO_HASH = bytes(32)

EAGER = "eager"
LAZY = "lazy"

# every balance is below this: blocks encode a balance in 8 bytes
BALANCE_LIMIT = 1 << 64


def home_partitions(pks: Iterable[bytes], n_shard: int, n_partition: int) -> list[int]:
    """The partition of each key's home shard, in order: the key read as a
    big-endian integer, mod ``n_shard`` (its shard), mod ``n_partition``.
    With ``n_partition == n_shard`` each partition is one shard, so this is
    each key's shard."""
    if n_shard < 1 or n_partition < 1:
        raise ValueError("n_shard and n_partition must be >= 1")
    from_bytes = int.from_bytes
    return [from_bytes(pk, "big") % n_shard % n_partition for pk in pks]


# the transfer type as the first field of a transfer's signed bytes, encoded once
TRANSFER_TAG = TX_TYPE_TRANSFER.encode()


def _signing_bytes(
    tag: bytes, sender: bytes, receiver: bytes, value: int, nonce: int, data_hash: bytes
) -> bytes:
    """A transaction's signed bytes, its type given encoded as ``tag``."""
    pack = record_layout(len(tag), len(sender), len(receiver), UINT, UINT, len(data_hash))
    return pack(tag, sender, receiver, value, nonce, data_hash)


@dataclass(slots=True)
class Transaction:
    """A signed transfer. Plain (not frozen) so that it is cheap to build,
    but treated as immutable: no code writes a field after construction.
    Only the two memos below are filled, each once."""

    tx_type: str
    sender: bytes
    receiver: bytes
    value: int
    nonce: int
    data_hash: bytes
    signature: bytes
    # memos of signing_bytes() and id, filled on first use (make_transfer
    # fills the first with the message it signed)
    _signing: bytes | None = field(default=None, init=False, repr=False, compare=False)
    _id: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def signing_bytes(self) -> bytes:
        if self._signing is None:
            self._signing = _signing_bytes(
                self.tx_type.encode(), self.sender, self.receiver, self.value, self.nonce, self.data_hash
            )
        return self._signing

    @property
    def id(self) -> bytes:
        if self._id is None:
            message, sig = self.signing_bytes(), self.signature
            self._id = sha3(record_layout(len(message), len(sig))(message, sig))
        return self._id


def make_transfer(
    registry: KeyRegistry,
    sender: bytes,
    receiver: bytes,
    value: int,
    nonce: int,
    data_hash: bytes = ZERO_HASH,
) -> Transaction:
    """Build and sign a transfer from ``sender``, a public key that
    ``registry`` generated; the signed message is kept as the transaction's
    ``signing_bytes()``, and ``registry`` records the signature for the
    transfer's first admission (``crypto.verify``)."""
    message = _signing_bytes(TRANSFER_TAG, sender, receiver, value, nonce, data_hash)
    sig = registry.sign(sender, message)
    tx = Transaction(TX_TYPE_TRANSFER, sender, receiver, value, nonce, data_hash, sig)
    tx._signing = message
    return tx


SubTransaction = tuple[bytes, bytes, bytes, int, int]
"""A transfer's record, the exact tuple ``(parent_id, sender, receiver,
value, nonce)``: an interim block confirms it as the debit (EAGER) and a main
block credits it (LAZY). It holds nothing but its five fields, and its id is
hashed by ``sub_ids`` when a rooting needs it and kept nowhere. A block keeps
its body for the whole run, and the cyclic collector stops tracking a tuple of
bytes and ints at its first pass, so retained records cost no collection
time. Records compare by value and are hashable."""


# each kind as the first field of a sub-transaction's encoding, encoded once
KIND_TAGS = {kind: kind.encode() for kind in (EAGER, LAZY)}


def sub_ids(kind: str, subs: Iterable[SubTransaction]) -> list[bytes]:
    """The ``id`` of each sub-transaction as a ``kind`` (EAGER or LAZY)
    half, in order, each hashed anew.

    A sub-transaction's id is ``sha3(encode_fields(kind.encode(), parent_id,
    sender, receiver, encode_uint(value), encode_uint(nonce)))``; this is the
    one place that frames it.
    """
    tag = KIND_TAGS[kind]
    ids = []
    append = ids.append
    for parent, sender, receiver, value, nonce in subs:
        pack = record_layout(len(tag), len(parent), len(sender), len(receiver), UINT, UINT)
        append(sha3(pack(tag, parent, sender, receiver, value, nonce)))
    return ids


def split_transaction(tx: Transaction, registry: KeyRegistry) -> SubTransaction:
    """The debit record of an atomic transfer: it withdraws ``value`` from
    the sender, and once it is confirmed a main block credits the same
    record to pay it out."""
    if tx.value <= 0:
        raise NonPositiveValue(f"transfer value must be positive, got {tx.value}")
    record = crypto.verify(registry, tx.sender, tx.signing_bytes(), tx.signature)
    if record is None:
        raise InvalidSignature("transaction signature does not verify against sender key")
    if tx._id is None:
        tx._id = sha3(record)  # the id hashes the record the check framed
    return (tx._id, tx.sender, tx.receiver, tx.value, tx.nonce)


class AccountTree:
    """Merkle tree of one shard's accounts at one point in time: each key's
    leaf position (keys in sorted order) and every layer of the tree
    (``merkle.merkle_levels``). Never changed after it is built, so states
    and the root memo share it freely."""

    __slots__ = ("index", "levels")

    def __init__(self, index: dict[bytes, int], levels: list[list[bytes]]):
        self.index = index
        self.levels = levels

    @property
    def root(self) -> bytes:
        return self.levels[-1][0] if self.index else EMPTY_ROOT


class CommitLog:
    """The credited ids of one line of copies, each mapped to the number of
    the commit that added it (``ids``), and the line's commit count
    (``commits``). Entries are only ever added, each under a number past
    every one already there, and never renumbered."""

    __slots__ = ("ids", "commits")

    def __init__(self, ids: dict[bytes, int], commits: int):
        self.ids = ids
        self.commits = commits


# a commit number past any that a line reaches: an id absent from the log
# reads as added by it, so no set sees it
UNSEEN = sys.maxsize


class CreditedIds:
    """Set of credited parent ids, kept as one commit log that a line of
    copies shares (the fat-node method for persistent structures).

    A set sees the log's ids of commit number at most ``seen``, plus the
    ids it added since it was last copied, which sit in its private set
    ``new``:

        pid in new or log.ids.get(pid, UNSEEN) <= seen

    is membership; ``__contains__`` is that line, and ``apply_eager`` writes
    it out in its own body. ``copy()`` first commits a non-empty ``new``
    under the next number: into the shared log when no other copy has
    committed past ``seen``, and otherwise into a fork that holds only the
    entries this set sees. So a copy costs the set's own new ids and never
    the history, and no set sees a sibling's or a later set's ids. The chain
    copies only its tip state after it credits, so there the log never
    forks.
    """

    __slots__ = ("log", "seen", "new")

    def __init__(self):
        self.log = CommitLog({}, 0)
        self.seen = 0
        self.new: set[bytes] = set()

    def copy(self) -> "CreditedIds":
        if self.new:
            log, seen = self.log, self.seen
            if log.commits != seen:  # another copy extended the line past this set
                log = self.log = CommitLog({pid: n for pid, n in log.ids.items() if n <= seen}, seen)
            seen = self.seen = log.commits = seen + 1
            ids = log.ids
            for pid in self.new:
                ids.setdefault(pid, seen)
            self.new = set()
        other = CreditedIds.__new__(CreditedIds)
        other.log, other.seen, other.new = self.log, self.seen, set()
        return other

    def add(self, parent_id: bytes) -> None:
        self.new.add(parent_id)

    def __contains__(self, parent_id: bytes) -> bool:
        return parent_id in self.new or self.log.ids.get(parent_id, UNSEEN) <= self.seen

    def __iter__(self):
        seen = self.seen
        return iter(self.new.union([pid for pid, n in self.log.ids.items() if n <= seen]))


class LedgerState:
    """Balances and nonces of every shard as two int columns, the per-shard
    account trees and their root memo, and the pool of debits awaiting
    credits.

    ``balances`` and ``nonces`` map pk -> int across all shards and share one
    insertion order (``create_account`` is the only place a key enters, and
    it enters both); an account's shard (``pk mod n_shard``) matters
    only when the state is rooted, so lookups and writes never compute it.
    Readers that need an order sort.

    Single-writer: one block pipeline mutates a state at a time. ``clone()``
    copies both columns, so a write to a clone never reaches its parent.
    Write accounts only through ``create_account``, ``apply_eager`` and
    ``apply_lazy``.

    ``trees`` holds each shard's tree as it was last rooted (None until the
    first rooting of a fresh state), and ``written`` the key of every account
    written since, so that rooting rehashes only those. It is complete only
    because those three functions are the only writers: an account changed
    any other way keeps its old leaf in the next root.

    ``pending`` maps each confirmed debit's parent id to its record until
    the credit applies. A record is an immutable tuple, so states, clones and
    blocks share it, and after its first pass the cyclic collector tracks
    none of them.

    ``root_memo`` is a one-item list that a state and all its clones share:
    the last rooting any of them did, keyed by the base trees, the written
    accounts, the block's kind and the body's records compared as tuples,
    which ``chain.compute_root_arrays`` fills and reads. The
    validator executes a block on its own clone, so its repeat of the
    proposer's rooting costs one key comparison and no hashing. A fresh
    state (genesis, ``split_shards``) starts with an empty one.
    """

    def __init__(self, n_shard: int):
        if n_shard < 1:
            raise ValueError("n_shard must be >= 1")
        self.n_shard = n_shard
        self.balances: dict[bytes, int] = {}
        self.nonces: dict[bytes, int] = {}
        self.trees: list[AccountTree | None] = [None] * n_shard
        self.root_memo: list = [None]
        # parent_id -> the confirmed debit, while its credit has not applied
        self.pending: dict[bytes, SubTransaction] = {}
        self.credited = CreditedIds()
        self.written: set[bytes] = set()

    def clone(self) -> "LedgerState":
        """A copy that no later write to either state reaches. It copies the
        two columns, the trees, the pending log and the written keys, shares
        the root memo, and takes ``CreditedIds.copy`` of the credited ids,
        which commits this state's new ids into the shared log first. So a
        clone costs the accounts and the in-flight debits, never the
        credited history."""
        other = LedgerState.__new__(LedgerState)
        other.n_shard = self.n_shard
        other.balances = dict(self.balances)
        other.nonces = dict(self.nonces)
        other.trees = list(self.trees)
        other.root_memo = self.root_memo
        other.pending = dict(self.pending)
        other.credited = self.credited.copy()
        other.written = set(self.written)
        return other

    def create_account(self, pk: bytes, balance: int, nonce: int = 0) -> None:
        self.balances[pk] = balance
        self.nonces[pk] = nonce
        self.written.add(pk)

    def total_balance(self) -> int:
        return sum(self.balances.values())

    def pending_value(self) -> int:
        return sum(value for _, _, _, value, _ in self.pending.values())


def apply_eager(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a debit: withdraw from the sender and log the debit as pending.

    Raises without touching state if the sender is unknown, short on balance,
    or the nonce is not exactly one past the account's, or if the parent id
    is already pending or credited.
    """
    parent_id, sender, _, value, nonce = sub
    account_nonce = state.nonces.get(sender)
    if account_nonce is None:
        raise UnknownAccount(f"no account for sender {sender.hex()[:16]}")
    if nonce != account_nonce + 1:
        raise BadNonce(f"expected nonce {account_nonce + 1}, got {nonce}")
    balance = state.balances[sender]
    if balance < value:
        raise InsufficientBalance(f"balance {balance} < value {value}")
    credited = state.credited
    # the credited check is CreditedIds.__contains__, written out
    if (
        parent_id in state.pending
        or parent_id in credited.new
        or credited.log.ids.get(parent_id, UNSEEN) <= credited.seen
    ):
        raise DuplicateDebit(f"parent id {parent_id.hex()[:16]} already has a debit")
    state.balances[sender] = balance - value
    state.nonces[sender] = nonce
    state.written.add(sender)
    state.pending[parent_id] = sub


def apply_lazy(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a credit: pay the receiver and consume the matching pending debit.

    Each pending debit is consumable exactly once, by a credit equal to the
    debit's record; an unknown receiver account is
    created with zero starting balance. Raises without touching state
    otherwise, and raises ``InvariantViolation`` if the receiver's balance
    would reach ``BALANCE_LIMIT``.
    """
    parent_id, _, receiver, value, _ = sub
    debit = state.pending.get(parent_id)
    if debit is None:
        # the writers never leave an id both pending and credited, so the
        # credited ids are read only to name the failure
        if parent_id in state.credited:
            raise DoubleCredit(f"credit already applied for {parent_id.hex()[:16]}")
        raise MissingEagerLog(f"no debit log for {parent_id.hex()[:16]}")
    if sub != debit:
        raise CreditMismatch(f"credit for {parent_id.hex()[:16]} differs from its debit")
    balance = state.balances.get(receiver)
    credited = value if balance is None else balance + value
    if credited >= BALANCE_LIMIT:
        raise InvariantViolation(
            "core-ledger", "balance-width", f"credit lifts {receiver.hex()[:16]} to {credited}, past 8 bytes"
        )
    if balance is None:
        state.create_account(receiver, credited)
    else:
        state.balances[receiver] = credited
        state.written.add(receiver)
    del state.pending[parent_id]
    state.credited.add(parent_id)
