"""Accounts, two-phase transfers, and the sharded ledger state machine.

Every transfer splits into a debit half and a credit half that are confirmed
in successive blocks. The debit (eager) withdraws from the sender and stays in
the pending log; the credit (lazy) pays the receiver by consuming that debit.
An account is a balance and a nonce, which a state keeps as two int columns
keyed by public key. Accounts live in the shard ``pk mod n_shard`` with the
key read as a big-endian unsigned integer.

Canonical transaction byte layout (all fields length-prefixed, fixed order):
``tx_type, sender, receiver, value(8B BE), nonce(8B BE), data_hash`` is the
signed portion; the transaction id is SHA3-256 over that portion plus the
signature field.

Each record's bytes are packed by the compiled layout of its shape
(``crypto.record_layout``): ``crypto.encode_fields`` of the same fields, with
integers as ``crypto.encode_uint``.
"""

from __future__ import annotations

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
    MissingEagerLog,
    NonPositiveValue,
    UnknownAccount,
    VerificationFailure,
)
from .merkle import EMPTY_ROOT

TX_TYPE_TRANSFER = "transfer"
ZERO_HASH = bytes(32)

EAGER = "eager"
LAZY = "lazy"


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
    ``signing_bytes()``."""
    framed = registry.framed_secret(sender)
    if framed is None:
        raise VerificationFailure(f"unknown public key {sender.hex()[:16]}")
    message = _signing_bytes(TRANSFER_TAG, sender, receiver, value, nonce, data_hash)
    sig = crypto.sign_framed(framed, message)
    tx = Transaction(TX_TYPE_TRANSFER, sender, receiver, value, nonce, data_hash, sig)
    tx._signing = message
    return tx


@dataclass(slots=True)
class SubTransaction:
    """One half of a transfer: the debit (EAGER) or the credit (LAZY).
    Treated as immutable like ``Transaction``: only the ``_id`` memo is
    filled after construction, once."""

    kind: str  # EAGER or LAZY
    parent_id: bytes
    sender: bytes
    receiver: bytes
    value: int
    nonce: int
    _id: bytes | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def id(self) -> bytes:
        sub_id = self._id
        return sub_id if sub_id is not None else sub_ids((self,))[0]


# each kind as the first field of a sub-transaction's encoding, encoded once
KIND_TAGS = {kind: kind.encode() for kind in (EAGER, LAZY)}


def sub_ids(subs: Iterable[SubTransaction]) -> list[bytes]:
    """The ``id`` of each sub-transaction, in order, in one pass that fills
    the ``_id`` memo of each one not yet hashed.

    A sub-transaction's id is ``sha3(encode_fields(kind.encode(), parent_id,
    sender, receiver, encode_uint(value), encode_uint(nonce)))``; this is the
    one place that frames it.
    """
    ids = []
    append = ids.append
    for sub in subs:
        sub_id = sub._id
        if sub_id is None:
            tag, parent, sender, receiver = KIND_TAGS[sub.kind], sub.parent_id, sub.sender, sub.receiver
            pack = record_layout(len(tag), len(parent), len(sender), len(receiver), UINT, UINT)
            sub_id = sub._id = sha3(pack(tag, parent, sender, receiver, sub.value, sub.nonce))
        append(sub_id)
    return ids


def split_transaction(tx: Transaction, registry: KeyRegistry) -> SubTransaction:
    """The debit half of an atomic transfer: it withdraws ``value`` from the
    sender, and ``credit_of`` gives the credit that pays it out once it is
    confirmed."""
    if tx.value <= 0:
        raise NonPositiveValue(f"transfer value must be positive, got {tx.value}")
    record = crypto.verify(registry, tx.sender, tx.signing_bytes(), tx.signature)
    if record is None:
        raise InvalidSignature("transaction signature does not verify against sender key")
    if tx._id is None:
        tx._id = sha3(record)  # the id hashes the record the check framed
    return SubTransaction(EAGER, tx._id, tx.sender, tx.receiver, tx.value, tx.nonce)


def credit_of(debit: SubTransaction) -> SubTransaction:
    """The credit half of a debit: it deposits the same amount to the receiver."""
    return SubTransaction(LAZY, debit.parent_id, debit.sender, debit.receiver, debit.value, debit.nonce)


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


class CreditedIds:
    """Set of credited parent ids that copies share instead of duplicating.

    Ids added since the last copy sit in a private set; older ids sit in
    frozen layers shared with every copy. A copy freezes the private set
    into a new layer, first merged into each newest layer that holds at most
    twice as many ids, so layer sizes more than double from newest to
    oldest. n ids then occupy O(log n) layers and each id is re-copied
    O(log n) times over its lifetime; beyond that amortised merge work, a
    copy's cost does not grow with the number of ids.
    """

    __slots__ = ("_layers", "_new")

    def __init__(self, layers: tuple[frozenset, ...] = ()):
        self._layers = layers
        self._new: set[bytes] = set()

    def copy(self) -> "CreditedIds":
        if self._new:
            new = frozenset(self._new)
            layers = self._layers
            while layers and len(layers[-1]) <= 2 * len(new):
                new = layers[-1] | new
                layers = layers[:-1]
            self._layers = layers + (new,)
            self._new = set()
        return CreditedIds(layers=self._layers)

    def add(self, parent_id: bytes) -> None:
        self._new.add(parent_id)

    def __contains__(self, parent_id: bytes) -> bool:
        if parent_id in self._new:
            return True
        for layer in self._layers:
            if parent_id in layer:
                return True
        return False

    def __iter__(self):
        return iter(self._new.union(*self._layers))


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

    ``root_memo`` is a one-item list that a state and all its clones share:
    the last rooting any of them did, which ``chain.compute_root_arrays``
    fills and reads, so that the validator's repeat of the proposer's rooting
    costs one key comparison. A fresh state (genesis, ``split_shards``)
    starts with an empty one.
    """

    def __init__(self, n_shard: int):
        if n_shard < 1:
            raise ValueError("n_shard must be >= 1")
        self.n_shard = n_shard
        self.balances: dict[bytes, int] = {}
        self.nonces: dict[bytes, int] = {}
        self.trees: list[AccountTree | None] = [None] * n_shard
        self.root_memo: list = [None]
        # parent_id -> the confirmed debit, while its credit has not applied;
        # no code writes a debit after it is built, so states and clones
        # share them
        self.pending: dict[bytes, SubTransaction] = {}
        self.credited = CreditedIds()
        self.written: set[bytes] = set()

    def clone(self) -> "LedgerState":
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
        return sum(debit.value for debit in self.pending.values())


def apply_eager(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a debit: withdraw from the sender and log the debit as pending.

    Raises without touching state if the sender is unknown, short on balance,
    or the nonce is not exactly one past the account's, or if the parent id
    is already pending or credited.
    """
    assert sub.kind == EAGER
    sender = sub.sender
    nonce = state.nonces.get(sender)
    if nonce is None:
        raise UnknownAccount(f"no account for sender {sender.hex()[:16]}")
    if sub.nonce != nonce + 1:
        raise BadNonce(f"expected nonce {nonce + 1}, got {sub.nonce}")
    balance = state.balances[sender]
    if balance < sub.value:
        raise InsufficientBalance(f"balance {balance} < value {sub.value}")
    if sub.parent_id in state.pending or sub.parent_id in state.credited:
        raise DuplicateDebit(f"parent id {sub.parent_id.hex()[:16]} already has a debit")
    state.balances[sender] = balance - sub.value
    state.nonces[sender] = sub.nonce
    state.written.add(sender)
    state.pending[sub.parent_id] = sub


def apply_lazy(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a credit: pay the receiver and consume the matching pending debit.

    Each pending debit is consumable exactly once, by a credit whose sender,
    receiver, value and nonce are the debit's; an unknown receiver account is
    created with zero starting balance. Raises without touching state
    otherwise.
    """
    assert sub.kind == LAZY
    debit = state.pending.get(sub.parent_id)
    if debit is None:
        # the writers never leave an id both pending and credited, so the
        # credited ids are read only to name the failure
        if sub.parent_id in state.credited:
            raise DoubleCredit(f"credit already applied for {sub.parent_id.hex()[:16]}")
        raise MissingEagerLog(f"no debit log for {sub.parent_id.hex()[:16]}")
    if (
        sub.sender != debit.sender
        or sub.receiver != debit.receiver
        or sub.value != debit.value
        or sub.nonce != debit.nonce
    ):
        raise CreditMismatch(f"credit for {sub.parent_id.hex()[:16]} differs from its debit")
    receiver = sub.receiver
    balance = state.balances.get(receiver)
    if balance is None:
        state.create_account(receiver, debit.value)
    else:
        state.balances[receiver] = balance + debit.value
        state.written.add(receiver)
    del state.pending[sub.parent_id]
    state.credited.add(sub.parent_id)
