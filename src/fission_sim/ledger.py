"""Accounts, two-phase transfers, and the sharded ledger state machine.

Every transfer splits into a debit half and a credit half that are confirmed
in successive blocks. The debit (eager) withdraws from the sender and stays in
the pending log; the credit (lazy) pays the receiver by consuming that debit.
Accounts live in the shard ``pk mod n_shard`` with the key read as a
big-endian unsigned integer.

Canonical transaction byte layout (all fields length-prefixed, fixed order):
``tx_type, sender, receiver, value(8B BE), nonce(8B BE), data_hash`` is the
signed portion; the transaction id is SHA3-256 over that portion plus the
signature field.

Each record's bytes are written out flat, in one ``b"".join`` of length
prefixes and fields; the layout is ``crypto.encode_fields`` of the same
fields, with integers as ``crypto.encode_uint``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto
from .crypto import UINT_PREFIX, KeyRegistry, length_prefix, sha3
from .errors import (
    BadNonce,
    DoubleCredit,
    DuplicateDebit,
    InsufficientBalance,
    InvalidSignature,
    MissingEagerLog,
    NonPositiveValue,
    UnknownAccount,
)
from .merkle import EMPTY_ROOT

TX_TYPE_TRANSFER = "transfer"
ZERO_HASH = bytes(32)

EAGER = "eager"
LAZY = "lazy"


def shard_of(pk: bytes, n_shard: int) -> int:
    """Home shard of a public key: big-endian integer value mod shard count."""
    if n_shard < 1:
        raise ValueError("n_shard must be >= 1")
    return int.from_bytes(pk, "big") % n_shard


@dataclass(slots=True)
class Account:
    pk: bytes
    balance: int
    nonce: int = 0


def _signing_bytes(
    tx_type: str, sender: bytes, receiver: bytes, value: int, nonce: int, data_hash: bytes
) -> bytes:
    tag = tx_type.encode()
    return b"".join((
        length_prefix(len(tag)), tag,
        length_prefix(len(sender)), sender,
        length_prefix(len(receiver)), receiver,
        UINT_PREFIX, int(value).to_bytes(8, "big"),
        UINT_PREFIX, int(nonce).to_bytes(8, "big"),
        length_prefix(len(data_hash)), data_hash,
    ))


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
                self.tx_type, self.sender, self.receiver, self.value, self.nonce, self.data_hash
            )
        return self._signing

    @property
    def id(self) -> bytes:
        if self._id is None:
            message, sig = self.signing_bytes(), self.signature
            self._id = sha3(b"".join((length_prefix(len(message)), message, length_prefix(len(sig)), sig)))
        return self._id


def make_transfer(
    registry: KeyRegistry,
    sk: bytes,
    receiver: bytes,
    value: int,
    nonce: int,
    data_hash: bytes = ZERO_HASH,
) -> Transaction:
    """Build and sign a transfer from the holder of ``sk``, a key that
    ``registry`` generated; the signed message is kept as the transaction's
    ``signing_bytes()``."""
    sender = registry.public_key(sk)
    message = _signing_bytes(TX_TYPE_TRANSFER, sender, receiver, value, nonce, data_hash)
    sig = crypto.sign(sk, message)
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

    def encode(self) -> bytes:
        kind = self.kind.encode()
        return b"".join((
            length_prefix(len(kind)), kind,
            length_prefix(len(self.parent_id)), self.parent_id,
            length_prefix(len(self.sender)), self.sender,
            length_prefix(len(self.receiver)), self.receiver,
            UINT_PREFIX, int(self.value).to_bytes(8, "big"),
            UINT_PREFIX, int(self.nonce).to_bytes(8, "big"),
        ))

    @property
    def id(self) -> bytes:
        if self._id is None:
            self._id = sha3(self.encode())
        return self._id


def split_transaction(tx: Transaction, registry: KeyRegistry) -> SubTransaction:
    """The debit half of an atomic transfer: it withdraws ``value`` from the
    sender, and ``credit_of`` gives the credit that pays it out once it is
    confirmed."""
    if tx.value <= 0:
        raise NonPositiveValue(f"transfer value must be positive, got {tx.value}")
    if not crypto.verify(registry, tx.sender, tx.signing_bytes(), tx.signature):
        raise InvalidSignature("transaction signature does not verify against sender key")
    return SubTransaction(EAGER, tx.id, tx.sender, tx.receiver, tx.value, tx.nonce)


def credit_of(debit: SubTransaction) -> SubTransaction:
    """The credit half of a debit: it deposits the same amount to the receiver."""
    return SubTransaction(LAZY, debit.parent_id, debit.sender, debit.receiver, debit.value, debit.nonce)


class AccountTree:
    """Merkle tree of one shard's accounts at one point in time: each key's
    leaf position (keys in sorted order) and every layer of the tree
    (``merkle.merkle_levels``). Never changed after it is built, so states
    and memos share it freely."""

    __slots__ = ("index", "levels")

    def __init__(self, index: dict[bytes, int], levels: list[list[bytes]]):
        self.index = index
        self.levels = levels

    @property
    def root(self) -> bytes:
        return self.levels[-1][0] if self.index else EMPTY_ROOT


class LeafCache:
    """Root memos of one shard, shared by a state and all its clones.

    Every entry is keyed by the full content it summarises, so whichever
    clone fills it, the proposer's and the validator's identical work is done
    once. All are filled only by ``chain.compute_root_arrays``:

    - ``leaves`` maps pk -> (balance, nonce, leaf hash) for the last version
      of each account that was hashed; a leaf is reused only when balance
      and nonce both match.
    - ``derived`` is the last tree derivation: (base tree, the sorted
      (pk, leaf) pairs of the written accounts, the tree they give). The
      base tree is compared by identity; it is None for a state never
      rooted, whose written accounts are all its accounts.
    - ``body`` is the last body rooted in the shard: (joined ids of its
      sub-transactions, (tx root, log root)). The ids fix the log entries,
      so they key the log root too.
    """

    __slots__ = ("leaves", "derived", "body")

    def __init__(self):
        self.leaves: dict[bytes, tuple[int, int, bytes]] = {}
        self.derived: tuple[AccountTree | None, tuple, AccountTree] | None = None
        self.body: tuple[bytes, tuple[bytes, bytes]] | None = None


@dataclass
class ShardState:
    cache: LeafCache = field(default_factory=LeafCache)
    # the tree of the shard's accounts as they were when it was last rooted;
    # None until the first rooting of a fresh state
    tree: AccountTree | None = None


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
    """One account table for every shard, the per-shard trees and root memos,
    and the pool of debits awaiting credits.

    ``accounts`` maps pk -> ``Account`` across all shards; an account's shard
    (``shard_of(pk, n_shard)``) matters only when the state is rooted, so
    lookups and writes never compute it. Its order is insertion order:
    readers that need an order sort.

    Single-writer: one block pipeline mutates a state at a time. ``clone()``
    is copy-on-write: the clone shares ``Account`` objects with its parent,
    and whichever of the two writes an account first replaces it with a
    private copy. Write accounts only through this class and ``apply_eager``
    / ``apply_lazy``; an ``Account`` returned by ``get_account`` may be shared
    with clones.

    ``written`` holds the key of every account written since each shard's
    ``tree`` was rooted, so that rooting rehashes only those. It is complete
    only because ``_private`` and ``create_account`` are the only writers:
    an account changed any other way keeps its old leaf in the next root.
    """

    def __init__(self, n_shard: int):
        if n_shard < 1:
            raise ValueError("n_shard must be >= 1")
        self.n_shard = n_shard
        self.accounts: dict[bytes, Account] = {}
        self.shards = [ShardState() for _ in range(n_shard)]
        # parent_id -> the confirmed debit, while its credit has not applied;
        # no code writes a debit after it is built, so states and clones
        # share them
        self.pending: dict[bytes, SubTransaction] = {}
        self.credited = CreditedIds()
        # keys of the accounts this state may write in place
        self._owned: set[bytes] = set()
        self.written: set[bytes] = set()

    def clone(self) -> "LedgerState":
        other = LedgerState.__new__(LedgerState)
        other.n_shard = self.n_shard
        other.accounts = dict(self.accounts)
        other.shards = [ShardState(s.cache, s.tree) for s in self.shards]
        other.pending = dict(self.pending)
        other.credited = self.credited.copy()
        other._owned = set()
        other.written = set(self.written)
        # every account is shared from now on, so this state copies on write too
        self._owned = set()
        return other

    def create_account(self, pk: bytes, balance: int, nonce: int = 0) -> Account:
        acct = self.accounts[pk] = Account(pk, balance, nonce)
        self._owned.add(pk)
        self.written.add(pk)
        return acct

    def get_account(self, pk: bytes) -> Account | None:
        return self.accounts.get(pk)

    def _private(self, acct: Account) -> Account:
        """``acct`` if this state may write it in place, else a private copy
        that replaces it in this state."""
        pk = acct.pk
        self.written.add(pk)
        if pk in self._owned:
            return acct
        acct = self.accounts[pk] = Account(pk, acct.balance, acct.nonce)
        self._owned.add(pk)
        return acct

    def total_balance(self) -> int:
        return sum(a.balance for a in self.accounts.values())

    def pending_value(self) -> int:
        return sum(debit.value for debit in self.pending.values())

    def account_count(self) -> int:
        return len(self.accounts)

    def iter_accounts(self):
        return iter(self.accounts.values())


def apply_eager(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a debit: withdraw from the sender and log the debit as pending.

    Raises without touching state if the sender is unknown, short on balance,
    or the nonce is not exactly one past the account's, or if the parent id
    is already pending or credited.
    """
    assert sub.kind == EAGER
    acct = state.get_account(sub.sender)
    if acct is None:
        raise UnknownAccount(f"no account for sender {sub.sender.hex()[:16]}")
    if sub.nonce != acct.nonce + 1:
        raise BadNonce(f"expected nonce {acct.nonce + 1}, got {sub.nonce}")
    if acct.balance < sub.value:
        raise InsufficientBalance(f"balance {acct.balance} < value {sub.value}")
    if sub.parent_id in state.pending or sub.parent_id in state.credited:
        raise DuplicateDebit(f"parent id {sub.parent_id.hex()[:16]} already has a debit")
    acct = state._private(acct)
    acct.balance -= sub.value
    acct.nonce += 1
    state.pending[sub.parent_id] = sub


def apply_lazy(state: LedgerState, sub: SubTransaction) -> None:
    """Apply a credit: pay the receiver and consume the matching pending debit.

    Each pending debit is consumable exactly once; an unknown receiver account is
    created with zero starting balance.
    """
    assert sub.kind == LAZY
    if sub.parent_id in state.credited:
        raise DoubleCredit(f"credit already applied for {sub.parent_id.hex()[:16]}")
    debit = state.pending.get(sub.parent_id)
    if debit is None:
        raise MissingEagerLog(f"no debit log for {sub.parent_id.hex()[:16]}")
    acct = state.get_account(sub.receiver)
    acct = state.create_account(sub.receiver, 0) if acct is None else state._private(acct)
    acct.balance += debit.value
    del state.pending[sub.parent_id]
    state.credited.add(sub.parent_id)
