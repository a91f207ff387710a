import gc
import math
import random
from dataclasses import replace
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fission_sim import chain
from fission_sim import ledger as ledger_module
from fission_sim.crypto import KeyRegistry, encode_fields, encode_uint, sha3, sign
from fission_sim.errors import (
    BadNonce,
    DoubleCredit,
    DuplicateDebit,
    InsufficientBalance,
    InvalidSignature,
    InvariantViolation,
    MissingEagerLog,
    NonPositiveValue,
    TransactionRejected,
    UnknownAccount,
    VerificationFailure,
)
from fission_sim.ledger import (
    EAGER,
    LAZY,
    TRANSFER_TAG,
    TX_TYPE_TRANSFER,
    ZERO_HASH,
    LedgerState,
    SubTransaction,
    Transaction,
    apply_eager,
    apply_lazy,
    home_partitions,
    make_transfer,
    split_transaction,
)
from fission_sim.merkle import merkle_root
from fission_sim.partitioning import split_shards
from reference import shard_of


@pytest.fixture
def reg():
    return KeyRegistry()


def new_key(reg, label):
    """The public key of a new node, the only name ``make_transfer`` takes."""
    return reg.generate(label.encode())[1]


def test_split_produces_debit_and_credit(reg):
    # one record is both halves: applied as a debit, then as its credit
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    tx = make_transfer(reg, pk_a, pk_b, 10, 1)
    debit = split_transaction(tx, reg)
    parent_id, sender, receiver, value, nonce = debit
    assert parent_id == tx.id
    assert (sender, receiver, value, nonce) == (pk_a, pk_b, 10, 1)
    state = LedgerState(4)
    state.create_account(pk_a, 50)
    apply_eager(state, debit)
    apply_lazy(state, debit)
    assert state.balances == {pk_a: 40, pk_b: 10} and not state.pending


def test_split_self_transfer_nets_to_zero(reg):
    pk_a = new_key(reg, "a")
    tx = make_transfer(reg, pk_a, pk_a, 5, 1)
    debit = split_transaction(tx, reg)
    state = LedgerState(4)
    state.create_account(pk_a, 50)
    apply_eager(state, debit)
    apply_lazy(state, debit)
    assert state.balances[pk_a] == 50 and state.nonces[pk_a] == 1


def test_split_rejects_bad_signature(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    good = make_transfer(reg, pk_a, pk_b, 10, 1)
    forged = Transaction(
        good.tx_type, good.sender, good.receiver, good.value,
        good.nonce, good.data_hash, sha3(b"x" + good.signature),
    )
    with pytest.raises(InvalidSignature):
        split_transaction(forged, reg)


def test_split_rejects_non_positive_value(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    with pytest.raises(NonPositiveValue):
        split_transaction(make_transfer(reg, pk_a, pk_b, 0, 1), reg)


def test_split_roundtrip_over_random_batch(reg):
    # oracle: the debit record, which its credit also is, holds the original fields
    rng = random.Random(11)
    keys = [new_key(reg, f"k{i}") for i in range(10)]
    for i in range(100):
        pk_s = keys[rng.randrange(10)]
        pk_r = keys[rng.randrange(10)]
        value = rng.randint(1, 10_000)
        nonce = rng.randint(1, 50)
        tx = make_transfer(reg, pk_s, pk_r, value, nonce)
        parent_id, sender, receiver, value, nonce = split_transaction(tx, reg)
        assert parent_id == tx.id
        assert (sender, receiver, value, nonce) == (tx.sender, tx.receiver, tx.value, tx.nonce)


def test_transaction_id_is_stable_and_tamper_evident(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    tx = make_transfer(reg, pk_a, pk_b, 10, 1)
    same = make_transfer(reg, pk_a, pk_b, 10, 1)
    other = make_transfer(reg, pk_a, pk_b, 11, 1)
    assert tx.id == same.id
    assert tx.id != other.id


def test_make_transfer_equals_the_transaction_built_by_hand(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    tx = make_transfer(reg, pk_a, pk_b, 10, 1)
    by_hand = Transaction(TX_TYPE_TRANSFER, pk_a, pk_b, 10, 1, ZERO_HASH, tx.signature)
    assert by_hand == tx
    assert by_hand.signing_bytes() == tx.signing_bytes()
    assert by_hand.id == tx.id


def test_make_transfer_rejects_a_key_the_registry_did_not_generate(reg):
    sk_b, pk_b = reg.generate(b"b")
    # a stranger's public key, and a node's secret key, which names no node
    for sender in (sha3(sha3(b"stranger")), sk_b):
        with pytest.raises(VerificationFailure):
            make_transfer(reg, sender, pk_b, 10, 1)


def count_sha3(monkeypatch):
    """The inputs of every ``sha3`` call that crypto and ledger make from now on."""
    calls = []

    def counting_sha3(data):
        calls.append(data)
        return sha3(data)

    monkeypatch.setattr("fission_sim.crypto.sha3", counting_sha3)
    monkeypatch.setattr("fission_sim.ledger.sha3", counting_sha3)
    return calls


def test_make_transfer_hashes_once(reg, monkeypatch):
    # the signature is the one hash; the secret comes framed from the registry
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    calls = count_sha3(monkeypatch)
    make_transfer(reg, pk_a, pk_b, 10, 1)
    assert len(calls) == 1


def test_a_recorded_transfer_is_admitted_with_one_hash(reg, monkeypatch):
    # the id is the one hash: the signature check reads the registry's record
    # of the signature make_transfer made, and takes it out
    sk_a, pk_a = reg.generate(b"a")
    pk_b = new_key(reg, "b")
    tx = make_transfer(reg, pk_a, pk_b, 10, 1)
    assert reg._signed == {(pk_a, tx.signing_bytes()): tx.signature}
    calls = count_sha3(monkeypatch)
    debit = split_transaction(tx, reg)
    assert calls == [encode_fields(tx.signing_bytes(), tx.signature)] and not reg._signed
    # a second check, and a transaction built by hand, hash the signature too
    assert split_transaction(tx, reg) == debit and len(calls) == 2
    signing = encode_fields(TRANSFER_TAG, pk_a, pk_b, encode_uint(10), encode_uint(2), ZERO_HASH)
    by_hand = Transaction(TX_TYPE_TRANSFER, pk_a, pk_b, 10, 2, ZERO_HASH, sign(sk_a, signing))
    calls.clear()
    split_transaction(by_hand, reg)
    assert len(calls) == 2


def test_records_are_untracked_tuples_and_compare_by_value(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    tx = make_transfer(reg, pk_a, pk_b, 10, 1)
    eager = split_transaction(tx, reg)
    assert not hasattr(tx, "__dict__")
    # a block keeps its body for the whole run, so a sub-transaction is the
    # exact tuple of its five fields, with no hash and no kind (its block's
    # kind says which half it is), which the collector stops tracking
    assert type(eager) is tuple and len(eager) == 5
    gc.collect()
    assert not gc.is_tracked(eager)
    # built anew, with no memo filled yet, each still equals the original
    same_tx = Transaction(
        tx.tx_type, tx.sender, tx.receiver, tx.value, tx.nonce, tx.data_hash, tx.signature
    )
    assert same_tx == tx and same_tx._id is None and tx._id is not None
    parent_id, sender, receiver, _, _ = eager
    same_eager = (bytes(bytearray(parent_id)), sender, receiver, 10, 1)
    assert same_eager == eager and same_eager is not eager
    assert hash(same_eager) == hash(eager)
    assert same_eager != (parent_id, sender, receiver, 11, 1)


# --- record encodings ---

# byte strings of any length: empty, around the 32-byte key/hash size, and
# past one length byte
FIELDS = st.one_of(
    st.sampled_from((0, 1, 31, 32, 33, 300)).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.binary(max_size=300),
)
UINTS = st.one_of(st.sampled_from((0, 2**64 - 1)), st.integers(0, 2**64 - 1))
OUT_OF_RANGE = st.one_of(
    st.sampled_from((-1, 2**64)), st.integers(max_value=-1), st.integers(min_value=2**64)
)
KINDS = st.sampled_from((EAGER, LAZY))
TX_TYPES = st.one_of(st.just(TX_TYPE_TRANSFER), st.text(max_size=20))


def raw_sha3(data: bytes) -> bytes:
    """Stands in for ``sha3`` so a record's hash input can be compared byte for byte."""
    return data


def log_root(sub: SubTransaction) -> bytes:
    """The log root of a body of just ``sub``, a debit."""
    return merkle_root([chain._log_leaf(sub)])


@settings(max_examples=200, deadline=None)
@given(
    kind=KINDS, tx_type=TX_TYPES, fields=st.tuples(FIELDS, FIELDS, FIELDS, FIELDS, FIELDS),
    value=UINTS, nonce=UINTS,
)
def test_inline_record_encodings_equal_encode_fields(kind, tx_type, fields, value, nonce):
    parent, sender, receiver, data_hash, signature = fields
    sub = (parent, sender, receiver, value, nonce)
    with patch.object(ledger_module, "sha3", raw_sha3):
        assert ledger_module.sub_ids(kind, [sub]) == [encode_fields(
            kind.encode(), parent, sender, receiver, encode_uint(value), encode_uint(nonce)
        )]
    # two shapes in one pass through the layout cache: fields past 32 bytes
    # and all 32-byte fields
    subs = [
        (parent + bytes(33), sender + bytes(33), receiver + bytes(33), value, nonce),
        (sha3(parent), sha3(sender), sha3(receiver), value, nonce),
    ]
    with patch.object(ledger_module, "sha3", raw_sha3):
        assert ledger_module.sub_ids(kind, subs) == [
            encode_fields(kind.encode(), p, s, r, encode_uint(value), encode_uint(nonce))
            for p, s, r, _, _ in subs
        ]
    signing = encode_fields(
        tx_type.encode(), sender, receiver, encode_uint(value), encode_uint(nonce), data_hash
    )
    tx = Transaction(tx_type, sender, receiver, value, nonce, data_hash, signature)
    assert tx.signing_bytes() == signing
    with patch.object(ledger_module, "sha3", raw_sha3):
        assert tx.id == encode_fields(signing, signature)
    with patch.object(chain, "sha3", raw_sha3):
        leaf = chain._leaf(sender, value, nonce)
        log = log_root((parent, sender, receiver, value, nonce))
    assert leaf == encode_fields(sender, encode_uint(value), encode_uint(nonce))
    assert log == merkle_root([encode_fields(parent, receiver, encode_uint(value))])
    # admission frames the signed message once, for the signature check and the id
    reg = KeyRegistry()
    sk, pk = reg.generate(sender)
    positive = max(value, 1)
    signing = encode_fields(
        tx_type.encode(), pk, receiver, encode_uint(positive), encode_uint(nonce), data_hash
    )
    signed = Transaction(tx_type, pk, receiver, positive, nonce, data_hash, sign(sk, signing))
    parent_id, _, _, _, _ = split_transaction(signed, reg)
    assert parent_id == sha3(encode_fields(signing, signed.signature))
    assert signed.id is parent_id
    forged = Transaction(tx_type, pk, receiver, positive, nonce, data_hash, sha3(b"forged" + signed.signature))
    unknown = Transaction(tx_type, sha3(pk), receiver, positive, nonce, data_hash, signed.signature)
    for bad in (forged, unknown):
        with pytest.raises(InvalidSignature):
            split_transaction(bad, reg)


@settings(max_examples=100, deadline=None)
@given(bad=OUT_OF_RANGE, kind=KINDS, key=FIELDS)
def test_inline_record_encodings_reject_integers_outside_eight_bytes(bad, kind, key):
    with pytest.raises(OverflowError):
        encode_uint(bad)
    for value, nonce in ((bad, 0), (0, bad)):
        with pytest.raises(OverflowError):
            ledger_module.sub_ids(kind, [(key, key, key, value, nonce)])
        with pytest.raises(OverflowError):
            Transaction(TX_TYPE_TRANSFER, key, key, value, nonce, key, key).signing_bytes()
        with pytest.raises(OverflowError):
            chain._leaf(key, value, nonce)
    with pytest.raises(OverflowError):
        log_root((key, key, key, bad, 1))


@settings(max_examples=100, deadline=None)
@given(
    materials=st.lists(st.binary(max_size=40), min_size=1, max_size=3, unique=True),
    value=st.one_of(st.sampled_from((1, 2**64 - 1)), st.integers(1, 2**64 - 1)),
    nonce=UINTS,
    data_hash=FIELDS,
)
def test_make_transfer_signs_from_the_senders_public_key(materials, value, nonce, data_hash):
    reg = KeyRegistry()
    (sk, pk), *others = [reg.generate(m) for m in materials]
    receiver = others[0][1] if others else pk
    tx = make_transfer(reg, pk, receiver, value, nonce, data_hash)
    assert tx.signing_bytes() == encode_fields(
        TX_TYPE_TRANSFER.encode(), pk, receiver, encode_uint(value), encode_uint(nonce), data_hash
    )
    assert tx.signature == sign(sk, tx.signing_bytes())
    parent_id, *fields = split_transaction(tx, reg)
    assert parent_id == tx.id
    assert tuple(fields) == (pk, receiver, value, nonce)


def admit_by_hand(tx: Transaction, secrets: dict[bytes, bytes]) -> SubTransaction:
    """``split_transaction`` recomputed with no record: the expected signature
    from ``crypto.sign`` with the sender's secret key, for a key in ``secrets``."""
    if tx.value <= 0:
        raise NonPositiveValue("non-positive")
    message = tx.signing_bytes()
    sk = secrets.get(tx.sender)
    if sk is None or sign(sk, message) != tx.signature:
        raise InvalidSignature("bad signature")
    return (sha3(encode_fields(message, tx.signature)), tx.sender, tx.receiver, tx.value, tx.nonce)


def outcome(admit, *args):
    """What ``admit(*args)`` gives: a debit record, or the type of its rejection."""
    try:
        return admit(*args)
    except TransactionRejected as err:
        return type(err)


# how a drawn transfer is presented for admission: as signed, with a field
# changed after signing (by a fresh copy or in place, past the memo of its
# signed bytes), signed by a key the registry did not generate, twice over,
# or checked twice
CHANGES = st.sampled_from(
    ("none", "sender", "receiver", "value", "nonce", "signature", "stranger", "twin", "again")
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 8))
def test_the_signature_record_admits_as_a_recomputation_does(data, n):
    reg, strangers = KeyRegistry(), KeyRegistry()
    secrets = {pk: sk for sk, pk in (reg.generate(b"k%d" % i) for i in range(3))}
    pks = list(secrets)
    stranger = strangers.generate(b"stranger")[1]
    key = st.sampled_from(pks)
    txs = []
    for _ in range(n):
        sender, receiver = data.draw(key), data.draw(key)
        value = data.draw(st.one_of(st.sampled_from((0, 1, 2**64 - 1)), st.integers(0, 2**64 - 1)))
        nonce = data.draw(UINTS)
        change = data.draw(CHANGES)
        tx = make_transfer(reg, sender, receiver, value, nonce)
        if change in ("sender", "receiver", "value", "nonce", "signature"):
            new = data.draw({
                "sender": st.sampled_from(pks + [stranger]),
                "receiver": st.sampled_from(pks + [stranger]),
                "value": st.integers(0, 2**64 - 1),
                "nonce": UINTS,
                "signature": st.one_of(st.just(sha3(b"forged" + tx.signature)), st.binary(max_size=40)),
            }[change])
            if data.draw(st.booleans()):
                tx = replace(tx, **{change: new})
            else:
                setattr(tx, change, new)
        elif change == "stranger":
            tx = make_transfer(strangers, stranger, receiver, value, nonce)
        txs.append(tx)
        if change == "twin":
            txs.append(make_transfer(reg, sender, receiver, value, nonce))
        elif change == "again":
            txs.append(tx)
    # every transfer is drawn before any is admitted, as in an epoch
    for tx in data.draw(st.permutations(txs)):
        expected = outcome(admit_by_hand, tx, secrets)
        assert outcome(split_transaction, tx, reg) == expected


# --- eager application ---


def eager_for(reg, sender, receiver, value, nonce):
    tx = make_transfer(reg, sender, receiver, value, nonce)
    return split_transaction(tx, reg)


def test_apply_eager_exact_balance_boundary(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 10)
    eager = eager_for(reg, pk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    assert state.balances[pk_a] == 0
    parent_id, _, _, _, _ = eager
    assert list(state.pending) == [parent_id]
    _, sender, receiver, value, nonce = state.pending[parent_id]
    assert (sender, receiver, value, nonce) == (pk_a, pk_b, 10, 1)


def test_pending_log_holds_the_debit_that_clones_and_splits_share(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(2)
    state.create_account(pk_a, 100)
    eager = eager_for(reg, pk_a, pk_b, 10, 1)
    parent_id, _, _, _, _ = eager
    apply_eager(state, eager)
    assert state.pending[parent_id] is eager
    clone, split = state.clone(), split_shards(state)
    assert clone.pending[parent_id] is eager
    assert split.pending[parent_id] is eager
    for copy in (clone, split):
        apply_lazy(copy, eager)
        assert not copy.pending
        assert copy.balances[pk_b] == 10
    # the credits consumed the copies' entries, not the original's
    assert state.pending[parent_id] is eager and pk_b not in state.balances


def test_apply_eager_insufficient_balance_leaves_state_unchanged(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 5)
    eager = eager_for(reg, pk_a, pk_b, 10, 1)
    with pytest.raises(InsufficientBalance):
        apply_eager(state, eager)
    assert state.balances[pk_a] == 5 and state.nonces[pk_a] == 0
    assert not state.pending


def test_apply_eager_guards(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    bad_nonce = eager_for(reg, pk_a, pk_b, 1, 3)
    with pytest.raises(BadNonce):
        apply_eager(state, bad_nonce)
    pk_c = new_key(reg, "c")  # no account in state
    ghost = eager_for(reg, pk_c, pk_b, 1, 1)
    with pytest.raises(UnknownAccount):
        apply_eager(state, ghost)


def test_apply_eager_rejects_a_parent_id_already_pending_or_credited(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    state.create_account(pk_b, 100)
    debit = eager_for(reg, pk_a, pk_b, 40, 1)
    parent_id, _, _, _, _ = debit
    apply_eager(state, debit)
    # a valid debit of B's that names A's transfer as its parent
    forged = (parent_id, pk_b, pk_a, 40, 1)
    with pytest.raises(DuplicateDebit):
        apply_eager(state, forged)
    assert state.pending == {parent_id: debit}
    apply_lazy(state, debit)
    with pytest.raises(DuplicateDebit):
        apply_eager(state, forged)  # a credited id stays spent
    assert not state.pending and state.total_balance() == 200
    assert state.balances[pk_b] == 140 and state.nonces[pk_b] == 0


def test_eager_conservation_over_random_batch(reg):
    # oracle: total balance drops by exactly the sum of applied values
    rng = random.Random(5)
    n_accounts = 20
    keys = [new_key(reg, f"c{i}") for i in range(n_accounts)]
    state = LedgerState(8)
    for pk in keys:
        state.create_account(pk, 10_000_000)
    nonces = {pk: 0 for pk in keys}
    before = state.total_balance()
    total_moved = 0
    for i in range(1000):
        pk_s = keys[rng.randrange(n_accounts)]
        pk_r = keys[rng.randrange(n_accounts)]
        value = rng.randint(1, 500)
        nonces[pk_s] += 1
        eager = eager_for(reg, pk_s, pk_r, value, nonces[pk_s])
        apply_eager(state, eager)
        total_moved += value
    assert state.total_balance() == before - total_moved
    assert len(state.pending) == 1000
    assert state.pending_value() == total_moved


# --- lazy application ---


def test_apply_lazy_completes_transfer(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    state.create_account(pk_b, 0)
    eager = eager_for(reg, pk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    apply_lazy(state, eager)
    assert state.balances[pk_b] == 10
    assert not state.pending


def test_apply_lazy_requires_matching_log(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    with pytest.raises(MissingEagerLog):
        apply_lazy(state, eager_for(reg, pk_a, pk_b, 10, 1))


def test_apply_lazy_rejects_double_credit(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(4)
    state.create_account(pk_a, 100)
    eager = eager_for(reg, pk_a, pk_b, 10, 1)
    apply_eager(state, eager)
    apply_lazy(state, eager)
    with pytest.raises(DoubleCredit):
        apply_lazy(state, eager)


def credit_block(state, pk, block, width):
    """Debit and credit ``width`` self-transfers of ``pk`` on ``state``, as
    one main block's credits; their parent ids."""
    pids = [sha3(b"line-%d-%d" % (block, i)) for i in range(width)]
    for pid in pids:
        debit = (pid, pk, pk, 1, state.nonces[pk] + 1)
        apply_eager(state, debit)
        apply_lazy(state, debit)
    return pids


def test_a_line_of_copies_commits_into_one_log_and_one_sibling_forks_it_once(reg):
    # 300 main blocks, each credited on two clones of the tip, as the
    # proposer and the validator credit it, then the validator's clone for
    # the next epoch commits its ids; at block 150 a sibling of the
    # validator credits and commits first
    pk = new_key(reg, "line")
    tip = LedgerState(2)
    tip.create_account(pk, 1000)
    ids, forks = tip.credited.log.ids, []
    for block in range(300):
        visible = set(tip.credited)
        credit_block(tip.clone(), pk, block, block % 4)  # the proposer's, never copied
        validator = tip.clone()
        new = credit_block(validator, pk, block, block % 4)
        if block == 150:
            sibling = tip.clone()
            credit_block(sibling, pk, -1, 2)
            sibling.clone()
        validator.clone()
        credited = validator.credited
        if credited.log.ids is not ids:
            ids = credited.log.ids
            forks.append(block)
        # exactly the validator's own new ids went in, under its commit
        # number; after the fork the dict holds none of the sibling's
        assert set(ids) == visible | set(new) == set(credited)
        assert all(ids[pid] == credited.seen for pid in new)
        tip = validator
    assert forks == [150]


@pytest.mark.parametrize("receiver_balance", [1, 2**63, 2**64 - 11])
def test_apply_lazy_credits_up_to_the_eight_byte_balance_and_no_further(reg, receiver_balance):
    # a credit may lift a balance to exactly 2^64 - 1; one token more would
    # not fit the 8 bytes a leaf encodes, so it raises with the state unchanged
    pk_a, pk_b = new_key(reg, "a"), new_key(reg, "b")

    def pending_credit(value):
        state = LedgerState(4)
        state.create_account(pk_a, 2**64 - 1)
        state.create_account(pk_b, receiver_balance)
        debit = eager_for(reg, pk_a, pk_b, value, 1)
        apply_eager(state, debit)
        return state, debit

    fits = 2**64 - 1 - receiver_balance
    state, credit = pending_credit(fits)
    apply_lazy(state, credit)
    assert state.balances[pk_b] == 2**64 - 1 and not state.pending

    state, credit = pending_credit(fits + 1)
    before = (dict(state.balances), dict(state.nonces), dict(state.pending), set(state.written))
    with pytest.raises(InvariantViolation) as err:
        apply_lazy(state, credit)
    assert (err.value.module, err.value.invariant) == ("core-ledger", "balance-width")
    assert (dict(state.balances), dict(state.nonces), dict(state.pending), set(state.written)) == before
    parent_id, _, _, _, _ = credit
    assert parent_id not in state.credited


def test_full_phase_pair_restores_supply(reg):
    # oracle: after applying every debit then every credit, supply is exact
    rng = random.Random(17)
    keys = [new_key(reg, f"p{i}") for i in range(25)]
    state = LedgerState(8)
    for pk in keys:
        state.create_account(pk, 1_000_000)
    supply = state.total_balance()
    nonces = {pk: 0 for pk in keys}
    lazies = []
    for _ in range(500):
        pk_s = keys[rng.randrange(25)]
        pk_r = keys[rng.randrange(25)]
        nonces[pk_s] += 1
        eager = eager_for(reg, pk_s, pk_r, rng.randint(1, 100), nonces[pk_s])
        apply_eager(state, eager)
        lazies.append(eager)
    assert state.total_balance() < supply
    for lazy in lazies:
        apply_lazy(state, lazy)
    assert state.total_balance() == supply
    assert not state.pending


def test_nonce_monotonicity(reg):
    pk_a = new_key(reg, "a")
    pk_b = new_key(reg, "b")
    state = LedgerState(2)
    state.create_account(pk_a, 1000)
    for n in range(1, 11):
        eager = eager_for(reg, pk_a, pk_b, 1, n)
        apply_eager(state, eager)
    assert state.nonces[pk_a] == 10
    applied = [nonce for _, sender, _, _, nonce in state.pending.values() if sender == pk_a]
    assert applied == list(range(1, 11))


# --- shard mapping ---


def test_shard_of_trivial_values():
    # home_partitions with one shard per partition is each key's shard
    keys = [(v).to_bytes(32, "big") for v in (0, 7)]
    assert home_partitions(keys, 4, 4) == [0, 3]
    with pytest.raises(ValueError):
        home_partitions(keys, 0, 1)


def test_shard_of_uniformity_chi_square():
    # oracle: occupancy within 3 sigma of uniform over 1e5 random keys,
    # each shard also the one-key reference's
    rng = random.Random(23)
    n, shards = 100_000, 8
    keys = [rng.randbytes(32) for _ in range(n)]
    homes = home_partitions(keys, shards, shards)
    assert homes == [shard_of(key, shards) for key in keys]
    counts = [0] * shards
    for home in homes:
        counts[home] += 1
    expected = n / shards
    sigma = math.sqrt(n * (1 / shards) * (1 - 1 / shards))
    for c in counts:
        assert abs(c - expected) <= 3 * sigma, counts
