"""Hashing, canonical byte encoding, and the pluggable signing/VRF schemes.

SHA3-256 is the single hash primitive. The records the ledger and chain hash
are packed by compiled layouts (``record_layout``), byte for byte the
canonical ``encode_fields`` encoding. The deterministic test schemes below
stand in for curve-based signatures and verifiable random functions: a keyed
hash plays both roles, with public keys derived as ``pk = H(sk)`` and
verification backed by a key registry held by the harness. Swapping in a real
scheme only requires implementing ``sign``, ``verify`` and ``vrf_eval``, and
their batch forms ``sign_each`` and ``vrf_hashes``, against the same byte
contracts. No simulator checks a single VRF proof; the tests hold that check.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections.abc import Callable
from dataclasses import dataclass

from .errors import VerificationFailure

HASH_BYTES = 32


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def encode_field(data: bytes) -> bytes:
    """Length-prefix a field: 4-byte big-endian length, then the raw bytes."""
    return len(data).to_bytes(4, "big") + data


# ``length_prefix(n)`` is the 4-byte big-endian length that ``encode_field``
# puts before n bytes.
length_prefix = struct.Struct(">I").pack


def encode_fields(*fields: bytes) -> bytes:
    """Canonical encoding: fixed-order concatenation of length-prefixed fields
    (each as ``encode_field`` lays it out)."""
    return b"".join([length_prefix(len(f)) + f for f in fields])


def encode_uint(value: int, width: int = 8) -> bytes:
    return int(value).to_bytes(width, "big")


# A record shape entry for an integer field, laid out as ``encode_uint``;
# every other entry is the byte length of a bytes field.
UINT = None


@functools.lru_cache(maxsize=256)
def record_layout(*shape: int | None) -> Callable[..., bytes]:
    """The packer of records of ``shape``: ``record_layout(*shape)(*fields)``
    is ``encode_fields`` of the fields, each ``UINT`` field as
    ``encode_uint(field)``, laid out by one compiled ``struct`` call.

    The fields must have the shape's lengths. An integer outside 8 unsigned
    bytes raises the ``OverflowError`` that ``encode_uint`` raises. The
    ledger's and chain's records are framed through here, and no other
    module lays out record bytes.
    """
    names = [f"f{i}" for i in range(len(shape))]
    fmt, args, uints = [">"], [], []
    for name, length in zip(names, shape):
        if length is UINT:
            fmt.append("IQ")
            args.append(f"8, {name}")
            uints.append(f"encode_uint({name})")
        else:
            fmt.append(f"I{length}s")
            args.append(f"{length}, {name}")
    # a fixed-arity function: struct cannot hold the constant length prefixes,
    # so they are written into the call, and the caller passes only fields
    source = (
        f"def pack_record({', '.join(names)}):\n"
        f"    try:\n"
        f"        return pack({', '.join(args)})\n"
        f"    except error:\n"
        f"        {'; '.join(uints + ['raise'])}\n"
    )
    namespace = {"pack": struct.Struct("".join(fmt)).pack, "error": struct.error, "encode_uint": encode_uint}
    exec(compile(source, f"<record layout {shape}>", "exec"), namespace)
    return namespace["pack_record"]


# ---------------------------------------------------------------------------
# key registry + keyed-hash signatures


class KeyRegistry:
    """Maps each public key to its node's secret key, framed for signing, for
    the test schemes, and records each signature made through ``sign`` until
    ``verify`` first checks it.

    A real deployment never has this object; it models the fact that each node
    signs with its own secret key while the simulation drives all nodes from
    one process. Outside this module a node is named by its public key alone.
    """

    def __init__(self):
        # each secret key as its first encode_fields field, framed once here
        # instead of once per draw and signature
        self._framed_by_pk: dict[bytes, bytes] = {}
        # the signature of each (pk, message) signed through sign() and not
        # yet checked: verify's first check reads it instead of hashing again
        self._signed: dict[tuple[bytes, bytes], bytes] = {}

    def generate(self, seed_material: bytes) -> tuple[bytes, bytes]:
        """Derive an (sk, pk) pair deterministically from seed material."""
        sk = sha3(b"sk" + seed_material)
        pk = sha3(sk)
        self._framed_by_pk[pk] = length_prefix(len(sk)) + sk
        return sk, pk

    def framed_secrets(self, pks: list[bytes]) -> list[bytes]:
        """``encode_field(sk)`` of each pk's secret key, the input of
        ``vrf_hashes`` and ``sign_each``."""
        framed = self._framed_by_pk
        try:
            return [framed[pk] for pk in pks]
        except KeyError as err:
            raise VerificationFailure(f"unknown public key {err.args[0].hex()[:16]}") from None

    def sign(self, pk: bytes, message: bytes) -> bytes:
        """``sign(sk, message)`` with the secret key of ``pk``, recorded until
        ``verify`` first checks a signature on ``message`` from ``pk``. Raises
        ``VerificationFailure`` for a key this registry did not generate."""
        framed = self._framed_by_pk.get(pk)
        if framed is None:
            raise VerificationFailure(f"unknown public key {pk.hex()[:16]}")
        signature = _signature(framed, length_prefix(len(message)) + message)
        self._signed[pk, message] = signature
        return signature

    def __contains__(self, pk: bytes) -> bool:
        return pk in self._framed_by_pk


def _signature(framed_sk: bytes, framed_message: bytes) -> bytes:
    """The keyed-hash signature ``sha3(b"sig" + encode_fields(sk, message))``
    from ``encode_field(sk)`` and ``encode_field(message)``; ``sign``,
    ``sign_each`` and ``verify`` all hash through it."""
    return sha3(b"sig" + framed_sk + framed_message)


def sign(sk: bytes, message: bytes) -> bytes:
    """Keyed-hash signature: ``sha3(b"sig" + encode_fields(sk, message))``.
    The program signs through ``KeyRegistry.sign`` and ``sign_each``; the
    tests compare them with this form."""
    return _signature(length_prefix(len(sk)) + sk, length_prefix(len(message)) + message)


def sign_each(framed_sks: list[bytes], message: bytes) -> bytes:
    """``sign(sk, message)`` of each key in ``framed_sks``, framed as
    ``encode_field(sk)``, in key order, joined into one column of
    ``HASH_BYTES`` each: one ``sha3`` per key, the message framed once."""
    framed_message = length_prefix(len(message)) + message
    return b"".join([_signature(framed, framed_message) for framed in framed_sks])


def verify(registry: KeyRegistry, pk: bytes, message: bytes, signature: bytes) -> bytes | None:
    """The signed record ``encode_fields(message, signature)``, which a
    transaction id hashes, if ``signature`` is ``sign(sk, message)`` for the
    secret key of ``pk``; None otherwise, also for a key the registry does not
    hold. The message is framed once, for the record and for the signature.

    ``signature`` is compared on every check. The expected signature is the
    one ``registry.sign`` recorded for ``(pk, message)``, which this check
    takes out of the record, or, with none recorded, recomputed from the key
    framed once in ``registry``: a second check of the same message hashes."""
    framed = registry._framed_by_pk.get(pk)
    if framed is None:
        return None
    record = record_layout(len(message), len(signature))(message, signature)
    expected = registry._signed.pop((pk, message), None)
    if expected is None:
        # the record starts with encode_field(message)
        expected = _signature(framed, record[: 4 + len(message)])
    return record if expected == signature else None


# ---------------------------------------------------------------------------
# verifiable random function (deterministic test scheme)


@dataclass(frozen=True, slots=True)
class VrfOutput:
    """A 256-bit pseudorandom value plus the proof that binds it to (pk, seed, type)."""

    hash: bytes
    proof: bytes


def vrf_eval(sk: bytes, seed: bytes, ctype: str) -> VrfOutput:
    """Deterministic pseudorandom draw for one (secret key, epoch seed, committee type).

    The hash is ``sha3(encode_fields(sk, seed, ctype.encode()))`` and the proof
    ``sha3(b"prf" + encode_fields(...))`` of the same fields.
    """
    tag = ctype.encode()
    material = b"".join(
        (length_prefix(len(sk)), sk, length_prefix(len(seed)), seed, length_prefix(len(tag)), tag)
    )
    return VrfOutput(sha3(material), sha3(b"prf" + material))


def vrf_hashes(framed_sks: list[bytes], seed: bytes, ctype: str) -> list[bytes]:
    """``[vrf_eval(sk, seed, ctype).hash for sk in sks]`` from each key framed
    as ``encode_field(sk)``: one ``sha3`` per key, no proof material kept."""
    tag = ctype.encode()
    tail = b"".join((length_prefix(len(seed)), seed, length_prefix(len(tag)), tag))
    return [sha3(framed + tail) for framed in framed_sks]
