"""Hashing, canonical byte encoding, and the pluggable signing/VRF schemes.

SHA3-256 is the single hash primitive. The deterministic test schemes below
stand in for curve-based signatures and verifiable random functions: a keyed
hash plays both roles, with public keys derived as ``pk = H(sk)`` and
verification backed by a key registry held by the harness. Swapping in a real
scheme only requires implementing ``sign``, ``verify`` and ``vrf_eval``, and
their batch forms ``sign_each`` and ``vrf_hashes``, against the same byte
contracts. No simulator checks a single VRF proof; the tests hold that check.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

from .errors import VerificationFailure

HASH_BYTES = 32
TWO_256 = 1 << 256


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def encode_field(data: bytes) -> bytes:
    """Length-prefix a field: 4-byte big-endian length, then the raw bytes."""
    return len(data).to_bytes(4, "big") + data


# ``length_prefix(n)`` is the 4-byte big-endian length that ``encode_field``
# puts before n bytes. The hot records frame their fields with it in one
# ``b"".join``; ``UINT_PREFIX`` is the prefix of every ``encode_uint`` field.
length_prefix = struct.Struct(">I").pack
UINT_PREFIX = length_prefix(8)


def encode_fields(*fields: bytes) -> bytes:
    """Canonical encoding: fixed-order concatenation of length-prefixed fields
    (each as ``encode_field`` lays it out)."""
    return b"".join([length_prefix(len(f)) + f for f in fields])


def encode_uint(value: int, width: int = 8) -> bytes:
    return int(value).to_bytes(width, "big")


# ---------------------------------------------------------------------------
# key registry + keyed-hash signatures


class KeyRegistry:
    """Maps public keys to secret keys for the test schemes.

    A real deployment never has this object; it models the fact that each node
    signs with its own secret key while the simulation drives all nodes from
    one process.
    """

    def __init__(self):
        self._sk_by_pk: dict[bytes, bytes] = {}
        self._pk_by_sk: dict[bytes, bytes] = {}
        # each secret key as its first encode_fields field, framed once here
        # instead of once per draw and signature
        self._framed_by_pk: dict[bytes, bytes] = {}

    def generate(self, seed_material: bytes) -> tuple[bytes, bytes]:
        """Derive an (sk, pk) pair deterministically from seed material."""
        sk = sha3(b"sk" + seed_material)
        pk = sha3(sk)
        self._sk_by_pk[pk] = sk
        self._pk_by_sk[sk] = pk
        self._framed_by_pk[pk] = length_prefix(len(sk)) + sk
        return sk, pk

    def secret_for(self, pk: bytes) -> bytes:
        try:
            return self._sk_by_pk[pk]
        except KeyError:
            raise VerificationFailure(f"unknown public key {pk.hex()[:16]}") from None

    def public_key(self, sk: bytes) -> bytes:
        """``sha3(sk)`` of a key this registry generated, without hashing."""
        try:
            return self._pk_by_sk[sk]
        except KeyError:
            raise VerificationFailure("unknown secret key") from None

    def framed_secrets(self, pks: list[bytes]) -> list[bytes]:
        """``encode_field(sk)`` of each pk's secret key, the input of
        ``vrf_hashes`` and ``sign_each``."""
        framed = self._framed_by_pk
        try:
            return [framed[pk] for pk in pks]
        except KeyError as err:
            raise VerificationFailure(f"unknown public key {err.args[0].hex()[:16]}") from None

    def framed_secret(self, pk: bytes) -> bytes | None:
        """``encode_field(sk)`` of pk's secret key, or None for a key this
        registry did not generate."""
        return self._framed_by_pk.get(pk)

    def __contains__(self, pk: bytes) -> bool:
        return pk in self._sk_by_pk


def _signature(framed_sk: bytes, framed_message: bytes) -> bytes:
    """The keyed-hash signature ``sha3(b"sig" + encode_fields(sk, message))``
    from ``encode_field(sk)`` and ``encode_field(message)``; ``sign``,
    ``sign_each`` and ``verify`` all hash through it."""
    return sha3(b"sig" + framed_sk + framed_message)


def sign(sk: bytes, message: bytes) -> bytes:
    """Keyed-hash signature: ``sha3(b"sig" + encode_fields(sk, message))``."""
    return _signature(length_prefix(len(sk)) + sk, length_prefix(len(message)) + message)


def sign_each(framed_sks: list[bytes], message: bytes) -> list[bytes]:
    """``[sign(sk, message) for sk in sks]`` from each key framed as
    ``encode_field(sk)``: one ``sha3`` per key, the message framed once."""
    framed_message = length_prefix(len(message)) + message
    return [_signature(framed, framed_message) for framed in framed_sks]


def verify(registry: KeyRegistry, pk: bytes, message: bytes, signature: bytes) -> bool:
    """Whether ``signature`` is ``sign(sk, message)`` for the secret key of
    ``pk``, recomputed from the key framed once in ``registry``; False for a
    key the registry does not hold."""
    framed = registry.framed_secret(pk)
    return framed is not None and _signature(framed, length_prefix(len(message)) + message) == signature


# ---------------------------------------------------------------------------
# verifiable random function (deterministic test scheme)


@dataclass(frozen=True, slots=True)
class VrfOutput:
    """A 256-bit pseudorandom value plus the proof that binds it to (pk, seed, type)."""

    hash: bytes
    proof: bytes

    @property
    def uniform(self) -> float:
        """The hash mapped into [0, 1)."""
        return int.from_bytes(self.hash, "big") / TWO_256


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
