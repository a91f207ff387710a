"""Hashing, canonical byte encoding, and the pluggable signing/VRF schemes.

SHA3-256 is the single hash primitive. The deterministic test schemes below
stand in for curve-based signatures and verifiable random functions: a keyed
hash plays both roles, with public keys derived as ``pk = H(sk)`` and
verification backed by a key registry held by the harness. Swapping in a real
scheme only requires implementing the same four functions, and their batch
forms ``sign_each`` and ``vrf_hashes``, against the same byte contracts.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import VerificationFailure

HASH_BYTES = 32
TWO_256 = 1 << 256


def sha3(data: bytes) -> bytes:
    return hashlib.sha3_256(data).digest()


def encode_field(data: bytes) -> bytes:
    """Length-prefix a field: 4-byte big-endian length, then the raw bytes."""
    return len(data).to_bytes(4, "big") + data


_LENGTH_PREFIX = struct.Struct(">I").pack


def encode_fields(*fields: bytes) -> bytes:
    """Canonical encoding: fixed-order concatenation of length-prefixed fields
    (each as ``encode_field`` lays it out)."""
    return b"".join([_LENGTH_PREFIX(len(f)) + f for f in fields])


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
        # each secret key as its first encode_fields field, framed once here
        # instead of once per draw and signature
        self._framed_by_pk: dict[bytes, bytes] = {}

    def generate(self, seed_material: bytes) -> tuple[bytes, bytes]:
        """Derive an (sk, pk) pair deterministically from seed material."""
        sk = sha3(b"sk" + seed_material)
        pk = sha3(sk)
        self._sk_by_pk[pk] = sk
        self._framed_by_pk[pk] = _LENGTH_PREFIX(len(sk)) + sk
        return sk, pk

    def secret_for(self, pk: bytes) -> bytes:
        try:
            return self._sk_by_pk[pk]
        except KeyError:
            raise VerificationFailure(f"unknown public key {pk.hex()[:16]}") from None

    def framed_secrets(self, pks: list[bytes]) -> list[bytes]:
        """``encode_field(sk)`` of each pk's secret key, the input of
        ``vrf_hashes`` and ``sign_each``."""
        framed = self._framed_by_pk
        try:
            return [framed[pk] for pk in pks]
        except KeyError as err:
            raise VerificationFailure(f"unknown public key {err.args[0].hex()[:16]}") from None

    def __contains__(self, pk: bytes) -> bool:
        return pk in self._sk_by_pk


def sign(sk: bytes, message: bytes) -> bytes:
    """Keyed-hash signature: ``sha3(b"sig" + encode_fields(sk, message))``."""
    return sha3(b"".join((b"sig", _LENGTH_PREFIX(len(sk)), sk, _LENGTH_PREFIX(len(message)), message)))


def sign_each(framed_sks: list[bytes], message: bytes) -> list[bytes]:
    """``[sign(sk, message) for sk in sks]`` from each key framed as
    ``encode_field(sk)``: one ``sha3`` per key, the message framed once."""
    tail = _LENGTH_PREFIX(len(message)) + message
    return [sha3(b"sig" + framed + tail) for framed in framed_sks]


def verify(registry: KeyRegistry, pk: bytes, message: bytes, signature: bytes) -> bool:
    if pk not in registry:
        return False
    return sign(registry.secret_for(pk), message) == signature


# ---------------------------------------------------------------------------
# verifiable random function (deterministic test scheme)


class VrfOutput:
    """A 256-bit pseudorandom value plus the proof that binds it to (pk, seed, type).

    Only verifiers read the proof, so an output from ``vrf_eval`` keeps its
    evaluation input and hashes the proof the first time ``proof`` is read.
    Outputs compare and hash by ``(hash, proof)``.
    """

    __slots__ = ("hash", "_proof", "_material")

    def __init__(self, hash: bytes, proof: bytes):
        self.hash = hash
        self._proof = proof
        self._material = None

    @property
    def proof(self) -> bytes:
        proof = self._proof
        if proof is None:
            proof = self._proof = sha3(b"prf" + self._material)
            self._material = None
        return proof

    @property
    def uniform(self) -> float:
        """The hash mapped into [0, 1)."""
        return int.from_bytes(self.hash, "big") / TWO_256

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VrfOutput):
            return NotImplemented
        return self.hash == other.hash and self.proof == other.proof

    def __hash__(self) -> int:
        return hash((self.hash, self.proof))

    def __repr__(self) -> str:
        return f"VrfOutput(hash={self.hash!r}, proof={self.proof!r})"


_new_output = object.__new__


def vrf_eval(sk: bytes, seed: bytes, ctype: str) -> VrfOutput:
    """Deterministic pseudorandom draw for one (secret key, epoch seed, committee type).

    The hash is ``sha3(encode_fields(sk, seed, ctype.encode()))`` and the proof
    ``sha3(b"prf" + encode_fields(...))`` of the same fields.
    """
    tag = ctype.encode()
    material = b"".join(
        (_LENGTH_PREFIX(len(sk)), sk, _LENGTH_PREFIX(len(seed)), seed, _LENGTH_PREFIX(len(tag)), tag)
    )
    out = _new_output(VrfOutput)  # no __init__: the proof waits for its first read
    out.hash = sha3(material)
    out._proof = None
    out._material = material
    return out


def vrf_hashes(framed_sks: list[bytes], seed: bytes, ctype: str) -> list[bytes]:
    """``[vrf_eval(sk, seed, ctype).hash for sk in sks]`` from each key framed
    as ``encode_field(sk)``: one ``sha3`` per key, no proof material kept."""
    tag = ctype.encode()
    tail = b"".join((_LENGTH_PREFIX(len(seed)), seed, _LENGTH_PREFIX(len(tag)), tag))
    return [sha3(framed + tail) for framed in framed_sks]


def vrf_verify(
    registry: KeyRegistry, pk: bytes, seed: bytes, ctype: str, output: VrfOutput
) -> bool:
    """Check that (hash, proof) was honestly produced for pk's secret key."""
    if pk not in registry:
        return False
    expected = vrf_eval(registry.secret_for(pk), seed, ctype)
    return expected.hash == output.hash and expected.proof == output.proof
