import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from fission_sim.crypto import (
    KeyRegistry,
    VrfOutput,
    encode_field,
    encode_fields,
    sha3,
    sign,
    sign_each,
    verify,
    vrf_eval,
    vrf_hashes,
)
from fission_sim.errors import VerificationFailure
from fission_sim.sortition import Electorate, uniforms
from reference import secret_key, uniform, vrf_verify

# byte strings around the 32-byte key/hash size and past one length byte
FIELDS = st.one_of(
    st.sampled_from((0, 31, 32, 33, 256, 300)).flatmap(lambda n: st.binary(min_size=n, max_size=n)),
    st.binary(max_size=300),
)
CTYPES = st.one_of(st.sampled_from(("leader", "block_main", "partition:0")), st.text(max_size=40))


def test_sha3_known_value():
    # SHA3-256 of empty input, from the function family definition
    assert sha3(b"").hex() == "a7ffc6f8bf1ed76651c14756a061d662f580ff4de43b49fa82d80a4b80f8434a"


def test_encode_field_layout():
    assert encode_field(b"abc") == b"\x00\x00\x00\x03abc"
    assert encode_fields(b"a", b"bc") == b"\x00\x00\x00\x01a\x00\x00\x00\x02bc"


def test_encoding_is_injective_on_field_boundaries():
    # same concatenated bytes, different field split -> different encodings
    assert encode_fields(b"ab", b"c") != encode_fields(b"a", b"bc")


def test_sign_verify_roundtrip():
    reg = KeyRegistry()
    sk, pk = reg.generate(b"alice")
    sig = sign(sk, b"hello")
    assert verify(reg, pk, b"hello", sig)
    assert not verify(reg, pk, b"hellp", sig)
    assert not verify(reg, pk, b"hello", sha3(sig))
    assert not verify(reg, sha3(b"unknown"), b"hello", sig)


def test_vrf_deterministic():
    reg = KeyRegistry()
    sk, _ = reg.generate(b"n1")
    a = vrf_eval(sk, b"seed", "leader")
    b = vrf_eval(sk, b"seed", "leader")
    assert a.hash == b.hash and a.proof == b.proof


def test_vrf_distinct_inputs_change_hash():
    reg = KeyRegistry()
    sk, _ = reg.generate(b"n1")
    base = vrf_eval(sk, b"seed", "leader")
    assert vrf_eval(sk, b"seed2", "leader").hash != base.hash
    assert vrf_eval(sk, b"seed", "block_main").hash != base.hash


def test_vrf_verify_rejects_tampering():
    reg = KeyRegistry()
    sk, pk = reg.generate(b"n1")
    out = vrf_eval(sk, b"seed", "leader")
    assert vrf_verify(reg, pk, b"seed", "leader", out)
    flipped = type(out)(hash=bytes([out.hash[0] ^ 1]) + out.hash[1:], proof=out.proof)
    assert not vrf_verify(reg, pk, b"seed", "leader", flipped)
    assert not vrf_verify(reg, pk, b"other", "leader", out)
    assert not vrf_verify(reg, pk, b"seed", "block_main", out)


def test_vrf_uniformity_ks():
    # hash / 2^256 should look uniform across seeds at the 1% KS level
    reg = KeyRegistry()
    sk, _ = reg.generate(b"ks-node")
    draws = np.array(
        [uniform(vrf_eval(sk, b"seed%d" % i, "partition:0").hash) for i in range(100_000)]
    )
    stat = stats.kstest(draws, "uniform")
    assert stat.pvalue > 0.01, f"KS p-value {stat.pvalue}"


def eager_vrf(sk: bytes, seed: bytes, ctype: str) -> VrfOutput:
    """The spelled-out VRF: both hashes of the length-prefixed fields, at once."""
    material = encode_fields(sk, seed, ctype.encode())
    return VrfOutput(hash=sha3(material), proof=sha3(b"prf" + material))


@settings(max_examples=200, deadline=None)
@given(sk=FIELDS, seed=FIELDS, ctype=CTYPES, message=FIELDS)
def test_inline_encodings_match_encode_fields(sk, seed, ctype, message):
    out = vrf_eval(sk, seed, ctype)
    material = encode_fields(sk, seed, ctype.encode())
    assert out.hash == sha3(material)
    assert out.proof == sha3(b"prf" + material)
    assert sign(sk, message) == sha3(b"sig" + encode_fields(sk, message))


@settings(max_examples=100, deadline=None)
@given(inputs=st.lists(st.tuples(FIELDS, FIELDS, CTYPES), min_size=1, max_size=6))
def test_proof_read_late_equals_eager_proof(inputs):
    # evaluate everything first, read the hashes, then the proofs in reverse
    outs = [vrf_eval(*args) for args in inputs]
    assert [o.hash for o in outs] == [eager_vrf(*args).hash for args in inputs]
    for out, args in reversed(list(zip(outs, inputs))):
        eager = eager_vrf(*args)
        assert out.proof == eager.proof
        assert out == eager and hash(out) == hash(eager) and repr(out) == repr(eager)
        assert out.proof == eager.proof  # a second read gives the same bytes


@settings(max_examples=200, deadline=None)
@given(
    materials=st.lists(st.binary(max_size=40), max_size=8, unique=True),
    others=st.lists(FIELDS, max_size=4),
    seed=FIELDS,
    ctype=CTYPES,
    message=FIELDS,
)
def test_batch_helpers_equal_scalar_vrf_and_sign(materials, others, seed, ctype, message):
    # registry keys framed at generation, plus keys of any length framed here
    reg = KeyRegistry()
    pairs = [reg.generate(m) for m in materials]
    sks = [sk for sk, _ in pairs] + others
    framed = reg.framed_secrets([pk for _, pk in pairs]) + [encode_field(sk) for sk in others]
    assert framed == [encode_field(sk) for sk in sks]
    assert vrf_hashes(framed, seed, ctype) == [vrf_eval(sk, seed, ctype).hash for sk in sks]
    assert sign_each(framed, message) == b"".join(sign(sk, message) for sk in sks)
    assert [reg.sign(pk, message) for _, pk in pairs] == [sign(sk, message) for sk, _ in pairs]


def test_framed_secrets_rejects_unknown_keys():
    # directly, and when an electorate is built over a key the registry lacks
    reg = KeyRegistry()
    _, pk = reg.generate(b"a")
    nobody = sha3(b"nobody")
    named = f"unknown public key {nobody.hex()[:16]}$"
    with pytest.raises(VerificationFailure, match=named):
        reg.framed_secrets([pk, nobody])
    with pytest.raises(VerificationFailure, match=named):
        Electorate({pk: 10, nobody: 10}, reg)


def test_public_key_is_the_hash_of_each_generated_secret_key():
    # the registry names each node by its public key alone and holds its
    # secret framed; a secret key names no node
    reg = KeyRegistry()
    for i in range(50):
        sk, pk = reg.generate(b"pk-%d" % i)
        assert pk == sha3(sk)
        assert pk in reg and sk not in reg
        assert reg.framed_secrets([pk]) == [encode_field(sk)]
        assert secret_key(reg, pk) == sk


def test_vrf_repr_hides_the_secret_key():
    sk = b"\x07" * 32
    out = vrf_eval(sk, b"seed", "leader")
    assert sk.hex() not in repr(out) and repr(sk) not in repr(out)
    assert not hasattr(out, "__dict__")


def _ties(m: int, shift: int, bump: int) -> bytes:
    # (m, 1) followed by zeros is exactly halfway between two floats; bump
    # moves it just above
    return ((((m << 1) | 1) << shift) + bump).to_bytes(32, "big")


HASHES = st.one_of(
    st.binary(min_size=32, max_size=32),
    st.integers(0, 2**256 - 1).map(lambda v: v.to_bytes(32, "big")),
    st.builds(_ties, st.integers(2**52, 2**53 - 1), st.integers(0, 202), st.integers(0, 1)),
    # a random hash shifted right by 0-256 bits, so that every length of the
    # top 64-bit word, the ones below 2^54 included, is drawn
    st.builds(
        lambda value, shift: (value >> shift).to_bytes(32, "big"),
        st.integers(0, 2**256 - 1),
        st.integers(0, 256),
    ),
)


@settings(max_examples=200, deadline=None)
@given(hashes=st.lists(HASHES, max_size=40))
def test_uniforms_equal_vrf_uniform_bit_for_bit(hashes):
    xs = uniforms(hashes)
    assert all(type(x) is float for x in xs) and len(xs) == len(hashes)
    expected = [uniform(h) for h in hashes]
    assert [x.hex() for x in xs] == [x.hex() for x in expected]


def test_uniforms_round_crafted_edges_as_exact_division():
    def word(j):
        """The lowest and highest bits of 64-bit word j (0 is the top word)."""
        return [1 << 64 * (3 - j), 1 << 64 * (3 - j) + 63]

    values = [
        0,  # the zero hash
        2**256 - 1,  # all ones, which rounds up to 1.0
        1,
        (2**54 - 1) << 192 | 2**192 - 1,  # the largest top word below 2^54
        2**54 << 192,  # the smallest top word of 2^54 or more
        (2**54 + 1) << 192,
    ]
    # (2m + 1) * 2^shift lies exactly halfway between two floats; a set bit
    # in a lower word moves it just above. At shift 192 the top word is below
    # 2^54; at 193 only bit 0 of the top word lies below the halfway bit
    for m in (2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1):
        for shift in (192, 193, 194, 202):
            tie = (2 * m + 1) << shift
            values += [tie] + [tie | bit for j in (1, 2, 3) for bit in word(j)]
            values += [tie - 1, tie + (1 << shift) - 1]
    hashes = [v.to_bytes(32, "big") for v in values]
    xs = uniforms(hashes)
    expected = [int.from_bytes(h, "big") / 2**256 for h in hashes]
    assert [x.hex() for x in xs] == [x.hex() for x in expected]
    assert xs[:2] == [0.0, 1.0]
    assert uniforms([]) == []
