"""Signatures and hashing, pinned to published test vectors."""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from cryptography.hazmat.primitives.asymmetric import ec

from auditfl import crypto
from auditfl.fixedpoint import FpVector

# RFC 6979 appendix A.2.5 (P-256, SHA-256)
RFC6979_SK = 0xC9AFA9D845BA75166B5C215767B1D6934E50C3DB36E89B127B8A622B120F6721
RFC6979_PK = (
    0x60FED4BA255A9D31C961EB74C6356D68C049B8923B61FA6CE669622E60F29FB6,
    0x7903FE1008B8BC99A41AE9E95628BC64F2F1B20C2D7E9F5177A3C294D4462299,
)
# P-256 field prime (SEC 2), for building an off-curve point
P256_P = 0xFFFFFFFF00000001000000000000000000000000FFFFFFFFFFFFFFFFFFFFFFFF
RFC6979_PK_BYTES = b"".join(c.to_bytes(32, "big") for c in RFC6979_PK)
# (message, k, r, s) from RFC 6979 A.2.5; r = x(k*G) mod N pins the nonce
RFC6979_VECTORS = [
    (
        b"sample",
        0xA6E3C57DD01ABE90086538398355DD4C3B17AA873382B0F24D6129493D8AAD60,
        0xEFD48B2AACB6A8FD1140DD9CD45E81D69D2C877B56AAF991C34D0EA84EAF3716,
        0xF7CB1C942D657C41D436C7A1B6E29F65F3E900DBB9AFF4064DC4AB2F843ACDA8,
    ),
    (
        b"test",
        0xD16B6AE827F17175E040871A1C7EC3500192C4C92677336EC2537ACAEE0008E0,
        0xF1ABB023518351CD71D881567B1EA663ED3EFCF6C5132B354F28D3B0B7D38367,
        0x019F4113742A2B14BD25926B49C649155F267E60D3814B4C0CC84250E46F0083,
    ),
]

GOLDEN = json.loads((Path(__file__).parent / "data" / "ecdsa_golden.json").read_text())


def _golden_message(i: int, length: int) -> bytes:
    label = b"auditfl.ecdsa-golden.msg" + i.to_bytes(4, "little")
    return hashlib.shake_256(label).digest(length)


def _sig(r: int, s: int) -> bytes:
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


class TestRfc6979Vectors:
    def test_public_key_derivation(self):
        """The RFC's signatures verify under its public-key bytes, which are
        the key pair of RFC6979_SK."""
        assert crypto.signing_key(RFC6979_SK).pk == RFC6979_PK_BYTES
        rfc_key = crypto.public_key(RFC6979_PK_BYTES)
        for msg, _, r, s in RFC6979_VECTORS:
            assert crypto.verify(rfc_key, [msg], _sig(r, s))
            assert not crypto.verify(rfc_key, [msg + b"!"], _sig(r, s))

    @pytest.mark.parametrize("msg,k,r,s", RFC6979_VECTORS)
    def test_nonce_and_signature(self, msg, k, r, s):
        nonce_point = ec.derive_private_key(k, ec.SECP256R1()).public_key()
        assert nonce_point.public_numbers().x % crypto.N == r
        assert crypto.sign(crypto.signing_key(RFC6979_SK), [msg]) == _sig(r, s)


class TestGoldenFixture:
    """Keys and signatures frozen from the earlier pure-Python P-256 code."""

    @pytest.mark.parametrize("i", range(len(GOLDEN["entries"])))
    def test_keys_and_signatures_unchanged(self, i):
        entry = GOLDEN["entries"][i]
        msg = _golden_message(i, entry["message_len"])
        assert hashlib.sha256(msg).hexdigest() == entry["message_sha256"]
        kp = crypto.keygen(bytes.fromhex(entry["entropy"]))
        assert kp.sk == int(entry["sk"], 16)
        assert kp.pk.hex() == entry["pk"]
        sig = crypto.sign(kp, [msg])
        assert sig.hex() == entry["signature"]
        assert crypto.verify(kp.public, [msg], sig)
        assert crypto.verify(crypto.public_key(kp.pk), [msg], sig)


class TestKeygen:
    def test_distinct_keys(self):
        a = crypto.keygen(b"a" * 32)
        b = crypto.keygen(b"b" * 32)
        assert a.pk != b.pk

    def test_deterministic_from_entropy(self):
        assert crypto.keygen(b"x" * 32) == crypto.keygen(b"x" * 32)

    def test_short_entropy_rejected(self):
        with pytest.raises(ValueError):
            crypto.keygen(b"short")

    def test_self_verify_roundtrip(self):
        kp = crypto.keygen(b"r" * 32)
        sig = crypto.sign(kp, [b"hello"])
        assert crypto.verify(kp.public, [b"hello"], sig)

    def test_cross_key_rejects(self):
        a = crypto.keygen(b"1" * 32)
        b = crypto.keygen(b"2" * 32)
        sig = crypto.sign(a, [b"msg"])
        assert not crypto.verify(b.public, [b"msg"], sig)


class TestSignVerify:
    def test_fpvector_roundtrip(self):
        kp = crypto.keygen(b"v" * 32)
        msg = [FpVector(np.arange(32, dtype=np.int64), 20).encode().data]
        assert crypto.verify(kp.public, msg, crypto.sign(kp, msg))

    def test_any_split_of_the_message_signs_the_same(self):
        # the message buffers are hashed where they lie: how they are split
        # changes neither the signature nor the verdict
        kp = crypto.keygen(b"p" * 32)
        encoded = FpVector(np.arange(-16, 16, dtype=np.int64), 20).encode()
        joined = bytes(encoded.data)
        sig = crypto.sign(kp, [joined])
        assert crypto.sign(kp, [encoded.data]) == sig
        for cut in (0, 1, 9, len(joined)):
            split = [joined[:cut], memoryview(joined)[cut:]]
            assert crypto.sign(kp, split) == sig
            assert crypto.verify(kp.public, split, sig)
        assert not crypto.verify(kp.public, [joined, b"\x00"], sig)

    def test_single_byte_flip_rejects(self):
        kp = crypto.keygen(b"f" * 32)
        msg = bytearray(b"some canonical serialization")
        sig = crypto.sign(kp, [bytes(msg)])
        for i in range(len(msg)):
            bad = bytes(msg[:i]) + bytes([msg[i] ^ 1]) + bytes(msg[i + 1 :])
            assert not crypto.verify(kp.public, [bad], sig)

    def test_malformed_signature_rejects_not_raises(self):
        kp = crypto.keygen(b"m" * 32)
        assert not crypto.verify(kp.public, [b"msg"], b"")
        assert not crypto.verify(kp.public, [b"msg"], b"\x00" * 64)
        assert not crypto.verify(kp.public, [b"msg"], b"\xff" * 64)
        assert not crypto.verify(kp.public, [b"msg"], b"short")
        assert not crypto.verify(kp.public, [b"msg"], None)  # type: ignore[arg-type]
        sig = crypto.sign(kp, [b"msg"])
        r = int.from_bytes(sig[:32], "big")
        s = int.from_bytes(sig[32:], "big")
        assert not crypto.verify(kp.public, [b"msg"], _sig(crypto.N, s))
        assert not crypto.verify(kp.public, [b"msg"], _sig(r, crypto.N))
        assert not crypto.verify(kp.public, [b"msg"], _sig(r, 0))

    def test_malformed_public_key_rejects(self):
        kp = crypto.keygen(b"k" * 32)
        sig = crypto.sign(kp, [b"msg"])
        y = int.from_bytes(kp.pk[32:], "big")
        off_curve = kp.pk[:32] + ((y + 1) % P256_P).to_bytes(32, "big")
        for pk in (b"\x00" * 64, b"\xff" * 64, b"short", off_curve, None):
            # a key that does not parse is None, under which nothing verifies
            assert crypto.public_key(pk) is None
            assert not crypto.verify(crypto.public_key(pk), [b"msg"], sig)
        assert crypto.verify(crypto.public_key(kp.pk), [b"msg"], sig)

    def test_signature_determinism(self):
        kp = crypto.keygen(b"d" * 32)
        assert crypto.sign(kp, [b"same"]) == crypto.sign(kp, [b"same"])

    def test_tampered_signature_rejects(self):
        kp = crypto.keygen(b"t" * 32)
        sig = bytearray(crypto.sign(kp, [b"msg"]))
        sig[5] ^= 0x10
        assert not crypto.verify(kp.public, [b"msg"], bytes(sig))


class TestHash:
    def test_empty_input_digest(self):
        # frozen from an independent implementation of SHA-256
        assert crypto.sha256(b"").hex() == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_equal_inputs_equal_digests(self):
        assert crypto.sha256(b"abc") == crypto.sha256(b"abc")

    def test_bit_difference_changes_digest(self):
        from auditfl.randomness import prg

        for seed in range(50):
            data = prg(seed, 4).tobytes()
            flipped = bytes([data[0] ^ 1]) + data[1:]
            assert crypto.sha256(data) != crypto.sha256(flipped)

    def test_parts_hash_as_their_concatenation(self):
        assert crypto.sha256(b"a", memoryview(b"b"), b"", b"c") == crypto.sha256(b"abc")
        assert crypto.sha256() == crypto.sha256(b"")

    def test_digest_length(self):
        assert len(crypto.sha256(b"x")) == 32


def _buffer_kinds():
    """(name, parts) for every kind of buffer the package hashes, each part
    list hashing to the bytes of its parts in order."""
    data = bytes(range(256)) * 3
    arr = np.arange(-40, 40, dtype="<i8")
    ro = np.frombuffer(data, dtype=np.uint8)  # read-only: it views bytes
    return [
        ("bytes", [data]),
        ("bytearray", [bytearray(data)]),
        ("memoryview slices", [memoryview(data)[3:100], memoryview(data)[100:101]]),
        ("read-only numpy memoryview", [memoryview(ro)[5:]]),
        ("1-D numpy", [arr]),
        ("2-D numpy", [arr.reshape(8, 10)]),
        ("uint8 numpy", [ro]),
        ("empty parts", [b"", memoryview(b""), np.zeros(0, dtype="<i8"), bytearray()]),
        ("none", []),
        ("mixed", [b"head", arr, b"", memoryview(data)[7:9], bytearray(b"tail")]),
    ]


class TestHashKnownAnswers:
    """`crypto.sha256` and `crypto.Hasher` against the standard library's
    SHA-256 (the package itself does not import it)."""

    @pytest.mark.parametrize(
        "parts", [parts for _, parts in _buffer_kinds()],
        ids=[name for name, _ in _buffer_kinds()],
    )
    def test_one_shot_and_streamed_equal_hashlib(self, parts):
        ref = hashlib.sha256()
        for part in parts:
            ref.update(part)
        assert crypto.sha256(*parts) == ref.digest()
        h = crypto.Hasher()
        for part in parts:
            h.update(part)
        assert h.digest() == ref.digest()

    def test_long_stream(self):
        # many updates of varied sizes, as the ledger stream makes them
        rng = np.random.default_rng(1)
        data = rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
        cuts = sorted(rng.integers(0, len(data), 40).tolist())
        h, ref, start = crypto.Hasher(), hashlib.sha256(), 0
        for end in cuts + [len(data)]:
            h.update(data[start:end])
            ref.update(data[start:end])
            start = end
        assert h.digest() == ref.digest() == hashlib.sha256(data).digest()

    def test_hashers_are_independent(self):
        a, b = crypto.Hasher(), crypto.Hasher()
        a.update(b"a")
        assert b.digest() == hashlib.sha256(b"").digest()
        assert a.digest() == hashlib.sha256(b"a").digest()
        assert crypto.sha256(b"x") == hashlib.sha256(b"x").digest()

    def test_non_contiguous_buffer_is_refused(self):
        # as hashlib refuses it: a strided view has no bytes to read in place
        arr = np.arange(20, dtype="<i8")[::2]
        with pytest.raises((TypeError, ValueError, BufferError)):
            hashlib.sha256(arr)
        with pytest.raises((TypeError, ValueError, BufferError)):
            crypto.sha256(arr)
        with pytest.raises((TypeError, ValueError, BufferError)):
            crypto.Hasher().update(arr)
