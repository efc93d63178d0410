"""Signatures and hashing: P-256 ECDSA with deterministic nonces, SHA-256.

Signing and verification run in OpenSSL through the `cryptography` package.
Nonces follow RFC 6979 (`deterministic_signing=True`), so signing the same
message under the same key always yields the same bytes; that is what makes
whole ledger files reproducible. An OpenSSL without RFC 6979 support fails at
import with `UnsupportedAlgorithm` rather than producing different ledgers.

Every SHA-256 in the package is computed here, by `sha256` and `Hasher`,
in the OpenSSL that `cryptography` links for ECDSA. No module imports
`hashlib`, so an audit maps one OpenSSL, not that one and the system
`libcrypto` that `hashlib` loads. Both take any C-contiguous buffer: bytes,
bytearrays, memoryviews and numpy arrays, read as their bytes.

Signing keys are plain scalars derived from entropy by a SHA-256
hash-to-scalar loop, so a key depends only on its entropy.

Messages are passed as lists of buffers (bytes, memoryviews) whose
concatenation is the signed byte string: they are hashed where they lie and
the digest is signed, so a message is never joined into one copy. The
signature is the same as over the joined bytes.

Encodings are fixed length: public key = x||y (64 bytes, big-endian),
signature = r||s (64 bytes, big-endian). A key is parsed once
(`public_key`) for all the signatures checked under it. Malformed
encodings verify as False, they never raise.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec
from cryptography.hazmat.primitives.asymmetric.utils import (
    Prehashed,
    decode_dss_signature,
    encode_dss_signature,
)

# Order of the P-256 base point (SEC 2 / FIPS 186-4 D.1.2.3).
N = 0xFFFFFFFF00000000FFFFFFFFFFFFFFFFBCE6FAADA7179E84F3B9CAC2FC632551

SIGNATURE_SIZE = 64
PUBLIC_KEY_SIZE = 64
DIGEST_SIZE = 32

_CURVE = ec.SECP256R1()
_SIGN = ec.ECDSA(Prehashed(hashes.SHA256()), deterministic_signing=True)
_VERIFY = ec.ECDSA(Prehashed(hashes.SHA256()))


# an empty SHA-256 context; copying it is half the cost of building one
_EMPTY = hashes.Hash(hashes.SHA256())


def sha256(*parts) -> bytes:
    """32-byte collision-resistant digest of the concatenated buffers."""
    h = _EMPTY.copy()
    for part in parts:
        # `cryptography` reads only byte-format buffers, not a numpy array
        h.update(memoryview(part).cast("B"))
    return h.finalize()


class Hasher:
    """SHA-256 of the buffers fed to `update`, in order, for a digest of
    bytes that do not arrive at once; `digest` ends it."""

    __slots__ = ("_hash",)

    def __init__(self):
        self._hash = _EMPTY.copy()

    def update(self, part) -> None:
        self._hash.update(memoryview(part).cast("B"))

    def digest(self) -> bytes:
        return self._hash.finalize()


@dataclass(frozen=True)
class KeyPair:
    """Signing key (scalar) and its encoded verification key, with both as
    OpenSSL keys, built once: signing does not derive sk*G again, and
    verifying under `public` parses nothing."""

    sk: int
    pk: bytes
    key: ec.EllipticCurvePrivateKey = field(compare=False, repr=False)
    public: ec.EllipticCurvePublicKey = field(compare=False, repr=False)


def signing_key(sk: int) -> KeyPair:
    """The key pair of the scalar sk, 1 <= sk <= N - 1."""
    if not (1 <= sk <= N - 1):
        raise ValueError("signing key out of range")
    key = ec.derive_private_key(sk, _CURVE)
    public = key.public_key()
    point = public.public_numbers()
    pk = point.x.to_bytes(32, "big") + point.y.to_bytes(32, "big")
    return KeyPair(sk=sk, pk=pk, key=key, public=public)


def keygen(entropy: bytes) -> KeyPair:
    """The key pair derived from 32+ bytes of entropy."""
    if len(entropy) < 32:
        raise ValueError("keygen needs at least 32 bytes of entropy")
    counter = 0
    while True:
        cand = int.from_bytes(
            sha256(b"auditfl.keygen" + entropy + counter.to_bytes(4, "little")),
            "big",
        )
        if 1 <= cand <= N - 1:
            return signing_key(cand)
        counter += 1


def sign(keypair: KeyPair, message: list) -> bytes:
    """ECDSA signature over SHA-256 of the message buffers, as r||s (64 bytes)."""
    der = keypair.key.sign(sha256(*message), _SIGN)
    r, s = decode_dss_signature(der)
    return r.to_bytes(32, "big") + s.to_bytes(32, "big")


def public_key(pk: bytes) -> ec.EllipticCurvePublicKey | None:
    """An encoded verification key (x||y) parsed once for many verifies;
    None if it is not 64 bytes or not a point of the curve."""
    if not isinstance(pk, bytes) or len(pk) != PUBLIC_KEY_SIZE:
        return None
    try:
        return ec.EllipticCurvePublicKey.from_encoded_point(_CURVE, b"\x04" + pk)
    except ValueError:
        return None


def verify(
    key: ec.EllipticCurvePublicKey | None, message: list, signature: bytes
) -> bool:
    """True iff signature is a valid ECDSA signature of the message buffers
    under the parsed key (`public_key`, or a `KeyPair.public`). A key that
    did not parse (None) verifies nothing."""
    if key is None:
        return False
    if not isinstance(signature, bytes) or len(signature) != SIGNATURE_SIZE:
        return False
    r = int.from_bytes(signature[:32], "big")
    s = int.from_bytes(signature[32:], "big")
    if not (1 <= r <= N - 1 and 1 <= s <= N - 1):
        return False
    try:
        key.verify(encode_dss_signature(r, s), sha256(*message), _VERIFY)
    except InvalidSignature:
        return False
    return True
