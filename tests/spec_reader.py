"""A reader of the ledger's wire format written from README's "Wire formats" alone.

It shares no code with `auditfl`: it imports only `struct`, `hashlib` and
`cryptography`, so a test that runs it next to `full_audit` checks the
documented layout, not the package against itself. `read_ledger` walks the
frames (length, height, link, zero timestamp, header checksum, payload
digest), requires a genesis and exactly one training record, parses them
and every round record, checks every vector's width (the least that holds
its raws), length, dimension and scale, checks that each participant has exactly one of an aggregation
mask and an aggregation digest, verifies every participant's submission
signature and demands that every byte is consumed. It does not replay the
aggregation or recover the initial model. Any defect raises `SpecError`.
"""
from __future__ import annotations

import hashlib
import struct

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import hashes
from cryptography.hazmat.primitives.asymmetric import ec

MAGIC = b"AFLCHN\x00\x02"
VERSION = 4
FRAME_HEADER = struct.Struct("<Q32s32sQQ")  # height, prev, payload digest, ts, len


class SpecError(Exception):
    """The bytes break a rule of the documented wire format."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise SpecError(what)


class _Cursor:
    def __init__(self, data: bytes, what: str):
        self.data, self.off, self.what = data, 0, what

    def take(self, n: int) -> bytes:
        _require(self.off + n <= len(self.data), f"{self.what}: truncated")
        out = self.data[self.off : self.off + n]
        self.off += n
        return out

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def blob(self) -> bytes:
        (n,) = self.unpack("<I")
        return self.take(n)

    def table(self, entry) -> dict:
        (count,) = self.unpack("<I")
        out, last = {}, -1
        for _ in range(count):
            (pid,) = self.unpack("<I")
            _require(pid > last, f"{self.what}: ids do not ascend")
            out[pid], last = entry(), pid
        return out

    def end(self) -> None:
        _require(self.off == len(self.data), f"{self.what}: trailing bytes")


def _der_integer(x: int) -> bytes:
    body = x.to_bytes(33, "big").lstrip(b"\x00")
    if not body or body[0] & 0x80:
        body = b"\x00" + body
    return b"\x02" + bytes([len(body)]) + body


def _der_signature(sig: bytes) -> bytes:
    """An `r || s` signature (32 bytes each, big-endian) as DER."""
    seq = _der_integer(int.from_bytes(sig[:32], "big")) + _der_integer(
        int.from_bytes(sig[32:], "big")
    )
    return b"\x30" + bytes([len(seq)]) + seq


def _verify(pk: bytes, message: bytes, sig: bytes, what: str) -> None:
    try:
        point = b"\x04" + pk  # SEC 1 uncompressed
        key = ec.EllipticCurvePublicKey.from_encoded_point(ec.SECP256R1(), point)
        key.verify(_der_signature(sig), message, ec.ECDSA(hashes.SHA256()))
    except (ValueError, InvalidSignature):
        raise SpecError(f"{what}: signature does not verify") from None


def read_frames(data: bytes) -> list[bytes]:
    """The payloads of a ledger file, each block's links checked."""
    _require(data[:8] == MAGIC, "bad ledger magic")
    off, payloads, digest = 8, [], b"\x00" * 32
    while off < len(data):
        height = len(payloads)
        _require(off + 8 <= len(data), f"block {height}: length prefix")
        (flen,) = struct.unpack("<Q", data[off : off + 8])
        frame = data[off + 8 : off + 8 + flen]
        off += 8 + flen
        where = f"block {height}"
        _require(len(frame) == flen >= FRAME_HEADER.size + 32, f"{where}: length")
        header = frame[: FRAME_HEADER.size]
        payload, checksum = frame[FRAME_HEADER.size : -32], frame[-32:]
        h, prev, pdig, ts, plen = FRAME_HEADER.unpack(header)
        _require(plen == len(payload), f"{where}: payload length")
        _require(h == height, f"{where}: height {h}")
        _require(prev == digest, f"{where}: prev_digest")
        _require(ts == 0, f"{where}: timestamp {ts}")
        _require(hashlib.sha256(header).digest() == checksum, f"{where}: checksum")
        _require(hashlib.sha256(payload).digest() == pdig, f"{where}: payload digest")
        payloads.append(payload)
        digest = checksum
    _require(bool(payloads), "no genesis")
    return payloads


def read_genesis(payload: bytes) -> dict:
    c = _Cursor(payload, "genesis")
    _require(c.take(4) == b"GEN1", "genesis: magic")
    (version, rounds, eta_num, eta_exp, dim, scale, clipping, clip_factor) = c.unpack(
        "<HIqBQBBI"
    )
    _require(version == VERSION, f"genesis: version {version}")
    _require(clipping in (0, 1), f"genesis: clipping byte {clipping}")
    _require(eta_num >= 1 and (eta_exp == 0 or eta_num % 2 == 1),
             f"genesis: learning rate {eta_num} / 2^{eta_exp} not in lowest terms")
    server_pk, w0_sig = c.take(64), c.take(64)

    def entry():
        pk, (l,) = c.take(64), c.unpack("<I")
        _require(l != 0, "genesis: deflation factor l = 0")
        return pk, l

    roster = c.table(entry)
    c.end()
    return dict(rounds=rounds, eta=(eta_num, eta_exp), dim=dim, scale=scale,
                clipping=clipping, clip_factor=clip_factor, server_pk=server_pk,
                w0_sig=w0_sig, roster=roster)


def _fits(raws: list[int], width: int) -> bool:
    half = 1 << (8 * width - 1)
    return all(-half <= x < half for x in raws)


def _vector(blob: bytes, genesis: dict, what: str) -> bytes:
    """Check one vector's header, width and geometry; return it, the bytes
    its signature covers."""
    _require(len(blob) >= 10, f"{what}: short vector")
    dim, scale, width = struct.unpack("<QBB", blob[:10])
    _require(1 <= width <= 8, f"{what}: width {width}")
    _require(len(blob) == 10 + width * dim, f"{what}: vector length")
    raws = [int.from_bytes(blob[10 + k * width : 10 + (k + 1) * width], "little",
                           signed=True) for k in range(dim)]
    least = next(w for w in range(1, 9) if _fits(raws, w))
    _require(width == least, f"{what}: width {width}, the raws fit in {least}")
    _require((dim, scale) == (genesis["dim"], genesis["scale"]), f"{what}: geometry")
    return blob


def _sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def read_round(payload: bytes, genesis: dict) -> dict:
    c = _Cursor(payload, "round record")
    _require(c.take(4) == b"RND1", "round: magic")
    (r,) = c.unpack("<I")
    roster = genesis["roster"]

    def vector(kind: str) -> bytes:
        return _vector(c.blob(), genesis, f"round {r} {kind}")

    detect = c.table(lambda: (vector("detection mask"), c.take(64)))
    agg = c.table(lambda: vector("aggregation mask"))
    digests = c.table(lambda: c.take(32))
    server = c.table(lambda: vector("server mask"))
    vector("server aggregate")
    c.end()
    _require(sorted(server) == sorted(detect), f"round {r}: server masks' ids")
    _require(sorted([*agg, *digests]) == sorted(detect),
             f"round {r}: not one aggregation mask or digest per participant")
    for pid, (mg1, sig) in detect.items():
        _require(pid in roster, f"round {r}: id {pid} not on the roster")
        mg2_digest = _sha256(agg[pid]) if pid in agg else digests[pid]
        message = (b"AFLSUB" + struct.pack("<HII", VERSION, r, pid)
                   + _sha256(mg1) + mg2_digest)
        _verify(roster[pid][0], message, sig, f"round {r} participant {pid}")
    return dict(round=r, participants=sorted(detect), benign=sorted(agg))


def read_training(payload: bytes, genesis: dict) -> list[dict]:
    c = _Cursor(payload, "training record")
    _require(c.take(4) == b"TRCD", "training record: magic")
    version, n_rounds, dim, scale, eta_num, eta_exp, n_parts = c.unpack("<HIQBqBI")
    _require(version == VERSION, f"training record: version {version}")
    _require(
        (n_rounds, dim, scale, (eta_num, eta_exp), n_parts)
        == (genesis["rounds"], genesis["dim"], genesis["scale"], genesis["eta"],
            len(genesis["roster"])),
        "training record: metadata differs from the genesis",
    )
    rounds = [read_round(c.blob(), genesis) for _ in range(n_rounds)]
    _require([rd["round"] for rd in rounds] == list(range(1, n_rounds + 1)),
             "training record: round indices")
    _vector(c.blob(), genesis, "masked model")
    c.end()
    return rounds


def read_ledger(data: bytes) -> list[dict]:
    """Every round of the training record: its round, participants, benign ids."""
    genesis, *records = read_frames(data)
    genesis = read_genesis(genesis)
    _require(len(records) == 1, f"{len(records)} training records, not 1")
    return read_training(records[0], genesis)

