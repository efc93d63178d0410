"""Hash-chained, append-only, file-backed block store.

Stands in for the blockchain: consensus is assumed, not simulated, so a
single process appends blocks and anyone can re-verify the chain from the
file alone. `Ledger.open` is the only reader and verifies every block while
it parses it, so a `Ledger` is valid once built: by `create` and `append`,
or by `open` after the whole file checked. Every block's digest covers its
header, which pins its payload by digest, so any single-bit mutation of
the persisted file is detected. `open` reads the file once; its payloads,
and all parsed from them, are read-only views of that one buffer, never
copies. `append` takes a payload as a list of buffers and hashes and
writes them where they lie, so publishing a record copies none of it
either.

File layout: 8-byte magic, then frames, each prefixed by its u64 length.
Frame: height u64 | prev_digest 32B | payload_digest 32B | timestamp u64 |
payload_len u64 | payload | frame_checksum 32B, where the checksum is
SHA-256 of the 88-byte header alone. The header holds `payload_digest`, so
the checksum covers the payload through it, and a block's chain digest is
its checksum: the next block's `prev_digest` equals it. Every payload byte
is thus hashed once on write and once on read. All integers little-endian.
Blocks are written with timestamp 0, and `open` rejects any other value,
so a ledger's bytes depend on their payloads alone and each sequence of
payloads has one encoding.
"""
from __future__ import annotations

import struct
from pathlib import Path

from .crypto import sha256

LEDGER_MAGIC = b"AFLCHN\x00\x02"
_HEADER = struct.Struct("<Q32s32sQQ")
ZERO_DIGEST = b"\x00" * 32


class LedgerError(Exception):
    """The ledger cannot be read, written or trusted, or a lookup missed.

    Every chain defect (a cut or mis-sized frame, a bad frame checksum, an
    out-of-sequence height, a wrong `prev_digest` or `payload_digest`, a
    nonzero timestamp, or no genesis block) reads `hash chain broken at
    height N`, N being the first bad block. No message that `open` raises
    names the file, so it depends on the file's bytes alone.
    """


def _chain_break(height: int) -> LedgerError:
    return LedgerError(f"hash chain broken at height {height}")


class Ledger:
    """Ordered, verified block sequence bound to one backing file.

    It keeps the payloads `open` parsed, nothing else of their frames.
    `append` keeps no payload: it writes the frame and keeps only the
    height and the newest block's digest, the next `append`'s
    `prev_digest`. Read appended blocks back with `open`.
    """

    def __init__(self, path, payloads: list[memoryview], tip: bytes):
        self.path = Path(path)
        self._payloads = payloads
        self._height = len(payloads)
        self._tip = tip  # the newest block's digest; ZERO_DIGEST before the genesis

    def __len__(self) -> int:
        return self._height

    @classmethod
    def create(cls, path, *genesis_parts) -> "Ledger":
        """Start a new chain whose genesis payload is the concatenated parts."""
        path = Path(path)
        try:
            with open(path, "xb") as f:
                f.write(LEDGER_MAGIC)
        except FileExistsError:
            raise LedgerError(f"{path} already exists; refusing to overwrite") from None
        ledger = cls(path, [], ZERO_DIGEST)
        ledger.append(*genesis_parts)
        return ledger

    @classmethod
    def open(cls, path) -> "Ledger":
        """Parse a chain file, verifying each block; LedgerError at the first bad one."""
        try:
            data = Path(path).read_bytes()
        except OSError as e:
            # not str(e), which names the file: the message depends on bytes alone
            reason = e.strerror or type(e).__name__
            raise LedgerError(f"cannot read ledger: {reason}") from None
        if data[: len(LEDGER_MAGIC)] != LEDGER_MAGIC:
            raise LedgerError("not a ledger file (bad magic)")
        view = memoryview(data)  # frames and payloads are views, never copies
        off = len(LEDGER_MAGIC)
        payloads: list[memoryview] = []
        digest = ZERO_DIGEST
        while off < len(data):
            height = len(payloads)
            if off + 8 > len(data):
                raise _chain_break(height)
            (flen,) = struct.unpack_from("<Q", data, off)
            off += 8
            frame = view[off : off + flen]
            off += flen
            if len(frame) != flen or flen < _HEADER.size + 32:
                raise _chain_break(height)
            header, payload, checksum = (
                frame[: _HEADER.size], frame[_HEADER.size : -32], frame[-32:]
            )
            h, prev, pdig, ts, plen = _HEADER.unpack(header)
            # checked in order; each payload byte is hashed once, and no
            # earlier frame is hashed again
            if (
                len(payload) != plen
                or h != height
                or prev != digest
                or ts != 0
                or sha256(header) != checksum
                or sha256(payload) != pdig
            ):
                raise _chain_break(height)
            payloads.append(payload)
            digest = bytes(checksum)
        if not payloads:
            raise _chain_break(0)
        return cls(path, payloads, digest)

    def append(self, *parts) -> None:
        """Append a block whose payload is the concatenated parts, and persist it.

        The parts (any buffers) are hashed once and written in place, never
        joined.
        """
        plen = sum(memoryview(part).nbytes for part in parts)
        header = _HEADER.pack(self._height, self._tip, sha256(*parts), 0, plen)
        checksum = sha256(header)
        try:
            with open(self.path, "ab") as f:
                f.write(struct.pack("<Q", len(header) + plen + len(checksum)))
                f.write(header)
                f.writelines(parts)
                f.write(checksum)
        except OSError as e:
            raise LedgerError(f"cannot append to {self.path}: {e}") from None
        self._height += 1
        self._tip = checksum

    def get_record(self, height: int) -> memoryview:
        """Payload of a block `open` parsed: a read-only view of the file."""
        if not (0 <= height < len(self._payloads)):
            raise LedgerError(f"no block at height {height}")
        return self._payloads[height]
