"""Hash-chained, append-only, file-backed block store.

Stands in for the blockchain: consensus is assumed, not simulated, so a
single process appends blocks and anyone can re-verify the chain from the
file alone. `Ledger.open` is the only reader: it streams the file front to
back, one block at a time, and verifies each block as it passes, so every
file byte is read once and any single-bit mutation of the persisted file is
detected. It hands each payload out as a `Payload` stream that hashes its
bytes as the consumer reads them; it keeps only the height, the offset it
has reached and the newest block's digest, never a payload, so reading a
ledger takes memory for what the consumer holds, not for the file.
`append_stream` is the one writer: it takes a payload as an iterable of
buffers and hashes and writes each where it lies as it arrives, then seeks
back to fill in the frame length and the header, which hold the payload's
length and digest. So a block can be written while its payload is still
being computed, one part at a time, and publishing a record copies none of
it. A block whose parts raise is cut off again: the file and the chain are
left as they were. `append(*parts)` is the same write for a payload whose
parts are all in hand.

File layout: 8-byte magic, then frames, each prefixed by its u64 length.
Frame: height u64 | prev_digest 32B | payload_digest 32B | timestamp u64 |
payload_len u64 | payload | frame_checksum 32B, where the checksum is
SHA-256 of the 88-byte header alone. The header holds `payload_digest`, so
the checksum covers the payload through it, and a block's chain digest is
its checksum: the next block's `prev_digest` equals it. Every payload byte
is thus hashed once on write and once on read, by `crypto.Hasher` as it
streams past, and each header by `crypto.sha256`. All integers
little-endian.
Blocks are written with timestamp 0, and `open` rejects any other value,
so a ledger's bytes depend on their payloads alone and each sequence of
payloads has one encoding.
"""
from __future__ import annotations

import os
import struct
from collections.abc import Iterable, Iterator
from pathlib import Path

from .crypto import Hasher, sha256

LEDGER_MAGIC = b"AFLCHN\x00\x02"
_HEADER = struct.Struct("<Q32s32sQQ")
_CHECKSUM_SIZE = 32
ZERO_DIGEST = b"\x00" * 32
# the most a stream reads at once to hash the part of a payload its consumer
# did not read
_SKIP_CHUNK = 1 << 20


class LedgerError(Exception):
    """The ledger cannot be read, written or trusted.

    Every chain defect (a cut or mis-sized frame, a bad frame checksum, an
    out-of-sequence height, a wrong `prev_digest` or `payload_digest`, a
    nonzero timestamp, or no genesis block) reads `hash chain broken at
    height N`, N being the first bad block. No message that `open` raises
    names the file, so it depends on the file's bytes alone.
    """


def _chain_break(height: int) -> LedgerError:
    return LedgerError(f"hash chain broken at height {height}")


class Payload:
    """One block's payload, handed out front to back and hashed as it goes.

    `read(n)` returns the next n bytes, or as many as are left. The block
    is not verified until the stream has moved past it; a consumer must
    treat what it read as untrusted until then.
    """

    def __init__(self, file, size: int, height: int):
        self._file = file
        self._size = size
        self._left = size
        self._height = height
        self._hash = Hasher()

    def __len__(self) -> int:
        return self._size

    def read(self, n: int) -> bytes:
        if self._file is None:
            raise LedgerError(f"block {self._height} has been read past")
        n = min(n, self._left)
        data = self._file.read(n)
        if len(data) != n:  # the file shrank under the reader
            raise _chain_break(self._height)
        self._hash.update(data)
        self._left -= n
        return data

    def _finish(self) -> bytes:
        """Read and hash what the consumer left; the payload's digest."""
        while self._left:
            self.read(_SKIP_CHUNK)
        self._file = None
        return self._hash.digest()


class Ledger:
    """The writing end of a chain file.

    It keeps no payload: `append` writes the frame and keeps only the
    height and the newest block's digest, the next `append`'s
    `prev_digest`. Read blocks back with `open`.
    """

    def __init__(self, path, height: int, tip: bytes):
        self.path = Path(path)
        self._height = height
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
        ledger = cls(path, 0, ZERO_DIGEST)
        ledger.append(*genesis_parts)
        return ledger

    @classmethod
    def open(cls, path) -> Iterator[Payload]:
        """Stream a chain file: each block's payload in order, from the genesis.

        Nothing is read before the first block is asked for. A block's frame
        length and links (height, `prev_digest`, timestamp) are checked
        before its payload is handed out; when the stream moves past it, to
        the next block or to the end, the rest of its payload is read and
        hashed and its payload digest and checksum are checked. LedgerError
        at the first bad block, so a consumer that reaches the end of the
        stream has read a valid chain.
        """
        try:
            f = open(path, "rb")
        except OSError as e:
            # not str(e), which names the file: the message depends on bytes alone
            reason = e.strerror or type(e).__name__
            raise LedgerError(f"cannot read ledger: {reason}") from None
        with f:
            size = os.fstat(f.fileno()).st_size
            if f.read(len(LEDGER_MAGIC)) != LEDGER_MAGIC:
                raise LedgerError("not a ledger file (bad magic)")
            off, height, tip = len(LEDGER_MAGIC), 0, ZERO_DIGEST
            while off < size:
                if off + 8 > size:
                    raise _chain_break(height)
                (flen,) = struct.unpack("<Q", f.read(8))
                off += 8 + flen
                if off > size or flen < _HEADER.size + _CHECKSUM_SIZE:
                    raise _chain_break(height)
                header = f.read(_HEADER.size)
                h, prev, pdig, ts, plen = _HEADER.unpack(header)
                if (
                    plen != flen - _HEADER.size - _CHECKSUM_SIZE
                    or h != height
                    or prev != tip
                    or ts != 0
                ):
                    raise _chain_break(height)
                payload = Payload(f, plen, height)
                yield payload
                # each payload byte is hashed once, and no earlier frame is
                # hashed again
                digest = payload._finish()
                checksum = f.read(_CHECKSUM_SIZE)
                if digest != pdig or sha256(header) != checksum:
                    raise _chain_break(height)
                height += 1
                tip = checksum
            if height == 0:
                raise _chain_break(0)

    def append(self, *parts) -> None:
        """Append a block whose payload is the concatenated parts, and persist it.

        The parts (any buffers) are hashed once and written in place, never
        joined.
        """
        self.append_stream(parts)

    def append_stream(self, parts: Iterable) -> int:
        """Append a block whose payload is the buffers `parts` yields, in
        order, and persist it; returns the payload length.

        Each part is hashed and written as it arrives and not kept. The
        frame length and the header go before the payload but depend on all
        of it, so the block starts as zeros in their place, and they are
        written once the parts run out, followed by the checksum. If
        iterating `parts` or writing raises, the file is cut back to where
        the block began and the ledger's height and tip stay as they were.
        """
        try:
            start = self.path.stat().st_size
            f = open(self.path, "r+b")
        except OSError as e:
            raise LedgerError(f"cannot append to {self.path}: {e}") from None
        try:
            with f:
                f.seek(start)
                f.write(bytes(8 + _HEADER.size))
                digest, plen = Hasher(), 0
                for part in parts:
                    digest.update(part)
                    f.write(part)
                    plen += memoryview(part).nbytes
                header = _HEADER.pack(self._height, self._tip, digest.digest(), 0, plen)
                checksum = sha256(header)
                f.write(checksum)
                f.seek(start)
                f.write(struct.pack("<Q", len(header) + plen + len(checksum)))
                f.write(header)
        except BaseException as e:
            # the file is closed, so nothing buffered can land after the cut
            os.truncate(self.path, start)
            if isinstance(e, OSError):
                raise LedgerError(f"cannot append to {self.path}: {e}") from None
            raise
        self._height += 1
        self._tip = checksum
        return plen
