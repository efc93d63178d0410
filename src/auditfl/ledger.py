"""Hash-chained, append-only, file-backed block store.

Stands in for the blockchain: consensus is assumed, not simulated, so a
single process appends blocks and anyone can re-verify the chain from the
file alone. Every block's digest covers its exact frame bytes, so any
single-bit mutation of the persisted file is detected.

File layout: 8-byte magic, then frames, each prefixed by its u64 length.
Frame: height u64 | prev_digest 32B | payload_digest 32B | timestamp u64 |
payload_len u64 | payload | frame_checksum 32B, where the checksum is
SHA-256 of everything before it (it makes flips in the *last* block's
header detectable; earlier blocks are already pinned by their successors).
All integers little-endian. A block's digest is SHA-256 of its whole frame,
checksum included.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

from .crypto import sha256

LEDGER_MAGIC = b"AFLCHN\x00\x01"
_HEADER = struct.Struct("<Q32s32sQQ")
ZERO_DIGEST = b"\x00" * 32


class LedgerError(Exception):
    """Storage-level failure or lookup miss."""


@dataclass(frozen=True)
class Block:
    height: int
    prev_digest: bytes
    payload_digest: bytes
    timestamp: int
    payload: bytes

    def body(self) -> bytes:
        return (
            _HEADER.pack(
                self.height,
                self.prev_digest,
                self.payload_digest,
                self.timestamp,
                len(self.payload),
            )
            + self.payload
        )

    def frame(self) -> bytes:
        body = self.body()
        return body + sha256(body)

    def digest(self) -> bytes:
        return sha256(self.frame())


class Ledger:
    """Ordered block sequence bound to one backing file."""

    def __init__(self, path, blocks: list[Block], truncated_at: int | None = None):
        self.path = Path(path)
        self.blocks = blocks
        # height at which the persisted file stopped parsing, if it did
        self.truncated_at = truncated_at

    def __len__(self) -> int:
        return len(self.blocks)

    @classmethod
    def create(cls, path, genesis_payload: bytes, timestamp: int = 0) -> "Ledger":
        """Start a new chain whose genesis block carries the given payload."""
        path = Path(path)
        if path.exists():
            raise LedgerError(f"{path} already exists; refusing to overwrite")
        genesis = Block(
            height=0,
            prev_digest=ZERO_DIGEST,
            payload_digest=sha256(genesis_payload),
            timestamp=timestamp,
            payload=genesis_payload,
        )
        ledger = cls(path, [genesis])
        with open(path, "wb") as f:
            f.write(LEDGER_MAGIC)
            frame = genesis.frame()
            f.write(struct.pack("<Q", len(frame)))
            f.write(frame)
        return ledger

    @classmethod
    def open(cls, path) -> "Ledger":
        """Parse a chain file; a malformed tail is kept as a truncation mark."""
        path = Path(path)
        try:
            data = path.read_bytes()
        except OSError as e:
            raise LedgerError(f"cannot read ledger {path}: {e}") from None
        if len(data) < len(LEDGER_MAGIC) or data[: len(LEDGER_MAGIC)] != LEDGER_MAGIC:
            raise LedgerError(f"{path}: not a ledger file (bad magic)")
        off = len(LEDGER_MAGIC)
        blocks: list[Block] = []
        truncated_at = None
        view = memoryview(data)  # frames are views; only payloads are copied
        while off < len(data):
            if off + 8 > len(data):
                truncated_at = len(blocks)
                break
            (flen,) = struct.unpack_from("<Q", data, off)
            off += 8
            if off + flen > len(data) or flen < _HEADER.size + 32:
                truncated_at = len(blocks)
                break
            frame = view[off : off + flen]
            off += flen
            height, prev, pdig, ts, plen = _HEADER.unpack_from(frame, 0)
            if _HEADER.size + plen + 32 != flen:
                truncated_at = len(blocks)
                break
            if sha256(frame[:-32]) != frame[-32:]:
                truncated_at = len(blocks)
                break
            blocks.append(
                Block(
                    height=height,
                    prev_digest=prev,
                    payload_digest=pdig,
                    timestamp=ts,
                    payload=bytes(frame[_HEADER.size : -32]),
                )
            )
        if not blocks and truncated_at is None:
            raise LedgerError(f"{path}: empty ledger (no genesis block)")
        return cls(path, blocks, truncated_at)

    def append(self, payload: bytes, timestamp: int = 0) -> None:
        """Append a block and persist it."""
        ok, bad = self.verify_chain()
        if not ok:
            raise LedgerError(
                f"chain does not verify (first bad height {bad}); refusing append"
            )
        block = Block(
            height=len(self.blocks),
            prev_digest=self.blocks[-1].digest(),
            payload_digest=sha256(payload),
            timestamp=timestamp,
            payload=payload,
        )
        frame = block.frame()
        try:
            with open(self.path, "ab") as f:
                f.write(struct.pack("<Q", len(frame)))
                f.write(frame)
        except OSError as e:
            raise LedgerError(f"cannot append to {self.path}: {e}") from None
        self.blocks.append(block)

    def verify_chain(self) -> tuple[bool, int | None]:
        """Recompute every link; (True, None) or (False, first bad height)."""
        if not self.blocks:
            return (False, 0)
        for i, block in enumerate(self.blocks):
            if block.height != i:
                return (False, i)
            if block.payload_digest != sha256(block.payload):
                return (False, i)
            if i == 0:
                if block.prev_digest != ZERO_DIGEST:
                    return (False, 0)
            elif block.prev_digest != self.blocks[i - 1].digest():
                return (False, i)
        if self.truncated_at is not None:
            return (False, self.truncated_at)
        return (True, None)

    def get_record(self, height: int) -> bytes:
        """Payload of the block at a height."""
        if not (0 <= height < len(self.blocks)):
            raise LedgerError(f"no block at height {height}")
        return self.blocks[height].payload
