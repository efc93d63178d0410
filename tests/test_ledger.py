"""Hash chain: append-only persistence and tamper evidence."""
import dataclasses
import struct
import tracemalloc

import numpy as np
import pytest

from auditfl.crypto import Hasher, sha256
from auditfl.ledger import _HEADER, LEDGER_MAGIC, Ledger, LedgerError
from util import read_payloads, run_published, small_config


@pytest.fixture
def chain(tmp_path):
    return Ledger.create(tmp_path / "chain.bin", b"genesis payload")


@dataclasses.dataclass(frozen=True)
class _Block:
    """One frame of a ledger file: its header fields and payload as written."""

    height: int
    prev_digest: bytes
    payload_digest: bytes
    timestamp: int
    payload: bytes


def _blocks(path) -> list[_Block]:
    """The frames of a ledger file, parsed without checking any of them."""
    data = path.read_bytes()
    off, blocks = len(LEDGER_MAGIC), []
    while off < len(data):
        (flen,) = struct.unpack_from("<Q", data, off)
        frame = data[off + 8 : off + 8 + flen]
        off += 8 + flen
        height, prev, pdig, ts, _ = _HEADER.unpack_from(frame)
        blocks.append(_Block(height, prev, pdig, ts, frame[_HEADER.size : -32]))
    return blocks


def _header(block) -> bytes:
    """A block's header bytes, rebuilt from its fields (whatever they say)."""
    return _HEADER.pack(
        block.height,
        block.prev_digest,
        block.payload_digest,
        block.timestamp,
        len(block.payload),
    )


def _frame(block) -> bytes:
    """A block's frame: header, payload, then the checksum over the header."""
    header = _header(block)
    return header + block.payload + sha256(header)


class TestAppend:
    def test_first_append_is_height_one(self, chain):
        chain.append(b"payload")
        assert len(chain) == 2
        assert len(read_payloads(chain.path)) == 2
        assert _blocks(chain.path)[1].height == 1

    def test_identical_payloads_distinct_digests(self, chain):
        chain.append(b"same")
        chain.append(b"same")
        blocks = _blocks(chain.path)
        assert sha256(_header(blocks[1])) != sha256(_header(blocks[2]))

    def test_reload_roundtrip(self, chain):
        chain.append(b"one")
        chain.append(b"two")
        assert read_payloads(chain.path) == [b"genesis payload", b"one", b"two"]
        chain.append(b"three")
        assert read_payloads(chain.path) == [
            b"genesis payload", b"one", b"two", b"three"
        ]
        blocks = _blocks(chain.path)
        assert blocks[3].prev_digest == sha256(_header(blocks[2]))

    def test_parts_write_the_bytes_of_their_concatenation(self, tmp_path):
        # any buffers, byte-formatted or not, split anywhere: the file holds
        # the same bytes as for the one joined payload
        raws = np.arange(-3, 3, dtype="<i8")
        parts = [b"", b"pay", memoryview(b"load"), raws, memoryview(raws)]
        joined = b"payload" + raws.tobytes() * 2
        a = Ledger.create(tmp_path / "a.bin", b"gen", memoryview(b"esis"))
        a.append(*parts)
        a.append(*parts)
        b = Ledger.create(tmp_path / "b.bin", b"genesis")
        b.append(joined)
        b.append(joined)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert read_payloads(tmp_path / "a.bin")[2] == joined

    def test_create_refuses_overwrite(self, chain, tmp_path):
        with pytest.raises(LedgerError):
            Ledger.create(chain.path, b"x")

    def test_append_hashes_each_payload_byte_once(self, tmp_path, monkeypatch):
        import auditfl.ledger

        hashed = []

        def counting_sha256(*parts):
            hashed.append(sum(memoryview(part).nbytes for part in parts))
            return sha256(*parts)

        class CountingHasher(Hasher):
            """The streaming hasher, counting the bytes it is fed."""

            __slots__ = ()

            def update(self, part):
                hashed.append(memoryview(part).nbytes)
                super().update(part)

        monkeypatch.setattr(auditfl.ledger, "sha256", counting_sha256)
        monkeypatch.setattr(auditfl.ledger, "Hasher", CountingHasher)
        chain = Ledger.create(tmp_path / "c.bin", b"g")
        per_block = []
        # the writer of a payload held in parts, and the streamed writer
        # fed one part at a time
        for write in (chain.append, lambda *parts: chain.append_stream(iter(parts))):
            for _ in range(2):
                hashed.clear()
                write(bytes(60_000), b"", bytes(40_000))
                per_block.append(sum(hashed))
        # the payload digest and the checksum over the header alone: the
        # previous block's digest is its checksum, kept, not rehashed
        assert per_block == [100_000 + _HEADER.size] * 4
        # reading hashes each payload byte and each header once again
        hashed.clear()
        payloads = read_payloads(chain.path)
        assert len(payloads) == 5
        assert sum(hashed) == sum(map(len, payloads)) + 5 * _HEADER.size

    def test_deterministic_bytes(self, tmp_path):
        a = Ledger.create(tmp_path / "a.bin", b"g")
        a.append(b"p")
        b = Ledger.create(tmp_path / "b.bin", b"g")
        b.append(b"p")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestStreamedWrite:
    def test_streamed_block_is_the_appended_block(self, tmp_path):
        # parts handed out one at a time by a generator give the bytes of
        # the payload appended whole, and the writer returns its length
        parts = [b"head", bytes(70_000), b"", np.arange(5, dtype="<i8"), b"tail"]
        a = Ledger.create(tmp_path / "a.bin", b"genesis")
        assert a.append_stream(part for part in parts) == 70_048
        b = Ledger.create(tmp_path / "b.bin", b"genesis")
        b.append(b"".join(bytes(memoryview(part)) for part in parts))
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()
        assert len(a) == len(b) == 2

    def test_failed_stream_leaves_the_file_unchanged(self, chain):
        # the parts raise after some of them are already in the file (more
        # than a write buffer's worth): the block is cut off again, and the
        # next block links to the last complete one
        chain.append(b"one")
        before = chain.path.read_bytes()

        def parts():
            yield b"written"
            yield bytes(1 << 20)
            raise RuntimeError("the payload's source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            chain.append_stream(parts())
        assert chain.path.read_bytes() == before
        assert len(chain) == 2
        chain.append(b"two")
        assert read_payloads(chain.path) == [b"genesis payload", b"one", b"two"]


def _write_frames(path, frames):
    """Persist frames as a ledger file, whatever their links say."""
    with open(path, "wb") as f:
        f.write(LEDGER_MAGIC)
        for frame in frames:
            f.write(struct.pack("<Q", len(frame)) + frame)


class TestVerifyChain:
    """`Ledger.open` verifies the chain while it streams it."""

    def test_untouched_chain_accepts(self, chain):
        chain.append(b"x")
        assert len(read_payloads(chain.path)) == 2

    def test_payload_flip_detected_at_height(self, chain, tmp_path):
        chain.append(b"block-one")
        chain.append(b"block-two")
        data = bytearray(chain.path.read_bytes())
        # flip a byte inside the last payload
        idx = data.rindex(b"block-two"[:5])
        data[idx] ^= 0x01
        chain.path.write_bytes(bytes(data))
        with pytest.raises(LedgerError, match="height 2"):
            read_payloads(chain.path)

    def test_any_single_bit_flip_detected(self, chain):
        chain.append(b"abc")
        clean = chain.path.read_bytes()
        for byte_idx in range(len(clean)):
            data = bytearray(clean)
            data[byte_idx] ^= 0x01
            chain.path.write_bytes(bytes(data))
            with pytest.raises(LedgerError):
                read_payloads(chain.path)
                pytest.fail(f"bit flip at byte {byte_idx} went undetected")
        chain.path.write_bytes(clean)

    def test_truncation_detected(self, chain):
        chain.append(b"will be cut")
        data = chain.path.read_bytes()
        chain.path.write_bytes(data[:-5])
        with pytest.raises(LedgerError, match="height 1"):
            read_payloads(chain.path)

    def test_cut_length_prefix_detected(self, chain):
        genesis_only = chain.path.stat().st_size
        chain.append(b"prefix will be cut")
        chain.path.write_bytes(chain.path.read_bytes()[: genesis_only + 5])
        with pytest.raises(LedgerError, match="height 1"):
            read_payloads(chain.path)

    def test_magic_only_has_no_genesis(self, tmp_path):
        p = tmp_path / "empty.bin"
        p.write_bytes(LEDGER_MAGIC)
        with pytest.raises(LedgerError, match="height 0"):
            read_payloads(p)

    @pytest.mark.parametrize(
        "height, change",
        [
            (0, dict(prev_digest=b"\x01" * 32)),
            (1, dict(prev_digest=sha256(b"not the genesis frame"))),
            (2, dict(payload_digest=sha256(b"other payload"))),
            (1, dict(height=2)),
            (2, dict(height=1)),
            (1, dict(timestamp=7)),
        ],
        ids=["genesis-prev", "prev", "payload-digest", "height-skip", "height-repeat",
             "timestamp"],
    )
    def test_link_defect_behind_valid_checksum(self, chain, height, change):
        # the frame checksum covers the re-framed block, so only the link
        # checks (and the zero-timestamp rule) can catch these
        chain.append(b"one")
        chain.append(b"two")
        blocks = _blocks(chain.path)
        blocks[height] = dataclasses.replace(blocks[height], **change)
        _write_frames(chain.path, [_frame(b) for b in blocks])
        with pytest.raises(LedgerError, match=f"hash chain broken at height {height}$"):
            read_payloads(chain.path)

    def test_payload_len_disagreeing_with_frame_behind_valid_checksum(self, chain):
        chain.append(b"one")
        genesis, last = _blocks(chain.path)
        header = struct.pack(
            "<Q32s32sQQ", 1, last.prev_digest, last.payload_digest, 0, 2
        )
        frame = header + last.payload + sha256(header)
        _write_frames(chain.path, [_frame(genesis), frame])
        with pytest.raises(LedgerError, match="height 1$"):
            read_payloads(chain.path)


class TestGetRecord:
    """Reading blocks back through `Ledger.open`'s stream."""

    def test_genesis_payload(self, chain):
        assert read_payloads(chain.path) == [b"genesis payload"]

    def test_not_a_ledger_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a ledger at all")
        with pytest.raises(LedgerError):
            read_payloads(p)

    def test_version_1_file_rejected(self, chain):
        # format 1 hashed whole frames; no reader for it is kept
        v1 = b"AFLCHN\x00\x01" + chain.path.read_bytes()[len(LEDGER_MAGIC) :]
        chain.path.write_bytes(v1)
        with pytest.raises(LedgerError, match=r"^not a ledger file \(bad magic\)$"):
            read_payloads(chain.path)


class TestStream:
    def test_open_peak_memory_is_bounded(self, tmp_path):
        # the stream keeps no payload: verifying a chain whose block is 16 MB
        # holds one read chunk (1 MB) at a time, and a consumer that reads
        # the payload in small pieces adds only the piece it holds
        big = 16 << 20
        chain = Ledger.create(tmp_path / "big.bin", b"genesis")
        chain.append(bytes(big))
        tracemalloc.start()
        try:
            assert sum(1 for _ in Ledger.open(chain.path)) == 2
            _, unread = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            read = 0
            for payload in Ledger.open(chain.path):
                while piece := payload.read(64 << 10):
                    read += len(piece)
            _, pieces = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert read == big + len(b"genesis")
        assert unread < (1 << 20) + (256 << 10)
        assert pieces < 256 << 10

    def test_block_verified_when_the_stream_passes_it(self, chain):
        # a consumer gets a block's bytes before they are checked: the chain
        # break is raised when the stream moves past the block
        chain.append(b"block-one")
        data = bytearray(chain.path.read_bytes())
        data[data.rindex(b"block-one")] ^= 0x01
        chain.path.write_bytes(bytes(data))
        stream = Ledger.open(chain.path)
        assert next(stream).read(100) == b"genesis payload"
        one = next(stream)
        assert one.read(100) == b"clock-one"
        with pytest.raises(LedgerError, match="height 1$"):
            next(stream)
        with pytest.raises(LedgerError, match="read past"):
            one.read(1)


class TestPublishInPlace:
    def test_append_copies_no_part_of_the_record(self, tmp_path):
        # the record's parts are hashed and written where they lie, so
        # publishing adds a few small headers, not a copy of the record
        cfg = small_config(participants=4, rounds=3)
        result, _, path = run_published(tmp_path, cfg, seed=5, features=256, classes=8)
        size = result.timing["record_bytes"]
        # decoding the record from the ledger is not part of what is measured
        parts = result.record.encode()
        chain = Ledger.create(tmp_path / "again.bin", b"genesis")
        tracemalloc.start()
        try:
            chain.append(*parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.1 * size
        published = read_payloads(path)[1]
        assert read_payloads(chain.path)[1] == published
        assert len(published) == size
