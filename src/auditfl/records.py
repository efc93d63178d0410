"""Public record structures and their canonical byte layouts.

These are the only structures an external auditor needs to parse, so the
encodings are fixed and self-describing: little-endian fixed-width framing,
length-prefixed canonical FpVector payloads, and id-keyed tables with
strictly ascending ids (so each record has one encoding). Every vector is
held and published as its canonical `Encoded` bytes, each raw at the
vector's least byte width. No rational is on
the wire: the genesis roster carries each participant's deflation factor
l_i as a nonzero u32, and the auditor deflates by exact division by l_i.
Each participant signs one message per round, `submission_message`, which
binds the round, its id and the digests of both its masked vectors; a
participant that is not benign has its second vector published as that
digest alone. The full layout is documented in README.md. Encoding copies
no vector: every `encode` returns a list of buffers whose concatenation is
the record's bytes, each vector contributing its encoded bytes as they
are. A training record is its header, one blob per round and the masked
model's blob (`training_header`, `round_blob`, `vector_blob`), so a run can
write it one round at a time as the rounds end. One parser reads a
training record front to back (`TrainingRecordReader`), one round at a
time and each round one table entry at a time (`RoundReader`, the one
reader of the round layout, which `RoundRecord.decode` collects), straight
from a ledger payload stream or from a buffer. Each vector it hands out
is its own bytes, read when the parse reaches it, so a consumer holds only
the vectors it keeps; it is checked for its header and length, and its
raws are read (`FpVector.decode`) only when arithmetic needs them.

This module holds no secrets; the auditor imports it, the protocol fills it.
"""
from __future__ import annotations

import functools
import io
import struct
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .crypto import DIGEST_SIZE, PUBLIC_KEY_SIZE, SIGNATURE_SIZE, sha256
from .fixedpoint import Encoded

GENESIS_MAGIC = b"GEN1"
ROUND_MAGIC = b"RND1"
TRCD_MAGIC = b"TRCD"
SUBMISSION_TAG = b"AFLSUB"
WIRE_VERSION = 4


class RecordFormatError(Exception):
    """Structured parse failure: records are rejected, never crash the parser."""


class _Reader:
    """Parses a ledger payload stream, or a buffer, front to back, only
    through `read(n)`: a buffer is wrapped once in `io.BytesIO`.

    A blob it takes is the next n bytes, read (and, from `ledger.Payload`,
    hashed) as they are handed out; the reader keeps none of them. `size`
    bounds a reader of a stream to the next `size` bytes (`blob`).
    """

    def __init__(self, data, what: str, size: int | None = None):
        if not hasattr(data, "read"):
            data, size = io.BytesIO(data), memoryview(data).nbytes
        self.stream, self.off, self.what = data, 0, what
        self.size = len(data) if size is None else size

    def _truncated(self, n: int) -> RecordFormatError:
        return RecordFormatError(
            f"{self.what}: truncated at offset {self.off}, "
            f"needed {n} more bytes of {self.size}"
        )

    def take(self, n: int) -> bytes:
        if self.off + n > self.size:
            raise self._truncated(n)
        self.off += n
        return self.stream.read(n)

    def unpack(self, fmt: str):
        size = struct.calcsize(fmt)
        return struct.unpack(fmt, self.take(size))

    def blob(self, what: str) -> "_Reader":
        """The next length-prefixed blob as a reader of its own over the
        same stream, bounded by the blob's length and read only as the blob
        is parsed."""
        (n,) = self.unpack("<I")
        if self.off + n > self.size:
            raise self._truncated(n)
        self.off += n
        return _Reader(self.stream, what, n)

    def expect_end(self):
        if self.off != self.size:
            raise RecordFormatError(
                f"{self.what}: {self.size - self.off} trailing bytes "
                f"after offset {self.off}"
            )


def _blob(parts: list) -> list:
    """Length-prefixed blob: u32 byte count, then the parts (byte buffers)."""
    return [struct.pack("<I", sum(map(len, parts))), *parts]


def vector_blob(vec: Encoded) -> list:
    """A vector as the record holds it: its encoding as a length-prefixed blob."""
    return _blob([vec.data])


def _read_vector(r: _Reader, what: str) -> Encoded:
    (n,) = r.unpack("<I")
    try:
        return Encoded.parse(r.take(n))
    except ValueError as e:
        raise RecordFormatError(f"{what}: {e}") from None


def _table(table: dict, entry) -> list:
    """An id-keyed table: count u32, then id u32 | entry parts by ascending id."""
    out = [struct.pack("<I", len(table))]
    for pid in sorted(table):
        out.append(struct.pack("<I", pid))
        out += entry(table[pid])
    return out


def _read_table(r: _Reader, name: str, entry) -> Iterator[tuple[int, object]]:
    """Inverse of `_table`: yields each (id, entry) as it is parsed, and
    reads nothing before it is iterated; `entry(where)` reads the entry
    named by `where`.

    Ids must ascend strictly: that rejects duplicates and leaves every
    table, so every record, exactly one encoding.
    """
    (count,) = r.unpack("<I")
    last = -1
    for _ in range(count):
        (pid,) = r.unpack("<I")
        if pid <= last:
            raise RecordFormatError(
                f"{r.what}: {name} id {pid} after id {last} is a duplicate "
                "or out of order (ids must ascend strictly)"
            )
        yield pid, entry(f"{name} id {pid}")
        last = pid


# ---------------------------------------------------------------------------
# Genesis payload: the ledger's trust anchor.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenesisPayload:
    """Task definition, signed initial model, and the participant roster."""

    rounds: int
    eta_num: int
    eta_exp: int
    dim: int
    scale: int
    clipping: bool
    clip_factor: int
    server_pk: bytes
    w0_signature: bytes
    roster: dict[int, tuple[bytes, int]]  # id -> (verification key, l_i > 0)

    def encode(self) -> list:
        fields = struct.pack(
            "<HIqBQBBI",
            WIRE_VERSION,
            self.rounds,
            self.eta_num,
            self.eta_exp,
            self.dim,
            self.scale,
            1 if self.clipping else 0,
            self.clip_factor,
        )
        out = [GENESIS_MAGIC, fields, self.server_pk, self.w0_signature]
        out += _table(self.roster, lambda e: (e[0], struct.pack("<I", e[1])))
        return out

    @classmethod
    def decode(cls, data: bytes) -> "GenesisPayload":
        r = _Reader(data, "genesis payload")
        if r.take(4) != GENESIS_MAGIC:
            raise RecordFormatError("genesis payload: bad magic")
        version, rounds, eta_num, eta_exp, dim, scale, clipping, clip_factor = (
            r.unpack("<HIqBQBBI")
        )
        if version != WIRE_VERSION:
            raise RecordFormatError(f"genesis payload: unknown version {version}")
        # one encoding each for the clipping flag and the rate
        if clipping > 1:
            raise RecordFormatError(f"genesis payload: clipping byte {clipping} is not 0 or 1")
        if eta_num < 1 or (eta_exp > 0 and eta_num % 2 == 0):
            raise RecordFormatError(
                f"genesis payload: learning rate {eta_num} / 2^{eta_exp} is not "
                f"positive and in lowest terms"
            )
        # fixed fields are bytes: `crypto.public_key` takes nothing else
        server_pk = bytes(r.take(PUBLIC_KEY_SIZE))
        w0_sig = bytes(r.take(SIGNATURE_SIZE))

        def entry(where: str) -> tuple[bytes, int]:
            pk = bytes(r.take(PUBLIC_KEY_SIZE))
            (l,) = r.unpack("<I")
            if l == 0:
                raise RecordFormatError(
                    f"genesis payload: {where} has deflation factor l = 0"
                )
            return pk, l

        roster = dict(_read_table(r, "roster", entry))
        r.expect_end()
        return cls(
            rounds=rounds,
            eta_num=eta_num,
            eta_exp=eta_exp,
            dim=dim,
            scale=scale,
            clipping=bool(clipping),
            clip_factor=clip_factor,
            server_pk=server_pk,
            w0_signature=w0_sig,
            roster=roster,
        )


# ---------------------------------------------------------------------------
# Per-round record: masked gradients, submission signatures, mg2 digests.
# ---------------------------------------------------------------------------


def vector_digest(vec: Encoded) -> bytes:
    """SHA-256 of a vector's canonical encoding, as a submission binds it."""
    return sha256(vec.data)


def submission_message(r: int, pid: int, mg1_digest: bytes, mg2_digest: bytes) -> list:
    """The one message participant pid signs in round r, as buffers:
    `AFLSUB | version u16 | r u32 | pid u32 | SHA-256(enc(mg1)) |
    SHA-256(enc(mg2))`. Naming the round, the participant and each vector's
    role, a signature is valid for that one submission only."""
    return [
        SUBMISSION_TAG,
        struct.pack("<HII", WIRE_VERSION, r, pid),
        mg1_digest,
        mg2_digest,
    ]


@dataclass(frozen=True)
class RoundRecord:
    """Everything the protocol publishes about one training round.

    Every valid participant appears in `local_detect` with its
    multiplicatively masked gradient and its submission signature, and in
    exactly one of `local_agg` (benign: its additively masked gradient) and
    `agg_digests` (not benign: only that vector's digest, which its
    signature covers). Detection masks of the server appear for every
    participant, plus the single additively masked server aggregate.
    """

    r: int
    local_detect: dict[int, tuple[Encoded, bytes]]  # id -> (mg1, signature)
    local_agg: dict[int, Encoded]  # id -> mg2, benign only
    agg_digests: dict[int, bytes]  # id -> SHA-256(enc(mg2)), valid but not benign
    server_detect: dict[int, Encoded]  # id -> mg_S1 (one per participant)
    server_agg: Encoded  # mg_S2

    def encode(self) -> list:
        out = [ROUND_MAGIC, struct.pack("<I", self.r)]
        out += _table(self.local_detect, lambda e: [*vector_blob(e[0]), e[1]])
        out += _table(self.local_agg, vector_blob)
        out += _table(self.agg_digests, lambda digest: [digest])
        out += _table(self.server_detect, vector_blob)
        out += vector_blob(self.server_agg)
        return out

    @classmethod
    def decode(cls, data) -> "RoundRecord":
        """A round blob's record: what `RoundReader` parses, collected."""
        return RoundReader(_Reader(data, "round record")).record()


# the id-keyed tables of a round, in file order, as RoundRecord names them
ROUND_TABLES = ("local_detect", "local_agg", "agg_digests", "server_detect")


class RoundReader:
    """One round blob parsed front to back: the one reader of its layout.

    Construction reads the magic and the round index `r`. `tables()` gives
    the four id-keyed tables in file order (ROUND_TABLES), each an iterator
    that parses its table as it is read and yields (id, entry); they must
    be read in that order, each to its end. `server_agg()` then reads the
    server aggregate and checks that nothing follows it. Nothing parsed is
    kept, so a consumer holds only what it keeps of each entry. Every
    defect is a RecordFormatError, raised when the parse reaches it.
    """

    def __init__(self, r: _Reader):
        self._r = r
        if r.take(4) != ROUND_MAGIC:
            raise RecordFormatError("round record: bad magic")
        (self.r,) = r.unpack("<I")

    def tables(self) -> tuple[Iterator, Iterator, Iterator, Iterator]:
        r, rnd = self._r, self.r

        def vector(where: str) -> Encoded:
            return _read_vector(r, f"round {rnd} {where}")

        def signed(where: str) -> tuple[Encoded, bytes]:
            return vector(where), bytes(r.take(SIGNATURE_SIZE))

        def digest(where: str) -> bytes:
            return bytes(r.take(DIGEST_SIZE))

        return (
            _read_table(r, "detect masks", signed),
            _read_table(r, "aggregation masks", vector),
            _read_table(r, "aggregation digests", digest),
            _read_table(r, "server masks", vector),
        )

    def server_agg(self) -> Encoded:
        server_agg = _read_vector(self._r, f"round {self.r} server aggregate")
        self._r.expect_end()
        return server_agg

    def record(self) -> RoundRecord:
        """The rest of the round, collected into a RoundRecord."""
        tables = dict(zip(ROUND_TABLES, map(dict, self.tables())))
        return RoundRecord(r=self.r, **tables, server_agg=self.server_agg())


# ---------------------------------------------------------------------------
# The training record published to the ledger.
# ---------------------------------------------------------------------------


def training_header(
    n_rounds: int,
    dim: int,
    scale: int,
    eta_num: int,
    eta_exp: int,
    n_participants: int,
) -> list:
    """The training record's header, which precedes its `n_rounds` round
    blobs (`round_blob`) and the masked model's blob (`vector_blob`)."""
    return [
        TRCD_MAGIC,
        struct.pack(
            "<HIQBqBI", WIRE_VERSION, n_rounds, dim, scale, eta_num, eta_exp, n_participants
        ),
    ]


def round_blob(rec: RoundRecord) -> list:
    """A round record as the training record holds it: a length-prefixed blob."""
    return _blob(rec.encode())


@dataclass(frozen=True)
class TrainingRecord:
    """All round records and the masked final model."""

    rounds: tuple[RoundRecord, ...]
    masked_model: Encoded
    dim: int
    scale: int
    eta_num: int
    eta_exp: int
    n_participants: int

    def encode(self) -> list:
        out = training_header(
            len(self.rounds),
            self.dim,
            self.scale,
            self.eta_num,
            self.eta_exp,
            self.n_participants,
        )
        for rec in self.rounds:
            out += round_blob(rec)
        return out + vector_blob(self.masked_model)

    @classmethod
    def decode(cls, data) -> "TrainingRecord":
        """The whole record in a buffer: `TrainingRecordReader` run to its end."""
        reader = TrainingRecordReader(data)
        rounds = tuple(rnd.record() for rnd in reader.rounds())
        return cls(
            rounds=rounds,
            masked_model=reader.masked_model(),
            dim=reader.dim,
            scale=reader.scale,
            eta_num=reader.eta_num,
            eta_exp=reader.eta_exp,
            n_participants=reader.n_participants,
        )


@functools.cache
def _raise_malloc_thresholds() -> None:
    """Map and free one 4 MB block, untouched, so it costs no resident
    memory; once per process, since the thresholds only go up.

    glibc raises its dynamic mmap and trim thresholds only when it frees a
    large mmapped chunk, and a streamed record allocates none (each vector
    is read on its own). Without one, the vectors a round frees go back to
    the system and are faulted in again by the next round: about a tenth of
    `reference`'s audit time.
    """
    np.empty(4 << 20, dtype=np.uint8)


class TrainingRecordReader:
    """A training record parsed front to back, one round at a time.

    Built from a buffer or a ledger payload stream, it reads the record's
    header at once; `rounds()` then yields a RoundReader per round, bounded
    by the round blob's length, once it has checked the round's index, and
    `masked_model()`, called after the rounds, reads the masked final model
    and checks that nothing follows it. Each round must be read to its end
    before the next is asked for. Every entry is read only as the round's
    parse reaches it, so the reader holds no round. Every defect is a
    RecordFormatError, raised when the parse reaches it.
    """

    def __init__(self, data):
        _raise_malloc_thresholds()
        self._r = r = _Reader(data, "training record")
        if r.take(4) != TRCD_MAGIC:
            raise RecordFormatError("training record: bad magic")
        (
            version,
            self.n_rounds,
            self.dim,
            self.scale,
            self.eta_num,
            self.eta_exp,
            self.n_participants,
        ) = r.unpack("<HIQBqBI")
        if version != WIRE_VERSION:
            raise RecordFormatError(f"training record: unknown version {version}")

    def rounds(self) -> Iterator[RoundReader]:
        for k in range(self.n_rounds):
            rnd = RoundReader(self._r.blob("round record"))
            if rnd.r != k + 1:
                raise RecordFormatError(
                    f"training record: round {k} stores index {rnd.r}, expected {k + 1}"
                )
            yield rnd

    def masked_model(self) -> Encoded:
        masked_model = _read_vector(self._r, "masked final model")
        self._r.expect_end()
        return masked_model
