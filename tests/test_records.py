"""Wire-format round trips and structured parse failures."""
import dataclasses

import numpy as np
import pytest

from auditfl import records
from auditfl.fixedpoint import FpVector
from auditfl.ledger import Ledger
from auditfl.records import (
    GenesisPayload,
    RecordFormatError,
    RoundRecord,
    TrainingRecord,
)
from util import read_payloads, run_published, sign_flip_spec, small_config


def _vec(vals, scale=20):
    return FpVector(np.array(vals, dtype=np.int64), scale).encode()


def _genesis(n=2):
    return GenesisPayload(
        rounds=3,
        eta_num=1,
        eta_exp=1,
        dim=4,
        scale=20,
        clipping=False,
        clip_factor=3,
        server_pk=b"\x01" * 64,
        w0_signature=b"\x02" * 64,
        roster={i: (bytes([i]) * 64, 150000 + i) for i in range(1, n + 1)},
    )


def _round(r=1):
    return RoundRecord(
        r=r,
        local_detect={1: (_vec([1, 2, 3, 4]), b"\x0a" * 64),
                      2: (_vec([-1, -2, -3, -4]), b"\x0b" * 64)},
        local_agg={1: _vec([5, 6, 7, 8])},
        agg_digests={2: b"\x0d" * 32},
        server_detect={1: _vec([9, 9, 9, 9]), 2: _vec([8, 8, 8, 8])},
        server_agg=_vec([7, 7, 7, 7]),
    )


def _record():
    return TrainingRecord(
        rounds=(_round(1), _round(2)),
        masked_model=_vec([10, 20, 30, 40]),
        dim=4,
        scale=20,
        eta_num=1,
        eta_exp=1,
        n_participants=2,
    )


class TestGenesis:
    def test_roundtrip(self):
        g = _genesis()
        assert GenesisPayload.decode(b"".join(g.encode())) == g

    def test_truncated(self):
        g = _genesis()
        with pytest.raises(RecordFormatError, match="truncated"):
            GenesisPayload.decode(b"".join(g.encode())[:-3])

    def test_trailing_bytes(self):
        g = _genesis()
        with pytest.raises(RecordFormatError, match="trailing"):
            GenesisPayload.decode(b"".join(g.encode()) + b"\x00")

    def test_bad_magic(self):
        with pytest.raises(RecordFormatError, match="magic"):
            GenesisPayload.decode(b"XXXX" + b"".join(_genesis().encode())[4:])


class TestRound:
    def test_roundtrip(self):
        r = _round()
        decoded = RoundRecord.decode(b"".join(r.encode()))
        assert decoded.r == 1
        assert decoded.local_detect[1][0] == r.local_detect[1][0]
        assert decoded.local_detect[2][1] == b"\x0b" * 64
        assert sorted(decoded.local_agg) == [1]
        assert decoded.agg_digests == {2: b"\x0d" * 32}
        assert decoded.server_agg == r.server_agg

    def test_duplicate_id_rejected(self):
        import struct as _s

        r = _round()
        data = b"".join(r.encode())
        # layout: magic(4) r(4) count(4), entry = id(4) + blob(4+14) + sig(64)
        vec_bytes = len(r.local_detect[1][0])
        assert vec_bytes == 10 + 4 * 1
        second_id_off = 12 + 4 + 4 + vec_bytes + 64
        assert data[second_id_off : second_id_off + 4] == _s.pack("<I", 2)
        broken = data[:second_id_off] + _s.pack("<I", 1) + data[second_id_off + 4 :]
        with pytest.raises(RecordFormatError, match="duplicate"):
            RoundRecord.decode(broken)

    def test_bad_vector_payload(self):
        r = _round()
        data = bytearray(b"".join(r.encode()))
        # corrupt the length prefix of the first vector blob (magic+r+count+id)
        data[16] = 0xFF
        with pytest.raises(RecordFormatError):
            RoundRecord.decode(bytes(data))


class TestTrainingRecord:
    def test_roundtrip(self, tmp_path):
        rec = _record()
        decoded = TrainingRecord.decode(b"".join(rec.encode()))
        assert decoded.masked_model == rec.masked_model
        assert len(decoded.rounds) == 2
        assert decoded.rounds[1].r == 2
        # decoded straight from a ledger payload stream, the record is the same
        chain = Ledger.create(tmp_path / "chain.bin", b"genesis payload")
        chain.append(*rec.encode())
        for height, payload in enumerate(Ledger.open(chain.path)):
            if height == 1:
                assert TrainingRecord.decode(payload) == decoded

    def test_round_index_contiguity_enforced(self):
        rec = TrainingRecord(
            rounds=(_round(1), _round(5)),
            masked_model=_vec([1]),
            dim=4,
            scale=20,
            eta_num=1,
            eta_exp=1,
            n_participants=2,
        )
        with pytest.raises(RecordFormatError, match="round"):
            TrainingRecord.decode(b"".join(rec.encode()))

    def test_deterministic_encoding(self):
        assert b"".join(_record().encode()) == b"".join(_record().encode())

    def test_garbage_rejected_structured(self):
        with pytest.raises(RecordFormatError):
            TrainingRecord.decode(b"TRCD" + b"\x01\x02" * 3)


def _two_ids_in(table):
    """The record type and a record whose only table with two ids is `table`."""
    if table == "roster":
        return GenesisPayload, _genesis(n=2)
    full = _round()
    one = dataclasses.replace(
        full,
        local_detect={1: full.local_detect[1]},
        server_detect={1: full.server_detect[1]},
    )
    two = {
        "local_detect": full.local_detect,
        "local_agg": {**full.local_agg, 2: _vec([0, 0, 0, 1])},
        "agg_digests": {**full.agg_digests, 1: b"\x0e" * 32},
        "server_detect": full.server_detect,
    }[table]
    return RoundRecord, dataclasses.replace(one, **{table: two})


class TestTableOrder:
    """Every id-keyed table lists its ids strictly ascending, so each record
    has one encoding; a duplicate or an out-of-order id is a format error."""

    TABLES = {
        "roster": "roster",
        "local_detect": "detect masks",
        "local_agg": "aggregation masks",
        "agg_digests": "aggregation digests",
        "server_detect": "server masks",
    }

    @pytest.mark.parametrize("table", TABLES)
    @pytest.mark.parametrize(
        "order, message",
        [(lambda ids: sorted(ids, reverse=True), "id 1 after id 2 is a"),
         (lambda ids: [min(ids)] * len(ids), "id 1 after id 1 is a duplicate")],
        ids=["out-of-order", "duplicate"],
    )
    def test_rejected(self, monkeypatch, table, order, message):
        cls, rec = _two_ids_in(table)
        # the table writer takes its id order from `sorted`
        monkeypatch.setattr(records, "sorted", order, raising=False)
        data = b"".join(rec.encode())
        monkeypatch.undo()
        with pytest.raises(RecordFormatError, match=f"{self.TABLES[table]} {message}"):
            cls.decode(data)


class TestRoundParse:
    def test_the_audits_stream_parse_sees_what_decode_collects(self, tmp_path):
        # the audit parses each round straight off block 1's payload stream;
        # RoundRecord.decode of the same round blob, sliced out of the
        # payload by its length prefix, must collect the same items
        import struct

        cfg = small_config(participants=4, rounds=3, malicious={2: sign_flip_spec()})
        _, _, path = run_published(tmp_path, cfg)
        payload = read_payloads(path)[1]
        off = 4 + struct.calcsize("<HIQBqBI")  # TRCD magic and header
        blocks = Ledger.open(path)
        next(blocks)
        reader = records.TrainingRecordReader(next(blocks))
        for rnd in reader.rounds():
            (n,) = struct.unpack_from("<I", payload, off)
            rec = RoundRecord.decode(payload[off + 4 : off + 4 + n])
            off += 4 + n
            assert rnd.r == rec.r
            for name, table in zip(records.ROUND_TABLES, rnd.tables()):
                assert list(table) == list(getattr(rec, name).items())
            assert rnd.server_agg() == rec.server_agg
        assert reader.masked_model() == TrainingRecord.decode(payload).masked_model
        assert next(blocks, None) is None  # the stream checked block 1's digests
