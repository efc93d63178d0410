"""Hash chain: append-only persistence and tamper evidence."""
import pytest

from auditfl.ledger import Ledger, LedgerError


@pytest.fixture
def chain(tmp_path):
    return Ledger.create(tmp_path / "chain.bin", b"genesis payload")


class TestAppend:
    def test_first_append_is_height_one(self, chain):
        chain.append(b"payload")
        assert len(chain) == 2
        assert chain.blocks[1].height == 1

    def test_identical_payloads_distinct_digests(self, chain):
        chain.append(b"same")
        chain.append(b"same")
        assert chain.blocks[1].digest() != chain.blocks[2].digest()

    def test_reload_roundtrip(self, chain):
        chain.append(b"one")
        chain.append(b"two")
        reloaded = Ledger.open(chain.path)
        assert len(reloaded) == 3
        assert [b.payload for b in reloaded.blocks] == [
            b.payload for b in chain.blocks
        ]
        assert reloaded.verify_chain() == (True, None)

    def test_create_refuses_overwrite(self, chain, tmp_path):
        with pytest.raises(LedgerError):
            Ledger.create(chain.path, b"x")

    def test_deterministic_bytes(self, tmp_path):
        a = Ledger.create(tmp_path / "a.bin", b"g", timestamp=4)
        a.append(b"p", timestamp=4)
        b = Ledger.create(tmp_path / "b.bin", b"g", timestamp=4)
        b.append(b"p", timestamp=4)
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()


class TestVerifyChain:
    def test_untouched_chain_accepts(self, chain):
        chain.append(b"x")
        assert chain.verify_chain() == (True, None)

    def test_payload_flip_detected_at_height(self, chain, tmp_path):
        chain.append(b"block-one")
        chain.append(b"block-two")
        data = bytearray(chain.path.read_bytes())
        # flip a byte inside the last payload
        idx = data.rindex(b"block-two"[:5])
        data[idx] ^= 0x01
        chain.path.write_bytes(bytes(data))
        ok, bad = Ledger.open(chain.path).verify_chain()
        assert not ok and bad == 2

    def test_any_single_bit_flip_detected(self, chain):
        chain.append(b"abc")
        clean = chain.path.read_bytes()
        for byte_idx in range(len(Ledger.open(chain.path).path.read_bytes())):
            data = bytearray(clean)
            data[byte_idx] ^= 0x01
            chain.path.write_bytes(bytes(data))
            try:
                ok, _ = Ledger.open(chain.path).verify_chain()
            except LedgerError:
                ok = False
            assert not ok, f"bit flip at byte {byte_idx} went undetected"
        chain.path.write_bytes(clean)

    def test_truncation_detected(self, chain):
        chain.append(b"will be cut")
        data = chain.path.read_bytes()
        chain.path.write_bytes(data[:-5])
        ok, bad = Ledger.open(chain.path).verify_chain()
        assert not ok and bad == 1


class TestGetRecord:
    def test_genesis_payload(self, chain):
        assert chain.get_record(height=0) == b"genesis payload"

    def test_missing_height(self, chain):
        with pytest.raises(LedgerError):
            chain.get_record(height=5)

    def test_not_a_ledger_file(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a ledger at all")
        with pytest.raises(LedgerError):
            Ledger.open(p)
