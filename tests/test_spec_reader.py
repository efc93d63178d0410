"""The README-only reader (`spec_reader.py`) against the package's own audit."""
import ast
import dataclasses
from pathlib import Path

import pytest

from auditfl import full_audit, run_training
from auditfl.records import GenesisPayload, RecordFormatError
from spec_reader import SpecError, read_ledger
from test_golden import CONFIGS, _data
from util import (
    frame_ledger,
    load_chain,
    rebuild_ledger,
    republish,
    small_config,
    tamper_entry_to_other_round,
    tamper_in_neither_table,
    tamper_mask_and_digest,
    tamper_mg2_digest,
    tamper_swap_entries,
)


@pytest.fixture(scope="module")
def golden_ledgers(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    train, test = _data()
    paths = {}
    for name, overrides in CONFIGS.items():
        paths[name] = tmp / f"{name}.bin"
        run_training(small_config(**overrides), train, test, ledger_path=paths[name])
    return paths


def test_reader_imports_nothing_from_the_package():
    tree = ast.parse((Path(__file__).parent / "spec_reader.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.split(".")[0])
    assert imported <= {"__future__", "struct", "hashlib", "cryptography"}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_reader_agrees_with_full_audit(golden_ledgers, name):
    path = golden_ledgers[name]
    report = full_audit(path)
    assert report.ok, report.failure
    rounds = read_ledger(path.read_bytes())
    assert [(rd["round"], rd["participants"], rd["benign"]) for rd in rounds] == [
        (ra.r, list(ra.present_ids), list(ra.published_benign)) for ra in report.rounds
    ]


def _reframed(golden_ledgers, tmp_path, genesis_bytes: bytes) -> bytes:
    """The honest golden ledger with its genesis payload replaced."""
    work = tmp_path / "reframed.bin"
    work.write_bytes(golden_ledgers["honest"].read_bytes())
    _, record, _ = load_chain(work)
    rebuild_ledger(work, genesis_bytes, [b"".join(record.encode())])
    return work.read_bytes()


def test_zero_deflation_factor_rejected(golden_ledgers, tmp_path):
    _, _, genesis = load_chain(golden_ledgers["honest"])
    roster = {**genesis.roster, 2: (genesis.roster[2][0], 0)}
    bad = b"".join(dataclasses.replace(genesis, roster=roster).encode())
    with pytest.raises(SpecError, match="l = 0"):
        read_ledger(_reframed(golden_ledgers, tmp_path, bad))


def test_roster_out_of_order_rejected(golden_ledgers, tmp_path):
    genesis_bytes, _, genesis = load_chain(golden_ledgers["honest"])
    data = bytes(genesis_bytes)
    # the roster ends the genesis: count u32, then id u32 | pk 64B | l u32;
    # swap its first two entries
    n = 4 + 64 + 4
    a = len(data) - n * len(genesis.roster)
    swapped = data[:a] + data[a + n : a + 2 * n] + data[a : a + n] + data[a + 2 * n :]
    with pytest.raises(SpecError, match="ids do not ascend"):
        read_ledger(_reframed(golden_ledgers, tmp_path, swapped))
    with pytest.raises(RecordFormatError, match="out of order"):
        GenesisPayload.decode(swapped)


def test_nonzero_timestamp_rejected(golden_ledgers):
    genesis_bytes, record, _ = load_chain(golden_ledgers["honest"])
    payloads = [genesis_bytes, b"".join(record.encode())]
    assert read_ledger(frame_ledger(payloads))
    with pytest.raises(SpecError, match="block 0: timestamp 7"):
        read_ledger(frame_ledger(payloads, timestamp=7))


@pytest.mark.parametrize("copies", [0, 2])
def test_block_count_other_than_one_record_rejected(golden_ledgers, tmp_path, copies):
    genesis_bytes, record, _ = load_chain(golden_ledgers["honest"])
    work = tmp_path / "count.bin"
    work.write_bytes(frame_ledger([genesis_bytes] + [b"".join(record.encode())] * copies))
    with pytest.raises(SpecError, match=f"{copies} training records, not 1"):
        read_ledger(work.read_bytes())
    assert full_audit(work).failure_stage == "metadata"


@pytest.mark.parametrize(
    "tamper, stage",
    [
        (tamper_entry_to_other_round, "signature"),
        (tamper_swap_entries, "signature"),
        (tamper_mg2_digest, "signature"),
        (tamper_mask_and_digest, "structure"),
        (tamper_in_neither_table, "structure"),
    ],
    ids=["other-round", "swapped", "digest", "mask-and-digest", "neither"],
)
def test_submission_binding_tampers_rejected(golden_ledgers, tmp_path, tamper, stage):
    # both readers reject a submission entry that its signature does not bind
    work = tmp_path / "tampered.bin"
    work.write_bytes(golden_ledgers["sign-flip-label-flip"].read_bytes())
    _, record, _ = load_chain(work)
    republish(work, tamper(record))
    assert full_audit(work).failure_stage == stage
    with pytest.raises(SpecError):
        read_ledger(work.read_bytes())
