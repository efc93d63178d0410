"""Smoke test of the benchmark harness: its child phases still drive the
public API end to end, and its ledger layout reader still parses a ledger,
so an API or format change that would break every benchmark run fails here
first."""
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from auditfl import full_audit
from auditfl.records import RoundRecord, TrainingRecord
from util import read_payloads, run_published, small_config

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _child(*args) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    proc = subprocess.run(
        [sys.executable, "child.py", *map(str, args)],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    data = tmp_path_factory.mktemp("corpus")
    _child("corpus", data, "many-small", 3)
    return data


def _run_and_audit(corpus, tmp_path, *spans) -> dict:
    """A many-small run and audit, traced into `spans` (run, audit) if given;
    returns the run's output."""
    ledger = tmp_path / "ledger.bin"
    tampered = tmp_path / "tampered.bin"
    run = _child("run", corpus, "many-small", 3, ledger, *spans[:1])
    blob = bytearray(ledger.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    tampered.write_bytes(bytes(blob))
    audit = _child("audit", ledger, tampered, *spans[1:])
    assert audit["honest_ok"], audit["honest_failure"]
    assert not audit["tampered_ok"]
    return run


def test_many_small_run_and_audit(corpus, tmp_path):
    run = _run_and_audit(corpus, tmp_path)
    assert run["reported_record_bytes"] > 0


def test_many_small_traced_run_and_audit(corpus, tmp_path):
    # the tracer counts units with len() of an argument or of the result,
    # so the encoders' buffer lists and the ledger's and hash's buffer
    # arguments must still give it something to count; the run writes the
    # record as it trains and decodes it back from the ledger when
    # `RunResult.record` is read
    spans = [tmp_path / "run.jsonl", tmp_path / "audit.jsonl"]
    _run_and_audit(corpus, tmp_path, *spans)
    counted = {}
    for path in spans:
        for line in path.read_text().splitlines():
            span = json.loads(line)
            if "name" in span:
                counted[span["name"]] = counted.get(span["name"], 0) + span["units"]
    for name in ("fixedpoint.encode", "crypto.sha256", "records.round_encode",
                 "records.training_decode", "ledger.append", "fixedpoint.decode"):
        assert counted.get(name, 0) > 0, name


def test_trace_targets_present():
    # a renamed or deleted traced callable would silently read 0 in its
    # per-layer metric; only the stages deleted on purpose may be absent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    code = (
        "import json, tracer; t = tracer.Tracer(); tracer.install(t); "
        "print(json.dumps(t.absent))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PERFBENCH, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    absent = json.loads(proc.stdout.strip().splitlines()[-1])
    assert absent == ["randomness.prvg", "randomness.model_mask", "ledger.verify_chain"]


def test_ledger_layout_and_tamper_copy(tmp_path, monkeypatch):
    # run.py locates each round record by the ledger and record layout; a
    # layout change must break this test, not every benchmark repetition
    monkeypatch.setattr(sys, "path", list(sys.path))  # run.py prepends its dir
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cfg = small_config(participants=3, rounds=3)
    _, _, path = run_published(tmp_path, cfg)
    data = path.read_bytes()
    payload = read_payloads(path)[1]
    start = data.index(payload)
    payload_len, spans = bench.ledger_layout(path)
    assert payload_len == len(payload)
    assert len(spans) == cfg.rounds
    for (off, length), rec in zip(spans, TrainingRecord.decode(payload).rounds):
        assert start <= off and off + length <= start + payload_len
        assert RoundRecord.decode(data[off : off + length]) == rec
    for seed in range(4):
        tampered = tmp_path / f"tampered-{seed}.bin"
        bench.tamper_copy(path, tampered, seed)
        assert tampered.read_bytes() != data
        assert not full_audit(tampered).ok
