"""Smoke test of the benchmark harness: its child phases still drive the
public API end to end, so an API change that would break every benchmark
run fails here first."""
import json
import os
import subprocess
import sys
from pathlib import Path

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


def test_many_small_run_and_audit(tmp_path):
    data = tmp_path / "data"
    ledger = tmp_path / "ledger.bin"
    tampered = tmp_path / "tampered.bin"
    _child("corpus", data, "many-small", 3)
    run = _child("run", data, "many-small", 3, ledger)
    assert run["reported_record_bytes"] > 0
    blob = bytearray(ledger.read_bytes())
    blob[len(blob) // 2] ^= 0x01
    tampered.write_bytes(bytes(blob))
    audit = _child("audit", ledger, tampered)
    assert audit["honest_ok"], audit["honest_failure"]
    assert not audit["tampered_ok"]


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
