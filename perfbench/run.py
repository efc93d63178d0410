#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of auditfl's publish and audit path.

Run from the root of a source checkout (the package is imported from
``src/``):

    python3 perfbench/run.py --workload reference --seed 1 --seconds 40 --trace 0

One repetition is: a fresh interpreter that loads the IDX corpus, makes a
published run and the workload's unpublished FedAvg runs; then a fresh
interpreter that audits the new ledger and a copy with one byte flipped
inside a round record. Repetitions run back to back, one process at a time,
until --seconds is spent. Every end-to-end metric is the median of its
samples over the repetitions (see `summarize`).

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced repetitions: the traced ones wrap auditfl's public callables (see
tracer.py) and give the per-layer metrics, and the difference between the
two kinds is the tracing overhead. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Correctness gate, every repetition: the honest ledger must be accepted and
the tampered copy rejected (a wrong verdict counts as failed), and every
repetition must produce the same ledger SHA-256 and final accuracy (a
mismatch exits non-zero without a result).
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import struct
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_REPS = 3

# Ledger wire format (see auditfl.ledger and auditfl.records): file magic,
# then u64-length-prefixed frames; a frame starts with height u64,
# prev digest, payload digest, timestamp u64, payload length u64.
LEDGER_MAGIC_LEN = 8
FRAME_HEADER = struct.Struct("<Q32s32sQQ")
TRCD_HEADER_LEN = 4 + struct.calcsize("<HIQBqBI")

END_TO_END = [
    # (name, unit)
    ("setup_s", "s"),
    ("run_round_s", "s/round"),
    ("audit_round_s", "s/round"),
    ("fedavg_round_s", "s/round"),
    ("run_peak_rss_mb", "MB"),
    ("audit_peak_rss_mb", "MB"),
    ("ledger_bytes_per_round", "B/round"),
    ("final_test_accuracy", "fraction"),
    ("verdict_accuracy", "fraction"),
]

# Span name -> fields reported for it. "calls" and "self_s" are the span
# count and self time; any other field is the span's work units (bytes,
# words, false verdicts) under that name.
SPAN_FIELDS = [
    ("training.local_gradient", ["calls", "self_s"]),
    ("training.evaluate", ["self_s"]),
    ("randomness.prg", ["calls", "words", "self_s"]),
    ("randomness.prvg", ["calls", "self_s"]),
    ("fixedpoint.hadamard", ["calls", "self_s"]),
    ("fixedpoint.dot.protocol", ["calls", "self_s"]),
    ("fixedpoint.dot.auditor", ["calls", "self_s"]),
    ("fixedpoint.add", ["self_s"]),
    ("fixedpoint.encode", ["calls", "bytes", "self_s"]),
    ("fixedpoint.decode", ["calls", "bytes", "self_s"]),
    ("crypto.keygen", ["calls", "self_s"]),
    ("crypto.sign", ["calls", "self_s"]),
    ("crypto.verify", ["calls", "false", "self_s"]),
    ("crypto.sha256", ["calls", "bytes", "self_s"]),
    ("records.round_encode", ["calls", "bytes", "self_s"]),
    ("records.training_encode", ["bytes", "self_s"]),
    ("records.training_decode", ["self_s"]),
    ("records.genesis_decode", ["self_s"]),
    ("ledger.create", ["self_s"]),
    ("ledger.append", ["self_s"]),
    ("ledger.open", ["bytes_read", "self_s"]),
    ("ledger.verify_chain", ["calls", "self_s"]),
    ("protocol.pretrain", ["self_s"]),
    ("protocol.preprocess", ["self_s"]),
    ("protocol.compute_submission", ["self_s"]),
    ("protocol.verify_submission", ["self_s"]),
    ("protocol.run_round", ["self_s"]),
    ("protocol.robust_aggregate", ["self_s"]),
    ("protocol.finalize", ["self_s"]),
    ("protocol.run_training", ["self_s"]),
    ("auditor.audit_detection", ["self_s"]),
    ("auditor.audit_aggregate", ["self_s"]),
    ("auditor.deflated_products", ["self_s"]),
    ("auditor.audit_trace", ["self_s"]),
    ("auditor.audit_record", ["self_s"]),
    ("auditor.full_audit", ["self_s"]),
]
LAYERS = ["training", "randomness", "fixedpoint", "crypto", "records",
          "ledger", "protocol", "auditor"]
FIELD_UNITS = {"calls": "count", "self_s": "s", "words": "count",
               "bytes": "B", "bytes_read": "B", "false": "count"}
DERIVED = [
    ("randomness.prg_calls_per_participant_round", "ratio"),
    ("fixedpoint.encodes_per_published_vector", "ratio"),
    ("crypto.verifies_per_published_signature", "ratio"),
    ("crypto.sha256_bytes_per_ledger_byte", "ratio"),
    ("records.reported_record_bytes_ratio", "ratio"),
] + [(f"layer.{layer}.share", "fraction") for layer in LAYERS] + [
    ("trace.overhead_s", "s"),
    ("trace.overhead_share", "fraction"),
    ("trace.coverage", "fraction"),
    ("trace.spans", "count"),
    ("trace.absent_targets", "count"),
]
# Spans inside one protocol round; PRG calls under them are per-round work.
ROUND_SPANS = {"protocol.compute_submission", "protocol.run_round"}
COVERAGE_TOLERANCE = 0.03


def per_layer_units() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = [(f"{span}.{field}", FIELD_UNITS[field])
           for span, fields in SPAN_FIELDS for field in fields]
    return out + DERIVED


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def child(args: list[str], env: dict) -> dict:
    """Run one child phase in a fresh interpreter; its last stdout line is JSON."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} failed ({proc.returncode}):\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def ledger_layout(path: Path) -> tuple[int, list[tuple[int, int]]]:
    """(payload length, [(offset, length) of each round record]) of block 1."""
    with open(path, "rb") as f:
        f.seek(LEDGER_MAGIC_LEN)
        for height in range(2):
            (flen,) = struct.unpack("<Q", f.read(8))
            start = f.tell()
            _, _, _, _, plen = FRAME_HEADER.unpack(f.read(FRAME_HEADER.size))
            if height == 0:
                f.seek(start + flen)
        payload = f.tell()
        f.seek(payload + 4 + 2)
        (n_rounds,) = struct.unpack("<I", f.read(4))
        rounds = []
        off = payload + TRCD_HEADER_LEN
        for _ in range(n_rounds):
            f.seek(off)
            (blen,) = struct.unpack("<I", f.read(4))
            rounds.append((off + 4, blen))
            off += 4 + blen
    return plen, rounds


def tamper_copy(src: Path, dst: Path, seed: int) -> None:
    """Copy a ledger, flipping one seeded byte inside one round record."""
    _, rounds = ledger_layout(src)
    rng = random.Random(seed)
    off, length = rounds[rng.randrange(len(rounds))]
    pos = off + rng.randrange(length)
    shutil.copyfile(src, dst)
    with open(dst, "r+b") as f:
        f.seek(pos)
        byte = f.read(1)[0]
        f.seek(pos)
        f.write(bytes([byte ^ rng.randrange(1, 256)]))


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def repetition(work: Path, data: Path, workload: str, seed: int, env: dict,
               index: int, traced: bool) -> dict:
    """One published run + FedAvg runs, then the audit of honest and tampered."""
    ledger = work / f"ledger-{index}.bin"
    tampered = work / f"tampered-{index}.bin"
    run_spans = work / f"run-{index}.jsonl" if traced else None
    audit_spans = work / f"audit-{index}.jsonl" if traced else None
    t0 = perf_counter()
    run = child(["run", str(data), workload, str(seed), str(ledger)]
                + ([str(run_spans)] if traced else []), env)
    tamper_copy(ledger, tampered, seed)
    # Write both files back now, not while the next child is being timed.
    for path in (ledger, tampered):
        with open(path, "rb+") as f:
            os.fsync(f.fileno())
    audit = child(["audit", str(ledger), str(tampered)]
                  + ([str(audit_spans)] if traced else []), env)
    rep = {
        "traced": traced,
        "wall_s": perf_counter() - t0,
        "run": run,
        "audit": audit,
        "phase_s": {**run["phase_s"], **audit["phase_s"]},
        "ledger_sha256": sha256_file(ledger),
        "ledger_bytes": ledger.stat().st_size,
        "trcd_bytes": ledger_layout(ledger)[0],
        "spans": [run_spans, audit_spans] if traced else None,
    }
    ledger.unlink()
    tampered.unlink()
    return rep


def end_to_end(reps: list[dict], rounds: int) -> dict[str, list[float]]:
    """Samples of each end-to-end metric over the repetitions."""
    values = {name: [] for name, _ in END_TO_END}
    for rep in reps:
        run, audit, ph = rep["run"], rep["audit"], rep["phase_s"]
        values["setup_s"].append(ph["load"] + run["pre_round_s"])
        values["run_round_s"].append((ph["run"] - run["pre_round_s"]) / rounds)
        values["audit_round_s"].append(ph["audit"] / rounds)
        values["fedavg_round_s"].extend(t / rounds for t in run["fedavg_runs_s"])
        values["run_peak_rss_mb"].append(run["run_peak_rss_mb"])
        values["audit_peak_rss_mb"].append(audit["audit_peak_rss_mb"])
        values["ledger_bytes_per_round"].append(rep["ledger_bytes"] / rounds)
        values["final_test_accuracy"].append(run["final_test_accuracy"])
        right = int(audit["honest_ok"]) + int(not audit["tampered_ok"])
        values["verdict_accuracy"].append(right / 2)
    return values


def summarize(samples: dict[str, list[float]]) -> dict[str, float]:
    """Median of each metric's samples.

    On a shared 2-vCPU VM the fastest sample is an extreme value: over five
    seeds per workload, the interquartile range of the fastest sample was
    11% of the median on average over the twelve timings, against 8% for
    the median of the same samples, which was steadier on 9 of the 12.
    """
    return {name: statistics.median(v) for name, v in samples.items()}


def load_spans(paths) -> tuple[list[dict], list[str]]:
    spans, absent = [], set()
    for path in paths:
        base = len(spans)
        with open(path) as f:
            for line in f:
                item = json.loads(line)
                if "absent" in item:
                    absent.add(item["absent"])
                    continue
                # ids are per process; shift them so the two files do not clash
                item["id"] += base
                if item["parent"] >= 0:
                    item["parent"] += base
                spans.append(item)
    return spans, sorted(absent)


def span_metrics(rep: dict, participants: int, rounds: int) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced repetition."""
    spans, absent = load_spans(rep["spans"])
    child_ns = [0] * len(spans)
    in_round = [False] * len(spans)
    for s in spans:  # parents precede children, so one pass suffices
        if s["parent"] >= 0:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
            in_round[s["id"]] = in_round[s["parent"]]
        if s["name"] in ROUND_SPANS:
            in_round[s["id"]] = True
    stats = {}
    layer_ns = dict.fromkeys(LAYERS, 0)
    prg_in_rounds = encodes_in_run = verifies = sha_bytes = 0
    for s in spans:
        self_ns = s["end_ns"] - s["start_ns"] - child_ns[s["id"]]
        st = stats.setdefault(s["name"], {"calls": 0, "self_ns": 0, "units": 0})
        st["calls"] += 1
        st["self_ns"] += self_ns
        st["units"] += s["units"]
        layer = s["name"].split(".")[0]
        layer_ns[layer] = layer_ns.get(layer, 0) + self_ns
        name, phase = s["name"], s["phase"]
        if name == "randomness.prg" and in_round[s["id"]]:
            prg_in_rounds += 1
        elif name == "fixedpoint.encode" and phase == "run":
            encodes_in_run += 1
        elif name == "crypto.verify" and phase in ("run", "audit"):
            verifies += 1
        elif name == "crypto.sha256" and phase in ("run", "audit"):
            sha_bytes += s["units"]
    out = {}
    for span, fields in SPAN_FIELDS:
        st = stats.get(span, {"calls": 0, "self_ns": 0, "units": 0})
        for field in fields:
            key = f"{span}.{field}"
            if field == "calls":
                out[key] = st["calls"]
            elif field == "self_s":
                out[key] = st["self_ns"] / 1e9
            else:
                out[key] = st["units"]
    total_ns = sum(layer_ns.values())
    for layer in LAYERS:
        out[f"layer.{layer}.share"] = layer_ns[layer] / total_ns
    published = rep["run"]["published"]
    out["randomness.prg_calls_per_participant_round"] = (
        prg_in_rounds / (participants * rounds))
    out["fixedpoint.encodes_per_published_vector"] = (
        encodes_in_run / published["vectors"])
    out["crypto.verifies_per_published_signature"] = (
        verifies / published["signatures"])
    out["crypto.sha256_bytes_per_ledger_byte"] = sha_bytes / rep["ledger_bytes"]
    out["trace.coverage"] = total_ns / 1e9 / sum(rep["phase_s"].values())
    out["trace.spans"] = len(spans)
    out["trace.absent_targets"] = len(absent)
    return out, absent


def environment(workload: str, seed: int, corpus_env: dict) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        **corpus_env,
    }


def measure(args, root: Path, work: Path) -> dict:
    wl = WORKLOADS[args.workload]
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # The pipeline is sequential and its matrix products are small; a second
    # BLAS thread only adds scheduling noise. Explicit settings are kept.
    for var in BLAS_THREAD_VARS:
        env.setdefault(var, "1")
    data = work / "data"
    corpus_env = child(["corpus", str(data), args.workload, str(args.seed)], env)
    print("environment: " + json.dumps(environment(args.workload, args.seed, corpus_env)))

    reps: list[dict] = []
    start = perf_counter()
    min_reps = 2 if args.trace else MIN_REPS
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(repetition(work, data, args.workload, args.seed, env,
                               len(reps), traced))
        elapsed = perf_counter() - start
        typical = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= min_reps and (not args.trace or len(reps) % 2 == 0) \
                and elapsed + typical * (2 if args.trace else 1) > args.seconds:
            break

    digests = {(r["ledger_sha256"], r["run"]["final_test_accuracy"]) for r in reps}
    if len(digests) != 1:
        raise BenchError(f"repetitions with one seed disagree: {sorted(digests)}")
    failed = 0
    for r in reps:
        audit = r["audit"]
        if not audit["honest_ok"]:
            print(f"wrong verdict: honest ledger rejected: {audit['honest_failure']}",
                  file=sys.stderr)
        if audit["tampered_ok"]:
            print("wrong verdict: tampered ledger accepted", file=sys.stderr)
        failed += int(not audit["honest_ok"]) + int(audit["tampered_ok"])
    attempted = 2 * len(reps)
    plain = [r for r in reps if not r["traced"]]
    samples = end_to_end(plain, wl["rounds"])
    e2e = summarize(samples)
    ratio = statistics.median(r["run"]["reported_record_bytes"] / r["trcd_bytes"]
                              for r in reps)
    print(f"repetitions: {len(reps)} ({sum(r['traced'] for r in reps)} traced), "
          f"ledger sha256 {reps[0]['ledger_sha256']}")
    print(f"verdict_error_rate: {failed / attempted} fraction "
          f"({failed} wrong of {attempted} verdicts)")
    for name, unit in END_TO_END:
        v = samples[name]
        print(f"{name}: {e2e[name]:.6g} {unit} (min {min(v):.6g}, "
              f"max {max(v):.6g}, n={len(v)})")
    correct = failed == 0
    if not args.trace:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": metrics}

    per_rep, absent = [], []
    for rep in reps:
        if rep["traced"]:
            values, absent = span_metrics(rep, wl["participants"], wl["rounds"])
            per_rep.append(values)
    layer = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
    traced_wall = statistics.median(sum(r["phase_s"].values())
                                    for r in reps if r["traced"])
    plain_wall = statistics.median(sum(r["phase_s"].values()) for r in plain)
    layer["trace.overhead_s"] = traced_wall - plain_wall
    layer["trace.overhead_share"] = (traced_wall - plain_wall) / plain_wall
    layer["records.reported_record_bytes_ratio"] = ratio
    if absent:
        print("absent trace targets: " + ", ".join(absent))
    if abs(layer["trace.coverage"] - 1) > COVERAGE_TOLERANCE:
        print(f"trace self times cover {layer['trace.coverage']:.4f} of the traced "
              f"wall time; expected within {COVERAGE_TOLERANCE}", file=sys.stderr)
        correct = False
    for name, unit in per_layer_units():
        print(f"{name}: {layer[name]:.6g} {unit}")
    metrics = {name: {"value": layer[name], "unit": unit}
               for name, unit in per_layer_units()}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "auditfl" / "__init__.py").is_file():
        print(f"error: no auditfl sources under {root / 'src'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    work = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, root, work)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's files
            work.parent.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
