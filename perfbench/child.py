"""One phase of a benchmark repetition, in a fresh interpreter.

    python3 child.py corpus DATA_DIR WORKLOAD SEED
    python3 child.py run    DATA_DIR WORKLOAD SEED LEDGER [SPANS.jsonl]
    python3 child.py audit  LEDGER TAMPERED_LEDGER [SPANS.jsonl]

`run` loads the IDX corpus, makes a published run and then the workload's
`fedavg_runs` unpublished FedAvg runs; `audit` audits the honest ledger and
then the tampered copy.
Each prints one JSON object on stdout. With a spans path, every public
auditfl callable in `tracer.TARGETS` is wrapped and the spans are written
there when the process ends. A fresh process per phase matters: crypto's
per-key tables are built once per process, and a real auditor pays for
them on every audit.
"""
from __future__ import annotations

import json
import os
import sys
from time import perf_counter

import tracer as tracing
from workloads import WORKLOADS

IDX = ("train-images-idx3-ubyte", "train-labels-idx1-ubyte",
       "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")


def peak_rss_mb() -> float:
    """This process's resident-memory high-water mark (VmHWM), in MB.

    Unlike ru_maxrss, VmHWM is not inherited across fork+exec, so a child
    started by a large parent reports only its own peak.
    """
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def start_tracing(spans_path):
    """Install the span wrappers when a spans path is given; else None."""
    if spans_path is None:
        return None
    tracer = tracing.Tracer()
    tracing.install(tracer)
    return tracer


def cmd_corpus(data_dir: str, workload: str, seed: int) -> dict:
    import numpy as np

    from auditfl import active_backend
    from auditfl.training import make_synthetic_corpus

    wl = WORKLOADS[workload]
    make_synthetic_corpus(data_dir, seed, n_train=wl["n_train"],
                          n_test=wl["n_test"], side=wl["side"])
    blas = {k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "OMP_PROC_BIND"}
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "backend": active_backend(),
        "blas_threads_env": blas,
    }


def cmd_run(data_dir: str, workload: str, seed: int, ledger_path: str,
            spans_path=None) -> dict:
    from auditfl import config, protocol, training

    tracer = start_tracing(spans_path)
    # Set-up ends when the last of preprocess and Ledger.create returns;
    # round 1 starts right after. One call each per run, so no per-round cost.
    setup_end = {}

    def mark_end(key):
        def make(fn):
            def marked(*args, **kwargs):
                out = fn(*args, **kwargs)
                setup_end[key] = perf_counter()
                return out
            return marked
        return make

    tracing.patch("auditfl.protocol", "preprocess", mark_end("preprocess"))
    tracing.patch("auditfl.ledger", "Ledger.create", mark_end("ledger"))

    wl = WORKLOADS[workload]
    cfg = config.RunConfig(
        participants=wl["participants"],
        rounds=wl["rounds"],
        hidden=wl["hidden"],
        master_seed=seed,
        malicious=config.parse_malicious(wl["malicious"]),
        clipping=wl["clipping"],
        pretrain_steps=wl["pretrain_steps"],
    )
    config.validate(cfg)
    paths = [os.path.join(data_dir, name) for name in IDX]
    phases = {}
    try:
        if tracer:
            tracer.phase = "load"
        t0 = perf_counter()
        train = training.load_idx(paths[0], paths[1])
        test = training.load_idx(paths[2], paths[3])
        if tracer:
            tracer.phase = "run"
        t1 = perf_counter()
        phases["load"] = t1 - t0
        result = protocol.run_training(cfg, train, test, ledger_path, True, True)
        t2 = perf_counter()
        phases["run"] = t2 - t1
        pre_round_s = max(setup_end.values()) - t1
        rss = peak_rss_mb()
        record = result.record
        published = {
            "vectors": sum(len(r.local_detect) + len(r.local_agg)
                           + len(r.server_detect) + 1 for r in record.rounds) + 1,
            # one detection and one aggregation signature per entry, plus w0's
            "signatures": sum(len(r.local_detect) + len(r.local_agg)
                              for r in record.rounds) + 1,
        }
        accuracy = float(result.metrics[-1]["test_accuracy"])
        reported_record_bytes = result.timing.get("record_bytes")
        del result, record
        if tracer:
            tracer.phase = "fedavg"
        # One FedAvg run takes a tenth of a second or so; a fixed number of
        # them gives the time more samples and keeps span counts exact.
        fedavg = []
        for _ in range(wl["fedavg_runs"]):
            t3 = perf_counter()
            protocol.run_training(cfg, train, test, None, False, False)
            fedavg.append(perf_counter() - t3)
        phases["fedavg"] = sum(fedavg)
    finally:
        if tracer:
            tracer.dump(spans_path)
    return {
        "phase_s": phases,
        "fedavg_runs_s": fedavg,
        "pre_round_s": pre_round_s,
        "run_peak_rss_mb": rss,
        "final_test_accuracy": accuracy,
        "reported_record_bytes": reported_record_bytes,
        "published": published,
    }


def cmd_audit(ledger_path: str, tampered_path: str, spans_path=None) -> dict:
    from auditfl import auditor

    tracer = start_tracing(spans_path)
    try:
        if tracer:
            tracer.phase = "audit"
        t0 = perf_counter()
        honest = auditor.full_audit(ledger_path)
        audit_s = perf_counter() - t0
        rss = peak_rss_mb()
        if tracer:
            tracer.enabled = False
        tampered = auditor.full_audit(tampered_path)
    finally:
        if tracer:
            tracer.dump(spans_path)
    return {
        "phase_s": {"audit": audit_s},
        "audit_peak_rss_mb": rss,
        "honest_ok": bool(honest.ok),
        "honest_failure": honest.failure,
        "tampered_ok": bool(tampered.ok),
    }


def main(argv: list[str]) -> int:
    mode, *rest = argv
    if mode == "corpus":
        out = cmd_corpus(rest[0], rest[1], int(rest[2]))
    elif mode == "run":
        out = cmd_run(rest[0], rest[1], int(rest[2]), rest[3], *rest[4:])
    elif mode == "audit":
        out = cmd_audit(rest[0], rest[1], *rest[2:])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
