"""Span recorder that wraps auditfl's public callables from outside the package.

Nothing under ``src/`` knows about this module. `install` replaces each
target callable with a wrapper in every module namespace that binds it
(``from .x import y`` copies a reference, so the defining module alone is not
enough). A wrapper records one span per call -- name, start, end, parent,
phase -- plus an optional count of work units (bytes, words). Spans stay in
memory until `Tracer.dump` writes them as JSON lines.

A target that no longer exists is recorded as absent instead of raising, so
the benchmark keeps running when a later version of the package deletes or
renames a layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import os
from time import perf_counter_ns


# Unit counters: (args, kwargs, result) -> int. A class method's wrapper
# sees the class as args[0], so its first real argument is args[1].


def _len_result(args, kwargs, result) -> int:
    return len(result)


def _len_arg0(args, kwargs, result) -> int:
    return len(args[0])


def _len_arg1(args, kwargs, result) -> int:
    return len(args[1])


def _prg_words(args, kwargs, result) -> int:
    return int(args[1]) if len(args) > 1 else int(kwargs["count"])


def _file_size_arg1(args, kwargs, result) -> int:
    return os.path.getsize(args[1])


def _verify_false(args, kwargs, result) -> int:
    return 0 if result else 1


# (span name, module, attribute path, how to count units or None,
#  extra module namespaces that bind the same callable by name)
TARGETS = [
    ("training.local_gradient", "auditfl.training", "local_gradient", None, ["auditfl.protocol"]),
    ("training.evaluate", "auditfl.training", "evaluate", None, ["auditfl.protocol"]),
    ("training.partition", "auditfl.training", "partition", None, []),
    ("training.load_idx", "auditfl.training", "load_idx", None, []),
    ("randomness.prg", "auditfl.randomness", "prg", _prg_words, ["auditfl.protocol", "auditfl.training"]),
    ("randomness.prvg", "auditfl.randomness", "prvg", None, ["auditfl.protocol"]),
    ("randomness.model_mask", "auditfl.randomness", "gen_model_mask_shares", None, ["auditfl.protocol"]),
    ("fixedpoint.hadamard", "auditfl.fixedpoint", "hadamard", None, ["auditfl.protocol"]),
    ("fixedpoint.dot.protocol", "auditfl.protocol", "dot", None, []),
    ("fixedpoint.dot.auditor", "auditfl.auditor", "dot", None, []),
    ("fixedpoint.add", "auditfl.fixedpoint", "FpVector.__add__", None, []),
    ("fixedpoint.encode", "auditfl.fixedpoint", "FpVector.encode", _len_result, []),
    ("fixedpoint.decode", "auditfl.fixedpoint", "FpVector.decode", _len_arg1, []),
    ("crypto.keygen", "auditfl.crypto", "keygen", None, []),
    ("crypto.sign", "auditfl.crypto", "sign", None, []),
    ("crypto.verify", "auditfl.crypto", "verify", _verify_false, []),
    ("crypto.sha256", "auditfl.crypto", "sha256", _len_arg0, ["auditfl.ledger", "auditfl.records"]),
    ("records.round_encode", "auditfl.records", "RoundRecord.encode", _len_result, []),
    ("records.round_decode", "auditfl.records", "RoundRecord.decode", None, []),
    ("records.training_encode", "auditfl.records", "TrainingRecord.encode", _len_result, []),
    ("records.training_decode", "auditfl.records", "TrainingRecord.decode", _len_arg1, []),
    ("records.genesis_decode", "auditfl.records", "GenesisPayload.decode", None, []),
    ("ledger.create", "auditfl.ledger", "Ledger.create", None, []),
    ("ledger.append", "auditfl.ledger", "Ledger.append", _len_arg1, []),
    ("ledger.open", "auditfl.ledger", "Ledger.open", _file_size_arg1, []),
    ("ledger.verify_chain", "auditfl.ledger", "Ledger.verify_chain", None, []),
    ("protocol.pretrain", "auditfl.protocol", "pretrain", None, []),
    ("protocol.preprocess", "auditfl.protocol", "preprocess", None, []),
    ("protocol.compute_submission", "auditfl.protocol", "Participant.compute_submission", None, []),
    ("protocol.verify_submission", "auditfl.protocol", "Server.verify_submission", None, []),
    ("protocol.run_round", "auditfl.protocol", "Server.run_round", None, []),
    ("protocol.robust_aggregate", "auditfl.protocol", "robust_aggregate", None, []),
    ("protocol.finalize", "auditfl.protocol", "Server.finalize", None, []),
    ("protocol.run_training", "auditfl.protocol", "run_training", None, []),
    ("auditor.audit_detection", "auditfl.auditor", "audit_detection", None, []),
    ("auditor.audit_aggregate", "auditfl.auditor", "audit_aggregate", None, []),
    ("auditor.deflated_products", "auditfl.auditor", "deflated_products", None, []),
    ("auditor.audit_trace", "auditfl.auditor", "audit_trace", None, []),
    ("auditor.audit_record", "auditfl.auditor", "audit_record", None, []),
    ("auditor.full_audit", "auditfl.auditor", "full_audit", None, []),
]


class Tracer:
    """In-memory span log; one per process."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, phase, start, end, units)
        self.stack: list[int] = []
        self.phase = ""
        self.enabled = True
        self.absent: list[str] = []

    def wrap(self, name: str, fn, units=None):
        spans = self.spans
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)  # reserve the id so children sort after us
            stack.append(sid)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                spans[sid] = (sid, parent, name, self.phase, t0, t1, 0)
            if units is not None:
                spans[sid] = spans[sid][:6] + (units(args, kwargs, result),)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for sid, parent, name, phase, t0, t1, units in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "phase": phase, "start_ns": t0, "end_ns": t1,
                                    "units": units}) + "\n")
            for name in self.absent:
                f.write(json.dumps({"absent": name}) + "\n")


def _resolve(module, path: str):
    """(owner, attribute name, raw attribute) or None if any part is missing."""
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    attr = parts[-1]
    raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if raw is None:
        return None
    return owner, attr, raw


def patch(modname: str, path: str, make, aliases=()) -> bool:
    """Replace callable `path` of `modname` by make(callable); False if missing.

    Class and static methods keep their kind. Each alias module whose
    attribute of the same name is the same object gets the replacement too.
    """
    try:
        module = importlib.import_module(modname)
    except ImportError:
        return False
    found = _resolve(module, path)
    if found is None:
        return False
    owner, attr, raw = found
    if isinstance(raw, (classmethod, staticmethod)):
        wrapped = type(raw)(make(raw.__func__))
    else:
        wrapped = make(raw)
    setattr(owner, attr, wrapped)
    for alias in aliases:
        try:
            other = importlib.import_module(alias)
        except ImportError:
            continue
        if getattr(other, attr, None) is raw:
            setattr(other, attr, wrapped)
    return True


def install(tracer: Tracer) -> None:
    """Wrap every target in TARGETS; missing targets go to tracer.absent."""
    for name, modname, path, units, aliases in TARGETS:
        make = functools.partial(tracer.wrap, name, units=units)
        if not patch(modname, path, make, aliases):
            tracer.absent.append(name)
