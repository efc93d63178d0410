"""Shared helpers for the test suite: tiny datasets, runs, tamper tools."""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from auditfl import RunConfig, protocol, run_training
from auditfl.auditor import audit_aggregate, audit_detection
from auditfl.crypto import sha256
from auditfl.ledger import _HEADER, LEDGER_MAGIC, ZERO_DIGEST, Ledger
from auditfl.fixedpoint import Encoded, FpVector, dot, hadamard
from auditfl.randomness import MASK_BITS, bounded_int_vector, derive_seed, prg
from auditfl.records import GenesisPayload, RoundRecord, TrainingRecord, vector_digest
from auditfl.training import AdversarySpec, Dataset


def make_dataset(seed: int, n: int, features: int, classes: int) -> Dataset:
    """Small separable-with-noise classification set, fully deterministic."""
    words = prg(derive_seed(seed, "test-feat"), n * features)
    noise = (words % np.uint64(1000)).astype(np.float32).reshape(n, features) / 999.0
    y = (prg(derive_seed(seed, "test-lab"), n) % np.uint64(classes)).astype(np.int64)
    # per-class feature templates with small noise: honest batch gradients
    # then correlate strongly across shards, which the sign-based detection
    # tests rely on
    tmpl_words = prg(derive_seed(seed, "test-templates"), classes * features)
    templates = (tmpl_words % np.uint64(1000)).astype(np.float32) / 999.0
    templates = templates.reshape(classes, features)
    X = np.clip(0.85 * templates[y] + 0.15 * noise, 0.0, 1.0)
    return Dataset(features=X, labels=y, n_classes=classes)


def small_config(**overrides) -> RunConfig:
    base = dict(
        participants=3,
        rounds=2,
        eta="0.125",
        batch_size=64,
        master_seed=11,
        pretrain_steps=0,
        metrics_every=0,
    )
    base.update(overrides)
    return RunConfig(**base)


@dataclasses.dataclass
class RoundView:
    """What a test sees of one round through the round's seams.

    `benign` is what `Server.run_round` returned, `rejected_sigs` the ids
    whose submission `Server.verify_submission` refused, and `g_s`,
    `gradients` (the plaintext g_i by id) and `ag` what
    `protocol.robust_aggregate` was given and returned. `dots` are the
    exact inner products <g_s, g_i>, computed here with `fixedpoint.dot`.
    A round without detection has no `g_s`, `gradients`, `ag` or `dots`.
    """

    r: int
    benign: list[int] = dataclasses.field(default_factory=list)
    rejected_sigs: list[int] = dataclasses.field(default_factory=list)
    dots: dict[int, int] = dataclasses.field(default_factory=dict)
    gradients: dict[int, FpVector] = dataclasses.field(default_factory=dict)
    ag: FpVector | None = None
    g_s: FpVector | None = None


@contextlib.contextmanager
def observed_rounds():
    """Wrap the round's seams; yields a list that receives one RoundView
    per call of Server.run_round, in order."""
    run_round = protocol.Server.run_round
    verify_submission = protocol.Server.verify_submission
    aggregate = protocol.robust_aggregate
    views: list[RoundView] = []

    def observed_round(self, r, *a, **kw):
        views.append(RoundView(r))
        record, benign, train_loss = run_round(self, r, *a, **kw)
        views[-1].benign = list(benign)
        return record, benign, train_loss

    def observed_verify(self, sub, r, *forms):
        verified = verify_submission(self, sub, r, *forms)
        if verified is None:
            views[-1].rejected_sigs.append(sub.id)
        return verified

    def observed_aggregate(g_s, gradients, *a, **kw):
        ag, benign = aggregate(g_s, gradients, *a, **kw)
        view = views[-1]
        view.g_s, view.ag, view.gradients = g_s, ag, dict(gradients)
        view.dots = {i: dot(g_s, gradients[i]) for i in sorted(gradients)}
        return ag, benign

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol.Server, "run_round", observed_round)
        mp.setattr(protocol.Server, "verify_submission", observed_verify)
        mp.setattr(protocol, "robust_aggregate", observed_aggregate)
        yield views


def run_with_internals(*args, **kwargs):
    """run_training(*args, **kwargs) and a RoundView of each of its rounds."""
    with observed_rounds() as views:
        result = run_training(*args, **kwargs)
    return result, views


def zero_share_oracle(zero_seed: int, r: int, dim: int, scale: int) -> FpVector:
    """A participant's round-r zero share, drawn from its seed as the
    protocol specifies, independently of protocol.masked_forms."""
    return FpVector(bounded_int_vector(derive_seed(zero_seed, "zero", r), dim), scale)


def sign_oracle(mask_seed: int, r: int, dim: int) -> np.ndarray:
    """A participant's round-r +-1 sign stream, drawn from its seed as the
    protocol specifies, independently of randomness.sign_bits: entry k is -1
    where bit k % 64 of stream word k // 64 is set."""
    words = [int(w) for w in prg(derive_seed(mask_seed, "prvg", r), -(-dim // 64))]
    return np.array([1 - 2 * ((words[k // 64] >> (k % 64)) & 1) for k in range(dim)],
                    dtype=np.int64)


def masked_forms_oracle(ps, g: FpVector, r: int) -> tuple:
    """Participant ps's round-r masked forms of g alone, (signs, mg1, zv,
    mg2), from the oracles and the one-vector checked kernels:
    mg1 = g (.) (signs * rn_i) and mg2 = zv + g."""
    signs = sign_oracle(ps.mask_seed, r, g.dim)
    zv = zero_share_oracle(ps.zero_seed, r, g.dim, g.scale)
    return signs, hadamard(g, signs * ps.rn), zv, zv + g


def model_mask_oracle(seed: int, r: int, dim: int, scale: int, eta_exp: int) -> FpVector:
    """The server's round-r model-mask quotient m_r, drawn from its seed as
    the protocol specifies, independently of randomness.model_mask_share:
    a uniform vector on the lattice of multiples of 2^eta_exp."""
    seed_r = derive_seed(seed, "model-mask", r - 1)
    q = bounded_int_vector(seed_r, dim, MASK_BITS - eta_exp)
    return FpVector(q * (1 << eta_exp), scale)


def run_published(tmp_path: Path, cfg: RunConfig, seed: int = 5,
                  n: int = 600, features: int = 16, classes: int = 4):
    """Run the protocol on a fresh tiny dataset and publish to a tmp ledger.

    Returns (RunResult, a RoundView of each round, ledger path).
    """
    tmp_path.mkdir(parents=True, exist_ok=True)
    train = make_dataset(seed, n, features, classes)
    test = make_dataset(seed + 1, max(60, n // 4), features, classes)
    ledger_path = tmp_path / f"ledger_{seed}_{cfg.master_seed}.bin"
    if ledger_path.exists():
        ledger_path.unlink()
    result, internals = run_with_internals(cfg, train, test, ledger_path=ledger_path)
    return result, internals, ledger_path


def recover_gradients(path: Path) -> dict[tuple[int, int], np.ndarray]:
    """What a third party reads off a ledger, and nothing else: the
    magnitudes |g_i| of every published participant gradient, as raws,
    keyed by (round, id).

    This is step 1 of ROADMAP item 9. `mg1_i = signs * rn_i * g_i`, with a
    +-1 sign stream and one integer `rn_i` per participant for the whole
    run, so the gcd of the raws of all of i's `mg1` vectors is `|rn_i|`
    (times the gcd of its gradients' raws, which is 1 in practice), and
    `|g_i| = |mg1_i| / |rn_i|`.
    """
    _, record, _ = load_chain(path)
    mg1 = {
        (rec.r, pid): np.abs(FpVector.decode(vec).raw)
        for rec in record.rounds
        for pid, (vec, _) in rec.local_detect.items()
    }
    rn: dict[int, int] = {}
    for (_, pid), a in mg1.items():
        rn[pid] = math.gcd(rn.get(pid, 0), int(np.gcd.reduce(a)))
    return {key: a // rn[key[1]] for key, a in mg1.items()}


# ---------------------------------------------------------------------------
# Tamper tools: a malicious server rewrites record contents and republishes a
# fresh, internally consistent chain; the audit must still reject.
# ---------------------------------------------------------------------------


def rebuild_ledger(path: Path, genesis_payload: bytes, payloads: list[bytes]) -> None:
    path.unlink()
    led = Ledger.create(path, genesis_payload)
    for p in payloads:
        led.append(p)


def frame_ledger(payloads, timestamp: int = 0) -> bytes:
    """Ledger file bytes for the payloads, framed by hand as README's wire
    format says, with `timestamp` in every header. Links and checksums are
    recomputed; with timestamp 0 the bytes are those `Ledger` writes."""
    out, prev = bytearray(LEDGER_MAGIC), ZERO_DIGEST
    for height, payload in enumerate(payloads):
        header = _HEADER.pack(height, prev, sha256(payload), timestamp, len(payload))
        prev = sha256(header)
        out += struct.pack("<Q", len(header) + len(payload) + 32) + header + payload + prev
    return bytes(out)


def read_payloads(path: Path) -> list[bytes]:
    """Every block's payload, read whole through the ledger's stream."""
    return [payload.read(len(payload)) for payload in Ledger.open(path)]


def load_chain(path: Path) -> tuple[bytes, TrainingRecord, GenesisPayload]:
    genesis_bytes, record_bytes = read_payloads(path)[:2]
    record = TrainingRecord.decode(record_bytes)
    return genesis_bytes, record, GenesisPayload.decode(genesis_bytes)


def republish(path: Path, record: TrainingRecord) -> None:
    genesis_bytes = read_payloads(path)[0]
    rebuild_ledger(path, genesis_bytes, [b"".join(record.encode())])


def round_products(rec: RoundRecord) -> dict[int, int]:
    """The auditor's masked inner products of a decoded round, by id."""
    return {
        pid: audit_detection(mg1, rec.server_detect[pid], rec.r, pid)
        for pid, (mg1, _) in rec.local_detect.items()
    }


def replay_aggregate(rec: RoundRecord) -> FpVector:
    """The auditor's replay of a decoded round's masked aggregation."""
    masks = [FpVector.decode(rec.local_agg[pid]) for pid in sorted(rec.local_agg)]
    total = sum(masks[1:], masks[0]) if masks else None
    return audit_aggregate(total, len(masks), rec.server_agg, rec.r)


def _negate_entry(vec: Encoded, k: int) -> Encoded:
    """A published vector with raw k negated (0 becomes 1), re-encoded."""
    raw = FpVector.decode(vec).raw.copy()
    raw[k] = -raw[k] if raw[k] != 0 else 1
    return FpVector(raw, vec.scale).encode()


def _bump_entry(vec: Encoded, k: int, delta: int = 1) -> Encoded:
    """A published vector with `delta` added to raw k, re-encoded."""
    raw = FpVector.decode(vec).raw.copy()
    raw[k] = raw[k] + delta
    return FpVector(raw, vec.scale).encode()


def _replace_round(record: TrainingRecord, r_idx: int, rec: RoundRecord) -> TrainingRecord:
    rounds = list(record.rounds)
    rounds[r_idx] = rec
    return dataclasses.replace(record, rounds=tuple(rounds))


def tamper_flip_mg1(record: TrainingRecord, r_idx: int = 0) -> TrainingRecord:
    """Negate one entry of one participant's detection-mask vector."""
    rec = record.rounds[r_idx]
    pid = sorted(rec.local_detect)[0]
    vec, sig = rec.local_detect[pid]
    new_detect = dict(rec.local_detect)
    new_detect[pid] = (_negate_entry(vec, 0), sig)
    new_rec = dataclasses.replace(rec, local_detect=new_detect)
    rounds = list(record.rounds)
    rounds[r_idx] = new_rec
    return dataclasses.replace(record, rounds=tuple(rounds))


def tamper_drop_mg2(record: TrainingRecord) -> TrainingRecord:
    """Publish one benign participant of some round as not benign: its
    aggregation mask is replaced by that mask's digest, so its signature
    still verifies."""
    for r_idx, rec in enumerate(record.rounds):
        if rec.local_agg:
            pid = sorted(rec.local_agg)[0]
            new_agg = {k: v for k, v in rec.local_agg.items() if k != pid}
            digests = {**rec.agg_digests, pid: vector_digest(rec.local_agg[pid])}
            return _replace_round(
                record, r_idx, dataclasses.replace(rec, local_agg=new_agg, agg_digests=digests)
            )
    raise AssertionError("no round with a nonempty benign set to tamper")


def tamper_masked_model(record: TrainingRecord) -> TrainingRecord:
    """Perturb one raw of the masked final model by +1."""
    return dataclasses.replace(
        record, masked_model=_bump_entry(record.masked_model, 0)
    )


def tamper_server_mask_off_multiple(
    record: TrainingRecord, genesis: GenesisPayload
) -> tuple[TrainingRecord, int]:
    """Add 1 to one raw of a benign participant's server detection mask in
    round 1, where its detection mask's raw is positive and not a multiple
    of its l_i: the masked product grows by that raw, so its sign and the
    benign set stay, but l_i no longer divides it. The tampered record and
    the participant's id."""
    rec = record.rounds[0]
    pid = min(rec.local_agg)
    l = genesis.roster[pid][1]
    mg1 = FpVector.decode(rec.local_detect[pid][0]).raw
    k = next(k for k, v in enumerate(mg1) if v > 0 and v % l)
    server_detect = {**rec.server_detect, pid: _bump_entry(rec.server_detect[pid], k)}
    tampered = dataclasses.replace(rec, server_detect=server_detect)
    return _replace_round(record, 0, tampered), pid


def tamper_swap_signatures(record: TrainingRecord) -> TrainingRecord:
    """Swap the submission signatures of two participants in one round."""
    for r_idx, rec in enumerate(record.rounds):
        ids = sorted(rec.local_detect)
        if len(ids) >= 2:
            a, b = ids[0], ids[1]
            new_detect = dict(rec.local_detect)
            va, sa = new_detect[a]
            vb, sb = new_detect[b]
            new_detect[a] = (va, sb)
            new_detect[b] = (vb, sa)
            rounds = list(record.rounds)
            rounds[r_idx] = dataclasses.replace(rec, local_detect=new_detect)
            return dataclasses.replace(record, rounds=tuple(rounds))
    raise AssertionError("need two participants to swap signatures")


# A participant's entry in a round: its (mg1, signature) pair, and its mg2
# if it is benign, else the digest of its mg2.


def _entry(rec: RoundRecord, pid: int) -> tuple:
    return rec.local_detect[pid], rec.local_agg.get(pid), rec.agg_digests.get(pid)


def _with_entries(rec: RoundRecord, entries: dict) -> RoundRecord:
    """rec with the entry of each id in `entries` replaced."""
    detect, agg, digests = dict(rec.local_detect), dict(rec.local_agg), dict(rec.agg_digests)
    for pid, (pair, mg2, digest) in entries.items():
        detect[pid] = pair
        agg.pop(pid, None)
        digests.pop(pid, None)
        if mg2 is not None:
            agg[pid] = mg2
        else:
            digests[pid] = digest
    return dataclasses.replace(rec, local_detect=detect, local_agg=agg, agg_digests=digests)


def tamper_entry_to_other_round(record: TrainingRecord) -> TrainingRecord:
    """Copy a participant's round-1 entry, vectors and signature, over its
    entry in round 2."""
    first, second = record.rounds[0], record.rounds[1]
    pid = min(first.local_detect.keys() & second.local_detect.keys())
    return _replace_round(record, 1, _with_entries(second, {pid: _entry(first, pid)}))


def tamper_swap_entries(record: TrainingRecord) -> TrainingRecord:
    """Swap the whole entries of two participants in one round."""
    for r_idx, rec in enumerate(record.rounds):
        ids = sorted(rec.local_detect)
        if len(ids) >= 2:
            a, b = ids[0], ids[1]
            swapped = _with_entries(rec, {a: _entry(rec, b), b: _entry(rec, a)})
            return _replace_round(record, r_idx, swapped)
    raise AssertionError("need two participants to swap entries")


def tamper_mg2_digest(record: TrainingRecord) -> TrainingRecord:
    """Flip one bit of a non-benign participant's stored mg2 digest."""
    for r_idx, rec in enumerate(record.rounds):
        if rec.agg_digests:
            pid = min(rec.agg_digests)
            digest = bytes([rec.agg_digests[pid][0] ^ 1]) + rec.agg_digests[pid][1:]
            digests = {**rec.agg_digests, pid: digest}
            return _replace_round(
                record, r_idx, dataclasses.replace(rec, agg_digests=digests)
            )
    raise AssertionError("no round with a non-benign participant to tamper")


def tamper_mask_and_digest(record: TrainingRecord) -> TrainingRecord:
    """List a benign participant in the digest table too, with the true digest."""
    for r_idx, rec in enumerate(record.rounds):
        if rec.local_agg:
            pid = min(rec.local_agg)
            digests = {**rec.agg_digests, pid: vector_digest(rec.local_agg[pid])}
            return _replace_round(
                record, r_idx, dataclasses.replace(rec, agg_digests=digests)
            )
    raise AssertionError("no round with a benign participant to tamper")


def tamper_in_neither_table(record: TrainingRecord) -> TrainingRecord:
    """Remove a participant's aggregation mask or digest, keeping its mg1."""
    rec = record.rounds[0]
    pid = min(rec.local_detect)
    agg = {k: v for k, v in rec.local_agg.items() if k != pid}
    digests = {k: v for k, v in rec.agg_digests.items() if k != pid}
    return _replace_round(
        record, 0, dataclasses.replace(rec, local_agg=agg, agg_digests=digests)
    )


def tamper_ledger_byte(path: Path) -> None:
    """Flip one payload byte in place; the hash chain must catch this."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


# ---------------------------------------------------------------------------
# Adversaries inside the round, built by patching the round's own seams.
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def server_skipping_benign(r: int, pid: int):
    """A misbehaving server: in round r it leaves participant pid's gradient
    out of the aggregate but still publishes pid as benign.

    Counts calls to robust_aggregate, which runs once per round with
    detection on.
    """
    honest = protocol.robust_aggregate
    rounds = itertools.count(1)

    def lying(g_s, gradients, clipping=False, clip_factor=3):
        ag, benign = honest(g_s, gradients, clipping, clip_factor)
        if next(rounds) == r and pid in benign:
            kept = [gradients[i] for i in benign if i != pid]
            ag = protocol.floor_average(g_s, kept)
        return ag, benign

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "robust_aggregate", lying)
        yield


@contextlib.contextmanager
def server_dropping_in_threshold():
    """A misbehaving server under clipping: in the first round with a
    non-empty benign set it drops the lowest-id benign participant from both
    the benign set and the aggregate, as if that participant had been clipped.

    Yields a list that receives the (round, id) it dropped.
    """
    honest = protocol.robust_aggregate
    rounds = itertools.count(1)
    dropped: list[tuple[int, int]] = []

    def lying(g_s, gradients, clipping=False, clip_factor=3):
        ag, benign = honest(g_s, gradients, clipping, clip_factor)
        r = next(rounds)
        if benign and not dropped:
            dropped.append((r, benign[0]))
            benign = benign[1:]
            ag = protocol.floor_average(g_s, [gradients[i] for i in benign])
        return ag, benign

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol, "robust_aggregate", lying)
        yield dropped


@contextlib.contextmanager
def stale_mask_signer(pid: int, r: int):
    """Participant pid signs its round-r gradient with its round-(r-1) masks.

    `Participant.compute_submission` signs each member's rows of its
    group's masked forms; for pid in round r it masks the gradient again as
    a group of one in round r-1 and signs that."""
    honest = protocol.Participant.compute_submission

    def stale(self, g, loss, round_no, *forms):
        if self.secrets.id == pid and round_no == r:
            return protocol.sign_group([self], [g], [loss], r - 1)[0]
        return honest(self, g, loss, round_no, *forms)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocol.Participant, "compute_submission", stale)
        yield


def first_round_with_benign(internals) -> tuple[int, int]:
    """(round, participant id) of the first benign participant of a run."""
    for info in internals:
        if info.benign:
            return info.r, info.benign[0]
    raise AssertionError("run produced no benign participants to skip")


def sign_flip_spec() -> AdversarySpec:
    return AdversarySpec("sign_flip")
