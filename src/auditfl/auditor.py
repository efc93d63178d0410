"""Independent audit of a published training record.

The auditor sees only the ledger bytes: the genesis payload (task, key
roster, signed initial model) and the training record. It reads the file
once, front to back, and checks each vector where the ledger stream hands
it out, in file order, keeping only what a later check needs: a
participant's detection mask is held until the server's mask for it is
read, and dotted with it once; each published aggregation mask is hashed
and added to a running sum; the signatures are verified once the round's
aggregation tables are read; the benign set is re-derived from the masked
detection products, each divided exactly by its l_i, the masked
aggregation replayed from the sum and the server aggregate, and the
round's learning-rate step added to a running sum of the steps. So the
audit never holds a round. The masked model comes last: added to the sum
of the steps, it telescopes to the recovered initial model, which is
checked against the server's signature. No secret (seed, mask, key,
gradient) is ever consulted; this module must not import the protocol,
randomness, or training machinery.

All checks are exact integer equalities; there are no tolerances anywhere.
Every failed check raises AuditFailure, and the report names the first
defect in file order: after it the rest of the file is only read and
hashed, so a broken chain further on still wins (see `full_audit`).
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import crypto
from .fixedpoint import (
    Encoded,
    FixedPointOverflowError,
    FpVector,
    dot,
    floor_div,
    scale_by_dyadic,
    sign_indicator,
)
from .ledger import Ledger, LedgerError
from .records import (
    GenesisPayload,
    RecordFormatError,
    RoundReader,
    TrainingRecordReader,
    submission_message,
    vector_digest,
)


class AuditFailure(Exception):
    """A check failed; message carries the stage and location."""

    def __init__(self, stage: str, message: str):
        self.stage = stage
        super().__init__(message)


@dataclass
class RoundAudit:
    """What the audit derived for one round that passed every check."""

    r: int
    present_ids: tuple[int, ...]
    detection_positive: tuple[int, ...]  # sign-test positives of the masked products
    published_benign: tuple[int, ...]
    ranking: tuple[int, ...]  # ids by deflated inner product, descending


@dataclass
class AuditReport:
    """Aggregated verdict; accepts iff every sub-check accepted."""

    ok: bool
    failure_stage: str | None = None
    failure: str | None = None
    n_records: int = 0
    rounds: list[RoundAudit] = field(default_factory=list)

    def reject(self, failure: AuditFailure) -> None:
        self.ok, self.failure_stage, self.failure = False, failure.stage, str(failure)

    def to_json(self) -> str:
        return json.dumps(
            {
                "verdict": "accept" if self.ok else "reject",
                "failure_stage": self.failure_stage,
                "failure": self.failure,
                "n_training_records": self.n_records,
                "rounds": [
                    {
                        "round": ra.r,
                        "participants": list(ra.present_ids),
                        "detection_positive": list(ra.detection_positive),
                        "published_benign": list(ra.published_benign),
                        "deflated_ranking": list(ra.ranking),
                    }
                    for ra in self.rounds
                ],
            },
            indent=2,
        )


def _check_geometry(vec: Encoded, genesis: GenesisPayload, where: str) -> None:
    """A published vector must have the genesis dimension and scale."""
    if vec.dim != genesis.dim or vec.scale != genesis.scale:
        raise AuditFailure(
            "structure",
            f"{where} has dim {vec.dim}, scale {vec.scale}; genesis "
            f"declares dim {genesis.dim}, scale {genesis.scale}",
        )


def _decode(vec: Encoded, where: str) -> FpVector:
    """A published vector's raws; a width that is not the least one is a
    `record-format` rejection, like every other defect of the encoding."""
    try:
        return FpVector.decode(vec)
    except ValueError as e:
        raise AuditFailure("record-format", f"{where}: {e}") from None


def roster_keys(genesis: GenesisPayload) -> dict:
    """Each roster id's verification key, parsed once for the whole audit;
    None for a key that does not parse, under which nothing verifies."""
    return {pid: crypto.public_key(pk) for pid, (pk, _) in genesis.roster.items()}


def audit_detection(mg1: Encoded, mgS1: Encoded, r: int, pid: int) -> int:
    """Participant pid's masked inner product in round r,
    <mg1_i, mgS1_i> == l_i * <g_i, g_S>, from its detection mask and the
    server's, each sign-extended for it."""
    return dot(
        _decode(mg1, f"round {r}: detection mask of participant {pid}"),
        _decode(mgS1, f"round {r}: server detection mask for {pid}"),
    )


def audit_aggregate(
    benign_sum: FpVector | None, count: int, server_agg: Encoded, r: int
) -> FpVector:
    """Replay round r's masked aggregation: the server aggregate plus the
    sum of the `count` published aggregation masks (None if there are
    none), floor-divided by count + 1."""
    total = _decode(server_agg, f"round {r}: server aggregate")
    if benign_sum is not None:
        total = benign_sum + total
    return floor_div(total, count + 1)


def deflated_products(
    products: dict[int, int], genesis: GenesisPayload, r: int
) -> dict[int, int]:
    """Round r's masked inner products scaled back to a common basis by
    rt_i = 1/l_i, each l_i from the genesis roster. The division is exact:
    <mg1_i, mgS1_i> = l_i * <g_i, g_S>, so the quotient is the plaintext
    product the server ranked, and a product that l_i does not divide is
    a `benign-set` rejection."""
    deflated = {}
    for pid, p in products.items():
        l = genesis.roster[pid][1]
        deflated[pid], rest = divmod(p, l)
        if rest:
            raise AuditFailure(
                "benign-set",
                f"round {r}: masked detection product of participant {pid} "
                f"is not a multiple of its deflation factor l = {l}",
            )
    return deflated


def ranking_of(products: dict[int, int]) -> tuple[int, ...]:
    """Ids by descending deflated product; ties break by ascending id."""
    return tuple(pid for pid, _ in sorted(products.items(), key=lambda kv: (-kv[1], kv[0])))


def benign_set(
    products: dict[int, int], clipping: bool, clip_factor: int
) -> tuple[set[int], set[int]]:
    """(positive, benign): the ids whose inner product is positive, and of
    those the benign ones: all of them, or with clipping only those whose
    product is at most clip_factor times the lower median over the
    positives. The lower median keeps the clip rule exact.

    The one benign-set rule: the server applies it to plaintext inner
    products, the audit to deflated masked ones, which equal them.
    """
    positive = {pid for pid, p in products.items() if sign_indicator(p) == 1}
    if not clipping or not positive:
        return positive, positive
    vals = sorted(products[pid] for pid in positive)
    threshold = clip_factor * vals[(len(vals) - 1) // 2]
    return positive, {pid for pid in positive if products[pid] <= threshold}


def audit_trace(genesis: GenesisPayload, recovered: FpVector) -> None:
    """Check the recovered initial model against the genesis signature.

    The recovery telescopes exactly: the floored learning-rate steps of
    every replayed masked aggregate plus the masked model equal the initial
    model the server signed, bit for bit, iff the record is honest.
    """
    if not crypto.verify(
        crypto.public_key(genesis.server_pk),
        [recovered.encode().data],
        genesis.w0_signature,
    ):
        raise AuditFailure(
            "model-recovery",
            "recovered initial model does not match the signed initial model",
        )


def _check_metadata(record: TrainingRecordReader, genesis: GenesisPayload) -> None:
    if record.dim != genesis.dim or record.scale != genesis.scale:
        raise AuditFailure(
            "metadata",
            f"record geometry (dim {record.dim}, scale {record.scale}) "
            f"differs from genesis (dim {genesis.dim}, scale {genesis.scale})",
        )
    if (record.eta_num, record.eta_exp) != (genesis.eta_num, genesis.eta_exp):
        raise AuditFailure("metadata", "record learning rate differs from genesis")
    if record.n_rounds != genesis.rounds:
        raise AuditFailure(
            "metadata",
            f"record holds {record.n_rounds} rounds, task declared "
            f"{genesis.rounds}",
        )
    if record.n_participants != len(genesis.roster):
        raise AuditFailure(
            "metadata",
            f"record declares {record.n_participants} participants, "
            f"genesis roster has {len(genesis.roster)}",
        )


def _verify_submissions(
    r: int, detect: dict, mg2_digests: dict, stored: dict, keys: dict
) -> None:
    """Round r's submission signatures, once its aggregation tables are
    read: each participant in `detect` (id -> (mg1, signature)) needs
    exactly one of a published aggregation mask (its digest in
    `mg2_digests`) and a stored digest (`stored`), and its one signature,
    over the digest of its detection mask and that of its aggregation mask,
    must verify under its key in `keys` (`roster_keys`)."""
    present = list(detect)
    # an id in both tables appears twice here, an id in neither not at all
    if sorted([*mg2_digests, *stored]) != present:
        raise AuditFailure(
            "structure",
            f"round {r}: aggregation masks cover {list(mg2_digests)} and "
            f"aggregation digests {list(stored)}; each of the "
            f"participants {present} needs exactly one",
        )
    for pid, (mg1, sig) in detect.items():
        mg2_digest = mg2_digests[pid] if pid in mg2_digests else stored[pid]
        message = submission_message(r, pid, vector_digest(mg1), mg2_digest)
        if not crypto.verify(keys[pid], message, sig):
            raise AuditFailure(
                "signature",
                f"round {r}: submission signature of participant {pid} "
                f"does not verify",
            )


def _audit_round(
    rnd: RoundReader, genesis: GenesisPayload, keys: dict
) -> tuple[RoundAudit, FpVector]:
    """Every check of one round, each run as soon as the parse has read
    what it needs, in file order (see the module docstring); the round's
    RoundAudit and its learning-rate step."""
    r = rnd.r
    local_detect, local_agg, agg_digests, server_detect = rnd.tables()
    detect = {}  # id -> (mg1, signature)
    for pid, (mg1, sig) in local_detect:
        _check_geometry(mg1, genesis, f"round {r}: detection mask of participant {pid}")
        if pid not in genesis.roster:
            raise AuditFailure("structure", f"round {r}: unknown participant id {pid}")
        detect[pid] = mg1, sig
    present = list(detect)
    mg2_digests, benign_sum = {}, None
    for pid, mg2 in local_agg:
        where = f"round {r}: aggregation mask of participant {pid}"
        _check_geometry(mg2, genesis, where)
        mg2_digests[pid] = vector_digest(mg2)
        vec = _decode(mg2, where)
        benign_sum = vec if benign_sum is None else benign_sum + vec
    _verify_submissions(r, detect, mg2_digests, dict(agg_digests), keys)
    products, server_ids = {}, []
    for pid, mgS1 in server_detect:
        _check_geometry(mgS1, genesis, f"round {r}: server detection mask for {pid}")
        server_ids.append(pid)
        if pid in detect:
            products[pid] = audit_detection(detect.pop(pid)[0], mgS1, r, pid)
    if server_ids != present:
        raise AuditFailure(
            "structure",
            f"round {r}: server detection masks cover {server_ids} "
            f"but participants are {present}",
        )
    deflated = deflated_products(products, genesis, r)
    positive, derived = benign_set(deflated, genesis.clipping, genesis.clip_factor)
    published = list(mg2_digests)
    if set(published) != derived:
        raise AuditFailure(
            "benign-set",
            f"round {r}: published benign set {published} "
            f"inconsistent with derived {sorted(derived)}",
        )
    server_agg = rnd.server_agg()
    _check_geometry(server_agg, genesis, f"round {r}: server aggregate")
    aggregate = audit_aggregate(benign_sum, len(published), server_agg, r)
    audit = RoundAudit(
        r=r,
        present_ids=tuple(present),
        detection_positive=tuple(sorted(positive)),
        published_benign=tuple(published),
        ranking=ranking_of(deflated),
    )
    return audit, scale_by_dyadic(aggregate, genesis.eta_num, genesis.eta_exp)


def _read_genesis(payload) -> GenesisPayload:
    try:
        return GenesisPayload.decode(payload)
    except RecordFormatError as e:
        raise AuditFailure("genesis", f"genesis payload does not parse: {e}") from None


def audit_record(data, genesis: GenesisPayload, report: AuditReport) -> None:
    """All protocol checks of one training record against its genesis, in
    one front-to-back pass over `data` (a ledger payload stream or a buffer).

    Each round is checked as it is parsed (`_audit_round`), and its
    RoundAudit appended to `report.rounds` once it has passed. The first
    defect read raises AuditFailure, and nothing after it is parsed.
    `report.n_records` is 1 once the record's header parses; a record that
    does not parse counts none, and a masked model of the wrong geometry or
    width lists no rounds (README, "Audit report").
    """
    where = "block 1"
    try:
        record = TrainingRecordReader(data)
        report.n_records = 1
        _check_metadata(record, genesis)
        keys = roster_keys(genesis)
        steps = None  # the sum of the replayed rounds' learning-rate steps
        for rnd in record.rounds():
            where = f"round {rnd.r}"
            audit, step = _audit_round(rnd, genesis, keys)
            steps = step if steps is None else steps + step
            report.rounds.append(audit)
        where = "masked model"
        masked_model = record.masked_model()
        try:
            _check_geometry(masked_model, genesis, where)
            w = _decode(masked_model, where)
        except AuditFailure:
            report.rounds = []
            raise
        audit_trace(genesis, w if steps is None else steps + w)
    except RecordFormatError as e:
        report.n_records, report.rounds = 0, []
        raise AuditFailure("record-format", f"block 1: {e}") from None
    except FixedPointOverflowError as e:
        # the unsigned server aggregate can hold any int64, so replaying it
        # can leave the raw range; no honest record does
        raise AuditFailure(
            "structure", f"{where}: replay of the record overflows int64: {e}"
        ) from None


def full_audit(path) -> AuditReport:
    """Verify the chain and its one training record in one pass over the
    file; pure in the bytes.

    A ledger holds the genesis and exactly one training record; any other
    block count is a `metadata` rejection. The report names the first
    defect in file order, with one exception: a block's digest is known
    only once the stream has passed it, so a broken chain anywhere wins.
    After the first defect the rest of the file is only read and hashed.
    """
    report = AuditReport(ok=True)
    blocks = 0
    try:
        for payload in Ledger.open(path):
            blocks += 1
            if not report.ok or blocks > 2:
                continue  # only drained: the stream still reads and hashes it
            try:
                if blocks == 1:
                    genesis = _read_genesis(payload)
                else:
                    audit_record(payload, genesis, report)
            except AuditFailure as e:
                report.reject(e)
    except LedgerError as e:
        return AuditReport(ok=False, failure_stage="ledger", failure=str(e))
    if report.ok and blocks != 2:
        report.n_records, report.rounds = 0, []
        report.reject(AuditFailure(
            "metadata",
            f"ledger holds {blocks - 1} blocks after the genesis, expected 1 training record",
        ))
    return report
