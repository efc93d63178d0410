"""The masked-gradient training protocol: preprocessing, rounds, publication.

One process plays the central server and every participant; messages are
plain function arguments with a per-round barrier (the loop). Participants
send plaintext gradients, the encoded bytes of their two masked forms and
one signature over the round, their id and the digests of those bytes; the
server recomputes the masks it issued, checks the bytes against them and
verifies the signature. Masks are meant to hide gradients from third parties
and other participants (not yet from a reader of the ledger: README, "What
the ledger reveals"), not from the server, which participants trust.

`Server.run_round` is the one round of the protocol, published or not: it
verifies, detects, aggregates, updates the model and, when publishing,
builds the round record from the encoded masked vectors it checked and the
digests it computed to verify the signatures. Each published vector is
encoded once, by the party that computes it; the server encodes each
participant's forms once more, from its own derivation, to compare the
submitted bytes with them. An unpublished round skips
masks, signatures and the record; its model trajectory is the same.

A round is carried one group of participants at a time, as one stack, from
the gradient to the verified submission. `training.local_gradients`
differentiates the group's minibatches in one forward and backward pass;
each participant attacks its own gradient; `masked_forms` derives the
group's sign streams, masked forms and zero shares as (k, d) stacks under
one int64 bound; each row is encoded (`fixedpoint.encode_rows`), and each
participant signs its own rows (`Participant.compute_submission`). The
server checks the same groups (`Server.verify_group`): it derives their
forms again with `masked_forms`, compares each submission's bytes with the
canonical encoding of its rows (`Server.verify_submission`), and masks its
own gradient for the whole group in one pass. The one-participant case is
the group of one, so every group size takes one masking path. A group
holds as many participants as `training.GROUP_FEATURES` stacked float64
features allow, which is one at 784 features and ten at 100 with 64-row
batches (see there for the measurement behind it). Every row is
bit-identical to the participant's forms alone, so grouping changes no
byte of the ledger, the metrics or the audit. Each group's stacks are
dropped before the next group is drawn, and the round's submissions when
`run_round` returns. On the `many-small` benchmark config (48
participants, 100 features) grouping the gradients cut a FedAvg round from
5.9 to 4.7 ms, and grouping the masking and checking cut a published round
from 38.2 to 31.9 ms (README).

A published run writes its training record into ledger block 1 while it
trains: the block is streamed (`Ledger.append_stream`) from the record's
header, then each round's blob as soon as its round ends, then the masked
final model. No round record outlives its round, so the run's memory does
not grow with the number of rounds; the record is read back from the
ledger on demand (`RunResult.record`). A run that fails part-way leaves
the ledger holding its genesis block alone.

All protocol vectors are fixed point, so the published record satisfies the
audit identities exactly:

  sign(<mg1_i, mgS1_i>) == sign(<g_i, g_S>)                    (detection)
  floor((mgS2 + sum_benign mg2_j) / (|P_r|+1)) == m_r + ag_r   (aggregation)
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import crypto
from .auditor import benign_set
from .config import ConfigError, RunConfig
from .fixedpoint import (
    Encoded,
    FpVector,
    INT64_MAX,
    dot,
    encode_rows,
    floor_average,
    hadamard,
    max_abs,
    scale_by_dyadic,
)
from .ledger import Ledger
from .randomness import (
    MASK_BITS,
    bounded_int_rows,
    derive_seed,
    gen_correlated_pair,
    model_mask_share,
    prg,
    sign_bits,
)
from .records import (
    GenesisPayload,
    RoundRecord,
    TrainingRecord,
    round_blob,
    submission_message,
    training_header,
    vector_blob,
    vector_digest,
)
from .training import (
    AdversarySpec,
    Architecture,
    Dataset,
    DatasetError,
    corrupt_gradient,
    corrupt_shard,
    evaluate,
    init_params,
    local_gradient,
    local_gradients,
    participants_per_group,
    partition,
)


def _seed_bytes(seed: int, n: int = 32) -> bytes:
    words = prg(seed, (n + 7) // 8)
    return words.tobytes()[:n]


@dataclass(frozen=True)
class ParticipantSecrets:
    """What the server hands participant i at preprocessing.

    An unpublished run hands out only the seeds a participant trains with
    (`mask_seed` draws its batches, `zero_seed` its attack); it masks and
    signs nothing, so it derives no `rn` and no key pair.
    """

    id: int
    mask_seed: int
    zero_seed: int
    rn: int = 0
    keypair: crypto.KeyPair | None = None


@dataclass(frozen=True)
class ServerSecrets:
    """The server's preprocessing material for every participant."""

    per_participant: dict[int, ParticipantSecrets]
    rn_server: dict[int, int]  # id -> rn_S_i
    model_mask_seed: int  # seeds m_r, drawn when round r is published
    keypair: crypto.KeyPair


def training_secrets(config: RunConfig) -> list[ParticipantSecrets]:
    """The seeds each participant trains with, by ascending id: all that an
    unpublished run derives."""
    master = config.master_seed
    return [
        ParticipantSecrets(
            id=i,
            mask_seed=derive_seed(master, "mask", i),
            zero_seed=derive_seed(master, "zero", i),
        )
        for i in range(1, config.participants + 1)
    ]


def preprocess(
    config: RunConfig, dim: int, w0: FpVector
) -> tuple[ServerSecrets, list[ParticipantSecrets], GenesisPayload]:
    """Generate all secrets of a published run from the master seed, and
    the genesis payload."""
    eta_num, eta_exp = config.eta_parts()
    master = config.master_seed
    server_kp = crypto.keygen(_seed_bytes(derive_seed(master, "key", "server")))
    per: dict[int, ParticipantSecrets] = {}
    rn_server: dict[int, int] = {}
    roster: dict[int, tuple[bytes, int]] = {}  # id -> (pk, l_i = rn_i * rn_S_i)
    for ps in training_secrets(config):
        i = ps.id
        pair = gen_correlated_pair(derive_seed(master, "rn", i))
        per[i] = replace(
            ps,
            rn=pair.rn_i,
            keypair=crypto.keygen(_seed_bytes(derive_seed(master, "key", i))),
        )
        rn_server[i] = pair.rn_s
        roster[i] = (per[i].keypair.pk, pair.l)
    secrets = ServerSecrets(
        per_participant=per,
        rn_server=rn_server,
        model_mask_seed=derive_seed(master, "model-mask"),
        keypair=server_kp,
    )
    genesis = GenesisPayload(
        rounds=config.rounds,
        eta_num=eta_num,
        eta_exp=eta_exp,
        dim=dim,
        scale=config.scale,
        clipping=config.clipping,
        clip_factor=config.clip_factor,
        server_pk=server_kp.pk,
        w0_signature=crypto.sign(server_kp, [w0.encode().data]),
        roster=roster,
    )
    return secrets, [per[i] for i in sorted(per)], genesis


def masked_forms(
    secrets: list[ParticipantSecrets], gradients: list[FpVector], r: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The round-r masked forms of a group's gradients, as (k, d) stacks
    whose row j belongs to secrets[j] and gradients[j]: (bits, mg1, zv, mg2).

    The participants encode mg1 and mg2 and sign the digests of the bytes;
    the server recomputes them here to check those bytes. Row j's sign
    stream is 1 - 2 * bits[j]: scaled by rn_i it is the PRVG mask rv_r, so
    mg1 = rv_r (.) g; scaled by rn_S_i it is the server's detection mask
    (`Server.verify_group`). zv is the round's zero share and mg2 = zv + g.
    A group of one stacks no copy of its gradient.
    """
    raws = (gradients[0].raw[None] if len(gradients) == 1
            else np.stack([g.raw for g in gradients]))
    dim = raws.shape[1]
    # "prvg" is only the seed's domain tag; the ledger bytes depend on it
    bits = sign_bits([derive_seed(ps.mask_seed, "prvg", r) for ps in secrets], dim)
    zero = bounded_int_rows([derive_seed(ps.zero_seed, "zero", r) for ps in secrets], dim)
    rn = [ps.rn for ps in secrets]
    # one bound for the group: every |g * rn| and |zv + g| within int64
    # (|zv| <= 2^MASK_BITS); past it each member is masked on the checked
    # kernels in turn, so the first to overflow raises what it raises alone
    top = max_abs(raws)
    if top * max(map(abs, rn)) <= INT64_MAX and top + (1 << MASK_BITS) <= INT64_MAX:
        return bits, _signed_products(raws, bits, rn), zero, zero + raws
    checked = [
        (hadamard(g, _signs(b) * np.int64(c)), FpVector(z, g.scale) + g)
        for g, b, c, z in zip(gradients, bits, rn, zero)
    ]
    return (bits, np.stack([mg1.raw for mg1, _ in checked]), zero,
            np.stack([mg2.raw for _, mg2 in checked]))


def _detection_masks(g_s: FpVector, bits: np.ndarray, rn_s: list[int]) -> np.ndarray:
    """The server's detection masks mg_S1 = g_s (.) (signs * rn_S_i) of a
    group, as a (k, d) stack: row j from the sign bits bits[j] of
    `masked_forms` and rn_s[j]. Past the group's bound each row is masked
    by the checked `hadamard` in turn."""
    if max_abs(g_s.raw) * max(map(abs, rn_s)) <= INT64_MAX:
        return _signed_products(g_s.raw[None], bits, rn_s)
    return np.stack([hadamard(g_s, _signs(b) * np.int64(c)).raw for b, c in zip(bits, rn_s)])


def _signed_products(raws: np.ndarray, bits: np.ndarray, rn: list[int]) -> np.ndarray:
    """The (k, d) raws of `hadamard` of each row raws[j] with the mask
    (1 - 2 * bits[j]) * rn[j]; `raws` is (k, d), or (1, d) for one vector
    masked k ways. Unchecked: the caller has bounded every product inside
    int64. Two products over the stack, by rn and by int8 signs; a negation
    under a `where=` mask ran 4-8x slower at d=1010 and d=50890."""
    out = raws * np.array(rn, dtype=np.int64)[:, None]
    signs = bits.astype(np.int8)
    signs *= -2
    signs += 1
    out *= signs
    return out


def _signs(bits: np.ndarray) -> np.ndarray:
    """The int64 signs 1 - 2 * b of one row of sign bits."""
    return 1 - 2 * bits.astype(np.int64)


# ---------------------------------------------------------------------------
# Participant side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Submission:
    """What a participant sends the server in one round."""

    id: int
    gradient: FpVector  # plaintext g_i
    loss: float
    # enc(mg1) and enc(mg2), and the signature over
    # submission_message(r, id, H(enc(mg1)), H(enc(mg2))); empty when the
    # run publishes nothing
    mg1: memoryview | bytes = b""
    mg2: memoryview | bytes = b""
    signature: bytes = b""


class Participant:
    """One data holder: a shard, its secrets, and (maybe) an adversary."""

    def __init__(
        self,
        secrets: ParticipantSecrets,
        shard: Dataset,
        adversary: AdversarySpec | None = None,
    ):
        self.secrets = secrets
        self.adversary = adversary or AdversarySpec()
        # label flipping poisons the shard once, before any training
        self.shard = corrupt_shard(
            shard, self.adversary, derive_seed(secrets.zero_seed, "attack")
        )

    def batch_seed(self, r: int) -> int:
        """The seed of the participant's round-r minibatch."""
        return derive_seed(self.secrets.mask_seed, "batch", r)

    def compute_submission(
        self, g: FpVector, loss: float, r: int, mg1: Encoded, mg2: Encoded
    ) -> Submission:
        """The round-r submission of the participant's gradient g, after
        any attack, and its loss: the encodings of its masked forms, and
        the round's one submission message over them, signed."""
        pid = self.secrets.id
        message = submission_message(r, pid, vector_digest(mg1), vector_digest(mg2))
        return Submission(
            id=pid,
            gradient=g,
            loss=loss,
            mg1=mg1.data,
            mg2=mg2.data,
            signature=crypto.sign(self.secrets.keypair, message),
        )


def sign_group(
    members: list[Participant], gradients: list[FpVector], losses: list[float], r: int
) -> list[Submission]:
    """The round-r submissions of a group of participants that hold signing
    keys, from their gradients (after any attack) and losses: the group's
    masked forms derived as one stack, each row encoded, and each member's
    rows signed by `Participant.compute_submission`. The stacks are dropped
    on return; the submissions hold the encodings."""
    _, mg1, _, mg2 = masked_forms([p.secrets for p in members], gradients, r)
    scale = gradients[0].scale
    return [
        p.compute_submission(g, loss, r, enc1, enc2)
        for p, g, loss, enc1, enc2 in zip(
            members, gradients, losses, encode_rows(mg1, scale), encode_rows(mg2, scale)
        )
    ]


# ---------------------------------------------------------------------------
# Server side: detection, robust aggregation, round finalization.
# ---------------------------------------------------------------------------


def robust_aggregate(
    g_s: FpVector,
    gradients: dict[int, FpVector],
    clipping: bool = False,
    clip_factor: int = 3,
) -> tuple[FpVector, list[int]]:
    """Filter by inner-product sign (optionally clip), then floor-average.

    A gradient is kept iff its raw inner product with the server gradient
    is positive: that sign is the sign of the cosine similarity, and zero
    similarity counts as bad.

    Returns (aggregated gradient, sorted benign ids). The aggregate starts
    from the server gradient, so an empty benign set yields the server
    gradient itself.
    """
    dots = {i: dot(g_s, gradients[i]) for i in sorted(gradients)}
    benign = sorted(benign_set(dots, clipping, clip_factor)[1])
    return floor_average(g_s, [gradients[i] for i in benign]), benign


@dataclass(frozen=True)
class VerifiedSubmission:
    """A submission whose encoded forms match the masked forms the server
    recomputed and whose signature verified; the round record publishes
    its encoded forms as they are."""

    sub: Submission
    mg1: Encoded  # enc(rv_r (.) g_i)
    mg2: Encoded  # enc(zv_r + g_i)
    mg2_digest: bytes  # SHA-256(enc(mg2)), published if not benign


@dataclass
class RunResult:
    """Everything a training run produced."""

    w0: FpVector
    w_final: FpVector
    metrics: list[dict]  # per round; test_accuracy is a float, or None if not evaluated
    timing: dict[str, int]  # published bytes: genesis and training record
    ledger_path: Path | None = None  # the ledger the run published to, if any

    @property
    def record(self) -> TrainingRecord | None:
        """The published training record, decoded from block 1 of the
        ledger on each call; None if the run published nothing."""
        if self.ledger_path is None:
            return None
        blocks = Ledger.open(self.ledger_path)
        next(blocks)  # the genesis
        record = TrainingRecord.decode(next(blocks))
        next(blocks, None)  # moving past block 1 checks its digests
        return record


class Server:
    """The central server's per-run state."""

    def __init__(
        self,
        config: RunConfig,
        secrets: ServerSecrets | None,  # None when the run publishes nothing
        arch: Architecture,
        root_shard: Dataset,
        w0: FpVector,
    ):
        self.config = config
        self.secrets = secrets
        self.arch = arch
        self.root_shard = root_shard
        self.w = w0
        self.eta_num, self.eta_exp = config.eta_parts()
        # eta * (m_1 + ... + m_r) over the rounds published so far
        self.model_mask = FpVector.zeros(w0.dim, w0.scale)

    def server_gradient(self, r: int) -> tuple[FpVector, float]:
        return local_gradient(
            self.arch,
            self.w,
            self.root_shard,
            self.config.batch_size,
            derive_seed(self.config.master_seed, "server-batch", r),
        )

    def verify_submission(
        self, sub: Submission, r: int, mg1: Encoded, mg2: Encoded
    ) -> VerifiedSubmission | None:
        """Check a submission's bytes against the canonical encodings mg1
        and mg2 of the masked forms the server recomputed for it, and its
        signature over those bytes. Returns the checked forms, views of the
        submitted bytes, or None if the bytes or the signature fail."""
        try:
            enc1, enc2 = Encoded.parse(sub.mg1), Encoded.parse(sub.mg2)
        except ValueError:
            return None
        if enc1 != mg1 or enc2 != mg2:
            return None
        mg2_digest = vector_digest(enc2)
        message = submission_message(r, sub.id, vector_digest(enc1), mg2_digest)
        ps = self.secrets.per_participant[sub.id]
        if not crypto.verify(ps.keypair.public, message, sub.signature):
            return None
        return VerifiedSubmission(sub, enc1, enc2, mg2_digest)

    def verify_group(
        self, subs: list[Submission], g_s: FpVector, r: int
    ) -> list[tuple[VerifiedSubmission, Encoded]]:
        """Verify a group of submissions as one stack: recompute their masked
        forms (`masked_forms`), encode each row, check each submission
        against its rows (`verify_submission`), then mask g_s for every
        valid one. Returns each valid submission's checked forms with the
        encoding of its server detection mask mg_S1 = g_s (.) (signs *
        rn_S_i), in the order of `subs`; no stack or re-encoding outlives
        the call."""
        secrets = [self.secrets.per_participant[sub.id] for sub in subs]
        bits, mg1, _, mg2 = masked_forms(secrets, [sub.gradient for sub in subs], r)
        scale = g_s.scale
        checked = [
            self.verify_submission(sub, r, enc1, enc2)
            for sub, enc1, enc2 in zip(subs, encode_rows(mg1, scale), encode_rows(mg2, scale))
        ]
        del mg1, mg2
        valid = [j for j, v in enumerate(checked) if v is not None]
        if not valid:
            return []
        if len(valid) < len(subs):
            bits = bits[valid]
        rn_s = [self.secrets.rn_server[subs[j].id] for j in valid]
        detect = encode_rows(_detection_masks(g_s, bits, rn_s), scale)
        return [(checked[j], enc) for j, enc in zip(valid, detect)]

    def run_round(
        self, r: int, submissions: list[Submission], detection: bool = True
    ) -> tuple[RoundRecord | None, list[int], float]:
        """Verify, detect, aggregate and update the model; build the record
        when the server holds the run's secrets, that is, when publishing.

        Without detection every valid gradient is averaged. Without
        publishing nothing was signed: every submission counts as valid and
        no mask, signature or record is computed.

        Returns (the round record, or None when not publishing; the sorted
        benign ids; the mean loss of the valid participants and the server).
        """
        g_s, server_loss = self.server_gradient(r)
        valid = sorted(submissions, key=lambda s: s.id)
        verified: dict[int, VerifiedSubmission] = {}
        server_detect: dict[int, Encoded] = {}  # id -> enc(mg_S1)
        publish = self.secrets is not None
        if publish:
            # a submission whose signature fails is malicious for this round
            # and left out of the record (stored signatures must all verify);
            # the submissions are checked in the groups they were drawn in
            group = participants_per_group(self.arch.n_features, self.config.batch_size)
            for lo in range(0, len(valid), group):
                for v, detect in self.verify_group(valid[lo : lo + group], g_s, r):
                    verified[v.sub.id], server_detect[v.sub.id] = v, detect
            valid = [v.sub for v in verified.values()]
        gradients = {sub.id: sub.gradient for sub in valid}
        if detection:
            ag, benign = robust_aggregate(
                g_s, gradients, self.config.clipping, self.config.clip_factor
            )
        else:
            benign = sorted(gradients)
            ag = floor_average(g_s, [gradients[i] for i in benign])
        self.w = self.w - scale_by_dyadic(ag, self.eta_num, self.eta_exp)

        # participants by ascending id, then the server: the float sum, and
        # so the metrics CSV, depends on this order
        losses = [sub.loss for sub in valid] + [server_loss]
        record = (
            self.round_record(r, g_s, verified, server_detect, benign) if publish else None
        )
        return record, benign, sum(losses) / len(losses)

    def round_record(
        self,
        r: int,
        g_s: FpVector,
        verified: dict[int, VerifiedSubmission],
        server_detect: dict[int, Encoded],
        benign: list[int],
    ) -> RoundRecord:
        """The published round: every valid participant's detection mask and
        signature, the benign participants' aggregation masks, the other
        valid participants' aggregation-mask digests, the server's
        detection masks (`server_detect`, encoded as each submission
        verified) and its aggregation vector, whose zero share cancels the
        benign ones. The participants' vectors are the bytes they signed;
        the server encodes its own."""
        m_r = model_mask_share(
            self.secrets.model_mask_seed, r, g_s.dim, g_s.scale, self.eta_exp
        )
        self.model_mask = self.model_mask + scale_by_dyadic(
            m_r, self.eta_num, self.eta_exp
        )
        zv_server = np.zeros(g_s.dim, dtype=np.int64)
        local_agg = {}
        for i in benign:
            v = verified[i]
            # the zero share zv_r is mg2 - g_i, exactly
            zv_server -= FpVector.decode(v.mg2).raw
            zv_server += v.sub.gradient.raw
            local_agg[i] = v.mg2
        server_agg = (
            m_r.scalar_mul(len(benign) + 1) + FpVector(zv_server, g_s.scale) + g_s
        ).encode()
        local_detect = {}
        agg_digests = {}
        for i, v in verified.items():
            local_detect[i] = (v.mg1, v.sub.signature)
            if i not in local_agg:
                agg_digests[i] = v.mg2_digest
        return RoundRecord(
            r=r,
            local_detect=local_detect,
            local_agg=local_agg,
            agg_digests=agg_digests,
            server_detect=server_detect,
            server_agg=server_agg,
        )

    def finalize(self) -> Encoded:
        """The published final model: the model masked with eta times the
        sum of the published rounds' m_r, encoded."""
        return (-self.model_mask + self.w).encode()


def pretrain(
    config: RunConfig, arch: Architecture, root_shard: Dataset
) -> FpVector:
    """Server-only SGD warm start producing the signed initial model w_0."""
    eta_num, eta_exp = config.eta_parts()
    w = init_params(arch, derive_seed(config.master_seed, "init"), config.scale)
    for step in range(config.pretrain_steps):
        g, _ = local_gradient(
            arch,
            w,
            root_shard,
            config.batch_size,
            derive_seed(config.master_seed, "pretrain", step),
        )
        w = w - scale_by_dyadic(g, eta_num, eta_exp)
    return w


def run_training(
    config: RunConfig,
    train: Dataset,
    test: Dataset | None = None,
    ledger_path=None,
    detection: bool = True,
    publish: bool = True,
) -> RunResult:
    """Run the whole protocol: partition, preprocess (a published run only),
    R rounds, publication.

    A run publishes when `publish` is set and a ledger path is given. A
    published run needs detection: the audit re-derives every round's benign
    set from the detection identity, so a ledger of a run without detection
    could never verify.

    Every party draws `batch_size` samples from its own shard, so a batch
    larger than the smallest shard is a ConfigError, and a test set whose
    feature or class count differs from the training set's is a
    DatasetError; both are raised before anything is computed or written.
    """
    publishing = publish and ledger_path is not None
    if publishing and not detection:
        raise ConfigError(
            "publishing requires detection: the audit re-derives the benign "
            "set of every round, so a record without detection never verifies"
        )
    if test is not None and (test.n_features, test.n_classes) != (
        train.n_features, train.n_classes
    ):
        raise DatasetError(
            f"test set has {test.n_features} features and {test.n_classes} "
            f"classes, the training set {train.n_features} and {train.n_classes}"
        )
    parts = config.participants + 1
    smallest = len(train) // parts  # np.array_split puts the remainder first
    if config.batch_size > smallest:
        raise ConfigError(
            f"batch size {config.batch_size} exceeds the smallest shard: "
            f"{len(train)} samples in {parts} shards, the smallest of {smallest}"
        )
    arch = Architecture(train.n_features, train.n_classes, config.hidden)
    shards = partition(train, parts, config.master_seed)
    root_shard = shards[0]
    w0 = pretrain(config, arch, root_shard)

    timing = {"record_bytes": 0, "preprocess_bytes": 0}

    server_ledger = None
    if publishing:
        secrets, participant_secrets, genesis = preprocess(config, arch.param_count, w0)
        genesis_parts = genesis.encode()
        server_ledger = Ledger.create(ledger_path, *genesis_parts)
        timing["preprocess_bytes"] = sum(map(len, genesis_parts))
    else:
        # no mask, key or signature affects the trajectory
        secrets, participant_secrets = None, training_secrets(config)

    participants = [
        Participant(ps, shards[ps.id], config.malicious.get(ps.id))
        for ps in participant_secrets
    ]
    server = Server(config, secrets, arch, root_shard, w0)
    group = participants_per_group(arch.n_features, config.batch_size)

    def submissions(r: int) -> list[Submission]:
        """Every participant's round-r submission, by ascending id, made one
        group of participants at a time: the group's gradients are drawn in
        one pass, attacked, and, when publishing, masked, encoded and signed
        as one stack. A run that publishes nothing hands out no keys, and
        its masks and signatures would not affect the trajectory."""
        out = []
        for lo in range(0, len(participants), group):
            members = participants[lo : lo + group]
            drawn = local_gradients(
                arch, server.w, [p.shard for p in members], config.batch_size,
                [p.batch_seed(r) for p in members],
            )
            gradients = [corrupt_gradient(g, p.adversary)
                         for p, (g, _) in zip(members, drawn)]
            losses = [loss for _, loss in drawn]
            if publishing:
                out += sign_group(members, gradients, losses, r)
            else:
                out += [Submission(p.secrets.id, g, loss)
                        for p, g, loss in zip(members, gradients, losses)]
            del drawn, gradients  # not held through the next group's pass
        return out

    metrics: list[dict] = []

    def rounds() -> Iterator[RoundRecord | None]:
        """Play the R rounds; each yields its record (None when not
        publishing) as soon as it is made, then evaluates."""
        for r in range(1, config.rounds + 1):
            # the submissions die with the call: none is held past its round
            record, benign, train_loss = server.run_round(r, submissions(r), detection)
            yield record
            del record  # written: no round record is held past its round
            row = {
                "round": r,
                "train_loss": train_loss,
                "test_accuracy": None,
                "benign_count": len(benign),
            }
            want_eval = test is not None and (
                (config.metrics_every > 0 and r % config.metrics_every == 0)
                or r == config.rounds
            )
            if want_eval:
                row["test_accuracy"] = evaluate(arch, server.w, test)
            metrics.append(row)

    def record_parts() -> Iterator:
        """Block 1's payload, one buffer at a time, the rounds played as
        they are asked for."""
        yield from training_header(
            config.rounds, w0.dim, config.scale, server.eta_num, server.eta_exp,
            config.participants,
        )
        for record in rounds():
            yield from round_blob(record)
            del record  # not held while the next round is played
        yield from vector_blob(server.finalize())

    if publishing:
        timing["record_bytes"] = server_ledger.append_stream(record_parts())
    else:
        for _ in rounds():
            pass

    return RunResult(
        w0=w0,
        w_final=server.w,
        metrics=metrics,
        timing=timing,
        ledger_path=Path(ledger_path) if publishing else None,
    )
