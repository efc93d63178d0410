"""Exact work counts of one published run and of its audit.

Timings on a shared host drift by about 15%; these counts do not. Each is
taken by wrapping a seam (a module function or a method) around one
`small_config` run and one `full_audit` of its ledger, and is pinned
exactly, so a change that does more or less work shows here even where a
timing cannot resolve it. An unpublished run of the same config gives the
counts of a run that publishes nothing. Each test's docstring says what
moves its count.
"""
import collections
import hashlib
import sys

import numpy as np
import pytest

from auditfl import auditor, crypto, fixedpoint, full_audit, ledger, protocol, randomness
from auditfl import training
from auditfl.fixedpoint import FpVector
from util import load_chain, make_dataset, sign_flip_spec, small_config

N, R = 4, 3
# the data's 16 features and 4 classes make d = 16 * 4 + 4; small_config's batch
D, BATCH = 68, 64


def _counting(counts, name, fn, units=lambda *args: 1):
    def wrapped(*args, **kwargs):
        counts[name] += units(*args)
        return fn(*args, **kwargs)

    return wrapped


def _nbytes(*parts) -> int:
    return sum(memoryview(p).nbytes for p in parts)


def _digest(vec) -> bytes:
    """SHA-256 of an encoding's bytes, outside the hashing the tests count."""
    return hashlib.sha256(vec.data).digest()


def _count_sha256(mp, counts) -> None:
    """Count the bytes every SHA-256 of the package hashes: `crypto.sha256`
    under each module's binding of it, and `crypto.Hasher.update`."""
    sha256 = crypto.sha256
    for name, module in list(sys.modules.items()):
        if name.startswith("auditfl") and getattr(module, "sha256", None) is sha256:
            mp.setattr(module, "sha256", _counting(counts, "sha256_bytes", sha256, _nbytes))
    update = crypto.Hasher.update
    mp.setattr(
        crypto.Hasher, "update",
        _counting(counts, "sha256_bytes", update, lambda self, part: _nbytes(part)),
    )


def _round_seeds(cfg) -> dict[int, tuple[int, int]]:
    """(id, r) of the seeds of every participant's round-r streams: its
    minibatch, its sign stream and its zero share. Derived before any seam
    is wrapped: the derivations hash bytes that are not the run's."""
    seeds = {}
    for ps in protocol.training_secrets(cfg):
        for r in range(1, R + 1):
            for base, tag in ((ps.mask_seed, "batch"), (ps.mask_seed, "prvg"),
                              (ps.zero_seed, "zero")):
                seeds[randomness.derive_seed(base, tag, r)] = (ps.id, r)
    return seeds


def _within_rounds(mp) -> list:
    """Wrap `Server.run_round`; the list returned holds ("server", r) while
    round r runs on the server, and is empty outside it."""
    at, run_round = [], protocol.Server.run_round

    def wrapped(self, r, *args):
        at.append(("server", r))
        try:
            return run_round(self, r, *args)
        finally:
            at.pop()

    mp.setattr(protocol.Server, "run_round", wrapped)
    return at


def _count_round_prg_words(mp, words, seeds, at) -> None:
    """Count the words every `randomness.prg` call draws, under each
    module's binding of it, into words[(who, r)]: who is "server" inside
    `Server.run_round(r, ...)` (`at`), and otherwise the id of the
    participant whose round-r stream (`seeds`) draws them. A group's
    minibatches and masked forms are drawn outside the round's methods;
    the server draws each participant's streams again to check its
    masked forms. Draws outside a round (data split, key and pair
    derivation) are not counted."""
    prg = randomness.prg

    def counted(seed, count, *args):
        if at:
            words[at[-1]] += count
        elif seed in seeds:
            words[seeds[seed]] += count
        return prg(seed, count, *args)

    for name, module in list(sys.modules.items()):
        if name.startswith("auditfl") and getattr(module, "prg", None) is prg:
            mp.setattr(module, "prg", counted)


def _counted_run(mp, counts, cfg) -> None:
    """The run-side seams: ECDSA, masked forms, SHA-256, PRG words in the
    rounds, forward/backward passes, float64 model conversions,
    evaluations, and the SHA-256 of every encoding made."""
    seeds = _round_seeds(cfg)
    mp.setattr(crypto, "sign", _counting(counts, "signs", crypto.sign))
    mp.setattr(crypto, "verify", _counting(counts, "verifies", crypto.verify))
    mp.setattr(protocol, "masked_forms",
               _counting(counts, "masked_forms", protocol.masked_forms))
    mp.setattr(protocol, "evaluate", _counting(counts, "evaluates", protocol.evaluate))
    mp.setattr(training, "loss_and_grad",
               _counting(counts, "passes", training.loss_and_grad))
    to_floats = FpVector.to_floats
    mp.setattr(FpVector, "to_floats", _counting(
        counts, "float64_models", to_floats,
        lambda self, dtype=np.float64: int(dtype == np.float64)))
    _count_sha256(mp, counts)
    at = _within_rounds(mp)
    counts["prg_words"] = collections.Counter()
    _count_round_prg_words(mp, counts["prg_words"], seeds, at)
    # every encoding, by its digest and by whether `Server.run_round` made it
    counts["encoded"] = encoded = collections.Counter()
    encode_rows = fixedpoint.encode_rows

    def counting_encode_rows(rows, scale):
        out = encode_rows(rows, scale)
        for enc in out:
            encoded[_digest(enc), "round" if at else "outside"] += 1
        return out

    for module in (fixedpoint, protocol):
        mp.setattr(module, "encode_rows", counting_encode_rows)


@pytest.fixture(scope="module")
def data():
    """run_published's tiny train and test sets, made before any seam is
    wrapped: their seed derivations are not the run's work."""
    return make_dataset(5, 600, 16, 4), make_dataset(6, 150, 16, 4)


@pytest.fixture(scope="module")
def counted(tmp_path_factory, data):
    """(run counts, audit counts, audit report, ledger size in bytes)."""
    cfg = small_config(participants=N, rounds=R, malicious={2: sign_flip_spec()})
    path = tmp_path_factory.mktemp("work") / "ledger.bin"
    run, audit = collections.Counter(), collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        _counted_run(mp, run, cfg)
        result = protocol.run_training(cfg, *data, ledger_path=path)
    run["w0"], run["record"] = result.w0, load_chain(path)[1]
    with pytest.MonkeyPatch.context() as mp:
        _count_sha256(mp, audit)
        mp.setattr(crypto, "verify", _counting(audit, "verifies", crypto.verify))
        mp.setattr(ledger.Payload, "read",
                   _counting(audit, "payload_reads", ledger.Payload.read))
        mp.setattr(auditor, "divmod", _counting(audit, "divisions", divmod),
                   raising=False)
        deflate, divisions = auditor.deflated_products, []

        def deflated_products(*args):
            before = audit["divisions"]
            out = deflate(*args)
            divisions.append(audit["divisions"] - before)
            return out

        mp.setattr(auditor, "deflated_products", deflated_products)
        report = full_audit(path)
    assert report.ok, report.failure
    audit["divisions_per_round"] = divisions
    return run, audit, report, path.stat().st_size


@pytest.fixture(scope="module")
def unpublished(data):
    """The run counts of `counted`'s config and data, unpublished and
    evaluated every round."""
    cfg = small_config(participants=N, rounds=R, malicious={2: sign_flip_spec()},
                       metrics_every=1)
    counts = collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        _counted_run(mp, counts, cfg)
        protocol.run_training(cfg, *data, publish=False)
    return counts


class TestRunWork:
    def test_ecdsa_signs(self, counted):
        """One signature per submission and the server's over w_0: n·R + 1.
        A per-block server signature would add one per block."""
        run, _, _, _ = counted
        assert run["signs"] == N * R + 1 == 13

    def test_ecdsa_verifies(self, counted):
        """The server verifies each submission once: n·R."""
        run, _, _, _ = counted
        assert run["verifies"] == N * R == 12

    def test_masked_forms_per_group(self, counted):
        """One per group of participants on each side and round: the
        participants derive their group's masked forms as one stack to sign
        them, and the server derives them again to check them. The 4
        participants' 64-row batches of 16 features fit one group, so
        2 * R; sending the forms once would halve it, and a derivation per
        submission would make it 2 * N * R."""
        groups = -(-N // training.participants_per_group(16, BATCH))
        run, _, _, _ = counted
        assert run["masked_forms"] == 2 * groups * R == 6

    def test_sha256_bytes_per_ledger_byte(self, counted):
        """Every payload byte once as the ledger stream takes it in, and
        the two 88-byte block headers (15055); the digests of every mg1_i
        and mg2_i twice, by the participant to sign them and by the server
        to check them (17616); each 80-byte submission message once to sign
        and once to verify, and w_0's encoding once for its signature
        (1998); and the derivation paths of the seeds and keys (4641).
        Hashing a vector once for both its digest and the chain would cut
        the second share."""
        run, _, _, size = counted
        assert (run["sha256_bytes"], size) == (39310, 15143)

    def test_encodes_per_published_vector(self, counted):
        """Each published vector is encoded once, by the party that computes
        it: per round every mg1_i, each benign mg2_i, every server mask
        mgS1_i and the server aggregate, then the masked final model. The
        mg2_i of a valid participant that is not benign is encoded once
        too, though only its digest is published, and so is w_0, for the
        server's signature. The server encodes each participant's mg1_i and
        mg2_i once more, from the forms it recomputed, to check the
        submitted bytes against them. An encode of a vector that is already
        bytes would add one here."""
        run, _, _, _ = counted
        record, encoded = run["record"], run["encoded"]
        participant, server, digest_only = [], [], []
        for rec in record.rounds:
            participant += [mg1 for mg1, _ in rec.local_detect.values()]
            participant += rec.local_agg.values()
            server += [*rec.server_detect.values(), rec.server_agg]
            digest_only += rec.agg_digests.values()
        # the participants encode outside `Server.run_round` and the server
        # inside it; w_0 and the masked final model are encoded outside any
        # round
        by_participant = [_digest(v) for v in participant] + list(digest_only)
        assert [encoded[h, "outside"] for h in by_participant] == [1] * 24
        assert [encoded[h, "round"] for h in by_participant] == [1] * 24
        assert [encoded[_digest(v), "round"] for v in server] == [1] * 15
        assert [encoded[_digest(v), "outside"] for v in server] == [0] * 15
        for vector in (record.masked_model, run["w0"].encode()):
            h = _digest(vector)
            assert (encoded[h, "outside"], encoded[h, "round"]) == (1, 0)
        assert (len(participant) + len(server) + 1, len(digest_only)) == (37, 3)
        assert encoded.total() == 41 + 2 * N * R == 65

    def test_prg_words_per_participant_and_round(self, counted, unpublished):
        """A published participant draws its batch indices (BATCH words),
        its round's sign stream (one word per 64 coordinates) and its zero
        share (D words); unpublished, only its batch. The server draws its
        own batch and, publishing, each participant's sign stream and zero
        share again to check its masked forms, and the round's model mask
        (D words). Drawing a group's streams as one stack moves none of
        them; sending the masked forms once, or deriving the sign stream
        from fewer words, would."""
        published = counted[0]["prg_words"]
        streams = -(-D // 64) + D
        for words, participant, server in (
            (published, BATCH + streams, BATCH + N * streams + D),
            (unpublished["prg_words"], BATCH, BATCH),
        ):
            assert {r: words[("server", r)] for r in range(1, R + 1)} == dict.fromkeys(
                range(1, R + 1), server)
            assert {k: v for k, v in words.items() if k[0] != "server"} == {
                (i, r): participant for i in range(1, N + 1) for r in range(1, R + 1)}
        assert (BATCH + streams, BATCH + N * streams + D) == (134, 412)

    def test_passes_per_round(self, counted, unpublished):
        """One forward/backward pass per group of participants and one for
        the server gradient per round. The 4 participants' 64-row batches of
        16 features fit one group, so R * (1 + 1), published or not; a pass
        per participant would make it R * (N + 1)."""
        groups = -(-N // training.participants_per_group(16, BATCH))
        assert groups == 1
        assert (counted[0]["passes"], unpublished["passes"]) == (R * (groups + 1),) * 2

    def test_model_conversions_per_group(self, counted, unpublished):
        """The model becomes float64 once per pass: once per group and once
        for the server gradient, R * 2 in all; the evaluations convert it to
        float32 and are not counted."""
        assert counted[0]["float64_models"] == unpublished["float64_models"] == R * 2

    def test_pretrain_passes(self, data):
        """The warm start makes one pass and one model conversion per step."""
        cfg = small_config(pretrain_steps=3)
        arch = training.Architecture(16, 4)
        counts = collections.Counter()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(training, "loss_and_grad",
                       _counting(counts, "passes", training.loss_and_grad))
            to_floats = FpVector.to_floats
            mp.setattr(FpVector, "to_floats",
                       _counting(counts, "float64_models", to_floats))
            protocol.pretrain(cfg, arch, data[0])
        assert (counts["passes"], counts["float64_models"]) == (3, 3)

    def test_evaluations_per_run(self, counted, unpublished):
        """`protocol.evaluate` runs after each round that `metrics_every`
        selects, and after the final one: once at metrics_every=0, R times
        at metrics_every=1."""
        assert (counted[0]["evaluates"], unpublished["evaluates"]) == (1, R)


class TestAuditWork:
    def test_sha256_bytes_per_ledger_byte(self, counted):
        """Every payload byte once, as the ledger stream hands it out, plus
        the two 88-byte block headers, the digests of every mg1_i and every
        published mg2_i, each 80-byte submission message and the recovered
        w_0. Hashing a vector once for both the chain and its submission
        digest would bring the bytes near the ledger's size."""
        _, audit, _, size = counted
        assert (audit["sha256_bytes"], size) == (23647, 15143)

    def test_ecdsa_verifies(self, counted):
        """Each submission signature once, and w_0's: n·R + 1."""
        _, audit, _, _ = counted
        assert audit["verifies"] == N * R + 1 == 13

    def test_payload_reads_per_round(self, counted):
        """Per round 9 + 9n + |benign|: the blob length, magic, index and
        four table counts, two reads for the server aggregate, and per
        participant its id, length, vector and signature in the first
        table, its id and digest or id, length and vector in the
        aggregation tables, and its id, length and vector among the server
        masks. The genesis takes 5 + 3n and the header and masked model 4.
        One read per vector would cut the per-participant share."""
        _, audit, report, _ = counted
        benign = [len(ra.published_benign) for ra in report.rounds]
        assert audit["payload_reads"] == (5 + 3 * N) + 4 + sum(
            9 + 9 * N + b for b in benign
        ) == 165

    def test_deflation_divisions_per_round(self, counted):
        """One exact division of a masked product by its l_i per
        participant per round."""
        _, audit, _, _ = counted
        assert audit["divisions_per_round"] == [N] * R
