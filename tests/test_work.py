"""Exact work counts of one published run and of its audit.

Timings on a shared host drift by about 15%; these counts do not. Each is
taken by wrapping a seam (a module function or a method) around one
`small_config` run and one `full_audit` of its ledger, and is pinned
exactly, so a change that does more or less work shows here even where a
timing cannot resolve it. Each test's docstring says what moves its count.
"""
import collections
import sys

import pytest

from auditfl import auditor, crypto, full_audit, ledger, protocol
from util import run_published, sign_flip_spec, small_config

N, R = 4, 3


def _counting(counts, name, fn, units=lambda *args: 1):
    def wrapped(*args, **kwargs):
        counts[name] += units(*args)
        return fn(*args, **kwargs)

    return wrapped


def _nbytes(*parts) -> int:
    return sum(memoryview(p).nbytes for p in parts)


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


@pytest.fixture(scope="module")
def counted(tmp_path_factory):
    """(run counts, audit counts, audit report, ledger size in bytes)."""
    cfg = small_config(participants=N, rounds=R, malicious={2: sign_flip_spec()})
    run, audit = collections.Counter(), collections.Counter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(crypto, "sign", _counting(run, "signs", crypto.sign))
        mp.setattr(crypto, "verify", _counting(run, "verifies", crypto.verify))
        mp.setattr(protocol, "masked_forms",
                   _counting(run, "masked_forms", protocol.masked_forms))
        _, _, path = run_published(tmp_path_factory.mktemp("work"), cfg)
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

    def test_masked_forms_per_submission(self, counted):
        """Two per submission: the participant derives its masked forms to
        sign them, and the server derives them again to check them. Sending
        the forms once would make it one."""
        run, _, _, _ = counted
        assert run["masked_forms"] == 2 * N * R == 24


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
