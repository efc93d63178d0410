"""Audit completeness and soundness from public bytes only."""
import ast
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from auditfl import full_audit
from auditfl.auditor import deflated_products, ranking_of
from auditfl.fixedpoint import Encoded, FpVector, dot, floor_div
from auditfl.records import GenesisPayload, RecordFormatError, TrainingRecord
from auditfl.training import AdversarySpec
from util import (
    first_round_with_benign,
    frame_ledger,
    load_chain,
    make_dataset,
    model_mask_oracle,
    read_payloads,
    rebuild_ledger,
    replay_aggregate,
    republish,
    round_products,
    run_published,
    server_dropping_in_threshold,
    server_skipping_benign,
    small_config,
    tamper_drop_mg2,
    tamper_flip_mg1,
    tamper_ledger_byte,
    tamper_masked_model,
    tamper_server_mask_off_multiple,
    tamper_swap_signatures,
    zero_share_oracle,
)


@pytest.fixture(scope="module")
def honest_run(tmp_path_factory):
    # seeds pinned to a run whose detection margins exceed 10^9 raw units in
    # every round, so the expected benign sets are stable
    tmp = tmp_path_factory.mktemp("auditrun")
    cfg = small_config(
        participants=4,
        rounds=3,
        master_seed=1009,
        malicious={2: AdversarySpec("sign_flip")},
    )
    result, internals, path = run_published(tmp, cfg, seed=9)
    return cfg, result, internals, path


class TestCompleteness:
    def test_honest_run_accepts(self, honest_run):
        _, _, _, path = honest_run
        report = full_audit(path)
        assert report.ok, report.failure
        assert report.n_records == 1

    def test_derived_sets_match_protocol_sets(self, honest_run):
        _, _, internals, path = honest_run
        report = full_audit(path)
        for info, ra in zip(internals, report.rounds):
            assert list(ra.detection_positive) == info.benign
            assert list(ra.published_benign) == info.benign

    def test_sign_flip_adversary_excluded(self, honest_run):
        _, result, _, path = honest_run
        report = full_audit(path)
        for ra in report.rounds:
            assert 2 not in ra.detection_positive

    def test_report_pure_function_of_bytes(self, honest_run):
        _, _, _, path = honest_run
        assert full_audit(path).to_json() == full_audit(path).to_json()

    def test_adversary_mixes_accept(self, tmp_path):
        # acceptance is universal: whatever detection decides, the published
        # record must audit cleanly
        mixes = [
            {},
            {1: AdversarySpec("label_flip")},
            {1: AdversarySpec("sign_flip"), 3: AdversarySpec("scale_amplify", factor=10)},
        ]
        for k, malicious in enumerate(mixes):
            cfg = small_config(participants=3, rounds=2, master_seed=200 + k,
                               malicious=malicious)
            _, _, path = run_published(tmp_path, cfg, seed=30 + k)
            report = full_audit(path)
            assert report.ok, report.failure


class TestAggregateReplay:
    def test_single_benign_white_box(self, tmp_path):
        # mag_r - m_r must equal the floor-average of server+benign gradients
        cfg = small_config(participants=1, rounds=1, master_seed=301)
        result, internals, path = run_published(tmp_path, cfg, seed=41)
        from auditfl.protocol import preprocess as prep

        secrets, _, _ = prep(cfg, result.w0.dim, result.w0)
        rec = result.record.rounds[0]
        mag = replay_aggregate(rec)
        info = internals[0]
        m_1 = model_mask_oracle(
            secrets.model_mask_seed, 1, result.w0.dim, cfg.scale, cfg.eta_parts()[1]
        )
        assert mag - m_1 == info.ag
        # independent floor-average oracle over the plaintext gradients
        if info.benign:
            total = info.g_s
            # reconstruct benign plaintexts: mg2 - zv
            for j in info.benign:
                ps = secrets.per_participant[j]
                zv = zero_share_oracle(ps.zero_seed, 1, result.w0.dim, cfg.scale)
                total = total + (FpVector.decode(rec.local_agg[j]) - zv)
            assert floor_div(total, len(info.benign) + 1) == info.ag

    def test_deterministic(self, honest_run):
        _, _, _, path = honest_run
        _, record, genesis = load_chain(path)
        rec = record.rounds[0]
        assert replay_aggregate(rec) == replay_aggregate(rec)


class TestTamperSoundness:
    def test_mg1_entry_flip_rejected(self, honest_run, tmp_path):
        cfg, result, _, path = honest_run
        work = tmp_path / "flip.bin"
        work.write_bytes(path.read_bytes())
        _, record, _ = load_chain(work)
        republish(work, tamper_flip_mg1(record))
        report = full_audit(work)
        assert not report.ok

    def test_mg2_drop_rejected(self, honest_run, tmp_path):
        cfg, result, _, path = honest_run
        work = tmp_path / "drop.bin"
        work.write_bytes(path.read_bytes())
        _, record, _ = load_chain(work)
        republish(work, tamper_drop_mg2(record))
        report = full_audit(work)
        assert not report.ok
        assert report.failure_stage in ("benign-set", "model-recovery")

    def test_masked_model_perturbation_rejected(self, honest_run, tmp_path):
        cfg, result, _, path = honest_run
        work = tmp_path / "mw.bin"
        work.write_bytes(path.read_bytes())
        _, record, _ = load_chain(work)
        republish(work, tamper_masked_model(record))
        report = full_audit(work)
        assert not report.ok
        assert report.failure_stage == "model-recovery"

    def test_signature_swap_rejected(self, honest_run, tmp_path):
        cfg, result, _, path = honest_run
        work = tmp_path / "sig.bin"
        work.write_bytes(path.read_bytes())
        _, record, _ = load_chain(work)
        republish(work, tamper_swap_signatures(record))
        report = full_audit(work)
        assert not report.ok
        assert report.failure_stage == "signature"

    def test_ledger_byte_flip_rejected_before_protocol_checks(
        self, honest_run, tmp_path
    ):
        cfg, result, _, path = honest_run
        work = tmp_path / "byte.bin"
        work.write_bytes(path.read_bytes())
        tamper_ledger_byte(work)
        report = full_audit(work)
        assert not report.ok
        assert report.failure_stage == "ledger"

    def test_server_skipping_benign_gradient_rejected(self, tmp_path):
        cfg = small_config(participants=3, rounds=2, master_seed=1051)
        _, internals, _ = run_published(tmp_path, cfg, seed=51)
        r, pid = first_round_with_benign(internals)
        with server_skipping_benign(r, pid):
            bad, _, path = run_published(tmp_path / "skip", cfg, seed=51)
        # the record still lists the skipped participant as benign
        assert pid in bad.record.rounds[r - 1].local_agg
        report = full_audit(path)
        assert not report.ok
        assert report.failure_stage == "model-recovery"

    def test_stored_vector_negation_flips_membership_and_fails(
        self, honest_run, tmp_path
    ):
        cfg, result, _, path = honest_run
        work = tmp_path / "neg.bin"
        work.write_bytes(path.read_bytes())
        _, record, _ = load_chain(work)
        republish(work, tamper_flip_mg1(record))
        # signature of the negated vector must now fail
        report = full_audit(work)
        assert report.failure_stage == "signature"
        pid = min(record.rounds[0].local_detect)
        assert report.failure == (
            f"round 1: submission signature of participant {pid} does not verify"
        )

    def test_server_mask_edit_off_the_multiple_of_l_rejected(
        self, honest_run, tmp_path
    ):
        # no signature covers mgS1_i, and the edit keeps the product's sign,
        # so the benign set and the aggregate are as published; only the
        # exact deflation by l_i sees that the product is not l_i * <g_i, g_S>
        _, _, _, path = honest_run
        work = tmp_path / "mgS1.bin"
        work.write_bytes(path.read_bytes())
        _, record, genesis = load_chain(work)
        tampered, pid = tamper_server_mask_off_multiple(record, genesis)
        republish(work, tampered)
        report = full_audit(work)
        assert (report.failure_stage, report.failure) == (
            "benign-set",
            f"round 1: masked detection product of participant {pid} is not "
            f"a multiple of its deflation factor l = {genesis.roster[pid][1]}",
        )


class TestClippingRanking:
    def test_ranking_matches_plaintext_oracle(self, honest_run):
        cfg, result, internals, path = honest_run
        _, record, genesis = load_chain(path)
        for info, rec in zip(internals, record.rounds):
            products = deflated_products(round_products(rec), genesis, rec.r)
            # white-box oracle: exact plaintext inner products
            assert products == info.dots
            assert all(type(p) is int for p in products.values())
            plaintext_order = tuple(
                pid
                for pid, _ in sorted(
                    info.dots.items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            assert ranking_of(products) == plaintext_order

    def test_amplifier_ranks_first(self, tmp_path):
        # pinned seeds: the amplified participant is benign-direction in
        # every round, so it must top every round's deflated ranking
        cfg = small_config(
            participants=4,
            rounds=2,
            master_seed=1009,
            malicious={3: AdversarySpec("scale_amplify", factor=10)},
        )
        result, internals, path = run_published(tmp_path, cfg, seed=9)
        rounds = full_audit(path).rounds
        assert len(rounds) == 2
        for ra, info in zip(rounds, internals):
            assert 3 in info.benign
            assert ra.ranking[0] == 3

    def test_tie_breaks_by_ascending_id(self):
        products = {5: 7, 2: 7, 9: 1}
        assert ranking_of(products) == (2, 5, 9)


class TestClippingMode:
    def test_clipped_record_audits_under_subset_rule(self, tmp_path):
        # an amplified gradient passes the sign test but is clipped, so the
        # published benign set is a strict subset of the sign-test-positive set;
        # with clipping declared in the genesis the audit must accept
        cfg = small_config(
            participants=4,
            rounds=2,
            master_seed=1009,
            clipping=True,
            clip_factor=2,
            malicious={3: AdversarySpec("scale_amplify", factor=50)},
        )
        result, internals, path = run_published(tmp_path, cfg, seed=9)
        clipped_rounds = [
            info.r for info in internals if 3 not in info.benign
        ]
        assert clipped_rounds, "amplifier was never clipped; test is vacuous"
        report = full_audit(path)
        assert report.ok, report.failure
        for info, ra in zip(internals, report.rounds):
            if info.r in clipped_rounds:
                assert 3 in ra.detection_positive
                assert 3 not in ra.published_benign

    def test_same_shape_without_clipping_flag_rejects(self, tmp_path):
        # dropping a positive-direction participant is only legitimate when
        # the task declared clipping; otherwise the set mismatch must reject
        cfg = small_config(
            participants=4,
            rounds=2,
            master_seed=1009,
            malicious={3: AdversarySpec("scale_amplify", factor=50)},
        )
        result, _, path = run_published(tmp_path, cfg, seed=9)
        _, record, _ = load_chain(path)
        republish(path, tamper_drop_mg2(record))
        report = full_audit(path)
        assert not report.ok
        assert report.failure_stage in ("benign-set", "model-recovery")

    @pytest.mark.parametrize("master_seed", [2003, 11, 7])
    def test_server_dropping_in_threshold_participant_rejected(
        self, tmp_path, master_seed
    ):
        # the lie looks like a clip, so only replaying the clip rule on the
        # deflated products can tell it from an honest record
        cfg = small_config(
            participants=5,
            rounds=3,
            master_seed=master_seed,
            clipping=True,
            malicious={3: AdversarySpec("scale_amplify", factor=8)},
        )
        _, _, path = run_published(tmp_path / "honest", cfg, seed=9)
        assert full_audit(path).ok
        with server_dropping_in_threshold() as dropped:
            _, _, lie_path = run_published(tmp_path / "lie", cfg, seed=9)
        assert dropped, "no benign participant to drop; test is vacuous"
        report = full_audit(lie_path)
        assert not report.ok
        assert report.failure_stage == "benign-set"


class TestModuleBoundary:
    def test_auditor_never_imports_secret_modules(self):
        # walk every in-package import reachable from the auditor, including
        # imports inside functions, so a helper module cannot carry one in
        import auditfl

        pkg = Path(auditfl.__file__).parent
        reached, todo = set(), ["auditor"]
        while todo:
            name = todo.pop()
            if name in reached or not (pkg / f"{name}.py").exists():
                continue  # seen, or a name imported from a module
            reached.add(name)
            tree = ast.parse((pkg / f"{name}.py").read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom):
                    mod = node.module or ""
                    if node.level == 1 and mod:
                        todo.append(mod.split(".")[0])
                    elif node.level == 1:  # from . import x
                        todo.extend(a.name for a in node.names)
                    elif mod.startswith("auditfl."):
                        todo.append(mod.split(".")[1])
                    elif mod == "auditfl":
                        todo.extend(a.name for a in node.names)
                elif isinstance(node, ast.Import):
                    todo.extend(
                        a.name.split(".")[1]
                        for a in node.names
                        if a.name.startswith("auditfl.")
                    )
        assert "records" in reached and "fixedpoint" in reached
        for forbidden in ("protocol", "randomness", "training", "config"):
            assert forbidden not in reached, sorted(reached)

    def test_cross_process_audit_same_verdict(self, honest_run):
        _, _, _, path = honest_run
        in_process = full_audit(path)
        code = (
            "import sys; from auditfl import full_audit; "
            f"r = full_audit({str(path)!r}); "
            "print('accept' if r.ok else 'reject'); sys.exit(0 if r.ok else 1)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert proc.stdout.strip() == ("accept" if in_process.ok else "reject")
        assert (proc.returncode == 0) == in_process.ok


class TestStructuredFailures:
    def test_unparseable_record_is_structured_rejection(self, tmp_path):
        from auditfl.ledger import Ledger

        p = tmp_path / "junk.bin"
        led = Ledger.create(p, b"not a genesis payload")
        led.append(b"not a training record")
        report = full_audit(p)
        assert not report.ok
        assert report.failure_stage == "genesis"

    def test_genesis_only_ledger_rejected(self, honest_run, tmp_path):
        # a ledger is the genesis and exactly one training record; without
        # the record no round of the task was audited
        from auditfl.ledger import Ledger

        _, _, _, path = honest_run
        genesis_bytes = read_payloads(path)[0]
        p = tmp_path / "only_genesis.bin"
        Ledger.create(p, genesis_bytes)
        report = full_audit(p)
        assert not report.ok and report.failure_stage == "metadata"
        assert report.n_records == 0 and report.rounds == []

    def test_flipped_scale_byte_in_server_mask_is_structure_rejection(
        self, tmp_path
    ):
        # server detection masks are unsigned, so a flipped scale byte passes
        # every signature and would otherwise reach the inner products
        cfg = small_config(participants=3, rounds=1, master_seed=1013)
        _, _, path = run_published(tmp_path, cfg, seed=9)
        genesis_bytes, record, genesis = load_chain(path)
        payload = bytearray(b"".join(record.encode()))
        vec = record.rounds[0].server_detect[min(record.rounds[0].server_detect)]
        at = payload.find(bytes(vec.data))
        assert at > 0 and payload[at + 8] == genesis.scale
        payload[at + 8] ^= 0x80
        rebuild_ledger(path, genesis_bytes, [bytes(payload)])
        report = full_audit(path)
        assert not report.ok
        assert report.failure_stage == "structure"

    @pytest.mark.parametrize(
        "overrides, raw0",
        [
            # the aggregation replay overflows in audit_aggregate
            ({}, (1 << 63) - 1),
            # the aggregates fit, but eta * aggregate does not in audit_trace
            ({"eta": "7/8", "scale": 16}, (1 << 63) - 1 - (1 << 44)),
        ],
        ids=["aggregate", "trace"],
    )
    def test_overflowing_server_aggregate_is_structure_rejection(
        self, tmp_path, overrides, raw0
    ):
        # the server aggregate is unsigned, so a republished record can put
        # any int64 there; the replay must reject it, not raise
        import dataclasses

        _, _, path = run_published(tmp_path, small_config(**overrides))
        _, record, _ = load_chain(path)
        rec = record.rounds[0]
        raw = FpVector.decode(rec.server_agg).raw.copy()
        raw[0] = raw0
        agg = FpVector(raw, rec.server_agg.scale).encode()
        rounds = (dataclasses.replace(rec, server_agg=agg),) + record.rounds[1:]
        republish(path, dataclasses.replace(record, rounds=rounds))
        report = full_audit(path)
        assert not report.ok
        assert report.failure_stage == "structure"
        assert "overflows int64" in report.failure

    def test_nonpositive_deflation_rejected(self, honest_run):
        # l_i is a u32 in the genesis roster: a negative factor has no
        # encoding, and zero, its one non-positive value, does not decode
        import dataclasses

        _, _, _, path = honest_run
        _, _, genesis = load_chain(path)
        first = min(genesis.roster)
        pk = genesis.roster[first][0]
        negative = {**genesis.roster, first: (pk, -1)}
        with pytest.raises(struct.error):
            dataclasses.replace(genesis, roster=negative).encode()
        zero = dataclasses.replace(genesis, roster={**genesis.roster, first: (pk, 0)})
        with pytest.raises(RecordFormatError, match="deflation factor l = 0"):
            GenesisPayload.decode(b"".join(zero.encode()))

    def test_zero_denominator_deflation_rejected(self, honest_run, tmp_path):
        # the audit divides each masked product by l_i; a zero l_i is
        # rejected at stage genesis, before any round is read
        import dataclasses

        _, _, _, path = honest_run
        work = tmp_path / "l0.bin"
        work.write_bytes(path.read_bytes())
        _, record, genesis = load_chain(work)
        first = min(genesis.roster)
        roster = {**genesis.roster, first: (genesis.roster[first][0], 0)}
        bad = b"".join(dataclasses.replace(genesis, roster=roster).encode())
        rebuild_ledger(work, bad, [b"".join(record.encode())])
        report = full_audit(work)
        assert not report.ok and report.failure_stage == "genesis"
        assert f"roster id {first} has deflation factor l = 0" in report.failure

    @pytest.mark.parametrize(
        "clipping_byte, eta, failure",
        [
            (2, None, "clipping byte 2 is not 0 or 1"),
            (255, None, "clipping byte 255 is not 0 or 1"),
            (None, (2, 4), "learning rate 2 / 2^4 is not positive and in lowest terms"),
            (None, (0, 0), "learning rate 0 / 2^0 is not positive and in lowest terms"),
            (None, (-1, 3), "learning rate -1 / 2^3 is not positive and in lowest terms"),
        ],
        ids=["clipping-2", "clipping-255", "rate-2/16", "rate-0", "rate-negative"],
    )
    def test_genesis_has_one_encoding(self, tmp_path, clipping_byte, eta, failure):
        # a clipping flag byte other than 0 or 1, or a rate not in lowest
        # terms (the record's metadata moved with it), is the same task in
        # another encoding; the audit rejects it at stage genesis
        import dataclasses

        from spec_reader import SpecError, read_ledger

        cfg = small_config(participants=4, rounds=2, clipping=True)
        _, _, path = run_published(tmp_path, cfg, seed=5)
        _, record, genesis = load_chain(path)
        assert (genesis.eta_num, genesis.eta_exp) == (1, 3)
        if eta is not None:
            genesis = dataclasses.replace(genesis, eta_num=eta[0], eta_exp=eta[1])
            record = dataclasses.replace(record, eta_num=eta[0], eta_exp=eta[1])
        genesis_bytes = bytearray(b"".join(genesis.encode()))
        if clipping_byte is not None:
            # magic 4 | version u16 | rounds u32 | eta_num i64 | eta_exp u8 |
            # dim u64 | scale u8 | clipping u8
            assert genesis_bytes[28] == 1
            genesis_bytes[28] = clipping_byte
        rebuild_ledger(path, bytes(genesis_bytes), [b"".join(record.encode())])
        report = full_audit(path)
        assert (report.failure_stage, report.failure) == (
            "genesis", f"genesis payload does not parse: genesis payload: {failure}"
        )
        with pytest.raises(SpecError, match="genesis: (clipping byte|learning rate)"):
            read_ledger(path.read_bytes())


    @pytest.mark.parametrize("bad_key", ["off-curve", "zero"])
    def test_unparseable_roster_key_fails_that_participants_signature(
        self, honest_run, tmp_path, bad_key
    ):
        # a roster key is parsed once per audit; one that is not a curve
        # point verifies nothing, so that participant fails at `signature`
        import dataclasses

        _, _, _, path = honest_run
        work = tmp_path / "key.bin"
        work.write_bytes(path.read_bytes())
        _, record, genesis = load_chain(work)
        pid = max(genesis.roster)
        pk, l = genesis.roster[pid]
        p256 = 2**256 - 2**224 + 2**192 + 2**96 - 1
        y = (int.from_bytes(pk[32:], "big") + 1) % p256
        bad = {"off-curve": pk[:32] + y.to_bytes(32, "big"), "zero": bytes(64)}[bad_key]
        roster = {**genesis.roster, pid: (bad, l)}
        genesis_bytes = b"".join(dataclasses.replace(genesis, roster=roster).encode())
        rebuild_ledger(work, genesis_bytes, [b"".join(record.encode())])
        report = full_audit(work)
        assert report.failure_stage == "signature"
        assert report.failure == (
            f"round 1: submission signature of participant {pid} does not verify"
        )


def _widened(vec: Encoded) -> Encoded:
    """The vector encoded one byte wider than its least width."""
    width = vec.width + 1
    body = b"".join(int(x).to_bytes(width, "little", signed=True)
                    for x in FpVector.decode(vec).raw.tolist())
    return Encoded(struct.pack("<QBB", vec.dim, vec.scale, width) + body,
                   vec.dim, vec.scale, width)


# each published vector slot: how to read it from a record, and how to put
# another vector in its place
VECTOR_SLOTS = {
    "mg1": (
        lambda rec: rec.rounds[0].local_detect[1][0],
        lambda rnd, v: {"local_detect": {**rnd.local_detect, 1: (v, rnd.local_detect[1][1])}},
    ),
    "mgS1": (
        lambda rec: rec.rounds[0].server_detect[1],
        lambda rnd, v: {"server_detect": {**rnd.server_detect, 1: v}},
    ),
    "mgS2": (
        lambda rec: rec.rounds[0].server_agg,
        lambda rnd, v: {"server_agg": v},
    ),
    "mw": (lambda rec: rec.masked_model, None),
}


class TestVectorEncodingRejected:
    """A vector whose width byte is outside 1..8, whose length disagrees
    with its header, or whose width is not the least one is a structured
    `record-format` rejection, in every slot, never an exception."""

    @pytest.fixture(scope="class")
    def ledger(self, tmp_path_factory):
        cfg = small_config(participants=3, rounds=2, master_seed=1013)
        _, _, path = run_published(tmp_path_factory.mktemp("encoding"), cfg, seed=9)
        return path

    @pytest.mark.parametrize("slot", VECTOR_SLOTS)
    @pytest.mark.parametrize("defect", ["width-0", "width-9", "wider-header", "truncated"])
    def test_header_and_length_defects(self, ledger, tmp_path, slot, defect):
        work = tmp_path / "work.bin"
        work.write_bytes(ledger.read_bytes())
        genesis_bytes, record, _ = load_chain(work)
        vec = VECTOR_SLOTS[slot][0](record)
        payload = bytearray(b"".join(record.encode()))
        at = payload.find(bytes(vec.data))
        assert at > 0 and payload[at + 9] == vec.width < 8
        if defect == "truncated":
            # one raw byte short, the blob's length prefix re-counted
            del payload[at + len(vec) - 1]
            payload[at - 4 : at] = struct.pack("<I", len(vec) - 1)
        else:
            payload[at + 9] = {"width-0": 0, "width-9": 9}.get(defect, vec.width + 1)
        rebuild_ledger(work, genesis_bytes, [bytes(payload)])
        report = full_audit(work)
        assert report.failure_stage == "record-format", report.failure
        expected = "outside 1..8" if defect.startswith("width") else "length"
        assert expected in report.failure and report.rounds == []

    @pytest.mark.parametrize("slot", ["mgS1", "mgS2", "mw"])
    def test_width_not_minimal(self, ledger, tmp_path, slot):
        # the server's vectors are unsigned, so a re-encoded one reaches the
        # decoder; it rejects the width once it has read the raws
        import dataclasses

        work = tmp_path / "work.bin"
        work.write_bytes(ledger.read_bytes())
        _, record, _ = load_chain(work)
        get, put = VECTOR_SLOTS[slot]
        wide = _widened(get(record))
        assert Encoded.parse(wide.data).width == wide.width  # header and length hold
        if put is None:
            record = dataclasses.replace(record, masked_model=wide)
        else:
            first = dataclasses.replace(record.rounds[0], **put(record.rounds[0], wide))
            record = dataclasses.replace(record, rounds=(first,) + record.rounds[1:])
        republish(work, record)
        report = full_audit(work)
        assert report.failure_stage == "record-format", report.failure
        assert "is not minimal" in report.failure

    def test_signed_vector_width_not_minimal_fails_its_signature(self, ledger, tmp_path):
        # a participant's vector is signed as its canonical bytes, so any
        # other encoding of it no longer matches its signature
        import dataclasses

        work = tmp_path / "work.bin"
        work.write_bytes(ledger.read_bytes())
        _, record, _ = load_chain(work)
        get, put = VECTOR_SLOTS["mg1"]
        first = dataclasses.replace(
            record.rounds[0], **put(record.rounds[0], _widened(get(record)))
        )
        republish(work, dataclasses.replace(record, rounds=(first,) + record.rounds[1:]))
        assert full_audit(work).failure_stage == "signature"


@pytest.fixture(scope="module")
def three_round_run(tmp_path_factory):
    cfg = small_config(participants=3, rounds=3, master_seed=1021)
    _, _, path = run_published(tmp_path_factory.mktemp("failrun"), cfg, seed=9)
    return path


def _missing_file(work):
    return work.parent / "absent.bin"


def _junk_block(work):
    genesis_bytes, _, _ = load_chain(work)
    rebuild_ledger(work, genesis_bytes, [b"junk"])
    return work


def _record_twice(work):
    genesis_bytes, record, _ = load_chain(work)
    record_bytes = b"".join(record.encode())
    work.write_bytes(frame_ledger([genesis_bytes, record_bytes, record_bytes]))
    return work


def _nonzero_timestamp(work):
    payloads = read_payloads(work)
    assert frame_ledger(payloads) == work.read_bytes()  # re-framing alone changes nothing
    work.write_bytes(frame_ledger(payloads, timestamp=7))
    return work


def _last_round_dropped(work):
    import dataclasses

    _, record, _ = load_chain(work)
    republish(work, dataclasses.replace(record, rounds=record.rounds[:-1]))
    return work


def _second_round_mg1_flipped(work):
    _, record, _ = load_chain(work)
    republish(work, tamper_flip_mg1(record, r_idx=1))
    return work


class TestFailureReports:
    """A rejected report still says how far the audit got: the failing stage,
    how many training records it reached and which rounds passed before the
    failing one."""

    @pytest.mark.parametrize(
        "make, stage, n_records, rounds",
        [
            (_missing_file, "ledger", 0, []),
            (_junk_block, "record-format", 0, []),
            (_nonzero_timestamp, "ledger", 0, []),
            (_record_twice, "metadata", 0, []),
            (_last_round_dropped, "metadata", 1, []),
            (_second_round_mg1_flipped, "signature", 1, [1]),
        ],
        ids=["missing-file", "junk-block", "timestamp", "record-twice", "round-dropped",
             "mg1-flip"],
    )
    def test_rejected_report_fields(
        self, three_round_run, tmp_path, make, stage, n_records, rounds
    ):
        work = tmp_path / "work.bin"
        work.write_bytes(three_round_run.read_bytes())
        report = full_audit(make(work))
        assert not report.ok
        assert report.failure_stage == stage, report.failure
        assert report.n_records == n_records
        assert [ra.r for ra in report.rounds] == rounds

    def test_report_does_not_depend_on_the_path(self, tmp_path):
        (tmp_path / "elsewhere").mkdir()
        a, b = tmp_path / "a.bin", tmp_path / "elsewhere" / "b.bin"
        for p in (a, b):
            p.write_bytes(b"not a ledger at all")
        assert full_audit(a).to_json() == full_audit(b).to_json()
        assert "bin" not in full_audit(a).failure
        missing_a = full_audit(tmp_path / "absent-a.bin")
        missing_b = full_audit(tmp_path / "elsewhere" / "absent-b.bin")
        assert missing_a.failure_stage == "ledger"
        assert missing_a.to_json() == missing_b.to_json()


class TestStreamedAudit:
    def test_audit_peak_does_not_grow_with_rounds(self, tmp_path):
        # the audit holds one round of the record at a time, so its peak at
        # R=12 exceeds its peak at R=3 by less than one round blob
        peaks, blob = {}, 0
        for rounds in (3, 12):
            cfg = small_config(participants=4, rounds=rounds)
            _, _, path = run_published(
                tmp_path / str(rounds), cfg, seed=5, features=256, classes=8
            )
            _, record, _ = load_chain(path)
            blob = max(blob, *(sum(map(len, rec.encode())) for rec in record.rounds))
            assert full_audit(path).ok  # warm-up: imports and per-process tables
            tracemalloc.start()
            try:
                report = full_audit(path)
                _, peaks[rounds] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.ok
        assert peaks[12] - peaks[3] < blob

    def test_audit_holds_only_the_detection_masks_of_a_round(self, tmp_path):
        # each vector is checked where the stream hands it out and dropped,
        # save each participant's detection mask, held until the server's
        # mask for it is read: 8 more participants of the same dimension
        # raise the peak by at most their 8 detection masks, plus 512 bytes
        # each for digests, signatures and table entries
        peaks, mg1 = {}, 0
        for n in (4, 12):
            cfg = small_config(participants=n, rounds=2, batch_size=32)
            _, _, path = run_published(
                tmp_path / str(n), cfg, seed=5, features=256, classes=8
            )
            _, record, _ = load_chain(path)
            mg1 = max(mg1, *(
                len(v) for rec in record.rounds for v, _ in rec.local_detect.values()
            ))
            assert full_audit(path).ok  # warm-up: imports and per-process tables
            tracemalloc.start()
            try:
                report = full_audit(path)
                _, peaks[n] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert report.ok
        # here 8 masks and 3 kB; holding the round's every vector, 36 masks
        assert peaks[12] - peaks[4] <= 8 * mg1 + 8 * 512


def _defects(work):
    """The honest ledger's payloads and record, and defective payloads:
    round 1's first detection mask negated (a bad signature), round 2's
    stored index changed (a record-format defect), and the masked model
    widened (a record-format defect of the masked model)."""
    import dataclasses

    genesis_bytes, record, _ = load_chain(work)
    bad_sig = tamper_flip_mg1(record, r_idx=0)
    bad_index = dataclasses.replace(bad_sig.rounds[1], r=7)
    return {
        "genesis": bytes(genesis_bytes),
        "record": b"".join(record.encode()),
        "sig": b"".join(bad_sig.encode()),
        "sig+format": b"".join(
            dataclasses.replace(
                bad_sig, rounds=(bad_sig.rounds[0], bad_index, *bad_sig.rounds[2:])
            ).encode()
        ),
        "sig+model": b"".join(
            dataclasses.replace(bad_sig, masked_model=_widened(record.masked_model)).encode()
        ),
        "sig+dropped": b"".join(
            dataclasses.replace(bad_sig, rounds=bad_sig.rounds[:-1]).encode()
        ),
    }


_SIG_FAILURE = "round 1: submission signature of participant 1 does not verify"


def _format_then_chain_break(work):
    # block 1 has a record-format defect in round 2 and, at its end, a
    # payload digest that does not match: the chain break is found last
    p = _defects(work)
    data = bytearray(frame_ledger([p["genesis"], p["record"]]))
    at = data.index(p["record"])
    data[at : at + len(p["record"])] = p["sig+format"]
    return data


def _sig_then_format(work):
    p = _defects(work)
    return frame_ledger([p["genesis"], p["sig+format"]])


def _sig_then_masked_model(work):
    # the masked model comes last in the record but is checked before the rounds
    p = _defects(work)
    return frame_ledger([p["genesis"], p["sig+model"]])


def _metadata_then_sig(work):
    p = _defects(work)
    return frame_ledger([p["genesis"], p["sig+dropped"]])


def _format_then_third_block(work):
    p = _defects(work)
    return frame_ledger([p["genesis"], p["sig+format"], b"third"])


def _format_then_broken_third_block(work):
    p = _defects(work)
    data = bytearray(frame_ledger([p["genesis"], p["sig+format"], b"third"]))
    data[data.rindex(b"third")] ^= 0x01
    return data


def _genesis_then_third_block(work):
    p = _defects(work)
    return frame_ledger([b"not a genesis", p["sig+format"], b"third"])


class TestVerdictPrecedence:
    """Two defects in one ledger: the audit streams the file once and
    reports the first defect in file order, except that a broken chain
    anywhere wins, since a block's digest is checked only once the stream
    has passed it (see `full_audit`)."""

    @pytest.mark.parametrize(
        "make, stage, failure, n_records, rounds",
        [
            (_format_then_chain_break, "ledger", "hash chain broken at height 1", 0, []),
            (_sig_then_format, "signature", _SIG_FAILURE, 1, []),
            (_sig_then_masked_model, "signature", _SIG_FAILURE, 1, []),
            (_metadata_then_sig, "metadata", "record holds 2 rounds, task declared 3", 1, []),
            (_format_then_third_block, "signature", _SIG_FAILURE, 1, []),
            (_format_then_broken_third_block, "ledger", "hash chain broken at height 2", 0, []),
            (
                _genesis_then_third_block,
                "genesis",
                "genesis payload does not parse: genesis payload: bad magic",
                0,
                [],
            ),
        ],
        ids=["format-then-chain-break", "signature-then-format", "signature-then-masked-model",
             "metadata-then-signature", "format-then-third-block",
             "format-then-broken-third-block", "genesis-then-third-block"],
    )
    def test_higher_precedence_wins(
        self, three_round_run, tmp_path, make, stage, failure, n_records, rounds
    ):
        work = tmp_path / "work.bin"
        work.write_bytes(three_round_run.read_bytes())
        work.write_bytes(bytes(make(work)))
        report = full_audit(work)
        assert (report.failure_stage, report.failure) == (stage, failure)
        assert report.n_records == n_records
        assert [ra.r for ra in report.rounds] == rounds

    def test_signature_failure_alone(self, three_round_run, tmp_path):
        # the baseline of the table: the bad signature on its own
        work = tmp_path / "work.bin"
        work.write_bytes(three_round_run.read_bytes())
        p = _defects(work)
        work.write_bytes(frame_ledger([p["genesis"], p["sig"]]))
        report = full_audit(work)
        assert report.failure_stage == "signature"
        assert report.failure.startswith("round 1: submission signature of participant")
        assert report.n_records == 1 and report.rounds == []

    def test_no_round_is_decoded_after_the_first_defect(
        self, three_round_run, tmp_path, monkeypatch
    ):
        # round 1 fails its signature check, which runs once its aggregation
        # tables are read: its server masks and rounds 2 and 3 are read and
        # hashed with the rest of the block, but never parsed
        from auditfl import records

        work = tmp_path / "work.bin"
        work.write_bytes(three_round_run.read_bytes())
        p = _defects(work)
        work.write_bytes(frame_ledger([p["genesis"], p["sig"]]))
        parsed = []
        read_table = records._read_table

        def logged(r, name, entry):
            parsed.append(name)  # when the parse reaches the table
            yield from read_table(r, name, entry)

        monkeypatch.setattr(records, "_read_table", logged)
        assert full_audit(work).failure == _SIG_FAILURE
        assert parsed == [
            "roster", "detect masks", "aggregation masks", "aggregation digests"
        ]


class TestRecordFuzz:
    def test_seeded_bit_flips_pin_their_verdicts(self, tmp_path):
        # 2000 single-bit flips of a training record, each re-framed so that
        # the chain verifies and a record check has to catch it. The
        # histogram pins what the audit decides on each: a change of stage
        # or order shows here. No signature covers the server vectors, and
        # a flip in them passes only where no check reads it: in the server
        # aggregate mgS2, or in a raw of a detection mask mgS1_i whose
        # mg1_i raw is 0, which leaves the masked product as it was (README,
        # "What the audit rejects").
        import collections
        import random

        cfg = small_config(participants=4, rounds=2)
        _, _, path = run_published(tmp_path, cfg, seed=5)
        genesis_bytes, record, _ = load_chain(path)
        parts = record.encode()
        spans, off = [], 0  # (start, end, round record, server vector, id or None)
        server = {}
        for rec in record.rounds:
            server[id(rec.server_agg.data)] = rec, rec.server_agg, None
            for pid, vec in rec.server_detect.items():
                server[id(vec.data)] = rec, vec, pid
        for part in parts:
            n = memoryview(part).nbytes
            if id(part) in server:
                spans.append((off, off + n, *server[id(part)]))
            off += n
        payload = b"".join(parts)
        rng = random.Random(2024)
        work = tmp_path / "flipped.bin"
        verdicts = collections.Counter()
        for _ in range(2000):
            data = bytearray(payload)
            at = rng.randrange(len(data))
            data[at] ^= 1 << rng.randrange(8)
            work.write_bytes(frame_ledger([genesis_bytes, bytes(data)]))
            report = full_audit(work)
            verdicts["accept" if report.ok else report.failure_stage] += 1
            if report.ok:
                [(start, _, rec, vec, pid)] = [s for s in spans if s[0] <= at < s[1]]
                if pid is not None:  # past the 10-byte header, in raw k of mgS1_pid
                    assert at - start >= 10
                    k = (at - start - 10) // vec.width
                    assert FpVector.decode(rec.local_detect[pid][0]).raw[k] == 0
        assert dict(verdicts) == {
            "signature": 1225,
            "accept": 16,
            "benign-set": 439,
            "model-recovery": 208,
            "record-format": 84,
            "structure": 23,
            "metadata": 5,
        }
