"""Protocol state machine: preprocessing, rounds, aggregation, publication."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from auditfl import ConfigError, RunConfig, crypto, full_audit
from auditfl.crypto import sha256
from auditfl.fixedpoint import (
    INT64_MAX,
    Encoded,
    FixedPointOverflowError,
    FpVector,
    dot,
    floor_div,
    hadamard,
    scale_by_dyadic,
)
from auditfl.ledger import Ledger
from auditfl.protocol import (
    Participant,
    Server,
    Submission,
    masked_forms,
    preprocess,
    robust_aggregate,
    run_training,
    sign_group,
)
from auditfl.randomness import derive_seed, prg, sign_vector
from auditfl.records import submission_message, vector_digest
from auditfl.training import AdversarySpec, Architecture, DatasetError, corrupt_gradient
from util import (
    frame_ledger,
    make_dataset,
    masked_forms_oracle,
    model_mask_oracle,
    observed_rounds,
    read_payloads,
    run_published,
    run_with_internals,
    sign_oracle,
    small_config,
    stale_mask_signer,
    zero_share_oracle,
)


def _vec(vals, scale=20):
    return FpVector(np.array(vals, dtype=np.int64), scale)


class TestPreprocess:
    def test_twenty_distinct_tuples(self):
        cfg = small_config(participants=20, rounds=2)
        w0 = FpVector.zeros(6, cfg.scale)
        secrets, parts, genesis = preprocess(cfg, 6, w0)
        assert len(parts) == 20
        assert len({p.mask_seed for p in parts}) == 20
        assert len({(p.id, p.rn) for p in parts}) == 20
        assert all(l > 0 for _, l in genesis.roster.values())
        assert len(genesis.roster) == 20

    def test_genesis_signature_verifies(self):
        cfg = small_config()
        w0 = FpVector.from_floats([0.5, -0.25, 0.125], cfg.scale)
        _, _, genesis = preprocess(cfg, 3, w0)
        server_key = crypto.public_key(genesis.server_pk)
        assert crypto.verify(server_key, [w0.encode().data], genesis.w0_signature)

    def test_same_master_seed_same_secrets(self):
        cfg = small_config()
        w0 = FpVector.zeros(4, cfg.scale)
        s1, p1, g1 = preprocess(cfg, 4, w0)
        s2, p2, g2 = preprocess(cfg, 4, w0)
        assert p1 == p2
        assert s1 == s2
        assert g1.encode() == g2.encode()

    def test_l_consistency(self):
        cfg = small_config(participants=8)
        secrets, parts, genesis = preprocess(cfg, 4, FpVector.zeros(4, cfg.scale))
        for p in parts:
            assert p.rn * secrets.rn_server[p.id] == genesis.roster[p.id][1]

    def test_memory_does_not_grow_with_rounds(self):
        # the model mask is drawn round by round, not at preprocessing
        cfg = RunConfig(participants=3, rounds=2000)
        w0 = FpVector.zeros(1000, cfg.scale)
        preprocess(cfg, 1000, w0)  # warm-up: imports and per-process tables
        tracemalloc.start()
        try:
            preprocess(cfg, 1000, w0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMaskedForms:
    def _setup(self):
        cfg = small_config(participants=2)
        dim = 12
        secrets, parts, _ = preprocess(cfg, dim, FpVector.zeros(dim, cfg.scale))
        g = FpVector((prg(4, dim) % np.uint64(4001)).astype(np.int64) - 2000, cfg.scale)
        return cfg, secrets, parts, g

    def test_matches_prvg_and_zero_share_oracles(self):
        _, _, parts, g = self._setup()
        ps = parts[0]
        for r in (1, 2):
            bits, mg1, zv, mg2 = masked_forms([ps], [g], r)
            assert bits.shape == mg1.shape == zv.shape == mg2.shape == (1, g.dim)
            # PRVG: the round's sign stream scaled by rn_i
            rv = sign_vector(derive_seed(ps.mask_seed, "prvg", r), g.dim) * ps.rn
            assert np.array_equal((1 - 2 * bits[0].astype(np.int64)) * ps.rn, rv)
            assert FpVector(mg1[0], g.scale) == hadamard(g, rv)
            assert FpVector(zv[0], g.scale) == zero_share_oracle(ps.zero_seed, r, g.dim, g.scale)
            assert FpVector(mg2[0], g.scale) == FpVector(zv[0], g.scale) + g

    def test_participant_signs_and_server_verifies_the_same_forms(self):
        cfg, secrets, parts, g = self._setup()
        arch = Architecture(3, 3)
        w0 = FpVector.zeros(arch.param_count, cfg.scale)
        server = Server(cfg, secrets, arch, make_dataset(1, 20, 3, 3), w0)
        ps = parts[1]
        sub, = sign_group([Participant(ps, make_dataset(2, 20, 3, 3))], [g], [0.0], 3)
        signs, mg1, _, mg2 = masked_forms_oracle(ps, g, 3)
        # the submission carries both forms' canonical bytes, and one
        # signature over the round, the id and their digests
        mg1, mg2 = mg1.encode(), mg2.encode()
        assert (bytes(sub.mg1), bytes(sub.mg2)) == (bytes(mg1.data), bytes(mg2.data))
        message = submission_message(3, ps.id, vector_digest(mg1), vector_digest(mg2))
        assert crypto.verify(ps.keypair.public, message, sub.signature)
        g_s = FpVector((prg(5, g.dim) % np.uint64(4001)).astype(np.int64) - 2000, cfg.scale)
        (v, detect), = server.verify_group([sub], g_s, 3)
        assert (v.sub, v.mg1, v.mg2) == (sub, mg1, mg2)
        assert detect == hadamard(g_s, signs * secrets.rn_server[ps.id]).encode()
        # signatures bind the round: the same submission fails in round 4
        assert server.verify_group([sub], g_s, 4) == []


def _group(dim: int, n: int = 6):
    """n participants' secrets, members and gradients at dimension dim, a
    server holding the run's secrets, and a server gradient. Member 1
    flips its gradient's sign and member 3 amplifies it."""
    cfg = small_config(participants=n)
    secrets, parts, _ = preprocess(cfg, dim, FpVector.zeros(dim, cfg.scale))
    shard = make_dataset(2, 20, 3, 3)
    attacks = {1: AdversarySpec("sign_flip"), 3: AdversarySpec("scale_amplify")}
    members = [Participant(ps, shard, attacks.get(j)) for j, ps in enumerate(parts)]
    gradients = [
        corrupt_gradient(FpVector((prg(50 + j, dim) % np.uint64(1 << 21)).astype(np.int64)
                                  - (1 << 20), cfg.scale), m.adversary)
        for j, m in enumerate(members)
    ]
    server = Server(cfg, secrets, Architecture(3, 3), shard, FpVector.zeros(dim, cfg.scale))
    g_s = FpVector((prg(49, dim) % np.uint64(1 << 21)).astype(np.int64) - (1 << 20), cfg.scale)
    return secrets, parts, members, gradients, server, g_s


def _resigned(ps, r: int, g: FpVector, mg1: bytes, mg2: bytes) -> Submission:
    """A submission of g with the given bytes, validly signed over them."""
    message = submission_message(r, ps.id, sha256(mg1), sha256(mg2))
    return Submission(ps.id, g, 0.0, mg1, mg2, crypto.sign(ps.keypair, message))


def _widened(vec: Encoded) -> bytes:
    """The vector's encoding one byte wider than its least width."""
    raws = FpVector.decode(vec).raw
    body = raws.astype("<i8").view(np.uint8).reshape(-1, 8)[:, : vec.width + 1]
    header = vec.dim.to_bytes(8, "little") + bytes([vec.scale, vec.width + 1])
    return header + body.tobytes()


class TestGroupedRound:
    """A group's masked forms are derived, encoded, signed and verified as
    one stack; every row is what its participant's forms are alone."""

    R = 2

    @pytest.mark.parametrize("dim", [10, 1010, 7850])
    def test_every_row_equals_the_one_participant_oracles(self, dim):
        secrets, parts, members, gradients, server, g_s = _group(dim, 5)
        oracles = [masked_forms_oracle(ps, g, self.R) for ps, g in zip(parts, gradients)]
        for size in range(1, 6):
            bits, mg1, zv, mg2 = masked_forms(parts[:size], gradients[:size], self.R)
            for j, (signs, o_mg1, o_zv, o_mg2) in enumerate(oracles[:size]):
                assert np.array_equal(1 - 2 * bits[j].astype(np.int64), signs)
                assert [mg1[j].tolist(), zv[j].tolist(), mg2[j].tolist()] == [
                    o_mg1.raw.tolist(), o_zv.raw.tolist(), o_mg2.raw.tolist()]
            subs = sign_group(members[:size], gradients[:size], [0.5] * size, self.R)
            checked = server.verify_group(subs, g_s, self.R)
            assert [v.sub.id for v, _ in checked] == [ps.id for ps in parts[:size]]
            for sub, (v, detect), (signs, o_mg1, _, o_mg2), ps in zip(
                subs, checked, oracles, parts
            ):
                assert FpVector.decode(sub.mg1) == o_mg1
                assert FpVector.decode(sub.mg2) == o_mg2
                assert (v.mg1, v.mg2) == (o_mg1.encode(), o_mg2.encode())
                assert detect == hadamard(g_s, signs * secrets.rn_server[ps.id]).encode()

    def test_an_overflowing_member_raises_its_own_message(self):
        secrets, parts, members, gradients, server, g_s = _group(10, 5)
        # members 2 and 4 overflow mg1 = g * rn; member 2 comes first
        big = [g.raw.copy() for g in gradients]
        big[2][7], big[4][1] = 1 << 60, -(1 << 61)
        gradients = [FpVector(raw, g.scale) for raw, g in zip(big, gradients)]
        with pytest.raises(FixedPointOverflowError) as alone:
            masked_forms([parts[2]], [gradients[2]], self.R)
        assert "mask product overflows int64 at index 7" in str(alone.value)
        with pytest.raises(FixedPointOverflowError) as grouped:
            masked_forms(parts, gradients, self.R)
        assert str(grouped.value) == str(alone.value)
        with pytest.raises(FixedPointOverflowError) as signed:
            sign_group(members, gradients, [0.0] * 5, self.R)
        assert str(signed.value) == str(alone.value)
        subs = [Submission(ps.id, g, 0.0, b"", b"", b"") for ps, g in zip(parts, gradients)]
        with pytest.raises(FixedPointOverflowError) as verified:
            server.verify_group(subs, g_s, self.R)
        assert str(verified.value) == str(alone.value)

    def test_a_group_past_its_bound_that_fits_gives_the_oracle_rows(self):
        # a raw that overflows against the group's largest |rn| but not
        # against its own member's, so the group is masked row by row
        secrets, parts, members, gradients, server, g_s = _group(10, 5)
        rn = [abs(ps.rn) for ps in parts]
        low = rn.index(min(rn))
        assert min(rn) < max(rn)
        raw = gradients[low].raw.copy()
        raw[3] = -(INT64_MAX // max(rn) + 1)
        gradients[low] = FpVector(raw, gradients[low].scale)
        _, mg1, _, mg2 = masked_forms(parts, gradients, self.R)
        for j, (ps, g) in enumerate(zip(parts, gradients)):
            _, o_mg1, _, o_mg2 = masked_forms_oracle(ps, g, self.R)
            assert mg1[j].tolist() == o_mg1.raw.tolist()
            assert mg2[j].tolist() == o_mg2.raw.tolist()

    def test_the_server_refuses_exactly_the_bad_submissions(self, monkeypatch):
        secrets, parts, members, gradients, server, g_s = _group(1010, 6)
        r = self.R
        subs = sign_group(members, gradients, [0.0] * 6, r)
        enc = [(Encoded.parse(s.mg1), Encoded.parse(s.mg2)) for s in subs]
        flipped = bytearray(subs[0].mg1)
        flipped[-1] ^= 1
        subs[0] = _resigned(parts[0], r, gradients[0], bytes(flipped), bytes(subs[0].mg2))
        # the right mg2 vector, in a width that is not its least
        subs[1] = _resigned(parts[1], r, gradients[1], bytes(subs[1].mg1), _widened(enc[1][1]))
        wide, width = _widened(enc[1][1]), enc[1][1].width + 1
        assert [int.from_bytes(wide[k : k + width], "little", signed=True)
                for k in range(10, len(wide), width)] == FpVector.decode(enc[1][1]).raw.tolist()
        subs[2], = sign_group(members[2:3], gradients[2:3], [0.0], r - 1)  # stale round
        signature = bytearray(subs[3].signature)
        signature[-1] ^= 1
        subs[3] = Submission(subs[3].id, subs[3].gradient, 0.0, subs[3].mg1, subs[3].mg2,
                             bytes(signature))
        calls = []
        verify = Server.verify_submission
        monkeypatch.setattr(Server, "verify_submission", lambda self, sub, *a: calls.append(
            sub.id) or verify(self, sub, *a))
        checked = server.verify_group(subs, g_s, r)
        assert calls == [ps.id for ps in parts]
        assert [v.sub.id for v, _ in checked] == [parts[4].id, parts[5].id]
        for (v, detect), j in zip(checked, (4, 5)):
            signs = sign_oracle(parts[j].mask_seed, r, 1010)
            assert (v.mg1, v.mg2) == enc[j]
            assert detect == hadamard(g_s, signs * secrets.rn_server[parts[j].id]).encode()


class TestSignatureCounts:
    def test_one_signature_per_submission(self, tmp_path, monkeypatch):
        # a participant signs once per round and the server verifies once;
        # the audit verifies n per round, not n + |benign|
        cfg = small_config(
            participants=4, rounds=3, master_seed=1009,
            malicious={2: AdversarySpec("sign_flip")},
        )
        calls = {"sign": 0, "verify": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(crypto, "sign", counted("sign", crypto.sign))
        monkeypatch.setattr(crypto, "verify", counted("verify", crypto.verify))
        _, _, path = run_published(tmp_path, cfg, seed=9)
        submissions = cfg.participants * cfg.rounds
        # the one more signature is the server's over w_0
        assert calls == {"sign": submissions + 1, "verify": submissions}
        calls.update(sign=0, verify=0)
        report = full_audit(path)
        assert report.ok, report.failure
        benign = sum(len(ra.published_benign) for ra in report.rounds)
        assert 0 < benign < submissions
        # the one more verification is w_0's signature
        assert calls == {"sign": 0, "verify": submissions + 1}

    def test_keys_derived_and_parsed_once(self, tmp_path, monkeypatch):
        # keygen derives each public key once, and signing reuses the key
        # object; the run verifies under the key objects it holds, and the
        # audit parses each published key once, not once per signature
        from cryptography.hazmat.primitives.asymmetric import ec

        cfg = small_config(participants=4, rounds=3, master_seed=1009)
        calls = {"derive": 0, "parse": 0}
        derive, parse = ec.derive_private_key, crypto.public_key

        def counted_derive(*args, **kwargs):
            calls["derive"] += 1
            return derive(*args, **kwargs)

        def counted_parse(pk):
            calls["parse"] += 1
            return parse(pk)

        monkeypatch.setattr(ec, "derive_private_key", counted_derive)
        monkeypatch.setattr(crypto, "public_key", counted_parse)
        _, _, path = run_published(tmp_path, cfg, seed=9)
        # one key per participant and the server's
        assert calls == {"derive": cfg.participants + 1, "parse": 0}
        calls.update(derive=0, parse=0)
        assert full_audit(path).ok
        assert calls == {"derive": 0, "parse": cfg.participants + 1}


class TestUnpublishedRun:
    # digests of w_final's encoding and of the metrics rows as JSON, pinned
    # from the runs that still derived every key and signed w_0
    PINNED = {
        True: (
            "2889e0ffc1742b66a3c3c8c11a9d299364a69f9dd97a93046cc18921ff614b1f",
            "ace67b64df7fa240f99bcf0700ffe4e0b3f5c56df2182a03402b4550ffeb083d",
        ),
        False: (
            "e6865a7743a3c277337ebc7c222990f2e9405dd27a7ed2c2eb494242854e60d6",
            "0e93620aa501856cda2ca32af159ed99bfd72d20616f7fe3bf5edd7b6c801939",
        ),
    }

    @pytest.mark.parametrize("detection", [True, False])
    def test_no_key_or_signature_and_the_same_run(self, monkeypatch, detection):
        import hashlib
        import json

        calls = {"keygen": 0, "sign": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(crypto, "keygen", counted("keygen", crypto.keygen))
        monkeypatch.setattr(crypto, "sign", counted("sign", crypto.sign))
        cfg = small_config(
            participants=4, rounds=3, metrics_every=1,
            malicious={2: AdversarySpec("label_flip"), 3: AdversarySpec("sign_flip")},
        )
        train, test = make_dataset(5, 600, 16, 4), make_dataset(6, 150, 16, 4)
        result = run_training(cfg, train, test, detection=detection, publish=False)
        assert calls == {"keygen": 0, "sign": 0}
        digests = (
            hashlib.sha256(result.w_final.encode().data).hexdigest(),
            hashlib.sha256(json.dumps(result.metrics).encode()).hexdigest(),
        )
        assert digests == self.PINNED[detection]


class TestDetect:
    # the detection rule: a gradient is benign iff <g_S, g_i> > 0
    def _benign(self, g_i):
        _, benign = robust_aggregate(_vec([1, 0]), {1: g_i})
        return benign == [1]

    def test_parallel(self):
        assert self._benign(_vec([1, 0]))

    def test_antiparallel(self):
        assert not self._benign(_vec([-1, 0]))

    def test_orthogonal_counts_as_bad(self):
        assert not self._benign(_vec([0, 1]))


def oracle_aggregate(g_s_raw, gradients_raw, clipping=False, clip_factor=3):
    """Brute-force big-int oracle: filter by dot sign, floor-average."""
    dots = {
        i: sum(int(a) * int(b) for a, b in zip(g_s_raw, g))
        for i, g in gradients_raw.items()
    }
    benign = sorted(i for i, d in dots.items() if d > 0)
    if clipping and benign:
        vals = sorted(dots[i] for i in benign)
        median = vals[(len(vals) - 1) // 2]
        benign = [i for i in benign if dots[i] <= clip_factor * median]
    dim = len(g_s_raw)
    out = []
    for k in range(dim):
        total = int(g_s_raw[k]) + sum(int(gradients_raw[i][k]) for i in benign)
        out.append(total // (len(benign) + 1))
    return out, benign


class TestRobustAggregate:
    def test_hand_case(self):
        ag, benign = robust_aggregate(
            _vec([1, 0]), {1: _vec([1, 0]), 2: _vec([-1, 0])}
        )
        assert benign == [1]
        assert ag.raw.tolist() == [1, 0]

    def test_all_bad_returns_server_gradient(self):
        g_s = _vec([3, -4])
        ag, benign = robust_aggregate(g_s, {1: _vec([-3, 4]), 2: _vec([-1, 1])})
        assert benign == []
        assert ag == g_s

    def test_matches_bruteforce_oracle(self):
        for trial in range(100):
            words = prg(trial, 64)
            vals = (words % np.uint64(2001)).astype(np.int64) - 1000
            n = 2 + trial % 4
            dim = 1 + trial % 8
            g_s = vals[:dim]
            grads = {
                i + 1: vals[dim * (i + 1) : dim * (i + 2)] for i in range(n)
            }
            ag, benign = robust_aggregate(
                FpVector(g_s, 20), {i: FpVector(g, 20) for i, g in grads.items()}
            )
            expected, expected_benign = oracle_aggregate(g_s, grads)
            assert benign == expected_benign
            assert ag.raw.tolist() == expected

    def test_clipping_removes_amplified(self):
        g_s = _vec([10, 10, 10, 10])
        grads = {
            1: _vec([9, 11, 10, 10]),
            2: _vec([10, 9, 11, 10]),
            3: _vec([1000, 1000, 1000, 1000]),  # amplified
        }
        ag, benign = robust_aggregate(g_s, grads, clipping=True, clip_factor=3)
        assert 3 not in benign and benign == [1, 2]
        ag2, benign2 = robust_aggregate(g_s, grads, clipping=False)
        assert benign2 == [1, 2, 3]

    def test_clipping_matches_oracle(self):
        for trial in range(50):
            words = prg(1000 + trial, 40)
            vals = (words % np.uint64(401)).astype(np.int64) - 200
            dim = 4
            g_s = vals[:dim]
            grads = {i + 1: vals[dim * (i + 1) : dim * (i + 2)] for i in range(5)}
            ag, benign = robust_aggregate(
                FpVector(g_s, 20),
                {i: FpVector(g, 20) for i, g in grads.items()},
                clipping=True,
                clip_factor=2,
            )
            expected, expected_benign = oracle_aggregate(
                g_s, grads, clipping=True, clip_factor=2
            )
            assert benign == expected_benign
            assert ag.raw.tolist() == expected


@pytest.fixture(scope="module")
def published_run(tmp_path_factory):
    # seeds pinned for stable detection margins (> 10^9 raw units per round)
    tmp = tmp_path_factory.mktemp("protorun")
    cfg = small_config(participants=3, rounds=3, master_seed=1009,
                       malicious={2: AdversarySpec("sign_flip")})
    result, internals, path = run_published(tmp, cfg, seed=9)
    return cfg, result, internals, path


class TestRoundMechanics:
    def test_server_recomputation_verifies_honest_signatures(self, published_run):
        cfg, result, internals, _ = published_run
        # every internals round ran with all signatures accepted
        for info in internals:
            assert info.rejected_sigs == []

    def test_stale_round_mask_fails_signature_check(self, tmp_path):
        # participant 1 signs its round-2 gradient with the round-1 masks
        cfg = small_config(participants=2, rounds=2, master_seed=31)
        train = make_dataset(8, 200, 5, 2)
        with stale_mask_signer(pid=1, r=2):
            result, internals = run_with_internals(
                cfg, train, None, ledger_path=tmp_path / "l.bin"
            )
        assert internals[0].rejected_sigs == []
        assert internals[1].rejected_sigs == [1]
        assert 1 not in result.record.rounds[1].local_detect

    def test_adversary_signatures_still_verify(self, published_run):
        cfg, result, internals, _ = published_run
        # the sign-flip adversary is excluded by detection, not by signing
        for info in internals:
            assert 2 not in info.benign
            assert 2 not in info.rejected_sigs
        for rec in result.record.rounds:
            assert 2 in rec.local_detect


class TestRoundIdentities:
    def test_aggregation_identity_every_round(self, published_run):
        # floor((mgS2 + sum mg2_j) / (|P_r|+1)) == m_r + ag_r, exactly
        cfg, result, internals, path = published_run
        from auditfl.protocol import preprocess as prep

        arch_dim = result.w0.dim
        secrets, _, _ = prep(cfg, arch_dim, result.w0)
        for info, rec in zip(internals, result.record.rounds):
            total = FpVector.decode(rec.server_agg)
            for j in sorted(rec.local_agg):
                total = total + FpVector.decode(rec.local_agg[j])
            mag = floor_div(total, len(rec.local_agg) + 1)
            m_r = model_mask_oracle(
                secrets.model_mask_seed, info.r, arch_dim, cfg.scale, cfg.eta_parts()[1]
            )
            assert mag == m_r + info.ag

    def test_detection_identity_every_round(self, published_run):
        # sign(<mg1_i, mgS1_i>) == detect(g_S, g_i) for every participant
        cfg, result, internals, path = published_run
        from auditfl.fixedpoint import sign_indicator

        for info, rec in zip(internals, result.record.rounds):
            for pid in rec.local_detect:
                masked = sign_indicator(
                    dot(
                        FpVector.decode(rec.local_detect[pid][0]),
                        FpVector.decode(rec.server_detect[pid]),
                    )
                )
                plain = 1 if info.dots[pid] > 0 else 0
                assert masked == plain

    def test_empty_benign_round_record_shape(self):
        # every submission is exactly -g_S: dots are strictly negative, the
        # benign set is empty, and mgS2 must equal m_r + g_S (no zero shares)
        cfg = small_config(participants=2, rounds=1, master_seed=77)
        from auditfl.protocol import preprocess as prep
        from auditfl.protocol import pretrain
        from auditfl.training import partition

        train = make_dataset(12, 200, 4, 2)
        arch = Architecture(4, 2)
        shards = partition(train, 3, cfg.master_seed)
        w0 = pretrain(cfg, arch, shards[0])
        secrets, parts, _ = prep(cfg, arch.param_count, w0)
        server = Server(cfg, secrets, arch, shards[0], w0)
        g_s, _ = server.server_gradient(1)
        assert g_s.raw.any()
        subs = sign_group([Participant(parts[0], shards[1]), Participant(parts[1], shards[2])],
                          [-g_s, -g_s], [0.0, 0.0], 1)
        with observed_rounds() as views:
            record, benign, _ = server.run_round(1, subs)
        assert benign == views[0].benign == []
        assert record.local_agg == {}
        m_1 = model_mask_oracle(
            secrets.model_mask_seed, 1, w0.dim, cfg.scale, cfg.eta_parts()[1]
        )
        assert record.server_agg == (m_1 + g_s).encode()
        assert views[0].ag == g_s

    def test_model_update_uses_floor(self, published_run):
        cfg, result, internals, _ = published_run
        # replay the trajectory from internals: w_r = w_{r-1} - floor(eta*ag)
        eta_num, eta_exp = cfg.eta_parts()
        w = result.w0
        for info in internals:
            w = w - scale_by_dyadic(info.ag, eta_num, eta_exp)
        assert w == result.w_final


class TestFinalize:
    def test_masked_model_cancellation(self, published_run):
        cfg, result, _, _ = published_run
        from auditfl.protocol import preprocess as prep

        secrets, _, _ = prep(cfg, result.w0.dim, result.w0)
        eta_num, eta_exp = cfg.eta_parts()
        # the model mask is eta * (m_1 + ... + m_R), each term exact
        total = [0] * result.w0.dim
        for r in range(1, cfg.rounds + 1):
            m_r = model_mask_oracle(
                secrets.model_mask_seed, r, result.w0.dim, cfg.scale, eta_exp
            )
            for k, raw in enumerate(m_r.raw.tolist()):
                assert raw % (1 << eta_exp) == 0
                total[k] += eta_num * raw // (1 << eta_exp)
        mask = FpVector(np.array(total, dtype=np.int64), cfg.scale)
        assert FpVector.decode(result.record.masked_model) + mask == result.w_final

    def test_deflation_products_all_equal(self, published_run):
        cfg, result, _, path = published_run
        from auditfl.protocol import preprocess as prep
        from auditfl.records import GenesisPayload

        secrets, parts, _ = prep(cfg, result.w0.dim, result.w0)
        roster = GenesisPayload.decode(read_payloads(path)[0]).roster
        assert sorted(roster) == [p.id for p in parts]
        # rt_i = 1/l_i from the published genesis undoes each participant's
        # mask scalar rn_i * rn_S_i: rt_i * l_i == 1 for every i
        for p in parts:
            assert Fraction(p.rn * secrets.rn_server[p.id], roster[p.id][1]) == 1


class TestStreamedPublish:
    """The run writes its record into block 1 round by round as it trains."""

    def test_run_peak_does_not_grow_with_rounds(self, tmp_path):
        # no round record outlives its round, so the run's peak at R=12
        # exceeds its peak at R=3 by less than one round blob
        train = make_dataset(5, 600, 256, 8)
        test = make_dataset(6, 150, 256, 8)
        run_training(small_config(participants=4, rounds=1), train, test,
                     ledger_path=tmp_path / "warm-up.bin")  # imports, tables
        peaks, blob = {}, 0
        for rounds in (3, 12):
            path = tmp_path / f"ledger-{rounds}.bin"
            tracemalloc.start()
            try:
                result = run_training(small_config(participants=4, rounds=rounds),
                                      train, test, ledger_path=path)
                _, peaks[rounds] = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            blob = max(blob, *(sum(map(len, rec.encode()))
                               for rec in result.record.rounds))
            assert full_audit(path).ok
        assert peaks[12] - peaks[3] < blob

    def test_failed_round_leaves_the_genesis_only_chain(self, tmp_path, monkeypatch):
        # round 2 raises after the record's header and round 1's blob were
        # written: the block is cut off again and the ledger holds the
        # genesis alone, framed as the writer frames it
        cfg = small_config(participants=3, rounds=3)
        train, test = make_dataset(3, 400, 5, 2), make_dataset(4, 100, 5, 2)
        honest = tmp_path / "honest.bin"
        run_training(cfg, train, test, ledger_path=honest)
        run_round = Server.run_round

        def failing(self, r, *args, **kwargs):
            if r == 2:
                raise RuntimeError("round 2 failed")
            return run_round(self, r, *args, **kwargs)

        monkeypatch.setattr(Server, "run_round", failing)
        path = tmp_path / "failed.bin"
        with pytest.raises(RuntimeError, match="round 2 failed"):
            run_training(cfg, train, test, ledger_path=path)
        genesis = read_payloads(honest)[0]
        assert read_payloads(path) == [genesis]
        assert path.read_bytes() == frame_ledger([genesis])
        assert sum(1 for _ in Ledger.open(path)) == 1

    def test_record_is_read_back_from_the_ledger(self, published_run):
        cfg, result, _, path = published_run
        assert b"".join(result.record.encode()) == read_payloads(path)[1]
        unpublished = run_training(cfg, make_dataset(3, 400, 5, 2), publish=False)
        assert unpublished.record is None


class TestTrajectoryInvariance:
    def test_publish_on_off_same_model(self):
        cfg = small_config(participants=3, rounds=3, master_seed=55,
                           malicious={3: AdversarySpec("label_flip")})
        train = make_dataset(20, 400, 5, 3)
        test = make_dataset(21, 100, 5, 3)
        import tempfile
        from pathlib import Path

        with tempfile.TemporaryDirectory() as d:
            with_pub = run_training(cfg, train, test, ledger_path=Path(d) / "l.bin")
            without = run_training(cfg, train, test, publish=False)
        assert with_pub.w_final == without.w_final
        assert with_pub.metrics == without.metrics


class TestRunTrainingContract:
    def test_publishing_without_detection_rejected_before_ledger(self, tmp_path):
        path = tmp_path / "l.bin"
        with pytest.raises(ConfigError):
            run_training(small_config(), make_dataset(3, 200, 5, 2), None,
                         ledger_path=path, detection=False)
        assert not path.exists()

    def test_oversized_batch_rejected_before_ledger(self, tmp_path):
        # 400 samples in 4 shards: every party draws from a shard of 100,
        # so a batch of 101 fits none of them
        path = tmp_path / "l.bin"
        with pytest.raises(ConfigError, match="smallest shard"):
            run_training(small_config(batch_size=101), make_dataset(3, 400, 5, 2),
                         None, ledger_path=path)
        assert not path.exists()

    @pytest.mark.parametrize("features,classes", [(4, 2), (5, 3)])
    def test_mismatched_test_set_rejected_before_ledger(self, features, classes,
                                                        tmp_path):
        # the training set has 5 features and 2 classes
        path = tmp_path / "l.bin"
        with pytest.raises(DatasetError, match="test set has"):
            run_training(small_config(), make_dataset(3, 400, 5, 2),
                         make_dataset(4, 40, features, classes), ledger_path=path)
        assert not path.exists()

    def test_largest_batch_that_fits_runs(self, tmp_path):
        # 403 samples in 4 shards: the smallest holds 100, the root shard 101
        run_training(small_config(batch_size=100), make_dataset(3, 403, 5, 2),
                     None, ledger_path=tmp_path / "l.bin")

    @pytest.mark.parametrize("clipping", [False, True])
    @pytest.mark.parametrize("eta", ["2", "4"])
    def test_integer_learning_rate_publishes_and_audits(self, eta, clipping, tmp_path):
        # an even numerator keeps eta * m_r exact: m_r's raws are integers
        _, _, path = run_published(tmp_path, small_config(eta=eta, clipping=clipping))
        report = full_audit(path)
        assert report.ok, report.failure

    def test_record_bytes_is_training_record_payload(self, published_run):
        _, result, _, path = published_run
        payload = read_payloads(path)[1]
        assert result.timing["record_bytes"] == len(payload)


class TestZeroShareServerCompensation:
    def test_published_shares_cancel_over_benign_set(self, published_run):
        cfg, result, internals, path = published_run
        from auditfl.protocol import preprocess as prep

        secrets, parts, _ = prep(cfg, result.w0.dim, result.w0)
        dim, scale = result.w0.dim, cfg.scale
        for info, rec in zip(internals, result.record.rounds):
            # mg2_j - g_j summed over benign equals minus the server's part of
            # mgS2 beyond (|P_r|+1) m_r + g_S
            cnt = len(rec.local_agg) + 1
            m_r = model_mask_oracle(
                secrets.model_mask_seed, info.r, dim, scale, cfg.eta_parts()[1]
            )
            zv_server = FpVector.decode(rec.server_agg) - m_r.scalar_mul(cnt) - info.g_s
            total = zv_server
            for j in sorted(rec.local_agg):
                ps = secrets.per_participant[j]
                zv_j = zero_share_oracle(ps.zero_seed, info.r, dim, scale)
                total = total + zv_j
            assert np.all(total.raw == 0)
