"""Acceptance criteria, one test class per criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance here is pinned by the project contract: audit checks
are exact integer equalities (zero tolerance), the gradient check is 1e-4
relative, and the robustness-trend margins are 2.0 / 1.5 / 3.0 accuracy
percentage points.
"""
import dataclasses
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from auditfl import RunConfig, full_audit, run_training
from auditfl.fixedpoint import FpVector, dot, floor_div
from auditfl.protocol import (
    Participant,
    Server,
    preprocess,
    pretrain,
    robust_aggregate,
    sign_group,
)
from auditfl.randomness import (
    derive_seed,
    gen_correlated_pair,
    prg,
    sign_vector,
)
from auditfl.records import vector_digest
from auditfl.training import AdversarySpec, Architecture, Dataset, evaluate
from util import (
    first_round_with_benign,
    load_chain,
    make_dataset,
    model_mask_oracle,
    observed_rounds,
    recover_gradients,
    replay_aggregate,
    republish,
    run_published,
    run_with_internals,
    server_dropping_in_threshold,
    server_skipping_benign,
    small_config,
    tamper_drop_mg2,
    tamper_entry_to_other_round,
    tamper_flip_mg1,
    tamper_in_neither_table,
    tamper_ledger_byte,
    tamper_masked_model,
    tamper_mask_and_digest,
    tamper_mg2_digest,
    tamper_swap_entries,
    tamper_swap_signatures,
)


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}{' - ' + detail if detail else ''}")
    assert ok, f"criterion {criterion} failed: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1: exact audit round-trip over >= 50 random configurations.
# ---------------------------------------------------------------------------

_DIM_MENU = [(4, 2), (9, 3), (14, 4), (19, 5), (24, 4), (49, 6), (99, 10)]
_ETAS = ["0.5", "0.25", "0.125", "3/8"]
_KINDS = ["sign_flip", "label_flip", "scale_amplify"]


def _sample_configs(count: int = 49):
    """Deterministic random configurations across the contracted ranges."""
    configs = []
    for k in range(count):
        words = [int(w) for w in prg(derive_seed(0xACCE97, "cfg", k), 8)]
        feats, classes = _DIM_MENU[words[0] % len(_DIM_MENU)]
        n = 2 + words[1] % 19  # 2..20 participants
        rounds = 1 + words[2] % 50  # 1..50 rounds
        rounds = min(rounds, max(1, 240 // n))  # bound total runtime
        eta = _ETAS[words[3] % len(_ETAS)]
        malicious = {}
        for pid in range(1, n + 1):
            w = int(prg(derive_seed(0xACCE97, "adv", k, pid), 1)[0])
            if w % 10 < 3:
                kind = _KINDS[w % len(_KINDS)]
                if kind == "scale_amplify":
                    malicious[pid] = AdversarySpec(kind, factor=2 + w % 9)
                else:
                    malicious[pid] = AdversarySpec(kind)
        # the contract requires both label_flip and sign_flip in the mixes
        if k == 0 and n >= 2:
            malicious[1] = AdversarySpec("label_flip")
            malicious[2] = AdversarySpec("sign_flip")
        cfg = RunConfig(
            participants=n,
            rounds=rounds,
            eta=eta,
            batch_size=16,
            master_seed=900_000 + k,
            malicious=malicious,
            pretrain_steps=1,
            metrics_every=0,
        )
        configs.append((k, cfg, feats, classes))
    # one configuration pinned at the top of the dim range (7850)
    configs.append(
        (
            count,
            RunConfig(
                participants=3,
                rounds=2,
                eta="0.5",
                batch_size=16,
                master_seed=900_900,
                malicious={2: AdversarySpec("sign_flip")},
                pretrain_steps=1,
                metrics_every=0,
            ),
            784,
            10,
        )
    )
    return configs


class TestCriterion1AuditRoundTrip:
    @pytest.mark.slow
    def test_fifty_random_configurations(self, tmp_path):
        configs = _sample_configs()
        assert len(configs) >= 50
        checked_rounds = 0
        for k, cfg, feats, classes in configs:
            samples = (cfg.participants + 1) * (cfg.batch_size + 8)
            train = make_dataset(7000 + k, samples, feats, classes)
            path = tmp_path / f"cfg{k}.bin"
            result, internals = run_with_internals(
                cfg, train, None, ledger_path=path
            )
            dim = Architecture(feats, classes).param_count
            assert 10 <= dim <= 7850

            report = full_audit(path)
            assert report.ok, (
                f"config {k} (dim {dim}, n {cfg.participants}, "
                f"R {cfg.rounds}): {report.failure}"
            )
            # detection-set agreement, exactly, every round
            secrets, _, _ = preprocess(cfg, dim, result.w0)
            for info, ra, rec in zip(
                internals, report.rounds, result.record.rounds
            ):
                assert list(ra.detection_positive) == info.benign
                assert list(ra.published_benign) == info.benign
                # masked-aggregation identity, every round, zero tolerance
                total = FpVector.decode(rec.server_agg)
                for j in sorted(rec.local_agg):
                    total = total + FpVector.decode(rec.local_agg[j])
                mag = floor_div(total, len(rec.local_agg) + 1)
                m_r = model_mask_oracle(
                    secrets.model_mask_seed, info.r, dim, cfg.scale, cfg.eta_parts()[1]
                )
                assert mag == m_r + info.ag
                checked_rounds += 1
            path.unlink()  # keep the tmp footprint flat
        _report(
            "1 (exact audit round-trip)",
            True,
            f"{len(configs)} configs, {checked_rounds} rounds, all exact",
        )


# ---------------------------------------------------------------------------
# Criterion 2: tamper soundness, 7 + 5 classes x >= 20 seeded trials, and the
# two forgeries the audit still accepts, as strict xfails.
# ---------------------------------------------------------------------------


class TestCriterion2TamperSoundness:
    @pytest.mark.slow
    def test_all_tamper_classes_rejected(self, tmp_path):
        record_tampers = {
            "mg1-entry-flip": tamper_flip_mg1,
            "mg2-drop": tamper_drop_mg2,
            "mw-perturbation": tamper_masked_model,
            "signature-swap": tamper_swap_signatures,
        }
        trials = 0
        rejected = {name: 0 for name in record_tampers}
        rejected["ledger-byte-flip"] = 0
        rejected["server-skip-benign"] = 0
        rejected["clipping-drop-in-threshold"] = 0
        clip_path = tmp_path / "clip.bin"
        seed = 0
        base_runs = []
        while len(base_runs) < 20:
            seed += 1
            cfg = RunConfig(
                participants=3,
                rounds=2,
                eta="0.25",
                batch_size=24,
                master_seed=50_000 + seed,
                pretrain_steps=0,
                metrics_every=0,
            )
            train = make_dataset(3000 + seed, 320, 12, 3)
            path = tmp_path / f"base{seed}.bin"
            _, internals = run_with_internals(cfg, train, None, ledger_path=path)
            if not any(info.benign for info in internals):
                path.unlink()
                continue  # drop/skip tampers need a benign participant
            assert full_audit(path).ok
            base_runs.append((cfg, train, internals, path))

        for cfg, train, internals, path in base_runs:
            trials += 1
            for name, fn in record_tampers.items():
                work = tmp_path / "work.bin"
                if work.exists():
                    work.unlink()
                work.write_bytes(path.read_bytes())
                _, record, _ = load_chain(work)
                republish(work, fn(record))
                if not full_audit(work).ok:
                    rejected[name] += 1
            # ledger byte flip (caught by the chain itself)
            work = tmp_path / "flip.bin"
            if work.exists():
                work.unlink()
            work.write_bytes(path.read_bytes())
            tamper_ledger_byte(work)
            if not full_audit(work).ok:
                rejected["ledger-byte-flip"] += 1
            # misbehaving server: skip one benign gradient, publish as if not
            r, pid = first_round_with_benign(internals)
            skip_path = tmp_path / "skip.bin"
            if skip_path.exists():
                skip_path.unlink()
            with server_skipping_benign(r, pid):
                run_training(cfg, train, None, ledger_path=skip_path)
            if not full_audit(skip_path).ok:
                rejected["server-skip-benign"] += 1
            # under clipping: drop an in-threshold participant from both the
            # published set and the aggregate, as if it had been clipped
            with server_dropping_in_threshold() as dropped:
                run_training(dataclasses.replace(cfg, clipping=True), train,
                             None, ledger_path=clip_path)
            report = full_audit(clip_path)
            clip_path.unlink()
            if dropped and report.failure_stage == "benign-set":
                rejected["clipping-drop-in-threshold"] += 1

        ok = all(v == trials for v in rejected.values()) and trials >= 20
        _report(
            "2 (tamper soundness)",
            ok,
            f"{trials} trials x {len(rejected)} classes, rejections: {rejected}",
        )


    @pytest.mark.slow
    def test_submission_binding_tampers_rejected(self, tmp_path):
        # one signature per submission names its round, its participant and
        # the digests of both masked vectors, so an entry moved to another
        # round or participant, or a changed digest, fails its signature;
        # each valid participant has exactly one aggregation mask or digest
        tampers = {
            "entry-to-other-round": (tamper_entry_to_other_round, "signature"),
            "entries-swapped": (tamper_swap_entries, "signature"),
            "mg2-digest-changed": (tamper_mg2_digest, "signature"),
            "id-in-mask-and-digest-tables": (tamper_mask_and_digest, "structure"),
            "valid-id-in-neither-table": (tamper_in_neither_table, "structure"),
        }
        rejected = dict.fromkeys(tampers, 0)
        path, work = tmp_path / "base.bin", tmp_path / "work.bin"
        trials = seed = 0
        while trials < 20:
            seed += 1
            assert seed <= 200, f"only {trials} usable runs in 200 seeds"
            cfg = RunConfig(
                participants=3,
                rounds=2,
                eta="0.25",
                batch_size=24,
                master_seed=60_000 + seed,
                malicious={3: AdversarySpec("sign_flip")},
                pretrain_steps=0,
                metrics_every=0,
            )
            path.unlink(missing_ok=True)
            run_training(cfg, make_dataset(4000 + seed, 320, 12, 3), None, ledger_path=path)
            _, record, _ = load_chain(path)
            if not all(any(getattr(rec, table) for rec in record.rounds)
                       for table in ("local_agg", "agg_digests")):
                continue  # the tampers need a benign and a non-benign entry
            assert full_audit(path).ok
            trials += 1
            for name, (fn, stage) in tampers.items():
                work.write_bytes(path.read_bytes())
                republish(work, fn(record))
                if full_audit(work).failure_stage == stage:
                    rejected[name] += 1
        _report(
            "2 (submission binding)",
            all(v == trials for v in rejected.values()),
            f"{trials} trials x {len(tampers)} classes, rejections at the "
            f"expected stage: {rejected}",
        )

    # The two forgeries below are accepted today. Each asserts rejection and
    # is a strict xfail, so the change that closes it fails the suite until
    # its marker is removed.

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="no signature covers mw or mgS2; closed by ROADMAP item 2 "
        "stage 2 (the server block signature)",
    )
    def test_model_shift_rejected(self, tmp_path):
        # anyone who can write the file, no key needed: add delta to every
        # raw of mw and take the matching multiple from round 1's mgS2; the
        # replay absorbs the shift exactly
        cfg = small_config(participants=4, rounds=3)
        _, _, path = run_published(tmp_path, cfg, seed=9)
        eta_num, eta_exp = cfg.eta_parts()
        delta = 12345
        _, record, _ = load_chain(path)
        rec = record.rounds[0]
        k = len(rec.local_agg) + 1
        agg = FpVector.decode(rec.server_agg)
        agg = FpVector(agg.raw - (k << eta_exp) * delta, agg.scale).encode()
        mw = FpVector.decode(record.masked_model)
        forged = dataclasses.replace(
            record,
            masked_model=FpVector(mw.raw + eta_num * delta, mw.scale).encode(),
            rounds=(dataclasses.replace(rec, server_agg=agg),) + record.rounds[1:],
        )
        republish(path, forged)
        assert not full_audit(path).ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the server's mgS2 is its own word; closed by ROADMAP item 6 "
        "stage B (receipts for the trajectory)",
    )
    def test_benign_gradient_skip_with_rederived_aggregate_rejected(self, tmp_path):
        # the server leaves a benign gradient out of round r's aggregate but
        # lists it as benign, then re-derives mgS2 so that the replay gives
        # the aggregate it applied: mgS2 + k * (ag_applied - ag_honest)
        cfg = small_config(participants=5, rounds=3, master_seed=2003)
        honest, honest_views, _ = run_published(tmp_path / "honest", cfg, seed=9)
        r, pid = first_round_with_benign(honest_views)
        with server_skipping_benign(r, pid):
            lie, lie_views, path = run_published(tmp_path / "lie", cfg, seed=9)
        if lie.w_final == honest.w_final:
            pytest.fail("skipping the gradient changed no model; test is vacuous")
        k = len(honest_views[r - 1].benign) + 1
        shift = (lie_views[r - 1].ag - honest_views[r - 1].ag).scalar_mul(k)
        _, record, _ = load_chain(path)
        rec = record.rounds[r - 1]
        rounds = list(record.rounds)
        server_agg = (FpVector.decode(rec.server_agg) + shift).encode()
        rounds[r - 1] = dataclasses.replace(rec, server_agg=server_agg)
        republish(path, dataclasses.replace(record, rounds=tuple(rounds)))
        assert not full_audit(path).ok

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="no signature covers mgS1 or mgS2; closed by ROADMAP item 2 "
        "stage 2 (the server block signature)",
    )
    def test_benign_drop_by_file_writer_rejected(self, tmp_path):
        # anyone who can write the file, no key needed: negate participant
        # 1's mgS1 in round 1 so its masked product turns negative, publish
        # its mg2 as the digest its signature covers, and re-derive mgS2 so
        # that the replay over the smaller benign set gives the same aggregate
        cfg = small_config(participants=4, rounds=3)
        _, _, path = run_published(tmp_path, cfg, seed=9)
        _, record, _ = load_chain(path)
        rec = record.rounds[0]
        if 1 not in rec.local_agg:
            pytest.fail("participant 1 is not benign in round 1; test is vacuous")
        mag = replay_aggregate(rec)
        others = {pid: v for pid, v in rec.local_agg.items() if pid != 1}
        server_agg = mag.scalar_mul(len(others) + 1)
        for v in others.values():
            server_agg = server_agg - FpVector.decode(v)
        forged = dataclasses.replace(
            rec,
            local_agg=others,
            agg_digests={**rec.agg_digests, 1: vector_digest(rec.local_agg[1])},
            server_detect={
                **rec.server_detect, 1: (-FpVector.decode(rec.server_detect[1])).encode()
            },
            server_agg=server_agg.encode(),
        )
        republish(path, dataclasses.replace(record, rounds=(forged,) + record.rounds[1:]))
        assert not full_audit(path).ok


# ---------------------------------------------------------------------------
# Criterion 3: the multiplicative mask identity, 10^4 random cases.
# ---------------------------------------------------------------------------


class TestCriterion3MaskIdentity:
    def test_ten_thousand_cases(self):
        cases = 0
        for k in range(10_000):
            words = prg(derive_seed(0xE03, "case", k), 2)
            dim = 1 + int(words[0]) % 512
            if k % 1000 == 0:
                dim = 10_000  # pin some full-size cases
            pair = gen_correlated_pair(derive_seed(0xE03, "pair", k))
            signs = sign_vector(derive_seed(0xE03, "seed", k), dim)
            # the two PRVG vectors of one sign stream, scaled by rn_i and rn_S
            prod = (signs * pair.rn_i) * (signs * pair.rn_s)
            assert prod.min() == prod.max() == pair.l
            cases += 1
        _report("3 (mask identity)", cases == 10_000, f"{cases} exact cases")


# ---------------------------------------------------------------------------
# Criterion 4: zero-share cancellation across the contracted grid.
# ---------------------------------------------------------------------------


class TestCriterion4ZeroShares:
    def test_grid(self):
        # The protocol's cancellation: each participant draws its own zero
        # share and the server's aggregation vector carries minus their sum.
        # Every submission copies g_S, so every participant is benign and
        #   server_agg + sum mg2_i == (n+1) m_1 + g_S + sum g_i   exactly.
        # One master seed for every n keeps participant i's key the same
        # across the grid, so verification reuses its per-key table.
        checked = 0
        for n in (2, 3, 5, 8, 16, 33, 64):
            for dim in (10, 100, 1000, 10_000):
                features = dim // 2 - 1  # two classes: dim = 2 * features + 2
                cfg = RunConfig(participants=n, rounds=1, eta="0.5",
                                batch_size=16, master_seed=4, pretrain_steps=0)
                arch = Architecture(features, 2)
                data = make_dataset(4, 64, features, 2)
                w0 = pretrain(cfg, arch, data)
                secrets, parts, _ = preprocess(cfg, dim, w0)
                server = Server(cfg, secrets, arch, data, w0)
                g_s, _ = server.server_gradient(1)
                subs = sign_group([Participant(ps, data) for ps in parts],
                                  [g_s] * n, [0.0] * n, 1)
                with observed_rounds() as views:
                    record, benign, _ = server.run_round(1, subs)
                assert views[0].rejected_sigs == [] and benign == list(range(1, n + 1))
                lhs = FpVector.decode(record.server_agg)
                for i in benign:
                    lhs = lhs + FpVector.decode(record.local_agg[i])
                m_1 = model_mask_oracle(
                    secrets.model_mask_seed, 1, dim, cfg.scale, cfg.eta_parts()[1]
                )
                rhs = m_1.scalar_mul(n + 1) + g_s
                for sub in subs:
                    rhs = rhs + sub.gradient
                assert lhs == rhs, f"n={n} dim={dim}"
                checked += 1
        _report("4 (zero-share cancellation)", True, f"{checked} (n, dim) pairs exact")


# ---------------------------------------------------------------------------
# Criterion 5: robust aggregation vs brute-force oracle, 10^3 instances.
# ---------------------------------------------------------------------------


class TestCriterion5AggregationOracle:
    def test_thousand_instances(self):
        from test_protocol import oracle_aggregate

        for k in range(1000):
            words = prg(derive_seed(5, "agg", k), 64)
            vals = (words % np.uint64(4001)).astype(np.int64) - 2000
            n = 1 + k % 5  # up to 5 participants
            dim = 1 + k % 8  # up to dim 8
            g_s = vals[:dim]
            grads = {i + 1: vals[dim * (i + 1) : dim * (i + 2)] for i in range(n)}
            ag, benign = robust_aggregate(
                FpVector(g_s, 20), {i: FpVector(g, 20) for i, g in grads.items()}
            )
            expected, expected_benign = oracle_aggregate(g_s, grads)
            assert benign == expected_benign and ag.raw.tolist() == expected
        _report("5 (aggregation oracle)", True, "1000 instances exact")


# ---------------------------------------------------------------------------
# Criterion 6: desk-scale robustness trend (label-flipping sweep).
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def trend_data(tmp_path_factory):
    """The full dataset split: real MNIST IDX files if present, else the
    deterministic synthetic corpus with the same shape."""
    import os

    from auditfl.cli import SYNTH_CORPUS_SEED
    from auditfl.training import IDX_FILES, load_idx, make_synthetic_corpus

    mnist_dir = Path(os.environ.get("AUDITFL_MNIST_DIR", "data/mnist"))
    if all((mnist_dir / name).exists() for name in IDX_FILES.values()):
        root = mnist_dir
        source = "mnist"
    else:
        root = tmp_path_factory.mktemp("trendcorpus")
        make_synthetic_corpus(root, SYNTH_CORPUS_SEED)
        source = "synthetic"
    train = load_idx(root / IDX_FILES["train_images"], root / IDX_FILES["train_labels"])
    test = load_idx(root / IDX_FILES["test_images"], root / IDX_FILES["test_labels"])
    return train, test, source


def _trend_config(n_malicious: int) -> RunConfig:
    return RunConfig(
        participants=20,
        rounds=200,
        eta="0.5",
        batch_size=64,
        master_seed=20_240_601,
        malicious={i: AdversarySpec("label_flip") for i in range(1, n_malicious + 1)},
        pretrain_steps=10,
        metrics_every=0,
    )


class TestCriterion6RobustnessTrend:
    @pytest.mark.slow
    def test_trend(self, trend_data):
        train, test, source = trend_data
        arch = Architecture(train.n_features, train.n_classes, 0)
        acc = {}
        for m in (0, 9):
            cfg = _trend_config(m)
            scheme = run_training(cfg, train, test, publish=False)
            fedavg = run_training(cfg, train, test, publish=False, detection=False)
            acc[("scheme", m)] = evaluate(arch, scheme.w_final, test) * 100
            acc[("fedavg", m)] = evaluate(arch, fedavg.w_final, test) * 100
        a_ok = acc[("scheme", 9)] - acc[("fedavg", 9)] >= 2.0
        b_ok = abs(acc[("scheme", 0)] - acc[("fedavg", 0)]) <= 1.5
        c_ok = acc[("scheme", 0)] - acc[("scheme", 9)] <= 3.0
        detail = (
            f"data={source}; scheme@0={acc[('scheme', 0)]:.2f} "
            f"fedavg@0={acc[('fedavg', 0)]:.2f} scheme@9={acc[('scheme', 9)]:.2f} "
            f"fedavg@9={acc[('fedavg', 9)]:.2f}; "
            f"(a) gap {acc[('scheme', 9)] - acc[('fedavg', 9)]:.2f} >= 2.0: {a_ok}; "
            f"(b) |diff| {abs(acc[('scheme', 0)] - acc[('fedavg', 0)]):.2f} <= 1.5: {b_ok}; "
            f"(c) drop {acc[('scheme', 0)] - acc[('scheme', 9)]:.2f} <= 3.0: {c_ok}"
        )
        _report("6 (robustness trend)", a_ok and b_ok and c_ok, detail)


# ---------------------------------------------------------------------------
# Criterion 7: analytic gradient vs central finite differences.
# ---------------------------------------------------------------------------


class TestCriterion7GradientCheck:
    def test_hundred_random_points(self):
        from test_training import finite_difference_gradient

        from auditfl.training import loss_and_grad

        arch = Architecture(n_features=4, n_classes=2)  # exactly 10 parameters
        assert arch.param_count == 10
        worst = 0.0
        for k in range(100):
            words = prg(derive_seed(7, "fd", k), 26)
            vals = (words % np.uint64(2001)).astype(np.float64) / 1000.0 - 1.0
            X = (vals[:16].reshape(4, 4) + 1.0) / 2.0
            y = np.array([0, 1, 1, 0])
            params = vals[16:26] * 0.8
            _, (analytic,) = loss_and_grad(arch, params, X[None], y[None])
            fd = finite_difference_gradient(arch, params, X, y)
            denom = np.maximum(np.abs(fd), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - fd) / denom)))
        _report(
            "7 (gradient correctness)",
            worst < 1e-4,
            f"max relative error {worst:.3e} < 1e-4 over 100 points",
        )


# ---------------------------------------------------------------------------
# Criterion 8: bitwise determinism of the published artifacts.
# ---------------------------------------------------------------------------


class TestCriterion8Determinism:
    def test_byte_identical_reruns(self, tmp_path):
        from auditfl.cli import write_metrics_csv

        cfg = RunConfig(
            participants=4,
            rounds=3,
            eta="0.25",
            batch_size=24,
            master_seed=88,
            malicious={2: AdversarySpec("label_flip")},
            pretrain_steps=2,
            metrics_every=1,
        )
        train = make_dataset(88, 480, 10, 4)
        test = make_dataset(89, 120, 10, 4)
        blobs = []
        for tag in ("a", "b"):
            path = tmp_path / f"run_{tag}.bin"
            result = run_training(cfg, train, test, ledger_path=path)
            csv_path = tmp_path / f"metrics_{tag}.csv"
            write_metrics_csv(csv_path, result.metrics)
            blobs.append((path.read_bytes(), csv_path.read_bytes()))
        ok = blobs[0] == blobs[1]
        _report(
            "8 (determinism)",
            ok,
            f"ledger {len(blobs[0][0])} bytes and metrics identical across reruns",
        )


# ---------------------------------------------------------------------------
# Criterion 9: timing figures are reported, never asserted.
# ---------------------------------------------------------------------------


class TestCriterion9TimingInformational:
    def test_report_measured_analogues(self, tmp_path):
        cfg = RunConfig(
            participants=3,
            rounds=2,
            eta="0.5",
            batch_size=16,
            master_seed=99,
            pretrain_steps=0,
            metrics_every=0,
        )
        train = make_dataset(99, 240, 8, 2)
        t0 = time.perf_counter()
        result = run_training(cfg, train, None, ledger_path=tmp_path / "t.bin")
        per_round = (time.perf_counter() - t0) / cfg.rounds
        t = result.timing
        _report(
            "9 (timing, informational only)",
            True,
            f"run {per_round * 1e3:.2f} ms/round, "
            f"genesis {t['preprocess_bytes']} B, "
            f"training record {t['record_bytes']} B (not acceptance targets)",
        )


# ---------------------------------------------------------------------------
# Criterion 10: a third party who reads only the ledger learns no gradient
# (PAPER.md's privacy aim). A strict xfail: the ledger reveals |g_i| today.
# ---------------------------------------------------------------------------


class TestCriterion10LedgerPrivacy:
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="the gcd of a participant's mg1 raws is its rn_i, so the ledger "
        "reveals |g_i|; closed by ROADMAP item 9 stage 2",
    )
    def test_third_party_cannot_recover_gradients(self, tmp_path):
        # recover_gradients reads the ledger alone; the plaintext gradients
        # the server aggregated only score it. Recovering |g_i[k]| exactly
        # is less than recovering g_i[k], so this bound is the stronger one
        cfg = small_config(participants=4, rounds=3)
        _, views, path = run_published(tmp_path, cfg, seed=5)
        recovered = recover_gradients(path)
        exact = nonzero = 0
        for view in views:
            for pid, g in view.gradients.items():
                magnitude = np.abs(g.raw)
                kept = magnitude != 0
                nonzero += int(kept.sum())
                exact += int((recovered[view.r, pid][kept] == magnitude[kept]).sum())
        _report("10 (ledger privacy)", 100 * exact <= nonzero,
                f"|g_i[k]| recovered exactly at {exact} of {nonzero} nonzero coordinates")
