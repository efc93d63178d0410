"""CLI verbs: run, audit, sweep, verify-chain; file outputs and exit codes."""
import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from auditfl.cli import main
from auditfl.training import IDX_FILES, make_synthetic_corpus

BASE_FLAGS = [
    "--participants", "3",
    "--rounds", "2",
    "--eta", "0.125",
    "--batch-size", "16",
    "--seed", "77",
    "--dataset-kind", "synthetic",
]


def _synth_flags(data_dir: Path, n_train=420, n_test=90):
    # small synthetic corpus shared by a test's runs
    cfg = {
        "participants": 3,
        "rounds": 2,
        "eta": "0.125",
        "batch_size": 16,
        "master_seed": 77,
        "pretrain_steps": 1,
        "metrics_every": 1,
        "dataset": {
            "kind": "synthetic",
            "data_dir": str(data_dir),
            "n_train": n_train,
            "n_test": n_test,
            "side": 6,
            "n_classes": 4,
        },
    }
    return cfg


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(_synth_flags(root / "data")))
    return root, cfg_path


@pytest.fixture(scope="module")
def completed_run(workspace):
    root, cfg_path = workspace
    out = root / "run1"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    return out


class TestRun:
    def test_outputs_exist(self, completed_run):
        assert (completed_run / "ledger.bin").exists()
        assert (completed_run / "metrics.csv").exists()

    def test_metrics_schema(self, completed_run):
        with open(completed_run / "metrics.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["round", "train_loss", "test_accuracy", "benign_count"]
        assert len(rows) == 3  # header + 2 rounds
        assert rows[1][0] == "1"

    def test_refuses_to_overwrite_ledger(self, workspace, completed_run):
        root, cfg_path = workspace
        code = main(["run", "--config", str(cfg_path), "--out", str(completed_run)])
        assert code == 2

    def test_refuses_an_existing_ledger_before_writing_a_corpus(
        self, workspace, completed_run, tmp_path, capsys
    ):
        # the synthetic corpus of an empty --data-dir is written only for a
        # run that will happen
        _, cfg_path = workspace
        data = tmp_path / "empty"
        data.mkdir()
        code = main(["run", "--config", str(cfg_path), "--out", str(completed_run),
                     "--data-dir", str(data)])
        assert code == 2
        assert "already exists" in capsys.readouterr().err
        assert list(data.iterdir()) == []

    def test_with_baseline(self, workspace, monkeypatch, capsys):
        from auditfl import protocol

        evaluated = []
        evaluate = protocol.evaluate

        def counted(*args):
            evaluated.append(1)
            return evaluate(*args)

        monkeypatch.setattr(protocol, "evaluate", counted)
        root, cfg_path = workspace
        out = root / "run_base"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     "--with-baseline"])
        assert code == 0
        assert (out / "baseline_metrics.csv").exists()
        # each of the two runs evaluates its model once per round (metrics
        # every round, 2 rounds) and the CLI prints the final row's accuracy
        # without evaluating the model again
        assert len(evaluated) == 4
        printed = capsys.readouterr().out
        for name, label in (("metrics.csv", "final"), ("baseline_metrics.csv",
                                                       "FedAvg baseline final")):
            with open(out / name) as f:
                final = list(csv.reader(f))[-1][2]
            assert f"{label} test accuracy {float(final):.4f}\n" in printed

    def test_bad_config_rejected_before_compute(self, workspace, tmp_path):
        root, cfg_path = workspace
        code = main(["run", "--config", str(cfg_path), "--eta", "0.3",
                     "--out", str(tmp_path / "never")])
        assert code == 2
        assert not (tmp_path / "never" / "ledger.bin").exists()

    def test_oversized_batch_rejected_before_ledger(self, workspace, tmp_path):
        # 420 samples in 4 shards of 105: participants could never draw 200
        root, cfg_path = workspace
        out = tmp_path / "big_batch"
        code = main(["run", "--config", str(cfg_path), "--batch-size", "200",
                     "--out", str(out)])
        assert code == 2
        assert not (out / "ledger.bin").exists()
        # nothing was left behind to block the corrected rerun
        assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0

    def test_mistyped_config_field_rejected(self, tmp_path):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps({"participants": "3"}))
        code = main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert not (tmp_path / "o" / "ledger.bin").exists()


@pytest.fixture(scope="module")
def bad_idx_dirs(tmp_path_factory):
    """IDX dirs in the workspace config's shape that no run can use."""
    root = tmp_path_factory.mktemp("bad_idx")
    corpus = dict(seed=5, n_train=420, n_test=90, side=6, n_classes=4)
    # the test label file cut to 1 byte
    paths = make_synthetic_corpus(root / "truncated", **corpus)
    paths["test_labels"].write_bytes(paths["test_labels"].read_bytes()[:1])
    # 6x6 training images, 5x5 test images
    make_synthetic_corpus(root / "mismatched", **corpus)
    small = make_synthetic_corpus(root / "small", **{**corpus, "side": 5})
    for key in ("test_images", "test_labels"):
        shutil.copy(small[key], root / "mismatched" / IDX_FILES[key])
    return root


REJECTED_RUNS = {
    "truncated-labels": ["--dataset-kind", "idx", "--data-dir", "{bad}/truncated"],
    "mismatched-test-set": ["--dataset-kind", "idx", "--data-dir", "{bad}/mismatched"],
    "negative-hidden": ["--hidden", "-1"],
    "negative-seed": ["--seed", "-1"],
    "repeated-malicious-id": ["--malicious", "3:label_flip", "--malicious", "3:sign_flip"],
}


class TestRejectedBeforeLedger:
    """Bad data or config: exit 2 with an `error:` line, and nothing written."""

    @staticmethod
    def _flags(name, bad_idx_dirs):
        return [flag.format(bad=bad_idx_dirs) for flag in REJECTED_RUNS[name]]

    @pytest.mark.parametrize("name", REJECTED_RUNS)
    def test_run(self, name, workspace, bad_idx_dirs, tmp_path, capsys):
        root, cfg_path = workspace
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg_path), "--out", str(out),
                     *self._flags(name, bad_idx_dirs)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "ledger.bin").exists()

    @pytest.mark.parametrize("name", ["truncated-labels", "mismatched-test-set"])
    def test_sweep(self, name, workspace, bad_idx_dirs, tmp_path, capsys):
        root, cfg_path = workspace
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg_path), "--max-malicious", "1",
                     "--publish", "--out", str(out), *self._flags(name, bad_idx_dirs)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "sweep.csv").exists()
        assert not list(out.glob("ledger_m*.bin"))


class TestAudit:
    def test_audit_after_run_accepts(self, completed_run):
        code = main(["audit", str(completed_run / "ledger.bin")])
        assert code == 0
        report_path = completed_run / "ledger.bin.audit.json"
        assert report_path.exists()
        report = json.loads(report_path.read_text())
        assert report["verdict"] == "accept"

    def test_audit_after_byte_flip_rejects(self, completed_run, tmp_path):
        tampered = tmp_path / "tampered.bin"
        data = bytearray((completed_run / "ledger.bin").read_bytes())
        data[len(data) // 2] ^= 0x01
        tampered.write_bytes(bytes(data))
        code = main(["audit", str(tampered)])
        assert code == 1
        report = json.loads((tmp_path / "tampered.bin.audit.json").read_text())
        assert report["verdict"] == "reject"

    def test_audit_missing_file(self, tmp_path):
        assert main(["audit", str(tmp_path / "nope.bin")]) == 2

    def test_cross_process_audit_same_verdict(self, completed_run):
        ledger = completed_run / "ledger.bin"
        proc = subprocess.run(
            [sys.executable, "-m", "auditfl.cli", "audit", str(ledger)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "ACCEPT" in proc.stdout


class TestVerifyChain:
    def test_accepts_good_chain(self, completed_run):
        assert main(["verify-chain", str(completed_run / "ledger.bin")]) == 0

    def test_rejects_tampered_chain(self, completed_run, tmp_path):
        bad = tmp_path / "bad.bin"
        data = bytearray((completed_run / "ledger.bin").read_bytes())
        data[-3] ^= 0x04
        bad.write_bytes(bytes(data))
        assert main(["verify-chain", str(bad)]) == 1


class TestDeterminism:
    def test_identical_config_identical_bytes(self, workspace):
        root, cfg_path = workspace
        out_a, out_b = root / "det_a", root / "det_b"
        assert main(["run", "--config", str(cfg_path), "--out", str(out_a)]) == 0
        assert main(["run", "--config", str(cfg_path), "--out", str(out_b)]) == 0
        assert (out_a / "ledger.bin").read_bytes() == (out_b / "ledger.bin").read_bytes()
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()


def test_reference_defaults():
    # the stock configuration matches the reference experiment parameters
    from auditfl import RunConfig

    cfg = RunConfig()
    assert cfg.participants == 20
    assert cfg.rounds == 500
    assert cfg.eta == "0.5"
    assert cfg.batch_size == 64
    assert cfg.clipping is False


class TestSweep:
    def test_tiny_sweep_csv_shape(self, workspace):
        root, cfg_path = workspace
        out = root / "sweep"
        code = main(["sweep", "--config", str(cfg_path),
                     "--min-malicious", "0", "--max-malicious", "1",
                     "--rounds", "2", "--out", str(out)])
        assert code == 0
        with open(out / "sweep.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["malicious_count", "scheme_accuracy", "fedavg_accuracy"]
        assert [r[0] for r in rows[1:]] == ["0", "1"]
        for row in rows[1:]:
            assert 0.0 <= float(row[1]) <= 1.0
            assert 0.0 <= float(row[2]) <= 1.0

    def test_parallel_sweep_matches_sequential(self, workspace):
        # the pool path hands each worker the RunConfig itself
        root, cfg_path = workspace
        csvs = []
        for name, extra in (("seq", []), ("par", ["--parallel", "2"])):
            out = root / f"sweep_{name}"
            code = main(["sweep", "--config", str(cfg_path),
                         "--min-malicious", "0", "--max-malicious", "1",
                         "--rounds", "2", "--publish", "--out", str(out), *extra])
            assert code == 0
            csvs.append((out / "sweep.csv").read_bytes())
            assert (out / "ledger_m1.bin").exists()
        assert b"error" not in csvs[1]
        assert csvs[0] == csvs[1]

    @pytest.mark.parametrize("rounds", [1, 4])
    def test_entry_evaluates_only_its_two_final_models(
        self, workspace, tmp_path, monkeypatch, rounds
    ):
        # the workspace config evaluates every round; a sweep entry keeps
        # only the final accuracies, the same ones such a run reports
        from auditfl import config, protocol
        from auditfl.cli import _sweep_one, prepare_datasets

        root, cfg_path = workspace
        cfg = config.with_overrides(config.from_file(cfg_path), rounds=rounds)
        assert cfg.metrics_every == 1
        train, test = prepare_datasets(cfg)
        evaluate, evaluated = protocol.evaluate, []

        def counting(*args):
            evaluated.append(evaluate(*args))
            return evaluated[-1]

        monkeypatch.setattr(protocol, "evaluate", counting)
        accuracies = _sweep_one(cfg, 1, False, str(tmp_path), train, test)
        assert len(evaluated) == 2
        monkeypatch.undo()
        cfg = config.with_overrides(cfg, malicious=config.parse_malicious(["1:label_flip"]))
        assert accuracies == (
            protocol.run_training(cfg, train, test).metrics[-1]["test_accuracy"],
            protocol.run_training(cfg, train, test, detection=False)
            .metrics[-1]["test_accuracy"],
        )

    def test_metrics_every_is_a_run_flag_only(self, workspace, capsys):
        root, cfg_path = workspace
        with pytest.raises(SystemExit):
            main(["sweep", "--config", str(cfg_path), "--metrics-every", "1",
                  "--out", str(root / "never3")])
        assert "--metrics-every" in capsys.readouterr().err
        assert not (root / "never3").exists()

    def test_missing_idx_dataset_rejected(self, workspace, tmp_path):
        # the datasets are prepared once, before any entry runs
        root, cfg_path = workspace
        empty = tmp_path / "no_data"
        empty.mkdir()
        out = tmp_path / "sweep_idx"
        code = main(["sweep", "--config", str(cfg_path), "--dataset-kind", "idx",
                     "--data-dir", str(empty), "--max-malicious", "1",
                     "--out", str(out)])
        assert code == 2
        assert not (out / "sweep.csv").exists()

    def test_oversized_batch_rejected(self, workspace, tmp_path):
        root, cfg_path = workspace
        out = tmp_path / "sweep_big_batch"
        code = main(["sweep", "--config", str(cfg_path), "--batch-size", "200",
                     "--max-malicious", "1", "--publish", "--out", str(out)])
        assert code == 2
        assert not (out / "sweep.csv").exists()
        assert not list(out.glob("ledger_m*.bin"))

    def test_empty_range_rejected(self, workspace):
        root, cfg_path = workspace
        code = main(["sweep", "--config", str(cfg_path),
                     "--min-malicious", "3", "--max-malicious", "2",
                     "--out", str(root / "never")])
        assert code == 2

    def test_count_beyond_participants_rejected(self, workspace):
        root, cfg_path = workspace
        code = main(["sweep", "--config", str(cfg_path),
                     "--min-malicious", "0", "--max-malicious", "99",
                     "--out", str(root / "never2")])
        assert code == 2
