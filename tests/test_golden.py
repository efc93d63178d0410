"""Golden digests: refactors must keep ledger, audit and model bytes identical.

Each digest is the SHA-256 of bytes a run produces for a fixed config and
seed: the ledger file, `AuditReport.to_json()` of its audit, the metrics
CSV that `auditfl run` writes, and the canonical encoding of the final
model of an unpublished run. A change that alters any of them changes the
protocol's output and must say why.
"""
import hashlib

import pytest

from auditfl import full_audit, run_training
from auditfl.cli import write_metrics_csv
from auditfl.training import AdversarySpec
from util import make_dataset, small_config


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _data():
    return make_dataset(61, 600, 16, 4), make_dataset(62, 150, 16, 4)


CONFIGS = {
    "honest": dict(participants=3, rounds=2, master_seed=2001),
    "sign-flip-label-flip": dict(
        participants=4,
        rounds=2,
        master_seed=2002,
        malicious={2: AdversarySpec("sign_flip"), 4: AdversarySpec("label_flip")},
    ),
    "clipping-amplifier": dict(
        participants=4,
        rounds=2,
        master_seed=2003,
        clipping=True,
        malicious={3: AdversarySpec("scale_amplify", 8)},
    ),
    "mlp-hidden-8": dict(participants=3, rounds=2, master_seed=2004, hidden=8),
}

# (ledger sha256, audit.json sha256)
PUBLISHED = {
    "honest": (
        "619416c211332482ed2b9e9786dc9f544bb81f494560b65d1a39e2d4f85d9500",
        "fbc29e1b37b229be9c616b114b50e69a127a3ab223e0b668d5d5b56e7ae621f1",
    ),
    "sign-flip-label-flip": (
        "25d06e12950fec74988ee2dfba2793c68f02cc9e1571e15d43042628f53fb84e",
        "abda40c9df032bb55895b76acef6ff577007cb11f7e4761292a289704b843851",
    ),
    "clipping-amplifier": (
        "e11caabd038ca31bade8208527ad0eafb91dae00c11c26c7b341f820e8b0e5ea",
        "8d8d58bb1d0e244611bf8bc7303df60f4cf3cdc8e9fbd9469bf12376ffb8c48c",
    ),
    "mlp-hidden-8": (
        "c78770f6e58ca77fbdee2c0b175878c4a7893689bc87922b089d17c56e857d46",
        "e85bfb8c662c13f4b7cb12b2665e48ee4234c7e7254594246694bb5ed9a9818e",
    ),
}

# metrics CSV sha256 (cli.write_metrics_csv) of the published runs
METRICS_CSV = {
    "honest": "62b71a2b1ca8f37cb031c0effe6c5810941d2bcfe3bcd4418d015c434ebd9cc7",
    "sign-flip-label-flip": (
        "c351777036d09c4802f08862028c44cb0218ef947f61689d5e0a053be059ad26"
    ),
    "clipping-amplifier": (
        "0b1f895e09711bd42cb022f29d84d177a52e5afbeec504e63aed308aac18405b"
    ),
    "mlp-hidden-8": "84608a7d3d5303665618bcc9499147218a314c54e5a89092b79089174678251b",
}

# w_final.encode() sha256 of unpublished runs: (config, detection)
UNPUBLISHED = {
    ("sign-flip-label-flip", False): (
        "339480c40578e0a84cdc26dc3c1036e99710c6db3ec5010e8fd97f3f73cb9611"
    ),
    ("clipping-amplifier", True): (
        "c5959e00af92014a11c2601c38b108988827ba990c0db31c3556b81e49807163"
    ),
}


@pytest.mark.parametrize("name", sorted(PUBLISHED))
def test_published_ledger_and_audit_bytes(name, tmp_path):
    train, test = _data()
    path = tmp_path / "ledger.bin"
    run_training(small_config(**CONFIGS[name]), train, test, ledger_path=path)
    report = full_audit(path)
    assert report.ok, report.failure
    assert (_sha(path.read_bytes()), _sha(report.to_json().encode())) == PUBLISHED[name]


@pytest.mark.parametrize("name", sorted(METRICS_CSV))
def test_published_metrics_csv_bytes(name, tmp_path):
    train, test = _data()
    result = run_training(
        small_config(**CONFIGS[name]), train, test, ledger_path=tmp_path / "ledger.bin"
    )
    write_metrics_csv(tmp_path / "metrics.csv", result.metrics)
    assert _sha((tmp_path / "metrics.csv").read_bytes()) == METRICS_CSV[name]


@pytest.mark.parametrize("name,detection", sorted(UNPUBLISHED))
def test_unpublished_model_bytes(name, detection):
    train, test = _data()
    result = run_training(
        small_config(**CONFIGS[name]), train, test, detection=detection, publish=False
    )
    assert _sha(b"".join(result.w_final.encode())) == UNPUBLISHED[(name, detection)]
