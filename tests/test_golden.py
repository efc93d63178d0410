"""Golden digests: refactors must keep ledger, audit and model bytes identical.

Each digest is the SHA-256 of bytes a run produces for a fixed config and
seed: the ledger file, `AuditReport.to_json()` of its audit, the metrics
CSV that `auditfl run` writes, and the canonical encoding of the final
model of an unpublished run. A change that alters any of them changes the
protocol's output and must say why.
"""
import hashlib
import struct

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
        "ee0f5a6544a199666ae10897222ca5483d8cb22c50d26068ae7d5a64f21c68a9",
        "fbc29e1b37b229be9c616b114b50e69a127a3ab223e0b668d5d5b56e7ae621f1",
    ),
    "sign-flip-label-flip": (
        "80cd14fe56ecc5eff33875dc05d25d32a48a9d952b3f6a83e2182f4ddf2f6674",
        "abda40c9df032bb55895b76acef6ff577007cb11f7e4761292a289704b843851",
    ),
    "clipping-amplifier": (
        "91897d8b81d947348bc62f774d47d345586b71b4254ebfd1c5b5dbea3c4c1a2d",
        "8d8d58bb1d0e244611bf8bc7303df60f4cf3cdc8e9fbd9469bf12376ffb8c48c",
    ),
    "mlp-hidden-8": (
        "73af1ca33c93448a26d807380f96bfb4f80cd1f75eed54808d2053c619794364",
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
        "b5668de323319c4e6383ab20b4d38c6f77903bddd055a908370a38c18f23f670"
    ),
    ("clipping-amplifier", True): (
        "d96e48b0e70b79596e53596117f5c7cc0bde4c254475c04308d743cee50695c1"
    ),
}

# sha256 of `dim u64 | scale u8 | raws as i64` of the same models: the
# encoding before minimal-width raws, whose digests these are. They pin the
# raws themselves, whatever the encoding.
UNPUBLISHED_RAWS = {
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
    assert _sha(bytes(result.w_final.encode().data)) == UNPUBLISHED[(name, detection)]


@pytest.mark.parametrize("name,detection", sorted(UNPUBLISHED_RAWS))
def test_unpublished_model_raws(name, detection):
    train, test = _data()
    w = run_training(
        small_config(**CONFIGS[name]), train, test, detection=detection, publish=False
    ).w_final
    fixed_width = struct.pack("<QB", w.dim, w.scale) + w.raw.astype("<i8").tobytes()
    assert _sha(fixed_width) == UNPUBLISHED_RAWS[(name, detection)]
