"""Golden digests: refactors must keep ledger, audit and model bytes identical.

Each digest is the SHA-256 of bytes a run produces for a fixed config and
seed: the ledger file, `AuditReport.to_json()` of its audit, and the
canonical encoding of the final model of an unpublished run. A change that
alters any of them changes the protocol's output and must say why.
"""
import hashlib

import pytest

from auditfl import full_audit, run_training
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
        "b2d5af9ba693c39b80247d0ce8e798319e45a40b30c5e32a5797cb01497dc426",
        "8a5df1be66a91bfe6dfb2ba08d34734cbf0d8c3832f93a27708bd714a503e3de",
    ),
    "sign-flip-label-flip": (
        "9a53376591fd6a81ef1b37f6b19b22bad948142de03582594c3612307681205a",
        "01768c4f93c553b09918242b29367ac92430bf35914e82616e682ffac140d59b",
    ),
    "clipping-amplifier": (
        "6e452a6c0e55fc6d415bc1686d57a08bbea21a62892a6498ac4050a25cbd2944",
        "5d187bfc801d6a36a92cb446605353dc8bcbf787fa3c9e8ffcab61b680355538",
    ),
    "mlp-hidden-8": (
        "c8c839c0f3955bbb6c7e5980042cee1d619422ba948013c7692298fe6439af26",
        "fc8b361509b565777c0386511a50f0925db5c9880bc767f688e5bb2a4997a884",
    ),
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


@pytest.mark.parametrize("name,detection", sorted(UNPUBLISHED))
def test_unpublished_model_bytes(name, detection):
    train, test = _data()
    result = run_training(
        small_config(**CONFIGS[name]), train, test, detection=detection, publish=False
    )
    assert _sha(result.w_final.encode()) == UNPUBLISHED[(name, detection)]
