"""What each entry point loads: an audit loads only the audit's modules.

Each check runs in a fresh interpreter, since this one has imported every
module of the package already.
"""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import auditfl
from util import run_published, small_config

SRC = Path(auditfl.__file__).resolve().parent.parent
# the modules that train, and the standard library's OpenSSL binding
TRAINING_MODULES = ("auditfl.protocol", "auditfl.training", "auditfl.randomness",
                    "auditfl.config")
HASHLIB_MODULES = ("hashlib", "_hashlib")
# rationals: the audit deflates by exact integer division
RATIONAL_MODULES = ("fractions", "decimal")


def _loaded_after(code: str) -> dict:
    """Run `code` in a fresh interpreter; the JSON it prints last, to which
    `sys.modules` is added under "modules"."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    script = (
        "import json, sys\n" + code +
        "\nprint(json.dumps({**result, 'modules': sorted(sys.modules)}))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def ledger(tmp_path_factory):
    _, _, path = run_published(
        tmp_path_factory.mktemp("imports"), small_config(participants=3, rounds=2)
    )
    return path


class TestLeanAudit:
    def test_full_audit_loads_only_the_audit_modules(self, ledger):
        out = _loaded_after(
            "from auditfl import auditor\n"
            f"result = {{'ok': auditor.full_audit({str(ledger)!r}).ok}}"
        )
        assert out["ok"]
        loaded = set(out["modules"])
        assert {m for m in loaded if m.startswith("auditfl.")} == {
            "auditfl.auditor", "auditfl.crypto", "auditfl.fixedpoint",
            "auditfl.ledger", "auditfl.records",
        }
        assert not loaded & {*TRAINING_MODULES, *HASHLIB_MODULES, *RATIONAL_MODULES}

    def test_cli_audit_loads_no_training_module_nor_hashlib(self, ledger):
        out = _loaded_after(
            "from auditfl import cli\n"
            f"result = {{'code': cli.main(['audit', {str(ledger)!r}])}}"
        )
        assert out["code"] == 0
        assert not set(out["modules"]) & {*TRAINING_MODULES, *HASHLIB_MODULES}

    def test_cli_verify_chain_loads_no_numpy(self, ledger):
        out = _loaded_after(
            "from auditfl import cli\n"
            f"result = {{'code': cli.main(['verify-chain', {str(ledger)!r}])}}"
        )
        assert out["code"] == 0
        loaded = set(out["modules"])
        assert not loaded & {*TRAINING_MODULES, *HASHLIB_MODULES}
        assert "numpy" not in loaded
        assert {m for m in loaded if m.startswith("auditfl.")} == {
            "auditfl.cli", "auditfl.crypto", "auditfl.ledger",
        }

    def test_no_module_imports_hashlib(self):
        # every SHA-256 goes through auditfl.crypto, on the OpenSSL that
        # `cryptography` links
        for path in sorted((SRC / "auditfl").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert not any(n.split(".")[0] == "hashlib" for n in names), path.name


class TestPublicNames:
    def test_every_public_name_resolves_to_its_module_attribute(self):
        import importlib

        assert sorted(auditfl.__all__) == sorted([
            "AdversarySpec", "Architecture", "AuditReport", "ConfigError",
            "Dataset", "DatasetConfig", "DEFAULT_SCALE", "DimensionMismatchError",
            "FixedPointOverflowError", "FpVector", "GenesisPayload", "Ledger",
            "LedgerError", "RoundRecord", "RunConfig", "TrainingRecord",
            "active_backend", "dot", "floor_div", "full_audit", "hadamard",
            "load_idx", "partition", "preprocess", "robust_aggregate",
            "run_training", "sign_indicator", "__version__",
        ])
        for name in auditfl.__all__:
            value = getattr(auditfl, name)
            if name != "__version__":
                module = importlib.import_module(f"auditfl.{auditfl._EXPORTS[name]}")
                assert value is getattr(module, name), name

    def test_star_import_binds_all(self):
        out = _loaded_after(
            "ns = {}\n"
            "exec('from auditfl import *', ns)\n"
            "import auditfl\n"
            "result = {'missing': [n for n in auditfl.__all__ if n not in ns]}"
        )
        assert out["missing"] == []

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            auditfl.no_such_name  # noqa: B018
        assert not hasattr(auditfl, "no_such_name")

    def test_importing_the_package_loads_no_module_of_it(self):
        out = _loaded_after("import auditfl\nresult = {}")
        assert [m for m in out["modules"] if m.startswith("auditfl.")] == []
