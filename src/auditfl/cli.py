"""Command-line harness: run experiments, audit ledgers, sweep adversary counts.

Verbs:
  run           train once, publish the ledger, write per-round metrics
  audit         fully audit a ledger file; exit 0 iff it verifies
  sweep         scheme vs FedAvg baseline across malicious-participant counts
  verify-chain  hash-chain integrity only

Each verb imports what it runs, in the function that runs it: `audit`
loads the auditor's modules and `verify-chain` the ledger's, never the
modules that train (config, protocol, training) nor numpy for a chain.
"""
from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import TYPE_CHECKING

from .ledger import Ledger, LedgerError

if TYPE_CHECKING:
    from .config import RunConfig
    from .training import Dataset

SYNTH_CORPUS_SEED = 7  # corpus identity is part of the experiment definition


def prepare_datasets(cfg: RunConfig) -> tuple[Dataset, Dataset]:
    """Resolve the configured data source to (train, test) datasets."""
    from .config import ConfigError
    from .training import IDX_FILES, load_idx, make_synthetic_corpus

    ds = cfg.dataset
    root = Path(ds.data_dir)
    paths = {k: root / name for k, name in IDX_FILES.items()}
    if ds.kind == "synthetic":
        if not all(p.exists() for p in paths.values()):
            make_synthetic_corpus(
                root,
                SYNTH_CORPUS_SEED,
                n_train=ds.n_train,
                n_test=ds.n_test,
                side=ds.side,
                n_classes=ds.n_classes,
            )
    else:
        missing = [str(p) for p in paths.values() if not p.exists()]
        if missing:
            raise ConfigError(
                f"IDX dataset files not found: {missing}; point data_dir at "
                f"an MNIST-layout directory or use a synthetic dataset"
            )
    train = load_idx(paths["train_images"], paths["train_labels"], ds.n_classes)
    test = load_idx(paths["test_images"], paths["test_labels"], ds.n_classes)
    return train, test


def write_metrics_csv(path, rows: list[dict]) -> None:
    """One line per round; a round that was not evaluated has no accuracy."""
    import csv

    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["round", "train_loss", "test_accuracy", "benign_count"])
        for row in rows:
            acc = row["test_accuracy"]
            w.writerow([row["round"], f"{row['train_loss']:.9f}",
                        "" if acc is None else f"{acc:.6f}", row["benign_count"]])


def _load_config(args) -> RunConfig:
    from . import config as cfgmod
    from .config import RunConfig

    cfg = cfgmod.from_file(args.config) if args.config else RunConfig()
    # with_overrides drops the flags left unset (None)
    overrides = {
        name: getattr(args, name, None)
        for name in ("participants", "rounds", "eta", "batch_size", "scale",
                     "master_seed", "clip_factor", "metrics_every", "hidden")
    }
    if getattr(args, "clipping", None):
        overrides["clipping"] = True
    if getattr(args, "malicious", None):
        overrides["malicious"] = cfgmod.parse_malicious(args.malicious)
    if getattr(args, "data_dir", None) or getattr(args, "dataset_kind", None):
        overrides["dataset"] = replace(
            cfg.dataset,
            kind=args.dataset_kind or cfg.dataset.kind,
            data_dir=args.data_dir or cfg.dataset.data_dir,
        )
    return cfgmod.with_overrides(cfg, **overrides)


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--participants", type=int)
    p.add_argument("--rounds", type=int)
    p.add_argument("--eta", help="dyadic learning rate, e.g. 0.5 or 3/8")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--scale", type=int, help="fixed-point scale t")
    p.add_argument("--seed", dest="master_seed", type=int)
    p.add_argument("--hidden", type=int, help="hidden width (0 = logistic regression)")
    p.add_argument(
        "--malicious",
        action="append",
        help="id:kind[:factor], e.g. 5:label_flip or 7:scale_amplify:10; repeatable",
    )
    p.add_argument("--clip", dest="clipping", action="store_true",
                   help="enable inner-product clipping of amplified gradients")
    p.add_argument("--clip-factor", dest="clip_factor", type=int)
    p.add_argument("--dataset-kind", dest="dataset_kind", choices=["idx", "synthetic"])
    p.add_argument("--data-dir", dest="data_dir")


def cmd_run(args) -> int:
    from .protocol import run_training
    from .training import Architecture

    cfg = _load_config(args)
    out = Path(args.out)
    ledger_path = out / "ledger.bin"
    # before the datasets, which may write a whole synthetic corpus
    if ledger_path.exists():
        print(f"error: {ledger_path} already exists", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    train, test = prepare_datasets(cfg)
    t0 = time.perf_counter()
    result = run_training(cfg, train, test, ledger_path=ledger_path, publish=True)
    elapsed = time.perf_counter() - t0
    write_metrics_csv(out / "metrics.csv", result.metrics)

    arch = Architecture(train.n_features, train.n_classes, cfg.hidden)
    # run_training evaluates the final round's model; take that accuracy
    acc = result.metrics[-1]["test_accuracy"]
    print(f"run complete in {elapsed:.1f}s: {cfg.rounds} rounds, "
          f"{cfg.participants} participants, dim {arch.param_count}")
    print(f"final test accuracy {acc:.4f}")
    print(f"ledger: {ledger_path}")
    print(f"metrics: {out / 'metrics.csv'}")
    t = result.timing
    print(f"preprocessing bytes (genesis): {t['preprocess_bytes']}")
    print(f"training record bytes per round: {t['record_bytes'] // cfg.rounds}")

    if args.with_baseline:
        base = run_training(cfg, train, test, detection=False, publish=False)
        write_metrics_csv(out / "baseline_metrics.csv", base.metrics)
        bacc = base.metrics[-1]["test_accuracy"]
        print(f"FedAvg baseline final test accuracy {bacc:.4f}")
        print(f"baseline metrics: {out / 'baseline_metrics.csv'}")
    return 0


def cmd_audit(args) -> int:
    from .auditor import full_audit

    path = Path(args.ledger)
    if not path.exists():
        print(f"error: {path} does not exist", file=sys.stderr)
        return 2
    report = full_audit(path)
    report_path = path.with_suffix(path.suffix + ".audit.json")
    report_path.write_text(report.to_json())
    if report.ok:
        print(f"ACCEPT: ledger verifies ({report.n_records} training record(s), "
              f"{len(report.rounds)} audited rounds)")
        print(f"report: {report_path}")
        return 0
    print(f"REJECT at stage [{report.failure_stage}]: {report.failure}")
    print(f"report: {report_path}")
    return 1


def cmd_verify_chain(args) -> int:
    try:
        blocks = sum(1 for _ in Ledger.open(args.ledger))
    except LedgerError as e:
        print(f"REJECT: {e}")
        return 1
    print(f"ACCEPT: chain of {blocks} blocks verifies")
    return 0


def _sweep_one(cfg: RunConfig, count: int, publish: bool, out_dir: str,
               train: Dataset, test: Dataset):
    """One sweep entry: scheme and baseline accuracy at `count` flippers.

    Only the final accuracies are kept, so each run evaluates only its
    final model, whatever the config's `metrics_every`."""
    from . import config as cfgmod
    from .protocol import run_training
    from .training import AdversarySpec

    cfg = cfgmod.with_overrides(
        cfg,
        malicious={i: AdversarySpec("label_flip") for i in range(1, count + 1)},
        metrics_every=0,
    )
    ledger_path = None
    if publish:
        ledger_path = Path(out_dir) / f"ledger_m{count}.bin"
        if ledger_path.exists():
            ledger_path.unlink()
    scheme = run_training(cfg, train, test, ledger_path=ledger_path, publish=publish)
    base = run_training(cfg, train, test, detection=False, publish=False)
    # run_training evaluates each final model in its last round
    return scheme.metrics[-1]["test_accuracy"], base.metrics[-1]["test_accuracy"]


def cmd_sweep(args) -> int:
    """Scheme vs FedAvg accuracy per malicious count, into sweep.csv.

    The datasets are prepared once, before any entry runs in one of the
    `--parallel` workers (at least one). A failed entry is an `error` row;
    a ConfigError or DatasetError, which every entry shares, exits 2."""
    import csv
    from concurrent.futures import ProcessPoolExecutor

    cfg = _load_config(args)
    counts = list(range(args.min_malicious, args.max_malicious + 1))
    if not counts:
        print("error: empty sweep range", file=sys.stderr)
        return 2
    if max(counts) > cfg.participants:
        print("error: malicious count exceeds participant count", file=sys.stderr)
        return 2
    train, test = prepare_datasets(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []  # (count, scheme accuracy, FedAvg accuracy); None on failure
    with ProcessPoolExecutor(max_workers=max(1, args.parallel)) as pool:
        futures = [
            pool.submit(_sweep_one, cfg, m, args.publish, str(out), train, test)
            for m in counts
        ]
        for m, fut in zip(counts, futures):
            try:
                rows.append((m, *fut.result()))
            except _input_errors():
                raise
            except Exception as e:
                print(f"sweep entry {m} failed: {e}", file=sys.stderr)
                rows.append((m, None, None))

    def fmt(acc, digits):
        return "error" if acc is None else f"{acc:.{digits}f}"

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["malicious_count", "scheme_accuracy", "fedavg_accuracy"])
        for m, a, b in rows:
            w.writerow([m, fmt(a, 6), fmt(b, 6)])
    print(f"sweep complete: {csv_path}")
    for m, a, b in rows:
        print(f"  {m:2d} malicious: scheme {fmt(a, 4)}  fedavg {fmt(b, 4)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auditfl",
        description="Publicly auditable, robust federated learning simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train, publish, and write metrics")
    _add_config_flags(p_run)
    p_run.add_argument("--metrics-every", dest="metrics_every", type=int,
                       help="evaluate test accuracy every N rounds (0 = final only)")
    p_run.add_argument("--out", default="out", help="output directory")
    p_run.add_argument("--with-baseline", action="store_true",
                       help="also run the FedAvg baseline for comparison")
    p_run.set_defaults(func=cmd_run)

    p_audit = sub.add_parser("audit", help="audit a ledger file")
    p_audit.add_argument("ledger")
    p_audit.set_defaults(func=cmd_audit)

    p_vc = sub.add_parser("verify-chain", help="check ledger hash-chain integrity")
    p_vc.add_argument("ledger")
    p_vc.set_defaults(func=cmd_verify_chain)

    p_sweep = sub.add_parser(
        "sweep", help="scheme vs FedAvg across malicious-participant counts"
    )
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--min-malicious", type=int, default=0)
    p_sweep.add_argument("--max-malicious", type=int, default=9)
    p_sweep.add_argument("--out", default="sweep_out")
    p_sweep.add_argument("--publish", action="store_true",
                         help="also publish a ledger per sweep entry")
    p_sweep.add_argument("--parallel", type=int, default=0,
                         help="worker processes for the sweep entries (at least 1)")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def _input_errors() -> tuple:
    """The errors of a run's config and data, which exit 2 as a ledger error does."""
    from .config import ConfigError
    from .training import DatasetError

    return ConfigError, DatasetError


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    # an except clause builds its tuple only when an exception reaches it, so
    # a verb that raises none imports neither config nor training here
    except (LedgerError, *_input_errors()) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
