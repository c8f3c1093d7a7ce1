"""Command-line interface.

Subcommands: gen-synthetic, make-folds, pretrain, search, simulate,
fed-server, fed-client, evaluate. Every command seeds all randomness from
--seed. Each command but fed-client returns the manifest of its run (path,
config, inputs, outputs, and for simulate the worker processes its folds
fitted in); ``main`` times the command and writes that manifest next to its
outputs. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import logging
import math
import os
import shutil
import sys
import time

from . import __version__
from . import data as D
from . import tensor
from .errors import FedharError
from .fedavg import FedConfig, run_fold
from .metrics import fold_summary
from .model import ModelConfig, init_model
from .training import SearchSpace, TrainConfig, evaluate, random_search, train
from .util import append_jsonl, atomic_write_json, derive_seed
from .wire import (DEFAULT_PORT, client_loop, load_checkpoint, save_checkpoint,
                   server_loop, standardizer_path)

log = logging.getLogger(__name__)

# Desk-scale defaults; the full-scale protocol values live in the README.
DESK_EPOCHS = 50
DESK_BUDGET = 8
DESK_LOCAL_EPOCHS = 20


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text}")
        return value
    return parse


def _nonnegative(kind):
    def parse(text):
        value = kind(text)
        if not 0 <= value < math.inf:
            raise argparse.ArgumentTypeError(f"must be >= 0 and finite, got {text}")
        return value
    return parse


def _port(text):
    value = int(text)
    if not 1 <= value <= 65535:
        raise argparse.ArgumentTypeError(f"must be a port in 1..65535, got {text}")
    return value


def _fold_list(text):
    try:
        folds = [int(f) for f in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated fold indices, got {text!r}") from None
    if len(set(folds)) != len(folds):
        raise argparse.ArgumentTypeError(f"fold listed twice in {text!r}")
    return folds


def _check_fold(plan, k: int) -> int:
    """``k``, checked to name a fold of ``plan``; a negative index is an error."""
    if not 0 <= k < plan.n_folds:
        raise FedharError(f"fold {k} is out of range: the plan has folds 0..{plan.n_folds - 1}")
    return k


def _load_records(path: str, subject_ids=None) -> list[D.SubjectRecord]:
    """The records of a subject CSV or of a directory of them.

    With ``subject_ids``, those subjects' records in that order; a directory's
    other files are not parsed.
    """
    if os.path.isdir(path):
        records = D.load_subject_dir(path, subject_ids)
    else:
        records = [D.parse_extrasensory_csv(path)]
    if subject_ids is None:
        return records
    by_id = {r.subject_id: r for r in records}
    missing = [s for s in subject_ids if s not in by_id]
    if missing:
        raise FedharError(f"subjects missing from data: {missing}")
    return [by_id[s] for s in subject_ids]


def _base_records(args):
    """Load the base-model subjects (the fold's, given --fold-plan) and standardize them.

    Returns the standardizer fit to them and the standardized records.
    """
    subject_ids = None
    if args.fold_plan:
        plan = D.FoldPlan.load(args.fold_plan)
        subject_ids = plan.base_subjects[_check_fold(plan, args.fold)]
    records = _load_records(args.data, subject_ids)
    standardizer = D.fit_standardizer(records)
    return standardizer, [D.apply_standardizer(r, standardizer) for r in records]


def _checkpoint(path: str, standardizer_file: str | None):
    """A checkpoint's weights and its standardizer (the sidecar unless overridden)."""
    weights = load_checkpoint(path)
    return weights, D.Standardizer.load(standardizer_file or standardizer_path(path))


def _fed_config(args, min_clients: int, timeout: float | None = None) -> FedConfig:
    return FedConfig(rounds=args.rounds, min_available_clients=min_clients,
                     local_epochs=args.local_epochs, batch_size=args.batch_size,
                     local_lr=args.local_lr, seed=args.seed, round_timeout_s=timeout)


def _split_windows(record, standardizer, n_positions, seed):
    """Standardize and window one subject's data, then split it 80/20."""
    windows = D.make_windows(D.apply_standardizer(record, standardizer), n_positions)
    return D.split_train_test(windows, seed=seed)


# ------------------------------------------------------------- commands
#
# Each command returns (manifest path, config, inputs, outputs), or None
# when it writes no files; simulate adds a dict of top-level manifest entries.

def cmd_gen_synthetic(args):
    spec = D.SyntheticSpec(
        n_subjects=args.subjects,
        minutes_per_subject=args.minutes,
        n_features=args.features,
        n_labels=args.labels,
        alpha=args.alpha,
        noise_std=args.noise_std,
        seed=args.seed,
    )
    records = D.gen_synthetic(spec)
    os.makedirs(args.out, exist_ok=True)
    outputs = []
    for rec in records:
        path = os.path.join(args.out, f"{rec.subject_id}.csv")
        D.write_subject_csv(rec, path)
        outputs.append(path)
    print(f"wrote {len(records)} subjects to {args.out}")
    return os.path.join(args.out, "manifest.json"), spec.__dict__, [], outputs


def cmd_make_folds(args):
    records = _load_records(args.data)
    plan = D.build_fold_plan([r.subject_id for r in records], args.seed,
                             n_folds=args.n_folds)
    plan.save(args.out)
    print(f"{args.n_folds} folds of {len(plan.folds[0])} subjects -> {args.out}")
    return (f"{args.out}.manifest.json", {"n_folds": args.n_folds},
            [args.data], [args.out])


def cmd_pretrain(args):
    standardizer, standardized = _base_records(args)
    mc = ModelConfig(n_features=standardized[0].features.shape[1],
                     n_labels=standardized[0].labels.shape[1],
                     transformers_layers=args.layers, hidden_size=args.hidden,
                     n_positions=args.n_positions, n_heads=args.n_heads,
                     dropout=args.dropout, seed=args.seed)
    n_subjects = len(standardized)
    windows = []
    while standardized:  # each record is dropped once it is windowed
        windows.append(D.make_windows(standardized.pop(0), mc.n_positions))
    train_w = D.split_train_test(windows, seed=args.seed)[0]
    del windows
    tc = TrainConfig(epochs=args.epochs, learning_rate=args.lr,
                     batch_size=args.batch_size, seed=derive_seed(args.seed, "pretrain"))
    log.info("pretraining on %d windows (%d subjects)", len(train_w), n_subjects)
    weights, history = train(init_model(mc), train_w, tc)

    save_checkpoint(args.out, weights)
    standardizer.save(standardizer_path(args.out))
    history_path = f"{args.out}.history.json"
    atomic_write_json(history_path, {"loss": history})
    print(f"checkpoint written to {args.out} (final loss {history[-1]:.4f})")
    return (f"{args.out}.manifest.json",
            {"model": mc.__dict__, "train": tc.__dict__},
            [args.data] + ([args.fold_plan] if args.fold_plan else []),
            [args.out, standardizer_path(args.out), history_path])


def cmd_search(args):
    _standardizer, standardized = _base_records(args)
    space = SearchSpace()
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        best, _trials = random_search(
            space, args.budget, standardized, args.seed,
            epochs=args.epochs, batch_size=args.batch_size,
            on_trial=lambda t: append_jsonl(fh, t.to_json_dict()),
        )
    if best is None:
        raise FedharError("no trial produced a defined validation score")
    best_path = args.best_out or f"{args.out}.best.json"
    atomic_write_json(best_path, {"trial": best.index, "params": best.params,
                                  "val_mean_ba": best.val_mean_ba})
    print(f"best trial {best.index}: val mean BA {best.val_mean_ba:.4f} "
          f"with {best.params}")
    return (f"{args.out}.manifest.json",
            {"budget": args.budget, "epochs": args.epochs, "batch_size": args.batch_size,
             "space": space.__dict__},
            [args.data] + ([args.fold_plan] if args.fold_plan else []),
            [args.out, best_path])


def cmd_simulate(args):
    plan = D.FoldPlan.load(args.fold_plan)
    folds = ([_check_fold(plan, k) for k in args.folds] if args.folds
             else list(range(plan.n_folds)))
    ckpts = {k: os.path.join(args.base_ckpt_dir, f"base_fold{k}.ckpt") for k in folds}
    for ckpt in ckpts.values():
        for path in (ckpt, standardizer_path(ckpt)):
            if not os.path.exists(path):
                raise FedharError(f"missing base checkpoint {path}")

    config = _fed_config(args, min(len(plan.folds[k]) for k in folds))
    os.makedirs(args.out, exist_ok=True)
    audit_path = os.path.join(args.out, "audit.jsonl")
    outputs, fold_means, all_client_bas, workers = [audit_path], [], [], []
    with open(audit_path, "w", encoding="utf-8") as audit_fh:
        for k in folds:  # one fold's records, weights, windows and result held at a time
            base, standardizer = _checkpoint(ckpts[k], None)
            records = _load_records(args.data, plan.folds[k])
            log.info("fold %d: starting %d federated rounds", k, config.rounds)
            res = run_fold(k, {rec.subject_id: _split_windows(
                                   rec, standardizer, base.config.n_positions, args.seed)
                               for rec in records},
                           base, config, audit=lambda e: append_jsonl(audit_fh, e),
                           label_names=records[0].label_names)
            path = os.path.join(args.out, f"fold{k}.json")
            atomic_write_json(path, res.to_json_dict())
            outputs.append(path)
            fold_means.append({"fold": k, "mean_ba": res.final_report.summary["mean"],
                               "base_mean_ba": res.base_report.summary["mean"]})
            print(f"fold {k}: base mean BA {res.base_report.summary['mean']:.4f} -> "
                  f"federated {res.final_report.summary['mean']:.4f}")
            all_client_bas.extend(c.mean_ba for c in res.final_report.clients)
            workers.append({"fold": k, "count": len(res.worker_blas_threads),
                            "blas_threads": res.worker_blas_threads})
            del base, records, res

    means_path = os.path.join(args.out, "fold_means.json")
    atomic_write_json(means_path, {"folds": fold_means})
    summary_path = os.path.join(args.out, "summary.json")
    atomic_write_json(summary_path, {
        "mean_ba_overall": float(sum(all_client_bas) / len(all_client_bas)),
        "best_fold_mean": max(f["mean_ba"] for f in fold_means),
        "best_client": max(all_client_bas),
    })
    return (os.path.join(args.out, "manifest.json"),
            {"fed": config.__dict__, "folds": folds},
            [args.data, args.fold_plan, args.base_ckpt_dir],
            outputs + [means_path, summary_path], {"workers": workers})


def cmd_fed_server(args):
    base = load_checkpoint(args.base_ckpt)
    config = _fed_config(args, args.clients, timeout=args.timeout)
    os.makedirs(args.out, exist_ok=True)
    audit_path = os.path.join(args.out, "audit.jsonl")
    with open(audit_path, "w", encoding="utf-8") as audit_fh:
        result = server_loop(
            args.bind, args.port, base, config, fold=args.fold,
            expected_clients=args.clients,
            accept_timeout=args.accept_timeout,
            audit=lambda e: append_jsonl(audit_fh, e),
        )
    report_path = os.path.join(args.out, f"fold{args.fold}.json")
    atomic_write_json(report_path, result.to_json_dict())
    final_ckpt = os.path.join(args.out, f"final_fold{args.fold}.ckpt")
    save_checkpoint(final_ckpt, result.final_weights)
    # carry the base standardizer along so `evaluate` works on the final ckpt
    base_stdz = standardizer_path(args.base_ckpt)
    if os.path.exists(base_stdz):
        shutil.copyfile(base_stdz, standardizer_path(final_ckpt))
    print(f"fold {args.fold}: base mean BA {result.base_report.summary['mean']:.4f} -> "
          f"federated {result.final_report.summary['mean']:.4f}")
    return (os.path.join(args.out, "manifest.json"), {"fed": config.__dict__},
            [args.base_ckpt], [report_path, final_ckpt, audit_path])


def cmd_fed_client(args):
    weights, standardizer = _checkpoint(args.base_ckpt, args.standardizer)
    record = D.parse_extrasensory_csv(args.data)
    train_w, test_w = _split_windows(record, standardizer, weights.config.n_positions,
                                     args.seed)
    client_id = args.client_id or record.subject_id
    rounds = client_loop(
        args.server, args.port, client_id, weights.config,
        train_w, test_w, label_names=record.label_names,
    )
    print(f"client {client_id} finished {rounds} rounds")
    return None


def cmd_evaluate(args):
    weights, standardizer = _checkpoint(args.ckpt, args.standardizer)
    reports = []
    for rec in _load_records(args.data):
        standardized = D.apply_standardizer(rec, standardizer)
        windows = D.make_windows(standardized, weights.config.n_positions)
        if args.split_seed is not None:
            _train_w, windows = D.split_train_test(windows, seed=args.split_seed)
        reports.append(evaluate(weights, windows, rec.subject_id, rec.label_names))
    report = fold_summary(reports, fold=args.fold)
    atomic_write_json(args.out, report.to_json_dict())
    print(f"mean BA over {len(reports)} subjects: {report.summary['mean']:.4f}")
    return (f"{args.out}.manifest.json", {"ckpt": args.ckpt},
            [args.ckpt, args.data], [args.out])


# -------------------------------------------------------------- parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedhar",
        description="Federated multi-label activity recognition on per-minute "
                    "sensor features.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # options shared by several commands, each declared once
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0)
    base = argparse.ArgumentParser(add_help=False)  # the base model's data and training
    base.add_argument("--data", required=True, help="subject CSV directory (or one file)")
    base.add_argument("--fold-plan", help="restrict to a fold's base subjects")
    base.add_argument("--fold", type=int, default=0)
    base.add_argument("--epochs", type=_positive(int), default=DESK_EPOCHS)
    base.add_argument("--batch-size", type=_positive(int), default=64)
    rounds = argparse.ArgumentParser(add_help=False)  # a federated fold's rounds
    rounds.add_argument("--rounds", type=_positive(int), default=4)
    rounds.add_argument("--local-epochs", type=_positive(int), default=DESK_LOCAL_EPOCHS)
    rounds.add_argument("--local-lr", type=_positive(float), default=1e-3)
    rounds.add_argument("--batch-size", type=_positive(int), default=64)

    p = sub.add_parser("gen-synthetic", parents=[seed],
                       help="generate a non-IID synthetic cohort")
    p.add_argument("--out", required=True, help="output directory for subject CSVs")
    p.add_argument("--subjects", type=_positive(int), default=60)
    p.add_argument("--minutes", type=_positive(int), default=240)
    p.add_argument("--features", type=_positive(int), default=D.EXTRASENSORY_FEATURES)
    p.add_argument("--labels", type=_positive(int), default=D.EXTRASENSORY_LABELS)
    p.add_argument("--alpha", type=_positive(float), default=0.2,
                   help="Dirichlet concentration; smaller = more skewed subjects")
    p.add_argument("--noise-std", type=_nonnegative(float), default=0.1)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("make-folds", parents=[seed], help="partition subjects into client folds")
    p.add_argument("--data", required=True, help="subject CSV directory")
    p.add_argument("--out", required=True, help="fold plan JSON path")
    p.add_argument("--n-folds", type=_positive(int), default=5)
    p.set_defaults(func=cmd_make_folds)

    p = sub.add_parser("pretrain", parents=[seed, base], help="centralized base-model training")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--layers", type=_positive(int), default=4)
    p.add_argument("--hidden", type=_positive(int), default=384)
    p.add_argument("--n-positions", type=_positive(int), default=128)
    p.add_argument("--n-heads", type=_positive(int))
    p.add_argument("--dropout", type=_nonnegative(float), default=0.1)
    p.add_argument("--lr", type=_positive(float), default=4e-5)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("search", parents=[seed, base], help="random hyperparameter search")
    p.add_argument("--out", required=True, help="trial log (JSON lines)")
    p.add_argument("--best-out", help="best-config JSON (default <out>.best.json)")
    p.add_argument("--budget", type=_positive(int), default=DESK_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("simulate", parents=[seed, rounds],
                       help="in-process federated cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--fold-plan", required=True)
    p.add_argument("--base-ckpt-dir", required=True,
                   help="directory holding base_fold{k}.ckpt files")
    p.add_argument("--out", required=True)
    p.add_argument("--folds", type=_fold_list,
                   help="comma list of folds to run (default: all)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fed-server", parents=[seed, rounds], help="drive federation over TCP")
    p.add_argument("--base-ckpt", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--bind", default="127.0.0.1")
    p.add_argument("--port", type=_port, default=DEFAULT_PORT)
    p.add_argument("--clients", type=_positive(int), default=12,
                   help="clients to wait for before starting")
    p.add_argument("--fold", type=_nonnegative(int), default=0)
    p.add_argument("--timeout", type=_positive(float),
                   help="seconds each broadcast may take, its writes and replies included")
    p.add_argument("--accept-timeout", type=_positive(float), default=120.0)
    p.set_defaults(func=cmd_fed_server)

    p = sub.add_parser("fed-client", help="join a federation as one subject")
    p.add_argument("--server", required=True)
    p.add_argument("--port", type=_port, default=DEFAULT_PORT)
    p.add_argument("--subject-data", "--data", dest="data", required=True,
                   help="this subject's CSV")
    p.add_argument("--base-ckpt", required=True,
                   help="base checkpoint (model config + standardizer sidecar)")
    p.add_argument("--standardizer", help="override the sidecar path")
    p.add_argument("--client-id")
    p.add_argument("--seed", type=int, default=0,
                   help="must match the server's --seed for the 80/20 split")
    p.set_defaults(func=cmd_fed_client)

    p = sub.add_parser("evaluate", help="evaluate a checkpoint on subject data")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--standardizer")
    p.add_argument("--fold", type=_nonnegative(int), default=0)
    p.add_argument("--split-seed", type=int,
                   help="apply the 80/20 split and score only the test side")
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    logging.basicConfig(level=os.environ.get("FEDHAR_LOG", "WARNING"),
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    started_at = datetime.datetime.now(datetime.timezone.utc).isoformat()
    started = time.monotonic()
    try:
        manifest = args.func(args)
        if manifest is not None:
            path, config, inputs, outputs, *extra = manifest
            atomic_write_json(path, {
                "command": args.command,
                "argv": list(argv),
                "config": config,
                "seed": getattr(args, "seed", 0),
                "inputs": [str(p) for p in inputs],
                "outputs": [str(p) for p in outputs],
                "started_at": started_at,
                "wall_ms": (time.monotonic() - started) * 1e3,
                "package_version": __version__,
                "blas": {"library": tensor._openblas[0] if tensor._openblas else None,
                         "threads": tensor._blas_start},
                **(extra[0] if extra else {}),
            })
    except (FedharError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
