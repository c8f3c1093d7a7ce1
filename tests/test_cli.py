"""CLI: every subcommand end to end on a tiny synthetic corpus."""

import argparse
import datetime
import json
import shutil
import socket
import threading

import pytest

import fedhar.data as D
from fedhar.cli import build_parser, main
from fedhar.errors import DecodeError, FormatError
from fedhar.fedavg import _usable_cores
from fedhar.wire import load_checkpoint

GEN = ["--subjects", "6", "--minutes", "96", "--features", "6",
       "--labels", "3", "--alpha", "0.5", "--seed", "1"]
TINY_MODEL = ["--layers", "1", "--hidden", "8", "--n-positions", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Corpus + fold plan + one pretrained base checkpoint, built once."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    assert main(["gen-synthetic", "--out", str(corpus)] + GEN) == 0
    plan = root / "folds.json"
    assert main(["make-folds", "--data", str(corpus), "--out", str(plan),
                 "--n-folds", "3", "--seed", "0"]) == 0
    ckpts = root / "ckpts"
    ckpts.mkdir()
    base = ckpts / "base_fold0.ckpt"
    assert main(["pretrain", "--data", str(corpus), "--out", str(base),
                 "--fold-plan", str(plan), "--fold", "0",
                 "--epochs", "3", "--lr", "1e-2", "--batch-size", "8",
                 "--seed", "0"] + TINY_MODEL) == 0
    return {"root": root, "corpus": corpus, "plan": plan,
            "ckpts": ckpts, "base": base}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


MANIFEST_KEYS = ["command", "argv", "config", "seed", "inputs", "outputs",
                 "started_at", "wall_ms", "package_version", "blas"]


def read_manifest(path, command, extra=()):
    """A command's manifest, checked for its exact keys in their order."""
    manifest = read_json(path)
    assert list(manifest) == MANIFEST_KEYS + list(extra)
    assert manifest["command"] == command
    assert manifest["wall_ms"] >= 0.0
    blas = manifest["blas"]
    assert list(blas) == ["library", "threads"]
    # numpy's bundled OpenBLAS and the thread count the process started
    # with, or null for both under another BLAS
    if blas["library"] is None:
        assert blas["threads"] is None
    else:
        assert "openblas" in blas["library"] and blas["threads"] >= 1
    return manifest


def test_manifest_started_at_is_the_start_of_the_run(workspace, tmp_path):
    out = tmp_path / "timed.ckpt"
    before = datetime.datetime.now(datetime.timezone.utc)
    assert main(["pretrain", "--data", str(workspace["corpus"]), "--out", str(out),
                 "--epochs", "3", "--lr", "1e-2", "--batch-size", "8",
                 "--seed", "0"] + TINY_MODEL) == 0
    after = datetime.datetime.now(datetime.timezone.utc)
    manifest = read_manifest(f"{out}.manifest.json", "pretrain")
    started = datetime.datetime.fromisoformat(manifest["started_at"])
    slack = datetime.timedelta(milliseconds=5)
    assert before - slack <= started
    assert started + datetime.timedelta(milliseconds=manifest["wall_ms"]) <= after + slack


# ------------------------------------------------------------ generate

def test_gen_synthetic_outputs(workspace, tmp_path):
    corpus = workspace["corpus"]
    records = D.load_subject_dir(str(corpus))
    assert len(records) == 6
    assert records[0].features.shape == (96, 6)
    assert records[0].labels.shape == (96, 3)

    manifest = read_manifest(corpus / "manifest.json", "gen-synthetic")
    assert manifest["seed"] == 1
    assert len(manifest["outputs"]) == 6
    assert manifest["package_version"]


def test_gen_synthetic_is_deterministic(workspace, tmp_path):
    again = tmp_path / "again"
    assert main(["gen-synthetic", "--out", str(again)] + GEN) == 0
    for path in sorted(workspace["corpus"].glob("*.csv")):
        assert (again / path.name).read_bytes() == path.read_bytes()


def test_usage_errors_exit_2(capsys):
    for argv, message in [
        (["gen-synthetic", "--out", "x", "--subjects", "0"], "must be positive"),
        (["no-such-command"], "invalid choice"),
        (["simulate", "--folds", "x"], "comma-separated fold indices"),
        (["simulate", "--folds", "0,,1"], "comma-separated fold indices"),
        (["simulate", "--folds", "1.5"], "comma-separated fold indices"),
        # a repeated fold would run twice and count its clients twice
        (["simulate", "--folds", "0,0"], "fold listed twice"),
        (["simulate", "--folds", "0,1,0"], "fold listed twice"),
        # every client of a fold takes part, so there is no client minimum to set
        (["simulate", "--data", "d", "--fold-plan", "p", "--base-ckpt-dir", "c",
          "--out", "o", "--min-clients", "3"], "unrecognized arguments: --min-clients"),
        # no fold plan to check these against, but a fold label is never negative
        (["fed-server", "--fold", "-1"], "must be >= 0"),
        (["evaluate", "--fold", "-1"], "must be >= 0"),
        (["fed-server", "--port", "70000"], "must be a port in 1..65535"),
        (["fed-server", "--port", "0"], "must be a port in 1..65535"),
        (["fed-client", "--port", "70000"], "must be a port in 1..65535"),
        (["fed-client", "--port", "-1"], "must be a port in 1..65535"),
        # a NaN or infinite rate would train NaN weights; a NaN timeout never fires
        (["pretrain", "--lr", "nan"], "must be positive and finite, got nan"),
        (["simulate", "--local-lr", "inf"], "must be positive and finite, got inf"),
        (["fed-server", "--timeout", "nan"], "must be positive and finite, got nan"),
        # NaN passes a one-sided bound: a NaN noise std added no noise and
        # wrote invalid JSON into the manifest
        (["gen-synthetic", "--out", "x", "--noise-std", "nan"], "must be >= 0 and finite"),
        (["gen-synthetic", "--out", "x", "--noise-std", "inf"], "must be >= 0 and finite"),
        (["pretrain", "--dropout", "nan"], "must be >= 0 and finite"),
    ]:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2, argv
        assert message in capsys.readouterr().err, argv


# Every subcommand's options: option strings -> (dest, default, required).
# A shared option is declared once in the parser; this table holds what each
# subcommand must accept regardless.
OPTIONS = {
    "gen-synthetic": {
        ("--out",): ("out", None, True),
        ("--subjects",): ("subjects", 60, False),
        ("--minutes",): ("minutes", 240, False),
        ("--features",): ("features", 225, False),
        ("--labels",): ("labels", 51, False),
        ("--alpha",): ("alpha", 0.2, False),
        ("--noise-std",): ("noise_std", 0.1, False),
        ("--seed",): ("seed", 0, False),
    },
    "make-folds": {
        ("--data",): ("data", None, True),
        ("--out",): ("out", None, True),
        ("--n-folds",): ("n_folds", 5, False),
        ("--seed",): ("seed", 0, False),
    },
    "pretrain": {
        ("--data",): ("data", None, True),
        ("--out",): ("out", None, True),
        ("--fold-plan",): ("fold_plan", None, False),
        ("--fold",): ("fold", 0, False),
        ("--layers",): ("layers", 4, False),
        ("--hidden",): ("hidden", 384, False),
        ("--n-positions",): ("n_positions", 128, False),
        ("--n-heads",): ("n_heads", None, False),
        ("--dropout",): ("dropout", 0.1, False),
        ("--epochs",): ("epochs", 50, False),
        ("--lr",): ("lr", 4e-5, False),
        ("--batch-size",): ("batch_size", 64, False),
        ("--seed",): ("seed", 0, False),
    },
    "search": {
        ("--data",): ("data", None, True),
        ("--out",): ("out", None, True),
        ("--best-out",): ("best_out", None, False),
        ("--fold-plan",): ("fold_plan", None, False),
        ("--fold",): ("fold", 0, False),
        ("--budget",): ("budget", 8, False),
        ("--epochs",): ("epochs", 50, False),
        ("--batch-size",): ("batch_size", 64, False),
        ("--seed",): ("seed", 0, False),
    },
    "simulate": {
        ("--data",): ("data", None, True),
        ("--fold-plan",): ("fold_plan", None, True),
        ("--base-ckpt-dir",): ("base_ckpt_dir", None, True),
        ("--out",): ("out", None, True),
        ("--folds",): ("folds", None, False),
        ("--rounds",): ("rounds", 4, False),
        ("--local-epochs",): ("local_epochs", 20, False),
        ("--local-lr",): ("local_lr", 1e-3, False),
        ("--batch-size",): ("batch_size", 64, False),
        ("--seed",): ("seed", 0, False),
    },
    "fed-server": {
        ("--base-ckpt",): ("base_ckpt", None, True),
        ("--out",): ("out", None, True),
        ("--bind",): ("bind", "127.0.0.1", False),
        ("--port",): ("port", 8099, False),
        ("--clients",): ("clients", 12, False),
        ("--fold",): ("fold", 0, False),
        ("--rounds",): ("rounds", 4, False),
        ("--local-epochs",): ("local_epochs", 20, False),
        ("--local-lr",): ("local_lr", 1e-3, False),
        ("--batch-size",): ("batch_size", 64, False),
        ("--timeout",): ("timeout", None, False),
        ("--accept-timeout",): ("accept_timeout", 120.0, False),
        ("--seed",): ("seed", 0, False),
    },
    "fed-client": {
        ("--server",): ("server", None, True),
        ("--port",): ("port", 8099, False),
        ("--subject-data", "--data"): ("data", None, True),
        ("--base-ckpt",): ("base_ckpt", None, True),
        ("--standardizer",): ("standardizer", None, False),
        ("--client-id",): ("client_id", None, False),
        ("--seed",): ("seed", 0, False),
    },
    "evaluate": {
        ("--ckpt",): ("ckpt", None, True),
        ("--data",): ("data", None, True),
        ("--out",): ("out", None, True),
        ("--standardizer",): ("standardizer", None, False),
        ("--fold",): ("fold", 0, False),
        ("--split-seed",): ("split_seed", None, False),
    },
}


def test_every_subcommand_keeps_its_options(capsys):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTIONS)
    for command, parser in sub.choices.items():
        got = {tuple(a.option_strings): (a.dest, a.default, a.required)
               for a in parser._actions if not isinstance(a, argparse._HelpAction)}
        assert got == OPTIONS[command], command
    # the round settings' checks hold for both commands that share them
    for command in ("simulate", "fed-server"):
        with pytest.raises(SystemExit) as err:
            main([command, "--local-lr", "0"])
        assert err.value.code == 2
        assert "must be positive and finite, got 0" in capsys.readouterr().err


# ----------------------------------------------------------- make-folds

def test_make_folds_plan(workspace):
    plan = D.FoldPlan.load(str(workspace["plan"]))
    assert plan.n_folds == 3
    assert [len(f) for f in plan.folds] == [2, 2, 2]
    assert [len(b) for b in plan.base_subjects] == [4, 4, 4]
    manifest = read_manifest(workspace["root"] / "folds.json.manifest.json", "make-folds")
    assert manifest["outputs"] == [str(workspace["plan"])]


# ------------------------------------------------------------- pretrain

def test_pretrain_outputs(workspace):
    base = workspace["base"]
    ws = load_checkpoint(str(base))
    assert ws.config.hidden_size == 8
    assert str(base) + ".stdz.json"
    assert (workspace["ckpts"] / "base_fold0.ckpt.stdz.json").exists()
    history = read_json(str(base) + ".history.json")
    assert len(history["loss"]) == 3
    manifest = read_manifest(str(base) + ".manifest.json", "pretrain")
    assert manifest["config"]["model"]["hidden_size"] == 8


def test_pretrain_rerun_is_byte_identical(workspace, tmp_path):
    again = tmp_path / "again.ckpt"
    assert main(["pretrain", "--data", str(workspace["corpus"]),
                 "--out", str(again),
                 "--fold-plan", str(workspace["plan"]), "--fold", "0",
                 "--epochs", "3", "--lr", "1e-2", "--batch-size", "8",
                 "--seed", "0"] + TINY_MODEL) == 0
    assert again.read_bytes() == workspace["base"].read_bytes()


def test_pretrain_fold_plan_changes_training_set(workspace, tmp_path):
    no_plan = tmp_path / "all.ckpt"
    assert main(["pretrain", "--data", str(workspace["corpus"]),
                 "--out", str(no_plan),
                 "--epochs", "3", "--lr", "1e-2", "--batch-size", "8",
                 "--seed", "0"] + TINY_MODEL) == 0
    assert no_plan.read_bytes() != workspace["base"].read_bytes()


# --------------------------------------------------------------- search

def test_search_writes_trial_log_and_best(workspace, tmp_path, capsys):
    out = tmp_path / "trials.jsonl"
    with pytest.warns(D.SplitWarning):  # oversized trials degrade, not abort
        code = main(["search", "--data", str(workspace["corpus"]),
                     "--fold-plan", str(workspace["plan"]), "--fold", "0",
                     "--out", str(out), "--budget", "3", "--epochs", "1",
                     "--seed", "0"])
    assert code == 0
    assert "best trial" in capsys.readouterr().out
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 3
    for entry in lines:
        assert set(entry) >= {"trial", "params", "val_mean_ba", "wall_ms"}
    best = read_json(str(out) + ".best.json")
    assert {"trial", "params", "val_mean_ba"} <= set(best)
    assert best["val_mean_ba"] == max(
        e["val_mean_ba"] for e in lines if e["val_mean_ba"] is not None)
    manifest = read_manifest(str(out) + ".manifest.json", "search")
    assert manifest["inputs"] == [str(workspace["corpus"]), str(workspace["plan"])]
    assert manifest["outputs"] == [str(out), str(out) + ".best.json"]

    rerun = tmp_path / "rerun.jsonl"
    with pytest.warns(D.SplitWarning):
        assert main(["search", "--data", str(workspace["corpus"]),
                     "--fold-plan", str(workspace["plan"]), "--fold", "0",
                     "--out", str(rerun), "--budget", "3", "--epochs", "1",
                     "--seed", "0"]) == 0
    redo = [json.loads(l) for l in rerun.read_text().splitlines()]
    for a, b in zip(lines, redo):
        a.pop("wall_ms"), b.pop("wall_ms")  # timing is the one free field
        assert a == b
    capsys.readouterr()


def test_search_exits_1_when_no_trial_scores(tmp_path, capsys):
    # 8-minute subjects cannot fill any sampled window size twice over
    corpus = tmp_path / "micro"
    assert main(["gen-synthetic", "--out", str(corpus), "--subjects", "2",
                 "--minutes", "8", "--features", "6", "--labels", "3",
                 "--seed", "0"]) == 0
    out = tmp_path / "trials.jsonl"
    with pytest.warns(D.SplitWarning):
        code = main(["search", "--data", str(corpus), "--out", str(out),
                     "--budget", "2", "--epochs", "1", "--seed", "0"])
    assert code == 1
    assert "error: no trial produced" in capsys.readouterr().err
    assert not (tmp_path / "trials.jsonl.manifest.json").exists()
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert [e["val_mean_ba"] for e in lines] == [None, None]


# ------------------------------------------------------------- simulate

def test_simulate_fold_zero(workspace, tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--data", str(workspace["corpus"]),
                 "--fold-plan", str(workspace["plan"]),
                 "--base-ckpt-dir", str(workspace["ckpts"]),
                 "--out", str(out), "--folds", "0",
                 "--rounds", "2", "--local-epochs", "2",
                 "--local-lr", "1e-2", "--batch-size", "8", "--seed", "0"])
    assert code == 0
    assert "fold 0" in capsys.readouterr().out

    fold = read_json(out / "fold0.json")
    assert fold["fold"] == 0
    assert len(fold["rounds"]) == 2
    assert fold["final"] == fold["rounds"][-1]
    assert fold["base"]["summary"]["mean"] is not None

    means = read_json(out / "fold_means.json")
    assert [f["fold"] for f in means["folds"]] == [0]

    summary = read_json(out / "summary.json")
    assert set(summary) == {"mean_ba_overall", "best_fold_mean", "best_client"}
    assert 0.0 <= summary["mean_ba_overall"] <= 1.0
    assert summary["best_client"] >= summary["mean_ba_overall"]

    audit = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    assert sum(e["event"] == "aggregate" for e in audit) == 2
    manifest = read_manifest(out / "manifest.json", "simulate", extra=["workers"])
    # the fold's 2 clients fit in one worker per usable core, which split
    # the BLAS threads this process started with
    count = min(_usable_cores(), 2)
    start = manifest["blas"]["threads"]
    assert manifest["workers"] == [{"fold": 0, "count": count, "blas_threads": [
        None if start is None else max(1, start // count)] * count}]


@pytest.mark.parametrize("folds, present", [("1", []), ("0,1", [0])],
                         ids=["one_fold", "two_folds"])
def test_simulate_requires_base_checkpoints(workspace, tmp_path, capsys, folds, present):
    """Every fold's checkpoint is checked before any round starts."""
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    for k in present:
        name = f"base_fold{k}.ckpt"
        shutil.copyfile(workspace["ckpts"] / name, ckpts / name)
        shutil.copyfile(workspace["ckpts"] / f"{name}.stdz.json", ckpts / f"{name}.stdz.json")
    out = tmp_path / "sim"
    code = main(["simulate", "--data", str(workspace["corpus"]),
                 "--fold-plan", str(workspace["plan"]),
                 "--base-ckpt-dir", str(ckpts),
                 "--out", str(out), "--folds", folds])
    assert code == 1
    assert "missing base checkpoint" in capsys.readouterr().err
    assert not (out / "audit.jsonl").exists()
    assert not (out / "fold0.json").exists()


def test_simulate_keeps_the_folds_before_one_that_fails(workspace, tmp_path, capsys):
    """Folds run one at a time, and each writes its report when it ends.

    Fold 1's checkpoint exists but is cut short, so it fails to decode only
    when its turn comes: fold 0's report stays, byte-identical to a run of
    fold 0 alone, and the cross-fold files are never written.
    """
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    blob = workspace["base"].read_bytes()
    for k, data in [(0, blob), (1, blob[:len(blob) // 2])]:
        (ckpts / f"base_fold{k}.ckpt").write_bytes(data)
        shutil.copyfile(f"{workspace['base']}.stdz.json", ckpts / f"base_fold{k}.ckpt.stdz.json")
    with pytest.raises(DecodeError) as err:
        load_checkpoint(str(ckpts / "base_fold1.ckpt"))
    codes = {}
    for folds in ["0", "0,1"]:
        codes[folds] = main(["simulate", "--data", str(workspace["corpus"]),
                             "--fold-plan", str(workspace["plan"]),
                             "--base-ckpt-dir", str(ckpts),
                             "--out", str(tmp_path / folds), "--folds", folds,
                             "--rounds", "1", "--local-epochs", "1",
                             "--batch-size", "8", "--seed", "0"])
    assert codes == {"0": 0, "0,1": 1}
    assert f"error: {err.value}" in capsys.readouterr().err
    failed = tmp_path / "0,1"
    assert (failed / "fold0.json").read_bytes() == (tmp_path / "0" / "fold0.json").read_bytes()
    for name in ["fold1.json", "fold_means.json", "summary.json", "manifest.json"]:
        assert not (failed / name).exists(), name


def test_commands_parse_only_the_subjects_they_use(workspace, tmp_path, capsys):
    """``pretrain --fold-plan`` parses only the fold's base subjects, and
    ``simulate`` only the chosen folds' clients. A corrupt CSV of another
    subject stops neither, and their outputs are those of the intact corpus.
    A subject the plan names but the directory lacks is still refused."""
    plan = D.FoldPlan.load(str(workspace["plan"]))
    corpus = tmp_path / "corpus"
    shutil.copytree(workspace["corpus"], corpus)

    def corrupt(subject):
        path = corpus / f"{subject}.csv"
        intact = path.read_bytes()
        path.write_text("timestamp,label:X\n1000,1\n")  # no feature column
        with pytest.raises(FormatError, match="need at least one feature"):
            D.load_subject_dir(str(corpus))
        return lambda: path.write_bytes(intact)

    restore = corrupt(plan.folds[0][0])  # a fold-0 client, outside its base pool
    base = tmp_path / "base_fold0.ckpt"
    assert main(["pretrain", "--data", str(corpus), "--out", str(base),
                 "--fold-plan", str(workspace["plan"]), "--fold", "0",
                 "--epochs", "3", "--lr", "1e-2", "--batch-size", "8",
                 "--seed", "0"] + TINY_MODEL) == 0
    assert base.read_bytes() == workspace["base"].read_bytes()
    restore()

    def simulate(data, out):
        return main(["simulate", "--data", str(data), "--fold-plan", str(workspace["plan"]),
                     "--base-ckpt-dir", str(workspace["ckpts"]), "--out", str(out),
                     "--folds", "0", "--rounds", "1", "--local-epochs", "1",
                     "--batch-size", "8", "--seed", "0"])
    assert simulate(workspace["corpus"], tmp_path / "intact") == 0
    corrupt(plan.folds[1][0])  # a subject of another fold
    assert simulate(corpus, tmp_path / "sim") == 0
    for name in ["fold0.json", "fold_means.json", "summary.json"]:
        assert (tmp_path / "sim" / name).read_bytes() == \
            (tmp_path / "intact" / name).read_bytes(), name

    (corpus / f"{plan.folds[0][1]}.csv").unlink()
    capsys.readouterr()
    assert simulate(corpus, tmp_path / "missing") == 1
    assert f"subjects missing from data: ['{plan.folds[0][1]}']" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["pretrain", "--out", "{tmp}/b.ckpt", "--fold", "9"],
    ["pretrain", "--out", "{tmp}/b.ckpt", "--fold", "-1"],
    ["search", "--out", "{tmp}/t.jsonl", "--fold", "3"],
    ["simulate", "--base-ckpt-dir", "{ckpts}", "--out", "{tmp}/sim", "--folds", "0,7"],
    ["simulate", "--base-ckpt-dir", "{ckpts}", "--out", "{tmp}/sim", "--folds", "-1"],
], ids=["pretrain_9", "pretrain_negative", "search_3", "simulate_7", "simulate_negative"])
def test_fold_outside_the_plan_exits_1(workspace, tmp_path, capsys, argv):
    argv = [a.format(tmp=tmp_path, ckpts=workspace["ckpts"]) for a in argv]
    code = main(argv + ["--data", str(workspace["corpus"]),
                        "--fold-plan", str(workspace["plan"])])
    assert code == 1
    assert "out of range: the plan has folds 0..2" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


PLAN_9_OF_5 = ('{"n_folds": 9, "seed": 0, "folds": [[], [], [], [], []], '
               '"base_subjects": [[], [], [], [], []]}')


@pytest.mark.parametrize("command, text", [
    ("evaluate", "{not json"),
    ("evaluate", '{"mean": [0.0, 0.0]}'),
    ("evaluate", '{"mean": [0.0, 0.0], "std": [1.0]}'),
    ("evaluate", '{"mean": [[0.0], [0.0]], "std": [[1.0], [1.0]]}'),
    ("evaluate", '{"mean": [0.0, NaN], "std": [1.0, 1.0]}'),
    ("evaluate", '{"mean": [0.0, 0.0], "std": [1.0, 0.0]}'),
    ("pretrain", "[1, 2"),
    ("pretrain", '{"n_folds": 1, "seed": 0, "folds": [[]]}'),
    ("pretrain", PLAN_9_OF_5),
    ("pretrain", '{"n_folds": 1, "seed": 0, "folds": ["abc"], "base_subjects": [7]}'),
    ("pretrain", '{"n_folds": 2, "seed": 0, "folds": [["a"], ["b"]], '
                 '"base_subjects": [["a", "b"], ["a"]]}'),
    ("pretrain", '{"n_folds": 1, "seed": 0, "folds": [["a"]], '
                 '"base_subjects": [["b", "b"]]}'),
], ids=["stdz_bad_json", "stdz_no_std", "stdz_short_std", "stdz_2d", "stdz_nan",
        "stdz_zero_std", "plan_bad_json", "plan_no_base_subjects", "plan_9_of_5",
        "plan_ids_not_lists", "plan_fold_in_its_base", "plan_base_subject_twice"])
def test_malformed_standardizer_or_fold_plan_exits_1(workspace, tmp_path, capsys,
                                                     command, text):
    """A broken sidecar or fold plan is a FormatError, not a traceback."""
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = tmp_path / "out"
    if command == "evaluate":
        argv = ["evaluate", "--ckpt", str(workspace["base"]), "--standardizer", str(bad)]
    else:
        argv = ["pretrain", "--fold-plan", str(bad), "--fold", "7"]
    code = main(argv + ["--data", str(workspace["corpus"]), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(bad) in err
    assert "Traceback" not in err
    assert not out.exists()


# ------------------------------------------------------------- evaluate

def test_evaluate_report_schema(workspace, tmp_path):
    out = tmp_path / "eval.json"
    code = main(["evaluate", "--ckpt", str(workspace["base"]),
                 "--data", str(workspace["corpus"]), "--out", str(out)])
    assert code == 0
    report = read_json(out)
    assert report["fold"] == 0
    assert len(report["clients"]) == 6
    assert set(report["summary"]) == {"mean", "median", "q1", "q3", "min", "max"}
    for client in report["clients"]:
        assert {"subject_id", "mean_ba", "n_eval_instances"} <= set(client)
    manifest = read_manifest(f"{out}.manifest.json", "evaluate")
    assert manifest["seed"] == 0  # evaluate has no --seed


def test_evaluate_missing_checkpoint_exits_1(workspace, tmp_path, capsys):
    code = main(["evaluate", "--ckpt", str(tmp_path / "nope.ckpt"),
                 "--data", str(workspace["corpus"]),
                 "--out", str(tmp_path / "eval.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------- tcp federation

def free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_fed_server_and_clients_loopback(workspace, tmp_path):
    plan = D.FoldPlan.load(str(workspace["plan"]))
    port = str(free_port())
    out = tmp_path / "fed"
    codes = {}

    def serve():
        codes["server"] = main([
            "fed-server", "--base-ckpt", str(workspace["base"]),
            "--out", str(out), "--port", port, "--clients", "2",
            "--fold", "0", "--rounds", "1", "--local-epochs", "1",
            "--local-lr", "1e-2", "--batch-size", "8",
            "--accept-timeout", "30", "--seed", "0"])

    def join(subject_id):
        codes[subject_id] = main([
            "fed-client", "--server", "127.0.0.1", "--port", port,
            "--subject-data", str(workspace["corpus"] / f"{subject_id}.csv"),
            "--base-ckpt", str(workspace["base"]), "--seed", "0"])

    threads = [threading.Thread(target=serve)]
    threads += [threading.Thread(target=join, args=(sid,))
                for sid in plan.folds[0]]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
        assert not t.is_alive()
    assert set(codes.values()) == {0}

    result = read_json(out / "fold0.json")
    assert len(result["rounds"]) == 1
    # the clients evaluate the base weights first, as in simulation
    assert result["base"]["summary"]["mean"] is not None
    final = load_checkpoint(str(out / "final_fold0.ckpt"))
    assert final.config.hidden_size == 8
    # standardizer travels with the final ckpt so evaluate works on it directly
    assert (out / "final_fold0.ckpt.stdz.json").exists()
    audit = [json.loads(l) for l in (out / "audit.jsonl").read_text().splitlines()]
    assert sum(e["event"] == "hello" for e in audit) == 2
    assert sum(e["event"] == "done" for e in audit) == 2
    manifest = read_manifest(out / "manifest.json", "fed-server")
    assert manifest["outputs"] == [str(out / "fold0.json"), str(out / "final_fold0.ckpt"),
                                   str(out / "audit.jsonl")]
