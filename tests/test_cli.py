import hashlib
import json
import os
import subprocess
import sys
import warnings

import pytest

import pairrank.cli

from pairrank.cli import run
from pairrank.synthetic import token_dataset_lines, toy_embedding_lines

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("\n".join(token_dataset_lines(60, seed=1, splits=["cz", "de"])) + "\n")
    return str(path)


@pytest.fixture
def emb_file(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("\n".join(toy_embedding_lines(30, dim=4, seed=2)) + "\n")
    return str(path)


def train_args(data_file, out, report=None, **extra):
    args = ["train", "--data", data_file, "--out", out, "--epochs", "3", "--seed", "5",
            "--shuffle-seed", "9"]
    if report:
        args += ["--report", report]
    for k, v in extra.items():
        args += [f"--{k}", str(v)]
    return args


def test_schema_flag(capsys, data_file):
    assert run(["extract", "--data", data_file, "--schema"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 16
    assert out[0] == "precision_1"


def test_extract_writes_features(tmp_path, data_file, emb_file):
    out = tmp_path / "feats.jsonl"
    assert run(["extract", "--data", data_file, "--embeddings", emb_file, "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 60
    assert len(lines[0]["phi_t1r"]) == 16
    assert len(lines[0]["psi_r"]) == 4


def test_train_and_evaluate(tmp_path, capsys, data_file, emb_file):
    model = str(tmp_path / "m.json")
    report = str(tmp_path / "r.jsonl")
    assert run(train_args(data_file, model, report, embeddings=emb_file)) == 0
    lines = (tmp_path / "r.jsonl").read_text().splitlines()
    assert len(lines) == 3
    eval_report = str(tmp_path / "eval.json")
    assert run(["evaluate", "--data", data_file, "--embeddings", emb_file,
                "--model", model, "--report", eval_report]) == 0
    out = capsys.readouterr().out
    assert "cz" in out and "de" in out and "AVG" in out
    doc = json.loads(open(eval_report).read())
    assert set(doc["per_split"]) == {"cz", "de"}
    assert -1.0 <= doc["tau"] <= 1.0


def test_cli_determinism(tmp_path, data_file, emb_file):
    outs = []
    for run_dir in ("a", "b"):
        d = tmp_path / run_dir
        d.mkdir()
        model, report = str(d / "m.json"), str(d / "r.jsonl")
        assert run(train_args(data_file, model, report, embeddings=emb_file)) == 0
        outs.append((open(model, "rb").read(), open(report, "rb").read()))
    assert outs[0] == outs[1]


def test_config_file_with_flag_override(tmp_path, data_file):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": 2, "lr": 0.5, "arch": "single-layer"}))
    model = str(tmp_path / "m.json")
    report = str(tmp_path / "r.jsonl")
    # --epochs on the command line must beat the config file's value.
    assert run(["train", "--data", data_file, "--out", model, "--report", report,
                "--config", str(cfg), "--epochs", "4"]) == 0
    assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 4
    doc = json.loads(open(model).read())
    assert doc["config"]["architecture"] == "single-layer"


@pytest.mark.parametrize("key, value", [
    ("epochs", 2.7), ("hidden", True), ("seed", 1.5), ("lr", "0.5"), ("batch_size", 1e3),
    ("epochs", None), ("arch", "two-layer"), ("pretrain_epochs", "3"),
])
def test_config_value_is_checked_like_its_flag(tmp_path, capsys, data_file, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    model = tmp_path / "m.json"
    assert run(["train", "--data", data_file, "--out", str(model), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: ValueError: config key {key!r} ")
    assert "\n" not in err.strip()
    assert not model.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_non_finite_float_option_refused(tmp_path, capsys, data_file, source):
    # NaN fails both "l2 < 0" and "l2 > 0", so a range check alone would train unregularized.
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"l2": NaN}')
    extra = ["--l2", "nan"] if source == "flag" else ["--config", str(cfg)]
    model = tmp_path / "m.json"
    assert run(train_args(data_file, str(model)) + extra) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: l2 must be finite, got nan")
    assert not model.exists()


@pytest.mark.parametrize("flags", [
    ["--cost", "logistic-then-kendall", "--pretrain-epochs", "50"],
    ["--cost", "logistic-then-kendall", "--pretrain-epochs", "3"],
    ["--cost", "kendall", "--pretrain-epochs", "2"],
    ["--cost", "logistic", "--pretrain-epochs", "0"],
])
def test_pretrain_epochs_that_cannot_apply_refused(tmp_path, capsys, data_file, flags):
    # train_args runs 3 epochs: a schedule with 3 or more pretrain epochs has no Kendall phase.
    model = tmp_path / "m.json"
    assert run(train_args(data_file, str(model)) + flags) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: pretrain_epochs ")
    assert not model.exists()


@pytest.mark.parametrize("opts, flags", [
    ({"cost": "logistic-then-kendall", "pretrain_epochs": None}, ["--cost", "logistic-then-kendall"]),
    ({"lr": 1}, ["--lr", "1"]),
])
def test_config_file_trains_as_the_same_flags(tmp_path, data_file, opts, flags):
    # null where the default is None, and an integer for a float option, are accepted.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(opts))
    outs = []
    for name, extra in (("file", ["--config", str(cfg)]), ("flags", flags)):
        model, report = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")
        assert run(train_args(data_file, model, report) + extra) == 0
        outs.append((open(model, "rb").read(), open(report, "rb").read()))
    assert outs[0] == outs[1]


def test_train_defaults_are_the_config_defaults(tmp_path, data_file, emb_file):
    spelled_out = ["--cost", "logistic", "--epochs", "10", "--lr", "0.01", "--batch-size", "32",
                   "--seed", "0", "--shuffle-seed", "0", "--hidden", "4", "--arch", "multi-layer",
                   "--gamma", "100", "--beta", "100", "--tie-weight", "1", "--l2", "0", "--patience", "0"]
    outs = []
    for name, flags in (("bare", []), ("spelled", spelled_out)):
        model, report = str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")
        assert run(["train", "--data", data_file, "--embeddings", emb_file, "--out", model,
                    "--report", report, *flags]) == 0
        outs.append((open(model, "rb").read(), open(report, "rb").read()))
    assert outs[0] == outs[1]


def test_predict(tmp_path, data_file):
    model = str(tmp_path / "m.json")
    assert run(train_args(data_file, model)) == 0
    out = tmp_path / "pred.jsonl"
    assert run(["predict", "--data", data_file, "--model", model, "--out", str(out)]) == 0
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert len(lines) == 60
    for l in lines:
        assert l["decision"] in ("t1-better", "t2-better", "tie")
        assert l["delta"] == l["sigma"] - l["sigma_rev"]
    # The decisions agree with evaluate's counts, split by split.
    report_path = tmp_path / "eval.json"
    assert run(["evaluate", "--data", data_file, "--model", model, "--report", str(report_path)]) == 0
    counts = {}
    with open(data_file) as f:
        records = [json.loads(l) for l in f]
    for record, l in zip(records, lines):
        assert l["id"] == record["id"]
        c = counts.setdefault(record["split"], {"concordant": 0, "disconcordant": 0, "ties": 0})
        if l["decision"] == "tie":
            c["ties"] += 1
        elif (l["decision"] == "t1-better") == (record["y"] == 1):
            c["concordant"] += 1
        else:
            c["disconcordant"] += 1
    report = json.loads(report_path.read_text())
    assert counts == {name: split["counts"] for name, split in report["per_split"].items()}


@pytest.mark.parametrize("subcommand, out_flag", [("evaluate", "--report"), ("predict", "--out")])
@pytest.mark.parametrize("eps", ["nan", "inf", "-1"])
def test_bad_tie_epsilon_refused(tmp_path, capsys, data_file, subcommand, out_flag, eps):
    model = str(tmp_path / "m.json")
    assert run(train_args(data_file, model)) == 0
    out = tmp_path / "out.json"
    assert run([subcommand, "--data", data_file, "--model", model, "--tie-epsilon", eps,
                out_flag, str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ValueError: tie_epsilon must be finite and non-negative")
    assert not out.exists()


def test_evaluate_matches_library(tmp_path, data_file):
    from pairrank import data_ingest, evaluation, load_model

    model_path = str(tmp_path / "m.json")
    assert run(train_args(data_file, model_path)) == 0
    report_path = str(tmp_path / "eval.json")
    assert run(["evaluate", "--data", data_file, "--model", model_path,
                "--report", report_path]) == 0
    with open(model_path) as f:
        model = load_model(f)
    with open(data_file) as f:
        ds = data_ingest.load_dataset(f)
    lib = evaluation.evaluate(model, *data_ingest.vectorize(ds), splits=ds.splits)
    doc = json.loads(open(report_path).read())
    assert doc["tau"] == lib.tau


def test_gradcheck_cli(capsys):
    for cost in ("logistic", "kendall", "logistic-then-kendall"):
        assert run(["gradcheck", "--seed", "3", "--cost", cost]) == 0
    assert "max relative error" in capsys.readouterr().out


def test_module_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-m", "pairrank.cli", "gradcheck"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout.startswith("max relative error ")


def test_missing_file_error(capsys, tmp_path):
    assert run(["evaluate", "--data", str(tmp_path / "nope.jsonl"), "--model", "x"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "\n" not in err.strip()


def test_extract_rejects_non_finite_table_value(capsys, tmp_path, data_file):
    emb = tmp_path / "emb.txt"
    emb.write_text("w0 0.5 1\nthe nan 1\n")
    assert run(["extract", "--data", data_file, "--embeddings", str(emb)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: EmbeddingError: line 2: non-finite vector value\n"
    assert captured.out == ""


# sha256 of `pairrank extract` on the data below, recorded with the
# per-tuple Counter counting and sentence loop that the bulk path replaced.
# The embedding table covers 24 of the 30 tokens, so composition meets OOV.
EXTRACT_SHA256 = "11119b74e1e7a465afb19541a733df81d0ed53a8fbdc76c6c838d03038286184"


def test_extract_golden_bytes(tmp_path):
    data, emb, out = tmp_path / "data.jsonl", tmp_path / "emb.txt", tmp_path / "f.jsonl"
    data.write_text("\n".join(token_dataset_lines(200, seed=7, splits=["cz", "de"],
                                                   with_external=True)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(24, dim=5, seed=3)) + "\n")
    assert run(["extract", "--data", str(data), "--embeddings", str(emb), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == EXTRACT_SHA256


# sha256 of the checkpoint and the report that `pairrank train` writes on the
# data above, recorded with the training step that built each block input per
# forward pass and updated one parameter at a time.
TRAIN_GOLDEN = {
    "multi-layer": (
        ["--cost", "logistic-then-kendall", "--hidden", "3"],
        "d7b99aebf0fa7b39614723ad0acb04ff8804a0730aa43e58015b7e8bb872afd1",
        "73a110457f1beb6841977eb58e3e6fb0170deb6d3e6cc8eef087b25f0f8dc334",
    ),
    "single-layer": (
        ["--cost", "logistic-then-kendall", "--arch", "single-layer"],
        "9af04bb8a73d14d4b2d8f41b75e1c74cce7e73a7bcf69444a2f2d7b34383b799",
        "812d845ad774feab2c250a9a44cbe98f5b1891584cef1986eb86eef325ebb3fa",
    ),
}


@pytest.mark.parametrize("arch", TRAIN_GOLDEN)
def test_train_golden_bytes(tmp_path, arch):
    flags, model_sha256, report_sha256 = TRAIN_GOLDEN[arch]
    data, emb = tmp_path / "data.jsonl", tmp_path / "emb.txt"
    model, report = tmp_path / "m.json", tmp_path / "r.jsonl"
    data.write_text("\n".join(token_dataset_lines(200, seed=7, splits=["cz", "de"],
                                                   with_external=True)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(24, dim=5, seed=3)) + "\n")
    # 200 tuples in mini-batches of 16 leave a ragged last batch.
    assert run(["train", "--data", str(data), "--embeddings", str(emb), "--out", str(model),
                "--report", str(report), "--seed", "5", "--shuffle-seed", "9", "--epochs", "6",
                "--batch-size", "16", "--lr", "0.05", "--l2", "0.001", *flags]) == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == model_sha256
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha256


# `pairrank gradcheck` output with its default seed and hidden size, recorded
# with the same earlier training step.
GRADCHECK_STDOUT = {
    ("multi-layer", "logistic"): "max relative error 5.604e-09\n",
    ("multi-layer", "kendall"): "max relative error 2.198e-07\n",
    ("multi-layer", "logistic-then-kendall"): "max relative error 2.198e-07\n",
    ("single-layer", "logistic"): "max relative error 7.385e-11\n",
    ("single-layer", "kendall"): "max relative error 7.432e-12\n",
    ("single-layer", "logistic-then-kendall"): "max relative error 7.385e-11\n",
}


@pytest.mark.parametrize("arch, cost", GRADCHECK_STDOUT)
def test_gradcheck_golden_stdout(capsys, arch, cost):
    assert run(["gradcheck", "--arch", arch, "--cost", cost]) == 0
    assert capsys.readouterr().out == GRADCHECK_STDOUT[arch, cost]


# sha256 of each output of the precomputed-vector path, recorded before a
# loaded dataset held its numbers as columns: the records carry the psi_*
# that `pairrank extract` composed over a table, and every job runs without one.
PRECOMPUTED_GOLDEN = {
    "model": "5e9bcba775887850328d90ec70491254937d9aeab778cee967aec412293a7ad8",
    "train_report": "d2f8475331e028933a3be456de2b307245f891556f80ff72eef9b5543dc7c261",
    "evaluate_stdout": "2ca860b55f5e583d83f5c7913d796f91355d00a9a1b1b3c94a30332d43087e31",
    "predictions": "07e79d9069eae4396f37648d430e8af4768a5f1a2145392a66c8bc3047e4d72e",
    "features": "821e7357ae8b34b49924c30fb0172090f420f84da47f4fba7fa6b6be61c8c3e3",
}


def test_precomputed_vectors_golden_bytes(tmp_path, capsys):
    data, emb, composed = tmp_path / "data.jsonl", tmp_path / "emb.txt", tmp_path / "composed.jsonl"
    lines = token_dataset_lines(150, seed=5, splits=["cz", "de"], with_external=True)
    data.write_text("\n".join(lines) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(30, dim=4, seed=2)) + "\n")
    assert run(["extract", "--data", str(data), "--embeddings", str(emb), "--out", str(composed)]) == 0
    psi = tmp_path / "psi.jsonl"
    with open(psi, "w") as f:
        for line, row in zip(lines, map(json.loads, open(composed))):
            f.write(json.dumps({**json.loads(line), **{k: row[k] for k in ("psi_t1", "psi_t2", "psi_r")}}) + "\n")
    out = {role: str(tmp_path / role) for role in PRECOMPUTED_GOLDEN}
    assert run(["train", "--data", str(psi), "--out", out["model"], "--report", out["train_report"],
                "--cost", "logistic-then-kendall", "--epochs", "6", "--hidden", "3", "--l2", "0.001"]) == 0
    capsys.readouterr()
    assert run(["evaluate", "--data", str(psi), "--model", out["model"]]) == 0
    got = {"evaluate_stdout": hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()}
    assert run(["predict", "--data", str(psi), "--model", out["model"], "--out", out["predictions"]]) == 0
    assert run(["extract", "--data", str(psi), "--out", out["features"]]) == 0
    for role in ("model", "train_report", "predictions", "features"):
        with open(out[role], "rb") as f:
            got[role] = hashlib.sha256(f.read()).hexdigest()
    assert got == PRECOMPUTED_GOLDEN


@pytest.mark.parametrize("lr", ["1e307", "1e306"])
def test_diverging_train_prints_only_the_typed_error(tmp_path, capsys, lr):
    # Demo data as `make_demo_data.py --n 200 --seed 3` writes it. At 1e307 the
    # update overflows; at 1e306 the next forward pass does.
    data, emb = tmp_path / "data.jsonl", tmp_path / "emb.txt"
    data.write_text("\n".join(token_dataset_lines(200, seed=3, splits=["cz", "de", "es", "fr"],
                                                   with_external=True)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(30, dim=5, seed=3)) + "\n")
    model = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["train", "--data", str(data), "--embeddings", str(emb), "--out", str(model), "--lr", lr]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DivergenceError: ") and err.count("\n") == 1
    assert not model.exists()


def test_train_loads_embeddings_once(tmp_path, data_file, emb_file, monkeypatch):
    loads = []
    real = pairrank.cli.load_embedding_table
    monkeypatch.setattr(pairrank.cli, "load_embedding_table", lambda f: loads.append(1) or real(f))
    model = str(tmp_path / "m.json")
    assert run(train_args(data_file, model, embeddings=emb_file, valid=data_file)) == 0
    assert len(loads) == 1


def test_train_names_the_set_its_tau_is_measured_on(tmp_path, capsys, data_file):
    paths = {name: (str(tmp_path / f"{name}.json"), str(tmp_path / f"{name}.jsonl")) for name in "ab"}
    assert run(train_args(data_file, *paths["a"])) == 0
    assert ", final train tau " in capsys.readouterr().out
    assert run(train_args(data_file, *paths["b"], valid=data_file)) == 0
    assert ", final valid tau " in capsys.readouterr().out
    # Without --valid the training set stands in for it: same model, same report.
    for a, b in zip(paths["a"], paths["b"]):
        assert open(a, "rb").read() == open(b, "rb").read()


def test_early_stopping_prints_the_written_models_tau(tmp_path, capsys):
    from pairrank import evaluation, load_model

    # The demo data of `make_demo_data.py --n 200 --seed 3`.
    data, emb = tmp_path / "data.jsonl", tmp_path / "emb.txt"
    data.write_text("\n".join(token_dataset_lines(200, seed=3, splits=["cz", "de", "es", "fr"],
                                                   with_external=True)) + "\n")
    emb.write_text("\n".join(toy_embedding_lines(30, dim=5, seed=3)) + "\n")
    model, report = tmp_path / "m.json", tmp_path / "r.jsonl"
    assert run(["train", "--data", str(data), "--embeddings", str(emb), "--out", str(model),
                "--report", str(report), "--patience", "1", "--epochs", "30", "--seed", "4"]) == 0
    taus = [json.loads(line)["valid_tau"] for line in report.read_text().splitlines()]
    best = taus.index(max(taus))
    # The run stops after worse epochs, so the last tau is not the written model's.
    assert taus[-1] < taus[best]
    assert capsys.readouterr().out == f"trained {len(taus)} epochs, best train tau {taus[best]:.4f} at epoch {best}\n"
    table = pairrank.cli._load_table(str(emb))
    _, batch, y = pairrank.cli._load_data(str(data), table)
    with open(model) as f:
        assert evaluation.evaluate(load_model(f), batch, y).tau == taus[best]


def edited_lines(data_file, **fields):
    """The records of ``data_file`` with ``fields`` set in each."""
    return "".join(json.dumps({**json.loads(line), **fields}) + "\n" for line in open(data_file))


@pytest.mark.parametrize("role, flags", [("data", []), ("valid", ["--patience", "1", "--epochs", "10"])],
                         ids=["all-tie-data", "tie-only-valid"])
def test_train_refuses_an_empty_set(tmp_path, capsys, data_file, role, flags):
    ties = tmp_path / "ties.jsonl"
    ties.write_text(edited_lines(data_file, y="tie"))
    model = tmp_path / "m.json"
    args = train_args(data_file, str(model), **{role: ties}) + flags
    assert run(args) == 1
    name = "training" if role == "data" else "validation"
    assert capsys.readouterr().err == f"error: EmptyEvaluation: the {name} set is empty\n"
    assert not model.exists()


def test_train_refuses_two_sentence_vector_sources(tmp_path, capsys, data_file, emb_file):
    data = tmp_path / "psi.jsonl"
    data.write_text(edited_lines(data_file, psi_t1=[0.5], psi_t2=[0.25], psi_r=[1.0]))
    model = tmp_path / "m.json"
    assert run(train_args(str(data), str(model), embeddings=emb_file)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: DatasetFormatError: tuple ")
    assert "precomputed sentence vectors and an embedding table" in err
    assert not model.exists()
    # The precomputed vectors alone train.
    assert run(train_args(str(data), str(model))) == 0


@pytest.mark.parametrize("subcommand", ["extract", "predict"])
def test_closed_stdout_ends_output_quietly(tmp_path, data_file, subcommand):
    # 2000 rows are far more than a pipe buffers, so the writer meets the closed pipe.
    data = tmp_path / "big.jsonl"
    data.write_text("\n".join(token_dataset_lines(2000, seed=4)) + "\n")
    args = [subcommand, "--data", str(data)]
    if subcommand == "predict":
        model = str(tmp_path / "m.json")
        assert run(train_args(data_file, model)) == 0
        args += ["--model", model]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", "from pairrank.cli import main; main()", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    first = json.loads(proc.stdout.readline())
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert first["id"] == "s0"
    assert err == b""
    assert proc.returncode == 0
