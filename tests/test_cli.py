import argparse
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys

import pytest

from sgforge import __version__
from sgforge.cli import _build_parser, run
from sgforge.data import ingest
from sgforge.graph import extract_tuples
from sgforge.model import MAX_PARAMS, ModelConfig
from sgforge.train import TrainConfig

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def sgforge_cmd(*args, stdin=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "sgforge", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )


def test_version():
    proc = sgforge_cmd("--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == f"sgforge {__version__}"


def test_unknown_flag_is_usage_error(tmp_path):
    proc = sgforge_cmd("gen", "--n", "1", "--out", str(tmp_path / "r.jsonl"), "--bogus")
    assert proc.returncode == 1
    assert proc.stderr


def test_missing_command_is_usage_error():
    proc = sgforge_cmd()
    assert proc.returncode == 1


def test_gen_align_convert_roundtrip(tmp_path, capsys):
    regions_file = str(tmp_path / "regions.jsonl")
    conll_file = str(tmp_path / "targets.conll")
    graphs_file = str(tmp_path / "decoded.jsonl")

    assert run(["gen", "--n", "25", "--seed", "17", "--out", regions_file]) == 0
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["mean_coverage"] == 1.0
    assert run(["convert", "--in", conll_file, "--out", graphs_file]) == 0

    with open(regions_file) as f:
        source, _ = ingest(f.read())
    with open(graphs_file) as f:
        decoded, _ = ingest(f.read())
    assert len(source) == len(decoded)
    for a, b in zip(source, decoded):
        assert extract_tuples(a.graph) == extract_tuples(b.graph)


def test_gen_seed_determinism(tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    assert run(["gen", "--n", "10", "--seed", "4", "--out", a]) == 0
    assert run(["gen", "--n", "10", "--seed", "4", "--out", b]) == 0
    assert open(a).read() == open(b).read()


def test_eval_identical_files_scores_one(tmp_path, capsys):
    regions_file = str(tmp_path / "regions.jsonl")
    report_file = str(tmp_path / "report.jsonl")
    run(["gen", "--n", "10", "--seed", "2", "--out", regions_file])
    code = run(
        ["eval", "--pred", regions_file, "--ref", regions_file, "--out", report_file]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert json.loads(out.strip().splitlines()[-1])["aggregate_f"] == 1.0
    lines = open(report_file).read().strip().splitlines()
    aggregate = json.loads(lines[-1])["aggregate"]
    assert aggregate["mean_f"] == 1.0
    assert len(lines) == 11  # one row per region plus the aggregate


def test_eval_id_mismatch_is_data_error(tmp_path):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    run(["gen", "--n", "3", "--seed", "1", "--out", a])
    run(["gen", "--n", "4", "--seed", "1", "--out", b])
    proc = sgforge_cmd("eval", "--pred", a, "--ref", b)
    assert proc.returncode == 2


def test_eval_id_mismatch_names_both_files_and_missing_ids(tmp_path, capsys):
    a = str(tmp_path / "a.jsonl")
    b = str(tmp_path / "b.jsonl")
    run(["gen", "--n", "3", "--seed", "1", "--out", a])
    run(["gen", "--n", "10", "--seed", "1", "--out", b])
    capsys.readouterr()
    assert run(["eval", "--pred", a, "--ref", b]) == 2
    assert capsys.readouterr().err == (
        f"sgforge: prediction {a} and reference {b} region ids differ: "
        f"not in {b}: none; not in {a}: 3, 4, 5, 6, 7 and 2 more\n")
    assert run(["eval", "--pred", b, "--ref", a]) == 2
    assert f"not in {a}: 3, 4, 5, 6, 7 and 2 more; not in {b}: none" in capsys.readouterr().err


@pytest.mark.parametrize("flag, argv", [("--n", ["--n", "-1"]),
                                        ("--seed", ["--n", "2", "--seed", "-1"])])
def test_gen_negative_count_or_seed_is_usage_error(tmp_path, capsys, flag, argv):
    out = tmp_path / "r.jsonl"
    assert run(["gen", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"sgforge: {flag} must not be negative, got -1\n"
    assert not out.exists()


def test_eval_malformed_regions_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": 1}\n')
    proc = sgforge_cmd("eval", "--pred", str(bad), "--ref", str(bad))
    assert proc.returncode == 2
    assert proc.stderr


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A tiny but fully trained pipeline shared across CLI tests."""
    tmp = tmp_path_factory.mktemp("pipeline")
    regions_file = str(tmp / "regions.jsonl")
    conll_file = str(tmp / "targets.conll")
    ckpt_base = str(tmp / "ckpt")
    model_cfg = str(tmp / "model.json")
    train_cfg = str(tmp / "train.json")
    with open(model_cfg, "w") as f:
        json.dump({"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64,
                   "max_len": 16, "d_qk": 32}, f)
    with open(train_cfg, "w") as f:
        json.dump({"epochs": 4, "batch_size": 16, "seed": 1}, f)
    assert run(["gen", "--n", "300", "--seed", "17", "--out", regions_file]) == 0
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    code = run(
        ["train", "--conll", conll_file, "--regions", regions_file,
         "--model-config", model_cfg, "--train-config", train_cfg,
         "--out", ckpt_base]
    )
    assert code == 0
    return tmp, regions_file, ckpt_base


def test_train_writes_checkpoints(trained):
    tmp, _, ckpt_base = trained
    for suffix in (".json", ".bin", ".best.json", ".best.bin"):
        assert os.path.exists(ckpt_base + suffix)


def test_parse_conll_and_graph_json(trained, tmp_path):
    tmp, regions_file, ckpt_base = trained
    out_conll = str(tmp_path / "pred.conll")
    out_json = str(tmp_path / "pred.jsonl")
    texts = str(tmp_path / "texts.txt")
    with open(texts, "w") as f:
        f.write("blue bus\ncat on table\n")
    assert run(["parse", "--ckpt", ckpt_base, "--input", texts,
                "--format", "conll", "--out", out_conll]) == 0
    assert len(open(out_conll).read().strip().splitlines()) >= 2
    assert run(["parse", "--ckpt", ckpt_base, "--input", texts,
                "--out", out_json]) == 0
    records = [json.loads(l) for l in open(out_json)]
    assert len(records) == 2
    assert records[0]["phrase"] == "blue bus"


def test_parse_input_ends_lines_at_newline_only(trained, tmp_path):
    # U+2028 and a form feed are whitespace inside a description, not line
    # ends; a blank line is skipped and takes no id
    _, _, ckpt_base = trained
    texts = ["blue bus", "red\u2028bus on table", "cat\x0cdog"]
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text(f"{texts[0]}\n \n{texts[1]}\n{texts[2]}\n", encoding="utf-8")
    out = str(tmp_path / "pred.jsonl")
    assert run(["parse", "--ckpt", ckpt_base, "--input", str(texts_file), "--out", out]) == 0
    records = [json.loads(line) for line in open(out, encoding="utf-8")]
    assert [r["phrase"] for r in records] == texts
    assert [r["region_id"] for r in records] == [0, 1, 2]


def test_parse_then_eval_on_dev_regions(trained, tmp_path, capsys):
    tmp, regions_file, ckpt_base = trained
    dev_file = str(tmp_path / "dev.jsonl")
    pred_file = str(tmp_path / "pred.jsonl")
    with open(regions_file) as f:
        lines = f.read().splitlines()
    with open(dev_file, "w") as f:
        f.write("\n".join(lines[270:]) + "\n")
    assert run(["parse", "--ckpt", ckpt_base, "--regions", dev_file,
                "--out", pred_file]) == 0
    assert run(["eval", "--pred", pred_file, "--ref", dev_file,
                "--out", str(tmp_path / "report.jsonl")]) == 0
    f_line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert f_line["aggregate_f"] > 0.5  # small run, loose bound


def test_parse_eval_pipe_equals_files(trained, tmp_path):
    tmp, regions_file, ckpt_base = trained
    dev_file = str(tmp_path / "dev.jsonl")
    with open(regions_file) as f:
        lines = f.read().splitlines()
    with open(dev_file, "w") as f:
        f.write("\n".join(lines[270:280]) + "\n")

    parse_proc = sgforge_cmd("parse", "--ckpt", ckpt_base, "--regions", dev_file,
                             "--out", "-")
    assert parse_proc.returncode == 0
    eval_proc = sgforge_cmd("eval", "--pred", "-", "--ref", dev_file, "--out", "-",
                            stdin=parse_proc.stdout)
    assert eval_proc.returncode == 0

    pred_file = str(tmp_path / "pred.jsonl")
    report_file = str(tmp_path / "report.jsonl")
    assert run(["parse", "--ckpt", ckpt_base, "--regions", dev_file,
                "--out", pred_file]) == 0
    assert run(["eval", "--pred", pred_file, "--ref", dev_file,
                "--out", report_file]) == 0
    assert eval_proc.stdout == open(report_file).read()


def test_parse_keeps_input_order_across_length_sorted_batches(trained, tmp_path):
    # more lines than the checkpoint's batch size (16), longest first, so
    # sorting by length puts them in a different order and batching
    tmp, regions_file, ckpt_base = trained
    with open(regions_file) as f:
        regions, _ = ingest(f.read())
    texts = sorted({r.description for r in regions[:60]}, key=len, reverse=True)[:40]
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("".join(t + "\n" for t in texts))
    out = str(tmp_path / "pred.jsonl")
    assert run(["parse", "--ckpt", ckpt_base, "--input", str(texts_file), "--out", out]) == 0
    records = [json.loads(line) for line in open(out)]
    assert [r["phrase"] for r in records] == texts
    assert [r["region_id"] for r in records] == list(range(len(texts)))
    for i in (0, 17, len(texts) - 1):  # one text parsed alone gives the same graph
        one_in = tmp_path / f"one{i}.txt"
        one_in.write_text(texts[i] + "\n")
        one_out = str(tmp_path / f"one{i}.jsonl")
        assert run(["parse", "--ckpt", ckpt_base, "--input", str(one_in), "--out", one_out]) == 0
        [alone] = [json.loads(line) for line in open(one_out)]
        for key in ("objects", "attributes", "relationships"):
            assert alone[key] == records[i][key]


def test_diverging_training_exits_2_and_writes_nothing(tmp_path, capsys):
    regions_file = str(tmp_path / "regions.jsonl")
    conll_file = str(tmp_path / "targets.conll")
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"learning_rate": 1e9, "epochs": 2, "batch_size": 8}))
    assert run(["gen", "--n", "40", "--seed", "3", "--out", regions_file]) == 0
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    capsys.readouterr()
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code = run(["train", "--conll", conll_file, "--regions", regions_file,
                "--train-config", str(train_cfg), "--out", str(out_dir / "ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert "diverged" in captured.err
    assert "NaN" not in captured.out
    assert not [p for p in out_dir.iterdir() if p.suffix in (".json", ".bin")]


def test_diverging_training_prints_one_line_and_no_warnings(tmp_path):
    regions_file = str(tmp_path / "regions.jsonl")
    conll_file = str(tmp_path / "targets.conll")
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"learning_rate": 1e9, "epochs": 2, "batch_size": 8}))
    assert run(["gen", "--n", "40", "--seed", "3", "--out", regions_file]) == 0
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    proc = sgforge_cmd("train", "--conll", conll_file, "--regions", regions_file,
                       "--train-config", str(train_cfg), "--out", str(tmp_path / "ckpt"))
    assert proc.returncode == 2
    [line] = proc.stderr.splitlines()
    assert line.startswith("sgforge: training diverged at epoch ")


def test_dev_loss_divergence_exits_2_and_writes_nothing(tmp_path, capsys):
    # one step at learning rate 1e20 moves the parameters to about 1e20, still
    # finite in float32, so the step passes its check and the dev pass overflows
    regions_file = str(tmp_path / "regions.jsonl")
    conll_file = str(tmp_path / "targets.conll")
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"learning_rate": 1e20, "epochs": 1, "batch_size": 8}))
    assert run(["gen", "--n", "9", "--seed", "3", "--out", regions_file]) == 0  # 8 train, 1 dev
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = run(["train", "--conll", conll_file, "--regions", regions_file,
                "--train-config", str(train_cfg), "--out", str(out_dir / "ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == ("sgforge: training diverged at epoch 1: "
                            "non-finite parameters or dev loss\n")
    assert captured.out == ""
    assert list(out_dir.iterdir()) == []


@pytest.mark.parametrize("side", ["pred", "ref"])
def test_eval_duplicate_region_id_is_data_error(tmp_path, capsys, side):
    three = str(tmp_path / "three.jsonl")
    assert run(["gen", "--n", "3", "--seed", "1", "--out", three]) == 0
    lines = open(three).read().splitlines()
    four = tmp_path / "four.jsonl"
    four.write_text("\n".join(lines + lines[1:2]) + "\n")  # region id 1 twice
    files = {"pred": three, "ref": three, side: str(four)}
    capsys.readouterr()
    assert run(["eval", "--pred", files["pred"], "--ref", files["ref"]]) == 2
    captured = capsys.readouterr()
    assert "duplicate region id 1" in captured.err and str(four) in captured.err
    assert captured.out == ""


@pytest.fixture(scope="module")
def aligned(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("aligned")
    regions_file, conll_file = str(tmp / "regions.jsonl"), str(tmp / "targets.conll")
    assert run(["gen", "--n", "30", "--seed", "5", "--out", regions_file]) == 0
    assert run(["align", "--regions", regions_file, "--out", conll_file]) == 0
    return regions_file, conll_file


@pytest.mark.parametrize("flag, config, field", [
    ("--train-config", {"batch_size": 0}, "batch_size"),
    ("--train-config", {"learning_rate": -1}, "learning_rate"),
    ("--train-config", {"epochs": -1}, "epochs"),
    ("--train-config", {"epochs": 1.5}, "epochs"),
    ("--model-config", {"d_model": "wide"}, "d_model"),
    ("--model-config", {"n_heads": 0}, "n_heads"),
    ("--model-config", {"tokenizer_mode": "char"}, "tokenizer_mode"),
    ("--split", {"train_image_ids": [0, 1, 2], "eval_image_ids": [2, 3]}, "eval_image_ids"),
    ("--split", {"train_image_ids": [0, 1]}, "eval_image_ids"),
    ("--train-config", {"seed": -1}, "seed"),
    ("--model-config", {"loss_weight": 5.0}, "loss_weight"),
    ("--model-config", {"n_classes": 6}, "n_classes"),
    ("--model-config", {"vocab_size": 3}, "vocab_size"),
    ("--train-config", {"lambda_mode": "fixed"}, "lambda_mode"),  # a removed key
    ("--split", {"train_image_ids": [0, 1], "eval_image_ids": [2], "holdout_ids": [3]},
     "unknown split spec keys: ['holdout_ids']"),
    ("--train-config", {"learning_rate": math.nan}, "learning_rate"),
    ("--train-config", {"learning_rate": math.inf}, "learning_rate"),
    ("--model-config", {"d_model": 100_000}, "parameters, more than 200,000,000"),
    ("--split", {"train_image_ids": "0123", "eval_image_ids": [4]}, "train_image_ids"),
    ("--split", {"train_image_ids": [0, True], "eval_image_ids": [4]}, "train_image_ids"),
    ("--split", {"train_image_ids": [0, 1], "eval_image_ids": [2.0]}, "eval_image_ids"),
    ("--split", {"train_image_ids": [0, 1], "eval_image_ids": [50.5]}, "eval_image_ids"),
])
def test_train_bad_config_is_data_error(aligned, tmp_path, capsys, flag, config, field):
    regions_file, conll_file = aligned
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = run(["train", "--conll", conll_file, "--regions", regions_file, flag, str(cfg),
                "--out", str(out_dir / "ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert field in captured.err and str(cfg) in captured.err
    assert "Traceback" not in captured.err
    assert list(out_dir.iterdir()) == []


def test_train_model_too_large_for_its_vocabulary_is_data_error(aligned, tmp_path, capsys):
    # without the vocabulary the model is just under the parameter cap: n_layers 0
    # and the default max_len 32 and d_qk 64 give 33 + 2 * 64 + 6 params per d_model
    regions_file, conll_file = aligned
    d_model = MAX_PARAMS // 167 // 4 * 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d_model": d_model, "n_layers": 0}))
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = run(["train", "--conll", conll_file, "--regions", regions_file,
                "--model-config", str(cfg), "--out", str(out_dir / "ckpt")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"sgforge: {cfg}: with a vocabulary of ")
    assert "parameters, more than 200,000,000" in err and err.count("\n") == 1
    assert list(out_dir.iterdir()) == []


def test_parse_truncated_checkpoint_is_data_error(trained, tmp_path):
    _, regions_file, ckpt_base = trained
    base = str(tmp_path / "ckpt")
    with open(ckpt_base + ".json", "rb") as f:
        (tmp_path / "ckpt.json").write_bytes(f.read())
    with open(ckpt_base + ".bin", "rb") as f:
        (tmp_path / "ckpt.bin").write_bytes(f.read()[:1000])
    proc = sgforge_cmd("parse", "--ckpt", base, "--regions", regions_file,
                       "--out", str(tmp_path / "pred.jsonl"))
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "ckpt.bin" in proc.stderr and "1000 bytes" in proc.stderr
    assert not (tmp_path / "pred.jsonl").exists()


def _set_version_3(manifest):
    manifest["version"] = 3


def _widen_d_ff(manifest):
    manifest["model_config"]["d_ff"] += 1


def _set(section: str, key: str, value):
    def edit(manifest):
        manifest[section][key] = value
    return edit


@pytest.mark.parametrize("edit_manifest, edit_payload, named", [
    (_set_version_3, None, ""),
    (None, lambda payload: payload[:-1], ""),
    (None, lambda payload: payload + bytes(4), ""),
    (_widen_d_ff, None, ""),
    (_set("model_config", "d_model", 32.0), None, "d_model"),
    (_set("model_config", "max_len", 16.0), None, "max_len"),
    (_set("model_config", "n_layers", True), None, "n_layers"),
    (_set("train_config", "batch_size", 8.5), None, "batch_size"),
    (_set("train_config", "seed", 0.5), None, "seed"),
], ids=["version-3", "short-payload", "long-payload", "d_ff-plus-one", "float-d_model",
        "float-max_len", "true-n_layers", "float-batch_size", "float-seed"])
def test_parse_bad_checkpoint_is_one_line_naming_the_file(trained, tmp_path, capsys,
                                                          edit_manifest, edit_payload, named):
    _, regions_file, ckpt_base = trained
    with open(ckpt_base + ".json") as f:
        manifest = json.load(f)
    with open(ckpt_base + ".bin", "rb") as f:
        payload = f.read()
    if edit_manifest is not None:
        edit_manifest(manifest)
    if edit_payload is not None:
        payload = edit_payload(payload)
    base = str(tmp_path / "ckpt")
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    (tmp_path / "ckpt.bin").write_bytes(payload)
    capsys.readouterr()
    code = run(["parse", "--ckpt", base, "--regions", regions_file,
                "--out", str(tmp_path / "pred.jsonl")])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1 and base in err and named in err
    assert not (tmp_path / "pred.jsonl").exists()


@pytest.mark.parametrize("command, text", [
    ("align", "[1, 2]"),
    ("align", '{"a": "bc"}'),
    ("eval", '{"a": [1]}'),
    ("eval", "{"),
    ("align", '{"car": [""]}'),
    ("eval", '{" ": ["car"]}'),
    pytest.param("align", "[" * 100000 + "]" * 100000, id="deep_nesting"),
])
def test_bad_lexicon_is_data_error(aligned, tmp_path, capsys, command, text):
    regions_file, _ = aligned
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    out = str(tmp_path / "out")
    argv = {
        "align": ["align", "--regions", regions_file, "--out", out],
        "eval": ["eval", "--pred", regions_file, "--ref", regions_file, "--out", out],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--lexicon", str(bad)]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("argv, flags", [
    (["eval", "--pred", "-", "--ref", "-"], "--pred and --ref"),
    (["train", "--conll", "-", "--regions", "-"], "--conll and --regions"),
    (["convert", "--in", "-", "--regions", "-"], "--in and --regions"),
    (["align", "--regions", "-", "--lexicon", "-"], "--regions and --lexicon"),
], ids=["eval", "train", "convert", "align"])
def test_two_inputs_from_stdin_are_usage_error(aligned, tmp_path, capsys, monkeypatch,
                                                argv, flags):
    # the second read of stdin would be empty and blamed on the data
    regions_file, _ = aligned
    with open(regions_file) as f:
        monkeypatch.setattr(sys, "stdin", io.StringIO(f.read()))
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == f"sgforge: {flags} both read standard input; give - to one only\n"
    assert not out.exists()


def _two_regions_with_ids_10_and_11(tmp_path):
    regions = tmp_path / "r.jsonl"
    regions.write_text(
        json.dumps({"image_id": 7, "region_id": 10, "phrase": "red bus",
                    "objects": [{"id": 1, "label": "bus"}], "attributes": [[1, "red"]]}) + "\n"
        + json.dumps({"image_id": 8, "region_id": 11, "phrase": "cat on the mat",
                      "objects": [{"id": 1, "label": "cat"}, {"id": 2, "label": "mat"}],
                      "relationships": [[1, "on", 2]]}) + "\n")
    return str(regions)


def test_convert_regions_carries_ids_and_phrases_to_eval(tmp_path, capsys):
    regions = _two_regions_with_ids_10_and_11(tmp_path)
    conll, graphs = str(tmp_path / "t.conll"), str(tmp_path / "g.jsonl")
    assert run(["align", "--regions", regions, "--out", conll]) == 0
    assert run(["convert", "--in", conll, "--regions", regions, "--out", graphs]) == 0
    with open(graphs) as f:
        records = [json.loads(line) for line in f]
    assert [(r["image_id"], r["region_id"], r["phrase"]) for r in records] == [
        (7, 10, "red bus"), (8, 11, "cat on the mat")]
    capsys.readouterr()
    assert run(["eval", "--pred", graphs, "--ref", regions,
                "--out", str(tmp_path / "report.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out) == {"aggregate_f": 1.0}


def test_convert_regions_count_mismatch_is_data_error(tmp_path, capsys):
    regions = _two_regions_with_ids_10_and_11(tmp_path)
    conll = tmp_path / "t.conll"
    conll.write_text("1\tbus\t0\t_\tSUBJ\n\n")
    capsys.readouterr()
    assert run(["convert", "--in", str(conll), "--regions", regions,
                "--out", str(tmp_path / "g.jsonl")]) == 2
    assert capsys.readouterr().err == (
        f"sgforge: {conll} has 1 CONLL sentences but {regions} has 2 regions\n")
    assert not (tmp_path / "g.jsonl").exists()


def test_train_count_mismatch_names_both_files(tmp_path, capsys):
    regions = _two_regions_with_ids_10_and_11(tmp_path)
    conll = tmp_path / "t.conll"
    conll.write_text("1\tbus\t0\t_\tSUBJ\n\n")
    capsys.readouterr()
    assert run(["train", "--conll", str(conll), "--regions", regions,
                "--out", str(tmp_path / "ckpt")]) == 2
    assert capsys.readouterr().err == (
        f"sgforge: {conll} has 1 CONLL sentences but {regions} has 2 regions\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl", "t.conll"]


def test_train_with_no_training_examples_names_the_split(aligned, tmp_path, capsys):
    regions_file, conll_file = aligned
    spec = tmp_path / "s.json"
    spec.write_text(json.dumps({"train_image_ids": [10**6], "eval_image_ids": [0]}))
    capsys.readouterr()
    assert run(["train", "--conll", conll_file, "--regions", regions_file,
                "--split", str(spec), "--out", str(tmp_path / "ckpt")]) == 2
    assert capsys.readouterr().err == f"sgforge: {spec}: no training examples\n"
    assert [p.name for p in tmp_path.iterdir()] == ["s.json"]


def test_train_on_empty_files_names_the_regions_file(tmp_path, capsys):
    regions, conll = tmp_path / "r.jsonl", tmp_path / "t.conll"
    regions.write_text("")
    conll.write_text("")
    assert run(["train", "--conll", str(conll), "--regions", str(regions),
                "--out", str(tmp_path / "ckpt")]) == 2
    assert capsys.readouterr().err == f"sgforge: {regions}: no training examples\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl", "t.conll"]


def test_train_without_dev_set_prints_null_dev_loss(tmp_path, capsys):
    # one image: the trailing 10% of image ids round to none, so no dev set
    regions, conll = str(tmp_path / "r.jsonl"), str(tmp_path / "t.conll")
    train_cfg = tmp_path / "train.json"
    train_cfg.write_text(json.dumps({"epochs": 1}))
    assert run(["gen", "--n", "1", "--out", regions]) == 0
    assert run(["align", "--regions", regions, "--out", conll]) == 0
    capsys.readouterr()
    assert run(["train", "--conll", conll, "--regions", regions,
                "--train-config", str(train_cfg), "--out", str(tmp_path / "ckpt")]) == 0
    [line] = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["dev_loss"], record["dev_f"]) == (None, None)


@pytest.mark.parametrize("command", ["train", "convert"])
def test_word_count_mismatch_names_sentence_and_region(tmp_path, capsys, command):
    regions = _two_regions_with_ids_10_and_11(tmp_path)
    conll = str(tmp_path / "t.conll")
    assert run(["align", "--regions", regions, "--out", conll]) == 0
    with open(regions) as f:
        text = f.read()
    with open(regions, "w") as f:  # the second phrase gains a word its sentence lacks
        f.write(text.replace("cat on the mat", "cat on the red mat"))
    out = str(tmp_path / "out")
    argv = (["train", "--conll", conll, "--regions", regions, "--out", out]
            if command == "train" else
            ["convert", "--in", conll, "--regions", regions, "--out", out])
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (f"sgforge: {conll}: sentence 2 has 4 tokens, but "
                                       f"region 11 in {regions} has 5 words\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["r.jsonl", "t.conll"]


def test_convert_rejects_other_head_spelling(tmp_path, capsys):
    conll = tmp_path / "t.conll"
    conll.write_text("1\tred\t2\tATTR\tATTR\n2\tbus\t+0\t_\tSUBJ\n\n")
    capsys.readouterr()
    assert run(["convert", "--in", str(conll), "--out", str(tmp_path / "g.jsonl")]) == 2
    assert capsys.readouterr().err == f"sgforge: {conll}: line 2: bad HEAD '+0'\n"


def _one_object_region(path, phrase, label):
    path.write_text(json.dumps({"image_id": 1, "region_id": 1, "phrase": phrase,
                                "objects": [{"id": 1, "label": label}]}) + "\n")
    return str(path)


def test_lexicon_synonyms_are_canonicalized_in_align(tmp_path, capsys):
    regions = _one_object_region(tmp_path / "r.jsonl", "a feline", "cat")
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"cat": ["Feline"]}))
    conll = tmp_path / "t.conll"
    capsys.readouterr()
    assert run(["align", "--regions", regions, "--lexicon", str(lex), "--out", str(conll)]) == 0
    assert json.loads(capsys.readouterr().out)["mean_coverage"] == 1.0
    assert conll.read_text() == "1\ta\t_\t_\t_\n2\tfeline\t0\t_\tSUBJ\n\n"


def test_lexicon_synonyms_are_canonicalized_in_eval(tmp_path, capsys):
    pred = _one_object_region(tmp_path / "p.jsonl", "feline cat", "feline cat")
    ref = _one_object_region(tmp_path / "r.jsonl", "cat", "cat")
    lex = tmp_path / "lex.json"
    lex.write_text(json.dumps({"cat": ["feline  cat"]}))
    capsys.readouterr()
    assert run(["eval", "--pred", pred, "--ref", ref, "--lexicon", str(lex),
                "--out", str(tmp_path / "report.jsonl")]) == 0
    assert json.loads(capsys.readouterr().out) == {"aggregate_f": 1.0}


def test_non_utf8_input_is_data_error(aligned, tmp_path, capsys):
    _, conll_file = aligned
    bad = tmp_path / "bad.conll"
    bad.write_bytes(b"\x80" + open(conll_file, "rb").read())
    capsys.readouterr()
    assert run(["convert", "--in", str(bad), "--out", str(tmp_path / "g.jsonl")]) == 2
    assert str(bad) in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["graph-json", "conll"])
def test_parse_over_length_description_gets_empty_output(trained, tmp_path, capsys, fmt):
    # the checkpoint's max_len is 16; the middle line has 20 tokens
    _, _, ckpt_base = trained
    long_line = " ".join(["red"] * 19 + ["bus"])
    texts = ["blue bus", long_line, "cat on table"]
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text("".join(t + "\n" for t in texts))
    capsys.readouterr()
    assert run(["parse", "--ckpt", ckpt_base, "--input", str(texts_file),
                "--format", fmt, "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert "region 1 has 20 tokens, more than max_len 16" in captured.err
    assert "tokens" not in captured.out
    short_file = tmp_path / "short.txt"
    short_file.write_text("blue bus\ncat on table\n")
    assert run(["parse", "--ckpt", ckpt_base, "--input", str(short_file),
                "--format", fmt, "--out", "-"]) == 0
    alone = capsys.readouterr().out
    if fmt == "conll":
        blocks = captured.out.split("\n\n")[:3]
        assert blocks[1].splitlines() == [f"{i}\t{w}\t_\t_\t_"
                                          for i, w in enumerate(long_line.split(), start=1)]
        assert [blocks[0], blocks[2]] == alone.split("\n\n")[:2]
    else:
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["phrase"] for r in records] == texts
        assert [r["region_id"] for r in records] == [0, 1, 2]
        assert records[1]["objects"] == records[1]["attributes"] == []
        assert records[1]["relationships"] == []
        others = [json.loads(line) for line in alone.splitlines()]
        for r, o in zip([records[0], records[2]], others):
            for key in ("objects", "attributes", "relationships"):
                assert r[key] == o[key]


def test_parse_reports_each_copy_of_a_repeated_over_length_description(trained, tmp_path,
                                                                        capsys):
    # predict tags a repeated description once, but every region is reported
    _, _, ckpt_base = trained
    long_line = " ".join(["red"] * 19 + ["bus"])
    texts_file = tmp_path / "texts.txt"
    texts_file.write_text(f"{long_line}\nblue bus\n{long_line}\nblue bus\n")
    capsys.readouterr()
    assert run(["parse", "--ckpt", ckpt_base, "--input", str(texts_file), "--out", "-"]) == 0
    captured = capsys.readouterr()
    assert [line.split(" has ")[0] for line in captured.err.splitlines()] == [
        f"sgforge: {texts_file}: region 0", f"sgforge: {texts_file}: region 2"]
    records = [json.loads(line) for line in captured.out.splitlines()]
    assert [r["region_id"] for r in records] == [0, 1, 2, 3]
    assert records[0]["objects"] == records[2]["objects"] == []
    assert records[1]["objects"] == records[3]["objects"]


def test_blank_graph_label_is_reported_as_empty_label(tmp_path, capsys):
    bad = tmp_path / "el.jsonl"
    bad.write_text('{"image_id":1,"region_id":1,"phrase":"red bus",'
                   '"objects":[{"id":1,"label":"  "}]}\n')
    capsys.readouterr()
    assert run(["align", "--regions", str(bad), "--out", str(tmp_path / "t.conll")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: EmptyLabel: " in err and "'  '" in err
    assert "EmptyDescription" not in err


@pytest.mark.parametrize("command", ["convert", "train"])
def test_malformed_conll_error_names_the_file(aligned, tmp_path, capsys, command):
    regions_file, _ = aligned
    bad = tmp_path / "b.conll"
    bad.write_text("1\tred\t2\tATTR\tATTR\n2\tbus\t0\t_\tSUBJ\n3\tx\n")
    argv = {
        "convert": ["convert", "--in", str(bad), "--out", str(tmp_path / "g.jsonl")],
        "train": ["train", "--conll", str(bad), "--regions", regions_file,
                  "--out", str(tmp_path / "ckpt")],
    }[command]
    capsys.readouterr()
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        f"sgforge: {bad}: line 3: expected 5 tab-separated columns, got 2\n")


@pytest.mark.parametrize("option", [["--seed", "1"], ["--dev-frac", "0.2"]],
                         ids=["seed", "dev-frac"])
def test_train_has_no_seed_or_dev_frac_option(tmp_path, capsys, option):
    # the seed is the train config's; the dev set is the split file's or the trailing
    # 10% of image ids. No file named here exists: the option is rejected before any is read
    code = run(["train", "--conll", str(tmp_path / "t.conll"),
                "--regions", str(tmp_path / "r.jsonl"), *option, "--out", str(tmp_path / "ckpt")])
    assert code == 1
    assert capsys.readouterr().err == f"sgforge: unrecognized arguments: {' '.join(option)}\n"
    assert list(tmp_path.iterdir()) == []


def test_readme_names_every_parser_option_and_no_other():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", f.read()))
    options = set()
    parsers = [_build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            options.update(o for o in action.option_strings if o.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    assert named - options == set()  # the README names no option that is gone
    assert options - named == {"--help"}  # and documents every other one


def test_readme_train_options_name_every_config_field_with_its_default():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as f:
        readme = f.read()
    section = readme[readme.index("`train` options:"):readme.index("`eval` needs")]
    # "`d_model` (64)", "`learning_rate` (1e-3; ...", "`tokenizer_mode` (`"word"` or ..."
    named = {name: json.loads(default)
             for name, default in re.findall(r"`(\w+)` \(`?([^`;,)\s]+)", section)}
    expected = {f.name: f.default for config in (ModelConfig, TrainConfig)
                for f in dataclasses.fields(config) if f.name != "vocab_size"}
    assert named == expected


@pytest.mark.parametrize("image_id", [0, 19], ids=["train", "dev"])
def test_train_over_length_region_exits_2_before_training(tmp_path, capsys, image_id):
    regions_file = tmp_path / "regions.jsonl"
    conll_file = str(tmp_path / "targets.conll")
    model_cfg = tmp_path / "model.json"
    model_cfg.write_text(json.dumps({"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16,
                                     "max_len": 16, "d_qk": 8}))
    assert run(["gen", "--n", "20", "--seed", "3", "--out", str(regions_file)]) == 0
    long_region = {"image_id": image_id, "region_id": 77, "phrase": " ".join(["red"] * 19 + ["bus"]),
                   "objects": [{"id": 1, "label": "bus"}], "attributes": [[1, "red"]]}
    with open(regions_file, "a") as f:
        f.write(json.dumps(long_region) + "\n")
    assert run(["align", "--regions", str(regions_file), "--out", conll_file]) == 0
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    capsys.readouterr()
    code = run(["train", "--conll", conll_file, "--regions", str(regions_file),
                "--model-config", str(model_cfg), "--out", str(out_dir / "ckpt")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"sgforge: {regions_file}: region 77 has 20 tokens, "
                            "more than max_len 16\n")
    assert captured.out == ""  # no epoch ran
    assert list(out_dir.iterdir()) == []


def test_commands_without_a_model_never_import_numpy(tmp_path):
    code = f"""
import contextlib, io, sys
from sgforge.cli import run
w = {str(tmp_path)!r}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [
        run(["gen", "--n", "6", "--seed", "2", "--out", w + "/r.jsonl"]),
        run(["align", "--regions", w + "/r.jsonl", "--out", w + "/t.conll"]),
        run(["convert", "--in", w + "/t.conll", "--regions", w + "/r.jsonl",
             "--out", w + "/g.jsonl"]),
        run(["eval", "--pred", w + "/g.jsonl", "--ref", w + "/r.jsonl", "--out", w + "/e"]),
    ]
print(codes, "numpy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split("\n")[0] == "[0, 0, 0, 0] False"


def test_non_integer_id_is_data_error(tmp_path, capsys):
    bad = tmp_path / "ids.jsonl"
    bad.write_text('{"image_id":1,"region_id":1,"phrase":"red bus",'
                   '"objects":[{"id":1.7,"label":"bus"}]}\n')
    capsys.readouterr()
    assert run(["align", "--regions", str(bad), "--out", str(tmp_path / "t.conll")]) == 2
    err = capsys.readouterr().err
    assert f"{bad}:1: Malformed: object id must be an integer, got 1.7\n" in err


# Each case quotes a value of 3,000 to 20,000 characters back at the user; the
# message must cut it and stay one short line naming the file and the line.
LONG = 20_000
_RECORD = {"image_id": 1, "region_id": 1, "phrase": "red bus",
           "objects": [{"id": 1, "label": "bus"}]}


def _record(**fields):
    return json.dumps({**_RECORD, **fields}) + "\n"


@pytest.mark.parametrize("name, text, command, where", [
    ("bad.jsonl", json.dumps(list(range(3000))) + "\n", "eval", "bad.jsonl:1: "),
    ("bad.jsonl", _record(phrase="red " * (LONG // 4), objects="o" * LONG), "align",
     "bad.jsonl:1: "),
    ("bad.jsonl", _record(region_id="9" * LONG), "align", "bad.jsonl:1: "),
    ("bad.jsonl", _record(phrase=[0] * 3000), "align", "bad.jsonl:1: "),
    ("bad.jsonl", _record(attributes=[[1, " " * LONG]]), "align", "bad.jsonl:1: "),
    ("bad.jsonl", _record(attributes=[[int("9" * 4000), "red"]]), "align", "bad.jsonl:1: "),
    ("bad.jsonl", _record(objects=[{"id": -int("9" * 4000), "label": "bus"}]), "align",
     "bad.jsonl:1: "),
    ("bad.conll", "1\t" + "a b" * (LONG // 3) + "\t_\t_\t_\n\n", "convert", "bad.conll: line 1: "),
    ("bad.conll", "1\tred\t_\t_\t_\n" + "1" * LONG + "\tbus\t_\t_\tSUBJ\n\n", "convert",
     "bad.conll: line 2: "),
    ("bad.conll", "1\tred\t_\t" + "A" * LONG + "\t_\n\n", "convert", "bad.conll: line 1: "),
    ("bad.conll", "1\tred\t" + "x" * LONG + "\t_\tSUBJ\n\n", "convert", "bad.conll: line 1: "),
    ("bad.conll", "9" * 4000 + "\tred\t_\t_\t_\n\n", "convert", "bad.conll: line 1: "),
    ("bad.conll", "1\tred\t-" + "9" * 4000 + "\t_\tSUBJ\n\n", "convert", "bad.conll: line 1: "),
    ("bad.conll", "1\tred\t" + "9" * 4000 + "\t_\tSUBJ\n\n", "convert", "bad.conll: line 1: "),
    ("bad.json", json.dumps({"k" * LONG: [1]}), "lexicon", "bad.json: "),
    ("model.json", json.dumps({"k" * LONG: 1}), "train", "model.json: "),
    ("model.json", json.dumps({"d_model": [1] * 3000}), "train", "model.json: "),
    ("model.json", json.dumps({"tokenizer_mode": "m" * LONG}), "train", "model.json: "),
], ids=["record-array", "objects-string", "region-id-string", "phrase-array", "blank-label",
        "dangling-id", "negative-id", "form", "index", "arc-label", "head",
        "non-contiguous-index", "negative-head", "head-past-end", "lexicon-label",
        "unknown-config-key", "config-field-array", "config-mode"])
def test_long_quoted_value_is_one_short_line(aligned, tmp_path, monkeypatch, capsys,
                                             name, text, command, where):
    regions_file, conll_file = aligned
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    argv = {
        "eval": ["eval", "--pred", name, "--ref", regions_file],
        "align": ["align", "--regions", name],
        "convert": ["convert", "--in", name],
        "lexicon": ["align", "--regions", regions_file, "--lexicon", name],
        "train": ["train", "--conll", conll_file, "--regions", regions_file,
                  "--model-config", name],
    }[command]
    capsys.readouterr()
    assert run(argv + ["--out", "out"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert [line for line in lines if where in line] != [], lines
    assert max(map(len, lines)) <= 200, [line[:300] for line in lines]


@pytest.mark.parametrize("edit", [
    lambda m: m.update(format="f" * LONG),
    lambda m: m["tokenizer"].update(mode="m" * LONG),
    lambda m: m["tokenizer"].update(merges=[["x" * LONG, "y"]]),
], ids=["format", "tokenizer-mode", "merge-used-before-made"])
def test_long_manifest_value_is_one_short_line(trained, tmp_path, capsys, edit):
    _, regions_file, ckpt_base = trained
    manifest = json.loads(open(ckpt_base + ".json").read())
    edit(manifest)
    (tmp_path / "ckpt.json").write_text(json.dumps(manifest))
    (tmp_path / "ckpt.bin").write_bytes(open(ckpt_base + ".bin", "rb").read())
    capsys.readouterr()
    assert run(["parse", "--ckpt", str(tmp_path / "ckpt"), "--regions", regions_file,
                "--out", str(tmp_path / "pred.jsonl")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(tmp_path / "ckpt.json") in err
    # a merge message may quote three symbols, each cut on its own
    assert len(err) <= 400 + len(str(tmp_path)), err[:500]
