"""Corrupted input files and odd argument values never crash the CLI: every
command ends with exit code 0, 1 or 2, and no exception escapes `cli.run`.

Each example takes valid regions, CONLL, lexicon, config or split files,
corrupts one of them (a JSON value replaced, deleted or added, a CONLL field
rewritten, text spliced in, raw bytes inserted, or the file truncated) and
runs every command that reads that kind of file. Other examples give a
subcommand's options values such as a missing path, a directory, "-", a
negative number or NaN. Others give a checkpoint manifest's config or tokenizer
field, or a split spec's image ids, a value of the wrong JSON type, or add a key
the manifest section does not define: that must be exit code 2 with one line on
stderr that names the file and the field and spells no value the Python way
(`None`, `True`). The examples are derandomized, so every run of the suite
tries the same inputs; raise max_examples for a longer search.
"""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sgforge.cli import _build_parser, run

# small enough that a corrupted config still trains in milliseconds
MODEL_CONFIG = {"d_model": 8, "n_layers": 1, "n_heads": 2, "d_ff": 16, "max_len": 16, "d_qk": 8}
TRAIN_CONFIG = {"epochs": 1, "batch_size": 4}
LEXICON = {"cat": ["kitty"], "bus": ["auto", "coach"]}
SPLIT = {"train_image_ids": list(range(8)), "eval_image_ids": [8, 9, 10, 11]}

# Commands that read each kind of file; "{bad}" is the corrupted copy.
COMMANDS = {
    "regions": [
        ["align", "--regions", "{bad}", "--out", "{w}/out.conll"],
        ["train", "--conll", "{w}/targets.conll", "--regions", "{bad}",
         "--model-config", "{w}/model.json", "--train-config", "{w}/train.json",
         "--out", "{w}/out-ckpt"],
        ["eval", "--pred", "{bad}", "--ref", "{w}/regions.jsonl", "--out", "{w}/report"],
        ["eval", "--pred", "{w}/regions.jsonl", "--ref", "{bad}", "--out", "{w}/report"],
        ["parse", "--ckpt", "{w}/ckpt", "--regions", "{bad}", "--out", "{w}/pred.jsonl"],
        ["convert", "--in", "{w}/targets.conll", "--regions", "{bad}", "--out", "{w}/graphs.jsonl"],
    ],
    "conll": [
        ["train", "--conll", "{bad}", "--regions", "{w}/regions.jsonl",
         "--model-config", "{w}/model.json", "--train-config", "{w}/train.json",
         "--out", "{w}/out-ckpt"],
        ["convert", "--in", "{bad}", "--out", "{w}/graphs.jsonl"],
    ],
    "lexicon": [
        ["align", "--regions", "{w}/regions.jsonl", "--lexicon", "{bad}",
         "--out", "{w}/out.conll"],
        ["eval", "--pred", "{w}/regions.jsonl", "--ref", "{w}/regions.jsonl",
         "--lexicon", "{bad}", "--out", "{w}/report"],
    ],
    "model": [
        ["train", "--conll", "{w}/targets.conll", "--regions", "{w}/regions.jsonl",
         "--model-config", "{bad}", "--train-config", "{w}/train.json", "--out", "{w}/out-ckpt"],
    ],
    "train": [
        ["train", "--conll", "{w}/targets.conll", "--regions", "{w}/regions.jsonl",
         "--model-config", "{w}/model.json", "--train-config", "{bad}", "--out", "{w}/out-ckpt"],
    ],
    "split": [
        ["train", "--conll", "{w}/targets.conll", "--regions", "{w}/regions.jsonl",
         "--model-config", "{w}/model.json", "--train-config", "{w}/train.json",
         "--split", "{bad}", "--out", "{w}/out-ckpt"],
    ],
}
SOURCES = {"regions": "regions.jsonl", "conll": "targets.conll", "lexicon": "lexicon.json",
           "model": "model.json", "train": "train.json", "split": "split.json"}

# integers stay small, so a corrupted model config never asks for a large model
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids,
                                                               max_size=3),
    max_leaves=6,
)
field_names = st.sampled_from([
    "image_id", "region_id", "phrase", "objects", "attributes", "relationships", "relations",
    "id", "label", "vocab_size", "d_model", "n_layers", "n_heads", "d_ff", "max_len", "d_qk",
    "tokenizer_mode", "n_classes", "loss_weight", "learning_rate", "adam_beta1", "adam_beta2",
    "adam_epsilon", "epochs", "batch_size", "seed", "lambda_mode", "lambda_value",
    "train_image_ids", "eval_image_ids",
]) | st.text(max_size=6)
# "01", "+1", " 1" and "1_0" are int() spellings that write_conll never writes
conll_fields = st.sampled_from(["_", "0", "1", "2", "-1", "99", "x", "SUBJ", "PRED", "OBJT",
                                "ATTR", "SAME", "NONE", "01", "+1", " 1", "1_0"]
                               ) | st.text(max_size=4)


def cli(argv):
    return cli_err(argv)[0]


def cli_err(argv) -> tuple[int, str]:
    """The exit code of `run(argv)` and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        return run(argv), err.getvalue()


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    w = tmp_path_factory.mktemp("fuzz")
    for name, obj in (("model.json", MODEL_CONFIG), ("train.json", TRAIN_CONFIG),
                      ("lexicon.json", LEXICON), ("split.json", SPLIT)):
        (w / name).write_text(json.dumps(obj))
    assert cli(["gen", "--n", "12", "--out", f"{w}/regions.jsonl"]) == 0
    assert cli(["align", "--regions", f"{w}/regions.jsonl", "--out", f"{w}/targets.conll"]) == 0
    assert cli(["train", "--conll", f"{w}/targets.conll", "--regions", f"{w}/regions.jsonl",
                "--model-config", f"{w}/model.json", "--train-config", f"{w}/train.json",
                "--out", f"{w}/ckpt"]) == 0
    return w


def mutate_json(data, doc):
    """Replace, delete or add one entry of a container inside doc, or replace
    doc itself."""
    node = doc
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        key = data.draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if isinstance(child, (dict, list)) and child and data.draw(st.booleans()):
            node = child
            continue
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = data.draw(json_values)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(field_names)] = data.draw(json_values)
        else:
            node.append(data.draw(json_values))
        return doc
    return data.draw(json_values)


def corrupt(data, kind: str, text: str) -> bytes:
    how = data.draw(st.sampled_from(["structure", "splice", "bytes", "truncate"]))
    if how == "structure":
        lines = text.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        if kind == "conll":
            cols = lines[i].split("\t")
            if len(cols) == 5:
                cols[data.draw(st.integers(0, 4))] = data.draw(conll_fields)
            lines[i] = "\t".join(cols)
        else:
            lines[i] = json.dumps(mutate_json(data, json.loads(lines[i])))
        return ("\n".join(lines) + "\n").encode()
    raw = text.encode()
    at = data.draw(st.integers(0, len(raw)))
    if how == "truncate":
        return raw[:at]
    end = data.draw(st.integers(at, min(len(raw), at + 20)))
    if how == "splice":
        return raw[:at] + data.draw(st.text(max_size=12)).encode() + raw[end:]
    return raw[:at] + data.draw(st.binary(min_size=1, max_size=6)) + raw[end:]


@pytest.mark.parametrize("kind", sorted(COMMANDS))
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_corrupted_file_gives_an_exit_code(work, kind, data):
    bad = work / f"bad-{kind}"
    bad.write_bytes(corrupt(data, kind, (work / SOURCES[kind]).read_text()))
    for template in COMMANDS[kind]:
        argv = [arg.format(w=work, bad=bad) for arg in template]
        assert cli(argv) in (0, 1, 2), argv


def _options() -> dict[str, tuple[list[str], list[str]]]:
    """Per subcommand, its required flags and its optional flags (every
    subcommand has some) that take a value."""
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    out = {}
    for name, parser in sub.choices.items():
        flags = [a for a in parser._actions if a.option_strings and a.nargs != 0]
        out[name] = ([a.option_strings[-1] for a in flags if a.required],
                     [a.option_strings[-1] for a in flags if not a.required])
    return out


OPTIONS = _options()
# "{d}" is a fresh directory per example, also the working directory, so a
# relative path such as "0" lands there too
ODD_VALUES = ["{d}/missing", "{d}", "-", "-1", "0", "nan", ""]


@st.composite
def odd_argv(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    required, optional = OPTIONS[command]
    flags = required + draw(st.lists(st.sampled_from(optional), unique=True))
    argv = [command]
    for flag in draw(st.permutations(flags)):
        argv += [flag, draw(st.sampled_from(ODD_VALUES))]
    return argv


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(template=odd_argv())
def test_odd_argument_values_give_an_exit_code(template):
    with tempfile.TemporaryDirectory() as d:
        argv = [arg.format(d=d) for arg in template]
        cwd, stdin = os.getcwd(), sys.stdin
        os.chdir(d)
        sys.stdin = io.StringIO()  # "-" reads nothing
        try:
            assert cli(argv) in (0, 1, 2), argv
        finally:
            os.chdir(cwd)
            sys.stdin = stdin


def wrongly_typed(value):
    """A JSON value whose type is not that of `value`, a config or tokenizer
    field: a float (a right type for a float field), `true` or `false`, a
    string, a list of integers (not empty for a list field), an object or null."""
    wrong = st.booleans() | st.text(max_size=4) | st.none()
    wrong |= st.dictionaries(st.text(max_size=2), st.integers(), max_size=2)
    wrong |= st.lists(st.integers(0, 9), min_size=1 if type(value) is list else 0, max_size=2)
    return wrong if type(value) is float else wrong | st.floats()


# how Python, not JSON, spells a value or an error
PYTHON_SPELLINGS = ("None", "True", "False", "__init__", "Error(")


def assert_one_line_naming(err: str, path: str, field: str) -> None:
    """err is one line that names the file and the field, in JSON terms."""
    assert err.count("\n") == 1 and path in err and field in err, err
    assert not any(word in err for word in PYTHON_SPELLINGS), err


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_wrongly_typed_manifest_config_is_one_line(work, data):
    manifest = json.loads((work / "ckpt.json").read_text())
    section = data.draw(st.sampled_from(["model_config", "train_config", "tokenizer"]))
    if data.draw(st.integers(0, 5)) == 0:  # a key the section does not define
        field = data.draw(st.sampled_from(["extra", "vocab", "step", "lambda_mode"]))
        manifest[section][field] = data.draw(json_values)
    else:
        field = data.draw(st.sampled_from(sorted(manifest[section])))
        manifest[section][field] = data.draw(wrongly_typed(manifest[section][field]))
    (work / "bad-ckpt.json").write_text(json.dumps(manifest))
    (work / "bad-ckpt.bin").write_bytes((work / "ckpt.bin").read_bytes())
    code, err = cli_err(["parse", "--ckpt", f"{work}/bad-ckpt", "--regions",
                         f"{work}/regions.jsonl", "--out", f"{work}/pred.jsonl"])
    assert code == 2, err
    assert_one_line_naming(err, f"{work}/bad-ckpt.json", field)


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_wrongly_typed_split_ids_are_one_line(work, data):
    spec = {key: list(ids) for key, ids in SPLIT.items()}
    key = data.draw(st.sampled_from(sorted(spec)))
    if data.draw(st.booleans()):  # the list itself
        spec[key] = data.draw(st.none() | st.booleans() | st.integers() | st.floats()
                              | st.text(max_size=4)
                              | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
    else:
        at = data.draw(st.integers(0, len(spec[key]) - 1))
        spec[key][at] = data.draw(wrongly_typed(0))
    (work / "bad-split.json").write_text(json.dumps(spec))
    code, err = cli_err(["train", "--conll", f"{work}/targets.conll",
                         "--regions", f"{work}/regions.jsonl",
                         "--model-config", f"{work}/model.json",
                         "--train-config", f"{work}/train.json",
                         "--split", f"{work}/bad-split.json", "--out", f"{work}/split-ckpt"])
    assert code == 2, err
    assert_one_line_naming(err, f"{work}/bad-split.json", key)
