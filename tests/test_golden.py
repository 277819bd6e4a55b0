"""Golden outputs, run through `sgforge.cli.run`.

- The numpy-free stages: the SHA-256 of every output file and of stdout of
  `gen`, `align`, `convert` and `eval`, on the desk corpus and on the bench's
  score corpus. A change that moves one byte of them fails here.
- The model stages: a tiny desk `train` and `parse`. Their bytes depend on
  the BLAS build and the CPU, so the epoch records are pinned field by
  field: `epoch`, `step` and `dev_f` exactly, the losses and `lambda` to the
  relative tolerance LOSS_REL_TOL. The graphs that `parse` writes are pinned
  by digest: this run's argmax margins are wide enough that no tag moves
  with the last bits of the logits.

`tests/golden.json` records the digests, the epoch records and the Python
version that made them. To regenerate it, when an output is meant to change,
run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import pytest

from sgforge.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "bench"))

import corpora  # noqa: E402


def _desk(d: Path) -> list[tuple[str, list[str]]]:
    regions, conll, graphs = d / "regions.jsonl", d / "targets.conll", d / "graphs.jsonl"
    return [
        ("gen", ["gen", "--n", "400", "--seed", "1", "--out", regions]),
        ("align", ["align", "--regions", regions, "--out", conll]),
        ("convert --regions", ["convert", "--in", conll, "--regions", regions, "--out", graphs]),
        ("eval", ["eval", "--pred", graphs, "--ref", regions, "--out", d / "eval.jsonl"]),
    ]


def _score(d: Path) -> list[tuple[str, list[str]]]:
    records, lexicon, _ = corpora.score_corpus(seed=44, n=1000)
    regions, lex, conll = d / "regions.jsonl", d / "lexicon.json", d / "targets.conll"
    regions.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
    lex.write_text(json.dumps(lexicon, sort_keys=True))
    runs = [
        ("align", ["align", "--regions", regions, "--lexicon", lex, "--out", conll]),
        ("convert", ["convert", "--in", conll, "--out", d / "oracle.jsonl"]),
        ("convert --regions", ["convert", "--in", conll, "--regions", regions,
                               "--out", d / "graphs.jsonl"]),
    ]
    for mode in ("base", "limited"):
        runs.append((f"eval {mode}", ["eval", "--pred", d / "oracle.jsonl", "--ref", regions,
                                      "--mode", mode, "--lexicon", lex,
                                      "--out", d / f"eval.{mode}.jsonl"]))
    return runs


CORPORA = {"desk": _desk, "score": _score}

# A 1-layer d_model-32 tagger. At rate 3e-3 it reaches dev F 0.95 in 2 epochs,
# and its smallest top-two logit gaps, over the top logit, are 22% (class) and
# 0.04% (parent).
MODEL_CONFIG = {"d_model": 32, "n_layers": 1, "n_heads": 2, "d_ff": 64, "d_qk": 32}
TRAIN_CONFIG = {"epochs": 2, "learning_rate": 3e-3, "seed": 1}
# Forcing six OpenBLAS kernels (OPENBLAS_CORETYPE Prescott to Zen) moved the
# losses and lambda by at most 1e-7 relative, and no dev F or graph.
LOSS_REL_TOL = 1e-5
TOLERANT = ("train_loss", "dev_loss", "lambda")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _run(argv: list) -> str:
    """stdout of one CLI call, which must exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = run([str(a) for a in argv])
    assert rc == 0, f"{argv[0]} exited {rc}"
    return stdout.getvalue()


def digests(corpus: str, d: Path) -> dict:
    """{run name: {"out": digest of its --out file, "stdout": digest of stdout}}."""
    result = {}
    for name, argv in CORPORA[corpus](d):
        stdout = _run(argv)
        out = Path(argv[argv.index("--out") + 1])
        result[name] = {"out": _sha256(out.read_bytes()), "stdout": _sha256(stdout.encode())}
    return result


def model_outputs(d: Path) -> dict:
    """The epoch records of a tiny desk `train` and the digest of the graphs
    that `parse` writes for its 400 regions."""
    regions, conll, ckpt, pred = (d / "regions.jsonl", d / "targets.conll", d / "ckpt",
                                  d / "pred.jsonl")
    (d / "model.json").write_text(json.dumps(MODEL_CONFIG))
    (d / "train.json").write_text(json.dumps(TRAIN_CONFIG))
    _run(["gen", "--n", "400", "--seed", "1", "--out", regions])
    _run(["align", "--regions", regions, "--out", conll])
    log = _run(["train", "--conll", conll, "--regions", regions, "--model-config",
                d / "model.json", "--train-config", d / "train.json", "--out", ckpt])
    _run(["parse", "--ckpt", ckpt, "--regions", regions, "--out", pred])
    return {"records": [json.loads(line) for line in log.splitlines()],
            "parse": _sha256(pred.read_bytes())}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_outputs_match_golden_digests(corpus, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert digests(corpus, tmp_path) == golden["corpora"][corpus]


def test_train_and_parse_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())["model"]
    found = model_outputs(tmp_path)
    assert found["records"] == [
        {**want, **{key: pytest.approx(want[key], rel=LOSS_REL_TOL) for key in TOLERANT}}
        for want in golden["records"]
    ]
    assert found["parse"] == golden["parse"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        found = {}
        for corpus in sorted(CORPORA):
            (Path(tmp) / corpus).mkdir()
            found[corpus] = digests(corpus, Path(tmp) / corpus)
        (Path(tmp) / "model").mkdir()
        model = model_outputs(Path(tmp) / "model")
    GOLDEN.write_text(json.dumps({"python": platform.python_version(), "corpora": found,
                                  "model": model}, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
