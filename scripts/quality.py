#!/usr/bin/env python3
"""Held-out quality of the trained tagger over several training seeds.

    python3 scripts/quality.py            # quality setup, train seeds 1-3
    python3 scripts/quality.py --small    # small setup, train seeds 1-5

Both setups build a `bench/corpora.long_corpus`, write a split file and
drive `sgforge.cli.run` through align, train, parse and eval in a temporary
directory. The trailing regions are held out: they use the corpus's DEV_ONLY
words and no run sees them before `parse`.

- quality: `long_corpus(seed=1, n=2000, n_train=1500)`; regions 0-1499
  train, 1500-1699 dev, 1700-1999 held out. The bench's `long` model
  (BPE, d_model 128, d_ff 512, max_len 64), 4 epochs, batch 8, rate 3e-3.
- small: `long_corpus(seed=7, n=900, n_train=600)`; regions 0-599 train,
  600-699 dev, 700-899 held out. BPE, d_model 64, d_ff 256, max_len 64,
  3 epochs, batch 8, rate 3e-3.

Stdout is one JSON object: per-seed held-out F (base and limited) with its
median and seed spread (max - min), dev F per epoch, and the oracle F, which
scores the aligner's own targets for the held-out regions. BLAS runs on one
thread. This runs outside the test suite: a quality-setup seed takes about
10 s on a 2-CPU machine.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")  # before numpy loads
ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import corpora  # noqa: E402
from sgforge.cli import run  # noqa: E402

SETUPS = {
    "quality": {
        "corpus": {"seed": 1, "n": 2000, "n_train": 1500}, "n_dev": 200, "seeds": [1, 2, 3],
        "model": {"tokenizer_mode": "bpe", "d_model": 128, "d_ff": 512, "max_len": 64},
        "train": {"epochs": 4, "batch_size": 8, "learning_rate": 3e-3},
    },
    "small": {
        "corpus": {"seed": 7, "n": 900, "n_train": 600}, "n_dev": 100, "seeds": [1, 2, 3, 4, 5],
        "model": {"tokenizer_mode": "bpe", "d_model": 64, "d_ff": 256, "max_len": 64},
        "train": {"epochs": 3, "batch_size": 8, "learning_rate": 3e-3},
    },
}
MODES = ("base", "limited")


def _cli(*argv) -> str:
    """Run one sgforge command and return its stdout; a non-zero exit stops the probe."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run([str(a) for a in argv])
    if code != 0:
        sys.exit(f"sgforge {argv[0]} exited {code}")
    return out.getvalue()


def _write_jsonl(path: Path, records: list[dict]) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def _scores(d: Path, pred: Path, held: Path) -> dict:
    """Mean F of `pred` against the held-out regions, in each eval mode."""
    scores = {}
    for mode in MODES:
        report = d / f"eval.{mode}.jsonl"
        _cli("eval", "--pred", pred, "--ref", held, "--mode", mode, "--out", report)
        scores[mode] = json.loads(report.read_text().splitlines()[-1])["aggregate"]["mean_f"]
    return scores


def probe(setup: dict, d: Path) -> dict:
    corpus = setup["corpus"]
    records = corpora.long_corpus(**corpus)
    n_train, n_dev = corpus["n_train"], setup["n_dev"]
    regions, held = d / "regions.jsonl", d / "heldout.jsonl"
    _write_jsonl(regions, records)
    _write_jsonl(held, records[n_train + n_dev :])
    (d / "split.json").write_text(json.dumps({
        "train_image_ids": [r["image_id"] for r in records[:n_train]],
        "eval_image_ids": [r["image_id"] for r in records[n_train : n_train + n_dev]],
    }))
    (d / "model.json").write_text(json.dumps(setup["model"]))
    _cli("align", "--regions", regions, "--out", d / "targets.conll")
    _cli("align", "--regions", held, "--out", d / "heldout.conll")
    _cli("convert", "--in", d / "heldout.conll", "--regions", held, "--out", d / "oracle.jsonl")
    oracle = _scores(d, d / "oracle.jsonl", held)

    runs = []
    for seed in setup["seeds"]:
        (d / "train.json").write_text(json.dumps({**setup["train"], "seed": seed}))
        log = _cli("train", "--conll", d / "targets.conll", "--regions", regions,
                   "--split", d / "split.json", "--model-config", d / "model.json",
                   "--train-config", d / "train.json", "--out", d / "ckpt")
        _cli("parse", "--ckpt", d / "ckpt", "--regions", held, "--out", d / "pred.jsonl")
        runs.append({"seed": seed,
                     "heldout_f": _scores(d, d / "pred.jsonl", held),
                     "dev_f": [json.loads(line)["dev_f"] for line in log.splitlines()]})

    summary = {}
    for mode in MODES:
        fs = [r["heldout_f"][mode] for r in runs]
        summary[mode] = {"median": statistics.median(fs), "spread": max(fs) - min(fs)}
    return {"corpus": corpus, "model_config": setup["model"], "train_config": setup["train"],
            "runs": runs, "heldout_f": summary, "oracle_f": oracle}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--small", action="store_true", help="the small setup, seeds 1-5")
    args = parser.parse_args()
    name = "small" if args.small else "quality"
    with tempfile.TemporaryDirectory(prefix="sgforge-quality-") as tmp:
        result = probe(SETUPS[name], Path(tmp))
    print(json.dumps({"setup": name, **result}, sort_keys=True))


if __name__ == "__main__":
    main()
