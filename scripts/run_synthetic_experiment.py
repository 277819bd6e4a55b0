#!/usr/bin/env python3
"""End-to-end desk experiment on the synthetic corpus.

Generates regions, aligns oracle targets, trains the desk-default model, and
prints a small table comparing the oracle and the trained model under base
and limited-tuples scoring.

Usage: python scripts/run_synthetic_experiment.py [--n 2000] [--seed 17]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sgforge.align import align
from sgforge.data import SyntheticGrammar, generate_synthetic
from sgforge.metrics import evaluate_corpus
from sgforge.model import ModelConfig, predict
from sgforge.tags import decode_tags_to_graph
from sgforge.train import Example, TrainConfig, train


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--seed", type=int, default=17)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--train-seed", type=int, default=0)
    args = ap.parse_args()

    regions = generate_synthetic(SyntheticGrammar(), args.n, seed=args.seed)
    examples = []
    for r in regions:
        result = align(r.description, r.graph)
        examples.append(Example(r.description, result.tagged, r.graph))
    cut = int(len(examples) * 0.9)
    train_ex, dev_ex = examples[:cut], examples[cut:]
    dev_regions = regions[cut:]
    print(f"regions={args.n} train={len(train_ex)} dev={len(dev_ex)}")

    start = time.monotonic()
    result = train(
        train_ex, dev_ex, ModelConfig(vocab_size=0),
        TrainConfig(epochs=args.epochs, seed=args.train_seed), log_fn=print,
    )
    print(f"training took {time.monotonic() - start:.1f}s")

    ckpt = result.best
    refs = [r.graph for r in dev_regions]
    descs = [r.description for r in dev_regions]
    oracle_graphs = [
        decode_tags_to_graph(align(r.description, r.graph).tagged).graph
        for r in dev_regions
    ]
    model_graphs = [
        decode_tags_to_graph(sent).graph
        for sent in predict(ckpt.params, ckpt.model_config, ckpt.tokenizer, descs,
                            ckpt.train_config.batch_size)
    ]

    def f(graphs, limited):
        aggregate, _ = evaluate_corpus(graphs, refs, descs, limited=limited)
        return aggregate["mean_f"]

    print()
    print(f"{'system':<10} {'F (base)':>10} {'F (limited)':>12}")
    print(f"{'model':<10} {f(model_graphs, False):>10.4f} {f(model_graphs, True):>12.4f}")
    print(f"{'oracle':<10} {f(oracle_graphs, False):>10.4f} {f(oracle_graphs, True):>12.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
