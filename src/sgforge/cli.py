"""Command-line surface: gen, align, train, parse, eval, convert.

File arguments accept "-" for standard input/output so commands compose in
pipelines. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .align import EMPTY_LEXICON, Lexicon, align
from .data import (
    Region,
    SplitSpec,
    SyntheticGrammar,
    generate_synthetic,
    ingest,
    split,
    write_regions,
)
from .errors import IdMismatchError, SgforgeError
from .metrics import evaluate_corpus
from .model import ModelConfig, predict
from .tags import decode_tags_to_graph, read_conll, write_conll
from .train import Example, TrainConfig, load_checkpoint, save_checkpoint, train


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, encoding="utf-8") as f:
        return f.read()


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load_lexicon(path: str | None) -> Lexicon:
    if path is None:
        return EMPTY_LEXICON
    return Lexicon.from_json(_read(path))


def _load_regions(path: str) -> list[Region]:
    regions, errors = ingest(_read(path))
    if errors:
        for line_no, reason in errors:
            print(f"{path}:{line_no}: {reason}", file=sys.stderr)
        raise SgforgeError(f"{len(errors)} bad region records in {path}")
    return regions


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgforge")
    parser.add_argument("--version", action="version", version=f"sgforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic regions file")
    p.add_argument("--grammar", help="grammar JSON; defaults to the built-in grammar")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="overrides the grammar seed")

    p = sub.add_parser("align", help="produce oracle CONLL targets for a regions file")
    p.add_argument("--regions", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a tagger on aligned CONLL targets")
    p.add_argument("--conll", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--model-config", help="JSON overrides for the model configuration")
    p.add_argument("--train-config", help="JSON overrides for the training configuration")
    p.add_argument("--split", help="split spec JSON file (train/eval image ids)")
    p.add_argument("--dev-frac", type=float, default=0.1,
                   help="without --split, hold out this trailing fraction of image ids")
    p.add_argument("--seed", type=int, help="overrides the training seed")
    p.add_argument("--out", required=True, help="checkpoint base path")

    p = sub.add_parser("parse", help="parse descriptions into graphs with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", help="plain text, one description per line")
    p.add_argument("--regions", help="regions JSONL; phrases and ids are carried through")
    p.add_argument("--format", choices=["conll", "graph-json"], default="graph-json")
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="score predicted graphs against references")
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--mode", choices=["base", "limited"], default="base")
    p.add_argument("--lexicon")
    p.add_argument("--out", default="-")

    p = sub.add_parser("convert", help="decode a CONLL file into graph JSONL")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    grammar = SyntheticGrammar() if args.grammar is None else SyntheticGrammar.from_json(
        _read(args.grammar)
    )
    regions = generate_synthetic(grammar, args.n, seed=args.seed)
    _write(args.out, write_regions(regions))
    return 0


def _cmd_align(args) -> int:
    regions = _load_regions(args.regions)
    lex = _load_lexicon(args.lexicon)
    sentences = []
    coverages = []
    unaligned_total = 0
    for region in regions:
        result = align(region.description, region.graph, lex)
        sentences.append(result.tagged)
        coverages.append(result.coverage)
        unaligned_total += len(result.unaligned_nodes)
    _write(args.out, write_conll(sentences))
    report = {
        "regions": len(regions),
        "mean_coverage": sum(coverages) / len(coverages) if coverages else 1.0,
        "fully_aligned": sum(1 for c in coverages if c == 1.0),
        "unaligned_nodes": unaligned_total,
    }
    if args.out != "-":  # keep stdout clean when the CONLL goes there
        print(json.dumps(report, sort_keys=True))
    return 0


def _apply_overrides(defaults: dict, path: str | None) -> dict:
    if path is None:
        return defaults
    overrides = json.loads(_read(path))
    unknown = set(overrides) - set(defaults)
    if unknown:
        raise SgforgeError(f"unknown config keys: {sorted(unknown)}")
    defaults.update(overrides)
    return defaults


def _cmd_train(args) -> int:
    regions = _load_regions(args.regions)
    sentences = read_conll(_read(args.conll))
    if len(sentences) != len(regions):
        raise IdMismatchError(
            f"{len(sentences)} CONLL sentences but {len(regions)} regions"
        )
    model_kwargs = _apply_overrides(
        dict(ModelConfig(vocab_size=0).to_dict()), args.model_config
    )
    train_kwargs = _apply_overrides(dict(TrainConfig().to_dict()), args.train_config)
    if args.seed is not None:
        train_kwargs["seed"] = args.seed
    model_cfg = ModelConfig.from_dict(model_kwargs)
    train_cfg = TrainConfig.from_dict(train_kwargs)

    if args.split:
        spec = SplitSpec.from_json(_read(args.split))
    else:
        image_ids = sorted({r.image_id for r in regions})
        cut = int(round(len(image_ids) * (1.0 - args.dev_frac)))
        spec = SplitSpec(frozenset(image_ids[:cut]), frozenset(image_ids[cut:]))
    examples = [
        Example(r.description, sent, r.graph) for r, sent in zip(regions, sentences)
    ]
    train_ex = [e for e, r in zip(examples, regions) if r.image_id in spec.train_image_ids]
    dev_ex = [e for e, r in zip(examples, regions) if r.image_id in spec.eval_image_ids]
    result = train(train_ex, dev_ex, model_cfg, train_cfg, log_fn=print)
    save_checkpoint(result.final, args.out)
    save_checkpoint(result.best, args.out + ".best")
    return 0


def _cmd_parse(args) -> int:
    if (args.input is None) == (args.regions is None):
        raise _UsageError("exactly one of --input or --regions is required")
    ckpt = load_checkpoint(args.ckpt)
    if args.input is not None:
        lines = [ln for ln in _read(args.input).splitlines() if ln.strip()]
        items = [(i, i, ln) for i, ln in enumerate(lines)]
    else:
        regions = _load_regions(args.regions)
        items = [(r.image_id, r.region_id, r.description) for r in regions]
    tagged = predict(
        ckpt.params, ckpt.model_config, ckpt.tokenizer, [desc for _, _, desc in items],
        ckpt.train_config.batch_size,
    )
    if args.format == "conll":
        _write(args.out, write_conll(tagged))
        return 0
    regions = [
        Region(image_id, region_id, desc, decode_tags_to_graph(sent).graph)
        for (image_id, region_id, desc), sent in zip(items, tagged)
    ]
    _write(args.out, write_regions(regions))
    return 0


def _cmd_eval(args) -> int:
    pred_regions = _load_regions(args.pred)
    ref_regions = _load_regions(args.ref)
    pred_by_id = {r.region_id: r for r in pred_regions}
    ref_ids = [r.region_id for r in ref_regions]
    if sorted(pred_by_id) != sorted(ref_ids):
        raise IdMismatchError("prediction and reference region ids differ")
    lex = _load_lexicon(args.lexicon)
    aggregate, rows = evaluate_corpus(
        [pred_by_id[rid].graph for rid in ref_ids],
        [r.graph for r in ref_regions],
        [r.description for r in ref_regions],
        lex,
        limited=(args.mode == "limited"),
        region_ids=ref_ids,
    )
    report = "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    report += json.dumps({"aggregate": aggregate}, sort_keys=True) + "\n"
    _write(args.out, report)
    if args.out != "-":
        print(json.dumps({"aggregate_f": aggregate["mean_f"]}))
    return 0


def _cmd_convert(args) -> int:
    sentences = read_conll(_read(args.infile))
    regions = [
        Region(i, i, " ".join(tok.form for tok in sent), decode_tags_to_graph(sent).graph)
        for i, sent in enumerate(sentences)
    ]
    _write(args.out, write_regions(regions))
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "align": _cmd_align,
    "train": _cmd_train,
    "parse": _cmd_parse,
    "eval": _cmd_eval,
    "convert": _cmd_convert,
}


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        print(f"sgforge: {e}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"sgforge: {e}", file=sys.stderr)
        return 1
    except (SgforgeError, OSError, json.JSONDecodeError) as e:
        print(f"sgforge: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
