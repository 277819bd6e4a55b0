"""Command-line surface: gen, align, train, parse, eval, convert.

File arguments accept "-" for standard input/output so commands compose in
pipelines. Exit codes: 0 success, 1 usage error, 2 data error.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from dataclasses import fields

from . import __version__
from .align import EMPTY_LEXICON, Lexicon, align
from .data import (
    Region,
    SplitSpec,
    generate_synthetic,
    ingest,
    json_object,
    split,
    write_regions,
)
from .errors import (
    ConfigError,
    EmptyDatasetError,
    IdMismatchError,
    SequenceTooLongError,
    SgforgeError,
)
from .graph import build_graph, canonical_words
from .metrics import evaluate_corpus
from .tags import NodeType, decode_tags_to_graph, read_conll, tagged, write_conll


def _lazy(name: str):
    """The module `name`, registered in sys.modules (and on its package) but
    not run: its code runs on the first attribute access. So `gen`, `align`,
    `convert` and `eval` never import numpy, while every module still exists
    for whoever looks it up by name, such as the tracer in bench/spans.py."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    package, _, child = name.rpartition(".")
    setattr(sys.modules[package], child, module)
    return module


_lazy(__package__ + ".tokenizer")  # loaded by model and train; registered like them
model = _lazy(__package__ + ".model")
train = _lazy(__package__ + ".train")

_NO_GRAPH = build_graph([])  # of a region made from an --input line or a bare CONLL sentence
_REPORT_ENCODER = json.JSONEncoder(sort_keys=True)  # json.dumps(..., sort_keys=True), made once


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems with exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError as e:
        raise SgforgeError(f"{path}: not UTF-8 text: {e}") from None


def _check_one_stdin(args) -> None:
    """Standard input can be read once: a second input given as "-" would read it empty."""
    flags = ["--in" if dest == "infile" else "--" + dest.replace("_", "-")
             for dest, value in vars(args).items() if value == "-" and dest not in ("out", "ckpt")]
    if len(flags) > 1:
        raise _UsageError(f"{' and '.join(flags)} both read standard input; give - to one only")


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)


def _load(path: str, parse):
    """parse(text of the file); a value it rejects is a data error naming the file."""
    try:
        return parse(_read(path))
    except SgforgeError as e:  # a CONLL line, a blank lexicon label
        raise SgforgeError(f"{path}: {e}") from None
    except (TypeError, ValueError, RecursionError) as e:
        raise ConfigError(f"{path}: {e}") from None


def _load_lexicon(path: str | None) -> Lexicon:
    return EMPTY_LEXICON if path is None else _load(path, Lexicon.from_json)


def _load_regions(path: str) -> list[Region]:
    regions, errors = ingest(_read(path))
    if errors:
        for line_no, reason in errors:
            print(f"{path}:{line_no}: {reason}", file=sys.stderr)
        raise SgforgeError(f"{len(errors)} bad region records in {path}")
    return regions


def _write_graphs(path: str, regions: list[Region], sentences) -> None:
    """Decode each tagged sentence and write it as its region's record, with
    the decoded graph in place of the region's own. A sentence object that
    recurs, as `predict` gives one to identical descriptions, is decoded once."""
    graphs = {}  # by id(); `sentences` keeps each key's object alive
    for sent in sentences:
        if id(sent) not in graphs:
            graphs[id(sent)] = decode_tags_to_graph(sent).graph
    _write(path, write_regions([
        Region(r.image_id, r.region_id, r.description, graphs[id(sent)])
        for r, sent in zip(regions, sentences)
    ]))


def _check_pairing(conll_path: str, sentences, regions_path: str, regions) -> None:
    """Check that the i-th CONLL sentence tags the i-th region's words."""
    if len(sentences) != len(regions):
        raise IdMismatchError(f"{conll_path} has {len(sentences)} CONLL sentences but "
                              f"{regions_path} has {len(regions)} regions")
    for k, (sent, region) in enumerate(zip(sentences, regions), start=1):
        n = len(canonical_words(region.description))
        if len(sent) != n:
            raise IdMismatchError(f"{conll_path}: sentence {k} has {len(sent)} tokens, but "
                                  f"region {region.region_id} in {regions_path} has {n} words")


def _build_parser() -> _Parser:
    parser = _Parser(prog="sgforge")
    parser.add_argument("--version", action="version", version=f"sgforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic regions file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("align", help="produce oracle CONLL targets for a regions file")
    p.add_argument("--regions", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a tagger on aligned CONLL targets")
    p.add_argument("--conll", required=True)
    p.add_argument("--regions", required=True)
    p.add_argument("--model-config", help="JSON overrides for the model configuration")
    p.add_argument("--train-config", help="JSON overrides for the training configuration")
    p.add_argument("--split", help="split spec JSON file (train/eval image ids); without it "
                   "the trailing 10%% of the sorted image ids are held out")
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
    p.add_argument("--regions", help="regions JSONL, one record per CONLL sentence; phrases "
                   "and ids are carried through")
    p.add_argument("--out", required=True)
    return parser


def _cmd_gen(args) -> int:
    for flag, value in (("--n", args.n), ("--seed", args.seed)):
        if value < 0:
            raise _UsageError(f"{flag} must not be negative, got {value}")
    _write(args.out, write_regions(generate_synthetic(args.n, seed=args.seed)))
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


def _config(cls, path: str | None, kind: str, **fixed):
    """A config dataclass built from its defaults, the keys of the JSON file
    at `path` (if any) and `fixed`, which the file may not set. A key or
    value it rejects is a data error that names the file."""
    if path is None:
        return cls(**fixed)
    keys = [f.name for f in fields(cls) if f.name not in fixed]
    return _load(path, lambda text: cls(**json_object(json.loads(text), kind, keys), **fixed))


def _cmd_train(args) -> int:
    regions = _load_regions(args.regions)
    sentences = _load(args.conll, read_conll)
    _check_pairing(args.conll, sentences, args.regions, regions)
    # train takes vocab_size from the tokenizer
    model_cfg = _config(model.ModelConfig, args.model_config, "model config", vocab_size=0)
    train_cfg = _config(train.TrainConfig, args.train_config, "train config")

    if args.split:
        spec = _load(args.split, SplitSpec.from_json)
    else:
        image_ids = sorted({r.image_id for r in regions})
        cut = int(round(len(image_ids) * 0.9))  # the trailing 10% are the dev set
        spec = SplitSpec(frozenset(image_ids[:cut]), frozenset(image_ids[cut:]))
    examples = [train.Example(r, sent) for r, sent in zip(regions, sentences)]
    train_pos, dev_pos = split(regions, spec)
    try:
        result = train.train([examples[i] for i in train_pos], [examples[i] for i in dev_pos],
                       model_cfg, train_cfg, log_fn=print)
    except EmptyDatasetError as e:  # no region is in a train image
        raise EmptyDatasetError(f"{args.split or args.regions}: {e}") from None
    except SequenceTooLongError as e:
        raise SequenceTooLongError(f"{args.regions}: {e}") from None
    except ConfigError as e:  # the model config is too large for the tokenizer's vocabulary
        raise ConfigError(f"{args.model_config or 'model config'}: {e}") from None
    train.save_checkpoint(result.final, args.out)
    return 0


def _cmd_parse(args) -> int:
    if (args.input is None) == (args.regions is None):
        raise _UsageError("exactly one of --input or --regions is required")
    ckpt = train.load_checkpoint(args.ckpt)
    cfg = ckpt.model_config
    if args.input is not None:  # only "\n" ends a line; ids count the non-blank lines
        lines = [ln for ln in _read(args.input).split("\n") if ln.strip()]
        regions = [Region(i, i, ln, _NO_GRAPH) for i, ln in enumerate(lines)]
    else:
        regions = _load_regions(args.regions)
    sents = model.predict(
        ckpt.params, cfg, ckpt.tokenizer, [r.description for r in regions],
        ckpt.train_config.batch_size,
    )
    for k, (region, sent) in enumerate(zip(regions, sents)):
        if sent is None:  # too long for the model: reported, written untagged
            n = len(ckpt.tokenizer.encode(region.description)) - 1
            print(f"sgforge: {args.input or args.regions}: region {region.region_id} has {n} "
                  f"tokens, more than max_len {cfg.max_len}; written with an empty graph",
                  file=sys.stderr)
            sents[k] = tagged([(w, NodeType.NONE, 0) for w in canonical_words(region.description)])
    if args.format == "conll":
        _write(args.out, write_conll(sents))
    else:
        _write_graphs(args.out, regions, sents)
    return 0


def _missing(ids, others, others_path: str) -> str:
    """The ids in `ids` that `others` lacks, at most 5 of them, smallest first."""
    lacking = sorted(set(ids).difference(others))
    more = f" and {len(lacking) - 5} more" if len(lacking) > 5 else ""
    listed = ", ".join(map(str, lacking[:5])) or "none"
    return f"not in {others_path}: {listed}{more}"


def _cmd_eval(args) -> int:
    pred_regions = _load_regions(args.pred)
    ref_regions = _load_regions(args.ref)
    for path, regions in ((args.pred, pred_regions), (args.ref, ref_regions)):
        seen: set[int] = set()
        for r in regions:
            if r.region_id in seen:
                raise IdMismatchError(f"{path}: duplicate region id {r.region_id}")
            seen.add(r.region_id)
    pred_by_id = {r.region_id: r for r in pred_regions}
    ref_ids = [r.region_id for r in ref_regions]
    if pred_by_id.keys() != set(ref_ids):
        raise IdMismatchError(f"prediction {args.pred} and reference {args.ref} region ids "
                              f"differ: {_missing(pred_by_id, ref_ids, args.ref)}; "
                              f"{_missing(ref_ids, pred_by_id, args.pred)}")
    lex = _load_lexicon(args.lexicon)
    aggregate, rows = evaluate_corpus(
        [pred_by_id[rid].graph for rid in ref_ids], ref_regions, lex,
        limited=(args.mode == "limited"),
    )
    report = "".join(_REPORT_ENCODER.encode(row) + "\n" for row in rows)
    report += _REPORT_ENCODER.encode({"aggregate": aggregate}) + "\n"
    _write(args.out, report)
    if args.out != "-":
        print(json.dumps({"aggregate_f": aggregate["mean_f"]}))
    return 0


def _cmd_convert(args) -> int:
    sentences = _load(args.infile, read_conll)
    if args.regions is None:  # regions are numbered 0, 1, ... in file order
        regions = [Region(i, i, " ".join(tok.form for tok in sent), _NO_GRAPH)
                   for i, sent in enumerate(sentences)]
    else:
        regions = _load_regions(args.regions)
        _check_pairing(args.infile, sentences, args.regions, regions)
    _write_graphs(args.out, regions, sentences)
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
    try:
        args = _build_parser().parse_args(argv)
        _check_one_stdin(args)
        return _COMMANDS[args.command](args)
    except _UsageError as e:
        print(f"sgforge: {e}", file=sys.stderr)
        return 1
    except (SgforgeError, OSError) as e:
        print(f"sgforge: {e}", file=sys.stderr)
        return 2


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
