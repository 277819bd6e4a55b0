"""Region datasets: JSONL ingestion, image-id splits, and a synthetic corpus.

The synthetic generator exists so the whole pipeline can be exercised at desk
scale: every generated region aligns to its graph with coverage 1.0, so the
oracle upper bound is exactly 1.0 and any score gap is model error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

from .align import STOPWORDS
from .errors import DanglingReferenceError, EmptyLabelError
from .graph import SceneGraph, build_graph, graph_from_dict, graph_to_dict, json_int

_BLANK_PHRASE = "empty region description"


def _object_with_keys(text: str, kind: str, keys: tuple[str, ...]) -> dict:
    """Parse a JSON object that may hold only the given keys."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise TypeError(f"a {kind} must be a JSON object")
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown {kind} keys: {sorted(unknown)}")
    return d


@dataclass(frozen=True)
class Region:
    image_id: int
    region_id: int
    description: str
    graph: SceneGraph


@dataclass(frozen=True)
class SplitSpec:
    train_image_ids: frozenset[int]
    eval_image_ids: frozenset[int]

    def __post_init__(self):
        shared = sorted(self.train_image_ids & self.eval_image_ids)
        if shared:
            raise ValueError(f"train_image_ids and eval_image_ids share image ids {shared[:5]}")

    @classmethod
    def from_json(cls, text: str) -> "SplitSpec":
        d = _object_with_keys(text, "split spec", ("train_image_ids", "eval_image_ids"))
        return cls(frozenset(d["train_image_ids"]), frozenset(d["eval_image_ids"]))


def region_from_dict(record: dict) -> Region:
    if not isinstance(record, dict):
        raise TypeError(f"a region record must be a JSON object, not {type(record).__name__}")
    phrase = record.get("phrase", "")
    if not isinstance(phrase, str):
        raise TypeError(f"phrase must be a string, got {phrase!r}")
    if not phrase.strip():
        raise EmptyLabelError(_BLANK_PHRASE)
    graph = graph_from_dict(record)
    return Region(json_int(record["image_id"], "image_id"),
                  json_int(record["region_id"], "region_id"), phrase, graph)


def ingest(lines: list[str] | str) -> tuple[list[Region], list[tuple[int, str]]]:
    """Parse JSONL region records. Bad records collect as (line, reason) pairs
    rather than aborting the whole file."""
    if isinstance(lines, str):
        lines = lines.splitlines()
    regions: list[Region] = []
    errors: list[tuple[int, str]] = []
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            regions.append(region_from_dict(record))
        except EmptyLabelError as e:  # a blank phrase, or a blank label it quotes
            errors.append((line_no, "EmptyDescription" if str(e) == _BLANK_PHRASE
                           else f"EmptyLabel: {e}"))
        except DanglingReferenceError as e:
            errors.append((line_no, f"DanglingReference: {e}"))
        except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as e:
            errors.append((line_no, f"Malformed: {e}"))
    return regions, errors


def split(regions: list[Region], spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Positions of the regions whose image is in the train set, and of those
    whose image is in the eval set; regions in neither set are left out."""
    train = [i for i, r in enumerate(regions) if r.image_id in spec.train_image_ids]
    eval_ = [i for i, r in enumerate(regions) if r.image_id in spec.eval_image_ids]
    return train, eval_


DEFAULT_OBJECTS = (
    "bus", "cat", "dog", "man", "woman", "car", "tree", "house",
    "bird", "horse", "table", "kite",
)
DEFAULT_ATTRIBUTES = (
    "blue", "red", "green", "tall", "small", "old", "shiny", "dark",
    "round", "striped",
)
# multi-word relations exercise SAME resolution end to end
DEFAULT_RELATIONS = (
    "on", "under", "behind", "beside", "holds", "above",
    "in front of", "next to",
)


@dataclass(frozen=True)
class SyntheticGrammar:
    object_vocab: tuple[str, ...] = DEFAULT_OBJECTS
    attribute_vocab: tuple[str, ...] = DEFAULT_ATTRIBUTES
    relation_vocab: tuple[str, ...] = DEFAULT_RELATIONS
    pattern_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
    seed: int = 0

    def __post_init__(self):
        for key, vocab in (("objects", self.object_vocab), ("attributes", self.attribute_vocab),
                           ("relations", self.relation_vocab)):
            if not vocab or not all(isinstance(w, str) and w.strip() for w in vocab):
                raise ValueError(f"{key} must be a non-empty list of non-blank strings")
            if set(vocab) & STOPWORDS:
                raise ValueError("grammar vocabularies must not contain stopwords")
        weights = self.pattern_weights
        if not (len(weights) == 4 and all(type(w) in (int, float) and w >= 0 for w in weights)
                and 0 < sum(weights) < math.inf):
            raise ValueError("pattern_weights must be four non-negative numbers with a finite, "
                             "positive sum")

    @classmethod
    def from_json(cls, text: str) -> "SyntheticGrammar":
        d = _object_with_keys(text, "grammar", (
            "objects", "attributes", "relations", "pattern_weights", "seed"))
        lists = [d.get(key, default) for key, default in (
            ("objects", DEFAULT_OBJECTS), ("attributes", DEFAULT_ATTRIBUTES),
            ("relations", DEFAULT_RELATIONS), ("pattern_weights", (1.0, 1.0, 1.0, 1.0)))]
        if not all(isinstance(v, (list, tuple)) for v in lists):
            raise TypeError("objects, attributes, relations and pattern_weights must be lists")
        seed = d.get("seed", 0)
        if type(seed) is not int:
            raise TypeError(f"seed must be an integer, got {seed!r}")
        return cls(*map(tuple, lists), seed)


def generate_synthetic(grammar: SyntheticGrammar, n: int, seed: int | None = None) -> list[Region]:
    """Generate n regions whose descriptions and graphs match exactly.

    Patterns: "<attr> <obj>", "<attr> and <attr> <obj>", "<obj> <rel> <obj>",
    "<attr> <obj> <rel> the <obj>". Deterministic under the seed.
    """
    rng = random.Random(grammar.seed if seed is None else seed)

    def pick_two(vocab):
        # distinct when possible; a one-word vocabulary repeats
        return tuple(rng.sample(vocab, 2)) if len(vocab) >= 2 else (vocab[0], vocab[0])

    regions: list[Region] = []
    patterns = [0, 1, 2, 3]
    for i in range(n):
        pattern = rng.choices(patterns, weights=grammar.pattern_weights)[0]
        if pattern == 0:
            attr = rng.choice(grammar.attribute_vocab)
            obj = rng.choice(grammar.object_vocab)
            desc = f"{attr} {obj}"
            graph = build_graph([(1, obj)], [(1, attr)])
        elif pattern == 1:
            a1, a2 = pick_two(grammar.attribute_vocab)
            obj = rng.choice(grammar.object_vocab)
            desc = f"{a1} and {a2} {obj}"
            graph = build_graph([(1, obj)], [(1, a1), (1, a2)])
        elif pattern == 2:
            o1, o2 = pick_two(grammar.object_vocab)
            rel = rng.choice(grammar.relation_vocab)
            desc = f"{o1} {rel} {o2}"
            graph = build_graph([(1, o1), (2, o2)], [], [(1, rel, 2)])
        else:
            attr = rng.choice(grammar.attribute_vocab)
            o1, o2 = pick_two(grammar.object_vocab)
            rel = rng.choice(grammar.relation_vocab)
            desc = f"{attr} {o1} {rel} the {o2}"
            graph = build_graph([(1, o1), (2, o2)], [(1, attr)], [(1, rel, 2)])
        regions.append(Region(image_id=i, region_id=i, description=desc, graph=graph))
    return regions


def write_regions(regions: list[Region]) -> str:
    """Regions JSONL that `ingest` reads back: one compact record per line,
    keys sorted."""
    lines = []
    for r in regions:
        g = graph_to_dict(r.graph)
        record = {"image_id": r.image_id, "region_id": r.region_id, "phrase": r.description,
                  "objects": g["objects"], "attributes": g["attributes"],
                  "relationships": g["relations"]}
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    return "".join(lines)
