"""Region datasets: JSONL ingestion, image-id splits, and a synthetic corpus.

The synthetic generator exists so the whole pipeline can be exercised at desk
scale: every generated region aligns to its graph with coverage 1.0, so the
oracle upper bound is exactly 1.0 and any score gap is model error.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .align import STOPWORDS
from .errors import DanglingReferenceError, EmptyLabelError
from .graph import SceneGraph, build_graph, graph_from_dict, graph_to_dict

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
        d = json.loads(text)
        return cls(frozenset(d["train_image_ids"]), frozenset(d["eval_image_ids"]))


def region_to_dict(region: Region) -> dict:
    g = graph_to_dict(region.graph)
    return {
        "image_id": region.image_id,
        "region_id": region.region_id,
        "phrase": region.description,
        "objects": g["objects"],
        "attributes": g["attributes"],
        "relationships": g["relations"],
    }


def region_to_json(region: Region) -> str:
    return json.dumps(region_to_dict(region), sort_keys=True, separators=(",", ":"))


def region_from_dict(record: dict) -> Region:
    phrase = record.get("phrase", "")
    if not phrase.strip():
        raise EmptyLabelError("empty region description")
    graph = graph_from_dict(record)
    return Region(int(record["image_id"]), int(record["region_id"]), phrase, graph)


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
        except EmptyLabelError:
            errors.append((line_no, "EmptyDescription"))
        except DanglingReferenceError as e:
            errors.append((line_no, f"DanglingReference: {e}"))
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as e:
            errors.append((line_no, f"Malformed: {e}"))
    return regions, errors


def split(regions: list[Region], spec: SplitSpec) -> tuple[list[Region], list[Region]]:
    """Partition by image id; regions in neither set are dropped."""
    train = [r for r in regions if r.image_id in spec.train_image_ids]
    eval_ = [r for r in regions if r.image_id in spec.eval_image_ids]
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
        words = set()
        for vocab in (self.object_vocab, self.attribute_vocab, self.relation_vocab):
            words.update(vocab)
        if words & STOPWORDS:
            raise ValueError("grammar vocabularies must not contain stopwords")
        if len(self.pattern_weights) != 4:
            raise ValueError("exactly four pattern weights expected")

    @classmethod
    def from_json(cls, text: str) -> "SyntheticGrammar":
        d = json.loads(text)
        return cls(
            tuple(d.get("objects", DEFAULT_OBJECTS)),
            tuple(d.get("attributes", DEFAULT_ATTRIBUTES)),
            tuple(d.get("relations", DEFAULT_RELATIONS)),
            tuple(d.get("pattern_weights", (1.0, 1.0, 1.0, 1.0))),
            int(d.get("seed", 0)),
        )


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
    return "".join(region_to_json(r) + "\n" for r in regions)
