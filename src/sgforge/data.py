"""Region datasets: JSONL ingestion, image-id splits, and a synthetic corpus.

The one codec of region records, split specs and grammars, and of the JSON
value rules that the configs and the CLI share.

The synthetic generator exists so the whole pipeline can be exercised at desk
scale: every generated region aligns to its graph with coverage 1.0, so the
oracle upper bound is exactly 1.0 and any score gap is model error.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, fields

from .align import STOPWORDS
from .errors import DanglingReferenceError, EmptyLabelError
from .graph import SceneGraph, build_graph

_BLANK_PHRASE = "empty region description"


def json_int(value, field: str) -> int:
    """value, if it is a JSON integer; a bool, float or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def object_with_keys(text: str, kind: str, keys) -> dict:
    """Parse a JSON object that may hold only the given keys."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise TypeError(f"a {kind} must be a JSON object")
    unknown = set(d) - set(keys)
    if unknown:
        raise ValueError(f"unknown {kind} keys: {sorted(unknown)}")
    return d


_FIELD_TYPES = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
                "str": ((str,), "a string")}


def check_field_types(config) -> None:
    """Raise TypeError unless each field of the dataclass `config` holds its
    JSON type: an int field an integer (`true` is not one), a float field an
    integer or a float, a str field a string."""
    for f in fields(config):
        value = getattr(config, f.name)
        types, what = _FIELD_TYPES[f.type]
        if type(value) not in types:
            raise TypeError(f"{f.name} must be {what}, got {json.dumps(value)}")


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
        keys = ("train_image_ids", "eval_image_ids")
        d = object_with_keys(text, "split spec", keys)
        for key in keys:
            if not isinstance(d[key], list):
                raise TypeError(f"{key} must be a list of integers, got {json.dumps(d[key])}")
        return cls(*(frozenset(json_int(i, f"an id in {key}") for i in d[key]) for key in keys))


def _uint(value, field: str) -> int:
    if type(value) is not int or value < 0:
        json_int(value, field)  # a TypeError for a non-integer
        raise ValueError(f"object ids must be non-negative, got {value}")
    return value


def _label(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"labels must be strings, got {value!r}")
    return value


def region_from_dict(record: dict) -> Region:
    """A region record as `write_regions` writes it, or with `relations`."""
    if not isinstance(record, dict):
        raise TypeError(f"a region record must be a JSON object, not {type(record).__name__}")
    if "relations" in record and "relationships" in record:
        raise ValueError("a region record may hold relations or relationships, not both")
    phrase = record.get("phrase", "")
    if not isinstance(phrase, str):
        raise TypeError(f"phrase must be a string, got {phrase!r}")
    if not phrase.strip():
        raise EmptyLabelError(_BLANK_PHRASE)
    graph = build_graph(
        [(_uint(o["id"], "object id"), _label(o["label"])) for o in record.get("objects", [])],
        [(_uint(oid, "attribute object id"), _label(label))
         for oid, label in record.get("attributes", [])],
        [(_uint(sid, "relation subject id"), _label(label), _uint(oid, "relation object id"))
         for sid, label, oid in record.get("relations", record.get("relationships", []))],
    )
    return Region(json_int(record["image_id"], "image_id"),
                  json_int(record["region_id"], "region_id"), phrase, graph)


def ingest(lines: list[str] | str) -> tuple[list[Region], list[tuple[int, str]]]:
    """Parse JSONL region records, given as text or as its lines. Bad records
    collect as (line, reason) pairs rather than aborting the whole file."""
    if isinstance(lines, str):  # only "\n" ends a line: JSON strings may hold U+2028 raw
        lines = lines.split("\n")
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
        except KeyError as e:
            errors.append((line_no, f"Malformed: missing field {e}"))
        except (TypeError, ValueError, OverflowError, RecursionError) as e:
            errors.append((line_no, f"Malformed: {e}"))
    return regions, errors


def split(regions: list[Region], spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Positions of the regions whose image is in the train set, and of those
    whose image is in the eval set; regions in neither set are left out."""
    train = [i for i, r in enumerate(regions) if r.image_id in spec.train_image_ids]
    eval_ = [i for i, r in enumerate(regions) if r.image_id in spec.eval_image_ids]
    return train, eval_


@dataclass(frozen=True)
class SyntheticGrammar:
    objects: tuple[str, ...] = (
        "bus", "cat", "dog", "man", "woman", "car", "tree", "house",
        "bird", "horse", "table", "kite",
    )
    attributes: tuple[str, ...] = (
        "blue", "red", "green", "tall", "small", "old", "shiny", "dark",
        "round", "striped",
    )
    # multi-word relations exercise SAME resolution end to end
    relations: tuple[str, ...] = (
        "on", "under", "behind", "beside", "holds", "above",
        "in front of", "next to",
    )
    pattern_weights: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)

    def __post_init__(self):
        for key in ("objects", "attributes", "relations"):
            vocab = getattr(self, key)
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
        """The grammar a JSON object describes; an absent key keeps its default."""
        d = object_with_keys(text, "grammar", [f.name for f in fields(cls)])
        if not all(isinstance(v, list) for v in d.values()):
            raise TypeError("objects, attributes, relations and pattern_weights must be lists")
        return cls(**{key: tuple(v) for key, v in d.items()})


def generate_synthetic(grammar: SyntheticGrammar, n: int, seed: int) -> list[Region]:
    """Generate n regions whose descriptions and graphs match exactly.

    Patterns: "<attr> <obj>", "<attr> and <attr> <obj>", "<obj> <rel> <obj>",
    "<attr> <obj> <rel> the <obj>". Deterministic under the seed.
    """
    rng = random.Random(seed)

    def pick_two(vocab):
        # distinct when possible; a one-word vocabulary repeats
        return tuple(rng.sample(vocab, 2)) if len(vocab) >= 2 else (vocab[0], vocab[0])

    regions: list[Region] = []
    patterns = [0, 1, 2, 3]
    for i in range(n):
        pattern = rng.choices(patterns, weights=grammar.pattern_weights)[0]
        if pattern == 0:
            attr = rng.choice(grammar.attributes)
            obj = rng.choice(grammar.objects)
            desc = f"{attr} {obj}"
            graph = build_graph([(1, obj)], [(1, attr)])
        elif pattern == 1:
            a1, a2 = pick_two(grammar.attributes)
            obj = rng.choice(grammar.objects)
            desc = f"{a1} and {a2} {obj}"
            graph = build_graph([(1, obj)], [(1, a1), (1, a2)])
        elif pattern == 2:
            o1, o2 = pick_two(grammar.objects)
            rel = rng.choice(grammar.relations)
            desc = f"{o1} {rel} {o2}"
            graph = build_graph([(1, o1), (2, o2)], [], [(1, rel, 2)])
        else:
            attr = rng.choice(grammar.attributes)
            o1, o2 = pick_two(grammar.objects)
            rel = rng.choice(grammar.relations)
            desc = f"{attr} {o1} {rel} the {o2}"
            graph = build_graph([(1, o1), (2, o2)], [(1, attr)], [(1, rel, 2)])
        regions.append(Region(image_id=i, region_id=i, description=desc, graph=graph))
    return regions


# json.dumps with options builds a new encoder per call; this one is shared
_RECORD_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def write_regions(regions: list[Region]) -> str:
    """Regions JSONL that `ingest` reads back: one compact record per line,
    keys sorted."""
    lines = []
    for r in regions:
        g = r.graph  # the encoder writes its attribute and relation tuples as arrays
        record = {"image_id": r.image_id, "region_id": r.region_id, "phrase": r.description,
                  "objects": [{"id": o.id, "label": o.label} for o in g.objects],
                  "attributes": g.attributes, "relationships": g.relations}
        lines.append(_RECORD_ENCODER.encode(record) + "\n")
    return "".join(lines)
