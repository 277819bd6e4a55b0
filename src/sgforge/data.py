"""Region datasets: JSONL ingestion, image-id splits, and a synthetic corpus.

The one codec of region records and split specs, and of the JSON value rules
that the configs and the CLI share.

The synthetic generator exists so the whole pipeline can be exercised at desk
scale: every generated region aligns to its graph with coverage 1.0, so the
oracle upper bound is exactly 1.0 and any score gap is model error.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

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


def _entries(record: dict, key: str, size: int) -> list:
    """record[key] or []: a list of JSON objects, or of lists of `size` items if size > 0."""
    items = record.get(key, [])
    kind, what = (list, f"lists of {size} elements") if size else (dict, "JSON objects")
    if type(items) is not list:
        raise TypeError(f"{key} must be a list of {what}, got {json.dumps(items)}")
    for item in items:
        if type(item) is not kind or (size and len(item) != size):
            raise TypeError(f"{key} must be a list of {what}, got {json.dumps(item)} in it")
    return items


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
    relations = "relations" if "relations" in record else "relationships"
    graph = build_graph(
        [(_uint(o["id"], "object id"), _label(o["label"])) for o in _entries(record, "objects", 0)],
        [(_uint(oid, "attribute object id"), _label(label))
         for oid, label in _entries(record, "attributes", 2)],
        [(_uint(sid, "relation subject id"), _label(label), _uint(oid, "relation object id"))
         for sid, label, oid in _entries(record, relations, 3)],
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


OBJECTS = ("bus", "cat", "dog", "man", "woman", "car", "tree", "house", "bird", "horse",
           "table", "kite")
ATTRIBUTES = ("blue", "red", "green", "tall", "small", "old", "shiny", "dark", "round",
              "striped")
# multi-word relations exercise SAME resolution end to end
RELATIONS = ("on", "under", "behind", "beside", "holds", "above", "in front of", "next to")


def generate_synthetic(n: int, seed: int) -> list[Region]:
    """Generate n regions whose descriptions and graphs match exactly.

    Equally likely patterns: "<attr> <obj>", "<attr> and <attr> <obj>",
    "<obj> <rel> <obj>", "<attr> <obj> <rel> the <obj>". Deterministic under the seed.
    """
    rng = random.Random(seed)
    regions: list[Region] = []
    patterns = [0, 1, 2, 3]
    for i in range(n):
        pattern = rng.choices(patterns)[0]  # not rng.choice, which draws another stream
        if pattern == 0:
            attr = rng.choice(ATTRIBUTES)
            obj = rng.choice(OBJECTS)
            desc = f"{attr} {obj}"
            graph = build_graph([(1, obj)], [(1, attr)])
        elif pattern == 1:
            a1, a2 = rng.sample(ATTRIBUTES, 2)
            obj = rng.choice(OBJECTS)
            desc = f"{a1} and {a2} {obj}"
            graph = build_graph([(1, obj)], [(1, a1), (1, a2)])
        elif pattern == 2:
            o1, o2 = rng.sample(OBJECTS, 2)
            rel = rng.choice(RELATIONS)
            desc = f"{o1} {rel} {o2}"
            graph = build_graph([(1, o1), (2, o2)], [], [(1, rel, 2)])
        else:
            attr = rng.choice(ATTRIBUTES)
            o1, o2 = rng.sample(OBJECTS, 2)
            rel = rng.choice(RELATIONS)
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
