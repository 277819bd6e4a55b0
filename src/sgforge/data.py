"""Region datasets: JSONL ingestion, image-id splits, and a synthetic corpus.

The one codec of region records and split specs, and of the JSON value rules
that every file the CLI reads is checked by: `json_object`, `json_list`,
`json_int`, `json_str` and, for the two configs, `check_field_types`.

The synthetic generator exists so the whole pipeline can be exercised at desk
scale: every generated region aligns to its graph with coverage 1.0, so the
oracle upper bound is exactly 1.0 and any score gap is model error.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, fields

from .errors import DanglingReferenceError, EmptyLabelError, cut, cut_json
from .graph import SceneGraph, build_graph

_BLANK_PHRASE = "empty region description"


def json_int(value, field: str) -> int:
    """value, if it is a JSON integer; a bool, float or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {cut_json(value)}")
    return value


def json_str(value, field: str) -> str:
    """value, if it is a JSON string."""
    if type(value) is not str:
        raise TypeError(f"{field} must be a string, got {cut_json(value)}")
    return value


def json_object(value, kind: str, keys=None, required=()) -> dict:
    """value, if it is a JSON object that holds every key in `required` and,
    unless `keys` is None, no key outside `keys`."""
    if type(value) is not dict:
        raise TypeError(f"{kind} must be a JSON object, got {cut_json(value)}")
    if keys is not None and value.keys() - keys:
        raise ValueError(f"unknown {kind} keys: {cut(str(sorted(value.keys() - keys)))}")
    missing = [k for k in required if k not in value]
    if missing:
        raise ValueError(f"{kind} lacks {missing}")
    return value


def json_list(value, field: str, kind: type, size: int = 0) -> list:
    """value, if it is a JSON list of `kind` items (dict, list, str or int;
    a bool is no int), each a list of `size` items if size > 0."""
    if type(value) is list:
        for item in value:
            if type(item) is not kind or (size and len(item) != size):
                break
        else:
            return value
        got = f"{cut_json(item)} in it"
    else:
        got = cut_json(value)
    what = f"lists of {size} elements" if size else {
        dict: "JSON objects", list: "lists", str: "strings", int: "integers"}[kind]
    raise TypeError(f"{field} must be a list of {what}, got {got}")


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
            raise TypeError(f"{f.name} must be {what}, got {cut_json(value)}")


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
        d = json_object(json.loads(text), "split spec", keys, keys)
        return cls(*(frozenset(json_list(d[key], key, int)) for key in keys))


def _uint(value, field: str) -> int:
    if type(value) is not int or value < 0:
        json_int(value, field)  # a TypeError for a non-integer
        raise ValueError(f"object ids must be non-negative, got {cut(str(value))}")
    return value


def region_from_dict(record: dict) -> Region:
    """A region record as `write_regions` writes it, or with `relations`."""
    json_object(record, "region record")
    if "relations" in record and "relationships" in record:
        raise ValueError("a region record may hold relations or relationships, not both")
    phrase = json_str(record.get("phrase", ""), "phrase")
    if not phrase.strip():
        raise EmptyLabelError(_BLANK_PHRASE)
    relations = "relations" if "relations" in record else "relationships"
    graph = build_graph(
        [(_uint(o["id"], "object id"), json_str(o["label"], "object label"))
         for o in json_list(record.get("objects", []), "objects", dict)],
        [(_uint(oid, "attribute object id"), json_str(label, "attribute label"))
         for oid, label in json_list(record.get("attributes", []), "attributes", list, 2)],
        [(_uint(sid, "relation subject id"), json_str(label, "relation label"),
          _uint(oid, "relation object id"))
         for sid, label, oid in json_list(record.get(relations, []), relations, list, 3)],
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
