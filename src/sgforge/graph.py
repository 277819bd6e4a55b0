"""Scene-graph data model: object instances, attribute pairs, relation triples.

A graph holds object instances (identity by id, never by label), a set of
(object_id, attribute) pairs, and a set of (subject_id, predicate, object_id)
triples. Tuple extraction flattens a graph to label-level tuples for scoring.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import DanglingReferenceError, EmptyLabelError


def canonical_words(text: str) -> list[str]:
    """Lowercase and split on whitespace. Never raises."""
    return text.lower().split()


@lru_cache(maxsize=4096)
def canonicalize_label(raw: str) -> str:
    """Normalize a label: lowercase, collapse whitespace runs, trim.

    Raises EmptyLabelError if nothing remains. Memoized: a corpus repeats a
    small set of labels.
    """
    words = canonical_words(raw)
    if not words:
        raise EmptyLabelError(f"label is empty after canonicalization: {raw!r}")
    return " ".join(words)


class ObjectInstance(NamedTuple):
    """One mention of an object. Two instances may share a label."""

    id: int
    label: str


@dataclass(frozen=True)
class SceneGraph:
    """Validated scene graph. Immutable; construct via build_graph()."""

    objects: tuple[ObjectInstance, ...] = ()
    attributes: tuple[tuple[int, str], ...] = ()
    relations: tuple[tuple[int, str, int], ...] = ()


def build_graph(
    objects: Iterable[tuple[int, str]],
    attributes: Iterable[tuple[int, str]] = (),
    relations: Iterable[tuple[int, str, int]] = (),
) -> SceneGraph:
    """Validate and assemble a SceneGraph.

    Labels are canonicalized. Duplicate attribute pairs and relation triples
    collapse (set semantics, first occurrence kept in order). Any attribute or
    relation referencing an unknown object id raises DanglingReferenceError.
    """
    objs: dict[int, ObjectInstance] = {}
    for oid, label in objects:
        if oid in objs:
            raise ValueError(f"duplicate object id {oid}")
        objs[oid] = ObjectInstance(oid, canonicalize_label(label))

    attrs: dict[tuple[int, str], None] = {}  # insertion-ordered set
    for oid, label in attributes:
        if oid not in objs:
            raise DanglingReferenceError(f"attribute references unknown object id {oid}")
        attrs[oid, canonicalize_label(label)] = None

    rels: dict[tuple[int, str, int], None] = {}
    for sid, label, oid in relations:
        if sid not in objs:
            raise DanglingReferenceError(f"relation references unknown subject id {sid}")
        if oid not in objs:
            raise DanglingReferenceError(f"relation references unknown object id {oid}")
        rels[sid, canonicalize_label(label), oid] = None

    return SceneGraph(tuple(objs.values()), tuple(attrs), tuple(rels))


@dataclass(frozen=True)
class TupleSet:
    """Label-level tuples of a graph: unary objects, binary attributes, ternary relations."""

    unary: frozenset[tuple[str]] = frozenset()
    binary: frozenset[tuple[str, str]] = frozenset()
    ternary: frozenset[tuple[str, str, str]] = frozenset()

    def __len__(self) -> int:
        return len(self.unary) + len(self.binary) + len(self.ternary)

    def ordered(self) -> list[tuple[str, ...]]:
        """Canonical iteration order: unary, binary, ternary, lexicographic within each."""
        out: list[tuple[str, ...]] = []
        out.extend(sorted(self.unary))
        out.extend(sorted(self.binary))
        out.extend(sorted(self.ternary))
        return out


def extract_tuples(g: SceneGraph) -> TupleSet:
    """Flatten a graph to its label tuples. Duplicate labels collapse."""
    labels = {o.id: o.label for o in g.objects}
    unary = frozenset((o.label,) for o in g.objects)
    binary = frozenset((labels[oid], attr) for oid, attr in g.attributes)
    ternary = frozenset((labels[sid], pred, labels[oid]) for sid, pred, oid in g.relations)
    return TupleSet(unary, binary, ternary)


def graph_to_dict(g: SceneGraph) -> dict:
    """Graph JSON schema: objects/attributes/relations with integer ids."""
    return {
        "objects": [{"id": o.id, "label": o.label} for o in g.objects],
        "attributes": [[oid, label] for oid, label in g.attributes],
        "relations": [[sid, label, oid] for sid, label, oid in g.relations],
    }


def json_int(value, field: str) -> int:
    """value, if it is a JSON integer; a bool, float or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{field} must be an integer, got {json.dumps(value)}")
    return value


def _uint(value, field: str) -> int:
    if type(value) is not int or value < 0:
        json_int(value, field)  # a TypeError for a non-integer
        raise ValueError(f"object ids must be non-negative, got {value}")
    return value


def _label(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"labels must be strings, got {value!r}")
    return value


def graph_from_dict(record: dict) -> SceneGraph:
    """Inverse of graph_to_dict. Accepts 'relations' or the VG-style 'relationships' key."""
    rels = record.get("relations", record.get("relationships", []))
    return build_graph(
        [(_uint(o["id"], "object id"), _label(o["label"])) for o in record.get("objects", [])],
        [(_uint(oid, "attribute object id"), _label(label))
         for oid, label in record.get("attributes", [])],
        [(_uint(sid, "relation subject id"), _label(label), _uint(oid, "relation object id"))
         for sid, label, oid in rels],
    )

