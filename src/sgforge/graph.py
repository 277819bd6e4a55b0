"""Scene-graph data model: object instances, attribute pairs, relation triples.

A graph holds object instances (identity by id, never by label), a set of
(object_id, attribute) pairs, and a set of (subject_id, predicate, object_id)
triples. Tuple extraction flattens a graph to label-level tuples for scoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, NamedTuple

from .errors import DanglingReferenceError, EmptyLabelError, cut


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
        raise EmptyLabelError(f"label is empty after canonicalization: {cut(repr(raw))}")
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
            raise ValueError(f"duplicate object id {cut(str(oid))}")
        objs[oid] = ObjectInstance(oid, canonicalize_label(label))

    attrs: dict[tuple[int, str], None] = {}  # insertion-ordered set
    for oid, label in attributes:
        if oid not in objs:
            raise DanglingReferenceError(f"attribute references unknown object id {cut(str(oid))}")
        attrs[oid, canonicalize_label(label)] = None

    rels: dict[tuple[int, str, int], None] = {}
    for sid, label, oid in relations:
        if sid not in objs:
            raise DanglingReferenceError(f"relation references unknown subject id {cut(str(sid))}")
        if oid not in objs:
            raise DanglingReferenceError(f"relation references unknown object id {cut(str(oid))}")
        rels[sid, canonicalize_label(label), oid] = None

    return SceneGraph(tuple(objs.values()), tuple(attrs), tuple(rels))


# A graph's label tuples: objects (label,), attributes (label, attribute) and
# relations (subject label, predicate, object label), told apart by length.
Tuples = frozenset[tuple[str, ...]]


def extract_tuples(g: SceneGraph) -> Tuples:
    """Flatten a graph to its one set of label tuples. Duplicate labels collapse."""
    labels = {o.id: o.label for o in g.objects}
    return frozenset([(o.label,) for o in g.objects]
                     + [(labels[oid], attr) for oid, attr in g.attributes]
                     + [(labels[sid], pred, labels[oid]) for sid, pred, oid in g.relations])
