import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.data import Region, ingest, write_regions
from sgforge.errors import DanglingReferenceError, EmptyLabelError
from sgforge.graph import (
    ObjectInstance,
    SceneGraph,
    build_graph,
    canonicalize_label,
    extract_tuples,
)


def test_canonicalize_basic():
    assert canonicalize_label("Brown ") == "brown"
    assert canonicalize_label("in  Front of") == "in front of"


def test_canonicalize_empty_raises():
    with pytest.raises(EmptyLabelError):
        canonicalize_label("   ")


@given(st.text())
def test_canonicalize_idempotent(raw):
    try:
        once = canonicalize_label(raw)
    except EmptyLabelError:
        return
    assert canonicalize_label(once) == once


def fig1_graph() -> SceneGraph:
    # cat with three attributes, mouth with one, two relations between them
    return build_graph(
        [(1, "cat"), (2, "mouth")],
        [(1, "brown"), (1, "black"), (1, "white"), (2, "open")],
        [(1, "has", 2), (2, "on", 1)],
    )


def test_build_graph_counts():
    g = fig1_graph()
    assert len(g.objects) == 2
    assert len(g.attributes) == 4
    assert len(g.relations) == 2


def test_build_graph_empty_is_valid():
    g = build_graph([], [], [])
    assert g == SceneGraph()
    assert len(extract_tuples(g)) == 0


def test_build_graph_dangling_reference():
    with pytest.raises(DanglingReferenceError):
        build_graph([(1, "cat")], [], [(1, "chases", 99)])
    with pytest.raises(DanglingReferenceError):
        build_graph([(1, "cat")], [(2, "brown")], [])


def test_build_graph_dedupes():
    g = build_graph([(1, "cat")], [(1, "brown"), (1, "brown")], [])
    assert g.attributes == ((1, "brown"),)


def test_duplicate_object_ids_rejected():
    with pytest.raises(ValueError):
        build_graph([(1, "cat"), (1, "dog")])


def test_self_relation_kept_and_flagged():
    g = build_graph([(1, "cat")], [], [(1, "licks", 1)])
    assert g.relations == ((1, "licks", 1),)
    assert extract_tuples(g) == {("cat",), ("cat", "licks", "cat")}


def test_extract_tuples_fig1():
    ts = extract_tuples(fig1_graph())
    assert {t for t in ts if len(t) == 1} == {("cat",), ("mouth",)}
    assert ("cat", "brown") in ts
    assert ("mouth", "on", "cat") in ts
    assert len(ts) == 8


def test_extract_tuples_label_collapse():
    # two brown cats collapse to one unary and one binary tuple
    g = build_graph([(1, "cat"), (2, "cat")], [(1, "brown"), (2, "brown")], [])
    assert extract_tuples(g) == {("cat",), ("cat", "brown")}


labels = st.sampled_from(["cat", "dog", "bus", "mat", "red", "blue", "on", "under"])


@st.composite
def graphs(draw):
    n = draw(st.integers(0, 5))
    objs = [(i + 1, draw(labels)) for i in range(n)]
    attrs = []
    rels = []
    if n:
        ids = [o[0] for o in objs]
        for _ in range(draw(st.integers(0, 5))):
            attrs.append((draw(st.sampled_from(ids)), draw(labels)))
        for _ in range(draw(st.integers(0, 5))):
            rels.append(
                (draw(st.sampled_from(ids)), draw(labels), draw(st.sampled_from(ids)))
            )
    return build_graph(objs, attrs, rels)


@given(graphs())
def test_tuple_cardinality_bounds(g):
    lengths = [len(t) for t in extract_tuples(g)]
    assert lengths.count(1) <= len(g.objects)
    assert lengths.count(2) <= len(g.attributes)
    assert lengths.count(3) <= len(g.relations)


@given(graphs())
def test_rebuild_identity(g):
    rebuilt = build_graph([(o.id, o.label) for o in g.objects], g.attributes, g.relations)
    assert rebuilt == g


@given(graphs())
def test_json_roundtrip(g):
    region = Region(3, 7, "a region", g)
    text = write_regions([region])
    assert ingest(text) == ([region], [])
    record = json.loads(text)
    record["relations"] = record.pop("relationships")
    assert ingest(json.dumps(record)) == ([region], [])


def reference_build_graph(objects, attributes=(), relations=()) -> SceneGraph:
    """The list-plus-seen-set build_graph that the dict-keyed one replaced,
    kept verbatim as the reference."""
    objs: list[ObjectInstance] = []
    ids: set[int] = set()
    for oid, label in objects:
        if oid in ids:
            raise ValueError(f"duplicate object id {oid}")
        ids.add(oid)
        objs.append(ObjectInstance(oid, canonicalize_label(label)))

    attrs: list[tuple[int, str]] = []
    seen_attrs: set[tuple[int, str]] = set()
    for oid, label in attributes:
        if oid not in ids:
            raise DanglingReferenceError(f"attribute references unknown object id {oid}")
        pair = (oid, canonicalize_label(label))
        if pair not in seen_attrs:
            seen_attrs.add(pair)
            attrs.append(pair)

    rels: list[tuple[int, str, int]] = []
    seen_rels: set[tuple[int, str, int]] = set()
    for sid, label, oid in relations:
        if sid not in ids:
            raise DanglingReferenceError(f"relation references unknown subject id {sid}")
        if oid not in ids:
            raise DanglingReferenceError(f"relation references unknown object id {oid}")
        triple = (sid, canonicalize_label(label), oid)
        if triple not in seen_rels:
            seen_rels.add(triple)
            rels.append(triple)

    return SceneGraph(tuple(objs), tuple(attrs), tuple(rels))


raw_labels = st.sampled_from(["cat", "Cat", " cat ", "red  bus", "on", "In Front of"])


@st.composite
def raw_graphs(draw):
    """Unnormalized labels and repeated pairs and triples, then up to three
    faults at drawn places: a repeated object id, a blank label, or a
    reference to id 9, which no object has."""
    objects = draw(st.lists(st.tuples(st.integers(0, 4), raw_labels), max_size=4,
                            unique_by=lambda o: o[0]))
    attributes, relations = [], []
    if objects:
        ids = st.sampled_from([oid for oid, _ in objects])
        attributes = draw(st.lists(st.tuples(ids, raw_labels), max_size=6))
        relations = draw(st.lists(st.tuples(ids, raw_labels, ids), max_size=6))
    for fault in draw(st.lists(st.sampled_from(["id", "label", "reference"]), max_size=3)):
        items = draw(st.sampled_from([objects, attributes, relations]))
        at = draw(st.integers(0, len(items)))
        if fault == "id" and objects:
            objects.insert(draw(st.integers(0, len(objects))),
                           (draw(st.sampled_from(objects))[0], draw(raw_labels)))
        elif fault == "label" and at < len(items):
            items[at] = (*items[at][:1], "  ", *items[at][2:])
        elif fault == "reference" and items is not objects:
            oid = draw(st.sampled_from(objects))[0] if objects else 9
            label = draw(raw_labels)
            items.insert(at, (9, label) if items is attributes
                         else draw(st.sampled_from([(9, label, oid), (oid, label, 9)])))
    return objects, attributes, relations


def _outcome(build, objects, attributes, relations):
    try:
        return build(objects, attributes, relations)
    except Exception as e:  # noqa: BLE001 -- the error itself is compared
        return type(e), str(e)


@settings(max_examples=300, derandomize=True)
@given(raw_graphs())
def test_build_graph_equals_reference(graph):
    assert _outcome(build_graph, *graph) == _outcome(reference_build_graph, *graph)


def test_duplicate_object_id_reported_before_later_blank_label():
    with pytest.raises(ValueError, match="duplicate object id 1"):
        build_graph([(1, "cat"), (1, "dog"), (2, "  ")])
