import pytest
from hypothesis import given
from hypothesis import strategies as st

from sgforge.errors import DanglingReferenceError, EmptyLabelError
from sgforge.graph import (
    SceneGraph,
    build_graph,
    canonicalize_label,
    extract_tuples,
    graph_from_dict,
    graph_to_dict,
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
    assert extract_tuples(g).ternary == {("cat", "licks", "cat")}


def test_extract_tuples_fig1():
    ts = extract_tuples(fig1_graph())
    assert ts.unary == {("cat",), ("mouth",)}
    assert ("cat", "brown") in ts.binary
    assert ("mouth", "on", "cat") in ts.ternary
    assert len(ts) == 8


def test_extract_tuples_label_collapse():
    # two brown cats collapse to one unary and one binary tuple
    g = build_graph([(1, "cat"), (2, "cat")], [(1, "brown"), (2, "brown")], [])
    ts = extract_tuples(g)
    assert ts.unary == {("cat",)}
    assert ts.binary == {("cat", "brown")}


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
    ts = extract_tuples(g)
    assert len(ts.unary) <= len(g.objects)
    assert len(ts.binary) <= len(g.attributes)
    assert len(ts.ternary) <= len(g.relations)


@given(graphs())
def test_rebuild_identity(g):
    rebuilt = build_graph([(o.id, o.label) for o in g.objects], g.attributes, g.relations)
    assert rebuilt == g


@given(graphs())
def test_json_roundtrip(g):
    assert graph_from_dict(graph_to_dict(g)) == g
