import json

import pytest

from sgforge.align import align
from sgforge.data import (
    Region,
    SplitSpec,
    SyntheticGrammar,
    generate_synthetic,
    ingest,
    region_from_dict,
    split,
    write_regions,
)
from sgforge.graph import build_graph, extract_tuples
from sgforge.tags import decode_tags_to_graph


def record(**kw):
    base = {
        "image_id": 1,
        "region_id": 10,
        "phrase": "blue and red bus",
        "objects": [{"id": 1, "label": "bus"}],
        "attributes": [[1, "blue"], [1, "red"]],
        "relationships": [],
    }
    base.update(kw)
    return base


def test_ingest_valid_record():
    regions, errors = ingest(json.dumps(record()))
    assert errors == []
    assert len(regions) == 1
    r = regions[0]
    assert r.description == "blue and red bus"
    assert len(r.graph.attributes) == 2


def test_ingest_empty_phrase_rejected():
    regions, errors = ingest(json.dumps(record(phrase="  ")))
    assert regions == []
    assert errors == [(1, "EmptyDescription")]


def test_ingest_dangling_reference_rejected():
    bad = record(relationships=[[1, "on", 99]])
    regions, errors = ingest(json.dumps(bad))
    assert regions == []
    assert len(errors) == 1
    assert errors[0][0] == 1
    assert "DanglingReference" in errors[0][1]


def test_ingest_collects_errors_without_aborting():
    lines = [json.dumps(record()), "not json", json.dumps(record(region_id=11))]
    regions, errors = ingest("\n".join(lines))
    assert len(regions) == 2
    assert len(errors) == 1
    assert errors[0][0] == 2


TWO_OBJECTS = [{"id": 1, "label": "bus"}, {"id": 2, "label": "cat"}]


@pytest.mark.parametrize("line, reason", [
    ("[1]", None),
    (json.dumps(record(phrase=7)), None),
    (json.dumps(record(objects=[{"id": 1, "label": 5}])), None),
    (json.dumps(record(attributes=[[1, 5]])), None),
    (json.dumps(record(objects=TWO_OBJECTS, relationships=[[1, None, 2]])), None),
    (json.dumps(record(image_id=1e400)), "image_id must be an integer, got Infinity"),
    ("[" * 100000 + "]" * 100000, None),
    (json.dumps(record(objects=[{"id": 1.7, "label": "bus"}])),
     "object id must be an integer, got 1.7"),
    (json.dumps(record(region_id=True)), "region_id must be an integer, got true"),
    (json.dumps(record(objects=[{"id": "3", "label": "bus"}])),
     'object id must be an integer, got "3"'),
    (json.dumps(record(image_id=3.9)), "image_id must be an integer, got 3.9"),
    (json.dumps(record(attributes=[[1.0, "red"]])),
     "attribute object id must be an integer, got 1.0"),
    (json.dumps(record(objects=TWO_OBJECTS, relationships=[[False, "on", 2]])),
     "relation subject id must be an integer, got false"),
    (json.dumps(record(objects=TWO_OBJECTS, relationships=[[1, "on", [2]]])),
     "relation object id must be an integer, got [2]"),
    (json.dumps(record(objects=[{"id": -1, "label": "bus"}], attributes=[])),
     "object ids must be non-negative, got -1"),
], ids=["list", "phrase", "object_label", "attribute_label", "relation_label", "huge_id",
        "deep_nesting", "float_object_id", "bool_region_id", "string_object_id",
        "float_image_id", "float_attribute_id", "bool_relation_id", "list_relation_id",
        "negative_object_id"])
def test_ingest_wrongly_typed_record_is_malformed(line, reason):
    lines = [json.dumps(record()), line, json.dumps(record(region_id=11))]
    regions, errors = ingest("\n".join(lines))
    assert [r.region_id for r in regions] == [10, 11]
    assert len(errors) == 1
    assert errors[0][0] == 2 and errors[0][1].startswith("Malformed: ")
    if reason is not None:
        assert errors[0][1] == f"Malformed: {reason}"


def test_ingest_reserialization_is_byte_exact():
    line = write_regions([
        Region(1, 10, "blue and red bus",
               build_graph([(1, "bus")], [(1, "blue"), (1, "red")]))
    ])
    regions, errors = ingest(line)
    assert errors == []
    assert write_regions(regions) == line


def test_split_partitions_by_image_id():
    regions = [
        Region(1, 1, "a cat", build_graph([])),
        Region(2, 2, "a dog", build_graph([])),
        Region(3, 3, "a bus", build_graph([])),
    ]
    train, eval_ = split(regions, SplitSpec(frozenset({1}), frozenset({2})))
    assert train == [0]
    assert eval_ == [1]
    # region with image 3 left out
    assert len(train) + len(eval_) == 2


def test_split_empty_spec_drops_everything():
    regions = [Region(1, 1, "a cat", build_graph([]))]
    train, eval_ = split(regions, SplitSpec(frozenset(), frozenset()))
    assert train == [] and eval_ == []


def test_split_spec_disjointness():
    with pytest.raises(ValueError):
        SplitSpec(frozenset({1}), frozenset({1}))


def test_split_same_image_stays_together():
    regions = [
        Region(7, 1, "a cat", build_graph([])),
        Region(7, 2, "a dog", build_graph([])),
    ]
    train, eval_ = split(regions, SplitSpec(frozenset({7}), frozenset()))
    assert train == [0, 1] and eval_ == []


def test_generate_deterministic():
    g = SyntheticGrammar()
    a = generate_synthetic(g, 50, seed=4)
    b = generate_synthetic(g, 50, seed=4)
    assert a == b
    c = generate_synthetic(g, 50, seed=5)
    assert a != c


def test_generate_zero():
    assert generate_synthetic(SyntheticGrammar(), 0) == []


def test_generated_regions_align_perfectly():
    regions = generate_synthetic(SyntheticGrammar(), 200, seed=17)
    for r in regions:
        result = align(r.description, r.graph)
        assert result.coverage == 1.0, r
        decoded = decode_tags_to_graph(result.tagged)
        assert decoded.dropped_arcs == ()
        assert extract_tuples(decoded.graph) == extract_tuples(r.graph), r


def test_generated_regions_roundtrip_jsonl():
    regions = generate_synthetic(SyntheticGrammar(), 20, seed=3)
    text = write_regions(regions)
    back, errors = ingest(text)
    assert errors == []
    assert back == regions


def test_grammar_rejects_stopwords():
    with pytest.raises(ValueError):
        SyntheticGrammar(object_vocab=("cat", "the"))


def test_grammar_from_json():
    g = SyntheticGrammar.from_json(
        json.dumps({"objects": ["cat"], "attributes": ["red"],
                    "relations": ["on"], "seed": 9})
    )
    assert g.object_vocab == ("cat",)
    assert g.seed == 9
    regions = generate_synthetic(g, 5)
    assert all("cat" in r.description for r in regions)
