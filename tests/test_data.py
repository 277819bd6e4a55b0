import json

import pytest

from sgforge.align import STOPWORDS, align
from sgforge.data import (
    ATTRIBUTES,
    OBJECTS,
    RELATIONS,
    Region,
    SplitSpec,
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
    # one spelling would silently win over the other
    (json.dumps(record(objects=TWO_OBJECTS, relations=[[1, "on", 2]])),
     "a region record may hold relations or relationships, not both"),
    (json.dumps({"image_id": 1, "region_id": 5, "phrase": "red bus", "objects": [{"id": 1}]}),
     "missing field 'label'"),
    (json.dumps({"image_id": 1, "phrase": "red bus"}), "missing field 'region_id'"),
    (json.dumps(record(objects="bus")), 'objects must be a list of JSON objects, got "bus"'),
    (json.dumps(record(objects=None)), "objects must be a list of JSON objects, got null"),
    (json.dumps(record(objects=[["bus"]])),
     'objects must be a list of JSON objects, got ["bus"] in it'),
    (json.dumps(record(attributes=[[1, "red", 3]])),
     'attributes must be a list of lists of 2 elements, got [1, "red", 3] in it'),
    (json.dumps(record(attributes=[{"1": "red"}])),
     'attributes must be a list of lists of 2 elements, got {"1": "red"} in it'),
    (json.dumps(record(attributes=["1r"])),
     'attributes must be a list of lists of 2 elements, got "1r" in it'),
    (json.dumps(record(objects=TWO_OBJECTS, relationships=[[1, "on"]])),
     'relationships must be a list of lists of 3 elements, got [1, "on"] in it'),
    (json.dumps(record(relationships=None)),
     "relationships must be a list of lists of 3 elements, got null"),
    (json.dumps({"image_id": 1, "region_id": 5, "phrase": "bus on cat", "objects": TWO_OBJECTS,
                 "relations": {"on": 2}}),
     'relations must be a list of lists of 3 elements, got {"on": 2}'),
    # phrases and labels are spelled as JSON, as ids are
    (json.dumps(record(phrase={"a": 1})), 'phrase must be a string, got {"a": 1}'),
    (json.dumps(record(phrase=None)), "phrase must be a string, got null"),
    (json.dumps(record(objects=[{"id": 1, "label": True}])),
     "object label must be a string, got true"),
    (json.dumps(record(attributes=[[1, None]])), "attribute label must be a string, got null"),
    (json.dumps(record(objects=TWO_OBJECTS, relationships=[[1, ["on"], 2]])),
     'relation label must be a string, got ["on"]'),
], ids=["list", "phrase", "object_label", "attribute_label", "relation_label", "huge_id",
        "deep_nesting", "float_object_id", "bool_region_id", "string_object_id",
        "float_image_id", "float_attribute_id", "bool_relation_id", "list_relation_id",
        "negative_object_id", "relations_and_relationships", "missing_label",
        "missing_region_id", "string_objects", "null_objects", "list_object",
        "attribute_triple", "attribute_object", "attribute_string", "relation_pair",
        "null_relationships", "object_relations", "object_phrase", "null_phrase",
        "bool_object_label", "null_attribute_label", "list_relation_label"])
def test_ingest_wrongly_typed_record_is_malformed(line, reason):
    lines = [json.dumps(record()), line, json.dumps(record(region_id=11))]
    regions, errors = ingest("\n".join(lines))
    assert [r.region_id for r in regions] == [10, 11]
    assert len(errors) == 1
    assert errors[0][0] == 2 and errors[0][1].startswith("Malformed: ")
    if reason is not None:
        assert errors[0][1] == f"Malformed: {reason}"


@pytest.mark.parametrize("separator", ["\u0085", "\u2028", "\u2029"])
def test_ingest_ends_lines_at_newline_only(separator):
    # JSON allows these raw inside a string, and ensure_ascii=False writes them so
    phrase = f"blue and{separator}red bus"
    lines = [json.dumps(record(phrase=phrase), ensure_ascii=False), "not json"]
    regions, errors = ingest("\n".join(lines))
    assert [r.description for r in regions] == [phrase]
    assert [line_no for line_no, _ in errors] == [2]


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
    a = generate_synthetic(50, seed=4)
    b = generate_synthetic(50, seed=4)
    assert a == b
    c = generate_synthetic(50, seed=5)
    assert a != c


def test_generate_zero():
    assert generate_synthetic(0, seed=0) == []


def test_generated_regions_align_perfectly():
    regions = generate_synthetic(200, seed=17)
    for r in regions:
        result = align(r.description, r.graph)
        assert result.coverage == 1.0, r
        decoded = decode_tags_to_graph(result.tagged)
        assert decoded.dropped_arcs == ()
        assert extract_tuples(decoded.graph) == extract_tuples(r.graph), r


def test_generated_regions_roundtrip_jsonl():
    regions = generate_synthetic(20, seed=3)
    text = write_regions(regions)
    back, errors = ingest(text)
    assert errors == []
    assert back == regions


@pytest.mark.parametrize("vocab", [OBJECTS, ATTRIBUTES, RELATIONS],
                         ids=["objects", "attributes", "relations"])
def test_builtin_vocabulary_gives_full_coverage(vocab):
    # two distinct words for the patterns that draw two; a stopword would go unaligned
    assert len(set(vocab)) >= 2 and all(w.strip() for w in vocab)
    assert not {word for entry in vocab for word in entry.split()} & STOPWORDS
