"""Tests of the benchmark's own parts: span arithmetic, tracer patching and
the seeded corpora. Run with `python3 -m pytest bench/tests`."""

import json
import re
import sys
from pathlib import Path

import pytest

import corpora
import run
from spans import Tracer, covered, summarize

ROOT = Path(__file__).resolve().parents[2]


def span(sid, name, start, end, parent=-1, stage="s"):
    return (sid, name, start, end, parent, stage)


def test_covered_merges_overlaps_and_clips():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == pytest.approx(5.0)
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert covered([(4.0, 4.0), (6.0, 5.0)], 0.0, 10.0) == 0.0


def test_self_time_is_duration_minus_child_cover():
    spans = [
        span(0, "cli.train", 0.0, 10.0),
        span(1, "train.train", 1.0, 9.0, parent=0),
        span(2, "model.loss_and_grads", 2.0, 5.0, parent=1),
        span(3, "model.gelu", 2.5, 3.0, parent=2),
        span(4, "model.loss_and_grads", 5.0, 6.0, parent=1),
        span(5, "train.adam_step", 6.5, 7.0, parent=1),
    ]
    m = summarize(spans)
    assert m["cli.train.self_s"] == pytest.approx(2.0)
    assert m["train.train.busy_s"] == pytest.approx(8.0)
    assert m["train.train.self_s"] == pytest.approx(8.0 - 3.0 - 1.0 - 0.5)
    assert m["model.loss_and_grads.calls"] == 2
    assert m["model.loss_and_grads.busy_s"] == pytest.approx(4.0)
    assert m["model.loss_and_grads.self_s"] == pytest.approx(3.5)
    assert "model.gelu.self_s" not in m  # no children, so no self time
    assert m["model.gelu.busy_s"] == pytest.approx(0.5)


def test_recursive_span_counts_busy_time_once():
    spans = [span(0, "f", 0.0, 4.0), span(1, "f", 1.0, 3.0, parent=0)]
    m = summarize(spans)
    assert m["f.calls"] == 2
    assert m["f.busy_s"] == pytest.approx(4.0)
    assert m["f.self_s"] == pytest.approx(2.0 + 2.0)


def test_tracer_patches_every_binding_and_restores_them():
    from sgforge import data, graph, tags

    original = graph.build_graph
    tracer = Tracer()
    tracer.install([("sgforge.graph", "build_graph", "graph.build_graph", None),
                    ("sgforge.data", "ingest", "data.ingest", run._count_ingest)])
    try:
        assert data.build_graph is not original and tags.build_graph is not original
        regions, errors = data.ingest(
            json.dumps({"image_id": 1, "region_id": 1, "phrase": "red bus",
                        "objects": [{"id": 1, "label": "bus"}], "attributes": [[1, "red"]]})
        )
    finally:
        tracer.uninstall()
    assert graph.build_graph is original and data.build_graph is original
    assert tags.build_graph is original
    spans, counts = tracer.take()
    assert [s[1] for s in spans] == ["data.ingest", "graph.build_graph"]
    assert spans[1][4] == spans[0][0]  # build_graph's parent is ingest
    assert counts == {"data.records": 1, "data.errors": 0}


def test_tracer_wraps_methods_and_classmethods():
    from sgforge.tokenizer import Tokenizer

    tracer = Tracer()
    tracer.install([
        ("sgforge.tokenizer", "Tokenizer.encode", "tokenizer.encode", run._count_encode),
        ("sgforge.tokenizer", "Tokenizer.from_corpus", "tokenizer.from_corpus", None),
    ])
    try:
        tok = Tokenizer.from_corpus(["red bus", "blue car"], mode="bpe")
        seq = tok.encode("red bus")
    finally:
        tracer.uninstall()
    assert isinstance(Tokenizer.__dict__["from_corpus"], classmethod)
    assert "__wrapped__" not in vars(Tokenizer.__dict__["encode"])
    spans, counts = tracer.take()
    assert [s[1] for s in spans] == ["tokenizer.from_corpus", "tokenizer.encode"]
    assert counts["tokenizer.tokens"] == len(seq.ids) - 1


LONG = run.WORKLOADS["long"]


def long_records(seed):
    return corpora.long_corpus(seed, LONG.n_regions, LONG.n_train)


@pytest.mark.parametrize("make", [
    long_records,
    lambda seed: corpora.score_corpus(seed, 80)[0],
])
def test_generators_are_deterministic_under_a_seed(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_regions_ingest_without_errors(seed):
    from sgforge.data import ingest

    for records in (long_records(seed), corpora.score_corpus(seed, 300)[0]):
        regions, errors = ingest([json.dumps(r) for r in records])
        assert errors == []
        assert [r.region_id for r in regions] == list(range(len(records)))


@pytest.mark.parametrize("seed", range(6))
def test_long_never_exceeds_max_len(seed):
    from sgforge.tokenizer import Tokenizer

    max_len = LONG.model_config["max_len"]
    records = long_records(seed)
    assert all(sum(len(w) for w in r["phrase"].split()) <= corpora.LONG_MAX_LETTERS
               for r in records)
    assert corpora.LONG_MAX_LETTERS <= max_len
    tok = Tokenizer.from_corpus([r["phrase"] for r in records[: LONG.n_train]], mode="bpe")
    assert max(len(tok.encode(r["phrase"])) - 1 for r in records) <= max_len


def test_dev_only_words_stay_out_of_training_regions():
    records = long_records(3)
    dev_only = set(corpora.DEV_ONLY_OBJECTS) | set(corpora.DEV_ONLY_ATTRIBUTES)
    train_words = {w for r in records[: LONG.n_train] for w in r["phrase"].split()}
    dev_words = {w for r in records[LONG.n_train :] for w in r["phrase"].split()}
    assert not train_words & dev_only
    assert dev_words & dev_only


def test_score_corpus_uses_synonyms_and_up_to_six_objects():
    records, lexicon, counts = corpora.score_corpus(0, 500)
    synonyms = {s for syns in lexicon.values() for s in syns}
    assert 0 < counts["synonym"] < counts["surface"]
    assert any(s in r["phrase"].split() for r in records for s in synonyms)
    assert max(len(r["objects"]) for r in records) == 6


def test_declared_metrics_are_documented_and_well_formed():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    doc = (ROOT / "bench" / "README.md").read_text()
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
    assert len(declared["per_layer"]) <= 128
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
        assert f"`{name}`" in doc, f"{name} is not described in bench/README.md"
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
