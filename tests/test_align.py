import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.align import (
    EMPTY_LEXICON,
    AlignmentResult,
    Lexicon,
    align,
    useful_word_count,
)
from sgforge.graph import SceneGraph, build_graph, canonical_words, extract_tuples
from sgforge.tags import NodeType, TaggedSentence, TaggedToken, decode_tags_to_graph

T = NodeType


def rows(result):
    return [(t.form, t.node_type, t.parent) for t in result.tagged]


def test_align_attributes():
    g = build_graph([(1, "bus")], [(1, "blue"), (1, "red")])
    result = align("blue and red bus", g)
    assert rows(result) == [
        ("blue", T.ATTR, 4),
        ("and", T.NONE, 0),
        ("red", T.ATTR, 4),
        ("bus", T.SUBJ, 0),
    ]
    assert result.coverage == 1.0
    assert result.unaligned_nodes == ()


def test_align_empty_graph_full_coverage():
    result = align("cat", build_graph([]))
    assert rows(result) == [("cat", T.NONE, 0)]
    assert result.coverage == 1.0


def test_align_synonym():
    lex = Lexicon.from_pairs({"cat": ["feline"]})
    result = align("a feline", build_graph([(1, "cat")]), lex)
    assert rows(result) == [("a", T.NONE, 0), ("feline", T.SUBJ, 0)]
    assert result.coverage == 1.0
    # decoded label is the matched surface form; the lexicon maps it back
    decoded = decode_tags_to_graph(result.tagged).graph
    assert decoded.objects[0].label == "feline"
    assert lex.match(decoded.objects[0].label, "cat")


def test_align_relation_and_multiword_predicate():
    g = build_graph([(1, "man"), (2, "car")], [], [(1, "in front of", 2)])
    result = align("man in front of car", g)
    assert rows(result) == [
        ("man", T.SUBJ, 0),
        ("in", T.SAME, 4),
        ("front", T.SAME, 4),
        ("of", T.PRED, 1),
        ("car", T.OBJT, 4),
    ]
    decoded = decode_tags_to_graph(result.tagged).graph
    assert extract_tuples(decoded) == extract_tuples(g)


def test_align_longest_label_first():
    # "front" alone is also an object label; the 3-word predicate must win
    g = build_graph([(1, "man"), (2, "front")], [], [(1, "in front of", 2)])
    result = align("man in front of front", g)
    decoded = decode_tags_to_graph(result.tagged).graph
    assert extract_tuples(decoded) == extract_tuples(g)


def test_align_unaligned_fragments_reported():
    g = build_graph([(1, "bus"), (2, "cat")], [(1, "blue")], [(1, "near", 2)])
    result = align("blue bus", g)
    assert ("object", 2, "cat") in result.unaligned_nodes
    assert ("relation", 1, "near", 2) in result.unaligned_nodes
    # 2 of 4 nodes aligned (bus and blue; cat and the predicate are not)
    assert result.coverage == 2 / 4
    decoded = decode_tags_to_graph(result.tagged).graph
    src_tuples = extract_tuples(build_graph([(1, "bus")], [(1, "blue")]))
    assert extract_tuples(decoded) == src_tuples


def test_align_duplicate_labels_use_distinct_spans():
    g = build_graph([(1, "cat"), (2, "cat")], [], [(1, "on", 2)])
    result = align("cat on cat", g)
    assert rows(result) == [
        ("cat", T.SUBJ, 0),
        ("on", T.PRED, 1),
        ("cat", T.OBJT, 2),
    ]
    decoded = decode_tags_to_graph(result.tagged).graph
    assert extract_tuples(decoded) == extract_tuples(g)


def test_align_dual_role_node_stays_subj():
    # b is object of one relation and subject of another; it keeps SUBJ and
    # the relation needing it as OBJT is excluded
    g = build_graph(
        [(1, "a"), (2, "b"), (3, "c")], [], [(1, "on", 2), (2, "under", 3)]
    )
    result = align("a on b under c", g)
    types = {t.form: t.node_type for t in result.tagged}
    assert types["b"] is T.SUBJ
    assert ("relation", 1, "on", 2) in result.unaligned_nodes
    decoded = decode_tags_to_graph(result.tagged).graph
    assert ("b", "under", "c") in extract_tuples(decoded)


def test_align_never_consumes_token_twice():
    g = build_graph([(1, "cat")], [(1, "cat")])  # attribute label equals object label
    result = align("cat cat", g)
    spans = [t for t in result.tagged if t.node_type is not T.NONE]
    assert len(spans) == 2
    assert result.coverage == 1.0


def test_align_deterministic():
    g = build_graph([(1, "bus")], [(1, "blue"), (1, "red")])
    a = align("blue and red bus", g)
    b = align("blue and red bus", g)
    assert a == b


def test_useful_word_count():
    assert useful_word_count("blue and red bus") == 3
    assert useful_word_count("a the and an") == 0
    assert useful_word_count("cat") == 1
    assert useful_word_count("") == 0


def test_lexicon_symmetric_closure():
    lex = Lexicon.from_pairs({"cat": ["feline"]})
    assert lex.match("feline", "cat")
    assert lex.match("cat", "feline")
    assert lex.match("cat", "cat")
    assert not lex.match("cat", "dog")
    assert lex.synonyms("dog") == {"dog"}


def test_lexicon_candidates_longest_first_then_lexicographic():
    lex = Lexicon.from_pairs({"cat": ["small cat", "feline", "a b c"]})
    expected = (("a", "b", "c"), ("small", "cat"), ("cat",), ("feline",))
    assert lex.candidates("cat") == expected
    assert lex.candidates("cat") is lex.candidates("cat")  # computed once
    assert lex.candidates("dog") == (("dog",),)
    assert lex == Lexicon.from_pairs({"cat": ["small cat", "feline", "a b c"]})


# Reference aligner: an index sort, explicit loops, a twice-run "all three
# spans matched" test, and a span search that tries every start for every
# candidate, re-sorting the candidates at every node. align must return an
# equal result for every input.
def _find_span(
    words: list[str], consumed: list[bool], candidates: list[list[str]]
) -> tuple[int, int] | None:
    """Earliest unconsumed span matching any candidate; longer candidates first per start."""
    for start in range(len(words)):
        for cand in candidates:
            end = start + len(cand)
            if end > len(words):
                continue
            if words[start:end] == cand and not any(consumed[start:end]):
                return start, end
    return None


def align_reference(description: str, g: SceneGraph, lex: Lexicon = EMPTY_LEXICON) -> AlignmentResult:
    """Align a ground-truth graph to its description, producing tagging targets.

    Span matching is greedy: nodes sorted by label word count (longest first,
    ties by graph insertion order), each taking the earliest unconsumed span
    equal to its label or a lexicon synonym. Span heads (last token) carry the
    node type; earlier span tokens are SAME pointing at the head. Fragments
    that cannot be fully encoded are excluded and reported.
    """
    words = canonical_words(description)
    t_count = len(words)
    consumed = [False] * t_count

    # node list in insertion order: objects, then attributes, then relation predicates
    nodes: list[tuple] = []
    for o in g.objects:
        nodes.append(("object", o.id, o.label))
    for k, (oid, label) in enumerate(g.attributes):
        nodes.append(("attribute", k, label))
    for k, (sid, label, oid) in enumerate(g.relations):
        nodes.append(("predicate", k, label))

    order = sorted(
        range(len(nodes)), key=lambda i: (-len(nodes[i][2].split()), i)
    )
    spans: dict[tuple[str, int], tuple[int, int]] = {}  # node key -> (start, end)
    for i in order:
        kind, key, label = nodes[i]
        candidates = sorted(
            (syn.split() for syn in lex.synonyms(label)),
            key=lambda ws: (-len(ws), ws),
        )
        found = _find_span(words, consumed, candidates)
        if found is None:
            continue
        start, end = found
        for p in range(start, end):
            consumed[p] = True
        spans[(kind, key)] = (start, end)

    def head_of(kind: str, key: int) -> int | None:
        span = spans.get((kind, key))
        return None if span is None else span[1]  # 1-based head = end index

    # A relation is encodable when all three spans matched and its object
    # endpoint is free: the endpoint must never be a relation subject (dual
    # role keeps SUBJ) and can carry only one incoming OBJT arc.
    subject_ids = set()
    for k, (sid, label, oid) in enumerate(g.relations):
        if (
            ("object", sid) in spans
            and ("object", oid) in spans
            and ("predicate", k) in spans
        ):
            subject_ids.add(sid)

    aligned_relations: dict[int, tuple[int, str, int]] = {}
    objt_parent: dict[int, int] = {}  # object id -> relation index claiming it
    unaligned: list[tuple] = []
    for k, (sid, label, oid) in enumerate(g.relations):
        ok = (
            ("object", sid) in spans
            and ("object", oid) in spans
            and ("predicate", k) in spans
            and oid not in subject_ids
            and oid not in objt_parent
            and sid != oid
        )
        if ok:
            aligned_relations[k] = (sid, label, oid)
            objt_parent[oid] = k
        else:
            unaligned.append(("relation", sid, label, oid))

    aligned_attrs: dict[int, tuple[int, str]] = {}
    for k, (oid, label) in enumerate(g.attributes):
        if ("attribute", k) in spans and ("object", oid) in spans:
            aligned_attrs[k] = (oid, label)
        else:
            unaligned.append(("attribute", oid, label))

    aligned_objects = set()
    for o in g.objects:
        if ("object", o.id) in spans:
            aligned_objects.add(o.id)
        else:
            unaligned.append(("object", o.id, o.label))

    # token assignment
    types = [NodeType.NONE] * (t_count + 1)  # 1-based
    parents = [0] * (t_count + 1)

    def place(kind: str, key: int, node_type: NodeType, parent: int):
        start, end = spans[(kind, key)]
        head = end  # 1-based position of last span token
        types[head] = node_type
        parents[head] = parent
        for p in range(start + 1, end):  # earlier span tokens, 1-based start+1..end-1
            types[p] = NodeType.SAME
            parents[p] = head

    for oid in aligned_objects:
        if oid in objt_parent:
            k = objt_parent[oid]
            pred_head = head_of("predicate", k)
            place("object", oid, NodeType.OBJT, pred_head)
        else:
            place("object", oid, NodeType.SUBJ, 0)
    for k, (sid, label, oid) in aligned_relations.items():
        place("predicate", k, NodeType.PRED, head_of("object", sid))
    for k, (oid, label) in aligned_attrs.items():
        place("attribute", k, NodeType.ATTR, head_of("object", oid))

    tokens = tuple(
        TaggedToken(i, words[i - 1], types[i], parents[i]) for i in range(1, t_count + 1)
    )
    total = len(nodes)
    aligned_count = len(aligned_objects) + len(aligned_attrs) + len(aligned_relations)
    coverage = 1.0 if total == 0 else aligned_count / total
    return AlignmentResult(TaggedSentence(tokens), coverage, tuple(unaligned))


# Labels share words and prefixes, so spans overlap, longer labels compete
# with shorter ones and one word can serve several nodes.
LABELS = ["a", "b", "c", "a b", "b c", "a b c", "c a"]


@st.composite
def aligner_inputs(draw, with_lexicon):
    ids = draw(st.lists(st.integers(0, 6), max_size=5, unique=True))
    objects = [(oid, draw(st.sampled_from(LABELS))) for oid in ids]
    attributes, relations = [], []
    if ids:
        some_id = st.sampled_from(ids)
        labels = st.sampled_from(LABELS)
        attributes = draw(st.lists(st.tuples(some_id, labels), max_size=4))
        relations = draw(st.lists(st.tuples(some_id, labels, some_id), max_size=5))
    # most node labels appear in the description, shuffled among noise words,
    # so that relations sharing endpoints have all their spans matched
    pieces = [label for _, label in objects + attributes] + [r[1] for r in relations]
    pieces = [p for p in pieces if draw(st.integers(0, 5))]
    pieces += draw(st.lists(st.sampled_from(["a", "b", "c", "the", "B"]), max_size=4))
    description = " ".join(draw(st.permutations(pieces)))
    lex = EMPTY_LEXICON
    if with_lexicon:
        lex = Lexicon.from_pairs(draw(st.dictionaries(
            st.sampled_from(LABELS), st.lists(st.sampled_from(LABELS), max_size=3),
            max_size=4)))
    return description, build_graph(objects, attributes, relations), lex


@given(aligner_inputs(with_lexicon=False))
@settings(max_examples=400)
def test_align_equals_reference_on_random_graphs(inputs):
    assert align(*inputs) == align_reference(*inputs)


@given(aligner_inputs(with_lexicon=True))
@settings(max_examples=400)
def test_align_equals_reference_with_a_lexicon(inputs):
    assert align(*inputs) == align_reference(*inputs)


# Every graph of one or two nodes over LABELS: one object, two objects, an
# object with an attribute, and an object related to itself.
SMALL_GRAPHS = (
    [build_graph([(1, x)]) for x in LABELS]
    + [build_graph([(1, x), (2, y)]) for x, y in itertools.product(LABELS, repeat=2)]
    + [build_graph([(1, x)], [(1, y)]) for x, y in itertools.product(LABELS, repeat=2)]
    + [build_graph([(1, x)], [], [(1, y, 1)]) for x, y in itertools.product(LABELS, repeat=2)]
)
# Synonyms of 1 and 2 words, ties between equal lengths, a candidate that is a
# prefix of a longer one ("a" of "a b"), and "B", which canonicalizes to "b".
FIXED_LEXICON = Lexicon.from_pairs({"a": ["b c", "B"], "b": ["c a"], "a b": ["c", "a"]})


def test_align_equals_reference_on_every_small_input():
    descriptions = [" ".join(ws) for n in range(5)
                    for ws in itertools.product(["a", "b", "c", "B"], repeat=n)]
    cases = 0
    for lex in (EMPTY_LEXICON, FIXED_LEXICON):
        for g in SMALL_GRAPHS:
            for description in descriptions:
                assert align(description, g, lex) == align_reference(description, g, lex), (
                    description, g, lex)
                cases += 1
    assert cases == 2 * 154 * 341
