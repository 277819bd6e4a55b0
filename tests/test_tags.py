import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.errors import ParseError
from sgforge.graph import ObjectInstance, build_graph, canonical_words, extract_tuples
from sgforge.tags import (
    EMPTY_LABEL,
    ILLEGAL_ARC,
    NO_OBJECT,
    PRED_DROPPED,
    ROOT,
    DROP_REASONS,
    SAME_CYCLE,
    SAME_TO_NONE,
    SELF_REFERENCE,
    SUBJ_NOT_ROOT,
    DecodeReport,
    NodeType,
    TaggedSentence,
    TaggedToken,
    _LEGAL_PARENTS,
    decode_tags_to_graph,
    read_conll,
    tagged,
    write_conll,
)

T = NodeType


def test_arc_legality_table():
    # full truth table, transcribed independently of the implementation
    legal = {
        (T.SUBJ, ROOT),
        (T.PRED, T.SUBJ),
        (T.OBJT, T.PRED),
        (T.ATTR, T.SUBJ),
        (T.ATTR, T.OBJT),
        (T.SAME, T.SUBJ),
        (T.SAME, T.PRED),
        (T.SAME, T.OBJT),
        (T.SAME, T.ATTR),
        (T.SAME, T.SAME),
    }
    for child in T:
        for parent in (ROOT,) + tuple(T):
            assert (parent in _LEGAL_PARENTS[child]) == ((child, parent) in legal)


def test_decode_attributes():
    report = decode_tags_to_graph(
        tagged([("blue", T.ATTR, 4), ("and", T.NONE, 0), ("red", T.ATTR, 4), ("bus", T.SUBJ, 0)])
    )
    g = report.graph
    assert [o.label for o in g.objects] == ["bus"]
    assert set(g.attributes) == {(4, "blue"), (4, "red")}
    assert g.relations == ()
    assert report.dropped_arcs == ()


def test_decode_relation():
    g = decode_tags_to_graph(
        tagged([("cat", T.SUBJ, 0), ("on", T.PRED, 1), ("mat", T.OBJT, 2)])
    ).graph
    assert [o.label for o in g.objects] == ["cat", "mat"]
    assert g.relations == ((1, "on", 3),)


def test_decode_same_phrase_merges_left_to_right():
    report = decode_tags_to_graph(
        tagged(
            [
                ("man", T.SUBJ, 0),
                ("in", T.SAME, 4),
                ("front", T.SAME, 4),
                ("of", T.PRED, 1),
                ("car", T.OBJT, 4),
            ]
        )
    )
    assert report.graph.relations == ((1, "in front of", 5),)
    assert [o.label for o in report.graph.objects] == ["man", "car"]


def test_decode_self_reference_keeps_node():
    report = decode_tags_to_graph(tagged([("cat", T.OBJT, 1)]))
    assert [o.label for o in report.graph.objects] == ["cat"]
    assert report.dropped_arcs == ((1, "self_reference"),)


def test_decode_same_chain_resolves_transitively():
    # 1 -> 2 -> 3(head)
    report = decode_tags_to_graph(
        tagged([("big", T.SAME, 2), ("red", T.SAME, 3), ("bus", T.SUBJ, 0)])
    )
    assert report.graph.objects[0].label == "big red bus"


def test_decode_same_cycle_dropped():
    report = decode_tags_to_graph(
        tagged([("a", T.SAME, 2), ("b", T.SAME, 1), ("bus", T.SUBJ, 0)])
    )
    reasons = dict(report.dropped_arcs)
    assert reasons[1] == "same_cycle"
    assert reasons[2] == "same_cycle"
    assert report.graph.objects[0].label == "bus"


def test_decode_same_to_none_dropped():
    report = decode_tags_to_graph(tagged([("x", T.SAME, 2), ("and", T.NONE, 0)]))
    assert report.dropped_arcs == ((1, "same_to_none"),)


def test_decode_pred_without_object_emits_nothing():
    report = decode_tags_to_graph(tagged([("cat", T.SUBJ, 0), ("runs", T.PRED, 1)]))
    assert report.graph.relations == ()
    assert (2, "no_object") in report.dropped_arcs


def test_decode_objt_with_dropped_pred_is_standalone():
    # PRED points at OBJT, which is illegal, so the relation collapses but
    # both objects survive
    report = decode_tags_to_graph(
        tagged([("cat", T.OBJT, 2), ("on", T.PRED, 1), ("mat", T.OBJT, 2)])
    )
    labels = [o.label for o in report.graph.objects]
    assert labels == ["cat", "mat"]
    assert report.graph.relations == ()
    reasons = dict(report.dropped_arcs)
    assert reasons[2] == "illegal_arc"
    assert reasons[1] == "pred_dropped" or reasons[3] == "pred_dropped"


def test_decode_subj_arc_to_non_root_dropped_node_kept():
    report = decode_tags_to_graph(tagged([("cat", T.SUBJ, 2), ("mat", T.SUBJ, 0)]))
    assert len(report.graph.objects) == 2
    assert (1, "subj_not_root") in report.dropped_arcs


@pytest.mark.parametrize("record, field", [
    (TaggedToken(1, "cat", T.SUBJ, 0), "parent"),
    (ObjectInstance(1, "cat"), "label"),
], ids=["tagged_token", "object_instance"])
def test_records_are_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 2)


def test_tagged_sentence_validates_indices():
    with pytest.raises(ValueError):
        TaggedSentence((TaggedToken(2, "x", T.NONE, 0),))
    with pytest.raises(ValueError):
        TaggedSentence((TaggedToken(1, "x", T.SUBJ, 5),))


CONLL_EXAMPLE = (
    "1\tblue\t4\tATTR\tATTR\n"
    "2\tand\t_\t_\t_\n"
    "3\tred\t4\tATTR\tATTR\n"
    "4\tbus\t0\t_\tSUBJ\n"
)


def test_read_conll_example():
    sentences = read_conll(CONLL_EXAMPLE)
    assert len(sentences) == 1
    assert sentences[0] == tagged(
        [("blue", T.ATTR, 4), ("and", T.NONE, 0), ("red", T.ATTR, 4), ("bus", T.SUBJ, 0)]
    )


def test_read_conll_empty():
    assert read_conll("") == []
    assert read_conll("\n\n") == []


def test_read_conll_head_out_of_range():
    bad = "1\tblue\t4\tATTR\tATTR\n2\tand\t_\t_\t_\n3\tred\t9\tATTR\tATTR\n4\tbus\t0\t_\tSUBJ\n"
    with pytest.raises(ParseError, match="HEAD 9 exceeds sentence length 4") as exc:
        read_conll(bad)
    assert exc.value.line == 3
    # line 5 repeats line 1, whose HEAD 3 fit the first sentence but not the second
    reused = ("1\tred\t3\tATTR\tATTR\n2\tand\t_\t_\t_\n3\tbus\t0\t_\tSUBJ\n\n"
              "1\tred\t3\tATTR\tATTR\n2\tbus\t0\t_\tSUBJ\n")
    with pytest.raises(ParseError) as exc:
        read_conll(reused)
    assert (exc.value.line, str(exc.value)) == (5, "line 5: HEAD 3 exceeds sentence length 2")


# write_conll spells a NONE row as one word, then "_" in HEAD, ARC_LABEL and
# NODE_TYPE, and read_conll takes no other spelling; the parent's reader took a
# FORM with whitespace, whose phrase then had more words than its sentence tokens
@pytest.mark.parametrize("row, needle", [
    ("2\tdog\t_\t_\tNONE", "NODE_TYPE 'NONE'"),
    ("2\tdog\t1\t_\t_", "HEAD '1' on a NONE row"),
    ("2\tice cream\t_\t_\t_", "FORM 'ice cream' is not one word"),
    ("2\t \t_\t_\t_", "FORM ' ' is not one word"),
    ("2\tdog\xa0\t_\t_\t_", r"FORM 'dog\\xa0' is not one word"),
    ("2\t\t_\t_\t_", "empty FORM"),
], ids=["none_spelled_out", "head_on_none_row", "form_two_words", "form_blank",
        "form_no_break_space", "form_empty"])
def test_read_conll_rejects_other_none_row_spellings(row, needle):
    with pytest.raises(ParseError, match=needle) as exc:
        read_conll(f"1\tcat\t0\t_\tSUBJ\n{row}\n")
    assert exc.value.line == 2


# write_conll spells INDEX and HEAD as str(int); int() also takes a sign,
# padding, underscores, leading zeros and non-ASCII digits, and the parent's
# reader took each of these rows and rewrote it as 1\tcat\t0\t_\tSUBJ
@pytest.mark.parametrize("row, needle", [
    ("01\tcat\t+0\t_\tSUBJ", "bad INDEX '01'"),
    ("+1\tcat\t0\t_\tSUBJ", "bad INDEX '+1'"),
    ("1\tcat\t+0\t_\tSUBJ", "bad HEAD '+0'"),
    ("1\tcat\t 0\t_\tSUBJ", "bad HEAD ' 0'"),
    ("1\tcat\t0_0\t_\tSUBJ", "bad HEAD '0_0'"),
    ("1\tcat\t\u0660\t_\tSUBJ", "bad HEAD '\u0660'"),
    ("1\tcat\t-0\t_\tSUBJ", "bad HEAD '-0'"),
], ids=["index_zero_padded", "index_signed", "head_signed", "head_padded",
        "head_underscore", "head_arabic_indic", "head_negative_zero"])
def test_read_conll_rejects_other_index_and_head_spellings(row, needle):
    text = f"1\tdog\t0\t_\tSUBJ\n\n{row}\n"
    assert write_conll(read_conll_reference(text)) == "1\tdog\t0\t_\tSUBJ\n\n1\tcat\t0\t_\tSUBJ\n\n"
    with pytest.raises(ParseError) as exc:
        read_conll(text)
    assert (exc.value.line, str(exc.value)) == (3, f"line 3: {needle}")


def test_read_conll_rejects_negative_head():
    # "-1" is a well-spelled integer, so it passes the spelling check
    with pytest.raises(ParseError) as exc:
        read_conll("1\tdog\t0\t_\tSUBJ\n\n1\tcat\t-1\tATTR\tATTR\n")
    assert (exc.value.line, str(exc.value)) == (3, "line 3: negative HEAD -1")


def test_read_conll_non_contiguous_index():
    with pytest.raises(ParseError) as exc:
        read_conll("1\tcat\t0\t_\tSUBJ\n3\tdog\t0\t_\tSUBJ\n")
    assert exc.value.line == 2
    # a line read before, repeated at a position its INDEX does not fit
    for text, message in [
        ("1\tcat\t0\t_\tSUBJ\n1\tcat\t0\t_\tSUBJ\n", "non-contiguous INDEX 1, expected 2"),
        ("1\tcat\t0\t_\tSUBJ\n2\tred\t1\tATTR\tATTR\n\n2\tred\t1\tATTR\tATTR\n",
         "non-contiguous INDEX 2, expected 1"),
    ]:
        line = text.count("\n")
        with pytest.raises(ParseError) as exc:
            read_conll(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {message}")


def test_read_conll_repeated_line_yields_one_token():
    first, second = read_conll("1\tred\t2\tATTR\tATTR\n2\tbus\t0\t_\tSUBJ\n\n"
                               "1\tred\t2\tATTR\tATTR\n2\tcar\t0\t_\tSUBJ\n")
    assert first.tokens[0] is second.tokens[0]
    assert first.tokens[1] == TaggedToken(2, "bus", T.SUBJ, 0)
    assert second.tokens[1] == TaggedToken(2, "car", T.SUBJ, 0)


def test_read_conll_wrong_column_count():
    with pytest.raises(ParseError) as exc:
        read_conll("1\tcat\t0\tSUBJ\n")
    assert exc.value.line == 1


def test_write_then_read_identity():
    sent = tagged(
        [("blue", T.ATTR, 4), ("and", T.NONE, 0), ("red", T.ATTR, 4), ("bus", T.SUBJ, 0)]
    )
    text = write_conll([sent])
    assert read_conll(text) == [sent]
    # byte-exact on canonical files
    assert write_conll(read_conll(text)) == text


node_types = st.sampled_from(list(NodeType))
forms = st.sampled_from(["cat", "dog", "bus", "on", "red", "big", "x1"])


@st.composite
def tagged_sentences(draw, max_len=10, min_len=0):
    n = draw(st.integers(min_len, max_len))
    rows = []
    for _ in range(n):
        rows.append((draw(forms), draw(node_types), draw(st.integers(0, n))))
    return tagged(rows)


# CONLL cannot represent an empty sentence (a blank line separates sentences),
# so round-trip properties quantify over non-empty ones.
@given(tagged_sentences(min_len=1))
def test_conll_roundtrip_random(sent):
    # NONE parents normalize to 0 on write, matching align/predict output
    normalized = tagged(
        [
            (t.form, t.node_type, 0 if t.node_type is T.NONE else t.parent)
            for t in sent
        ]
    )
    text = write_conll([normalized])
    assert read_conll(text) == [normalized]
    assert write_conll(read_conll(text)) == text


@given(st.lists(tagged_sentences(max_len=5, min_len=1), max_size=4))
def test_conll_multi_sentence_roundtrip(sents):
    normalized = [
        tagged([(t.form, t.node_type, 0 if t.node_type is T.NONE else t.parent) for t in s])
        for s in sents
    ]
    assert read_conll(write_conll(normalized)) == normalized


# Reference reader: 5-tuple rows that a nested flush turns into tokens once
# the sentence ends, and INDEX and HEAD parsed with bare int(). read_conll
# must return equal sentences or raise an equal ParseError, except where a
# corrupted INDEX or HEAD is an int() spelling that write_conll never writes.
def read_conll_reference(text: str) -> list[TaggedSentence]:
    sentences: list[TaggedSentence] = []
    rows: list[tuple[int, int, str, NodeType, int]] = []
    type_of_tail = {("_", "SUBJ"): T.SUBJ, ("_", "PRED"): T.PRED, ("_", "OBJT"): T.OBJT,
                    ("ATTR", "ATTR"): T.ATTR, ("SAME", "SAME"): T.SAME, ("_", "_"): T.NONE}

    def flush():
        if not rows:
            return
        t = len(rows)
        toks = []
        for line_no, index, form, node_type, parent in rows:
            if parent > t:
                raise ParseError(line_no, f"HEAD {parent} exceeds sentence length {t}")
            toks.append(TaggedToken(index, form, node_type, parent))
        sentences.append(TaggedSentence(tuple(toks)))
        rows.clear()

    for line_no, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            flush()
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ParseError(line_no, f"expected 5 tab-separated columns, got {len(cols)}")
        idx_s, form, head_s, arc_s, type_s = cols
        try:
            index = int(idx_s)
        except ValueError:
            raise ParseError(line_no, f"bad INDEX {idx_s!r}") from None
        if index != len(rows) + 1:
            raise ParseError(line_no, f"non-contiguous INDEX {index}, expected {len(rows) + 1}")
        if not form:
            raise ParseError(line_no, "empty FORM")
        if form.split() != [form]:
            raise ParseError(line_no, f"FORM {form!r} is not one word")
        node_type = type_of_tail.get((arc_s, type_s))
        if node_type is None:
            raise ParseError(line_no, f"ARC_LABEL {arc_s!r} and NODE_TYPE {type_s!r} match no "
                             "node type")
        if node_type is NodeType.NONE:
            if head_s != "_":
                raise ParseError(line_no, f"HEAD {head_s!r} on a NONE row, which takes '_'")
            parent = 0
        elif head_s == "_":
            raise ParseError(line_no, f"missing HEAD for node type {type_s}")
        else:
            try:
                parent = int(head_s)
            except ValueError:
                raise ParseError(line_no, f"bad HEAD {head_s!r}") from None
            if parent < 0:
                raise ParseError(line_no, f"negative HEAD {parent}")
        rows.append((line_no, index, form, node_type, parent))
    flush()
    return sentences


def _read_outcome(reader, text):
    try:
        return reader(text)
    except ParseError as e:
        return e.line, str(e)


def _other_int_spelling(s: str) -> bool:
    try:
        return str(int(s)) != s
    except ValueError:
        return False


conll_fields = st.sampled_from([
    "_", "0", "1", "2", "3", "-1", "99", "", "x", "SUBJ", "PRED", "OBJT", "ATTR", "SAME", "NONE",
    "01", "+1", " 1", "1_0", "-0", "\u0661", "00",
]) | st.text(max_size=4)


@given(st.lists(tagged_sentences(max_len=5, min_len=1), min_size=1, max_size=4), st.data())
@settings(max_examples=500)
def test_read_conll_equals_reference_on_corrupted_text(sents, data):
    lines = write_conll(sents).split("\n")
    k = data.draw(st.sampled_from([k for k, line in enumerate(lines) if line]))
    cols = lines[k].split("\t")
    col = data.draw(st.integers(0, 4))
    cols[col] = value = data.draw(conll_fields)
    lines[k] = "\t".join(cols)
    text = "\n".join(lines)
    if data.draw(st.booleans()):  # the last sentence may end with the text
        text = text.rstrip("\n")
    got, want = _read_outcome(read_conll, text), _read_outcome(read_conll_reference, text)
    if got != want:
        assert col in (0, 2) and _other_int_spelling(value), (got, want)
        assert got == (k + 1, f"line {k + 1}: bad {'INDEX' if col == 0 else 'HEAD'} {value!r}")


@st.composite
def repetitive_conll_lines(draw):
    """The lines of 2-8 short sentences over two forms and 2-3 node types, so
    equal lines recur within and across sentences."""
    kinds = draw(st.lists(node_types, min_size=2, max_size=3, unique=True))
    sents = []
    for _ in range(draw(st.integers(2, 8))):
        n = draw(st.integers(1, 3))
        sents.append(tagged([(draw(st.sampled_from(["red", "bus"])), draw(st.sampled_from(kinds)),
                              draw(st.integers(0, n))) for _ in range(n)]))
    return write_conll(sents).split("\n")


# Copying, inserting and deleting lines puts a line read before at a position
# its INDEX may not fit, and a HEAD that fit one sentence into a shorter one.
@given(repetitive_conll_lines(), st.data())
@settings(max_examples=500)
def test_read_conll_equals_reference_on_repetitive_text(lines, data):
    for _ in range(data.draw(st.integers(0, 2))):
        k = data.draw(st.integers(0, len(lines) - 1))
        op = data.draw(st.sampled_from(["copy", "insert", "delete", "field"]))
        if op == "copy":
            lines[k] = lines[data.draw(st.integers(0, len(lines) - 1))]
        elif op == "insert":
            lines.insert(k, lines[data.draw(st.integers(0, len(lines) - 1))])
        elif op == "delete":
            del lines[k]
        else:
            cols = lines[k].split("\t")
            cols[data.draw(st.integers(0, len(cols) - 1))] = data.draw(conll_fields)
            lines[k] = "\t".join(cols)
    text = "\n".join(lines)
    got, want = _read_outcome(read_conll, text), _read_outcome(read_conll_reference, text)
    if got != want:  # only an INDEX or HEAD that int() reads and write_conll never writes
        assert isinstance(got, tuple), (got, want)
        line_no, message = got
        cols = lines[line_no - 1].split("\t")
        assert any(message == f"line {line_no}: bad {name} {cols[c]!r}"
                   and _other_int_spelling(cols[c]) for c, name in [(0, "INDEX"), (2, "HEAD")]), (
            got, want)


# Reference writer: one `_row` call and two `Enum.name` lookups per token.
# write_conll must return the same text.
def _row(tok: TaggedToken) -> str:
    if tok.node_type is NodeType.NONE:
        return f"{tok.index}\t{tok.form}\t_\t_\t_"
    arc = tok.node_type.name if tok.node_type in (NodeType.ATTR, NodeType.SAME) else "_"
    return f"{tok.index}\t{tok.form}\t{tok.parent}\t{arc}\t{tok.node_type.name}"


def write_conll_reference(sentences):
    """Serialize sentences; each sentence's rows are followed by one blank line."""
    chunks = []
    for sent in sentences:
        chunks.append("".join(_row(tok) + "\n" for tok in sent) + "\n")
    return "".join(chunks)


# Parents are not normalized here: NONE rows must drop them on write
@given(st.lists(tagged_sentences(), max_size=5))
@settings(max_examples=300)
def test_write_conll_equals_reference(sents):
    assert write_conll(sents) == write_conll_reference(sents)


def surface(sent, index):
    """The forms of a phrase head and of the SAME tokens whose chains reach it."""
    same_head, _ = resolve_same_chains_reference(sent)
    pieces = [i for i, head in same_head.items() if head == index]
    forms = {t.index: t.form for t in sent}
    return " ".join(forms[i] for i in sorted(pieces + [index]))


@given(tagged_sentences())
@settings(max_examples=300)
def test_decode_totality_and_legality(sent):
    report = decode_tags_to_graph(sent)
    types = {t.index: t.node_type for t in sent}
    # emitted structure implies legal arcs
    for oid, _ in report.graph.attributes:
        assert types[oid] in (T.SUBJ, T.OBJT)
    for sid, _, oid in report.graph.relations:
        assert types[sid] is T.SUBJ
        assert types[oid] is T.OBJT
    # conservation: every SUBJ/OBJT token is an object node
    n_objects = sum(1 for t in sent if types[t.index] in (T.SUBJ, T.OBJT))
    assert len(report.graph.objects) == n_objects
    # every ATTR token is either dropped or its pair is in the graph
    dropped = {i for i, _ in report.dropped_arcs}
    attr_pairs = set(report.graph.attributes)
    for t in sent:
        if types[t.index] is T.ATTR and t.index not in dropped:
            assert any(label == surface(sent, t.index) for _, label in attr_pairs)
    for _, reason in report.dropped_arcs:
        assert reason in DROP_REASONS


@given(tagged_sentences())
def test_decode_deterministic(sent):
    assert decode_tags_to_graph(sent) == decode_tags_to_graph(sent)


def resolve_same_chains_reference(sent: TaggedSentence):
    """Phase 1 of the reference decoder: follow parent chains through SAME
    tokens until a non-SAME head; chains hitting ROOT, NONE, or exceeding T
    hops drop. Returns {SAME token: its head} and the drops."""
    toks = {t.index: t for t in sent}
    t_count = len(sent)
    dropped: list[tuple[int, str]] = []
    same_head: dict[int, int] = {}
    for tok in sent:
        if tok.node_type is not NodeType.SAME:
            continue
        if tok.parent == tok.index:
            dropped.append((tok.index, SELF_REFERENCE))
            continue
        j = tok.parent
        hops = 1
        reason = None
        while True:
            if hops > t_count:
                reason = SAME_CYCLE
                break
            if j == 0:
                reason = ILLEGAL_ARC
                break
            target = toks[j]
            if target.node_type is NodeType.NONE:
                reason = SAME_TO_NONE
                break
            if target.node_type is not NodeType.SAME:
                same_head[tok.index] = j
                break
            j = target.parent
            hops += 1
        if reason is not None:
            dropped.append((tok.index, reason))
    return same_head, dropped


# Reference decoder: four phases, with a hand-written SAME-chain loop in the
# first and a separate same_head lookup in the third. decode_tags_to_graph
# must return an equal report for every sentence.
def decode_tags_to_graph_reference(sent: TaggedSentence) -> DecodeReport:
    """Deterministically decode a tagged sentence into a scene graph.

    Four phases: resolve SAME chains into merged surface forms, create object
    nodes for SUBJ/OBJT tokens, attach arcs whose resolved parent type the
    legality table allows, then emit attribute pairs and relation triples.
    Failures become dropped_arcs entries; decoding never raises.
    """
    toks = {t.index: t for t in sent}
    same_head, dropped = resolve_same_chains_reference(sent)
    pieces: dict[int, list[int]] = {}
    for piece, head in same_head.items():
        pieces.setdefault(head, []).append(piece)

    def surface_label(index: int) -> str | None:
        parts = sorted(pieces.get(index, []) + [index])
        words = canonical_words(" ".join(toks[k].form for k in parts))
        return " ".join(words) if words else None

    # Phase 2: node creation. Labels must be known for every position before
    # arcs are checked, since parents may follow their children.
    labels: dict[int, str] = {}
    object_ids: list[int] = []
    for tok in sent:
        if tok.node_type in (NodeType.NONE, NodeType.SAME):
            continue
        label = surface_label(tok.index)
        if label is None:
            dropped.append((tok.index, EMPTY_LABEL))
            continue
        labels[tok.index] = label
        if tok.node_type in (NodeType.SUBJ, NodeType.OBJT):
            object_ids.append(tok.index)

    # Phase 3: arc attachment. Arcs point at the resolved head of any SAME
    # parent; legality is checked against the head's type.
    attached: dict[int, int] = {}  # child -> resolved parent index
    for tok in sent:
        kind = tok.node_type
        if kind in (NodeType.NONE, NodeType.SAME) or tok.index not in labels:
            continue
        if kind is NodeType.SUBJ:
            # The SUBJ arc carries no information beyond ROOT attachment.
            if tok.parent == tok.index:
                dropped.append((tok.index, SELF_REFERENCE))
            elif tok.parent != 0:
                dropped.append((tok.index, SUBJ_NOT_ROOT))
            continue
        if tok.parent == tok.index:
            dropped.append((tok.index, SELF_REFERENCE))
            continue
        if tok.parent == 0:
            dropped.append((tok.index, ILLEGAL_ARC))
            continue
        parent = tok.parent
        if toks[parent].node_type is NodeType.SAME:
            resolved = same_head.get(parent)
            if resolved is None:
                dropped.append((tok.index, ILLEGAL_ARC))
                continue
            parent = resolved
        if parent not in labels or toks[parent].node_type not in _LEGAL_PARENTS[kind]:
            dropped.append((tok.index, ILLEGAL_ARC))
            continue
        attached[tok.index] = parent

    # Phase 4: emission. Attributes need a surviving object parent; relations
    # need the full OBJT -> PRED -> SUBJ spine.
    attributes: list[tuple[int, str]] = []
    relations: list[tuple[int, str, int]] = []
    preds_with_child: set[int] = set()
    for tok in sent:
        i = tok.index
        if tok.node_type is NodeType.ATTR and i in attached:
            attributes.append((attached[i], labels[i]))
        elif tok.node_type is NodeType.OBJT and i in attached:
            pred = attached[i]
            subj = attached.get(pred)
            if subj is None:
                dropped.append((i, PRED_DROPPED))
            else:
                relations.append((subj, labels[pred], i))
                preds_with_child.add(pred)
    for tok in sent:
        if (
            tok.node_type is NodeType.PRED
            and tok.index in attached
            and tok.index not in preds_with_child
        ):
            dropped.append((tok.index, NO_OBJECT))

    graph = build_graph(
        [(i, labels[i]) for i in object_ids],
        attributes,
        relations,
    )
    return DecodeReport(graph, tuple(sorted(dropped)))


def all_sentences(max_tokens, forms):
    """Every tagged sentence of up to max_tokens tokens over these forms."""
    for n in range(max_tokens + 1):
        row = list(itertools.product(forms, NodeType, range(n + 1)))
        for rows in itertools.product(row, repeat=n):
            yield tagged(list(rows))


def test_decode_equals_reference_on_every_small_sentence():
    # forms "a" up to 3 tokens, plus a blank form (empty labels) up to 2
    sentences = itertools.chain(all_sentences(3, ["a"]), all_sentences(2, ["a", " "]))
    count = 0
    for sent in sentences:
        assert decode_tags_to_graph(sent) == decode_tags_to_graph_reference(sent), sent
        count += 1
    assert count == 15482


@st.composite
def chain_heavy_sentences(draw, max_len=12):
    # SAME is drawn as often as all other types together, so long SAME
    # chains, cycles and chains ending at ROOT or NONE are common. Forms with
    # capitals, inner or edge whitespace, or none but whitespace exercise the
    # canonical label of a phrase head with no SAME pieces.
    n = draw(st.integers(0, max_len))
    kinds = st.one_of(st.just(NodeType.SAME), st.sampled_from(list(NodeType)))
    forms = st.sampled_from(["a", "b", " ", "A", "a b", "\tB "])
    return tagged([(draw(forms), draw(kinds), draw(st.integers(0, n))) for _ in range(n)])


@given(chain_heavy_sentences())
@settings(max_examples=500)
def test_decode_equals_reference_on_random_sentences(sent):
    assert decode_tags_to_graph(sent) == decode_tags_to_graph_reference(sent)
