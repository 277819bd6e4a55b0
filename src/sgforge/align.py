"""Oracle alignment: turn (description, ground-truth graph) pairs into tagging targets.

Greedy longest-label-first span matching, with a synonym lexicon. The output
TaggedSentence decodes back to the aligned portion of the source graph, which
is what makes the oracle an upper bound for any trained model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import SceneGraph, canonical_words
from .tags import NodeType, TaggedSentence, TaggedToken

STOPWORDS = frozenset({"a", "an", "the", "and"})


def useful_word_count(description: str) -> int:
    """Number of non-stopword whitespace tokens after canonicalization."""
    return sum(1 for w in canonical_words(description) if w not in STOPWORDS)


@dataclass(frozen=True)
class Lexicon:
    """Symmetric synonym table. Every label is a synonym of itself."""

    _table: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def from_pairs(cls, mapping: dict[str, list[str]]) -> "Lexicon":
        table: dict[str, set[str]] = {}
        for label, syns in mapping.items():
            for syn in syns:
                table.setdefault(label, set()).add(syn)
                table.setdefault(syn, set()).add(label)  # symmetric closure
        return cls({k: frozenset(v) for k, v in table.items()})

    @classmethod
    def from_json(cls, text: str) -> "Lexicon":
        mapping = json.loads(text)
        if not (isinstance(mapping, dict) and all(
            isinstance(syns, list) and all(isinstance(s, str) for s in syns)
            for syns in mapping.values()
        )):
            raise TypeError("a lexicon must be a JSON object mapping each label to a list of "
                            "strings")
        return cls.from_pairs(mapping)

    def synonyms(self, label: str) -> frozenset[str]:
        return self._table.get(label, frozenset()) | {label}

    def match(self, a: str, b: str) -> bool:
        return a == b or b in self._table.get(a, frozenset())


EMPTY_LEXICON = Lexicon()


@dataclass(frozen=True)
class AlignmentResult:
    tagged: TaggedSentence
    coverage: float  # fraction of graph nodes aligned; 1.0 for empty graphs
    unaligned_nodes: tuple[tuple, ...]


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


def align(description: str, g: SceneGraph, lex: Lexicon = EMPTY_LEXICON) -> AlignmentResult:
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
