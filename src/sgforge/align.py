"""Oracle alignment: turn (description, ground-truth graph) pairs into tagging targets.

Greedy longest-label-first span matching, with a synonym lexicon. The output
TaggedSentence decodes back to the aligned portion of the source graph, which
is what makes the oracle an upper bound for any trained model.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import SceneGraph, canonical_words, canonicalize_label
from .tags import NodeType, TaggedSentence, TaggedToken

STOPWORDS = frozenset({"a", "an", "the", "and"})


def useful_word_count(description: str) -> int:
    """Number of non-stopword whitespace tokens after canonicalization."""
    return sum(1 for w in canonical_words(description) if w not in STOPWORDS)


@dataclass(frozen=True)
class Lexicon:
    """Symmetric synonym table of canonical labels; every label is a synonym of itself."""

    _table: dict[str, frozenset[str]] = field(default_factory=dict)
    _candidates: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def from_pairs(cls, mapping: dict[str, list[str]]) -> "Lexicon":
        """Raises EmptyLabelError for a blank label or synonym."""
        table: dict[str, set[str]] = {}
        for label, syns in mapping.items():
            label = canonicalize_label(label)
            for syn in map(canonicalize_label, syns):
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

    def __bool__(self) -> bool:
        """False when the table holds no synonym pair, as EMPTY_LEXICON."""
        return bool(self._table)

    def synonyms(self, label: str) -> frozenset[str]:
        return self._table.get(label, frozenset()) | {label}

    def match(self, a: str, b: str) -> bool:
        return a == b or b in self._table.get(a, frozenset())

    def candidates(self, label: str) -> tuple[tuple[str, ...], ...]:
        """The label and its synonyms as word tuples, longest first, then
        lexicographically. Computed once per label."""
        cands = self._candidates.get(label)
        if cands is None:
            cands = self._candidates[label] = tuple(sorted(
                (tuple(syn.split()) for syn in self.synonyms(label)),
                key=lambda ws: (-len(ws), ws)))
        return cands


EMPTY_LEXICON = Lexicon()


@dataclass(frozen=True)
class AlignmentResult:
    tagged: TaggedSentence
    coverage: float  # fraction of graph nodes aligned; 1.0 for empty graphs
    unaligned_nodes: tuple[tuple, ...]


def _find_span(
    words: tuple[str, ...], consumed: list[bool], at: dict[str, list[int]],
    candidates: tuple[tuple[str, ...], ...],
) -> tuple[int, int] | None:
    """Earliest unconsumed span matching any candidate; ties go to the earlier
    candidate. Only starts where a candidate's first word occurs are tried."""
    best = None
    for cand in candidates:
        for start in at.get(cand[0], ()):
            if best is not None and start >= best[0]:
                break
            end = start + len(cand)
            if words[start:end] == cand and not any(consumed[start:end]):
                best = (start, end)
                break
    return best


def align(description: str, g: SceneGraph, lex: Lexicon = EMPTY_LEXICON) -> AlignmentResult:
    """Align a ground-truth graph to its description, producing tagging targets.

    Span matching is greedy: nodes sorted by label word count (longest first,
    ties by graph insertion order), each taking the earliest unconsumed span
    equal to its label or a lexicon synonym. Span heads (last token) carry the
    node type; earlier span tokens are SAME pointing at the head. Fragments
    that cannot be fully encoded are excluded and reported.
    """
    words = tuple(canonical_words(description))
    consumed = [False] * len(words)
    at: dict[str, list[int]] = {}  # word -> its positions, ascending
    for i, w in enumerate(words):
        at.setdefault(w, []).append(i)
    nodes = ([("object", o.id, o.label) for o in g.objects]
             + [("attribute", k, label) for k, (_, label) in enumerate(g.attributes)]
             + [("predicate", k, label) for k, (_, label, _) in enumerate(g.relations)])
    spans: dict[tuple[str, int], tuple[int, int]] = {}  # node key -> (start, end)
    for kind, key, label in sorted(nodes, key=lambda node: -len(node[2].split())):
        found = _find_span(words, consumed, at, lex.candidates(label))
        if found is not None:
            consumed[found[0]:found[1]] = [True] * (found[1] - found[0])
            spans[kind, key] = found

    # A relation is encodable when all three spans matched and its object
    # endpoint is free: the endpoint must never be a relation subject (dual
    # role keeps SUBJ) and can carry only one incoming OBJT arc.
    matched = [k for k, (sid, _, oid) in enumerate(g.relations)
               if ("object", sid) in spans and ("object", oid) in spans
               and ("predicate", k) in spans]
    subject_ids = {g.relations[k][0] for k in matched}
    objt_parent: dict[int, int] = {}  # object id -> relation index claiming it
    for k in matched:
        oid = g.relations[k][2]
        if oid not in subject_ids and oid not in objt_parent:
            objt_parent[oid] = k
    attrs = [k for k, (oid, _) in enumerate(g.attributes)
             if ("attribute", k) in spans and ("object", oid) in spans]
    rels = set(objt_parent.values())
    unaligned = tuple(
        [("relation", *r) for k, r in enumerate(g.relations) if k not in rels]
        + [("attribute", *a) for k, a in enumerate(g.attributes) if k not in attrs]
        + [("object", o.id, o.label) for o in g.objects if ("object", o.id) not in spans])

    types = [NodeType.NONE] * (len(words) + 1)  # 1-based
    parents = [0] * (len(words) + 1)

    def place(key: tuple[str, int], node_type: NodeType, parent: int):
        start, end = spans[key]  # end is the 1-based head position
        types[end], parents[end] = node_type, parent
        for p in range(start + 1, end):
            types[p], parents[p] = NodeType.SAME, end

    for o in g.objects:
        if ("object", o.id) in spans:
            k = objt_parent.get(o.id)
            if k is None:
                place(("object", o.id), NodeType.SUBJ, 0)
            else:
                place(("object", o.id), NodeType.OBJT, spans["predicate", k][1])
    for k in rels:
        place(("predicate", k), NodeType.PRED, spans["object", g.relations[k][0]][1])
    for k in attrs:
        place(("attribute", k), NodeType.ATTR, spans["object", g.attributes[k][0]][1])

    tokens = tuple(TaggedToken(i, w, types[i], parents[i]) for i, w in enumerate(words, 1))
    coverage = (len(nodes) - len(unaligned)) / len(nodes) if nodes else 1.0
    return AlignmentResult(TaggedSentence(tokens), coverage, unaligned)
