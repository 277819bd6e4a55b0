"""Six-type token tagging scheme, arc legality, CONLL I/O, and the tag decoder.

Every token carries a node type and a parent position (0 is the virtual ROOT).
Decoding a tagged sentence into a scene graph is total: arcs that cannot be
attached are dropped and recorded, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from sys import intern
from typing import NamedTuple

from .errors import ParseError, cut
from .graph import SceneGraph, build_graph

ROOT = "ROOT"


class NodeType(IntEnum):
    """Token node types. Enum value doubles as the classifier class index."""

    SUBJ = 0
    PRED = 1
    OBJT = 2
    ATTR = 3
    SAME = 4
    NONE = 5


N_NODE_TYPES = len(NodeType)

# child type -> allowed parent kinds (ROOT sentinel or NodeType)
_LEGAL_PARENTS = {
    NodeType.SUBJ: frozenset({ROOT}),
    NodeType.PRED: frozenset({NodeType.SUBJ}),
    NodeType.OBJT: frozenset({NodeType.PRED}),
    NodeType.ATTR: frozenset({NodeType.SUBJ, NodeType.OBJT}),
    NodeType.SAME: frozenset(
        {NodeType.SUBJ, NodeType.PRED, NodeType.OBJT, NodeType.ATTR, NodeType.SAME}
    ),
    NodeType.NONE: frozenset(),
}


class TaggedToken(NamedTuple):
    index: int  # 1-based sentence position
    form: str
    node_type: NodeType
    parent: int  # 0..T, 0 is ROOT


@dataclass(frozen=True)
class TaggedSentence:
    tokens: tuple[TaggedToken, ...]

    def __post_init__(self):
        t = len(self.tokens)
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.index != pos:
                raise ValueError(f"token indices must be contiguous 1..T, got {tok.index} at {pos}")
            if not 0 <= tok.parent <= t:
                raise ValueError(f"parent {tok.parent} out of range 0..{t}")

    def __len__(self) -> int:
        return len(self.tokens)

    def __iter__(self):
        return iter(self.tokens)


def tagged(rows: list[tuple[str, NodeType, int]]) -> TaggedSentence:
    """Build a TaggedSentence from (form, type, parent) rows."""
    return TaggedSentence(
        tuple(TaggedToken(i, f, t, p) for i, (f, t, p) in enumerate(rows, start=1))
    )


# Drop reasons recorded by the decoder.
SELF_REFERENCE = "self_reference"
SAME_CYCLE = "same_cycle"
SAME_TO_NONE = "same_to_none"
ILLEGAL_ARC = "illegal_arc"
SUBJ_NOT_ROOT = "subj_not_root"
PRED_DROPPED = "pred_dropped"
NO_OBJECT = "no_object"
EMPTY_LABEL = "empty_label"

DROP_REASONS = frozenset(
    {
        SELF_REFERENCE,
        SAME_CYCLE,
        SAME_TO_NONE,
        ILLEGAL_ARC,
        SUBJ_NOT_ROOT,
        PRED_DROPPED,
        NO_OBJECT,
        EMPTY_LABEL,
    }
)


@dataclass(frozen=True)
class DecodeReport:
    graph: SceneGraph
    dropped_arcs: tuple[tuple[int, str], ...]  # (child token index, reason)


def decode_tags_to_graph(sent: TaggedSentence) -> DecodeReport:
    """Deterministically decode a tagged sentence into a scene graph.

    SAME tokens merge into the phrase of the first non-SAME token up their
    parent chain; SUBJ/OBJT tokens become object nodes; arcs whose chain head
    is of a kind `_LEGAL_PARENTS` allows attach; attached ATTR tokens emit
    attribute pairs and full OBJT -> PRED -> SUBJ spines emit relations.
    A token is dropped for at most one reason, the first it meets in that
    order, and each drop becomes a dropped_arcs entry; decoding never raises.
    """
    toks = sent.tokens
    # columns indexed by token position; position 0 stands for ROOT
    _, forms, kinds, parents = zip((0, ROOT, ROOT, 0), *toks)
    same, none = NodeType.SAME, NodeType.NONE
    drops: dict[int, str] = {}

    def head(j: int) -> int | str:
        """The first non-SAME token up the parent chain from j, or why there is none."""
        for _ in toks:
            if kinds[j] is not same:
                return ILLEGAL_ARC if j == 0 else SAME_TO_NONE if kinds[j] is none else j
            j = parents[j]
        return SAME_CYCLE

    pieces: dict[int, list[int]] = {}  # phrase head -> its SAME tokens, ascending
    for i, _, kind, parent in toks:
        if kind is same:
            h = SELF_REFERENCE if parent == i else head(parent)
            if isinstance(h, str):
                drops[i] = h
            else:
                pieces.setdefault(h, []).append(i)

    # Labels come first: a parent may follow its child.
    labels: dict[int, str] = {}
    for i, form, kind, _ in toks:
        if kind is not same and kind is not none:
            if i in pieces:
                form = " ".join(forms[k] for k in sorted(pieces[i] + [i]))
            if form.strip():  # build_graph canonicalizes the label
                labels[i] = form
            else:
                drops[i] = EMPTY_LABEL

    attached: dict[int, int] = {}  # child -> head of its parent chain
    for i in labels:
        kind, parent = kinds[i], parents[i]
        if parent == i:
            drops[i] = SELF_REFERENCE
        elif kind is NodeType.SUBJ:  # the arc only says "attach to ROOT"
            if parent != 0:
                drops[i] = SUBJ_NOT_ROOT
        else:
            h = head(parent)  # a reason string is never a label key
            if h in labels and kinds[h] in _LEGAL_PARENTS[kind]:
                attached[i] = h
            else:
                drops[i] = ILLEGAL_ARC

    attributes = [(p, labels[i]) for i, p in attached.items() if kinds[i] is NodeType.ATTR]
    objts = [(i, p) for i, p in attached.items() if kinds[i] is NodeType.OBJT]
    relations = [(attached[p], labels[p], i) for i, p in objts if p in attached]
    drops.update((i, PRED_DROPPED) for i, p in objts if p not in attached)
    preds = {p for _, p in objts}  # an attached PRED among these has a relation
    drops.update((i, NO_OBJECT) for i in attached if kinds[i] is NodeType.PRED and i not in preds)

    objects = [(i, labels[i]) for i in labels if kinds[i] in (NodeType.SUBJ, NodeType.OBJT)]
    return DecodeReport(build_graph(objects, attributes, relations), tuple(sorted(drops.items())))


# CONLL layout: INDEX, FORM, HEAD, ARC_LABEL, NODE_TYPE, tab-separated.
# node type -> a row's columns after FORM but for HEAD: NONE rows have no
# HEAD, and only ATTR and SAME rows carry an ARC_LABEL
_ROW_TAIL = {t: f"\t{t.name if t in (NodeType.ATTR, NodeType.SAME) else '_'}\t{t.name}\n"
             for t in NodeType}
_ROW_TAIL[NodeType.NONE] = "\t_\t_\n"
# (ARC_LABEL, NODE_TYPE) -> node type: the reader accepts only the writer's pairs
_TYPE_OF_TAIL = {tuple(tail.split()): t for t, tail in _ROW_TAIL.items()}


def write_conll(sentences: list[TaggedSentence]) -> str:
    """Serialize sentences; each sentence's rows are followed by one blank line."""
    tail = _ROW_TAIL
    none = NodeType.NONE
    return "".join(
        "".join(f"{t.index}\t{t.form}\t{'_' if t.node_type is none else t.parent}"
                f"{tail[t.node_type]}" for t in sent) + "\n"
        for sent in sentences)


def _decimal(s: str) -> int | None:
    """The int that s spells in write_conll's spelling, str(int), else None."""
    try:
        n = int(s)
    except ValueError:
        return None
    return n if str(n) == s else None


def read_conll(text: str) -> list[TaggedSentence]:
    """Parse CONLL text whose columns are spelled as write_conll writes them:
    INDEX and HEAD in plain decimal, and the writer's ARC_LABEL and NODE_TYPE
    pairs. Raises ParseError with the offending line number.

    Each distinct line is parsed once: a line seen before yields the same
    token when its INDEX is the next position, and is parsed anew otherwise."""
    sentences: list[TaggedSentence] = []
    toks: list[TaggedToken] = []
    parsed: dict[str, TaggedToken] = {}  # line -> its token, for lines that parsed cleanly
    lines = text.split("\n")
    lines.append("")  # ends the last sentence
    for line_no, line in enumerate(lines, start=1):
        tok = parsed.get(line)
        if tok is not None and tok.index == len(toks) + 1:
            toks.append(tok)
            continue
        if not line or line.isspace():
            if toks:
                try:
                    sentences.append(TaggedSentence(tuple(toks)))
                except ValueError:  # a HEAD past the end: rows are line_no - t .. line_no - 1
                    t = len(toks)
                    tok = next(tok for tok in toks if tok.parent > t)
                    raise ParseError(line_no - t - 1 + tok.index,
                                     f"HEAD {cut(str(tok.parent))} exceeds sentence length {t}"
                                     ) from None
                toks = []
            continue
        cols = line.split("\t")
        if len(cols) != 5:
            raise ParseError(line_no, f"expected 5 tab-separated columns, got {len(cols)}")
        idx_s, form, head_s, arc_s, type_s = cols
        index = len(toks) + 1
        if idx_s != str(index):
            n = _decimal(idx_s)
            raise ParseError(line_no, f"bad INDEX {cut(repr(idx_s))}" if n is None
                             else f"non-contiguous INDEX {cut(idx_s)}, expected {index}")
        if not form:
            raise ParseError(line_no, "empty FORM")
        if form.split() != [form]:  # canonical_words' rule: a token is one word
            raise ParseError(line_no, f"FORM {cut(repr(form))} is not one word")
        node_type = _TYPE_OF_TAIL.get((arc_s, type_s))
        if node_type is None:
            raise ParseError(line_no, f"ARC_LABEL {cut(repr(arc_s))} and NODE_TYPE "
                             f"{cut(repr(type_s))} match no node type")
        if node_type is NodeType.NONE:
            if head_s != "_":
                raise ParseError(line_no,
                                 f"HEAD {cut(repr(head_s))} on a NONE row, which takes '_'")
            parent = 0
        elif head_s == "_":
            raise ParseError(line_no, f"missing HEAD for node type {type_s}")
        else:
            parent = _decimal(head_s)
            if parent is None:
                raise ParseError(line_no, f"bad HEAD {cut(repr(head_s))}")
            if parent < 0:
                raise ParseError(line_no, f"negative HEAD {cut(head_s)}")
        # one string per distinct form: a corpus repeats a small vocabulary
        parsed[line] = tok = TaggedToken(index, intern(form), node_type, parent)
        toks.append(tok)
    return sentences
