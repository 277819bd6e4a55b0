"""Tuple-matching F-score between predicted and reference scene graphs.

Scoring matches a graph's one set of label tuples one-to-one (exact tuples
first, then lexicon synonyms) in lexicographic order, then derives precision,
recall, and F1. The limited-tuples mode caps the reference count by the number
of useful words in the region description.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import Lexicon, EMPTY_LEXICON, useful_word_count
from .data import Region
from .errors import IdMismatchError
from .graph import SceneGraph, Tuples, extract_tuples


@dataclass(frozen=True)
class Scores:
    matches: int
    num_pred: int
    num_ref: int

    @property
    def precision(self) -> float:
        return self.matches / self.num_pred if self.num_pred else 0.0

    @property
    def recall(self) -> float:
        return self.matches / self.num_ref if self.num_ref else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0

    def __post_init__(self):
        if self.matches > min(self.num_pred, self.num_ref):
            raise ValueError("matches cannot exceed either tuple count")


def tuple_match(a: tuple[str, ...], b: tuple[str, ...], lex: Lexicon = EMPTY_LEXICON) -> bool:
    """Component-wise label equality, allowing lexicon synonyms."""
    if len(a) != len(b):
        return False
    return all(lex.match(x, y) for x, y in zip(a, b))


def match_count(pred: Tuples, ref: Tuples, lex: Lexicon = EMPTY_LEXICON) -> int:
    """Greedy one-to-one matching size.

    Equal tuples are matched first. Then each leftover predicted tuple, in
    lexicographic order, takes the first leftover reference tuple it matches
    through lexicon synonyms, so the result does not depend on construction
    order. Only tuples of one length can match, and sorting keeps each
    length's own order. Without synonyms no leftover can match: a predicted
    tuple equal to a reference one is already matched.
    """
    exact = pred & ref
    matches = len(exact)
    if lex:
        ref_left = sorted(ref - exact)
        for t in sorted(pred - exact):
            for i, candidate in enumerate(ref_left):
                if tuple_match(t, candidate, lex):
                    del ref_left[i]
                    matches += 1
                    break
    return matches


def spice_f1(
    pred: Tuples,
    ref: Tuples,
    lex: Lexicon = EMPTY_LEXICON,
    cap: int | None = None,
) -> Scores:
    """Score predicted tuples against reference tuples.

    cap=None is base mode. In limited mode the reference count is clamped to
    the cap, but never below the number of matches: precision stays untouched
    and the limited F can only meet or exceed the base F.
    """
    matches = match_count(pred, ref, lex)
    num_pred = len(pred)
    num_ref = len(ref)
    if cap is not None:
        if cap < 0:
            raise ValueError("cap must be non-negative")
        num_ref = max(min(num_ref, cap), matches)
    return Scores(matches, num_pred, num_ref)


def evaluate_corpus(
    predicted_graphs: list[SceneGraph],
    references: list[Region],
    lex: Lexicon = EMPTY_LEXICON,
    limited: bool = False,
) -> tuple[dict, list[dict]]:
    """Per-region scores plus a corpus aggregate read from them (mean of per-region F).

    The i-th prediction is scored against the i-th reference region's graph;
    each row carries that region's id. Regions with an empty reference tuple
    set are skipped and counted.
    """
    if len(predicted_graphs) != len(references):
        raise IdMismatchError(f"parallel collections expected, got {len(predicted_graphs)} "
                              f"predictions and {len(references)} references")

    rows: list[dict] = []
    for pred_g, ref in zip(predicted_graphs, references):
        ref_tuples = extract_tuples(ref.graph)
        pred_tuples = extract_tuples(pred_g)
        if not ref_tuples:
            rows.append(
                {"region_id": ref.region_id, "matches": 0, "num_pred": len(pred_tuples),
                 "num_ref": 0, "p": 0.0, "r": 0.0, "f": 0.0, "skipped": True}
            )
            continue
        cap = useful_word_count(ref.description) if limited else None
        s = spice_f1(pred_tuples, ref_tuples, lex, cap=cap)
        rows.append(
            {"region_id": ref.region_id, "matches": s.matches, "num_pred": s.num_pred,
             "num_ref": s.num_ref, "p": s.precision, "r": s.recall, "f": s.f1}
        )
    scored = [row for row in rows if "skipped" not in row]

    def mean(key: str) -> float:
        return sum(row[key] for row in scored) / len(scored) if scored else 0.0

    aggregate = {
        "regions": len(references),
        "scored": len(scored),
        "skipped_empty_ref": len(rows) - len(scored),
        "mean_f": mean("f"),
        "mean_p": mean("p"),
        "mean_r": mean("r"),
        **{key: sum(row[key] for row in scored) for key in ("matches", "num_pred", "num_ref")},
    }
    return aggregate, rows
