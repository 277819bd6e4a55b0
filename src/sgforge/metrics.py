"""Tuple-matching F-score between predicted and reference scene graphs.

Scoring matches label tuples one-to-one (exact pairs first, then lexicon
synonyms) in a canonical order, then derives precision, recall, and F1. The
limited-tuples mode caps the reference count by the number of useful words in
the region description.
"""

from __future__ import annotations

from dataclasses import dataclass

from .align import Lexicon, EMPTY_LEXICON, useful_word_count
from .errors import IdMismatchError
from .graph import SceneGraph, TupleSet, extract_tuples


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


def match_count(pred: TupleSet, ref: TupleSet, lex: Lexicon = EMPTY_LEXICON) -> int:
    """Greedy one-to-one matching size.

    Exact-equality pairs are matched first, then synonym pairs; iteration is
    canonical (unary, binary, ternary, lexicographic) so the result does not
    depend on construction order.
    """
    pred_tuples = pred.ordered()
    ref_left = set(ref.ordered())
    matches = 0
    unmatched_pred = []
    for t in pred_tuples:
        if t in ref_left:
            ref_left.remove(t)
            matches += 1
        else:
            unmatched_pred.append(t)
    ref_ordered = [t for t in ref.ordered() if t in ref_left]
    for t in unmatched_pred:
        for r in ref_ordered:
            if tuple_match(t, r, lex):
                ref_ordered.remove(r)
                matches += 1
                break
    return matches


def spice_f1(
    pred: TupleSet,
    ref: TupleSet,
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
    reference_graphs: list[SceneGraph],
    descriptions: list[str],
    lex: Lexicon = EMPTY_LEXICON,
    limited: bool = False,
    region_ids: list | None = None,
) -> tuple[dict, list[dict]]:
    """Per-region scores plus a corpus aggregate (mean of per-region F).

    Regions with an empty reference tuple set are skipped and counted. The
    three collections must be parallel; region_ids, when given, must match
    them element-wise.
    """
    if not (len(predicted_graphs) == len(reference_graphs) == len(descriptions)):
        raise IdMismatchError(
            f"parallel collections expected, got {len(predicted_graphs)} predictions, "
            f"{len(reference_graphs)} references, {len(descriptions)} descriptions"
        )
    if region_ids is None:
        region_ids = list(range(len(reference_graphs)))
    elif len(region_ids) != len(reference_graphs):
        raise IdMismatchError("region_ids not parallel to graphs")

    rows: list[dict] = []
    f_sum = p_sum = r_sum = 0.0
    scored = 0
    skipped = 0
    totals = {"matches": 0, "num_pred": 0, "num_ref": 0}
    for rid, pred_g, ref_g, desc in zip(
        region_ids, predicted_graphs, reference_graphs, descriptions
    ):
        ref_tuples = extract_tuples(ref_g)
        pred_tuples = extract_tuples(pred_g)
        if len(ref_tuples) == 0:
            skipped += 1
            rows.append(
                {"region_id": rid, "matches": 0, "num_pred": len(pred_tuples),
                 "num_ref": 0, "p": 0.0, "r": 0.0, "f": 0.0, "skipped": True}
            )
            continue
        cap = useful_word_count(desc) if limited else None
        s = spice_f1(pred_tuples, ref_tuples, lex, cap=cap)
        rows.append(
            {"region_id": rid, "matches": s.matches, "num_pred": s.num_pred,
             "num_ref": s.num_ref, "p": s.precision, "r": s.recall, "f": s.f1}
        )
        f_sum += s.f1
        p_sum += s.precision
        r_sum += s.recall
        scored += 1
        totals["matches"] += s.matches
        totals["num_pred"] += s.num_pred
        totals["num_ref"] += s.num_ref
    aggregate = {
        "regions": len(reference_graphs),
        "scored": scored,
        "skipped_empty_ref": skipped,
        "mean_f": f_sum / scored if scored else 0.0,
        "mean_p": p_sum / scored if scored else 0.0,
        "mean_r": r_sum / scored if scored else 0.0,
        **totals,
    }
    return aggregate, rows
