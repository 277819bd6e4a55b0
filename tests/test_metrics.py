import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.align import EMPTY_LEXICON, Lexicon
from sgforge.errors import IdMismatchError
from sgforge.graph import TupleSet, build_graph, extract_tuples
from sgforge.metrics import Scores, evaluate_corpus, match_count, spice_f1, tuple_match


def ts(*tuples) -> TupleSet:
    unary = frozenset(t for t in tuples if len(t) == 1)
    binary = frozenset(t for t in tuples if len(t) == 2)
    ternary = frozenset(t for t in tuples if len(t) == 3)
    return TupleSet(unary, binary, ternary)


BUS_PRED = ts(("bus",), ("bus", "red"), ("bus", "blue"))
BUS_REF = ts(("bus",), ("bus", "red"), ("bus", "passenger"), ("bus", "black"), ("bus", "white"))


def test_tuple_match_exact():
    assert tuple_match(("bus", "red"), ("bus", "red"))
    assert not tuple_match(("bus", "red"), ("bus", "blue"))
    assert not tuple_match(("bus",), ("bus", "red"))


def test_tuple_match_synonym():
    lex = Lexicon.from_pairs({"cat": ["feline"]})
    assert tuple_match(("feline",), ("cat",), lex)
    assert tuple_match(("cat", "red"), ("feline", "red"), lex)


def test_spice_worked_example_base():
    s = spice_f1(BUS_PRED, BUS_REF)
    assert (s.matches, s.num_pred, s.num_ref) == (2, 3, 5)
    assert s.precision == pytest.approx(2 / 3)
    assert s.recall == pytest.approx(2 / 5)
    assert s.f1 == 0.5


def test_spice_worked_example_limited():
    # cap 3: "blue and red bus" has three useful words
    s = spice_f1(BUS_PRED, BUS_REF, cap=3)
    assert (s.matches, s.num_pred, s.num_ref) == (2, 3, 3)
    assert s.f1 == 2 / 3


def test_spice_perfect_prediction():
    s = spice_f1(BUS_REF, BUS_REF)
    assert s.f1 == 1.0


def test_spice_empty_prediction():
    s = spice_f1(ts(), BUS_REF)
    assert (s.precision, s.recall, s.f1) == (0.0, 0.0, 0.0)


def test_scores_invariant():
    with pytest.raises(ValueError):
        Scores(3, 2, 5)


def test_negative_cap_rejected():
    with pytest.raises(ValueError):
        spice_f1(BUS_PRED, BUS_REF, cap=-1)


LABELS = ["cat", "dog", "bus", "red", "blue", "on", "kitty", "auto"]
# synonym groups are disjoint, which keeps greedy matching optimal
GROUP_LEX = Lexicon.from_pairs({"cat": ["kitty"], "bus": ["auto"]})


def random_tuple_set(rng, max_tuples=4):
    tuples = []
    for _ in range(rng.randint(0, max_tuples)):
        arity = rng.choice([1, 2, 3])
        tuples.append(tuple(rng.choice(LABELS) for _ in range(arity)))
    return ts(*tuples)


def max_matching(pred: TupleSet, ref: TupleSet, lex: Lexicon) -> int:
    """Brute-force maximum bipartite matching for instances up to 8 tuples."""
    preds = pred.ordered()
    refs = ref.ordered()
    best = 0
    refs_idx = range(len(refs))
    for k in range(min(len(preds), len(refs)), 0, -1):
        for pred_subset in itertools.combinations(range(len(preds)), k):
            for ref_perm in itertools.permutations(refs_idx, k):
                if all(
                    tuple_match(preds[p], refs[r], lex)
                    for p, r in zip(pred_subset, ref_perm)
                ):
                    return k
    return best


def test_greedy_equals_bruteforce_small_instances():
    rng = random.Random(99)
    for _ in range(300):
        pred = random_tuple_set(rng)
        ref = random_tuple_set(rng)
        if len(pred) + len(ref) > 8:
            continue
        assert match_count(pred, ref, GROUP_LEX) == max_matching(pred, ref, GROUP_LEX)


def reference_match_count(pred: TupleSet, ref: TupleSet, lex: Lexicon = EMPTY_LEXICON) -> int:
    """The list-walking match_count that the set-intersection one replaced,
    kept verbatim as the reference."""
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


# "bus" and "cat" share the synonym "dog", and "bus" has "kitty" too, so the
# count depends on the greedy order: ("bus",) takes ("dog",) before ("cat",) can
OVERLAP_LEX = Lexicon.from_pairs({"bus": ["dog", "kitty"], "cat": ["dog"]})


def _arity(n):
    return st.frozensets(st.tuples(*[st.sampled_from(LABELS)] * n), max_size=4)


tuple_sets = st.builds(TupleSet, _arity(1), _arity(2), _arity(3))


@settings(max_examples=300, derandomize=True)
@given(tuple_sets, tuple_sets, st.sampled_from([GROUP_LEX, EMPTY_LEXICON, OVERLAP_LEX]))
def test_match_count_equals_reference(pred, ref, lex):
    assert match_count(pred, ref, lex) == reference_match_count(pred, ref, lex)
    assert match_count(pred, pred, lex) == len(pred)


def test_match_count_follows_the_canonical_order():
    # ("bus",) comes first and takes the first reference it matches,
    # ("auto",), the only one ("cat",) could have taken
    lex = Lexicon.from_pairs({"bus": ["auto", "blue", "dog", "kitty", "red"], "cat": ["auto"]})
    pred = ts(("bus",), ("cat",))
    ref = ts(("auto",), ("blue",), ("dog",), ("kitty",), ("red",))
    assert match_count(pred, ref, lex) == reference_match_count(pred, ref, lex) == 1


def test_limited_mode_dominance_randomized():
    rng = random.Random(7)
    for _ in range(1000):
        pred = random_tuple_set(rng, max_tuples=6)
        ref = random_tuple_set(rng, max_tuples=6)
        cap = rng.randint(0, 8)
        base = spice_f1(pred, ref, GROUP_LEX)
        limited = spice_f1(pred, ref, GROUP_LEX, cap=cap)
        assert limited.f1 >= base.f1, (pred, ref, cap)


@given(st.integers(0, 5), st.integers(0, 5), st.integers(0, 8))
def test_limited_mode_precision_unchanged(n_shared, n_extra, cap):
    shared = [("l%d" % i,) for i in range(n_shared)]
    extra = [("x%d" % i, "y") for i in range(n_extra)]
    pred = ts(*(shared + extra))
    ref = ts(*shared) if shared else ts(("z", "z", "z"),)
    base = spice_f1(pred, ref)
    limited = spice_f1(pred, ref, cap=cap)
    assert limited.precision == base.precision
    assert limited.recall >= base.recall


def test_matching_insertion_order_invariant():
    a = ts(("cat",), ("dog",), ("cat", "red"))
    b = ts(("cat", "red"), ("dog",), ("cat",))
    ref = ts(("cat",), ("cat", "red"))
    assert match_count(a, ref) == match_count(b, ref)


def test_monotonicity_adding_matched_tuple():
    pred = ts(("cat",))
    ref = ts(("cat",), ("dog",))
    grown = ts(("cat",), ("dog",))
    assert spice_f1(grown, ref).f1 >= spice_f1(pred, ref).f1


def test_monotonicity_adding_unmatched_tuple():
    pred = ts(("cat",))
    ref = ts(("cat",))
    grown = ts(("cat",), ("zebra",))
    assert spice_f1(grown, ref).precision < spice_f1(pred, ref).precision


def g(objects, attributes=(), relations=()):
    return build_graph(objects, attributes, relations)


def test_evaluate_corpus_perfect():
    graph = g([(1, "cat")], [(1, "brown")])
    aggregate, rows = evaluate_corpus([graph], [graph], ["brown cat"])
    assert aggregate["mean_f"] == 1.0
    assert rows[0]["f"] == 1.0


def test_evaluate_corpus_mean():
    good = g([(1, "cat")])
    bad = g([(1, "zebra")])
    ref = g([(1, "cat")])
    aggregate, _ = evaluate_corpus([good, bad], [ref, ref], ["cat", "cat"])
    assert aggregate["mean_f"] == 0.5


def test_evaluate_corpus_skips_empty_refs():
    pred = g([(1, "cat")])
    aggregate, rows = evaluate_corpus(
        [pred, pred], [g([(1, "cat")]), g([])], ["cat", "cat"]
    )
    assert aggregate["scored"] == 1
    assert aggregate["skipped_empty_ref"] == 1
    assert aggregate["mean_f"] == 1.0
    assert rows[1]["skipped"] is True


def test_evaluate_corpus_id_mismatch():
    with pytest.raises(IdMismatchError):
        evaluate_corpus([g([(1, "cat")])], [], [])


def test_evaluate_corpus_limited_uses_description_cap():
    pred = g([(1, "bus")], [(1, "red"), (1, "blue")])
    ref = g(
        [(1, "bus")],
        [(1, "red"), (1, "passenger"), (1, "black"), (1, "white")],
    )
    base_agg, _ = evaluate_corpus([pred], [ref], ["blue and red bus"])
    lim_agg, _ = evaluate_corpus([pred], [ref], ["blue and red bus"], limited=True)
    assert base_agg["mean_f"] == 0.5
    assert lim_agg["mean_f"] == 2 / 3
