import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.data import generate_synthetic
from sgforge.graph import canonical_words
from sgforge.tokenizer import (
    RESERVED,
    ROOT_ID,
    UNK_ID,
    TokenSequence,
    Tokenizer,
    apply_bpe,
    learn_bpe,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import corpora  # noqa: E402


def test_word_mode_encode():
    tok = Tokenizer.from_corpus(["blue bus", "red bus"], mode="word")
    assert tok.tokens == ("<root>", "<unk>", "blue", "bus", "red")
    seq = tok.encode("blue bus")
    assert seq.ids[0] == ROOT_ID
    assert len(seq.ids) == 3
    assert seq.word_heads == (1, 2)
    assert tok.tokens[seq.ids[1]] == "blue"
    assert tok.tokens[seq.ids[2]] == "bus"


def test_word_mode_unknown_maps_to_unk():
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    seq = tok.encode("green bus")
    assert seq.ids[1] == UNK_ID


def test_empty_text_is_root_only():
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    seq = tok.encode("")
    assert seq.ids == (ROOT_ID,)
    assert seq.word_heads == ()


def test_apply_bpe_toy_merges():
    # hand-applied: b u s -> b us -> bus
    ranks = {("u", "s"): 0, ("b", "us"): 1}
    assert apply_bpe("bus", ranks) == ["bus"]
    assert apply_bpe("sub", ranks) == ["s", "u", "b"]


def test_bpe_encode_marks_word_heads():
    tok = Tokenizer("bpe", ("<root>", "<unk>", "b", "u", "s", "us", "bus"),
                    (("u", "s"), ("b", "us")))
    seq = tok.encode("bus")
    assert seq.ids == (ROOT_ID, tok.tokens.index("bus"))
    assert seq.word_heads == (1,)
    # an unmergeable word spans several subword positions, head is the last
    seq2 = tok.encode("sub bus")
    assert seq2.word_heads == (3, 4)


def test_learn_bpe_learns_frequent_pairs():
    merges = learn_bpe(["bus"] * 5 + ["sub"], n_merges=2)
    assert len(merges) == 2
    ranks = {pair: i for i, pair in enumerate(merges)}
    assert apply_bpe("bus", ranks) == ["bus"]


def encode_reference(tok, text):
    """BPE encode with no memo and a rank table built per call."""
    ranks = {pair: i for i, pair in enumerate(tok.merges)}
    ids = [ROOT_ID]
    heads = []
    for w in canonical_words(text):
        ids.extend(tok._id(p) for p in apply_bpe(w, ranks))
        heads.append(len(ids) - 1)
    return TokenSequence(tuple(ids), tuple(heads))


def test_bpe_encode_matches_ranks_built_per_call():
    # encode uses the rank table built once at construction; it must give the
    # same pieces as applying the merges afresh
    corpus = ["blue bus", "red bus on road", "bluebird", "buses and roads"]
    tok = Tokenizer.from_corpus(corpus, mode="bpe", n_merges=12)
    for text in corpus + ["unseen rebus", ""]:
        assert tok.encode(text) == encode_reference(tok, text)
    assert tok.encode("blue bus") == tok.encode("blue bus")


def test_bpe_encode_memo_equals_uncached_on_long_corpus():
    # the bench's long corpus: BPE learned on the training part, then every
    # description encoded on a cold memo and again on a warm one
    records = corpora.long_corpus(1, 600, 300)
    tok = Tokenizer.from_corpus([r["phrase"] for r in records[:300]], mode="bpe")
    expected = [encode_reference(tok, r["phrase"]) for r in records]
    for _ in range(2):
        assert [tok.encode(r["phrase"]) for r in records] == expected


def learn_bpe_full_recount(words, n_merges):
    """Reference learner: re-counts every pair of every word for each merge."""
    counts = Counter(words)
    pieces = {w: tuple(w) for w in counts}
    merges = []
    for _ in range(n_merges):
        pair_counts = Counter()
        for w, ps in pieces.items():
            for a, b in zip(ps, ps[1:]):
                pair_counts[(a, b)] += counts[w]
        if not pair_counts:
            break
        best = max(pair_counts, key=lambda p: (pair_counts[p], p))
        merges.append(best)
        merged = best[0] + best[1]
        new_pieces = {}
        for w, ps in pieces.items():
            out = []
            i = 0
            while i < len(ps):
                if i + 1 < len(ps) and (ps[i], ps[i + 1]) == best:
                    out.append(merged)
                    i += 2
                else:
                    out.append(ps[i])
                    i += 1
            new_pieces[w] = tuple(out)
        pieces = new_pieces
    return merges


def test_learn_bpe_overlapping_pairs_merge_left_to_right():
    # "aaa" holds (a, a) twice but merges it once, leaving (aa, a)
    assert learn_bpe(["aaa"], 5) == learn_bpe_full_recount(["aaa"], 5) == [
        ("a", "a"), ("aa", "a")]
    assert learn_bpe(["aaaa", "ab"], 5) == learn_bpe_full_recount(["aaaa", "ab"], 5)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.text(alphabet="abc", min_size=1, max_size=9), min_size=0, max_size=25),
    st.integers(min_value=0, max_value=40),
)
def test_learn_bpe_equals_full_recount_on_small_alphabets(words, n_merges):
    # two or three letters give overlapping runs and many count ties
    assert learn_bpe(words, n_merges) == learn_bpe_full_recount(words, n_merges)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=12), min_size=1, max_size=15))
def test_learn_bpe_equals_full_recount_until_exhausted(words):
    assert learn_bpe(words, 1000) == learn_bpe_full_recount(words, 1000)


def test_learn_bpe_equals_full_recount_on_generated_corpus():
    regions = generate_synthetic(400, seed=11)
    words = [w for r in regions for w in canonical_words(r.description)]
    assert learn_bpe(words, 200) == learn_bpe_full_recount(words, 200)


def apply_bpe_first_occurrence(word, ranks):
    """Reference apply: merges only the first occurrence of the best-ranked
    pair per step, so each occurrence of a pair is merged in its own step."""
    parts = list(word)
    while len(parts) > 1:
        best_rank = None
        best_pos = -1
        for i, pair in enumerate(zip(parts, parts[1:])):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pos = i
        if best_rank is None:
            break
        parts[best_pos : best_pos + 2] = [parts[best_pos] + parts[best_pos + 1]]
    return parts


def all_words(alphabet, longest):
    return ["".join(letters) for n in range(1, longest + 1)
            for letters in product(alphabet, repeat=n)]


@pytest.mark.parametrize("alphabet, longest", [("ab", 7), ("abc", 5)])
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_bpe_equals_first_occurrence_apply_on_learned_merges(alphabet, longest, data):
    # learned lists are in learning order, where merging every occurrence of a
    # pair at once and merging them one step each give the same pieces
    words = data.draw(st.lists(st.text(alphabet=alphabet, min_size=1, max_size=9), max_size=25))
    merges = learn_bpe(words, data.draw(st.integers(min_value=0, max_value=40)))
    Tokenizer("bpe", RESERVED + made_tokens(merges), tuple(merges))  # passes the order check
    ranks = {pair: i for i, pair in enumerate(merges)}
    for w in all_words(alphabet, longest):
        assert apply_bpe(w, ranks) == apply_bpe_first_occurrence(w, ranks)


def made_tokens(merges):
    """The symbols the merges make, each once, in the order they first make them."""
    return tuple(dict.fromkeys(a + b for a, b in merges))


def from_corpus_symbol_loop(texts, n_merges=200):
    """Reference BPE vocabulary: appends each merged symbol it has not yet seen."""
    words = [w for t in texts for w in canonical_words(t)]
    merges = learn_bpe(words, n_merges)
    symbols = sorted({c for w in words for c in w})
    for a, b in merges:
        merged = a + b
        if merged not in symbols:
            symbols.append(merged)
    return RESERVED + tuple(symbols), tuple(merges)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(alphabet="abc \t", max_size=20), max_size=12),
       st.integers(min_value=0, max_value=60))
def test_from_corpus_vocabulary_equals_symbol_loop(texts, n_merges):
    tok = Tokenizer.from_corpus(texts, mode="bpe", n_merges=n_merges)
    assert (tok.tokens, tok.merges) == from_corpus_symbol_loop(texts, n_merges)


@pytest.mark.parametrize("merges, word, first_occurrence, every_occurrence, needle", [
    # "aa" is used before any merge makes it
    ([("aa", "a"), ("a", "a")], "aaaa", ["aaa", "a"], ["aa", "aa"],
     "merge 'aa' 'a' uses 'aa' before a merge makes it"),
    # "bab" is made twice, by the third and the fourth merge
    ([("b", "a"), ("a", "b"), ("b", "ab"), ("bab", "ba"), ("ba", "b"), ("b", "b"),
      ("babba", "ab")], "babbab", ["babba", "b"], ["bab", "bab"],
     "merge 'ba' 'b' makes 'bab' a second time"),
], ids=["used-before-made", "made-twice"])
def test_tokenizer_rejects_merges_out_of_learning_order(merges, word, first_occurrence,
                                                       every_occurrence, needle):
    # out of learning order the two applies differ, so such a list is refused
    ranks = {pair: i for i, pair in enumerate(merges)}
    assert apply_bpe_first_occurrence(word, ranks) == first_occurrence
    assert apply_bpe(word, ranks) == every_occurrence
    with pytest.raises(ValueError, match=needle):
        Tokenizer("bpe", RESERVED + made_tokens(merges), tuple(merges))


@pytest.mark.parametrize("mode, tokens, merges, needle", [
    ("word", RESERVED[::-1] + ("bus",), (),
     r'tokenizer tokens must begin with \["<root>", "<unk>"'),
    ("word", RESERVED + ("bus", "red", "bus"), (), 'tokenizer tokens repeat "bus"'),
    ("word", RESERVED + ("b", "u", "bu"), (("b", "u"),), "word-mode tokenizer has merges"),
    ("bpe", RESERVED + ("b", "u"), (("b", "u"),),
     'tokenizer merge product "bu" is not among its tokens'),
], ids=["reserved-swapped", "repeated", "word-merges", "product-missing"])
def test_tokenizer_rejects_what_from_corpus_never_makes(mode, tokens, merges, needle):
    with pytest.raises(ValueError, match=needle):
        Tokenizer(mode, tokens, merges)


def test_from_corpus_rejects_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown tokenizer mode 'wrod'"):
        Tokenizer.from_corpus(["red bus"], mode="wrod")
