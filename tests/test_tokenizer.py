from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from sgforge.data import SyntheticGrammar, generate_synthetic
from sgforge.graph import canonical_words
from sgforge.tokenizer import (
    ROOT_ID,
    UNK_ID,
    Tokenizer,
    apply_bpe,
    learn_bpe,
    read_vocab,
    write_merges,
    write_vocab,
)


def test_word_mode_encode():
    tok = Tokenizer.from_corpus(["blue bus", "red bus"], mode="word")
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
    tok = Tokenizer("bpe", ("<root>", "<unk>", "<pad>", "<eos>", "b", "u", "s", "us", "bus"),
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


def test_vocab_file_roundtrip():
    tok = Tokenizer.from_corpus(["blue bus red"], mode="word")
    text = write_vocab(tok)
    lines = text.splitlines()
    assert lines[:4] == ["<root>", "<unk>", "<pad>", "<eos>"]
    back = read_vocab(text)
    assert back.tokens == tok.tokens


def test_merges_file_roundtrip():
    tok = Tokenizer.from_corpus(["bus bus sub"], mode="bpe", n_merges=3)
    text = write_merges(tok)
    back = read_vocab(write_vocab(tok), mode="bpe", merges_text=text)
    assert back.merges == tok.merges
    assert back.encode("bus") == tok.encode("bus")


def test_bpe_encode_matches_ranks_built_per_call():
    # encode uses the rank table built once at construction; it must give the
    # same pieces as applying the merges afresh
    corpus = ["blue bus", "red bus on road", "bluebird", "buses and roads"]
    tok = Tokenizer.from_corpus(corpus, mode="bpe", n_merges=12)
    ranks = {pair: i for i, pair in enumerate(tok.merges)}
    for text in corpus + ["unseen rebus", ""]:
        seq = tok.encode(text)
        expected_ids = [ROOT_ID]
        for w in text.split():
            expected_ids.extend(tok._id(p) for p in apply_bpe(w, ranks))
        assert list(seq.ids) == expected_ids
    assert tok.encode("blue bus") == tok.encode("blue bus")


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
    regions = generate_synthetic(SyntheticGrammar(), 400, seed=11)
    words = [w for r in regions for w in canonical_words(r.description)]
    assert learn_bpe(words, 200) == learn_bpe_full_recount(words, 200)
