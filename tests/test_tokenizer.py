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
