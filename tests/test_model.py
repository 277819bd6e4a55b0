import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sgforge.errors import LengthMismatchError, SequenceTooLongError
from sgforge.model import (
    MAX_PARAMS,
    ModelConfig,
    ModelOutputs,
    _layer_norm,
    _layer_norm_backward,
    _pad,
    _rows,
    forward,
    gelu,
    gelu_grad,
    init_params,
    loss_and_grads,
    loss_from_outputs,
    loss_output_grads,
    loss_terms,
    param_shapes,
    predict,
    softmax,
    target_arrays,
)
from sgforge.tags import NodeType, TaggedSentence, TaggedToken, tagged
from sgforge.tokenizer import TokenSequence, Tokenizer

T = NodeType

SMALL = ModelConfig(
    vocab_size=12, d_model=16, n_layers=2, n_heads=2, d_ff=32, max_len=8, d_qk=16
)


def small_seq(t=6):
    ids = (0,) + tuple(4 + i % 8 for i in range(t))
    return TokenSequence(ids, tuple(range(1, t + 1)))


def test_config_validates():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, d_model=10, n_heads=3)


@pytest.mark.parametrize("field", ["vocab_size", "n_layers"])
def test_config_rejects_negative_vocab_size_or_n_layers(field):
    with pytest.raises(ValueError, match="vocab_size and n_layers must not be negative"):
        ModelConfig(**{"vocab_size": 10, field: -1})


def test_config_caps_the_parameter_count_without_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="parameters, more than 200,000,000"):
            ModelConfig(vocab_size=10, d_model=100_000)
        with pytest.raises(ValueError, match="parameters"):
            ModelConfig(vocab_size=10, n_layers=10**12)  # counted, not enumerated
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the cap is inclusive and counts exactly the tensors param_shapes lists
    small = dict(d_model=8, n_layers=2, n_heads=2, d_ff=8, max_len=4, d_qk=4)
    base = sum(math.prod(s) for s in param_shapes(ModelConfig(vocab_size=0, **small)).values())
    vocab = (MAX_PARAMS - base) // 8  # each vocabulary entry adds d_model parameters; exact
    cfg = ModelConfig(vocab_size=vocab, **small)
    assert sum(math.prod(s) for s in param_shapes(cfg).values()) == MAX_PARAMS
    with pytest.raises(ValueError, match="parameters"):
        ModelConfig(vocab_size=vocab + 1, **small)


def alone(out, i, t):
    """Example i's own unpadded rows of a padded batch, as a batch of one."""
    return ModelOutputs(out.class_logits[i : i + 1, :t], out.parent_logits[i : i + 1, :t, : t + 1])


def test_forward_shapes():
    params = init_params(SMALL, seed=0)
    out = forward(params, SMALL, [small_seq(6), small_seq(2)])
    assert out.class_logits.shape == (2, 6, 6)
    assert out.parent_logits.shape == (2, 6, 7)


def test_forward_single_token():
    params = init_params(SMALL, seed=0)
    out = forward(params, SMALL, [small_seq(1)])
    assert out.parent_logits.shape == (1, 1, 2)
    probs = softmax(out.parent_logits)
    assert probs.sum(axis=-1) == pytest.approx(1.0, abs=1e-6)


def test_forward_too_long():
    params = init_params(SMALL, seed=0)
    with pytest.raises(SequenceTooLongError):
        forward(params, SMALL, [small_seq(SMALL.max_len + 1)])


def test_zero_head_weights_give_uniform_parents():
    params = init_params(SMALL, seed=0)
    params["head.w_q"][:] = 0.0
    out = forward(params, SMALL, [small_seq(4)])
    probs = softmax(out.parent_logits)
    assert np.allclose(probs, 1.0 / 5)


def test_parent_softmax_rows_sum_to_one():
    cfg = ModelConfig(vocab_size=8, d_model=8, n_layers=1, n_heads=2, d_ff=16,
                      max_len=6, d_qk=8)
    rng = np.random.default_rng(123)
    for trial in range(1000):
        params = init_params(cfg, seed=trial)
        t = int(rng.integers(1, 6))
        ids = (0,) + tuple(int(x) for x in rng.integers(4, 8, size=t))
        out = forward(params, cfg, [TokenSequence(ids, tuple(range(1, t + 1)))])
        sums = softmax(out.parent_logits).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_backbone_is_causal():
    # hidden state at position t must not change when a later token changes;
    # verified through class logits, which read position-wise hidden states
    params = init_params(SMALL, seed=1)
    base = small_seq(5)
    changed = TokenSequence(base.ids[:4] + (11,) + base.ids[5:], base.word_heads)
    out_a, out_b = forward(params, SMALL, [base, changed]).class_logits
    # positions before the change (rows 0..2 for tokens 1..3) are identical
    assert np.array_equal(out_a[:3], out_b[:3])
    assert not np.array_equal(out_a[3], out_b[3])


def test_gelu_matches_closed_form_and_keeps_input():
    # reference: the tanh form written with powers, as in the GELU paper
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    x = np.linspace(-6.0, 6.0, 241)
    kept = x.copy()
    t = np.tanh(c * (x + a * x**3))
    ref = 0.5 * x * (1.0 + t)
    ref_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3.0 * a * x**2)
    g, tanh = gelu(x)
    assert np.allclose(g, ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(tanh, t, rtol=1e-12, atol=1e-14)
    kept_tanh = tanh.copy()
    assert np.allclose(gelu_grad(x, tanh), ref_grad, rtol=1e-12, atol=1e-14)
    assert np.array_equal(tanh, kept_tanh)
    # float32: the powers form itself is off by up to ~1.2e-6 near tanh = -1
    x32 = x.astype(np.float32)
    g32, tanh32 = gelu(x32)
    assert g32.dtype == tanh32.dtype == gelu_grad(x32, tanh32).dtype == np.float32
    assert np.allclose(g32, ref, rtol=1e-5, atol=2e-6)
    assert np.allclose(gelu_grad(x32, tanh32), ref_grad, rtol=1e-5, atol=4e-6)
    assert np.array_equal(x, kept)


def test_loss_uniform_class_logits():
    # uniform logits: class term is ln 6 per position
    outputs = ModelOutputs(np.zeros((1, 3, 6)), np.zeros((1, 3, 4)))
    types = np.array([[int(T.NONE)] * 3])
    parents = np.zeros((1, 3), dtype=int)
    [loss] = loss_from_outputs(outputs, types, parents, 1.0)
    assert loss == pytest.approx(math.log(6))


def test_loss_all_none_ignores_parent_logits():
    rng = np.random.default_rng(0)
    cls = rng.normal(size=(1, 4, 6))
    types = np.array([[int(T.NONE)] * 4])
    parents = np.array([[0, 1, 2, 3]])
    base = loss_from_outputs(ModelOutputs(cls, np.zeros((1, 4, 5))), types, parents, 1.0)
    perturbed = loss_from_outputs(
        ModelOutputs(cls, rng.normal(size=(1, 4, 5)) * 100), types, parents, 1.0
    )
    assert perturbed - base == 0.0


def test_parent_grad_zero_at_none_positions():
    rng = np.random.default_rng(1)
    outputs = ModelOutputs(rng.normal(size=(1, 4, 6)), rng.normal(size=(1, 4, 5)))
    types = np.array([[int(T.SUBJ), int(T.NONE), int(T.ATTR), int(T.NONE)]])
    parents = np.array([[0, 0, 4, 2]])
    [_], [d_parent] = loss_output_grads(outputs, types, parents, 0.7)
    assert np.all(d_parent[1] == 0.0)
    assert np.all(d_parent[3] == 0.0)
    assert np.any(d_parent[0] != 0.0)


def test_loss_length_mismatch():
    params = init_params(SMALL, seed=0)
    out = forward(params, SMALL, [small_seq(3)])
    with pytest.raises(LengthMismatchError):
        loss_from_outputs(out, np.zeros((1, 2), dtype=int), np.zeros((1, 2), dtype=int), 1.0)


def test_loss_and_grads_length_mismatch():
    params = init_params(SMALL, seed=0)
    short = np.zeros(2, dtype=int)
    with pytest.raises(LengthMismatchError, match="sequence has 3 positions, targets 2"):
        loss_and_grads(params, SMALL, [small_seq(3)], [short], [short], 1.0)


def batch_loss(params, cfg, seqs, types, parents, lam):
    """Mean per-example loss, the quantity loss_and_grads differentiates, each
    example scored on its own unpadded rows, so that padding plays no part."""
    out = forward(params, cfg, seqs)
    return np.mean([loss_from_outputs(alone(out, i, len(ty)), ty[None], pa[None], lam)[0]
                    for i, (ty, pa) in enumerate(zip(types, parents))])


def finite_difference_check(cfg, seqs, types, parents, lam, step=1e-5, rel_tol=1e-4,
                            sample=None, seed=7):
    """Central finite differences vs analytic gradients at float64, on one
    right-padded batch."""
    params = init_params(cfg, seed=seed, dtype=np.float64)
    _, grads = loss_and_grads(params, cfg, seqs, types, parents, lam)
    assert all(g.dtype == np.float64 for g in grads.values())
    rng = np.random.default_rng(0)
    worst = 0.0
    for name, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        idxs = range(len(flat))
        if sample is not None and len(flat) > sample:
            idxs = rng.choice(len(flat), size=sample, replace=False)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss(params, cfg, seqs, types, parents, lam)
            flat[i] = orig - step
            down = batch_loss(params, cfg, seqs, types, parents, lam)
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            diff = abs(fd - gflat[i])
            # absolute floor covers true-zero gradients, where the finite
            # difference itself is pure roundoff (~1e-11)
            if diff > 1e-9:
                rel = diff / max(abs(fd), abs(gflat[i]))
                worst = max(worst, rel)
                assert rel < rel_tol, f"{name}[{i}]: fd={fd} analytic={gflat[i]}"
    return worst


def test_gradients_match_finite_differences_sampled():
    types = [np.array([0, 1, 2, 3, 4, 5]), np.array([4, 1, 0])]
    parents = [np.array([0, 1, 2, 4, 4, 0]), np.array([0, 0, 1])]
    worst = finite_difference_check(
        SMALL, [small_seq(6), small_seq(3)], types, parents, lam=0.9, sample=6
    )
    assert worst < 1e-4


def test_gradients_with_all_none_targets():
    types = [np.full(4, int(T.NONE)), np.full(2, int(T.NONE))]
    parents = [np.zeros(4, dtype=int), np.zeros(2, dtype=int)]
    finite_difference_check(SMALL, [small_seq(4), small_seq(2)], types, parents,
                            lam=1.0, sample=4)


def test_target_arrays_word_mode():
    seq = TokenSequence((0, 5, 6, 7), (1, 2, 3))
    target = tagged([("a", T.ATTR, 3), ("b", T.NONE, 0), ("c", T.SUBJ, 0)])
    types, parents = target_arrays(seq, target)
    assert types.tolist() == [int(T.ATTR), int(T.NONE), int(T.SUBJ)]
    assert parents.tolist() == [3, 0, 0]


def test_target_arrays_bpe_mode():
    # word 1 = subwords 1..2 (head 2), word 2 = subword 3
    seq = TokenSequence((0, 5, 6, 7), (2, 3))
    target = tagged([("big", T.ATTR, 2), ("cat", T.SUBJ, 0)])
    types, parents = target_arrays(seq, target)
    assert types.tolist() == [int(T.SAME), int(T.ATTR), int(T.SUBJ)]
    assert parents.tolist() == [2, 3, 0]


def test_target_arrays_length_mismatch():
    seq = TokenSequence((0, 5), (1,))
    target = tagged([("a", T.SUBJ, 0), ("b", T.SUBJ, 0)])
    with pytest.raises(LengthMismatchError):
        target_arrays(seq, target)


def test_read_tags_constructed_logits():
    # logits forcing [ATTR->4, NONE, ATTR->4, SUBJ->0] on "blue and red bus"
    from sgforge.model import ModelOutputs, read_tags

    def one_hot(width, hot):
        row = np.zeros(width)
        row[hot] = 10.0
        return row

    cls = np.stack([
        one_hot(6, int(T.ATTR)),
        one_hot(6, int(T.NONE)),
        one_hot(6, int(T.ATTR)),
        one_hot(6, int(T.SUBJ)),
    ])
    par = np.stack([one_hot(5, 4), one_hot(5, 0), one_hot(5, 4), one_hot(5, 0)])
    [sent] = read_tags(ModelOutputs(cls[None], par[None]), [["blue", "and", "red", "bus"]],
                       [(1, 2, 3, 4)])
    assert [(t.form, t.node_type, t.parent) for t in sent] == [
        ("blue", T.ATTR, 4),
        ("and", T.NONE, 0),
        ("red", T.ATTR, 4),
        ("bus", T.SUBJ, 0),
    ]


def test_read_tags_bpe_restricts_parents_to_word_heads():
    from sgforge.model import ModelOutputs, read_tags

    # two words over three subwords: heads at positions 2 and 3; word 2's
    # parent logits peak at the non-head position 1, which must be skipped
    cls = np.zeros((3, 6))
    par = np.array([
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 9.0, 5.0, 0.0],
    ])
    [sent] = read_tags(ModelOutputs(cls[None], par[None]), [["big", "cat"]], [(2, 3)])
    assert len(sent) == 2
    assert sent.tokens[1].parent == 1  # position 2 is word 1


def read_tags_per_word(outputs, words, word_heads):
    """Reference readout: one argmax pair per word."""
    candidates = [0] + list(word_heads)
    pos_to_word = {h: w + 1 for w, h in enumerate(word_heads)}
    pos_to_word[0] = 0
    tokens = []
    for word_i, head in enumerate(word_heads, start=1):
        row = head - 1
        node_type = NodeType(int(np.argmax(outputs.class_logits[row])))
        parent_pos = candidates[int(np.argmax(outputs.parent_logits[row][candidates]))]
        tokens.append(TaggedToken(word_i, words[word_i - 1], node_type, pos_to_word[parent_pos]))
    return TaggedSentence(tuple(tokens))


def random_word_heads(rng, t):
    """Word-final positions of t subwords: a random cut, always ending at t."""
    cuts = [int(h) for h in np.flatnonzero(rng.random(t) < 0.6) + 1 if h < t]
    return (*cuts, t) if t else ()


@pytest.mark.parametrize("seed", range(20))
def test_read_tags_equals_per_word_argmax(seed):
    # small integer logits tie often, so the lowest-index tie-break is exercised
    from sgforge.model import ModelOutputs, read_tags

    rng = np.random.default_rng(seed)
    t = int(rng.integers(0, 9))
    word_heads = random_word_heads(rng, t)
    outputs = ModelOutputs(rng.integers(0, 3, size=(t, 6)).astype(np.float32),
                           rng.integers(0, 3, size=(t, t + 1)).astype(np.float32))
    words = [f"w{i}" for i in range(len(word_heads))]
    batch = ModelOutputs(outputs.class_logits[None], outputs.parent_logits[None])
    assert read_tags(batch, [words], [word_heads]) == [read_tags_per_word(outputs, words,
                                                                          word_heads)]


@pytest.mark.parametrize("seed", range(30))
def test_batched_read_tags_equals_per_word_on_each_slice(seed):
    # a padded batch of 1-6 examples of different lengths and word-head cuts,
    # laid out as `_forward` returns it: class logits of padded rows are 0,
    # parent logits are -inf on every column past the example's length. Small
    # integer logits tie often, so the lowest-index tie-break is exercised.
    from sgforge.model import ModelOutputs, read_tags

    rng = np.random.default_rng(100 + seed)
    lengths = rng.integers(0, 9, size=int(rng.integers(1, 7)))
    T = int(lengths.max())
    cls = np.zeros((len(lengths), T, 6), dtype=np.float32)
    par = np.full((len(lengths), T, T + 1), -np.inf, dtype=np.float32)
    par[:, :, 0] = 0.0
    heads, words, expected = [], [], []
    for b, t in enumerate(lengths.tolist()):
        cls[b, :t] = rng.integers(0, 3, size=(t, 6))
        par[b, :, : t + 1] = rng.integers(0, 3, size=(T, t + 1))
        heads.append(random_word_heads(rng, t))
        words.append([f"w{b}.{i}" for i in range(len(heads[-1]))])
        alone = ModelOutputs(cls[b, :t], par[b, :t, : t + 1])
        expected.append(read_tags_per_word(alone, words[-1], heads[-1]))
    assert read_tags(ModelOutputs(cls, par), words, heads) == expected


def test_predict_uniform_logits_tie_break():
    # zero head weights force uniform logits everywhere: type SUBJ, parent 0
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    cfg = ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2,
                      d_ff=16, max_len=8, d_qk=16)
    params = init_params(cfg, seed=0)
    params["head.w_c"][:] = 0.0
    params["head.w_q"][:] = 0.0
    [sent] = predict(params, cfg, tok, ["blue bus"], 32)
    assert [(t.node_type, t.parent) for t in sent] == [(T.SUBJ, 0), (T.SUBJ, 0)]


def test_predict_empty_text():
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    cfg = ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2,
                      d_ff=16, max_len=8, d_qk=16)
    params = init_params(cfg, seed=0)
    assert predict(params, cfg, tok, [""], 32) == [TaggedSentence(())]


def test_predict_forms_are_canonical_words():
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    cfg = ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2,
                      d_ff=16, max_len=8, d_qk=16)
    params = init_params(cfg, seed=0)
    [sent] = predict(params, cfg, tok, ["Blue  BUS"], 32)
    assert [t.form for t in sent] == ["blue", "bus"]


def test_predict_tags_each_distinct_word_sequence_once():
    tok = Tokenizer.from_corpus(["blue bus", "red cat"], mode="word")
    cfg = ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2,
                      d_ff=16, max_len=8, d_qk=16)
    params = init_params(cfg, seed=3)
    texts = ["Blue  BUS", "blue bus", "red cat"]
    sents = predict(params, cfg, tok, texts, 2)
    assert sents[0] is sents[1]
    distinct = ["blue bus", "red cat"]
    by_words = dict(zip(distinct, predict(params, cfg, tok, distinct, 2)))
    assert sents == [by_words[" ".join(text.lower().split())] for text in texts]


def test_predict_gives_none_to_each_copy_of_an_over_length_text():
    tok = Tokenizer.from_corpus(["blue bus"], mode="word")
    cfg = ModelConfig(vocab_size=tok.vocab_size, d_model=16, n_layers=1, n_heads=2,
                      d_ff=16, max_len=3, d_qk=16)
    params = init_params(cfg, seed=0)
    long_text = "blue bus blue bus"
    sents = predict(params, cfg, tok, [long_text, "blue bus", long_text.upper()], 32)
    assert sents[0] is None and sents[2] is None
    assert [t.form for t in sents[1]] == ["blue", "bus"]


def random_batch(rng, lengths):
    seqs, types, parents = [], [], []
    for t in lengths:
        ids = (0,) + tuple(int(x) for x in rng.integers(4, SMALL.vocab_size, size=t))
        seqs.append(TokenSequence(ids, tuple(range(1, t + 1))))
        types.append(rng.integers(0, 6, size=t))
        parents.append(rng.integers(0, t + 1, size=t))
    return seqs, types, parents


def test_batch_independence():
    # a sequence's outputs and its share of the batch gradient do not depend
    # on its batch-mates or on how far the batch pads it (float32 tolerance)
    params = init_params(SMALL, seed=2)
    seqs, types, parents = random_batch(np.random.default_rng(4), [5, 8, 1, 3])
    together = forward(params, SMALL, seqs)
    for i, seq in enumerate(seqs):
        a = forward(params, SMALL, [seq])
        b = alone(together, i, len(seq) - 1)
        assert a.class_logits.shape == b.class_logits.shape
        assert a.parent_logits.shape == b.parent_logits.shape
        assert np.allclose(a.class_logits, b.class_logits, rtol=1e-5, atol=1e-6)
        assert np.allclose(a.parent_logits, b.parent_logits, rtol=1e-5, atol=1e-6)
        assert np.all(np.isfinite(b.parent_logits))

    loss, grads = loss_and_grads(params, SMALL, seqs, types, parents, 0.8)
    singles = [
        loss_and_grads(params, SMALL, [s], [ty], [pa], 0.8)
        for s, ty, pa in zip(seqs, types, parents)
    ]
    assert loss == pytest.approx(np.mean([l for l, _ in singles]), rel=1e-5)
    for name, g in grads.items():
        mean = sum(single[name] for _, single in singles) / len(seqs)
        scale = np.abs(mean).max()
        assert np.abs(g - mean).max() <= 1e-5 * scale + 1e-9, name


def test_over_length_sequence_in_batch_raises():
    params = init_params(SMALL, seed=0)
    seqs, types, parents = random_batch(np.random.default_rng(6), [3, SMALL.max_len + 1, 2])
    with pytest.raises(SequenceTooLongError):
        forward(params, SMALL, seqs)
    with pytest.raises(SequenceTooLongError):
        loss_and_grads(params, SMALL, seqs, types, parents, 1.0)



# --- The padded model path that the packed one replaced -----------------------
# `_forward` and `loss_and_grads` used to run every dense layer over all B*L
# rows of a right-padded batch, and backward recomputed gelu(u), the GELU tanh
# and x_mid. They are kept here verbatim, with the helper bodies they called, as
# the reference for the packed path. The arithmetic of each row is unchanged
# but BLAS may sum a matrix product over fewer rows in another order, so
# logits and gradients agree to a float32 tolerance: 1e-5 of each tensor's
# largest magnitude (about 80 float32 ulps there) plus 1e-6 absolute on the
# logits. The helper rewrites must match their old bodies bit for bit.

def softmax_reference(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def gelu_reference(x):
    t = x * x
    t *= 0.044715
    t += 1.0
    t *= x
    t *= math.sqrt(2.0 / math.pi)
    np.tanh(t, out=t)  # tanh(c * (x + a * x^3))
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_grad_reference(x):
    _GELU_A, _GELU_C = 0.044715, math.sqrt(2.0 / math.pi)
    t = x * x
    s = t * (3.0 * _GELU_A)
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)
    s += 1.0
    s *= x
    s *= 0.5 * _GELU_C  # s = c/2 * x * (1 + 3a * x^2)
    # 0.5 * (1 + t) + s * (1 - t^2) == (1 + t) * (0.5 + s * (1 - t))
    np.subtract(1.0, t, out=t)
    s *= t
    s += 0.5
    np.subtract(2.0, t, out=t)
    t *= s
    return t


def layer_norm_reference(x, g, b):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = (x - mu) * inv
    return g * y + b, (y, inv)


def layer_norm_backward_reference(dout, cache, g):
    y, inv = cache
    dg = (dout * y).sum(axis=0)
    db = dout.sum(axis=0)
    dy = dout * g
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))
    return dx, dg, db


def affine_grads_reference(x, dy):
    return x.T @ dy, dy.sum(axis=0)


def forward_padded_reference(params, cfg, ids, lengths, caches=None):
    B, L = ids.shape
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh
    x = (params["tok_emb"][ids] + params["pos_emb"][:L]).reshape(B * L, d)
    causal = np.tril(np.ones((L, L), dtype=bool))
    for l in range(cfg.n_layers):
        pre = f"layer{l}."
        a_in = x
        qkv = a_in @ params[pre + "attn.w_qkv"] + params[pre + "attn.b_qkv"]
        qh, kh, vh = qkv.reshape(B, L, 3, nh, dh).transpose(2, 0, 3, 1, 4)  # (B, nh, L, dh)
        scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(dh)
        probs = softmax_reference(np.where(causal, scores, -np.inf), axis=-1)
        ctx_cat = (probs @ vh).transpose(0, 2, 1, 3).reshape(B * L, d)
        r1 = a_in + (ctx_cat @ params[pre + "attn.w_o"] + params[pre + "attn.b_o"])
        x_mid, ln1_cache = layer_norm_reference(r1, params[pre + "ln1.g"], params[pre + "ln1.b"])
        u = x_mid @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]
        r2 = x_mid + (gelu_reference(u) @ params[pre + "ffn.w2"] + params[pre + "ffn.b2"])
        x, ln2_cache = layer_norm_reference(r2, params[pre + "ln2.g"], params[pre + "ln2.b"])
        if caches is not None:
            caches.append(dict(a_in=a_in, qh=qh, kh=kh, vh=vh, probs=probs,
                               ctx_cat=ctx_cat, ln1=ln1_cache, u=u, ln2=ln2_cache))
    hidden = x  # (B*L, d); the head also scores the ROOT rows, then drops them
    class_logits = (hidden @ params["head.w_c"]).reshape(B, L, -1)[:, 1:]
    q_head = (hidden @ params["head.w_q"]).reshape(B, L, -1)[:, 1:]
    k_head = (hidden @ params["head.w_k"]).reshape(B, L, -1)
    parent_logits = q_head @ k_head.swapaxes(1, 2) / math.sqrt(cfg.d_qk)
    padded_col = np.arange(L) >= lengths[:, None, None]
    parent_logits = np.where(padded_col, -np.inf, parent_logits)
    return ModelOutputs(class_logits, parent_logits), hidden, q_head, k_head


def loss_and_grads_padded_reference(params, cfg, seqs, types, parents, loss_weight):
    ids, lengths = _pad(cfg, seqs)
    B, L = ids.shape
    tgt_types = _rows(types, L - 1, -1)
    tgt_parents = _rows(parents, L - 1, 0)
    caches = []
    outputs, hidden, q_head, k_head = forward_padded_reference(params, cfg, ids, lengths, caches)
    class_term, parent_term = loss_terms(outputs, tgt_types, tgt_parents)
    loss = float(np.mean(class_term + loss_weight * parent_term))
    d_class, d_parent = loss_output_grads(outputs, tgt_types, tgt_parents, loss_weight)
    d_class /= B
    d_parent /= B

    grads = {}
    d, nh = cfg.d_model, cfg.n_heads
    dh = d // nh
    s = 1.0 / math.sqrt(cfg.d_qk)
    dc_head = np.zeros((B, L, d_class.shape[-1]), dtype=d_class.dtype)
    dc_head[:, 1:] = d_class
    dq_head = np.zeros((B, L, cfg.d_qk), dtype=d_parent.dtype)
    dq_head[:, 1:] = s * (d_parent @ k_head)
    dk_head = s * (d_parent.swapaxes(1, 2) @ q_head)
    dc_head, dq_head, dk_head = (a.reshape(B * L, -1) for a in (dc_head, dq_head, dk_head))
    grads["head.w_c"] = hidden.T @ dc_head
    grads["head.w_q"] = hidden.T @ dq_head
    grads["head.w_k"] = hidden.T @ dk_head
    dx = dc_head @ params["head.w_c"].T + dq_head @ params["head.w_q"].T
    dx += dk_head @ params["head.w_k"].T

    for l in reversed(range(cfg.n_layers)):
        pre = f"layer{l}."
        c = caches.pop()  # free each layer's cache once its backward has run
        dr2, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = layer_norm_backward_reference(
            dx, c["ln2"], params[pre + "ln2.g"]
        )
        # x_mid and gelu(u) are recomputed, not cached, to keep peak memory down
        x_mid = params[pre + "ln1.g"] * c["ln1"][0] + params[pre + "ln1.b"]
        grads[pre + "ffn.w2"], grads[pre + "ffn.b2"] = affine_grads_reference(
            gelu_reference(c["u"]), dr2)
        du = dr2 @ params[pre + "ffn.w2"].T
        du *= gelu_grad_reference(c["u"])
        grads[pre + "ffn.w1"], grads[pre + "ffn.b1"] = affine_grads_reference(x_mid, du)
        dx_mid = dr2 + du @ params[pre + "ffn.w1"].T
        dr1, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = layer_norm_backward_reference(
            dx_mid, c["ln1"], params[pre + "ln1.g"]
        )
        grads[pre + "attn.w_o"], grads[pre + "attn.b_o"] = affine_grads_reference(
            c["ctx_cat"], dr1)
        dctx = (dr1 @ params[pre + "attn.w_o"].T).reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        probs = c["probs"]
        dprobs = dctx @ c["vh"].swapaxes(-1, -2)
        dvh = probs.swapaxes(-1, -2) @ dctx
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dscores /= math.sqrt(dh)
        dqh = dscores @ c["kh"]
        dkh = dscores.swapaxes(-1, -2) @ c["qh"]
        dqkv = np.stack([dqh, dkh, dvh]).transpose(1, 3, 0, 2, 4).reshape(B * L, 3 * d)
        grads[pre + "attn.w_qkv"], grads[pre + "attn.b_qkv"] = affine_grads_reference(
            c["a_in"], dqkv)
        dx = dr1 + dqkv @ params[pre + "attn.w_qkv"].T

    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    np.add.at(grads["tok_emb"], ids.ravel(), dx)
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:L] = dx.reshape(B, L, d).sum(axis=0)
    return loss, grads


CONFIGS = [
    SMALL,
    ModelConfig(vocab_size=12, d_model=8, n_layers=1, n_heads=1, d_ff=16, max_len=8, d_qk=4),
    ModelConfig(vocab_size=12, d_model=12, n_layers=3, n_heads=3, d_ff=8, max_len=8, d_qk=8),
    ModelConfig(vocab_size=12, d_model=8, n_layers=0, n_heads=2, d_ff=8, max_len=8, d_qk=8),
]


@st.composite
def ragged_batches(draw):
    """A config, its float32 params, and a batch of 1-4 sequences with targets.
    Lengths are drawn to be equal (no padding) in about a third of batches,
    and single-token sequences are common."""
    cfg = draw(st.sampled_from(CONFIGS))
    b = draw(st.integers(1, 4))
    one_len = st.one_of(st.just(1), st.integers(1, cfg.max_len))
    lengths = [draw(one_len)] * b if draw(st.integers(0, 2)) == 0 else [
        draw(one_len) for _ in range(b)]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    seqs, types, parents = [], [], []
    for t in lengths:
        ids = (0,) + tuple(int(x) for x in rng.integers(3, cfg.vocab_size, size=t))
        seqs.append(TokenSequence(ids, tuple(range(1, t + 1))))
        types.append(rng.integers(0, 6, size=t))
        parents.append(rng.integers(0, t + 1, size=t))
    params = init_params(cfg, seed=int(rng.integers(1000)))
    for p in params.values():  # move gains and biases off their 1 / 0 starts
        p += rng.normal(0.0, 0.1, size=p.shape).astype(np.float32)
    return cfg, params, seqs, types, parents, float(rng.uniform(0.1, 2.0))


def assert_close_to_scale(new, ref, name, atol=0.0):
    scale = np.abs(ref[np.isfinite(ref)]).max(initial=0.0)
    np.testing.assert_allclose(new, ref, rtol=0, atol=1e-5 * scale + atol, err_msg=name)


@given(ragged_batches())
@settings(max_examples=150, deadline=None)
def test_packed_forward_matches_padded_reference(batch):
    cfg, params, seqs, _, _, _ = batch
    ids, lengths = _pad(cfg, seqs)
    ref = forward_padded_reference(params, cfg, ids, lengths)[0]
    out = forward(params, cfg, seqs)
    assert out.class_logits.shape == ref.class_logits.shape
    assert out.parent_logits.shape == ref.parent_logits.shape
    for i, n in enumerate(lengths):
        assert_close_to_scale(out.class_logits[i, : n - 1], ref.class_logits[i, : n - 1], "class",
                              1e-6)
        # the -inf columns of padded positions sit in the same places
        assert_close_to_scale(out.parent_logits[i, : n - 1], ref.parent_logits[i, : n - 1],
                              "parent", 1e-6)


@given(ragged_batches())
@settings(max_examples=150, deadline=None)
def test_packed_loss_and_grads_match_padded_reference(batch):
    cfg, params, seqs, types, parents, lam = batch
    loss, grads = loss_and_grads(params, cfg, seqs, types, parents, lam)
    ref_loss, ref_grads = loss_and_grads_padded_reference(params, cfg, seqs, types, parents, lam)
    assert loss == pytest.approx(ref_loss, rel=1e-5, abs=1e-6)
    assert grads.keys() == ref_grads.keys()
    for name, g in grads.items():
        assert g.shape == ref_grads[name].shape
        assert_close_to_scale(g, ref_grads[name], name)


float_arrays = st.sampled_from([np.float32, np.float64]).flatmap(lambda dtype: hnp.arrays(
    dtype, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=9),
    elements=st.floats(-8, 8, width=32)))


@given(float_arrays, st.integers(0, 2**16))
@settings(max_examples=200)
def test_helper_rewrites_are_bit_exact(x, seed):
    rng = np.random.default_rng(seed)
    d = x.shape[1]
    g, b, dout = (rng.normal(size=shape).astype(x.dtype) for shape in (d, d, x.shape))
    out, (y, inv) = _layer_norm(x, g, b)
    ref_out, (ref_y, ref_inv) = layer_norm_reference(x, g, b)
    for new, ref in ((out, ref_out), (y, ref_y), (inv, ref_inv)):
        assert new.dtype == ref.dtype and np.array_equal(new, ref)
    for new, ref in zip(_layer_norm_backward(dout, (y, inv), g),
                        layer_norm_backward_reference(dout, (ref_y, ref_inv), g)):
        assert new.dtype == ref.dtype and np.array_equal(new, ref)
    masked = np.where(rng.random(x.shape) < 0.3, -np.inf, x)
    masked[:, 0] = x[:, 0]  # every row keeps a finite entry, as causal rows do
    for arr in (x, masked):
        assert np.array_equal(softmax(arr), softmax_reference(arr))
    assert np.array_equal(softmax(x, axis=0), softmax_reference(x, axis=0))
    act, tanh = gelu(x)
    assert np.array_equal(act, gelu_reference(x))
    assert np.array_equal(gelu_grad(x, tanh), gelu_grad_reference(x))


def test_float32_params_give_float32_outputs_and_grads():
    # a scatter buffer made without a dtype would silently be float64
    params = init_params(SMALL, seed=3)
    seqs, types, parents = random_batch(np.random.default_rng(9), [5, 2, 7])
    out = forward(params, SMALL, seqs)
    assert out.class_logits.dtype == out.parent_logits.dtype == np.float32
    _, grads = loss_and_grads(params, SMALL, seqs, types, parents, 0.7)
    assert {name: g.dtype for name, g in grads.items()} == {name: np.float32 for name in params}
    # only the ids in the batch reach the token embeddings, whatever fills the padding
    absent = sorted(set(range(SMALL.vocab_size)) - {i for seq in seqs for i in seq.ids})
    assert absent and np.all(grads["tok_emb"][absent] == 0.0)
