import math

import numpy as np
import pytest

from sgforge.errors import LengthMismatchError, SequenceTooLongError
from sgforge.model import (
    ModelConfig,
    forward,
    gelu,
    gelu_grad,
    init_params,
    loss_and_grads,
    loss_from_outputs,
    loss_output_grads,
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
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=10, n_classes=5)


def test_forward_shapes():
    params = init_params(SMALL, seed=0)
    [out] = forward(params, SMALL, [small_seq(6)])
    assert out.class_logits.shape == (6, 6)
    assert out.parent_logits.shape == (6, 7)


def test_forward_single_token():
    params = init_params(SMALL, seed=0)
    [out] = forward(params, SMALL, [small_seq(1)])
    assert out.parent_logits.shape == (1, 2)
    probs = softmax(out.parent_logits)
    assert probs.sum(axis=-1) == pytest.approx(1.0, abs=1e-6)


def test_forward_too_long():
    params = init_params(SMALL, seed=0)
    with pytest.raises(SequenceTooLongError):
        forward(params, SMALL, [small_seq(SMALL.max_len + 1)])


def test_zero_head_weights_give_uniform_parents():
    params = init_params(SMALL, seed=0)
    params["head.w_q"][:] = 0.0
    [out] = forward(params, SMALL, [small_seq(4)])
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
        [out] = forward(params, cfg, [TokenSequence(ids, tuple(range(1, t + 1)))])
        sums = softmax(out.parent_logits).sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) < 1e-6)


def test_backbone_is_causal():
    # hidden state at position t must not change when a later token changes;
    # verified through class logits, which read position-wise hidden states
    params = init_params(SMALL, seed=1)
    base = small_seq(5)
    changed = TokenSequence(base.ids[:4] + (11,) + base.ids[5:], base.word_heads)
    out_a, out_b = forward(params, SMALL, [base, changed])
    # positions before the change (rows 0..2 for tokens 1..3) are identical
    assert np.array_equal(out_a.class_logits[:3], out_b.class_logits[:3])
    assert not np.array_equal(out_a.class_logits[3], out_b.class_logits[3])


def test_gelu_matches_closed_form_and_keeps_input():
    # reference: the tanh form written with powers, as in the GELU paper
    c, a = math.sqrt(2.0 / math.pi), 0.044715
    x = np.linspace(-6.0, 6.0, 241)
    kept = x.copy()
    t = np.tanh(c * (x + a * x**3))
    ref = 0.5 * x * (1.0 + t)
    ref_grad = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t**2) * c * (1.0 + 3.0 * a * x**2)
    assert np.allclose(gelu(x), ref, rtol=1e-12, atol=1e-14)
    assert np.allclose(gelu_grad(x), ref_grad, rtol=1e-12, atol=1e-14)
    # float32: the powers form itself is off by up to ~1.2e-6 near tanh = -1
    x32 = x.astype(np.float32)
    assert gelu(x32).dtype == gelu_grad(x32).dtype == np.float32
    assert np.allclose(gelu(x32), ref, rtol=1e-5, atol=2e-6)
    assert np.allclose(gelu_grad(x32), ref_grad, rtol=1e-5, atol=4e-6)
    assert np.array_equal(x, kept)


def test_loss_uniform_class_logits():
    # uniform logits: class term is ln 6 per position
    out_cls = np.zeros((3, 6))
    out_par = np.zeros((3, 4))
    from sgforge.model import ModelOutputs

    outputs = ModelOutputs(out_cls, out_par)
    types = np.array([int(T.NONE)] * 3)
    parents = np.zeros(3, dtype=int)
    assert loss_from_outputs(outputs, types, parents, 1.0) == pytest.approx(math.log(6))


def test_loss_all_none_ignores_parent_logits():
    from sgforge.model import ModelOutputs

    rng = np.random.default_rng(0)
    cls = rng.normal(size=(4, 6))
    types = np.array([int(T.NONE)] * 4)
    parents = np.array([0, 1, 2, 3])
    base = loss_from_outputs(ModelOutputs(cls, np.zeros((4, 5))), types, parents, 1.0)
    perturbed = loss_from_outputs(
        ModelOutputs(cls, rng.normal(size=(4, 5)) * 100), types, parents, 1.0
    )
    assert perturbed - base == 0.0


def test_parent_grad_zero_at_none_positions():
    from sgforge.model import ModelOutputs

    rng = np.random.default_rng(1)
    outputs = ModelOutputs(rng.normal(size=(4, 6)), rng.normal(size=(4, 5)))
    types = np.array([int(T.SUBJ), int(T.NONE), int(T.ATTR), int(T.NONE)])
    parents = np.array([0, 0, 4, 2])
    _, d_parent = loss_output_grads(outputs, types, parents, 0.7)
    assert np.all(d_parent[1] == 0.0)
    assert np.all(d_parent[3] == 0.0)
    assert np.any(d_parent[0] != 0.0)


def test_loss_length_mismatch():
    params = init_params(SMALL, seed=0)
    [out] = forward(params, SMALL, [small_seq(3)])
    with pytest.raises(LengthMismatchError):
        loss_from_outputs(out, np.zeros(2, dtype=int), np.zeros(2, dtype=int), 1.0)


def batch_loss(params, cfg, seqs, types, parents, lam):
    """Mean per-example loss, the quantity loss_and_grads differentiates."""
    outs = forward(params, cfg, seqs)
    return np.mean([loss_from_outputs(o, ty, pa, lam) for o, ty, pa in zip(outs, types, parents)])


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
    sent = read_tags(ModelOutputs(cls, par), ["blue", "and", "red", "bus"], (1, 2, 3, 4))
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
    sent = read_tags(ModelOutputs(cls, par), ["big", "cat"], (2, 3))
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


@pytest.mark.parametrize("seed", range(20))
def test_read_tags_equals_per_word_argmax(seed):
    # small integer logits tie often, so the lowest-index tie-break is exercised
    from sgforge.model import ModelOutputs, read_tags

    rng = np.random.default_rng(seed)
    t = int(rng.integers(0, 9))
    cuts = np.flatnonzero(rng.random(t) < 0.6) + 1  # word-final positions
    word_heads = tuple(int(h) for h in cuts) if t == 0 or cuts[-1] == t else (*map(int, cuts), t)
    outputs = ModelOutputs(rng.integers(0, 3, size=(t, 6)).astype(np.float32),
                           rng.integers(0, 3, size=(t, t + 1)).astype(np.float32))
    words = [f"w{i}" for i in range(len(word_heads))]
    assert read_tags(outputs, words, word_heads) == read_tags_per_word(outputs, words, word_heads)


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
    alone = [forward(params, SMALL, [seq])[0] for seq in seqs]
    together = forward(params, SMALL, seqs)
    for a, b in zip(alone, together):
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

