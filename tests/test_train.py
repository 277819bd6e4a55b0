import hashlib
import json
import math
import os
from dataclasses import replace

import numpy as np
import pytest

from sgforge.align import align
from sgforge.cli import run
from sgforge.data import generate_synthetic
from sgforge.errors import CheckpointError, EmptyDatasetError, ShapeMismatchError
from sgforge.model import (
    ModelConfig,
    ModelOutputs,
    _forward,
    _pad,
    forward,
    init_params,
    loss_from_outputs,
    loss_terms,
    param_shapes,
)
from sgforge.tags import NodeType, tagged
from sgforge.tokenizer import RESERVED, TokenSequence, Tokenizer
from sgforge.train import (
    AdamState,
    Checkpoint,
    Encoded,
    Example,
    TrainConfig,
    _dev_metrics,
    _encode_examples,
    adam_step,
    calibrate_lambda,
    load_checkpoint,
    save_checkpoint,
    train,
)

T = NodeType


def test_adam_zero_gradient_no_update():
    params = {"w": np.array([1.0, -2.0])}
    grads = {"w": np.zeros(2)}
    state = AdamState()
    adam_step(params, grads, state, TrainConfig(learning_rate=0.1))
    assert np.array_equal(params["w"], np.array([1.0, -2.0]))


def test_adam_first_step_hand_computed():
    # m1=0.1, v1=0.001, bias correction makes m_hat/sqrt(v_hat)=1 up to eps,
    # so the first update is -lr
    params = {"w": np.array([0.0])}
    state = AdamState()
    adam_step(params, {"w": np.array([1.0])}, state, TrainConfig(learning_rate=0.1))
    assert params["w"][0] == pytest.approx(-0.1, abs=1e-8)


def adam_reference(grads_seq, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
    """Independent scalar Adam recurrence, transcribed from the update rule."""
    theta = 0.0
    m = v = 0.0
    for t, g in enumerate(grads_seq, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
    return theta


def test_adam_two_steps_match_reference():
    params = {"w": np.array([0.0])}
    state = AdamState()
    cfg = TrainConfig(learning_rate=0.1)
    for g in (1.0, -1.0):
        adam_step(params, {"w": np.array([g])}, state, cfg)
    assert params["w"][0] == pytest.approx(adam_reference([1.0, -1.0]), abs=1e-12)


def test_adam_many_steps_match_reference():
    rng = np.random.default_rng(5)
    gs = rng.normal(size=20).tolist()
    params = {"w": np.array([0.0])}
    state = AdamState()
    cfg = TrainConfig(learning_rate=0.01)
    for g in gs:
        adam_step(params, {"w": np.array([g])}, state, cfg)
    assert params["w"][0] == pytest.approx(adam_reference(gs, lr=0.01), abs=1e-12)


def adam_formula(params, grads_seq, cfg):
    """Adam written as the textbook formula, allocating freely: the reference
    that the in-place adam_step must match bit for bit."""
    b1, b2 = 0.9, 0.999
    params = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(grads_seq, start=1):
        for k, g in grads.items():
            m[k] = m[k] * b1 + (1.0 - b1) * g
            v[k] = v[k] * b2 + (1.0 - b2) * g * g
            m_hat = m[k] / (1.0 - b1**t)
            v_hat = v[k] / (1.0 - b2**t)
            params[k] = params[k] - cfg.learning_rate * m_hat / (np.sqrt(v_hat) + 1e-8)
    return params, m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_bit_identical_to_formula(dtype):
    rng = np.random.default_rng(3)
    params = {"w": rng.normal(size=(4, 5)).astype(dtype), "b": rng.normal(size=5).astype(dtype)}
    grads_seq = []
    for step in range(4):
        grads = {k: (rng.normal(size=p.shape) * 10.0 ** rng.integers(-6, 2)).astype(dtype)
                 for k, p in params.items()}
        grads["w"][0] = 0.0  # a row that never sees a gradient
        if step == 2:
            grads["b"][:] = 0.0  # a whole zero gradient after real ones
        grads_seq.append(grads)
    cfg = TrainConfig(learning_rate=3e-3)
    expected, m, v = adam_formula(params, grads_seq, cfg)
    state = AdamState()
    for grads in grads_seq:
        adam_step(params, grads, state, cfg)
    for k in params:
        assert params[k].dtype == dtype
        assert np.array_equal(params[k], expected[k])
        assert np.array_equal(state.m[k], m[k]) and np.array_equal(state.v[k], v[k])


def test_adam_shape_mismatch():
    params = {"w": np.zeros(3)}
    with pytest.raises(ShapeMismatchError):
        adam_step(params, {"w": np.zeros(2)}, AdamState(), TrainConfig())
    with pytest.raises(ShapeMismatchError):
        adam_step(params, {"x": np.zeros(3)}, AdamState(), TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="seed"):
        TrainConfig(seed=-1)
    assert TrainConfig(epochs=0).epochs == 0


def zeroed_head_params(cfg, seed=0):
    params = init_params(cfg, seed=seed)
    params["head.w_c"][:] = 0.0
    params["head.w_q"][:] = 0.0
    params["head.w_k"][:] = 0.0
    return params


def test_calibrate_lambda_uniform_logits():
    # zeroed head: class CE is ln6, parent CE is ln(T+1)=ln8 for T=7
    cfg = ModelConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                      max_len=8, d_qk=16)
    params = zeroed_head_params(cfg)
    t = 7
    seq = TokenSequence((0,) + tuple(4 + i % 6 for i in range(t)), tuple(range(1, t + 1)))
    types = np.array([int(T.SUBJ)] * t)
    parents = np.zeros(t, dtype=int)
    enc = Encoded(seq, types, parents, None)
    lam = calibrate_lambda(params, cfg, [enc])
    # float32 parameters bound the cross-entropy precision near 1e-7
    assert lam == pytest.approx(math.log(6) / math.log(8), rel=1e-6)


def test_calibrate_lambda_all_none_batch():
    cfg = ModelConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                      max_len=8, d_qk=16)
    params = zeroed_head_params(cfg)
    seq = TokenSequence((0, 4, 5), (1, 2))
    enc = Encoded(seq, np.array([int(T.NONE)] * 2), np.zeros(2, dtype=int), None)
    assert calibrate_lambda(params, cfg, [enc]) == 1.0


def test_calibrate_lambda_equal_means():
    # identical class and parent widths make both uniform CEs equal: lambda=1
    cfg = ModelConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                      max_len=8, d_qk=16)
    params = zeroed_head_params(cfg)
    t = 5  # parent width T+1 = 6 = class width
    seq = TokenSequence((0,) + tuple(4 + i for i in range(t)), tuple(range(1, t + 1)))
    enc = Encoded(seq, np.array([int(T.SUBJ)] * t), np.zeros(t, dtype=int), None)
    assert calibrate_lambda(params, cfg, [enc]) == pytest.approx(1.0, rel=1e-9)


# `forward` used to return a list of per-example outputs, each example's rows
# sliced out of the padded batch without a batch axis, and `calibrate_lambda`
# read its terms from that list. Both are kept here verbatim as the reference
# for λ, which the batched path must reproduce bit for bit.

def list_forward(params, cfg, seqs):
    ids, lengths = _pad(cfg, seqs)
    out = _forward(params, cfg, ids, lengths)[0]
    return [
        ModelOutputs(out.class_logits[i, : n - 1], out.parent_logits[i, : n - 1, :n])
        for i, n in enumerate(lengths)
    ]


def calibrate_lambda_reference(params, cfg, batch):
    total_class = 0.0
    n_class = 0
    total_parent = 0.0
    n_parent = 0
    for enc, outputs in zip(batch, list_forward(params, cfg, [enc.seq for enc in batch])):
        class_mean, parent_mean = loss_terms(outputs, enc.types, enc.parents)
        t = len(enc.types)
        k = int((enc.types != int(NodeType.NONE)).sum())
        total_class += float(class_mean) * t
        n_class += t
        total_parent += float(parent_mean) * k
        n_parent += k
    if n_parent == 0 or total_parent <= 0.0:
        return 1.0
    return (total_class / n_class) / (total_parent / n_parent)


def test_calibrate_lambda_equals_list_form_reference_bit_for_bit():
    # numpy sums a row of 8 or more padded entries in another grouping than
    # the same row unpadded, so a λ read from the padded batch would differ
    cfg = ModelConfig(vocab_size=12, d_model=16, n_layers=1, n_heads=2, d_ff=16,
                      max_len=32, d_qk=16)
    rng = np.random.default_rng(25)
    long_rows = 0
    for trial in range(60):
        params = init_params(cfg, seed=trial)
        for p in params.values():  # move gains and biases off their 1 / 0 starts
            p += rng.normal(0.0, 0.3, size=p.shape).astype(np.float32)
        batch = []
        for t in rng.integers(1, 30, size=int(rng.integers(1, 9))).tolist():
            ids = (0,) + tuple(int(x) for x in rng.integers(len(RESERVED), cfg.vocab_size,
                                                            size=t))
            batch.append(Encoded(TokenSequence(ids, tuple(range(1, t + 1))),
                                 rng.integers(0, 6, size=t), rng.integers(0, t + 1, size=t),
                                 None))
            long_rows += t >= 8
        assert calibrate_lambda(params, cfg, batch) == calibrate_lambda_reference(params, cfg,
                                                                                   batch), trial
    assert long_rows > 60


def synthetic_examples(n, seed=17):
    regions = generate_synthetic(n, seed=seed)
    out = []
    for r in regions:
        result = align(r.description, r.graph)
        out.append(Example(r, result.tagged))
    return out


DESK_SMALL = ModelConfig(vocab_size=0, d_model=32, n_layers=1, n_heads=2, d_ff=64,
                         max_len=16, d_qk=32)


def test_train_zero_epochs_returns_initialization():
    examples = synthetic_examples(8)
    result = train(examples, [], DESK_SMALL, TrainConfig(epochs=0, seed=3))
    assert result.final.metrics["step"] == 0
    assert result.log == []
    fresh = init_params(result.final.model_config, seed=3)
    for name, arr in result.final.params.items():
        assert np.array_equal(arr, fresh[name])


def test_train_empty_dataset():
    with pytest.raises(EmptyDatasetError):
        train([], [], DESK_SMALL, TrainConfig())


def test_train_deterministic_given_seed(tmp_path):
    examples = synthetic_examples(24)
    cfg = TrainConfig(epochs=1, seed=11, batch_size=8)
    a = train(examples[:20], examples[20:], DESK_SMALL, cfg)
    b = train(examples[:20], examples[20:], DESK_SMALL, cfg)
    for name in a.final.params:
        assert np.array_equal(a.final.params[name], b.final.params[name])
    assert a.log == b.log


def test_train_loss_decreases_on_overfit_subset():
    # full-batch descent on 32 examples: loss strictly decreases over the
    # first 50 steps or lands under 0.05
    examples = synthetic_examples(32)
    cfg = TrainConfig(epochs=50, seed=0, batch_size=32)
    result = train(examples, [], DESK_SMALL, cfg)
    losses = [rec["train_loss"] for rec in result.log]
    monotone = all(b < a for a, b in zip(losses, losses[1:]))
    assert monotone or losses[-1] < 0.05, losses


def test_train_logs_epoch_records():
    examples = synthetic_examples(16)
    lines = []
    result = train(examples[:12], examples[12:], DESK_SMALL,
                   TrainConfig(epochs=2, seed=0, batch_size=4), log_fn=lines.append)
    assert len(lines) == 2
    for line in lines:
        rec = json.loads(line)
        assert {"epoch", "step", "train_loss", "dev_loss", "dev_f", "lambda"} <= set(rec)


def test_dev_loss_is_the_mean_of_per_example_losses():
    # the dev loss sums `loss_from_outputs` over each padded batch; the
    # reference runs every example alone, a batch of one without padding.
    # Padding and batching move only the last float32 bits.
    examples = synthetic_examples(23, seed=5)
    tok = Tokenizer.from_corpus([ex.region.description for ex in examples])
    cfg = replace(DESK_SMALL, vocab_size=tok.vocab_size)
    params = init_params(cfg, seed=4)
    dev = _encode_examples(tok, examples)
    assert len({len(enc.seq) for enc in dev}) > 1
    dev_loss, _ = _dev_metrics(params, cfg, dev, 0.7, 4)
    alone = [loss_from_outputs(forward(params, cfg, [enc.seq]), enc.types[None],
                               enc.parents[None], 0.7)[0] for enc in dev]
    assert dev_loss == pytest.approx(np.mean(alone), rel=1e-6)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    examples = synthetic_examples(12)
    result = train(examples[:10], examples[10:], DESK_SMALL,
                   TrainConfig(epochs=1, seed=5, batch_size=4))
    base = str(tmp_path / "ckpt")
    save_checkpoint(result.final, base)
    loaded = load_checkpoint(base)
    assert set(loaded.params) == set(result.final.params)
    for name in loaded.params:
        assert np.array_equal(loaded.params[name], result.final.params[name])
    assert loaded.model_config == result.final.model_config
    assert loaded.train_config == result.final.train_config
    assert loaded.tokenizer.tokens == result.final.tokenizer.tokens
    # save -> load -> save reproduces both files byte-exactly
    base2 = str(tmp_path / "ckpt2")
    save_checkpoint(loaded, base2)
    for ext in (".json", ".bin"):
        with open(base + ext, "rb") as f1, open(base2 + ext, "rb") as f2:
            assert f1.read() == f2.read()


def test_checkpoint_keeps_bpe_tokenizer(tmp_path):
    # the manifest embeds the tokenizer: tokens, merges in priority order, mode
    examples = synthetic_examples(12)
    result = train(examples, [], replace(DESK_SMALL, tokenizer_mode="bpe"),
                   TrainConfig(epochs=0))
    base = str(tmp_path / "ckpt")
    save_checkpoint(result.final, base)
    tok, back = result.final.tokenizer, load_checkpoint(base).tokenizer
    assert tok.merges and back == tok
    assert back.encode("blue buses behind") == tok.encode("blue buses behind")


def test_checkpoint_forward_bit_exact(tmp_path):
    examples = synthetic_examples(12)
    result = train(examples[:10], examples[10:], DESK_SMALL,
                   TrainConfig(epochs=1, seed=5, batch_size=4))
    ckpt = result.final
    base = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, base)
    loaded = load_checkpoint(base)
    seq = loaded.tokenizer.encode(examples[0].region.description)
    a = forward(ckpt.params, ckpt.model_config, [seq])
    b = forward(loaded.params, loaded.model_config, [seq])
    assert np.array_equal(a.class_logits, b.class_logits)
    assert np.array_equal(a.parent_logits, b.parent_logits)


def test_param_shapes_match_init_params():
    cfg = replace(DESK_SMALL, vocab_size=9, n_layers=2)
    params = init_params(cfg, seed=1)
    assert {k: p.shape for k, p in params.items()} == param_shapes(cfg)


@pytest.fixture
def saved_checkpoint(tmp_path):
    result = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0, seed=2))
    base = str(tmp_path / "ckpt")
    save_checkpoint(result.final, base)
    return base


def _edit_manifest(base, edit):
    with open(base + ".json") as f:
        manifest = json.load(f)
    edit(manifest)
    with open(base + ".json", "w") as f:
        json.dump(manifest, f)


def bpe_merges(manifest, merges, made=True):
    """Make the manifest's tokenizer a BPE one with these merges and, if
    `made`, their products among its tokens."""
    manifest["model_config"]["tokenizer_mode"] = "bpe"
    manifest["tokenizer"]["merges"] = merges
    if made:
        manifest["tokenizer"]["tokens"] += list(dict.fromkeys(a + b for a, b in merges))


def _write_payload(base, payload, digest=True):
    """Replace the payload; with `digest`, state its SHA-256 in the manifest,
    as a hand-made manifest may."""
    with open(base + ".bin", "wb") as f:
        f.write(payload)
    if digest:
        _edit_manifest(base, lambda m: m.update(payload_sha256=hashlib.sha256(payload).hexdigest()))


@pytest.mark.parametrize("mode", ["word", "bpe"])
def test_checkpoint_of_a_corpus_that_spells_reserved_tokens_loads(tmp_path, mode):
    # canonical_words only lowercases, so "<UNK>" in a description becomes a
    # learned token equal to a reserved one; training writes it, so loading
    # must read it back and encode as the trained tokenizer did
    examples = []
    for r in generate_synthetic(8, seed=17):
        r = replace(r, description=f"<UNK> {r.description} <Root>")
        examples.append(Example(r, align(r.description, r.graph).tagged))
    result = train(examples[:6], examples[6:], replace(DESK_SMALL, tokenizer_mode=mode),
                   TrainConfig(epochs=1, seed=5, batch_size=4))
    tok = result.final.tokenizer
    assert {"<unk>", "<root>"} <= set(tok.tokens[len(RESERVED):])
    base = str(tmp_path / "ckpt")
    save_checkpoint(result.final, base)
    loaded = load_checkpoint(base)
    assert loaded.tokenizer == tok
    text = examples[0].region.description
    assert loaded.tokenizer.encode(text) == tok.encode(text)
    a = forward(result.final.params, result.final.model_config, [tok.encode(text)])
    b = forward(loaded.params, loaded.model_config, [loaded.tokenizer.encode(text)])
    assert np.array_equal(a.class_logits, b.class_logits)
    assert np.array_equal(a.parent_logits, b.parent_logits)
    texts = tmp_path / "texts.txt"
    texts.write_text(text + "\n", encoding="utf-8")
    assert run(["parse", "--ckpt", base, "--input", str(texts),
                "--out", str(tmp_path / "pred.jsonl")]) == 0


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m.update(format="other"), "format"),
    (lambda m: m.update(version=1), "version"),
    (lambda m: m.update(version=2), "version 2"),
    (lambda m: m.update(version=3), "version 3"),
    (lambda m: m.update(version=4), "version 4"),
    (lambda m: m.pop("tokenizer"), "tokenizer"),
    (lambda m: m["train_config"].update(batch_size=0), "batch_size"),
    # the token count is the vocabulary size, so the config may not state it
    (lambda m: m["model_config"].update(vocab_size=len(m["tokenizer"]["tokens"])),
     "vocab_size"),
    (lambda m: m["model_config"].update(d_ff=m["model_config"]["d_ff"] + 1), "ckpt.bin"),
    # save_checkpoint writes every config field, so a missing one is an error, not a default
    pytest.param(lambda m: m["model_config"].pop("d_qk"),
                 r"ckpt\.json: model_config lacks \['d_qk'\]", id="missing-d_qk"),
    pytest.param(lambda m: m["model_config"].pop("tokenizer_mode"),
                 r"ckpt\.json: model_config lacks \['tokenizer_mode'\]",
                 id="missing-tokenizer_mode"),
    pytest.param(lambda m: m["train_config"].pop("batch_size"),
                 r"ckpt\.json: train_config lacks \['batch_size'\]", id="missing-batch_size"),
    # the mode is model_config.tokenizer_mode, so the tokenizer block may not state it
    pytest.param(lambda m: m["tokenizer"].update(mode="word"),
                 r"ckpt\.json: unknown tokenizer keys: \['mode'\]$", id="mode-differs"),
    pytest.param(lambda m: m["model_config"].update(tokenizer_mode="char"),
                 r"ckpt\.json: tokenizer_mode must be 'word' or 'bpe', got 'char'$",
                 id="mode-unknown"),
    pytest.param(lambda m: m["tokenizer"]["tokens"].__setitem__(4, 7),
                 "tokens must be a list of strings", id="token-not-a-string"),
    pytest.param(lambda m: m["tokenizer"].update(merges=["ab"]),
                 'tokenizer merges must be a list of lists of 2 elements, got "ab" in it',
                 id="merge-spelled-as-one-string"),
    pytest.param(lambda m: m["tokenizer"].update(merges=[["a", "b", "c"]]),
                 r'tokenizer merges must be a list of lists of 2 elements, got \["a", "b", "c"\]',
                 id="merge-of-three"),
    # lists learn_bpe never writes: apply_bpe would split words unlike the learner
    pytest.param(lambda m: bpe_merges(m, [["aa", "a"], ["a", "a"]]),
                 "merge 'aa' 'a' uses 'aa' before a merge makes it", id="merge-used-before-made"),
    pytest.param(lambda m: bpe_merges(m, [
        ["b", "a"], ["a", "b"], ["b", "ab"], ["bab", "ba"], ["ba", "b"], ["b", "b"],
        ["babba", "ab"]]), "merge 'ba' 'b' makes 'bab' a second time", id="merge-made-twice"),
    # every section follows the key and type rules of the CLI's JSON files
    pytest.param(lambda m: m["model_config"].update(extra=1),
                 r"ckpt\.json: unknown model_config keys: \['extra'\]$", id="unknown-config-key"),
    pytest.param(lambda m: m.update(model_config=[1, 2]),
                 r"ckpt\.json: model_config must be a JSON object, got \[1, 2\]$",
                 id="config-not-an-object"),
    pytest.param(lambda m: m.update(tokenizer=["word"]),
                 r'ckpt\.json: tokenizer must be a JSON object, got \["word"\]$',
                 id="tokenizer-not-an-object"),
    pytest.param(lambda m: m["tokenizer"].pop("merges"),
                 r"ckpt\.json: tokenizer lacks \['merges'\]$", id="missing-merges"),
    pytest.param(lambda m: m["model_config"].update(tokenizer_mode=None),
                 r"ckpt\.json: tokenizer_mode must be a string, got null$", id="null-mode"),
    pytest.param(lambda m: m["tokenizer"].update(merges=[["a", True]]),
                 r"ckpt\.json: a tokenizer merge must be a list of strings, got true in it$",
                 id="merge-of-a-bool"),
    pytest.param(lambda m: m.update(metrics=5),
                 r"ckpt\.json: metrics must be a JSON object, got 5$", id="metrics-not-an-object"),
    pytest.param(lambda m: m.update(version=4.0),
                 r"ckpt\.json: version must be an integer, got 4\.0$", id="float-version"),
    pytest.param(lambda m: m.update(step=3),
                 r"ckpt\.json: unknown manifest keys: \['step'\]$", id="unknown-manifest-key"),
    # a tokenizer block that `Tokenizer.from_corpus` never makes would encode differently
    pytest.param(lambda m: m["tokenizer"]["tokens"].insert(0, m["tokenizer"]["tokens"].pop(1)),
                 r'ckpt\.json: tokenizer tokens must begin with \["<root>", "<unk>"\]$',
                 id="reserved-tokens-swapped"),
    pytest.param(lambda m: m["tokenizer"]["tokens"].__setitem__(5, m["tokenizer"]["tokens"][4]),
                 r'ckpt\.json: tokenizer tokens repeat "\w+"$', id="repeated-token"),
    pytest.param(lambda m: m["tokenizer"].update(merges=[["a", "b"]]),
                 r"ckpt\.json: word-mode tokenizer has merges$", id="word-mode-merges"),
    pytest.param(lambda m: bpe_merges(m, [["z", "q"]], made=False),
                 r'ckpt\.json: tokenizer merge product "zq" is not among its tokens$',
                 id="merge-product-missing"),
    pytest.param(lambda m: m.update(payload_sha256=None),
                 r"ckpt\.json: payload_sha256 must be a string, got null$", id="null-digest"),
])
def test_load_checkpoint_rejects_bad_manifests(saved_checkpoint, edit, needle):
    _edit_manifest(saved_checkpoint, edit)
    with pytest.raises(CheckpointError, match=needle) as info:
        load_checkpoint(saved_checkpoint)
    assert saved_checkpoint in str(info.value)


def test_load_checkpoint_rejects_a_manifest_that_is_not_an_object(saved_checkpoint):
    with open(saved_checkpoint + ".json", "w") as f:
        json.dump([1, 2], f)
    with pytest.raises(CheckpointError,
                       match=r"ckpt\.json: manifest must be a JSON object, got \[1, 2\]$"):
        load_checkpoint(saved_checkpoint)


@pytest.mark.parametrize("edit", [
    lambda payload: payload[:-1],
    lambda payload: payload + bytes(4),
], ids=["one-byte-short", "one-float-too-many"])
def test_load_checkpoint_rejects_payload_of_wrong_length(saved_checkpoint, edit):
    with open(saved_checkpoint + ".bin", "rb") as f:
        payload = f.read()
    _write_payload(saved_checkpoint, edit(payload), digest=False)
    wrong = len(edit(payload))
    with pytest.raises(CheckpointError, match=f"ckpt.bin: holds {wrong} bytes.* {len(payload)}"):
        load_checkpoint(saved_checkpoint)


@pytest.mark.parametrize("value, first", [(math.nan, True), (math.inf, False), (-math.inf, True)])
def test_load_checkpoint_rejects_non_finite_payload(saved_checkpoint, value, first):
    with open(saved_checkpoint + ".bin", "rb") as f:
        payload = bytearray(f.read())
    at = 0 if first else len(payload) - 4
    payload[at : at + 4] = np.array([value], dtype="<f4").tobytes()
    _write_payload(saved_checkpoint, bytes(payload))  # a digest that holds reaches this check
    tensor = "head.w_c" if first else "tok_emb"  # the first and last in sorted-name order
    with pytest.raises(CheckpointError,
                       match=rf"ckpt\.bin: tensor {tensor} holds a non-finite value$"):
        load_checkpoint(saved_checkpoint)


def test_load_checkpoint_rejects_a_payload_from_another_run(tmp_path):
    # an interrupted re-train into the same base, or a hand copy, can pair one
    # run's manifest with another run's payload of the very same size
    for seed in (0, 5):
        result = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0, seed=seed))
        save_checkpoint(result.final, str(tmp_path / f"seed{seed}"))
    base = str(tmp_path / "seed5")
    (tmp_path / "seed5.bin").write_bytes((tmp_path / "seed0.bin").read_bytes())
    with pytest.raises(CheckpointError, match=r"seed5\.bin: its SHA-256 differs from "
                                              r"payload_sha256 in .*seed5\.json$"):
        load_checkpoint(base)


def test_load_checkpoint_rejects_one_changed_payload_byte(saved_checkpoint):
    with open(saved_checkpoint + ".bin", "rb") as f:
        payload = bytearray(f.read())
    payload[0] ^= 1  # the low mantissa bit of the first value: still finite
    assert np.isfinite(np.frombuffer(bytes(payload[:4]), dtype="<f4")).all()
    _write_payload(saved_checkpoint, bytes(payload), digest=False)
    with pytest.raises(CheckpointError, match=r"ckpt\.bin: its SHA-256 differs"):
        load_checkpoint(saved_checkpoint)


def test_save_checkpoint_renames_the_payload_before_the_manifest(tmp_path, monkeypatch):
    # a save cut short after the first rename leaves a new payload beside the
    # old manifest, which its digest refuses; never the other way round
    renamed = []
    monkeypatch.setattr("sgforge.train.os.replace",
                        lambda src, dst: (renamed.append((src, dst)), os.rename(src, dst)))
    ckpt = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0)).final
    base = str(tmp_path / "ckpt")
    save_checkpoint(ckpt, base)
    assert renamed == [(base + ".bin.tmp", base + ".bin"), (base + ".json.tmp", base + ".json")]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["ckpt.bin", "ckpt.json"]


def test_save_checkpoint_states_the_tokenizers_own_mode(tmp_path):
    # the manifest states the mode once, as model_config.tokenizer_mode, so a
    # config that disagrees must not make the tokenizer load in the other mode
    ckpt = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0)).final
    base = str(tmp_path / "ckpt")
    save_checkpoint(replace(ckpt, model_config=replace(ckpt.model_config,
                                                       tokenizer_mode="bpe")), base)
    assert load_checkpoint(base).tokenizer == ckpt.tokenizer


def test_save_checkpoint_rejects_params_the_config_does_not_describe(tmp_path):
    # the payload stores no shapes, so a transposed tensor of the same size
    # would load silently reshaped
    ckpt = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0)).final
    ckpt.params["head.w_c"] = np.ascontiguousarray(ckpt.params["head.w_c"].T)
    with pytest.raises(ShapeMismatchError):
        save_checkpoint(ckpt, str(tmp_path / "ckpt"))
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_states_its_own_step_once(tmp_path):
    examples = synthetic_examples(40)
    result = train(examples[:30], examples[30:], DESK_SMALL,
                   TrainConfig(learning_rate=1e-2, epochs=6, batch_size=8, seed=1))
    base = str(tmp_path / "ckpt")
    save_checkpoint(result.final, base)
    with open(base + ".json") as f:
        manifest = json.load(f)
    assert "step" not in manifest
    assert manifest["metrics"]["step"] == result.log[-1]["step"]
    assert load_checkpoint(base).metrics == manifest["metrics"] == result.final.metrics
