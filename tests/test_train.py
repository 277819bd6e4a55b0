import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sgforge.align import align
from sgforge.data import SyntheticGrammar, generate_synthetic
from sgforge.errors import CheckpointError, EmptyDatasetError, ShapeMismatchError
from sgforge.model import ModelConfig, forward, init_params, param_shapes
from sgforge.tags import NodeType, tagged
from sgforge.tokenizer import TokenSequence, Tokenizer
from sgforge.train import (
    AdamState,
    Checkpoint,
    Encoded,
    Example,
    TrainConfig,
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


def synthetic_examples(n, seed=17):
    regions = generate_synthetic(SyntheticGrammar(), n, seed=seed)
    out = []
    for r in regions:
        result = align(r.description, r.graph)
        out.append(Example(r.description, result.tagged, r.graph))
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
    seq = loaded.tokenizer.encode(examples[0].description)
    [a] = forward(ckpt.params, ckpt.model_config, [seq])
    [b] = forward(loaded.params, loaded.model_config, [seq])
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


@pytest.mark.parametrize("edit, needle", [
    (lambda m: m.update(format="other"), "format"),
    (lambda m: m.update(version=1), "version"),
    (lambda m: m.update(version=2), "version 2"),
    (lambda m: m.update(version=3), "version 3"),
    (lambda m: m.pop("tokenizer"), "tokenizer"),
    (lambda m: m["train_config"].update(batch_size=0), "batch_size"),
    (lambda m: m["model_config"].update(vocab_size=m["model_config"]["vocab_size"] + 1),
     "vocab_size"),
    (lambda m: m["model_config"].update(d_ff=m["model_config"]["d_ff"] + 1), "ckpt.bin"),
])
def test_load_checkpoint_rejects_bad_manifests(saved_checkpoint, edit, needle):
    _edit_manifest(saved_checkpoint, edit)
    with pytest.raises(CheckpointError, match=needle) as info:
        load_checkpoint(saved_checkpoint)
    assert saved_checkpoint in str(info.value)


@pytest.mark.parametrize("edit", [
    lambda payload: payload[:-1],
    lambda payload: payload + bytes(4),
], ids=["one-byte-short", "one-float-too-many"])
def test_load_checkpoint_rejects_payload_of_wrong_length(saved_checkpoint, edit):
    with open(saved_checkpoint + ".bin", "rb") as f:
        payload = f.read()
    with open(saved_checkpoint + ".bin", "wb") as f:
        f.write(edit(payload))
    wrong = len(edit(payload))
    with pytest.raises(CheckpointError, match=f"ckpt.bin: holds {wrong} bytes.* {len(payload)}"):
        load_checkpoint(saved_checkpoint)


def test_save_checkpoint_rejects_params_the_config_does_not_describe(tmp_path):
    # the payload stores no shapes, so a transposed tensor of the same size
    # would load silently reshaped
    ckpt = train(synthetic_examples(6), [], DESK_SMALL, TrainConfig(epochs=0)).final
    ckpt.params["head.w_c"] = np.ascontiguousarray(ckpt.params["head.w_c"].T)
    with pytest.raises(ShapeMismatchError):
        save_checkpoint(ckpt, str(tmp_path / "ckpt"))
    assert list(tmp_path.iterdir()) == []


def test_best_checkpoint_states_its_own_step_once(tmp_path):
    # dev F peaks at epoch 4 of 6: the best checkpoint is not the final one
    examples = synthetic_examples(40)
    result = train(examples[:30], examples[30:], DESK_SMALL,
                   TrainConfig(learning_rate=1e-2, epochs=6, batch_size=8, seed=1))
    best_epoch = result.best.metrics["epoch"]
    assert best_epoch < len(result.log)
    base = str(tmp_path / "ckpt.best")
    save_checkpoint(result.best, base)
    with open(base + ".json") as f:
        manifest = json.load(f)
    assert "step" not in manifest
    assert manifest["metrics"]["step"] == result.log[best_epoch - 1]["step"]
    assert manifest["metrics"]["step"] < result.final.metrics["step"]
    assert load_checkpoint(base).metrics == manifest["metrics"]
