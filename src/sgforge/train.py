"""Training loop: Adam updates, parent-loss weight calibration, checkpoints.

Checkpoints are a JSON manifest plus a little-endian float32 payload; loading
reproduces tensors bit-exactly. Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import (
    CheckpointError,
    EmptyDatasetError,
    SequenceTooLongError,
    ShapeMismatchError,
    TrainingDivergedError,
)
from .graph import SceneGraph, canonical_words
from .metrics import evaluate_corpus
from .model import (
    ModelConfig,
    Params,
    forward,
    forward_batches,
    init_params,
    loss_and_grads,
    loss_from_outputs,
    loss_terms,
    param_shapes,
    read_tags,
    target_arrays,
)
from .tags import NodeType, TaggedSentence, decode_tags_to_graph
from .tokenizer import Tokenizer, TokenSequence


# Adam's published defaults (Kingma & Ba 2015)
_BETA1 = 0.9
_BETA2 = 0.999
_EPSILON = 1e-8


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3  # full-scale runs use 6.25e-5
    epochs: int = 4
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, got {self.learning_rate}")
        if self.batch_size < 1:  # also the inference chunk size
            raise ValueError("batch_size must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must not be negative")
        if self.seed < 0:
            raise ValueError("seed must not be negative")


@dataclass
class AdamState:
    step: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)


def adam_step(params: Params, grads: Params, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update of params, m and v, in place.

    Each tensor needs two full-size temporaries; the arithmetic runs in the
    order of the textbook formula, so results match it bit for bit.
    """
    if set(params) != set(grads):
        raise ShapeMismatchError("parameter and gradient names differ")
    state.step += 1
    t = state.step
    b1, b2 = _BETA1, _BETA2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: param {p.shape} vs grad {g.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        step = (1.0 - b1) * g
        m *= b1
        m += step
        np.multiply(g, 1.0 - b2, out=step)
        step *= g  # (1 - b2) * g * g
        v *= b2
        v += step
        np.divide(m, 1.0 - b1**t, out=step)  # m_hat
        step *= cfg.learning_rate
        denom = v / (1.0 - b2**t)  # v_hat
        np.sqrt(denom, out=denom)
        denom += _EPSILON
        step /= denom
        p -= step


@dataclass(frozen=True)
class Example:
    """One training or dev item: a description, its tagging target, and
    the reference graph that dev scoring reads."""

    description: str
    target: TaggedSentence
    graph: SceneGraph


@dataclass
class Encoded:
    seq: TokenSequence
    types: np.ndarray
    parents: np.ndarray
    example: Example


def calibrate_lambda(params: Params, cfg: ModelConfig, batch: list[Encoded]) -> float:
    """Ratio of mean class loss to mean parent loss over the batch positions,
    measured at the current parameters. Falls back to 1.0 when the batch has
    no non-NONE position."""
    total_class = 0.0
    n_class = 0
    total_parent = 0.0
    n_parent = 0
    for enc, outputs in zip(batch, forward(params, cfg, [enc.seq for enc in batch])):
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


@dataclass
class Checkpoint:
    model_config: ModelConfig
    train_config: TrainConfig
    tokenizer: Tokenizer
    params: Params
    metrics: dict  # the epoch record, "step" included


_CHECKPOINT_FORMAT = "sgforge-checkpoint"
_CHECKPOINT_VERSION = 4
_MANIFEST_KEYS = ("format", "version", "model_config", "train_config", "tokenizer", "metrics")


def save_checkpoint(ckpt: Checkpoint, base_path: str) -> None:
    """Write the {base}.json manifest and the {base}.bin payload: every param
    as little-endian float32, in sorted-name order, back to back. The layout
    follows from `param_shapes(model_config)`, so the manifest does not list it
    and the params must have exactly those names and shapes."""
    if {name: p.shape for name, p in ckpt.params.items()} != param_shapes(ckpt.model_config):
        raise ShapeMismatchError("checkpoint params differ from param_shapes(model_config)")
    manifest = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "model_config": asdict(ckpt.model_config),
        "train_config": asdict(ckpt.train_config),
        "tokenizer": {
            "mode": ckpt.tokenizer.mode,
            "tokens": list(ckpt.tokenizer.tokens),
            "merges": [list(m) for m in ckpt.tokenizer.merges],
        },
        "metrics": ckpt.metrics,
    }
    with open(base_path + ".json", "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    with open(base_path + ".bin", "wb") as f:
        f.write(b"".join(np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes()
                         for name in sorted(ckpt.params)))


def load_checkpoint(base_path: str) -> Checkpoint:
    """Read a checkpoint written by `save_checkpoint`. Raises CheckpointError
    unless the manifest is well formed and the payload holds exactly the
    float32 values that `param_shapes(model_config)` asks for."""
    json_path, bin_path = base_path + ".json", base_path + ".bin"

    def bad(message: str) -> CheckpointError:
        return CheckpointError(f"{json_path}: {message}")

    try:
        with open(json_path, encoding="utf-8") as f:
            manifest = json.load(f)
        with open(bin_path, "rb") as f:
            payload = f.read()
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read checkpoint {base_path}: {e}") from None
    if not isinstance(manifest, dict):
        raise bad("manifest is not a JSON object")
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise bad(f"manifest lacks {missing}")
    if manifest["format"] != _CHECKPOINT_FORMAT or manifest["version"] != _CHECKPOINT_VERSION:
        raise bad(f"unsupported format {manifest['format']!r} version {manifest['version']!r}")
    try:
        model_config = ModelConfig(**manifest["model_config"])
        train_config = TrainConfig(**manifest["train_config"])
        tok_info = manifest["tokenizer"]
        tokenizer = Tokenizer(
            tok_info["mode"], tuple(tok_info["tokens"]),
            tuple(tuple(m) for m in tok_info["merges"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise bad(f"bad config or tokenizer: {e!r}") from None
    if tokenizer.vocab_size != model_config.vocab_size:
        raise bad(f"tokenizer has {tokenizer.vocab_size} tokens, model_config.vocab_size is "
                  f"{model_config.vocab_size}")
    shapes = param_shapes(model_config)
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    need = 4 * sum(sizes.values())
    if len(payload) != need:
        raise CheckpointError(f"{bin_path}: holds {len(payload)} bytes, the model config in "
                              f"{json_path} needs {need}")
    values = np.frombuffer(payload, dtype="<f4")
    params: Params = {}
    offset = 0
    for name in sorted(shapes):
        params[name] = values[offset : offset + sizes[name]].reshape(shapes[name]).copy()
        offset += sizes[name]
    return Checkpoint(model_config, train_config, tokenizer, params, manifest["metrics"])


@dataclass
class TrainResult:
    final: Checkpoint
    best: Checkpoint
    log: list[dict]


def _encode_examples(tokenizer: Tokenizer, examples: list[Example]) -> list[Encoded]:
    out = []
    for ex in examples:
        seq = tokenizer.encode(ex.description)
        types, parents = target_arrays(seq, ex.target)
        out.append(Encoded(seq, types, parents, ex))
    return out


def _dev_metrics(params, model_cfg, dev_encoded, loss_weight, batch_size):
    """Dev loss and dev F, both read from one batched forward pass."""
    if not dev_encoded:
        return 0.0, None
    losses = [0.0] * len(dev_encoded)
    graphs: list[SceneGraph | None] = [None] * len(dev_encoded)
    seqs = [enc.seq for enc in dev_encoded]
    for i, outputs in forward_batches(params, model_cfg, seqs, batch_size):
        enc = dev_encoded[i]
        losses[i] = loss_from_outputs(outputs, enc.types, enc.parents, loss_weight)
        words = canonical_words(enc.example.description)
        graphs[i] = decode_tags_to_graph(read_tags(outputs, words, enc.seq.word_heads)).graph
    examples = [enc.example for enc in dev_encoded]
    aggregate, _ = evaluate_corpus(
        graphs, [ex.graph for ex in examples], [ex.description for ex in examples])
    return sum(losses) / len(losses), aggregate["mean_f"]


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


@np.errstate(over="ignore", invalid="ignore")  # divergence is checked and reported below
def train(
    train_examples: list[Example],
    dev_examples: list[Example],
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    log_fn=None,
) -> TrainResult:
    """Train for the configured number of epochs; emit one JSON log line per
    epoch and return both the final and the best-dev checkpoints."""
    if not train_examples:
        raise EmptyDatasetError("no training examples")
    tokenizer = Tokenizer.from_corpus(
        [ex.description for ex in train_examples], mode=model_cfg.tokenizer_mode
    )
    model_cfg = replace(model_cfg, vocab_size=tokenizer.vocab_size)
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(model_cfg, seed=train_cfg.seed)
    train_enc = _encode_examples(tokenizer, train_examples)
    dev_enc = _encode_examples(tokenizer, dev_examples)
    for k, enc in enumerate(train_enc + dev_enc):  # fail before the first step
        if len(enc.seq) > model_cfg.max_len + 1:
            n = len(enc.seq) - 1
            raise SequenceTooLongError(
                f"example {k} (train examples first, then dev) has {n} tokens, more than "
                f"max_len {model_cfg.max_len}", position=k, tokens=n)

    loss_weight = calibrate_lambda(params, model_cfg, train_enc[: train_cfg.batch_size])

    state = AdamState()
    log: list[dict] = []
    best: Checkpoint | None = None  # the epoch with the highest dev F so far

    def make_ckpt(metrics):
        return Checkpoint(model_cfg, train_cfg, tokenizer,
                          {name: arr.copy() for name, arr in params.items()}, dict(metrics))

    for epoch in range(1, train_cfg.epochs + 1):
        order = rng.permutation(len(train_enc))
        epoch_loss = 0.0
        for start in range(0, len(order), train_cfg.batch_size):
            batch = [train_enc[i] for i in order[start : start + train_cfg.batch_size]]
            loss, grads = loss_and_grads(
                params, model_cfg, [enc.seq for enc in batch], [enc.types for enc in batch],
                [enc.parents for enc in batch], loss_weight,
            )
            if not (math.isfinite(loss) and _all_finite(grads.values())):
                raise TrainingDivergedError(
                    f"training diverged at epoch {epoch}, step {state.step + 1}: "
                    "non-finite loss or gradient"
                )
            adam_step(params, grads, state, train_cfg)
            epoch_loss += loss * len(batch)
        dev_loss, dev_f = _dev_metrics(
            params, model_cfg, dev_enc, loss_weight, train_cfg.batch_size
        )
        if not (math.isfinite(dev_loss) and _all_finite(params.values())):
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch}: non-finite parameters or dev loss"
            )
        record = {
            "epoch": epoch,
            "step": state.step,
            "train_loss": epoch_loss / len(train_enc),
            "dev_loss": dev_loss,
            "dev_f": dev_f,
            "lambda": loss_weight,
        }
        log.append(record)
        if log_fn is not None:
            log_fn(json.dumps(record, sort_keys=True, allow_nan=False))
        if dev_f is not None and (best is None or dev_f > best.metrics["dev_f"]):
            best = make_ckpt(record)
    final = make_ckpt(log[-1] if log else {"epoch": 0, "step": 0, "lambda": loss_weight})
    return TrainResult(final, best or final, log)  # no dev set: best mirrors final
