"""Training loop: Adam updates, parent-loss weight calibration, checkpoints.

Checkpoints are a JSON manifest plus a little-endian float32 payload; loading
reproduces tensors bit-exactly. Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .data import Region, check_field_types, json_int, json_list, json_object, json_str
from .errors import (
    CheckpointError,
    ConfigError,
    EmptyDatasetError,
    SequenceTooLongError,
    ShapeMismatchError,
    TrainingDivergedError,
    cut_json,
)
from .graph import SceneGraph, canonical_words
from .metrics import evaluate_corpus
from .model import (
    ModelConfig,
    ModelOutputs,
    Params,
    forward,
    forward_batches,
    init_params,
    loss_and_grads,
    loss_from_outputs,
    loss_terms,
    pad_targets,
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
        check_field_types(self)
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
    """One training or dev item: a region, whose description is the input
    and whose graph dev scoring reads, and its tagging target."""

    region: Region
    target: TaggedSentence


@dataclass
class Encoded:
    seq: TokenSequence
    types: np.ndarray
    parents: np.ndarray
    example: Example


def calibrate_lambda(params: Params, cfg: ModelConfig, batch: list[Encoded]) -> float:
    """Ratio of mean class loss to mean parent loss over the batch positions,
    measured at the current parameters. Falls back to 1.0 when the batch has
    no non-NONE position.

    Each example's terms come from its own unpadded rows of one `forward`,
    as a batch of one: numpy sums a padded row in another order, so one
    `loss_terms` call on the padded batch would move λ's last bits."""
    total_class = total_parent = 0.0
    n_class = n_parent = 0
    out = forward(params, cfg, [enc.seq for enc in batch])
    for i, enc in enumerate(batch):
        t = len(enc.types)
        alone = ModelOutputs(out.class_logits[i : i + 1, :t],
                             out.parent_logits[i : i + 1, :t, : t + 1])
        (class_mean,), (parent_mean,) = loss_terms(alone, enc.types[None], enc.parents[None])
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
_CHECKPOINT_VERSION = 5
_MANIFEST_KEYS = ("format", "version", "model_config", "train_config", "tokenizer", "metrics",
                  "payload_sha256")
_TOKENIZER_KEYS = ("tokens", "merges")
# the config keys save_checkpoint writes, each required: what a --model-config
# file may set (vocab_size is the tokenizer's token count) and every TrainConfig field
_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.name != "vocab_size")
_TRAIN_KEYS = tuple(f.name for f in fields(TrainConfig))


def save_checkpoint(ckpt: Checkpoint, base_path: str) -> None:
    """Write the {base}.bin payload, every param as little-endian float32 in
    sorted-name order, back to back, and the {base}.json manifest, which
    holds its SHA-256. The vocabulary size and the mode are the tokenizer's.
    The layout follows from `param_shapes(model_config)`, so the params must
    have exactly those names and shapes. Both files are written under a .tmp
    suffix, then the .bin and last the .json renamed into place, so an
    interrupted save leaves the old pair or one that its digest refuses."""
    cfg = replace(ckpt.model_config, vocab_size=ckpt.tokenizer.vocab_size,
                  tokenizer_mode=ckpt.tokenizer.mode)
    if {name: p.shape for name, p in ckpt.params.items()} != param_shapes(cfg):
        raise ShapeMismatchError("checkpoint params differ from param_shapes(model_config)")
    payload = b"".join(np.ascontiguousarray(ckpt.params[name], dtype="<f4").tobytes()
                       for name in sorted(ckpt.params))
    manifest = {
        "format": _CHECKPOINT_FORMAT,
        "version": _CHECKPOINT_VERSION,
        "model_config": {key: getattr(cfg, key) for key in _MODEL_KEYS},
        "train_config": asdict(ckpt.train_config),
        "tokenizer": {"tokens": list(ckpt.tokenizer.tokens),
                      "merges": [list(m) for m in ckpt.tokenizer.merges]},
        "metrics": ckpt.metrics,
        "payload_sha256": hashlib.sha256(payload).hexdigest(),
    }
    with open(base_path + ".bin.tmp", "wb") as f:
        f.write(payload)
    with open(base_path + ".json.tmp", "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    for ext in (".bin", ".json"):
        os.replace(base_path + ext + ".tmp", base_path + ext)


def load_checkpoint(base_path: str) -> Checkpoint:
    """Read a checkpoint written by `save_checkpoint`. Raises CheckpointError
    unless the manifest is well formed, its tokenizer block makes a
    `Tokenizer`, and the payload is the one the manifest's digest names and
    holds exactly the finite float32 values that `param_shapes(model_config)`
    asks for."""
    json_path, bin_path = base_path + ".json", base_path + ".bin"
    try:
        with open(json_path, encoding="utf-8") as f:
            manifest = json.load(f)
        with open(bin_path, "rb") as f:
            payload = f.read()
    except (OSError, ValueError) as e:
        raise CheckpointError(f"cannot read checkpoint {base_path}: {e}") from None
    try:
        json_object(manifest, "manifest", _MANIFEST_KEYS, _MANIFEST_KEYS)
        version = json_int(manifest["version"], "version")  # not 5.0, which equals 5
        if (manifest["format"], version) != (_CHECKPOINT_FORMAT, _CHECKPOINT_VERSION):
            raise ValueError(f"unsupported format {cut_json(manifest['format'])} "
                             f"version {version}")
        tok = json_object(manifest["tokenizer"], "tokenizer", _TOKENIZER_KEYS, _TOKENIZER_KEYS)
        tokens = tuple(json_list(tok["tokens"], "tokenizer tokens", str))
        model_config = ModelConfig(vocab_size=len(tokens), **json_object(
            manifest["model_config"], "model_config", _MODEL_KEYS, _MODEL_KEYS))
        train_config = TrainConfig(**json_object(manifest["train_config"], "train_config",
                                                 _TRAIN_KEYS, _TRAIN_KEYS))
        merges = json_list(tok["merges"], "tokenizer merges", list, 2)
        tokenizer = Tokenizer(
            model_config.tokenizer_mode, tokens,
            tuple(tuple(json_list(m, "a tokenizer merge", str)) for m in merges))
        json_object(manifest["metrics"], "metrics")
        digest = json_str(manifest["payload_sha256"], "payload_sha256")
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{json_path}: {e}") from None
    shapes = param_shapes(model_config)
    sizes = {name: math.prod(shape) for name, shape in shapes.items()}
    need = 4 * sum(sizes.values())
    if len(payload) != need:
        raise CheckpointError(f"{bin_path}: holds {len(payload)} bytes, the model config in "
                              f"{json_path} needs {need}")
    if hashlib.sha256(payload).hexdigest() != digest:
        raise CheckpointError(f"{bin_path}: its SHA-256 differs from payload_sha256 in "
                              f"{json_path}")
    values = np.frombuffer(payload, dtype="<f4")
    params: Params = {}
    offset = 0
    for name in sorted(shapes):
        params[name] = values[offset : offset + sizes[name]].reshape(shapes[name]).copy()
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"{bin_path}: tensor {name} holds a non-finite value")
        offset += sizes[name]
    return Checkpoint(model_config, train_config, tokenizer, params, manifest["metrics"])


@dataclass
class TrainResult:
    final: Checkpoint
    log: list[dict]


def _encode_examples(tokenizer: Tokenizer, examples: list[Example]) -> list[Encoded]:
    out = []
    for ex in examples:
        seq = tokenizer.encode(ex.region.description)
        types, parents = target_arrays(seq, ex.target)
        out.append(Encoded(seq, types, parents, ex))
    return out


def _dev_metrics(params, model_cfg, dev_encoded, loss_weight, batch_size):
    """Dev loss and dev F, both read from one batched forward pass: each
    length-sorted batch gets one `loss_from_outputs` call on its padded
    targets and one `read_tags` call. Both are None without a dev set."""
    if not dev_encoded:
        return None, None
    total_loss = 0.0
    graphs: list[SceneGraph | None] = [None] * len(dev_encoded)
    seqs = [enc.seq for enc in dev_encoded]
    for chunk, outputs in forward_batches(params, model_cfg, seqs, batch_size):
        batch = [dev_encoded[i] for i in chunk]
        targets = pad_targets([enc.types for enc in batch], [enc.parents for enc in batch],
                              outputs.class_logits.shape[1])
        total_loss += float(np.sum(loss_from_outputs(outputs, *targets, loss_weight)))
        words = [canonical_words(enc.example.region.description) for enc in batch]
        sents = read_tags(outputs, words, [enc.seq.word_heads for enc in batch])
        for i, sent in zip(chunk, sents):
            graphs[i] = decode_tags_to_graph(sent).graph
    aggregate, _ = evaluate_corpus(graphs, [enc.example.region for enc in dev_encoded])
    return total_loss / len(dev_encoded), aggregate["mean_f"]


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
    epoch (dev loss and dev F included) and return the checkpoint of the last
    epoch, which holds the trained params themselves, not a copy."""
    if not train_examples:
        raise EmptyDatasetError("no training examples")
    tokenizer = Tokenizer.from_corpus(
        [ex.region.description for ex in train_examples], mode=model_cfg.tokenizer_mode
    )
    try:
        model_cfg = replace(model_cfg, vocab_size=tokenizer.vocab_size)
    except ValueError as e:  # only the parameter cap depends on vocab_size
        raise ConfigError(f"with a vocabulary of {tokenizer.vocab_size} tokens, {e}") from None
    rng = np.random.default_rng(train_cfg.seed)
    params = init_params(model_cfg, seed=train_cfg.seed)
    train_enc = _encode_examples(tokenizer, train_examples)
    dev_enc = _encode_examples(tokenizer, dev_examples)
    for enc in train_enc + dev_enc:  # fail before the first step
        if len(enc.seq) > model_cfg.max_len + 1:
            raise SequenceTooLongError(
                f"region {enc.example.region.region_id} has {len(enc.seq) - 1} tokens, "
                f"more than max_len {model_cfg.max_len}")

    loss_weight = calibrate_lambda(params, model_cfg, train_enc[: train_cfg.batch_size])

    state = AdamState()
    log: list[dict] = []
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
        if not ((dev_loss is None or math.isfinite(dev_loss)) and _all_finite(params.values())):
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
    metrics = dict(log[-1]) if log else {"epoch": 0, "step": 0, "lambda": loss_weight}
    return TrainResult(Checkpoint(model_cfg, train_cfg, tokenizer, params, metrics), log)
