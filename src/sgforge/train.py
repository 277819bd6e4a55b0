"""Training loop: Adam updates, parent-loss weight calibration, checkpoints.

Checkpoints are a JSON manifest plus a little-endian float32 payload; loading
reproduces tensors bit-exactly. Runs are deterministic under a fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .align import EMPTY_LEXICON
from .errors import EmptyDatasetError, ShapeMismatchError, TrainingDivergedError
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
    read_tags,
    target_arrays,
)
from .tags import NodeType, TaggedSentence, decode_tags_to_graph
from .tokenizer import Tokenizer, TokenSequence


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3  # full-scale runs use 6.25e-5
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_epsilon: float = 1e-8
    epochs: int = 4
    batch_size: int = 32
    seed: int = 0
    lambda_mode: str = "auto"  # "auto" or "fixed"
    lambda_value: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.adam_beta1 < 1.0 or not 0.0 < self.adam_beta2 < 1.0:
            raise ValueError("Adam betas must lie in (0, 1)")
        if self.learning_rate <= 0.0:
            raise ValueError("learning rate must be positive")
        if self.lambda_mode not in ("auto", "fixed"):
            raise ValueError(f"unknown lambda_mode {self.lambda_mode!r}")

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "adam_beta1": self.adam_beta1,
            "adam_beta2": self.adam_beta2,
            "adam_epsilon": self.adam_epsilon,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seed": self.seed,
            "lambda_mode": self.lambda_mode,
            "lambda_value": self.lambda_value,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


@dataclass
class AdamState:
    step: int = 0
    m: Params = field(default_factory=dict)
    v: Params = field(default_factory=dict)


def adam_step(params: Params, grads: Params, state: AdamState, cfg: TrainConfig) -> None:
    """One bias-corrected Adam update, in place."""
    if set(params) != set(grads):
        raise ShapeMismatchError("parameter and gradient names differ")
    state.step += 1
    t = state.step
    b1, b2 = cfg.adam_beta1, cfg.adam_beta2
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeMismatchError(f"{name}: param {p.shape} vs grad {g.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p -= cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.adam_epsilon)


@dataclass(frozen=True)
class Example:
    """One training or dev item: a description, its tagging target, and
    (for dev scoring) the reference graph."""

    description: str
    target: TaggedSentence
    graph: SceneGraph | None = None


@dataclass
class Encoded:
    seq: TokenSequence
    types: np.ndarray
    parents: np.ndarray
    example: Example | None = None


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
    step: int = 0
    metrics: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, base_path: str) -> None:
    """Write {base}.json manifest and {base}.bin float32 payload."""
    names = sorted(ckpt.params)
    tensors = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.params[name], dtype="<f4")
        blob = arr.tobytes()
        tensors.append(
            {"name": name, "shape": list(arr.shape), "dtype": "<f4",
             "offset": offset, "nbytes": len(blob)}
        )
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "format": "sgforge-checkpoint",
        "version": 1,
        "model_config": ckpt.model_config.to_dict(),
        "train_config": ckpt.train_config.to_dict(),
        "tokenizer": {
            "mode": ckpt.tokenizer.mode,
            "tokens": list(ckpt.tokenizer.tokens),
            "merges": [list(m) for m in ckpt.tokenizer.merges],
        },
        "step": ckpt.step,
        "metrics": ckpt.metrics,
        "tensors": tensors,
    }
    with open(base_path + ".json", "w", encoding="utf-8") as f:
        f.write(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
    with open(base_path + ".bin", "wb") as f:
        f.write(b"".join(blobs))


def load_checkpoint(base_path: str) -> Checkpoint:
    with open(base_path + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    with open(base_path + ".bin", "rb") as f:
        payload = f.read()
    params: Params = {}
    for spec in manifest["tensors"]:
        raw = payload[spec["offset"] : spec["offset"] + spec["nbytes"]]
        arr = np.frombuffer(raw, dtype="<f4").reshape(spec["shape"]).copy()
        params[spec["name"]] = arr
    tok_info = manifest["tokenizer"]
    tokenizer = Tokenizer(
        tok_info["mode"], tuple(tok_info["tokens"]),
        tuple(tuple(m) for m in tok_info["merges"]),
    )
    return Checkpoint(
        ModelConfig.from_dict(manifest["model_config"]),
        TrainConfig.from_dict(manifest["train_config"]),
        tokenizer,
        params,
        manifest["step"],
        manifest["metrics"],
    )


@dataclass
class TrainResult:
    final: Checkpoint
    best: Checkpoint
    log: list[dict]


def _clone_params(params: Params) -> Params:
    return {name: arr.copy() for name, arr in params.items()}


def _encode_examples(tokenizer: Tokenizer, examples: list[Example]) -> list[Encoded]:
    out = []
    for ex in examples:
        seq = tokenizer.encode(ex.description)
        types, parents = target_arrays(seq, ex.target)
        out.append(Encoded(seq, types, parents, ex))
    return out


def _dev_metrics(params, model_cfg, dev_encoded, loss_weight, batch_size):
    """Dev loss and dev F, both read from one batched forward pass."""
    losses = [0.0] * len(dev_encoded)
    graphs: list[SceneGraph | None] = [None] * len(dev_encoded)
    seqs = [enc.seq for enc in dev_encoded]
    for i, outputs in forward_batches(params, model_cfg, seqs, batch_size):
        enc = dev_encoded[i]
        losses[i] = loss_from_outputs(outputs, enc.types, enc.parents, loss_weight)
        if enc.example.graph is not None:
            words = canonical_words(enc.example.description)
            tagged = read_tags(outputs, words, enc.seq.word_heads)
            graphs[i] = decode_tags_to_graph(tagged).graph
    scored = [enc.example for enc in dev_encoded if enc.example.graph is not None]
    dev_f = None
    if scored:
        aggregate, _ = evaluate_corpus(
            [g for g in graphs if g is not None],
            [ex.graph for ex in scored],
            [ex.description for ex in scored],
            EMPTY_LEXICON, limited=False, region_ids=list(range(len(scored))),
        )
        dev_f = aggregate["mean_f"]
    return (sum(losses) / len(losses) if losses else 0.0), dev_f


def _all_finite(arrays) -> bool:
    return all(np.isfinite(a).all() for a in arrays)


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

    if train_cfg.lambda_mode == "fixed":
        loss_weight = train_cfg.lambda_value
    else:
        loss_weight = calibrate_lambda(params, model_cfg, train_enc[: train_cfg.batch_size])
    model_cfg = replace(model_cfg, loss_weight=loss_weight)

    state = AdamState()
    log: list[dict] = []
    best_f = -1.0
    best_params = _clone_params(params)
    best_metrics: dict = {"epoch": 0}

    def make_ckpt(p, step, metrics):
        return Checkpoint(model_cfg, train_cfg, tokenizer, _clone_params(p), step, dict(metrics))

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
        if dev_f is not None and dev_f > best_f:
            best_f = dev_f
            best_params = _clone_params(params)
            best_metrics = record
    final_metrics = log[-1] if log else {"epoch": 0, "lambda": loss_weight}
    final = make_ckpt(params, state.step, final_metrics)
    best = make_ckpt(best_params, state.step, best_metrics)
    if best_f < 0:  # no dev set: best mirrors final
        best = final
    return TrainResult(final, best, log)
