"""Transformer tagger with an attention-based parent head.

Backbone: token + position embeddings, then decoder-style blocks of causal
multi-head self-attention and a GELU feed-forward, each followed by a residual
add and layer norm. Head: per-position class logits over the six node types,
and parent logits from a scaled query/key dot product over all final hidden
states including ROOT. The parent head is bidirectional on purpose: attribute
arcs routinely point rightward at their object.

All gradients are computed analytically; tests check them against central
finite differences.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatchError, SequenceTooLongError
from .graph import canonical_words
from .tags import N_NODE_TYPES, NodeType, TaggedSentence, TaggedToken
from .tokenizer import PAD_ID, TokenSequence, Tokenizer

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 32
    d_qk: int = 64  # parent-head query/key width
    n_classes: int = N_NODE_TYPES
    loss_weight: float = 1.0  # parent-loss weight; trainer may recalibrate
    tokenizer_mode: str = "word"

    def __post_init__(self):
        for name in ("d_model", "n_heads", "d_ff", "max_len", "d_qk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.vocab_size < 0 or self.n_layers < 0:
            raise ValueError("vocab_size and n_layers must not be negative")
        if self.tokenizer_mode not in ("word", "bpe"):
            raise ValueError(f"tokenizer_mode must be 'word' or 'bpe', got {self.tokenizer_mode!r}")
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        if self.n_classes != N_NODE_TYPES:
            raise ValueError(f"n_classes is fixed at {N_NODE_TYPES}")

    def to_dict(self) -> dict:
        return {
            "vocab_size": self.vocab_size,
            "d_model": self.d_model,
            "n_layers": self.n_layers,
            "n_heads": self.n_heads,
            "d_ff": self.d_ff,
            "max_len": self.max_len,
            "d_qk": self.d_qk,
            "n_classes": self.n_classes,
            "loss_weight": self.loss_weight,
            "tokenizer_mode": self.tokenizer_mode,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


@dataclass(frozen=True)
class ModelOutputs:
    """Logits of one example; inside the batched path the same blocks carry a
    leading batch axis and right padding."""

    class_logits: np.ndarray  # (T, n_classes)
    parent_logits: np.ndarray  # (T, T+1), column 0 is ROOT


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in initialisation order."""
    d, f = cfg.d_model, cfg.d_ff
    shapes = {
        "tok_emb": (cfg.vocab_size, d),
        "pos_emb": (cfg.max_len + 1, d),
        "head.w_q": (d, cfg.d_qk),
        "head.w_k": (d, cfg.d_qk),
        "head.w_c": (d, cfg.n_classes),
    }
    for l in range(cfg.n_layers):
        pre = f"layer{l}."
        shapes.update({
            pre + "attn.w_qkv": (d, 3 * d), pre + "attn.b_qkv": (3 * d,),
            pre + "attn.w_o": (d, d), pre + "attn.b_o": (d,),
            pre + "ln1.g": (d,), pre + "ln1.b": (d,),
            pre + "ffn.w1": (d, f), pre + "ffn.b1": (f,),
            pre + "ffn.w2": (f, d), pre + "ffn.b2": (d,),
            pre + "ln2.g": (d,), pre + "ln2.b": (d,),
        })
    return shapes


def init_params(cfg: ModelConfig, seed: int = 0, dtype=np.float32) -> Params:
    """Normal(0, 0.02) projections and embeddings; layer-norm gain 1, biases 0."""
    rng = np.random.default_rng(seed)
    p: Params = {}
    for name, shape in param_shapes(cfg).items():
        kind = name.rsplit(".", 1)[-1]
        if kind == "g":
            p[name] = np.ones(shape, dtype=dtype)
        elif kind.startswith("b"):
            p[name] = np.zeros(shape, dtype=dtype)
        else:
            p[name] = rng.normal(0.0, 0.02, size=shape).astype(dtype)
    return p


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715

# Both GELU functions use products instead of powers (float32 pow is slow)
# and work in place, so a call makes at most two full-size temporaries.


def gelu(x: np.ndarray) -> np.ndarray:
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)  # tanh(c * (x + a * x^3))
    t += 1.0
    t *= x
    t *= 0.5
    return t


def gelu_grad(x: np.ndarray) -> np.ndarray:
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


_LN_EPS = 1e-5


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    y = (x - mu) * inv
    return g * y + b, (y, inv)


def _layer_norm_backward(dout: np.ndarray, cache, g: np.ndarray):
    """Backward of `_layer_norm` over (rows, d) arrays."""
    y, inv = cache
    dg = (dout * y).sum(axis=0)
    db = dout.sum(axis=0)
    dy = dout * g
    dx = inv * (dy - dy.mean(axis=-1, keepdims=True) - y * (dy * y).mean(axis=-1, keepdims=True))
    return dx, dg, db


def _affine_grads(x: np.ndarray, dy: np.ndarray):
    """Gradients of w and b in y = x @ w + b over (rows, width) arrays."""
    return x.T @ dy, dy.sum(axis=0)


def _rows(rows, width: int, fill: int) -> np.ndarray:
    """Integer rows right-padded with `fill` into one (len(rows), width) array."""
    out = np.full((len(rows), width), fill, dtype=np.int64)
    for dst, row in zip(out, rows):
        dst[: len(row)] = row
    return out


def _pad(cfg: ModelConfig, seqs: list[TokenSequence]) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad a batch with PAD_ID: ids (B, L) and true lengths (B,)."""
    lengths = np.array([len(seq) for seq in seqs])
    if lengths.max() > cfg.max_len + 1:
        raise SequenceTooLongError(f"sequence length {lengths.max()} exceeds {cfg.max_len + 1}")
    return _rows([seq.ids for seq in seqs], lengths.max(), PAD_ID), lengths


def _forward(params: Params, cfg: ModelConfig, ids: np.ndarray, lengths: np.ndarray,
             caches: list | None = None):
    """Backbone and head on a right-padded (B, L) batch; with `caches`, each
    layer appends what its backward pass needs.

    The residual stream is one (B*L, d) array, so every dense projection is a
    single 2D matrix product; only attention and the parent logits reshape to
    a per-example axis. The backbone is causal and padding is on the right, so
    no real position attends to a padded one; only the bidirectional parent
    logits need a mask, -inf on padded columns.
    """
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
        probs = softmax(np.where(causal, scores, -np.inf), axis=-1)
        ctx_cat = (probs @ vh).transpose(0, 2, 1, 3).reshape(B * L, d)
        r1 = a_in + (ctx_cat @ params[pre + "attn.w_o"] + params[pre + "attn.b_o"])
        x_mid, ln1_cache = _layer_norm(r1, params[pre + "ln1.g"], params[pre + "ln1.b"])
        u = x_mid @ params[pre + "ffn.w1"] + params[pre + "ffn.b1"]
        r2 = x_mid + (gelu(u) @ params[pre + "ffn.w2"] + params[pre + "ffn.b2"])
        x, ln2_cache = _layer_norm(r2, params[pre + "ln2.g"], params[pre + "ln2.b"])
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


def forward(params: Params, cfg: ModelConfig, seqs: list[TokenSequence]) -> list[ModelOutputs]:
    """Class logits C and parent logits P (T rows each) for every sequence,
    run as one right-padded batch."""
    ids, lengths = _pad(cfg, seqs)
    out = _forward(params, cfg, ids, lengths)[0]
    return [
        ModelOutputs(out.class_logits[i, : n - 1], out.parent_logits[i, : n - 1, :n])
        for i, n in enumerate(lengths)
    ]


def forward_batches(
    params: Params, cfg: ModelConfig, seqs: list[TokenSequence], batch_size: int
) -> Iterator[tuple[int, ModelOutputs]]:
    """Yield (index, outputs) for every sequence, running `forward` on
    length-sorted batches of batch_size so that batches carry little padding."""
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        yield from zip(chunk, forward(params, cfg, [seqs[i] for i in chunk]))


def target_arrays(seq: TokenSequence, target: TaggedSentence) -> tuple[np.ndarray, np.ndarray]:
    """Map word-level tags onto token positions.

    In bpe mode a word's label sits on its last subword; non-final subwords
    become SAME pointing at that head. Word-level parents are translated to
    head positions (0 stays ROOT).
    """
    if len(seq.word_heads) != len(target):
        raise LengthMismatchError(
            f"sequence has {len(seq.word_heads)} words, target has {len(target)}"
        )
    t = len(seq.ids) - 1
    types = np.full(t, int(NodeType.SAME), dtype=np.int64)
    parents = np.zeros(t, dtype=np.int64)
    prev_head = 0
    for word_i, head in enumerate(seq.word_heads):
        tok = target.tokens[word_i]
        types[head - 1] = int(tok.node_type)
        parents[head - 1] = 0 if tok.parent == 0 else seq.word_heads[tok.parent - 1]
        for pos in range(prev_head + 1, head):  # non-final subwords
            parents[pos - 1] = head
        prev_head = head
    return types, parents


def _loss_weights(types: np.ndarray, loss_weight: float = 1.0):
    """Per-position weights of the two loss terms: 1/T on the T real rows for
    the class term, loss_weight/K on the K non-NONE rows for the parent term,
    and 0 on padded rows, which carry type -1."""
    valid = types >= 0
    arcs = valid & (types != int(NodeType.NONE))
    w_class = valid / np.maximum(valid.sum(-1, keepdims=True), 1)
    return w_class, arcs * (loss_weight / np.maximum(arcs.sum(-1, keepdims=True), 1))


def loss_terms(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Mean class cross-entropy over the T positions, and mean parent
    cross-entropy over the positions whose target type is not NONE (exactly
    zero when there is none).

    Takes one example (T rows) or a right-padded batch (B, T rows) whose
    padded rows carry type -1; a batch gets both terms per example.
    """
    w_class, w_parent = _loss_weights(types)
    log_c = outputs.class_logits - _logsumexp(outputs.class_logits)
    log_p = outputs.parent_logits - _logsumexp(outputs.parent_logits)
    ce_c = -np.take_along_axis(log_c, np.maximum(types, 0)[..., None], -1)[..., 0]
    ce_p = -np.take_along_axis(log_p, parents[..., None], -1)[..., 0]
    return (w_class * ce_c).sum(-1), (w_parent * ce_p).sum(-1)


def loss_from_outputs(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray, loss_weight: float
) -> float:
    """Class term plus loss_weight times parent term (see `loss_terms`) for
    one example."""
    t = outputs.class_logits.shape[0]
    if len(types) != t or len(parents) != t:
        raise LengthMismatchError(f"outputs have {t} positions, targets {len(types)}")
    class_term, parent_term = loss_terms(outputs, types, parents)
    return float(class_term + loss_weight * parent_term)


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True))


def loss_output_grads(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray, loss_weight: float
):
    """Gradients of the loss with respect to the two logit blocks, for one
    example or per example of a padded batch (see `loss_terms`).

    Parent-logit rows at NONE positions and all rows at padded positions are
    exactly zero.
    """
    w_class, w_parent = _loss_weights(types, loss_weight)
    d_class = softmax(outputs.class_logits)
    d_class -= np.arange(d_class.shape[-1]) == types[..., None]
    d_class *= w_class[..., None]
    d_parent = softmax(outputs.parent_logits)
    d_parent -= np.arange(d_parent.shape[-1]) == parents[..., None]
    d_parent *= w_parent[..., None]
    return d_class, d_parent


def loss_and_grads(
    params: Params,
    cfg: ModelConfig,
    seqs: list[TokenSequence],
    types: list[np.ndarray],
    parents: list[np.ndarray],
    loss_weight: float,
) -> tuple[float, Params]:
    """Mean loss over a batch of sequences (one target array pair each) and
    its exact gradients for every parameter tensor."""
    ids, lengths = _pad(cfg, seqs)
    B, L = ids.shape
    for n, ty, pa in zip(lengths, types, parents):
        if len(ty) != n - 1 or len(pa) != n - 1:
            raise LengthMismatchError(f"sequence has {n - 1} positions, targets {len(ty)}")
    tgt_types = _rows(types, L - 1, -1)
    tgt_parents = _rows(parents, L - 1, 0)
    caches: list[dict] = []
    outputs, hidden, q_head, k_head = _forward(params, cfg, ids, lengths, caches)
    class_term, parent_term = loss_terms(outputs, tgt_types, tgt_parents)
    loss = float(np.mean(class_term + loss_weight * parent_term))
    d_class, d_parent = loss_output_grads(outputs, tgt_types, tgt_parents, loss_weight)
    d_class /= B
    d_parent /= B

    # Padded rows get exactly zero gradient from the head, and causality keeps
    # it zero through every layer, so they add nothing to any parameter. The
    # ROOT rows get none from the class and query projections.
    grads: Params = {}
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
        dr2, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = _layer_norm_backward(
            dx, c["ln2"], params[pre + "ln2.g"]
        )
        # x_mid and gelu(u) are recomputed, not cached, to keep peak memory down
        x_mid = params[pre + "ln1.g"] * c["ln1"][0] + params[pre + "ln1.b"]
        grads[pre + "ffn.w2"], grads[pre + "ffn.b2"] = _affine_grads(gelu(c["u"]), dr2)
        du = dr2 @ params[pre + "ffn.w2"].T
        du *= gelu_grad(c["u"])
        grads[pre + "ffn.w1"], grads[pre + "ffn.b1"] = _affine_grads(x_mid, du)
        dx_mid = dr2 + du @ params[pre + "ffn.w1"].T
        dr1, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = _layer_norm_backward(
            dx_mid, c["ln1"], params[pre + "ln1.g"]
        )
        grads[pre + "attn.w_o"], grads[pre + "attn.b_o"] = _affine_grads(c["ctx_cat"], dr1)
        dctx = (dr1 @ params[pre + "attn.w_o"].T).reshape(B, L, nh, dh).transpose(0, 2, 1, 3)
        probs = c["probs"]
        dprobs = dctx @ c["vh"].swapaxes(-1, -2)
        dvh = probs.swapaxes(-1, -2) @ dctx
        dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
        dscores /= math.sqrt(dh)
        dqh = dscores @ c["kh"]
        dkh = dscores.swapaxes(-1, -2) @ c["qh"]
        dqkv = np.stack([dqh, dkh, dvh]).transpose(1, 3, 0, 2, 4).reshape(B * L, 3 * d)
        grads[pre + "attn.w_qkv"], grads[pre + "attn.b_qkv"] = _affine_grads(c["a_in"], dqkv)
        dx = dr1 + dqkv @ params[pre + "attn.w_qkv"].T

    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    np.add.at(grads["tok_emb"], ids.ravel(), dx)
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    grads["pos_emb"][:L] = dx.reshape(B, L, d).sum(axis=0)
    return loss, grads


def read_tags(
    outputs: ModelOutputs, words: list[str], word_heads: tuple[int, ...]
) -> TaggedSentence:
    """Greedy readout: argmax node type per word head, argmax parent over
    word-head positions and ROOT. Ties break toward the lowest index; parents
    are reported as word indices, not subword positions."""
    heads = np.array(word_heads, dtype=np.int64)
    types = outputs.class_logits[heads - 1].argmax(axis=-1)
    # candidate column j is ROOT for j = 0, else the head of word j
    parents = outputs.parent_logits[heads - 1][:, np.concatenate(([0], heads))].argmax(axis=-1)
    return TaggedSentence(tuple(
        TaggedToken(i, words[i - 1], NodeType(t), p)
        for i, (t, p) in enumerate(zip(types.tolist(), parents.tolist()), start=1)
    ))


def predict(
    params: Params, cfg: ModelConfig, tokenizer: Tokenizer, texts: list[str], batch_size: int
) -> list[TaggedSentence]:
    """Tag every text. Texts run in length-sorted batches of batch_size; the
    result keeps input order."""
    seqs = [tokenizer.encode(text) for text in texts]
    tagged: list[TaggedSentence] = [TaggedSentence(())] * len(texts)
    for i, out in forward_batches(params, cfg, seqs, batch_size):
        tagged[i] = read_tags(out, canonical_words(texts[i]), seqs[i].word_heads)
    return tagged
