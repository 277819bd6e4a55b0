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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .data import check_field_types
from .errors import LengthMismatchError, SequenceTooLongError, cut
from .graph import canonical_words
from .tags import N_NODE_TYPES, NodeType, TaggedSentence, TaggedToken
from .tokenizer import PAD_ID, TokenSequence, Tokenizer

Params = dict[str, np.ndarray]


# The largest model a config may describe: 800 MB per float32 copy, of which
# training holds about six. A GPT-1-sized backbone (about 117M) fits.
MAX_PARAMS = 200_000_000


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 4
    d_ff: int = 256
    max_len: int = 32
    d_qk: int = 64  # parent-head query/key width
    tokenizer_mode: str = "word"

    def __post_init__(self):
        check_field_types(self)
        for name in ("d_model", "n_heads", "d_ff", "max_len", "d_qk"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.vocab_size < 0 or self.n_layers < 0:
            raise ValueError("vocab_size and n_layers must not be negative")
        if self.tokenizer_mode not in ("word", "bpe"):
            raise ValueError("tokenizer_mode must be 'word' or 'bpe', got "
                             + cut(repr(self.tokenizer_mode)))
        if self.d_model % self.n_heads != 0:
            raise ValueError("d_model must be divisible by n_heads")
        top, layer = _shapes(self)
        n = sum(map(math.prod, top.values())) + self.n_layers * sum(map(math.prod, layer.values()))
        if n > MAX_PARAMS:
            raise ValueError(f"the model would have {n:,} parameters, more than {MAX_PARAMS:,}")


@dataclass(frozen=True)
class ModelOutputs:
    """Class and parent logits of a right-padded batch, as `forward` gives
    them. The backbone computes on the real tokens only: padded rows of the
    class logits are 0, and parent-logit columns past an example's length are
    -inf."""

    class_logits: np.ndarray  # (B, T, N_NODE_TYPES)
    parent_logits: np.ndarray  # (B, T, T+1); column 0 is ROOT


def _shapes(cfg: ModelConfig):
    """Top-level shapes, and one layer's shapes named without the layer prefix."""
    d, f = cfg.d_model, cfg.d_ff
    top = {"tok_emb": (cfg.vocab_size, d), "pos_emb": (cfg.max_len + 1, d),
           "head.w_q": (d, cfg.d_qk), "head.w_k": (d, cfg.d_qk), "head.w_c": (d, N_NODE_TYPES)}
    layer = {"attn.w_qkv": (d, 3 * d), "attn.b_qkv": (3 * d,), "attn.w_o": (d, d),
             "attn.b_o": (d,), "ln1.g": (d,), "ln1.b": (d,), "ffn.w1": (d, f), "ffn.b1": (f,),
             "ffn.w2": (f, d), "ffn.b2": (d,), "ln2.g": (d,), "ln2.b": (d,)}
    return top, layer


def param_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Name and shape of every parameter tensor, in initialisation order."""
    shapes, layer = _shapes(cfg)
    for l in range(cfg.n_layers):
        shapes.update((f"layer{l}.{name}", shape) for name, shape in layer.items())
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
    e = x - np.max(x, axis=axis, keepdims=True)
    np.exp(e, out=e)
    e /= np.sum(e, axis=axis, keepdims=True)
    return e


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def gelu(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GELU (tanh form) of x, and its tanh term for `gelu_grad`. Both functions
    use products, not powers (float32 pow is slow), and work in place."""
    t = x * x
    t *= _GELU_A
    t += 1.0
    t *= x
    t *= _GELU_C
    np.tanh(t, out=t)  # tanh(c * (x + a * x^3))
    g = t + 1.0
    g *= x
    g *= 0.5
    return g, t


def gelu_grad(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Derivative of GELU at x, given the tanh term t that `gelu` returned."""
    s = x * x
    s *= 3.0 * _GELU_A
    s += 1.0
    s *= x
    s *= 0.5 * _GELU_C  # s = c/2 * x * (1 + 3a * x^2)
    # 0.5 * (1 + t) + s * (1 - t^2) == (1 + t) * (0.5 + s * (1 - t))
    u = 1.0 - t
    s *= u
    s += 0.5
    np.subtract(2.0, u, out=u)
    u *= s
    return u


_LN_EPS = 1e-5


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    y = x - x.mean(axis=-1, keepdims=True)
    out = y * y
    inv = 1.0 / np.sqrt(out.mean(axis=-1, keepdims=True) + _LN_EPS)
    y *= inv
    np.multiply(y, g, out=out)
    out += b
    return out, (y, inv)


def _layer_norm_backward(dout: np.ndarray, cache, g: np.ndarray):
    """Backward of `_layer_norm` over (rows, d) arrays."""
    y, inv = cache
    t = dout * y
    dg = t.sum(axis=0)
    db = dout.sum(axis=0)
    dx = dout * g  # dy, turned into dx in place
    np.multiply(dx, y, out=t)
    np.multiply(y, t.mean(axis=-1, keepdims=True), out=t)
    dx -= dx.mean(axis=-1, keepdims=True)
    dx -= t
    dx *= inv
    return dx, dg, db


def _affine(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b, with the bias added in place."""
    y = x @ w
    y += b
    return y


def _scatter(rows: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """A zeroed (n, ...) array, of the dtype of `values`, holding them at `rows`."""
    out = np.zeros((n, *values.shape[1:]), dtype=values.dtype)
    out[rows] = values
    return out


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


def _block(params: Params, cfg: ModelConfig, pre: str, x: np.ndarray, real: np.ndarray,
           B: int, L: int, causal: np.ndarray, caches: list | None) -> np.ndarray:
    """One layer (attention, then GELU feed-forward) on the packed rows x of a
    (B, L) batch; with `caches`, appends what `_block_backward` needs."""
    d, nh, dh = cfg.d_model, cfg.n_heads, cfg.d_model // cfg.n_heads
    qkv = _scatter(real, _affine(x, params[pre + "attn.w_qkv"], params[pre + "attn.b_qkv"]), B * L)
    qh, kh, vh = qkv.reshape(B, L, 3, nh, dh).transpose(2, 0, 3, 1, 4)  # (B, nh, L, dh)
    scores = qh @ kh.swapaxes(-1, -2)
    scores /= math.sqrt(dh)
    scores += causal
    probs = softmax(scores)
    ctx_cat = (probs @ vh).transpose(0, 2, 1, 3).reshape(B * L, d)[real]
    r1 = _affine(ctx_cat, params[pre + "attn.w_o"], params[pre + "attn.b_o"])
    r1 += x
    x_mid, ln1 = _layer_norm(r1, params[pre + "ln1.g"], params[pre + "ln1.b"])
    u = _affine(x_mid, params[pre + "ffn.w1"], params[pre + "ffn.b1"])
    act, tanh = gelu(u)
    r2 = _affine(act, params[pre + "ffn.w2"], params[pre + "ffn.b2"])
    r2 += x_mid
    out, ln2 = _layer_norm(r2, params[pre + "ln2.g"], params[pre + "ln2.b"])
    if caches is not None:
        caches.append(dict(a_in=x, qh=qh, kh=kh, vh=vh, probs=probs, ctx_cat=ctx_cat, ln1=ln1,
                           x_mid=x_mid, u=u, tanh=tanh, act=act, ln2=ln2))
    return out


def _block_backward(params: Params, cfg: ModelConfig, pre: str, dx: np.ndarray, c: dict,
                    real: np.ndarray, B: int, L: int, grads: Params) -> np.ndarray:
    """Backward of `_block` from the gradient of its output rows: fills the
    layer's entries of `grads` and returns the gradient of its input rows."""
    d, nh, dh = cfg.d_model, cfg.n_heads, cfg.d_model // cfg.n_heads
    dr2, grads[pre + "ln2.g"], grads[pre + "ln2.b"] = _layer_norm_backward(
        dx, c["ln2"], params[pre + "ln2.g"])
    grads[pre + "ffn.w2"], grads[pre + "ffn.b2"] = _affine_grads(c["act"], dr2)
    du = dr2 @ params[pre + "ffn.w2"].T
    du *= gelu_grad(c["u"], c["tanh"])
    grads[pre + "ffn.w1"], grads[pre + "ffn.b1"] = _affine_grads(c["x_mid"], du)
    dx_mid = du @ params[pre + "ffn.w1"].T
    dx_mid += dr2
    dr1, grads[pre + "ln1.g"], grads[pre + "ln1.b"] = _layer_norm_backward(
        dx_mid, c["ln1"], params[pre + "ln1.g"])
    grads[pre + "attn.w_o"], grads[pre + "attn.b_o"] = _affine_grads(c["ctx_cat"], dr1)
    dctx = _scatter(real, dr1 @ params[pre + "attn.w_o"].T, B * L).reshape(B, L, nh, dh)
    dctx = dctx.swapaxes(1, 2)  # (B, nh, L, dh)
    probs = c["probs"]
    dscores = dctx @ c["vh"].swapaxes(-1, -2)  # dprobs, turned into dscores in place
    dvh = probs.swapaxes(-1, -2) @ dctx
    dscores -= np.sum(dscores * probs, axis=-1, keepdims=True)
    dscores *= probs
    dscores /= math.sqrt(dh)
    dqh = dscores @ c["kh"]
    dkh = dscores.swapaxes(-1, -2) @ c["qh"]
    dqkv = np.stack([dqh, dkh, dvh]).transpose(1, 3, 0, 2, 4).reshape(B * L, 3 * d)[real]
    grads[pre + "attn.w_qkv"], grads[pre + "attn.b_qkv"] = _affine_grads(c["a_in"], dqkv)
    dx = dqkv @ params[pre + "attn.w_qkv"].T
    dx += dr1
    return dx


def _forward(params: Params, cfg: ModelConfig, ids: np.ndarray, lengths: np.ndarray,
             caches: list | None = None):
    """Backbone and head on a right-padded (B, L) batch; with `caches`, each
    layer appends what its backward pass needs.

    The residual stream packs the real tokens into one (N, d) array: row i is
    flat position real[i] of the batch. Dense layers, layer norms and GELU see
    real rows only; attention and the head scatter to a zeroed (B*L, ...)
    array for their per-example axis. The backbone is causal and padding is
    on the right, so only the bidirectional parent logits need a mask.
    """
    B, L = ids.shape
    real = np.flatnonzero(np.arange(L) < lengths[:, None])
    x = params["tok_emb"][ids.ravel()[real]] + params["pos_emb"][real % L]
    causal = np.triu(np.full((L, L), -np.inf, dtype=x.dtype), 1)
    for l in range(cfg.n_layers):
        x = _block(params, cfg, f"layer{l}.", x, real, B, L, causal, caches)
    hidden = _scatter(real, x, B * L)  # the head also scores the ROOT rows, then drops them
    class_logits = (hidden @ params["head.w_c"]).reshape(B, L, -1)[:, 1:]
    q_head = (hidden @ params["head.w_q"]).reshape(B, L, -1)[:, 1:]
    k_head = (hidden @ params["head.w_k"]).reshape(B, L, -1)
    parent_logits = q_head @ k_head.swapaxes(1, 2)
    parent_logits /= math.sqrt(cfg.d_qk)
    np.copyto(parent_logits, -np.inf, where=np.arange(L) >= lengths[:, None, None])
    return ModelOutputs(class_logits, parent_logits), real, x, q_head, k_head


def forward(params: Params, cfg: ModelConfig, seqs: list[TokenSequence]) -> ModelOutputs:
    """Outputs of seqs run as one right-padded batch: row i belongs to seqs[i]."""
    return _forward(params, cfg, *_pad(cfg, seqs))[0]


def forward_batches(
    params: Params, cfg: ModelConfig, seqs: list[TokenSequence], batch_size: int
) -> Iterator[tuple[list[int], ModelOutputs]]:
    """Run length-sorted batches of batch_size, so that batches carry little
    padding, and yield each batch's indices into seqs with its `forward`
    outputs: row k belongs to seqs[indices[k]]."""
    order = sorted(range(len(seqs)), key=lambda i: len(seqs[i]))
    for start in range(0, len(order), batch_size):
        chunk = order[start : start + batch_size]
        yield chunk, forward(params, cfg, [seqs[i] for i in chunk])


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


def pad_targets(types: list[np.ndarray], parents: list[np.ndarray],
                width: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-example target arrays right-padded into two (B, width) arrays, with
    type -1 and parent 0 on padded rows, as `loss_terms` takes them."""
    return _rows(types, width, -1), _rows(parents, width, 0)


def loss_terms(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per example of a right-padded batch whose padded rows carry type -1
    (`pad_targets`): the mean class cross-entropy over its T positions, and
    the mean parent cross-entropy over the positions whose target type is not
    NONE (exactly zero when there is none)."""
    w_class, w_parent = _loss_weights(types)
    log_c = outputs.class_logits - _logsumexp(outputs.class_logits)
    log_p = outputs.parent_logits - _logsumexp(outputs.parent_logits)
    ce_c = -np.take_along_axis(log_c, np.maximum(types, 0)[..., None], -1)[..., 0]
    ce_p = -np.take_along_axis(log_p, parents[..., None], -1)[..., 0]
    return (w_class * ce_c).sum(-1), (w_parent * ce_p).sum(-1)


def loss_from_outputs(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray, loss_weight: float
) -> np.ndarray:
    """Each example's loss: class term plus loss_weight times parent term (see
    `loss_terms`)."""
    shape = outputs.class_logits.shape[:2]
    if types.shape != shape or parents.shape != shape:
        raise LengthMismatchError(f"outputs are {shape}, targets {types.shape} and {parents.shape}")
    class_term, parent_term = loss_terms(outputs, types, parents)
    return class_term + loss_weight * parent_term


def _logsumexp(x: np.ndarray) -> np.ndarray:
    m = np.max(x, axis=-1, keepdims=True)
    return m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True))


def loss_output_grads(
    outputs: ModelOutputs, types: np.ndarray, parents: np.ndarray, loss_weight: float
):
    """Gradients of each example's loss with respect to the two logit blocks
    of a padded batch (see `loss_terms`).

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


def loss_and_grads(params: Params, cfg: ModelConfig, seqs: list[TokenSequence],
                   types: list[np.ndarray], parents: list[np.ndarray],
                   loss_weight: float) -> tuple[float, Params]:
    """Mean loss over a batch of sequences (one target array pair each) and
    its exact gradients for every parameter tensor."""
    ids, lengths = _pad(cfg, seqs)
    B, L = ids.shape
    for n, ty, pa in zip(lengths, types, parents):
        if len(ty) != n - 1 or len(pa) != n - 1:
            raise LengthMismatchError(f"sequence has {n - 1} positions, targets {len(ty)}")
    tgt_types, tgt_parents = pad_targets(types, parents, L - 1)
    caches: list[dict] = []
    outputs, real, hidden, q_head, k_head = _forward(params, cfg, ids, lengths, caches)
    loss = float(np.mean(loss_from_outputs(outputs, tgt_types, tgt_parents, loss_weight)))
    d_class, d_parent = loss_output_grads(outputs, tgt_types, tgt_parents, loss_weight)
    d_class /= B
    d_parent /= B

    # Padded rows get exactly zero gradient from the head, so the backward keeps
    # only the real rows. ROOT rows get none from the class and query heads.
    grads: Params = {}
    s = 1.0 / math.sqrt(cfg.d_qk)
    dc_head = np.zeros((B, L, d_class.shape[-1]), dtype=d_class.dtype)
    dc_head[:, 1:] = d_class
    dq_head = np.zeros((B, L, cfg.d_qk), dtype=d_parent.dtype)
    dq_head[:, 1:] = s * (d_parent @ k_head)
    dk_head = s * (d_parent.swapaxes(1, 2) @ q_head)
    dc_head, dq_head, dk_head = (a.reshape(B * L, -1)[real] for a in (dc_head, dq_head, dk_head))
    grads["head.w_c"] = hidden.T @ dc_head
    grads["head.w_q"] = hidden.T @ dq_head
    grads["head.w_k"] = hidden.T @ dk_head
    dx = dc_head @ params["head.w_c"].T + dq_head @ params["head.w_q"].T
    dx += dk_head @ params["head.w_k"].T
    for l in reversed(range(cfg.n_layers)):  # pop frees each layer's cache after its backward
        dx = _block_backward(params, cfg, f"layer{l}.", dx, caches.pop(), real, B, L, grads)
    grads["tok_emb"] = np.zeros_like(params["tok_emb"])
    np.add.at(grads["tok_emb"], ids.ravel()[real], dx)
    grads["pos_emb"] = np.zeros_like(params["pos_emb"])
    np.add.at(grads["pos_emb"], real % L, dx)
    return loss, grads


_NODE_TYPES = tuple(NodeType)  # indexed by class id


def read_tags(outputs: ModelOutputs, words: list[Sequence[str]],
              word_heads: list[tuple[int, ...]]) -> list[TaggedSentence]:
    """Greedy readout of a right-padded batch, as `forward_batches` yields it,
    given each example's words and word heads: argmax node type per word head,
    argmax parent over ROOT and the example's word-head positions. Ties break
    toward the lowest index; parents are reported as word indices, not
    subword positions."""
    B, T = outputs.class_logits.shape[:2]
    word_of = np.zeros((B, T + 1), dtype=np.int64)  # column j: the word whose head is j, or 0
    for row, heads in zip(word_of, word_heads):
        row[list(heads)] = range(1, len(heads) + 1)
    candidate = word_of > 0
    candidate[:, 0] = True  # ROOT
    types = outputs.class_logits.argmax(axis=-1).tolist()
    parent_pos = np.where(candidate[:, None, :], outputs.parent_logits, -np.inf).argmax(axis=-1)
    parents = np.take_along_axis(word_of, parent_pos, axis=-1).tolist()
    return [
        TaggedSentence(tuple(
            TaggedToken(i, w, _NODE_TYPES[ty[h - 1]], pa[h - 1])
            for i, (w, h) in enumerate(zip(ws, heads), start=1)
        ))
        for ws, heads, ty, pa in zip(words, word_heads, types, parents)
    ]


def predict(
    params: Params, cfg: ModelConfig, tokenizer: Tokenizer, texts: list[str], batch_size: int
) -> list[TaggedSentence | None]:
    """Tag every text, each distinct word sequence (`canonical_words`) once:
    texts with the same words share one TaggedSentence. The distinct
    sequences run in length-sorted batches of batch_size; the result keeps
    input order. A text of more than cfg.max_len tokens is not run and gets
    None."""
    first: dict[tuple[str, ...], str] = {}  # each distinct word sequence -> its first text
    keys = []
    for text in texts:
        key = tuple(canonical_words(text))
        first.setdefault(key, text)
        keys.append(key)
    words = list(first)
    seqs = [tokenizer.encode(text) for text in first.values()]
    fits = [k for k, seq in enumerate(seqs) if len(seq) <= cfg.max_len + 1]
    tagged: dict[tuple[str, ...], TaggedSentence] = {}
    for chunk, outputs in forward_batches(params, cfg, [seqs[k] for k in fits], batch_size):
        chunk = [fits[j] for j in chunk]
        sents = read_tags(outputs, [words[k] for k in chunk], [seqs[k].word_heads for k in chunk])
        tagged.update(zip((words[k] for k in chunk), sents))
    return [tagged.get(key) for key in keys]
