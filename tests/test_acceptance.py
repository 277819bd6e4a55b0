"""Acceptance suite. Each test prints one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
slow end-to-end training case (A2) finishes well inside its budget on one
CPU core.
"""

import itertools
import random
import time

import numpy as np

from sgforge.align import Lexicon, align
from sgforge.data import generate_synthetic
from sgforge.graph import Tuples, extract_tuples
from sgforge.metrics import evaluate_corpus, match_count, spice_f1, tuple_match
from sgforge.model import (
    ModelConfig,
    ModelOutputs,
    forward,
    init_params,
    loss_and_grads,
    loss_from_outputs,
)
from sgforge.tags import (
    NodeType,
    decode_tags_to_graph,
    read_conll,
    tagged,
    write_conll,
)
from sgforge.tokenizer import TokenSequence
from sgforge.train import Example, TrainConfig, load_checkpoint, save_checkpoint, train

T = NodeType


def report(criterion: str, ok: bool, detail: str = ""):
    print(f"{criterion} {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{criterion}: {detail}"


def test_a1_gradient_correctness():
    """A1: analytic gradients match central finite differences everywhere,
    on a right-padded batch of two sequences of different lengths."""
    start = time.monotonic()
    cfg = ModelConfig(vocab_size=12, d_model=16, n_layers=2, n_heads=2, d_ff=32,
                      max_len=8, d_qk=16)
    params = init_params(cfg, seed=7, dtype=np.float64)
    seqs = [
        TokenSequence((0, 4, 5, 6, 7, 8, 9), tuple(range(1, 7))),
        TokenSequence((0, 10, 11, 4), (1, 2, 3)),
    ]
    types = [np.array([0, 1, 2, 3, 4, 5]), np.array([4, 0, 1])]
    parents = [np.array([0, 1, 2, 4, 4, 0]), np.array([0, 0, 1])]
    lam = 0.9
    _, grads = loss_and_grads(params, cfg, seqs, types, parents, lam)

    def batch_loss():  # each example scored on its own unpadded rows, a batch of one
        out = forward(params, cfg, seqs)
        return np.mean([
            loss_from_outputs(ModelOutputs(out.class_logits[i : i + 1, : len(ty)],
                                           out.parent_logits[i : i + 1, : len(ty), : len(ty) + 1]),
                              ty[None], pa[None], lam)[0]
            for i, (ty, pa) in enumerate(zip(types, parents))])

    step = 1e-5
    worst = 0.0
    checked = 0
    for name, p in params.items():
        flat = p.reshape(-1)
        gflat = grads[name].reshape(-1)
        assert gflat.dtype == np.float64
        for i in range(len(flat)):
            orig = flat[i]
            flat[i] = orig + step
            up = batch_loss()
            flat[i] = orig - step
            down = batch_loss()
            flat[i] = orig
            fd = (up - down) / (2.0 * step)
            diff = abs(fd - gflat[i])
            checked += 1
            if diff > 1e-9:  # true-zero gradients carry only roundoff noise
                rel = diff / max(abs(fd), abs(gflat[i]))
                worst = max(worst, rel)
                assert rel < 1e-4, f"{name}[{i}]: fd={fd} analytic={gflat[i]} rel={rel}"
    elapsed = time.monotonic() - start
    report(
        "A1",
        worst < 1e-4 and elapsed < 60.0,
        f"worst rel err {worst:.2e} over {checked} parameters in {elapsed:.1f}s",
    )


def test_a2_end_to_end_learning():
    """A2: 2000 synthetic regions, 90/10 split, 4 epochs, dev F >= 0.90."""
    start = time.monotonic()
    regions = generate_synthetic(2000, seed=17)
    examples = []
    for r in regions:
        result = align(r.description, r.graph)
        examples.append(Example(r, result.tagged))
    cut = int(len(examples) * 0.9)
    result = train(
        examples[:cut],
        examples[cut:],
        ModelConfig(vocab_size=0),
        TrainConfig(epochs=4, seed=0),
    )
    dev_f = result.log[-1]["dev_f"]
    elapsed = time.monotonic() - start
    report("A2", dev_f >= 0.90 and elapsed < 600.0,
           f"dev F {dev_f:.4f} after 4 epochs in {elapsed:.1f}s")


def test_a3_oracle_roundtrip_exact():
    """A3: align -> decode -> score on the synthetic corpus is exactly 1.0."""
    regions = generate_synthetic(2000, seed=17)
    decoded = []
    for r in regions:
        result = align(r.description, r.graph)
        decoded.append(decode_tags_to_graph(result.tagged).graph)
    aggregate, _ = evaluate_corpus(decoded, regions)
    report("A3", aggregate["mean_f"] == 1.0, f"oracle aggregate F {aggregate['mean_f']}")


LABELS = ["cat", "dog", "bus", "red", "blue", "on", "kitty", "auto"]
LEX = Lexicon.from_pairs({"cat": ["kitty"], "bus": ["auto"]})


def random_tuple_set(rng, max_tuples):
    tuples = []
    for _ in range(rng.randint(0, max_tuples)):
        arity = rng.choice([1, 2, 3])
        tuples.append(tuple(rng.choice(LABELS) for _ in range(arity)))
    return frozenset(tuples)


def test_a4_limited_mode_dominance():
    """A4: F_limited >= F_base over 1000 randomized cases."""
    rng = random.Random(42)
    violations = 0
    for _ in range(1000):
        pred = random_tuple_set(rng, 6)
        ref = random_tuple_set(rng, 6)
        cap = rng.randint(0, 8)
        base = spice_f1(pred, ref, LEX)
        limited = spice_f1(pred, ref, LEX, cap=cap)
        if limited.f1 < base.f1:
            violations += 1
    report("A4", violations == 0, f"{violations} dominance violations in 1000 cases")


def test_a5_decoder_totality_and_legality():
    """A5: 10000 fuzzed sentences decode totally; arcs legal; cycles recorded."""
    rng = random.Random(5)
    forms = ["cat", "dog", "bus", "on", "red", "big", "w7"]
    node_types = list(NodeType)
    cycles_seen = 0
    for _ in range(10000):
        t = rng.randint(0, 12)
        rows = [
            (rng.choice(forms), rng.choice(node_types), rng.randint(0, t))
            for _ in range(t)
        ]
        sent = tagged(rows)
        rep = decode_tags_to_graph(sent)  # must not raise
        types = {tok.index: tok.node_type for tok in sent}
        for oid, _ in rep.graph.attributes:
            assert types[oid] in (T.SUBJ, T.OBJT)
        for sid, _, oid in rep.graph.relations:
            assert types[sid] is T.SUBJ and types[oid] is T.OBJT
        dropped = {i for i, _ in rep.dropped_arcs}
        # independent cycle oracle over SAME chains
        for tok in sent:
            if tok.node_type is not T.SAME:
                continue
            visited = set()
            j = tok.index
            cyclic = False
            while True:
                if j in visited:
                    cyclic = True
                    break
                visited.add(j)
                j = sent.tokens[j - 1].parent
                if j == 0 or types.get(j) is not T.SAME:
                    break
            if cyclic:
                cycles_seen += 1
                assert tok.index in dropped, (rows, tok.index)
    report("A5", True, f"10000 decodes, {cycles_seen} SAME cycles all recorded")


def test_a6_loss_masking_exact():
    """A6: with all-NONE targets the parent logits cannot move the loss."""
    rng = np.random.default_rng(3)
    cls = rng.normal(size=(1, 5, 6))
    types = np.full((1, 5), int(T.NONE))
    parents = np.array([[0, 1, 2, 3, 4]])
    [base] = loss_from_outputs(ModelOutputs(cls, np.zeros((1, 5, 6))), types, parents, 1.0)
    deltas = []
    for scale in (1.0, 1e3, -1e6):
        [perturbed] = loss_from_outputs(
            ModelOutputs(cls, rng.normal(size=(1, 5, 6)) * scale), types, parents, 1.0
        )
        deltas.append(float(perturbed - base))
    report("A6", all(d == 0.0 for d in deltas), f"loss deltas {deltas}")


def ordered(tuples: Tuples) -> list[tuple[str, ...]]:
    return sorted(tuples, key=lambda t: (len(t), t))


def brute_force_matching(pred: Tuples, ref: Tuples, lex: Lexicon) -> int:
    preds = ordered(pred)
    refs = ordered(ref)
    for k in range(min(len(preds), len(refs)), 0, -1):
        for subset in itertools.combinations(range(len(preds)), k):
            for perm in itertools.permutations(range(len(refs)), k):
                if all(tuple_match(preds[p], refs[r], lex) for p, r in zip(subset, perm)):
                    return k
    return 0


def test_a7_worked_metric_values():
    """A7: bus example scores exactly; greedy matches brute force at <=8 tuples."""
    pred = frozenset({("bus",), ("bus", "red"), ("bus", "blue")})
    ref = frozenset({("bus",), ("bus", "red"), ("bus", "passenger"), ("bus", "black"),
                     ("bus", "white")})
    base = spice_f1(pred, ref)
    limited = spice_f1(pred, ref, cap=3)
    exact = base.f1 == 0.5 and limited.f1 == 2 / 3

    rng = random.Random(11)
    agreements = 0
    trials = 0
    while trials < 400:
        p = random_tuple_set(rng, 4)
        r = random_tuple_set(rng, 4)
        if len(p) + len(r) > 8:
            continue
        trials += 1
        if match_count(p, r, LEX) == brute_force_matching(p, r, LEX):
            agreements += 1
    report(
        "A7",
        exact and agreements == trials,
        f"base F {base.f1}, limited F {limited.f1}, "
        f"greedy=bruteforce on {agreements}/{trials} instances",
    )


def test_a8_format_roundtrips_and_reproducibility(tmp_path):
    """A8: byte-exact CONLL and checkpoint round trips; bit-identical reruns."""
    sent = tagged(
        [("blue", T.ATTR, 4), ("and", T.NONE, 0), ("red", T.ATTR, 4), ("bus", T.SUBJ, 0)]
    )
    sent2 = tagged([("cat", T.SUBJ, 0), ("on", T.PRED, 1), ("mat", T.OBJT, 2)])
    text = write_conll([sent, sent2])
    conll_ok = write_conll(read_conll(text)) == text and read_conll(text) == [sent, sent2]

    regions = generate_synthetic(60, seed=9)
    examples = []
    for r in regions:
        result = align(r.description, r.graph)
        examples.append(Example(r, result.tagged))
    cfg = ModelConfig(vocab_size=0, d_model=32, n_layers=1, n_heads=2, d_ff=64,
                      max_len=16, d_qk=32)
    tcfg = TrainConfig(epochs=2, seed=13, batch_size=16)
    run_a = train(examples[:50], examples[50:], cfg, tcfg)
    run_b = train(examples[:50], examples[50:], cfg, tcfg)
    bit_identical = all(
        np.array_equal(run_a.final.params[name], run_b.final.params[name])
        for name in run_a.final.params
    )

    base_a = str(tmp_path / "a")
    base_b = str(tmp_path / "b")
    save_checkpoint(run_a.final, base_a)
    loaded = load_checkpoint(base_a)
    save_checkpoint(loaded, base_b)
    byte_exact = all(
        open(base_a + ext, "rb").read() == open(base_b + ext, "rb").read()
        for ext in (".json", ".bin")
    )
    tensor_exact = all(
        np.array_equal(loaded.params[name], run_a.final.params[name])
        for name in loaded.params
    )
    report(
        "A8",
        conll_ok and bit_identical and byte_exact and tensor_exact,
        f"conll={conll_ok} training_bits={bit_identical} "
        f"checkpoint_bytes={byte_exact} tensors={tensor_exact}",
    )
