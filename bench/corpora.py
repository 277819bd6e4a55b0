"""Seeded input corpora for the `long` and `score` workloads.

Both generators return plain region records in the regions-JSONL schema and
use nothing from sgforge, so the program under test only ever sees the files
written from them. The same seed always gives the same records.
"""

from __future__ import annotations

import random

# --- long: BPE-heavy descriptions with hard alignment cases ----------------

LONG_OBJECTS = (
    "dog", "cat", "man", "woman", "car", "tree", "house", "bird", "horse",
    "table", "kite", "boat", "bench", "chair", "sign", "fence", "train",
    "truck", "clock", "lamp", "plate", "cup", "bottle", "window", "door",
    "shirt", "hat", "bag", "ball", "road", "pillow", "blanket", "sandwich",
    "keyboard", "monitor", "bicycle", "motorcycle", "elephant", "sheep",
    "airplane", "backpack", "skateboard", "surfboard", "refrigerator",
    "microwave", "toothbrush", "vase", "scissors", "banana", "orange",
    "broccoli", "carrot", "donut", "pizza", "laptop", "remote", "mirror",
    "curtain", "building", "mountain", "sidewalk", "jacket", "helmet",
    "traffic light", "fire hydrant", "stop sign", "parking meter",
    "tennis racket", "coffee table", "teddy bear", "street lamp",
    "cell phone", "baseball bat", "dining table", "wine glass", "hair drier",
)
LONG_ATTRIBUTES = (
    "blue", "red", "green", "tall", "small", "old", "shiny", "dark", "round",
    "striped", "wooden", "metal", "white", "black", "young", "empty", "large",
    "bright", "plastic", "folded", "crowded", "smiling", "wrinkled", "glossy",
    "checkered", "painted", "cloudy", "leafy", "sliced", "parked", "stacked",
    "light blue", "dark green", "bright red", "half empty", "brand new",
)
LONG_RELATIONS = (
    "on", "under", "behind", "beside", "holding", "near", "above", "wearing",
    "carrying", "covering", "watching", "touching", "against", "inside",
    "in front of", "next to", "on top of", "attached to", "sitting on",
    "leaning against", "parked near", "hanging above", "standing beside",
)
# Labels that occur only in dev regions: the tagger never sees them in training.
DEV_ONLY_OBJECTS = ("zebra", "giraffe", "lantern", "scooter", "umbrella", "suitcase")
DEV_ONLY_ATTRIBUTES = ("golden", "purple", "fluffy", "rusty")
# Words that never name a graph node; they must come out as NONE.
FILLERS = ("there", "is", "this", "very", "quite", "some", "looks", "here", "just", "seen")
PREFIXES = ((), ("there", "is"), ("this", "is"), ("here", "is"), ("just",))

# Every description has at most this many letters. A token is never shorter
# than one letter, so no tokenizer can turn it into more than this many
# tokens: the `long` model config uses max_len 64.
LONG_MAX_LETTERS = 64


def _object_phrase(rng: random.Random, label: str, attrs: list[str]) -> list[str]:
    words: list[str] = []
    det = rng.choice(("a", "the", "", ""))
    if det:
        words.append(det)
    for k, attr in enumerate(attrs):
        if k and rng.random() < 0.5:
            words.append("and")
        if rng.random() < 0.15:
            words.append(rng.choice(("very", "quite")))
        words.extend(attr.split())
    words.extend(label.split())
    return words


def _long_region(rng: random.Random, dev: bool) -> tuple[list[str], dict]:
    n_obj = rng.choice((2, 3, 4, 4))
    shape = rng.choice(("chain", "chain", "fanout"))
    labels = []
    for _ in range(n_obj):
        if dev and rng.random() < 0.35:
            labels.append(rng.choice(DEV_ONLY_OBJECTS))
        else:
            labels.append(rng.choice(LONG_OBJECTS))
    attrs: list[list[str]] = []
    for _ in range(n_obj):
        k = rng.choice((0, 1, 1, 2))
        pool = list(LONG_ATTRIBUTES)
        if dev:
            pool += list(DEV_ONLY_ATTRIBUTES) * 3
        chosen: list[str] = []
        while len(chosen) < k:
            a = rng.choice(pool)
            if a not in chosen:
                chosen.append(a)
        attrs.append(chosen)
    words = list(rng.choice(PREFIXES))
    words += _object_phrase(rng, labels[0], attrs[0])
    relations = []
    for j in range(2, n_obj + 1):
        rel = rng.choice(LONG_RELATIONS)
        if shape == "chain":
            # every middle object is both an OBJT and a SUBJ: the aligner
            # must refuse the relation that points at it
            relations.append([j - 1, rel, j])
        else:
            if j > 2:
                words.append("and")
            relations.append([1, rel, j])
        words += rel.split()
        words += _object_phrase(rng, labels[j - 1], attrs[j - 1])
    if rng.random() < 0.3:
        words += rng.sample(FILLERS, 1)
    graph_attrs = [[i + 1, a] for i, al in enumerate(attrs) for a in al]
    for i in range(n_obj):
        if rng.random() < 0.1:
            # graph noise: an attribute the description never states
            extra = rng.choice(LONG_ATTRIBUTES)
            if extra not in attrs[i]:
                graph_attrs.append([i + 1, extra])
    record = {
        "objects": [{"id": i + 1, "label": lab} for i, lab in enumerate(labels)],
        "attributes": graph_attrs,
        "relationships": relations,
    }
    return words, record


def long_corpus(seed: int, n: int, n_train: int) -> list[dict]:
    """n regions with ~10 words each. The first n_train are the training
    split; only the ones after them use the DEV_ONLY words. Region and image
    ids are the record's position, so converted CONLL lines up by id.
    """
    rng = random.Random(f"long:{seed}")
    records = []
    for i in range(n):
        while True:
            words, record = _long_region(rng, dev=i >= n_train)
            if sum(len(w) for w in words) <= LONG_MAX_LETTERS:
                break
        record.update(image_id=i, region_id=i, phrase=" ".join(words))
        records.append(record)
    return records


# --- score: multi-object regions, synonyms and graph noise ------------------

SCORE_LEXICON = {
    "man": ["guy", "gentleman"],
    "woman": ["lady"],
    "car": ["automobile", "sedan"],
    "shirt": ["tee shirt"],
    "dog": ["puppy"],
    "bicycle": ["bike"],
    "television": ["tv"],
    "sofa": ["couch"],
    "road": ["street"],
    "hat": ["cap"],
    "cup": ["mug"],
    "stone": ["rock"],
    "large": ["big"],
    "small": ["little", "tiny"],
    "next to": ["beside"],
}
SCORE_OBJECTS = (
    "man", "woman", "car", "shirt", "dog", "bicycle", "television", "sofa",
    "road", "hat", "cup", "stone", "tree", "house", "bird", "horse", "table",
    "kite", "boat", "bench", "window", "door", "fence", "sign", "clock",
    "traffic light", "fire hydrant", "tennis racket",
)
SCORE_ATTRIBUTES = (
    "large", "small", "red", "blue", "green", "white", "black", "old", "young",
    "wooden", "metal", "striped", "dark", "shiny", "tall", "light blue",
)
SCORE_RELATIONS = (
    "on", "near", "wearing", "holding", "behind", "riding", "under", "above",
    "next to", "in front of", "sitting on", "parked near",
)


def _surface(rng: random.Random, label: str, synonym_rate: float, counts: dict) -> list[str]:
    counts["surface"] += 1
    syns = SCORE_LEXICON.get(label)
    if syns and rng.random() < synonym_rate:
        counts["synonym"] += 1
        return rng.choice(syns).split()
    return label.split()


def _score_region(rng: random.Random, counts: dict) -> tuple[list[str], dict]:
    n_obj = rng.randint(1, 6)
    labels = [rng.choice(SCORE_OBJECTS) for _ in range(n_obj)]
    objects = [{"id": i + 1, "label": lab} for i, lab in enumerate(labels)]
    attributes: list[list] = []
    relations: list[list] = []

    def phrase_of(i: int) -> list[str]:
        words = [rng.choice(("a", "the", ""))] if rng.random() < 0.8 else []
        for _ in range(rng.choice((0, 0, 1, 1, 2))):
            attr = rng.choice(SCORE_ATTRIBUTES)
            if [i + 1, attr] in attributes:
                continue
            attributes.append([i + 1, attr])
            words += _surface(rng, attr, 0.4, counts)
        if rng.random() < 0.15:
            # graph noise: an attribute the description never mentions
            attributes.append([i + 1, rng.choice(SCORE_ATTRIBUTES)])
        return [w for w in words if w] + _surface(rng, labels[i], 0.4, counts)

    def relate(s: int, o: int) -> list[str]:
        rel = rng.choice(SCORE_RELATIONS)
        if rng.random() >= 0.15:  # graph noise: a stated relation left out
            relations.append([s + 1, rel, o + 1])
        return _surface(rng, rel, 0.4, counts)

    words: list[str] = []
    i = 0
    while i < n_obj:
        if words:
            words.append(rng.choice(("and", "with")))
        size = min(rng.choice((1, 2, 2, 3)), n_obj - i)
        words += phrase_of(i)
        if size >= 2:
            words += relate(i, i + 1) + phrase_of(i + 1)
        if size == 3:
            if rng.random() < 0.5:  # chain: a dual-role middle object
                words += relate(i + 1, i + 2)
            else:  # fan-out from the same subject
                words += ["and"] + relate(i, i + 2)
            words += phrase_of(i + 2)
        i += size
    # dedupe relation triples the way the schema's set semantics would
    uniq = []
    for r in relations:
        if r not in uniq:
            uniq.append(r)
    uniq_attrs = []
    for a in attributes:
        if a not in uniq_attrs:
            uniq_attrs.append(a)
    return words, {"objects": objects, "attributes": uniq_attrs, "relationships": uniq}


def score_corpus(seed: int, n: int) -> tuple[list[dict], dict, dict]:
    """n regions of 1-6 objects each, plus the synonym lexicon they use.

    Returns (records, lexicon, surface_counts); surface_counts gives how many
    node mentions were written and how many of them used a lexicon synonym.
    """
    rng = random.Random(f"score:{seed}")
    counts = {"surface": 0, "synonym": 0}
    records = []
    for i in range(n):
        words, record = _score_region(rng, counts)
        record.update(image_id=i // 4, region_id=i, phrase=" ".join(words))
        records.append(record)
    return records, SCORE_LEXICON, counts
