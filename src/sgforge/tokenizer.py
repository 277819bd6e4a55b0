"""Word and byte-pair tokenization with a reserved-id vocabulary.

Vocabulary ids 0 and 1 are reserved for ROOT and UNK. A TokenSequence
always starts with the ROOT id at position 0; word_heads points at the last
subword of each source word (identity in word mode).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .errors import cut, cut_json
from .graph import canonical_words

ROOT_ID = 0
UNK_ID = 1
RESERVED = ("<root>", "<unk>")


@dataclass(frozen=True)
class TokenSequence:
    ids: tuple[int, ...]  # position 0 is always ROOT_ID
    word_heads: tuple[int, ...]  # per source word, position of its last subword

    def __len__(self) -> int:
        return len(self.ids)


def _merge_word(pieces: tuple[str, ...], pair: tuple[str, str]) -> tuple[str, ...]:
    """Merge every occurrence of `pair` in one word, left to right."""
    out = []
    i = 0
    while i < len(pieces):
        if i + 1 < len(pieces) and (pieces[i], pieces[i + 1]) == pair:
            out.append(pieces[i] + pieces[i + 1])
            i += 2
        else:
            out.append(pieces[i])
            i += 1
    return tuple(out)


def learn_bpe(words: list[str], n_merges: int) -> list[tuple[str, str]]:
    """Learn merge pairs by greedy pair frequency, most frequent first.

    Ties break lexicographically for determinism. Merges never cross word
    boundaries. Pair counts are built once; each merge re-counts only the
    words that contain the merged pair (Sennrich et al. 2016).
    """
    counts = Counter(words)
    pieces = [tuple(w) for w in counts]
    freqs = list(counts.values())
    pair_counts: Counter = Counter()
    holders: dict[tuple[str, str], set[int]] = defaultdict(set)  # pair -> word indices
    for i, ps in enumerate(pieces):
        for pair in zip(ps, ps[1:]):
            pair_counts[pair] += freqs[i]
            holders[pair].add(i)
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        if not pair_counts:
            break
        top = max(pair_counts.values())
        best = max(pair for pair, n in pair_counts.items() if n == top)
        merges.append(best)
        for i in holders.pop(best):  # may name words that no longer hold it
            old = pieces[i]
            new = _merge_word(old, best)
            if new == old:
                continue
            for pair in zip(old, old[1:]):
                pair_counts[pair] -= freqs[i]
                if not pair_counts[pair]:
                    del pair_counts[pair]
            for pair in zip(new, new[1:]):
                pair_counts[pair] += freqs[i]
                holders[pair].add(i)
            pieces[i] = new
    return merges


def apply_bpe(word: str, ranks: dict[tuple[str, str], int]) -> list[str]:
    """Split a word to characters, then repeat the learner's step: merge every
    occurrence of the best-ranked adjacent pair, until no pair is ranked."""
    pieces = tuple(word)
    while True:
        ranked = [pair for pair in zip(pieces, pieces[1:]) if pair in ranks]
        if not ranked:
            return list(pieces)
        pieces = _merge_word(pieces, min(ranked, key=ranks.get))


@dataclass(frozen=True)
class Tokenizer:
    mode: str  # "word" or "bpe"
    tokens: tuple[str, ...]  # id -> token string; rows 0 and 1 reserved
    merges: tuple[tuple[str, str], ...] = ()
    _ids: dict = field(default_factory=dict, repr=False, compare=False)
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)
    _pieces: dict = field(default_factory=dict, repr=False, compare=False)  # word -> ids

    def __post_init__(self):
        """Refuse a block that `from_corpus` could not have made, since it
        would encode differently."""
        if self.mode not in ("word", "bpe"):
            raise ValueError(f"unknown tokenizer mode {cut(repr(self.mode))}")
        if self.tokens[: len(RESERVED)] != RESERVED:
            raise ValueError(f"tokenizer tokens must begin with {cut_json(RESERVED)}")
        # a corpus word may spell a reserved token ("<unk>"), so only the
        # learned tokens, after RESERVED, are distinct
        learned = self.tokens[len(RESERVED):]
        if len(set(learned)) != len(learned):
            repeated = next(token for token, n in Counter(learned).items() if n > 1)
            raise ValueError(f"tokenizer tokens repeat {cut_json(repeated)}")
        if self.mode == "word" and self.merges:
            raise ValueError("word-mode tokenizer has merges")
        made = set()  # learn_bpe's order, in which apply_bpe repeats its merges
        for a, b in self.merges:
            unmade = [s for s in (a, b) if len(s) != 1 and s not in made]
            if unmade:
                raise ValueError(f"merge {cut(repr(a))} {cut(repr(b))} uses "
                                 f"{cut(repr(unmade[0]))} before a merge makes it")
            if a + b in made:
                raise ValueError(f"merge {cut(repr(a))} {cut(repr(b))} makes "
                                 f"{cut(repr(a + b))} a second time")
            made.add(a + b)
        self._ids.update({tok: i for i, tok in enumerate(self.tokens)})
        lost = [a + b for a, b in self.merges if a + b not in self._ids]
        if lost:
            raise ValueError(f"tokenizer merge product {cut_json(lost[0])} "
                             "is not among its tokens")
        self._ranks.update({pair: i for i, pair in enumerate(self.merges)})

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def _id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, text: str) -> TokenSequence:
        ids = [ROOT_ID]
        heads = []
        for w in canonical_words(text):
            pieces = self._pieces.get(w)
            if pieces is None:
                parts = [w] if self.mode == "word" else apply_bpe(w, self._ranks)
                pieces = self._pieces[w] = tuple(map(self._id, parts))
            ids.extend(pieces)
            heads.append(len(ids) - 1)
        return TokenSequence(tuple(ids), tuple(heads))

    @classmethod
    def from_corpus(cls, texts: list[str], mode: str = "word", n_merges: int = 200) -> "Tokenizer":
        words = [w for t in texts for w in canonical_words(t)]
        if mode == "word":
            return cls(mode, RESERVED + tuple(sorted(set(words))))
        merges = learn_bpe(words, n_merges)
        chars = sorted({c for w in words for c in w})
        made = [a + b for a, b in merges]  # in learning order, each merge makes a new symbol
        return cls(mode, RESERVED + tuple(chars + made), tuple(merges))
