"""Word and byte-pair tokenization with a reserved-id vocabulary.

Vocabulary ids 0..3 are reserved for ROOT, UNK, PAD, EOS. A TokenSequence
always starts with the ROOT id at position 0; word_heads points at the last
subword of each source word (identity in word mode).
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field

from .graph import canonical_words

ROOT_ID = 0
UNK_ID = 1
PAD_ID = 2
EOS_ID = 3
RESERVED = ("<root>", "<unk>", "<pad>", "<eos>")


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
    """Split a word to characters, then apply merges in priority order."""
    parts = list(word)
    while len(parts) > 1:
        best_rank = None
        best_pos = -1
        for i, pair in enumerate(zip(parts, parts[1:])):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pos = i
        if best_rank is None:
            break
        parts[best_pos : best_pos + 2] = [parts[best_pos] + parts[best_pos + 1]]
    return parts


@dataclass(frozen=True)
class Tokenizer:
    mode: str  # "word" or "bpe"
    tokens: tuple[str, ...]  # id -> token string; rows 0..3 reserved
    merges: tuple[tuple[str, str], ...] = ()
    _ids: dict = field(default_factory=dict, repr=False, compare=False)
    _ranks: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("word", "bpe"):
            raise ValueError(f"unknown tokenizer mode {self.mode!r}")
        self._ids.update({tok: i for i, tok in enumerate(self.tokens)})
        self._ranks.update({pair: i for i, pair in enumerate(self.merges)})

    @property
    def vocab_size(self) -> int:
        return len(self.tokens)

    def _id(self, token: str) -> int:
        return self._ids.get(token, UNK_ID)

    def encode(self, text: str) -> TokenSequence:
        words = canonical_words(text)
        ids = [ROOT_ID]
        heads = []
        if self.mode == "word":
            for w in words:
                ids.append(self._id(w))
                heads.append(len(ids) - 1)
        else:
            for w in words:
                for piece in apply_bpe(w, self._ranks):
                    ids.append(self._id(piece))
                heads.append(len(ids) - 1)
        return TokenSequence(tuple(ids), tuple(heads))

    @classmethod
    def from_corpus(cls, texts: list[str], mode: str = "word", n_merges: int = 200) -> "Tokenizer":
        words = [w for t in texts for w in canonical_words(t)]
        if mode == "word":
            vocab = sorted(set(words))
            return cls("word", RESERVED + tuple(vocab))
        merges = learn_bpe(words, n_merges)
        chars = sorted({c for w in words for c in w})
        symbols = list(chars)
        for a, b in merges:
            merged = a + b
            if merged not in symbols:
                symbols.append(merged)
        return cls("bpe", RESERVED + tuple(symbols), tuple(merges))


def write_vocab(tok: Tokenizer) -> str:
    """Vocabulary file: one token per line, line number is the id."""
    return "".join(t + "\n" for t in tok.tokens)


def write_merges(tok: Tokenizer) -> str:
    """Merges file: one space-separated pair per line, priority order."""
    return "".join(f"{a} {b}\n" for a, b in tok.merges)


def read_vocab(text: str, mode: str = "word", merges_text: str = "") -> Tokenizer:
    tokens = tuple(line for line in text.split("\n") if line)
    merges = tuple(
        (a, b) for a, b in (line.split(" ", 1) for line in merges_text.split("\n") if line)
    )
    return Tokenizer(mode, tokens, merges)
