"""Deterministic reference language models behind a cached-prefix contract.

A model holds an opaque cached prefix (the stand-in for per-layer KV
tensors). ``score_block`` appends a block to the cache and returns, for
each position i of the block, the argmax next token *after* the cached
prefix plus ``block[:i+1]``, as the logits of a real forward pass do; so
the last entry predicts the token that follows the whole block.
``truncate`` rolls the cache back to a shorter prefix. Scoring is a pure
function of the prefix: any sequence of appends and truncations that
leaves the same prefix scores identically to a fresh model fed that
prefix.

Two implementations are provided: :class:`TableLM`, a direct lookup table
useful as a hand-constructible oracle, and :class:`KgramLM`, a counted
k-gram model with shortening backoff that produces realistic repetition
when trained on redundant text.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence


class InvalidToken(ValueError):
    """A token id is outside the model's vocabulary."""


class TruncateBeyondState(ValueError):
    """Requested to keep more cached tokens than exist."""


class LangModel:
    """Base class implementing the cache contract; subclasses supply argmax."""

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        self.vocab_size = vocab_size
        self._state: list[int] = []
        self.blocks_scored = 0
        self.tokens_scored = 0

    @property
    def state_len(self) -> int:
        return len(self._state)

    @property
    def state(self) -> tuple[int, ...]:
        return tuple(self._state)

    def _argmax_after(self, prefix: list[int]) -> int:
        raise NotImplementedError

    def score_block(self, block: Sequence[int]) -> list[int]:
        """Append the block; return the argmax after each block position.

        Entry i is the argmax given (cached prefix + block[:i+1]), so the
        last entry is the token that follows the whole block. One call
        models a single parallel forward pass over the whole block.
        """
        if not block:
            raise ValueError("block must be non-empty")
        for tok in block:
            if not 0 <= tok < self.vocab_size:
                raise InvalidToken(f"token {tok} outside vocab of size {self.vocab_size}")
        out = []
        for tok in block:
            self._state.append(tok)
            out.append(self._argmax_after(self._state))
        self.blocks_scored += 1
        self.tokens_scored += len(block)
        return out

    def truncate(self, keep_len: int) -> None:
        """Roll the cache back to its first ``keep_len`` tokens."""
        if keep_len < 0 or keep_len > len(self._state):
            raise TruncateBeyondState(f"keep_len {keep_len} vs state length {len(self._state)}")
        del self._state[keep_len:]

    def spawn(self):
        """Fresh instance with an empty cache sharing the trained tables."""
        raise NotImplementedError


def greedy_extend(model: LangModel, feed: Sequence[int], n: int) -> list[int]:
    """Greedily draft n tokens after the cached prefix plus ``feed``.

    Makes exactly n ``score_block`` calls: the first feeds ``feed`` (the
    context the model has not seen yet) and each later one feeds the
    previous drafted token, so each choice conditions on the ones before
    it. The last drafted token is returned but not fed.
    """
    out: list[int] = []
    for _ in range(n):
        nxt = model.score_block(feed)[-1]
        out.append(nxt)
        feed = [nxt]
    return out


class TableLM(LangModel):
    """Argmax is a direct table read on the last ``order`` cached tokens.

    Prefixes shorter than ``order`` (and unlisted keys) fall back to a
    fixed token, making the model total and fully deterministic.
    """

    def __init__(self, vocab_size: int, order: int, table: dict[tuple[int, ...], int], fallback: int = 0):
        super().__init__(vocab_size)
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.table = table
        self.fallback = fallback

    def _argmax_after(self, prefix: list[int]) -> int:
        if len(prefix) < self.order:
            return self.fallback
        return self.table.get(tuple(prefix[-self.order:]), self.fallback)

    def spawn(self) -> "TableLM":
        return TableLM(self.vocab_size, self.order, self.table, self.fallback)


class KgramLM(LangModel):
    """Counted k-gram model with shortening backoff.

    ``counts[o]`` maps each length-o context tuple to a histogram of next
    tokens. Prediction tries the longest usable context and backs off one
    token at a time until a histogram exists (the empty context always
    does once trained). Ties in a histogram resolve to the smallest token
    id, so argmax is deterministic.
    """

    def __init__(self, order: int, counts: dict[int, dict[tuple[int, ...], dict[int, int]]], vocab_size: int):
        super().__init__(vocab_size)
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.counts = counts
        self._best: dict[tuple[int, ...], int] = {}

    def _context_histogram(self, prefix: list[int]) -> dict[int, int]:
        for o in range(min(self.order, len(prefix)), -1, -1):
            ctx = tuple(prefix[len(prefix) - o:])
            hist = self.counts.get(o, {}).get(ctx)
            if hist:
                return hist
        return {0: 1}  # untrained model: end of text

    def _argmax_after(self, prefix: list[int]) -> int:
        ctx = tuple(prefix[-self.order:]) if len(prefix) >= self.order else tuple(prefix)
        cached = self._best.get(ctx)
        if cached is not None:
            return cached
        hist = self._context_histogram(prefix)
        best = max(hist.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        self._best[ctx] = best
        return best

    def distribution(self, prefix: Sequence[int]) -> dict[int, float]:
        """Normalized next-token probabilities at the matched backoff order."""
        hist = self._context_histogram(list(prefix))
        total = sum(hist.values())
        return {tok: c / total for tok, c in hist.items()}

    def spawn(self) -> "KgramLM":
        return KgramLM(self.order, self.counts, self.vocab_size)

    def to_dict(self) -> dict:
        """Versioned, order-stable dump of the trained counts."""
        orders = []
        for o in sorted(self.counts):
            contexts = []
            for ctx in sorted(self.counts[o]):
                hist = self.counts[o][ctx]
                contexts.append([list(ctx), sorted(hist.items())])
            orders.append([o, contexts])
        return {
            "format": "copyspec-kgram",
            "version": 1,
            "order": self.order,
            "vocab_size": self.vocab_size,
            "counts": orders,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "KgramLM":
        if obj.get("format") != "copyspec-kgram" or obj.get("version") != 1:
            raise ValueError("not a copyspec-kgram v1 dump")
        counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {}
        for o, contexts in obj["counts"]:
            counts[int(o)] = {
                tuple(ctx): {int(tok): int(c) for tok, c in hist} for ctx, hist in contexts
            }
        return cls(order=int(obj["order"]), counts=counts, vocab_size=int(obj["vocab_size"]))

    def save(self, path: str | Path, vocab_symbols: Sequence[str] | None = None) -> None:
        obj = self.to_dict()
        if vocab_symbols is not None:
            obj["vocab"] = list(vocab_symbols)
        Path(path).write_text(json.dumps(obj, sort_keys=True) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> tuple["KgramLM", list[str] | None]:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls.from_dict(obj), obj.get("vocab")


def train_kgram(corpus: Sequence[Sequence[int]], k: int, vocab_size: int | None = None) -> KgramLM:
    """Count every (context, next) pair at orders 0..k over the corpus.

    All backoff orders are counted so prediction is defined for short
    prefixes. ``vocab_size`` defaults to one past the largest id seen.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if k < 1:
        raise ValueError("order must be positive")
    counts: dict[int, dict[tuple[int, ...], dict[int, int]]] = {o: {} for o in range(k + 1)}
    max_id = 0
    for seq in corpus:
        for j, nxt in enumerate(seq):
            max_id = max(max_id, nxt)
            for o in range(min(k, j) + 1):
                ctx = tuple(seq[j - o:j])
                hist = counts[o].setdefault(ctx, {})
                hist[nxt] = hist.get(nxt, 0) + 1
    if vocab_size is None:
        vocab_size = max_id + 1
    return KgramLM(order=k, counts=counts, vocab_size=vocab_size)
