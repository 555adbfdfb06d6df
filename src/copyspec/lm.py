"""Deterministic reference language models behind a cached-prefix contract.

A model holds an opaque cached prefix (the stand-in for per-layer KV
tensors). ``score_block(pending, proposal, eot)`` verifies a proposal in
one pass over ``[pending, *proposal]`` that stops at the first rejection,
so nothing after it is computed or has to be rolled back.
``decode(pending)``, the one free-running argmax loop, yields the greedy
continuation one counted pass at a time (plain steps, draft proposals).
``feed`` appends tokens whose predictions nobody reads without scoring
them, and ``truncate`` rolls the cache back. Scoring is a pure function
of the prefix: any sequence of calls that leaves the same prefix scores
identically to a fresh model fed that prefix. A pass or a feed holding a
token outside the vocabulary is rejected, leaving the cache and the
counters as they were. ``blocks_scored`` and ``tokens_scored`` count
scoring passes and the tokens they score, ``tokens_fed`` the tokens fed.

Every model scores from backoff tables, one per context length, mapping
a context to its argmax; a miss at the longest context walks shorter
ones. :class:`TableLM` is one hand-written table, useful as an oracle;
:class:`KgramLM` resolves its tables from counted k-grams, which repeat
realistically when trained on redundant text. A k-gram order is counted
and resolved once, when something first needs it: the model's own order
at construction (a view's too), a lower order on the first backoff that
reaches it. Its count is dropped once its table is built. Spawns and
views share the tables and the corpus.
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import groupby
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .corpus import EOT_SYMBOL, utf8_error
from .metrics import atomic_write_text

Tables = list[dict[tuple[int, ...], int] | None]


class InvalidToken(ValueError):
    """A token id is outside the model's vocabulary."""


class TruncateBeyondState(ValueError):
    """Requested to keep more cached tokens than exist."""


class LangModel:
    """The cache contract, scored from backoff argmax tables.

    ``tables[o]`` maps a length-o context to the argmax after it, for o up
    to ``order`` (the list may run past it); a table that is None is
    built by :meth:`_resolve` when first read. A prefix with no entry at
    any order predicts ``fallback``.
    """

    def __init__(self, vocab_size: int, order: int, tables: Tables, fallback: int = 0):
        if vocab_size < 1:
            raise ValueError("vocab_size must be positive")
        if order < 1:
            raise ValueError("order must be positive")
        self.vocab_size = vocab_size
        self.tables = tables
        self.order = order
        self.fallback = fallback
        self._state: list[int] = []
        self.blocks_scored = 0
        self.tokens_scored = 0
        self.tokens_fed = 0

    @property
    def state_len(self) -> int:
        return len(self._state)

    @property
    def state(self) -> tuple[int, ...]:
        return tuple(self._state)

    def score_block(self, pending: int, proposal: Sequence[int], eot: int) -> list[int]:
        """Verify ``proposal`` after the cached prefix plus ``pending`` in one pass.

        Appends ``pending`` and reads the argmax after it, then, while that
        argmax equals the next proposed token and is not ``eot`` (a proposed
        end-of-text is never accepted, only predicted), appends the token
        and reads the next. Returns the k accepted argmaxes, then the one
        that ended the pass (the bonus); only ``pending`` and the k
        accepted tokens stay appended. The pass is counted as one block of
        ``len(proposal) + 1`` tokens, as the cost model charges it; with
        nothing proposed it is one pass of one token.

        A token outside the vocabulary, ``pending`` or anywhere in the
        proposal, raises :class:`InvalidToken` before anything is appended,
        so the cache and the counters stay as they were.
        """
        vocab_size = self.vocab_size
        if not 0 <= pending < vocab_size:
            raise InvalidToken(f"token {pending} outside vocab of size {vocab_size}")
        for tok in proposal:
            if not 0 <= tok < vocab_size:
                raise InvalidToken(f"token {tok} outside vocab of size {vocab_size}")
        state = self._state
        order = self.order
        top = self.tables[order].get
        out = []
        tok = pending
        for proposed in [*proposal, None]:  # no argmax is None: the bonus ends the pass
            state.append(tok)
            # a prefix shorter than order gives a short key, never in the top table
            tok = top(tuple(state[-order:]))
            if tok is None:
                tok = self._backoff(state)
            out.append(tok)
            if tok != proposed or tok == eot:
                break
        self.blocks_scored += 1
        self.tokens_scored += len(proposal) + 1
        return out

    def decode(self, pending: int) -> Iterator[int]:
        """The greedy continuation after the cached prefix plus ``pending``.

        Each ``next`` is one pass, counted as one block of one token: it
        appends the token before it (``pending`` first, then each argmax
        yielded so far) and yields the argmax after it. A yielded token is
        appended only when the next one is asked for, so a consumer that
        stops leaves it pending. A token outside the vocabulary raises
        :class:`InvalidToken` and leaves that pass's cache and counters as
        they were. The cache must not change between two ``next`` calls.
        """
        state = self._state
        vocab_size = self.vocab_size
        order = self.order
        top = self.tables[order].get
        tok = pending
        while True:
            if not 0 <= tok < vocab_size:
                raise InvalidToken(f"token {tok} outside vocab of size {vocab_size}")
            state.append(tok)
            tok = top(tuple(state[-order:]))
            if tok is None:
                tok = self._backoff(state)
            self.blocks_scored += 1
            self.tokens_scored += 1
            yield tok

    def feed(self, tokens: Sequence[int]) -> None:
        """Append tokens to the cache without scoring them.

        The same cache update as :meth:`score_block`, with no argmax: for
        context whose predictions are never read. A token outside the
        vocabulary raises :class:`InvalidToken` before anything is
        appended, so the cache and the counters stay as they were.
        """
        vocab_size = self.vocab_size
        for tok in tokens:
            if not 0 <= tok < vocab_size:
                raise InvalidToken(f"token {tok} outside vocab of size {vocab_size}")
        self._state += tokens
        self.tokens_fed += len(tokens)

    def _backoff(self, state: list[int]) -> int:
        """The argmax at the longest context below ``order`` that has an entry."""
        n = len(state)
        tables = self.tables
        for o in range(min(self.order - 1, n), -1, -1):
            table = tables[o]
            if table is None:
                table = self._resolve(o)
            nxt = table.get(tuple(state[n - o:]))
            if nxt is not None:
                return nxt
        return self.fallback

    def _resolve(self, o: int) -> dict[tuple[int, ...], int]:
        """Build, store and return the table at order ``o``."""
        raise NotImplementedError

    def truncate(self, keep_len: int) -> None:
        """Roll the cache back to its first ``keep_len`` tokens."""
        if keep_len < 0 or keep_len > len(self._state):
            raise TruncateBeyondState(f"keep_len {keep_len} vs state length {len(self._state)}")
        del self._state[keep_len:]

    def spawn(self):
        """Fresh instance with an empty cache sharing the trained tables."""
        raise NotImplementedError


class TableLM(LangModel):
    """One table read on the last ``order`` cached tokens; shorter prefixes
    and unlisted keys predict ``fallback``, so the model is total."""

    def __init__(self, vocab_size: int, order: int, table: dict[tuple[int, ...], int], fallback: int = 0):
        super().__init__(vocab_size, order, [{}] * order + [table], fallback)

    def spawn(self) -> "TableLM":
        return TableLM(self.vocab_size, self.order, self.tables[-1], self.fallback)


def _count(corpus: Sequence[Sequence[int]], o: int) -> Counter:
    """Every (context, next) gram of length o + 1 in the corpus, counted."""
    grams: Counter = Counter()
    for seq in corpus:
        grams.update(zip(*(seq[i:] for i in range(o + 1))))
    return grams


def _argmax_table(grams: Counter) -> dict[tuple[int, ...], int]:
    """Each context's most counted next token (the smallest id on ties),
    in one pass over the distinct grams."""
    table: dict[tuple[int, ...], int] = {}
    best: dict[tuple[int, ...], int] = {}
    for gram, c in grams.items():
        ctx, tok = gram[:-1], gram[-1]
        b = best.get(ctx)
        if b is None or c > b or (c == b and tok < table[ctx]):
            best[ctx] = c
            table[ctx] = tok
    return table


class KgramLM(LangModel):
    """Counted k-gram model with shortening backoff.

    ``tables[o]`` maps each context to its argmax among the (context,
    next) grams of length o + 1. An order is built once, on first need:
    the model's own order at construction, a lower one on the first
    backoff that reaches it. Its grams are read from ``counts[o]`` when
    given (a loaded dump's), else counted over ``corpus`` (the training
    sequences, kept, not copied) and dropped once the table is built;
    with neither they are empty. A trained model's ``counts`` is empty.
    Spawns, and views at other orders, share the tables, the corpus and
    the given counts, which is exact because a context's argmax does not
    depend on the highest order counted. An unbuilt order is a None
    table, a plain value that survives pickling. An untrained model
    predicts 0 (end of text).
    """

    def __init__(
        self,
        order: int,
        counts: dict[int, Counter],
        vocab_size: int,
        tables: Tables | None = None,
        corpus: Sequence[Sequence[int]] | None = None,
    ):
        if tables is None:
            tables = []
        tables += [None] * (order + 1 - len(tables))  # in place: views share the list
        super().__init__(vocab_size, order, tables)
        self.counts = counts
        self.corpus = corpus
        self.resolve([order])

    def view(self, order: int) -> "KgramLM":
        """A model at ``order`` sharing these tables, corpus and given counts."""
        return KgramLM(order, self.counts, self.vocab_size, self.tables, self.corpus)

    def spawn(self) -> "KgramLM":
        return self.view(self.order)

    def resolve(self, orders: Iterable[int]) -> None:
        """Count and resolve each of ``orders`` not built yet."""
        for o in orders:
            if self.tables[o] is None:
                self._resolve(o)

    def _resolve(self, o: int) -> dict[tuple[int, ...], int]:
        table = self.tables[o] = _argmax_table(self._counted(o))
        return table

    def _counted(self, o: int) -> Counter:
        """The grams of order ``o``: the given ones, else a fresh count that the caller drops."""
        grams = self.counts.get(o)
        if grams is None:
            return Counter() if self.corpus is None else _count(self.corpus, o)
        return grams

    def to_dict(self) -> dict:
        """Versioned, order-stable dump of the counts at orders 0..order.

        Orders without given counts are counted over the corpus, one at a
        time (an untrained model's are empty), so a model with only some
        orders built dumps what one with every order built would. A view
        at a lower order dumps what training at that order alone would.
        """
        orders = []
        for o in range(self.order + 1):
            grams = groupby(sorted(self._counted(o).items()), key=lambda kv: kv[0][:-1])
            contexts = [[list(ctx), [[gram[-1], c] for gram, c in hist]] for ctx, hist in grams]
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
        """The model of a :meth:`to_dict` dump; a field that is not as written raises ValueError naming it."""
        if not isinstance(obj, dict) or obj.get("format") != "copyspec-kgram" or obj.get("version") != 1:
            raise ValueError("not a copyspec-kgram v1 dump")
        for name in ("order", "vocab_size", "counts"):
            if name not in obj:
                raise ValueError(f"missing field {name!r}")
        for name in ("order", "vocab_size"):
            if not (_natural(obj[name]) and obj[name]):
                raise ValueError(f"{name} must be a positive integer, got {json.dumps(obj[name])}")
        vocab = obj.get("vocab", [])  # the symbols, which save() may add
        if not (isinstance(vocab, list) and all(isinstance(v, str) for v in vocab)):
            raise ValueError("vocab must be a list of strings")
        if vocab and (vocab[0] != EOT_SYMBOL or len(set(vocab)) < len(vocab)):  # else ids would shift
            raise ValueError(f'vocab must list distinct symbols, "{EOT_SYMBOL}" first')
        vocab_size, entries, counts = obj["vocab_size"], obj["counts"], {}
        if not isinstance(entries, list):
            raise ValueError("counts must be a list")
        for i, entry in enumerate(entries):
            try:
                o, contexts = entry
                grams = Counter({(*ctx, tok): c for ctx, hist in contexts for tok, c in hist})
            except (TypeError, ValueError):  # a part that is not a list, or of the wrong length
                grams = None
            if grams is None or not _natural(o) or not all(
                len(gram) == o + 1 and all(_natural(t) and t < vocab_size for t in gram) and _natural(c) and c
                for gram, c in grams.items()
            ):
                raise ValueError(f"counts[{i}] must be [order, [[context, [[token, count], ...]], ...]]"
                                 " with order-long contexts, ids below vocab_size and positive counts")
            counts[o] = grams
        if len(entries) != obj["order"] + 1 or sorted(counts) != list(range(len(entries))):
            raise ValueError("counts must list each order from 0 to order once")
        return cls(order=obj["order"], counts=counts, vocab_size=vocab_size)

    def save(self, path: str | Path, vocab_symbols: Sequence[str] | None = None) -> None:
        obj = self.to_dict()
        if vocab_symbols is not None:
            obj["vocab"] = list(vocab_symbols)
        atomic_write_text(path, json.dumps(obj, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> tuple["KgramLM", list[str] | None]:
        """A :meth:`save` dump and its symbols; a bad one raises ValueError naming ``path`` and the field."""
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: {utf8_error(exc)}") from None
        except (ValueError, RecursionError) as exc:  # the latter: nested too deep
            raise ValueError(f"{path}: not JSON: {exc}") from None
        try:
            return cls.from_dict(obj), obj.get("vocab")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _natural(value) -> bool:
    """Whether a decoded JSON ``value`` is an integer >= 0 (``true`` is not)."""
    return type(value) is int and value >= 0


def train_kgram(corpus: Sequence[Sequence[int]], k: int, vocab_size: int | None = None) -> KgramLM:
    """An order-k model of the corpus, with order k counted and resolved.

    Any other order is counted and resolved the first time a backoff (or
    a view at that order) reaches it, so prediction is defined for short
    prefixes. ``vocab_size`` defaults to one past the largest id seen.
    """
    if not corpus:
        raise ValueError("corpus must be non-empty")
    if k < 1:
        raise ValueError("order must be positive")
    if vocab_size is None:
        vocab_size = max((max(seq) for seq in corpus if seq), default=0) + 1
    return KgramLM(order=k, counts={}, vocab_size=vocab_size, corpus=corpus)
