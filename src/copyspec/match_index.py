"""Dictionary of all gamma-token subsequences of a context.

Supports O(gamma) amortized insert and lookup via a polynomial hash with
exact-token confirmation, so a hash collision can never produce a false
match. Positions are 1-based throughout this module: the gram starting at
position q covers context[q .. q+gamma-1] inclusive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

HASH_BASE = 1099511628211
_MASK64 = (1 << 64) - 1


class EmptyChunk(ValueError):
    """The matched occurrence sits at the very end of the context; there is
    nothing after it to copy. Callers treat this as no-match."""


@dataclass(frozen=True)
class MatchResult:
    """An earlier occurrence of the current gamma-token suffix.

    ``source_pos`` is the 1-based start of the earlier occurrence;
    ``copy_start`` = source_pos + gamma is where copying begins.
    """

    source_pos: int
    copy_start: int


def poly_hash(window: Sequence[int]) -> int:
    h = 0
    for tok in window:
        h = (h * HASH_BASE + tok + 1) & _MASK64
    return h


class MatchIndex:
    """Buckets of (position, exact tokens) keyed by the gram's 64-bit hash.

    Within a bucket positions are strictly increasing, so the first
    confirmed entry is the earliest occurrence. ``length`` tracks how many
    context tokens have been indexed; callers must extend the index with
    exactly the tokens they append to the context.

    ``hash_fn`` is injectable so tests can force collisions with a
    deliberately weak hash; lookups always confirm stored tokens before
    returning a match.
    """

    def __init__(self, gamma: int = 3, hash_fn: Callable[[Sequence[int]], int] | None = None):
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma
        self.length = 0
        self.buckets: dict[int, list[tuple[int, tuple[int, ...]]]] = {}
        self._hash = hash_fn or poly_hash
        # instrumentation: one mixing step per token fed to the hash
        self.mix_ops = 0
        self.lookups = 0

    def _hash_window(self, window: Sequence[int]) -> int:
        self.mix_ops += len(window)
        return self._hash(window)

    def extend(self, context: Sequence[int], new_tokens: Sequence[int]) -> None:
        """Index every gamma-gram ending inside the newly appended region.

        ``context`` is the full accepted sequence and ``new_tokens`` its
        just-appended suffix. Each gram is inserted exactly once; cost is
        O(gamma) hash work per appended token.
        """
        n_new = len(new_tokens)
        if self.length + n_new != len(context):
            raise ValueError(
                f"index covers {self.length} tokens; appending {n_new} "
                f"does not reach context length {len(context)}"
            )
        if list(context[len(context) - n_new:]) != list(new_tokens):
            raise ValueError("new_tokens is not the suffix of context")
        g = self.gamma
        t = len(context)
        first_end = max(g, self.length + 1)  # 1-based end position of the first new gram
        for end in range(first_end, t + 1):
            start = end - g  # 0-based slice start
            gram = tuple(context[start:end])
            h = self._hash_window(gram)
            self.buckets.setdefault(h, []).append((start + 1, gram))
        self.length = t

    def lookup(self, context: Sequence[int], t: int | None = None) -> MatchResult | None:
        """Earliest occurrence of the last gamma tokens that does not overlap them.

        ``t`` is the context length (defaults to len(context)). Returns the
        smallest indexed position p of s = context[t-gamma+1 .. t] with
        p + gamma - 1 < t - gamma + 1, confirmed token-by-token against the
        stored gram; None when no such occurrence exists.
        """
        self.lookups += 1
        g = self.gamma
        if t is None:
            t = len(context)
        if t < g:
            return None
        suffix = tuple(context[t - g:t])
        limit = t - g + 1  # entries must satisfy p + g - 1 < limit
        for pos, gram in self.buckets.get(self._hash_window(suffix), ()):
            if pos + g - 1 >= limit:
                break  # positions ascend; no later entry can satisfy the bound
            if gram == suffix:
                return MatchResult(source_pos=pos, copy_start=pos + g)
        return None


def extract_chunk(context: Sequence[int], match: MatchResult, chunk_len: int) -> list[int]:
    """Up to ``chunk_len`` tokens following the matched occurrence.

    Truncates at the context end; raises :class:`EmptyChunk` when the match
    ends the context and nothing follows it.
    """
    if chunk_len < 1:
        raise ValueError(f"chunk_len must be >= 1, got {chunk_len}")
    start = match.copy_start - 1  # to 0-based
    if start >= len(context):
        raise EmptyChunk(f"copy_start {match.copy_start} is past context length {len(context)}")
    return list(context[start:start + chunk_len])
