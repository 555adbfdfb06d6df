"""Dictionary of all gamma-token subsequences of a context.

Each distinct gram maps to the position of its first occurrence, so
indexing a gram is one ``setdefault`` on its token tuple, which returns
where the gram first occurs; the dict compares tuples, so a match is
always exact. The last gram ``extend`` indexes is the context's suffix,
so its ``setdefault`` answers the lookup for that context: ``lookup``
reads no gram and probes no dict. The earliest occurrence is the only
one a lookup needs: if it overlaps the current suffix, every later one
does too. The index only grows: ``extend`` is handed the whole context
and reads the part past what it has already indexed. Positions are
1-based: the gram starting at position q covers context[q .. q+gamma-1].
A lookup returns only the position of the earlier occurrence; the
tokens to copy start gamma places after it, and the engine slices them
from the context itself.
"""

from __future__ import annotations

from typing import Sequence


class MatchIndex:
    """First 1-based position of every distinct gram, keyed by its tokens.

    ``length`` tracks how many context tokens have been indexed; callers
    only ever append to the context they pass to ``extend``, and look up
    only the context they last indexed. ``mix_ops`` counts gamma per gram
    read by ``extend``, the work of reading one gram; a lookup reads none.
    """

    def __init__(self, gamma: int = 3):
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma
        self.length = 0
        self.first: dict[tuple[int, ...], int] = {}
        self.mix_ops = 0
        self.lookups = 0
        self.match: int | None = None  # lookup's answer for the indexed context

    def extend(self, context: Sequence[int]) -> None:
        """Index every gamma-gram ending in ``context`` past the indexed prefix.

        ``context`` is the full accepted sequence; its first ``length``
        tokens must be the ones already indexed. Each gram is read exactly
        once, so the cost is O(gamma) per appended token whatever the
        context length. The last gram's first position, when it does not
        overlap the suffix, is kept as the answer to :meth:`lookup`.
        """
        t = len(context)
        g = self.gamma
        if t == self.length + 1 and t >= g:  # one new token, one new gram: every plain step
            begin = t - g
            pos = self.first.setdefault(tuple(context[begin:]), begin + 1)
            self.mix_ops += g
            self.match = pos if pos + g - 1 <= begin else None
            self.length = t
            return
        if t < self.length:
            raise ValueError(f"index covers {self.length} tokens; context has only {t}")
        begin = self.length - g + 1  # 0-based start of the first new gram
        if begin < 0:
            begin = 0
        end = t - g + 1  # one past the 0-based start of the last gram
        if end > begin:
            setdefault = self.first.setdefault
            for i in range(begin, end):
                pos = setdefault(tuple(context[i:i + g]), i + 1)
            self.mix_ops += g * (end - begin)
            self.match = pos if pos + g - 1 < end else None
        self.length = t

    def lookup(self, context: Sequence[int]) -> int | None:
        """Where the last gamma tokens first occur without overlapping themselves.

        With t = len(context) and s = context[t-gamma+1 .. t], returns the
        smallest indexed 1-based position p of s with
        p + gamma - 1 < t - gamma + 1; None when no such occurrence exists.
        Copying starts at p + gamma, which is at most t. The last
        :meth:`extend` computed it; another length raises ``ValueError``.
        """
        if len(context) != self.length:
            raise ValueError(f"index covers {self.length} tokens; context has {len(context)}")
        self.lookups += 1
        return self.match
