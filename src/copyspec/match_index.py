"""Dictionary of all gamma-token subsequences of a context.

Each distinct gram maps to the position of its first occurrence, so
insert and lookup are one dict operation on the gram's token tuple; the
dict compares the stored tuple with the query, so a match is always
exact. The earliest occurrence is the only one a lookup needs: if it
overlaps the current suffix, every later one does too. The index only
grows: ``extend`` is handed the whole context and reads the part past
what it has already indexed. Positions are 1-based throughout this
module: the gram starting at position q covers context[q .. q+gamma-1]
inclusive. A lookup returns only the position of the earlier
occurrence; the tokens to copy start gamma places after it, and the
engine slices them from the context itself.
"""

from __future__ import annotations

from typing import Sequence


class MatchIndex:
    """First 1-based position of every distinct gram, keyed by its tokens.

    ``length`` tracks how many context tokens have been indexed; callers
    only ever append to the context they pass to ``extend``. ``mix_ops``
    counts gamma per gram read by ``extend`` or ``lookup``, the work of
    reading one gram.
    """

    def __init__(self, gamma: int = 3):
        if gamma < 1:
            raise ValueError(f"gamma must be >= 1, got {gamma}")
        self.gamma = gamma
        self.length = 0
        self.first: dict[tuple[int, ...], int] = {}
        self.mix_ops = 0
        self.lookups = 0

    def extend(self, context: Sequence[int]) -> None:
        """Index every gamma-gram ending in ``context`` past the indexed prefix.

        ``context`` is the full accepted sequence; its first ``length``
        tokens must be the ones already indexed. Each gram is read exactly
        once, so the cost is O(gamma) per appended token whatever the
        context length.
        """
        t = len(context)
        if t < self.length:
            raise ValueError(f"index covers {self.length} tokens; context has only {t}")
        g = self.gamma
        begin = self.length - g + 1  # 0-based start of the first new gram
        if begin < 0:
            begin = 0
        end = t - g + 1  # one past the 0-based start of the last gram
        if end > begin:
            setdefault = self.first.setdefault
            for i in range(begin, end):
                setdefault(tuple(context[i:i + g]), i + 1)
            self.mix_ops += g * (end - begin)
        self.length = t

    def lookup(self, context: Sequence[int]) -> int | None:
        """Where the last gamma tokens first occur without overlapping themselves.

        With t = len(context) and s = context[t-gamma+1 .. t], returns the
        smallest indexed 1-based position p of s with
        p + gamma - 1 < t - gamma + 1; None when no such occurrence exists.
        Copying starts at p + gamma, which is at most t.
        """
        self.lookups += 1
        g = self.gamma
        t = len(context)
        if t < g:
            return None
        self.mix_ops += g
        pos = self.first.get(tuple(context[t - g:]))
        if pos is None or pos + g - 1 >= t - g + 1:
            return None
        return pos
