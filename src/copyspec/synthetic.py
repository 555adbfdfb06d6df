"""Seeded synthetic corpora with controlled redundancy structure.

Three corpora are shipped, mirroring three conversation shapes:

* ``redundant-2turn``: the second turn asks for a light revision of the
  first answer, so its reference answer is a short fresh lead-in followed
  by a bounded verbatim tail of the first answer. Generation over a
  k-gram model trained on the corpus then reproduces that overlap, which
  is what makes copying pay off in turn two.
* ``novel-2turn``: the second turn switches to an unrelated topic drawn
  from a disjoint word pool; the control corpus for overhead measurement.
* ``selfcorrect-3turn``: three turns of iterative revision with overlap
  growing turn over turn.

Each transcript draws its content words from a private pool, so k-gram
chains never collide across transcripts and greedy decoding replays the
reference answers exactly. Every first answer also embeds a few "decoy"
phrases of graded lengths: the same phrase occurs in the user turn with a
different continuation word. When generation reaches a decoy, any match
window no longer than the decoy finds the user-turn occurrence and the
proposed continuation is rejected at the point of divergence. Longer
windows skip shorter decoys entirely, which gives copy-attempt counts
their decreasing-in-gamma shape and acceptance-per-attempt its
increasing-in-gamma shape.

Transcripts whose text happens to repeat a 4-gram with two different
continuations (which would make an order-4 chain ambiguous beyond the
engineered decoy points) are regenerated from a bumped sub-seed, so the
shipped corpora replay deterministically under an order-4 target.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from .corpus import Transcript, Turn, save_transcripts

CORPUS_SEED = 1729

CATEGORIES = (
    "coding",
    "extraction",
    "humanities",
    "math",
    "reasoning",
    "roleplay",
    "stem",
    "writing",
)

# Decoy lengths per first answer; the connective after a decoy inside an
# answer is always "then", which appears in the user text before any decoy
# continuation word so count ties resolve toward it (smaller token id).
# One decoy per length 2..7 shapes the gamma sweep; the long 12-decoy keeps
# mixed copy-plus-draft runs competitive on low-redundancy first turns.
DECOY_LENGTHS = (2, 3, 4, 5, 6, 7, 12)
CONNECTIVE = "then"
CHAIN_ORDER = 4  # target-model order the corpora are validated against

_SYLLABLES = (
    "ba", "ce", "di", "fo", "gu", "ha", "je", "ki", "lo", "mu",
    "na", "pe", "qui", "ro", "su", "ta", "ve", "wi", "xo", "yu",
    "za", "bri", "cla", "dro", "fli", "gra", "ple", "sti", "tra", "vor",
)


class _WordMint:
    """Deterministic factory for corpus-unique pseudo-words."""

    def __init__(self, rng: np.random.Generator, tag: str):
        self._rng = rng
        self._tag = tag
        self._seen: set[str] = set()
        self._n = 0

    def fresh(self) -> str:
        while True:
            a, b = self._rng.integers(0, len(_SYLLABLES), size=2)
            word = f"{_SYLLABLES[a]}{_SYLLABLES[b]}{self._tag}"
            if word not in self._seen:
                self._seen.add(word)
                return word
            self._n += 1
            word = f"{word}n{self._n}"
            if word not in self._seen:
                self._seen.add(word)
                return word


def _body(rng: np.random.Generator, pool: list[str], length: int) -> list[str]:
    return [pool[i] for i in rng.integers(0, len(pool), size=length)]


def _insert_decoys(rng: np.random.Generator, body: list[str], decoys: list[list[str]]) -> list[str]:
    """Splice each decoy phrase plus the connective into the body."""
    out = list(body)
    for phrase in decoys:
        lo = min(4, len(out))
        pos = int(rng.integers(lo, max(lo + 1, len(out) - 4)))
        out[pos:pos] = phrase + [CONNECTIVE]
    return out


def _chain_conflicts(turn_words: list[list[str]], baits: set[str]) -> bool:
    """True when an order-CHAIN_ORDER chain over the transcript is ambiguous.

    The transcript text is assembled the way the engine and the trainer
    see it (role tags between turns, end marker after answers). Two
    ambiguities are tolerated: the engineered decoy ending (nexts
    {bait, connective} with the connective at least as frequent), and any
    context containing the end marker or the user tag. The latter can
    only occur at turn boundaries, which generation never predicts
    across: it stops at the end marker, and every user prefix is longer
    than the context window, so such contexts are never consulted.
    """
    seq: list[str] = []
    for role_tag, words in turn_words:
        seq += [role_tag] + words + (["<eot>"] if role_tag == "assistant" else [])
    nexts: dict[tuple[str, ...], Counter] = {}
    for j in range(CHAIN_ORDER, len(seq)):
        nexts.setdefault(tuple(seq[j - CHAIN_ORDER:j]), Counter())[seq[j]] += 1
    for ctx, counter in nexts.items():
        if len(counter) == 1 or "<eot>" in ctx or "user" in ctx:
            continue
        others = set(counter) - {CONNECTIVE}
        tolerated = (
            CONNECTIVE in counter
            and len(others) == 1
            and others <= baits
            and counter[CONNECTIVE] >= counter[next(iter(others))]
        )
        if not tolerated:
            return True
    return False


def _validated(build, seed_key: list[int]) -> Transcript:
    """Build a transcript, retrying with bumped sub-seeds until unambiguous."""
    for attempt in range(64):
        rng = np.random.default_rng(seed_key + [attempt])
        transcript, turn_words, baits = build(rng)
        if not _chain_conflicts(turn_words, baits):
            return transcript
    raise RuntimeError(f"could not build an unambiguous transcript for seed {seed_key}")


def _first_turn(rng: np.random.Generator, mint: _WordMint, body_len: int):
    """User prompt with decoys and an answer containing their twins."""
    topic = mint.fresh()
    pool = [mint.fresh() for _ in range(36)]
    decoys = [[mint.fresh() for _ in range(g)] for g in DECOY_LENGTHS]
    baits = [mint.fresh() for _ in decoys]
    user = ["so", CONNECTIVE, "explain", "the", "topic", topic, "with", "these", "notes"]
    for phrase, x in zip(decoys, baits):
        user += phrase + [x]
    user += ["and", "keep", "it", "clear", mint.fresh()]
    answer = _insert_decoys(rng, _body(rng, pool, body_len), decoys)
    answer.append(".")
    return topic, user, answer, set(baits)


def _revision(rng: np.random.Generator, mint: _WordMint, previous: list[str], tail_len: int) -> list[str]:
    """A fresh lead-in followed by a verbatim tail of the previous answer."""
    intro = [mint.fresh() for _ in range(int(rng.integers(4, 8)))]
    return intro + previous[-min(tail_len, len(previous)):]


def _as_transcript(tid: str, category: str, turn_words: list[list]) -> Transcript:
    turns = tuple(Turn(role, " ".join(words)) for role, words in turn_words)
    return Transcript(id=tid, category=category, turns=turns)


def _tagged(user_answer_pairs: list[tuple[list[str], list[str]]]) -> list[list]:
    out = []
    for user, answer in user_answer_pairs:
        out.append(["user", user])
        out.append(["assistant", answer])
    return out


def make_redundant_corpus(
    n: int = 50,
    seed: int = CORPUS_SEED,
    body_range: tuple[int, int] = (55, 76),
    tail_range: tuple[int, int] = (25, 46),
) -> list[Transcript]:
    """Two-turn transcripts whose second turn revises the first answer.

    ``body_range`` bounds the first answer's content length and
    ``tail_range`` the verbatim overlap carried into the second answer
    (both half-open, in tokens).
    """

    def build_for(i: int):
        def build(rng: np.random.Generator):
            mint = _WordMint(rng, str(i))
            topic, user1, answer1, baits = _first_turn(rng, mint, int(rng.integers(*body_range)))
            user2 = ["now", "revise", "that", "answer", "about", topic, "once", "more", mint.fresh()]
            answer2 = _revision(rng, mint, answer1, int(rng.integers(*tail_range)))
            turn_words = _tagged([(user1, answer1), (user2, answer2)])
            return (
                _as_transcript(f"red-{i:03d}", CATEGORIES[i % len(CATEGORIES)], turn_words),
                turn_words,
                baits,
            )

        return build

    return [_validated(build_for(i), [seed, 1, i]) for i in range(n)]


def make_novel_corpus(n: int = 50, seed: int = CORPUS_SEED) -> list[Transcript]:
    """Two-turn transcripts whose second turn switches to a fresh topic."""

    def build_for(i: int):
        def build(rng: np.random.Generator):
            mint = _WordMint(rng, f"n{i}")
            topic1, user1, answer1, baits = _first_turn(rng, mint, int(rng.integers(55, 76)))
            topic2 = mint.fresh()
            pool2 = [mint.fresh() for _ in range(36)]
            decoys2 = [[mint.fresh() for _ in range(g)] for g in (2, 3, 4)]
            baits2 = [mint.fresh() for _ in decoys2]
            user2 = ["next", "describe", "another", "topic", topic2, "instead"]
            for phrase, x in zip(decoys2, baits2):
                user2 += phrase + [x]
            user2 += ["please", mint.fresh()]
            answer2 = _insert_decoys(rng, _body(rng, pool2, int(rng.integers(45, 66))), decoys2)
            answer2.append(".")
            turn_words = _tagged([(user1, answer1), (user2, answer2)])
            return (
                _as_transcript(f"nov-{i:03d}", CATEGORIES[i % len(CATEGORIES)], turn_words),
                turn_words,
                baits | set(baits2),
            )

        return build

    return [_validated(build_for(i), [seed, 2, i]) for i in range(n)]


def make_selfcorrect_corpus(n: int = 50, seed: int = CORPUS_SEED) -> list[Transcript]:
    """Three-turn refine loops with overlap growing turn over turn."""

    def build_for(i: int):
        def build(rng: np.random.Generator):
            mint = _WordMint(rng, f"s{i}")
            topic, user1, answer1, baits = _first_turn(rng, mint, int(rng.integers(55, 76)))
            user2 = ["review", "the", "answer", "above", "about", topic, "and", "adjust", "it", mint.fresh()]
            answer2 = _revision(rng, mint, answer1, int(rng.integers(22, 31)))
            user3 = ["now", "give", "the", "final", "version", "please", mint.fresh()]
            answer3 = _revision(rng, mint, answer2, int(rng.integers(33, 46)))
            turn_words = _tagged([(user1, answer1), (user2, answer2), (user3, answer3)])
            return (
                _as_transcript(f"self-{i:03d}", CATEGORIES[i % len(CATEGORIES)], turn_words),
                turn_words,
                baits,
            )

        return build

    return [_validated(build_for(i), [seed, 3, i]) for i in range(n)]


def default_corpora(n: int = 50, seed: int = CORPUS_SEED) -> dict[str, list[Transcript]]:
    return {
        "redundant-2turn": make_redundant_corpus(n, seed),
        "novel-2turn": make_novel_corpus(n, seed),
        "selfcorrect-3turn": make_selfcorrect_corpus(n, seed),
    }


def corpus_filename(name: str) -> str:
    return name.replace("-", "_") + ".jsonl"


def write_corpora(directory: str | Path, n: int = 50, seed: int = CORPUS_SEED) -> list[Path]:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, transcripts in default_corpora(n, seed).items():
        path = directory / corpus_filename(name)
        save_transcripts(path, transcripts)
        paths.append(path)
    return paths
