"""The generation loop: copy-first speculation, draft fallback, verification.

One attempt loop makes every attempt of a session. At each position it
looks up the index: if the strategy allows copying and the last gamma
tokens of the accepted sequence occur earlier in it, the tokens that
followed the earlier occurrence are proposed as a chunk. Otherwise a
smaller draft model may propose tokens. The target verifies a proposal
in one blockwise pass, which accepts the longest prefix matching the
target's argmax and always yields one extra guaranteed token; that token
diverges from the first rejected one and so prevents repeated failed
attempts at the same spot. The pass (``score_block(pending, proposal,
EOT_ID)``) stops at the first rejected token, so the target's cache ends
at the accepted prefix and is never truncated. Only the draft, which may
have appended its own rejected proposal, is rolled back to the accepted
prefix. With nothing proposed the attempt is a plain step, one token of
the target's greedy continuation (:meth:`~copyspec.lm.LangModel.decode`);
a stretch of plain steps reads one such generator, dropped when a
proposal's pass moves the cache. :meth:`Session.run` runs the loop to
end-of-text or the budget; :meth:`Session.step` makes one attempt of it.

Each model cache holds a prefix of the context. The newest committed
token stays unseen (pending) until the next attempt scores it together
with the proposal, so every attempt makes exactly one target pass, as
the cost model charges. Context whose predictions nobody reads is fed to
a cache unscored: each prompt, to both models when it is added, and the
draft's catch-up on context it has not seen, at its next proposal. A
draft proposal reads the draft's own greedy continuation
(:meth:`~copyspec.lm.LangModel.decode`) after the pending token, one
counted pass per drafted token, and leaves its last token pending. So
the models' ``blocks_scored`` and ``tokens_scored`` equal what
:func:`~copyspec.metrics.attempt_cost` charges: one target pass per
attempt, one draft pass per drafted token.

A session fixes its proposers when it is made: it keeps a match index
only when the strategy copies, and a draft model only when it drafts.
A copy proposal is sliced straight from the context, starting gamma
tokens after the position the index returns. Each attempt appends its
committed tokens to the context in place and extends the index (when
copying) once over them. Its record, an :class:`AttemptOutcome`, holds
only what the cost model charges, with one index operation per
committed token plus its lookup, if it made one; every plain step shares
one of three prebuilt records. An attempt that ends the text leaves
end-of-text as the context's last token.

The engine is lossless by construction: for every strategy the emitted
sequence equals plain greedy decoding of the target model.

:func:`run_corpus` is the one corpus-run path: ``copyspec run`` calls it
with one config, and :func:`sweep` with one config per gamma or chunk
length. Both require the user-turn prompts of
:func:`~copyspec.corpus.ingest` and hand them to each transcript's job,
so generation never tokenizes. The process pool is imported only when
``jobs > 1``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import islice
from math import ceil
from typing import Iterator

from .corpus import EOT_ID, Transcript, Vocabulary, turn_prefix_tokens
from .lm import LangModel
from .match_index import MatchIndex
from .metrics import CostModel, RunMetrics, aggregate, score_log

STRATEGIES = ("baseline", "copy", "specdec", "copy_plus_specdec")

SOURCE_COPY = "copy"
SOURCE_DRAFT = "draft"
SOURCE_PLAIN = "plain"


class BudgetExhausted(RuntimeError):
    """step() called with no output budget left; a run stops before that."""


@dataclass(frozen=True)
class EngineConfig:
    gamma: int = 3
    chunk_len: int = 10
    draft_len: int = 3
    strategy: str = "copy"
    max_new_tokens: int = 1024

    def __post_init__(self):
        if self.gamma < 1:
            raise ValueError("gamma must be >= 1")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        if self.draft_len < 1:
            raise ValueError("draft_len must be >= 1")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")

    @property
    def allows_copy(self) -> bool:
        return self.strategy in ("copy", "copy_plus_specdec")

    @property
    def allows_draft(self) -> bool:
        return self.strategy in ("specdec", "copy_plus_specdec")


@dataclass(slots=True)
class AttemptOutcome:
    """What one attempt is charged: ``(source, proposed, accepted_k, index_ops)``.

    The attempt commits ``accepted_k`` proposed tokens plus the bonus,
    which is ``context[-1]`` after it; an end-of-text bonus ends the text,
    and the output ends just before it. An end-of-text token accepted from
    inside a proposal is reclassified as the bonus. Every plain step
    shares one of :data:`PLAIN_RECORDS`: never mutate a record.
    """

    source: str  # copy | draft | plain
    proposed: int
    accepted_k: int
    index_ops: int = 0


# by index_ops: no index; an insert only (a context shorter than 2 * gamma); a lookup and an insert
PLAIN_RECORDS = tuple(AttemptOutcome(SOURCE_PLAIN, 0, 0, ops) for ops in range(3))


class Session:
    """Single-owner generation state: context, match index, model caches.

    The context may be extended across multiple generation runs (one per
    conversation turn); the match index persists and grows with it, so
    later turns can copy from everything that came before. Only copying
    strategies keep an index and only drafting ones a draft model: for
    the others ``index`` or ``draft`` is None, so the context is never
    indexed and a draft handed in is never fed.
    """

    def __init__(self, target: LangModel, draft: LangModel | None, config: EngineConfig):
        self.target = target
        self.draft = draft if config.allows_draft else None
        self.config = config
        self.context: list[int] = []
        self.index = MatchIndex(gamma=config.gamma) if config.allows_copy else None

    def extend_context(self, tokens: list[int]) -> None:
        """Append prompt-side tokens: indexed (when copying) and fed to the model caches.

        Each model is fed, unscored, the context it has not seen except
        the newest token, which stays pending until the next attempt's
        pass. Prompt processing is not an attempt, makes no scoring call
        and carries no simulated cost.
        """
        if not tokens:
            return
        self.context.extend(tokens)
        if self.index is not None:
            self.index.extend(self.context)
        for model in (self.target, self.draft):
            if model is not None:
                model.feed(self.context[model.state_len:-1])

    def verify_block(self, proposal: list[int]) -> int:
        """Verify a non-empty proposal in one target pass; commit, and return k.

        The target holds all the context but its last token, so that token
        is the pass's pending one. The pass returns its argmaxes up to the
        first that rejects a proposed token (or is end-of-text: an
        end-of-text that would be accepted becomes the bonus instead): the
        k accepted tokens, then the bonus. They extend the context and,
        when copying, the index. The target's cache then ends at the
        accepted prefix; only a rejection truncates the draft back to it.
        The bonus stays pending in both caches.
        """
        context = self.context
        scores = self.target.score_block(context[-1], proposal, EOT_ID)
        k = len(scores) - 1
        if k < len(proposal):
            keep = len(context) + k
            draft = self.draft
            if draft is not None and draft.state_len > keep:
                draft.truncate(keep)
        context += scores
        if self.index is not None:
            self.index.extend(context)
        return k

    def step(self, remaining: int) -> AttemptOutcome:
        """One attempt of the attempt loop: copy if a match exists, else draft, else plain.

        ``remaining`` is the output budget; proposals are capped so that
        accepted tokens plus the bonus never overshoot it.
        """
        if remaining < 1:
            raise BudgetExhausted(f"no output budget left ({remaining})")
        if not self.context:
            raise ValueError("step needs a non-empty context to score after")
        return next(self._attempts(len(self.context) + remaining))

    def run(self) -> tuple[list[int], list[AttemptOutcome]]:
        """Generate until end-of-text or ``config.max_new_tokens`` is exhausted.

        Returns the emitted output (excluding the terminating end-of-text
        sentinel, which stays in the context) and the outcomes of this
        run's attempts. Committed tokens per attempt are accepted_k + 1, so
        the outcomes partition everything committed, sentinel included.
        The attempts are those of calling :meth:`step` throughout, and so
        are the context, caches and counters they leave.
        """
        context = self.context
        if not context:
            raise ValueError("run needs a non-empty context to score after")
        start = len(context)
        log = list(self._attempts(start + self.config.max_new_tokens))
        stop = -1 if context[-1] == EOT_ID else None  # the sentinel stays in the context only
        return context[start:stop], log

    def _attempts(self, end: int) -> Iterator[AttemptOutcome]:
        """The attempt loop: attempts until end-of-text or a context of ``end`` tokens.

        Each attempt looks up the index, then tries the draft, then makes
        a plain step; with room for the bonus only it makes a plain step
        at once. A stretch of plain steps reads one target generator.
        """
        context, index, draft, cfg = self.context, self.index, self.draft, self.config
        gamma, shortest = cfg.gamma, 2 * cfg.gamma  # no lookup in a shorter context
        proposes = index is not None or draft is not None
        last = end - 1  # a proposal needs a shorter context: the bonus takes the last slot
        plain = None  # the target's greedy continuation while plain steps last
        while True:
            index_ops = 0
            proposal = None
            if proposes and (t := len(context)) < last:
                cap = last - t  # room for proposed tokens
                if index is not None and t >= shortest:
                    index_ops = 1  # the lookup
                    pos = index.lookup(context)
                    if pos is not None:
                        # a hit ends before the suffix starts, so the chunk is non-empty
                        start = pos - 1 + gamma
                        proposal = context[start:start + min(cfg.chunk_len, cap)]
                        source = SOURCE_COPY
                if draft is not None and proposal is None:
                    if draft.state_len < t - 1:  # catch up, unscored, on all but the pending token
                        draft.feed(context[draft.state_len:-1])
                    proposal = list(islice(draft.decode(context[-1]), min(cfg.draft_len, cap)))
                    source = SOURCE_DRAFT
            if proposal is None:
                if plain is None:
                    plain = self.target.decode(context[-1])
                bonus = next(plain)
                context.append(bonus)
                if index is not None:
                    index.extend(context)
                    index_ops += 1  # the insert
                yield PLAIN_RECORDS[index_ops]
            else:
                k = self.verify_block(proposal)
                bonus = context[-1]
                plain = None  # the pass moved the target's cache, which a generator must not see
                if index is not None:
                    index_ops += k + 1  # one insert per committed token
                yield AttemptOutcome(source, len(proposal), k, index_ops)
            if bonus == EOT_ID or len(context) >= end:
                return


def generate(
    prompt: list[int],
    target: LangModel,
    draft: LangModel | None = None,
    config: EngineConfig = EngineConfig(),
) -> tuple[list[int], list[AttemptOutcome]]:
    """Run one generation over a fresh session seeded with ``prompt``.

    For every strategy the output equals token-by-token greedy decoding of
    the target model on the same prompt.
    """
    if not prompt:
        raise ValueError("prompt must be non-empty")
    session = Session(target, draft, config)
    session.extend_context(list(prompt))
    return session.run()


@dataclass(slots=True)
class TurnResult:
    turn: int  # 1-based user-turn number
    output: list[int]
    metrics: RunMetrics


def run_transcript(
    transcript: Transcript,
    vocab: Vocabulary,
    target: LangModel,
    draft: LangModel | None,
    config: EngineConfig,
    cost: CostModel | None = None,
    prompts: list[list[int]] | None = None,
) -> list[TurnResult]:
    """Generate one assistant answer per user turn, sharing one session.

    The context for each turn is everything before it: role-tagged user
    texts and the engine's own previous answers (file reference answers
    are ignored). The match index persists and grows across turns.
    ``prompts`` are the user turns' tokens from
    :func:`~copyspec.corpus.ingest`; without them the user turns are
    tokenized here, growing ``vocab``. Each turn's attempt log is scored
    as soon as its run returns and then dropped, so a long session keeps
    no per-attempt records; :meth:`Session.run` and :meth:`Session.step`
    return them.
    """
    cost = cost or CostModel()
    if prompts is None:
        prompts = [turn_prefix_tokens(turn.text, vocab) for turn in transcript.user_turns()]
    session = Session(target, draft, config)
    results: list[TurnResult] = []
    for turn_no, prompt in enumerate(prompts, start=1):
        session.extend_context(prompt)
        output, log = session.run()
        results.append(TurnResult(turn_no, output, score_log(log, cost)))
    return results


def _run_configs(job):
    """One transcript under each config, on one spawn of each model.

    The spawns are rolled back to the empty prefix before every config,
    which the cache contract makes equivalent to fresh spawns. Only the
    per-turn metrics are kept.
    """
    transcript, prompts, vocab, target, draft, configs, cost = job
    target = target.spawn()
    draft = draft.spawn() if draft is not None else None
    runs = []
    for config in configs:
        for model in (target, draft):
            if model is not None:
                model.truncate(0)
        results = run_transcript(transcript, vocab, target, draft, config, cost, prompts)
        runs.append([(r.turn, r.metrics) for r in results])
    return transcript.id, transcript.category, runs


def run_corpus(
    transcripts: list[Transcript],
    prompts: list[list[list[int]]],
    vocab: Vocabulary,
    target: LangModel,
    draft: LangModel | None,
    configs: list[EngineConfig],
    cost: CostModel | None = None,
    jobs: int = 1,
) -> list[tuple[str, str, list[list[tuple[int, RunMetrics]]]]]:
    """Run every transcript under every config; the one corpus-run path.

    ``prompts[i]`` are the user-turn prompts of ``transcripts[i]``, from
    :func:`~copyspec.corpus.ingest`. Returns, per transcript in corpus
    order, ``(id, category, runs)`` where ``runs[i]`` lists
    ``(turn, metrics)`` under ``configs[i]``. Each transcript spawns its
    models once and is one job, which carries its prompts. With
    ``jobs > 1`` the jobs are split into one chunk per worker process,
    so each chunk pickles the model pair once; the result does not
    depend on ``jobs``.
    """
    job_list = [(t, p, vocab, target, draft, configs, cost) for t, p in zip(transcripts, prompts)]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunksize = max(1, ceil(len(job_list) / jobs))
            return list(pool.map(_run_configs, job_list, chunksize=chunksize))
    return [_run_configs(job) for job in job_list]


@dataclass(frozen=True)
class SweepResult:
    axis: str  # "gamma" | "chunk_len"
    points: list[tuple[int, RunMetrics]]  # (value, pooled metrics)
    runs: list = field(default_factory=list, repr=False)  # run_corpus output, one run per value

    def to_dict(self) -> dict:
        return {
            "axis": self.axis,
            "points": [
                {"value": v, "metrics": m.to_dict(), "copy_attempts": m.copy_attempts}
                for v, m in self.points
            ],
        }

    def long_rows(self) -> list[tuple[int, str, float]]:
        """Plot-ready (value, metric, number) rows."""
        rows: list[tuple[int, str, float]] = []
        for v, m in self.points:
            for name, num in m.to_dict().items():
                rows.append((v, name, float(num)))
            rows.append((v, "copy_attempts_total", float(m.copy_attempts)))
        return rows


def sweep(
    corpus: list[Transcript],
    prompts: list[list[list[int]]],
    vocab: Vocabulary,
    target: LangModel,
    draft: LangModel | None,
    base_config: EngineConfig,
    axis: str,
    values: list[int],
    cost: CostModel | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Run the whole corpus once per value of ``axis``, all else fixed.

    The models are spawned once per transcript and truncated to the empty
    prefix between values, so results are identical to independent runs.
    ``prompts`` come from :func:`~copyspec.corpus.ingest` and serve every
    value (see :func:`run_corpus`).
    Each point pools its turns in corpus order; ``runs`` keeps the
    per-transcript metrics behind the points.
    """
    if axis not in ("gamma", "chunk_len"):
        raise ValueError(f"axis must be 'gamma' or 'chunk_len', got {axis!r}")
    if not values:
        raise ValueError("values must be non-empty")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError("values must be strictly increasing")
    configs = [replace(base_config, **{axis: value}) for value in values]
    runs = run_corpus(corpus, prompts, vocab, target, draft, configs, cost, jobs)
    points = []
    for i, value in enumerate(values):
        points.append((value, aggregate([metrics for _, _, per_config in runs for _, metrics in per_config[i]])))
    return SweepResult(axis=axis, points=points, runs=runs)
