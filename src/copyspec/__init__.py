"""Speculative copy generation over deterministic reference language models.

A generation engine that detects when the last few tokens repeat earlier
context, proposes the tokens that followed the earlier occurrence, and
verifies them against the target model in one pass, falling back to a
small draft model or plain greedy decoding. Output is always identical to
greedy decoding; only the simulated cost changes.
"""

from .analysis import (
    EmbeddingModel,
    SweepResult,
    cosine_similarity,
    cs_profile,
    cs_study,
    permutation_baseline,
    predict_distribution,
    sweep,
    train_left_skipgram,
)
from .corpus import (
    EOT_ID,
    EOT_SYMBOL,
    Transcript,
    Turn,
    Vocabulary,
    detokenize,
    load_transcripts,
    save_transcripts,
    tokenize,
)
from .engine import (
    AttemptOutcome,
    BudgetExhausted,
    EngineConfig,
    Session,
    TurnResult,
    generate,
    run_transcript,
)
from .lm import KgramLM, LangModel, TableLM, greedy_extend, train_kgram
from .match_index import EmptyChunk, MatchIndex, MatchResult, extract_chunk
from .metrics import CostModel, RunMetrics, aggregate, score_log, speedup
from .synthetic import (
    CORPUS_SEED,
    default_corpora,
    make_novel_corpus,
    make_redundant_corpus,
    make_selfcorrect_corpus,
    write_corpora,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptOutcome",
    "BudgetExhausted",
    "CORPUS_SEED",
    "CostModel",
    "EOT_ID",
    "EOT_SYMBOL",
    "EmbeddingModel",
    "EmptyChunk",
    "EngineConfig",
    "KgramLM",
    "LangModel",
    "MatchIndex",
    "MatchResult",
    "RunMetrics",
    "Session",
    "SweepResult",
    "TableLM",
    "Transcript",
    "Turn",
    "TurnResult",
    "Vocabulary",
    "aggregate",
    "cosine_similarity",
    "cs_profile",
    "cs_study",
    "default_corpora",
    "detokenize",
    "extract_chunk",
    "generate",
    "greedy_extend",
    "load_transcripts",
    "make_novel_corpus",
    "make_redundant_corpus",
    "make_selfcorrect_corpus",
    "permutation_baseline",
    "predict_distribution",
    "run_transcript",
    "save_transcripts",
    "score_log",
    "speedup",
    "sweep",
    "tokenize",
    "train_kgram",
    "train_left_skipgram",
    "write_corpora",
]
