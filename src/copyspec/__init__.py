"""Speculative copy generation over deterministic reference language models.

A generation engine that detects when the last few tokens repeat earlier
context, proposes the tokens that followed the earlier occurrence, and
verifies them against the target model in one pass, falling back to a
small draft model or plain greedy decoding. Output is always identical to
greedy decoding; only the simulated cost changes.

The top level holds the names the demos and README use; everything else
is imported from its submodule. The embedding study (``analysis``) and
the corpus generator (``synthetic``) need numpy and are not imported here.
"""

from .corpus import Vocabulary, tokenize
from .engine import EngineConfig, Session, generate, run_transcript, sweep
from .lm import TableLM, train_kgram
from .metrics import CostModel, aggregate, score_log, speedup

__version__ = "0.1.0"

__all__ = [
    "CostModel",
    "EngineConfig",
    "Session",
    "TableLM",
    "Vocabulary",
    "aggregate",
    "generate",
    "run_transcript",
    "score_log",
    "speedup",
    "sweep",
    "tokenize",
    "train_kgram",
]
