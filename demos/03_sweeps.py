#!/usr/bin/env python3
"""Hyperparameter sweeps on the redundant corpus.

Sweeping the match window shows the trade the window length makes: short
windows fire often but get rejected often; long windows fire rarely but
almost always stick, so accepted-tokens-per-attempt climbs while the
attempt count falls. Sweeping the proposal length shows an interior
optimum: long proposals amortize passes over more tokens until rejected
tails dominate.

Writes plot-ready long-format CSV next to this script.
"""

from pathlib import Path

from copyspec import EngineConfig, Vocabulary, sweep, train_kgram
from copyspec.corpus import ingest, load_transcripts

HERE = Path(__file__).resolve().parent
DATA = HERE.parent / "data"

corpus = load_transcripts(DATA / "redundant_2turn.jsonl")
vocab = Vocabulary()
seqs, prompts = ingest(corpus, vocab)
target = train_kgram(seqs, 4, vocab_size=len(vocab))
config = EngineConfig(strategy="copy")

print("match-window sweep (gamma 2..8):")
gamma_sweep = sweep(corpus, prompts, vocab, target, None, config, "gamma", list(range(2, 9)))
print(f"{'gamma':<7}{'sim_tps':<10}{'%copied':<10}{'tau1':<8}{'attempts':<9}")
for value, m in gamma_sweep.points:
    print(f"{value:<7}{m.sim_tps:<10.3f}{m.pct_copied:<10.3f}{m.tau1:<8.2f}{m.copy_attempts:<9}")

print("\nproposal-length sweep (chunk 5..100):")
chunk_sweep = sweep(corpus, prompts, vocab, target, None, config, "chunk_len", [5, 10, 25, 50, 100])
print(f"{'chunk':<7}{'sim_tps':<10}{'%copied':<10}{'tau1':<8}{'attempts':<9}")
for value, m in chunk_sweep.points:
    print(f"{value:<7}{m.sim_tps:<10.3f}{m.pct_copied:<10.3f}{m.tau1:<8.2f}{m.copy_attempts:<9}")

for result, name in ((gamma_sweep, "gamma_sweep.csv"), (chunk_sweep, "chunk_sweep.csv")):
    out = HERE / name
    rows = ["value,metric,number"] + [f"{v},{metric},{num!r}" for v, metric, num in result.long_rows()]
    out.write_text("\n".join(rows) + "\n")
    print(f"\nwrote {out}")
