#!/usr/bin/env python3
"""How much does a length-gamma left context say about the next token?

Trains one left-context embedding model per gamma on the redundant
corpus, then reports the mean cosine similarity between the averaged
context embedding and the next token's embedding, next to a shuffled
baseline. Contexts that genuinely constrain the next token sit well above
the baseline; watching the curve across gamma is a cheap way to pick a
match window before running generation sweeps.
"""

from pathlib import Path

from copyspec import Vocabulary
from copyspec.analysis import mean_cs, permutation_baseline, train_left_skipgram
from copyspec.corpus import load_transcripts, training_sequences

DATA = Path(__file__).resolve().parent.parent / "data"

corpus = load_transcripts(DATA / "redundant_2turn.jsonl")[:20]
vocab = Vocabulary()
seqs = training_sequences(corpus, vocab)
print(f"{len(seqs)} sequences, vocab {len(vocab)}")

print(f"{'gamma':<7}{'mean CS':<10}{'shuffled':<10}{'sd':<8}")
for gamma in (1, 2, 3, 5, 8):
    emb = train_left_skipgram(
        seqs, gamma, dim=16, epochs=4, learning_rate=0.15, seed=1729, vocab_size=len(vocab)
    )
    observed = mean_cs(seqs, emb)
    mu, sd = permutation_baseline(seqs, emb, n_permutations=5, seed=1729)
    print(f"{gamma:<7}{observed:<10.4f}{mu:<10.4f}{sd:<8.4f}")
