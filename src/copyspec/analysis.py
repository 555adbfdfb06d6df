"""The left-context embedding alignment study (the gamma and chunk-length
sweeps are :func:`copyspec.engine.sweep`).

It trains a skip-gram variant whose context is only the last gamma
tokens: it maximizes the product over the corpus of P(token | mean
embedding of the preceding gamma tokens) with a full softmax
(vocabularies here are tiny). Cosine similarity between the mean
context vector and the next token's vector then measures how much
predictive signal a length-gamma left context carries, which is the
quantity that makes a gamma value good or bad for copy detection.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class VocabTooLarge(ValueError):
    """Full-softmax training is only supported for small vocabularies."""


class ZeroVector(ValueError):
    """Cosine similarity is undefined for a zero vector."""


@dataclass
class EmbeddingModel:
    """Token embeddings trained for a fixed gamma.

    ``vectors`` holds the token embeddings used for similarity (one real
    vector per vocabulary token); ``out_vectors`` is the softmax output
    matrix used only on the prediction side, as in classic two-matrix
    skip-gram trainers.
    """

    gamma: int
    vectors: np.ndarray  # shape (vocab, dim)
    out_vectors: np.ndarray  # shape (vocab, dim)
    epoch_losses: list[float]


def _context_pairs(corpus: list[list[int]], gamma: int) -> list[tuple[list[int], int]]:
    """(last-gamma context, next token) pairs from every eligible position."""
    pairs = []
    for seq in corpus:
        for j in range(gamma, len(seq)):
            pairs.append((seq[j - gamma:j], seq[j]))
    return pairs


def train_left_skipgram(
    corpus: list[list[int]],
    gamma: int,
    dim: int = 16,
    epochs: int = 10,
    learning_rate: float = 0.1,
    seed: int = 0,
    vocab_size: int | None = None,
) -> EmbeddingModel:
    """Stochastic gradient ascent on the left-gamma objective.

    Maximizes the product over the corpus of P(token | mean embedding of
    the preceding gamma tokens) with a full softmax over a separate
    output matrix. The per-epoch sample order is shuffled from ``seed``
    and the step size decays harmonically, so training is deterministic
    given the seed and the per-epoch mean loss settles monotonically.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    if vocab_size is None:
        vocab_size = 1 + max((max(seq) for seq in corpus if seq), default=0)
    if vocab_size > 5000:
        raise VocabTooLarge(f"vocab of {vocab_size} exceeds the full-softmax limit of 5000")
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab_size, dim))
    out = rng.uniform(-0.5 / dim, 0.5 / dim, size=(vocab_size, dim))
    pairs = _context_pairs(corpus, gamma)
    if not pairs:
        return EmbeddingModel(gamma=gamma, vectors=vectors, out_vectors=out, epoch_losses=[])
    epoch_losses: list[float] = []
    order = np.arange(len(pairs))
    for epoch in range(epochs):
        rng.shuffle(order)
        lr = learning_rate / (1.0 + 0.2 * epoch)
        total = 0.0
        for idx in order:
            ctx, tok = pairs[idx]
            v_ctx = vectors[ctx].mean(axis=0)
            logits = out @ v_ctx
            logits -= logits.max()
            exp = np.exp(logits)
            probs = exp / exp.sum()
            total -= float(np.log(probs[tok]))
            # d(log p)/d v_ctx = U[t] - sum_w p_w U[w]; spread over gamma rows
            grad_ctx = (out[tok] - probs @ out) / gamma
            # d(log p)/d U[w] = (1{w=t} - p_w) * v_ctx
            out -= lr * np.outer(probs, v_ctx)
            out[tok] += lr * v_ctx
            for c in ctx:
                vectors[c] += lr * grad_ctx
        epoch_losses.append(total / len(pairs))
    return EmbeddingModel(gamma=gamma, vectors=vectors, out_vectors=out, epoch_losses=epoch_losses)


def cosine_similarity(context_vec: np.ndarray, token_vec: np.ndarray) -> float:
    """CS(a, b) = a.b / (|a| |b|); raises :class:`ZeroVector` on zero input.

    Each vector is first divided by its largest magnitude, which leaves CS
    unchanged but keeps the squared norms clear of the subnormal range,
    where tiny vectors would lose precision.
    """
    a = np.asarray(context_vec, dtype=float)
    b = np.asarray(token_vec, dtype=float)
    sa = float(np.abs(a).max(initial=0.0))
    sb = float(np.abs(b).max(initial=0.0))
    if sa == 0.0 or sb == 0.0:
        raise ZeroVector("cosine similarity undefined for zero vectors")
    a, b = a / sa, b / sb
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def context_vector(embedding: EmbeddingModel, context: list[int]) -> np.ndarray:
    """Mean embedding of the given context tokens."""
    return embedding.vectors[context].mean(axis=0)


def mean_cs(corpus: list[list[int]], embedding: EmbeddingModel) -> float:
    """Mean cosine similarity between left-gamma contexts and next tokens.

    Gamma is the embedding's own. Pairs are drawn from every position
    with at least gamma predecessors in every sequence; with none the
    mean is 0.0.
    """
    sims = [
        cosine_similarity(context_vector(embedding, ctx), embedding.vectors[tok])
        for ctx, tok in _context_pairs(corpus, embedding.gamma)
    ]
    return float(np.mean(sims)) if sims else 0.0


def cs_study(
    corpus: list[list[int]],
    gammas: list[int],
    dim: int = 16,
    epochs: int = 10,
    learning_rate: float = 0.1,
    seed: int = 0,
) -> list[tuple[int, float]]:
    """Retrain one embedding per gamma and evaluate it at that gamma."""
    return [
        (gamma, mean_cs(corpus, train_left_skipgram(corpus, gamma, dim, epochs, learning_rate, seed)))
        for gamma in gammas
    ]


def permutation_baseline(
    corpus: list[list[int]],
    embedding: EmbeddingModel,
    n_permutations: int = 20,
    seed: int = 0,
) -> tuple[float, float]:
    """Mean and standard deviation of mean-CS under shuffled next tokens.

    Destroys the context/next-token pairing while keeping both marginals,
    giving the no-left-dependence reference level for :func:`mean_cs`.
    """
    pairs = _context_pairs(corpus, embedding.gamma)
    ctx_vecs = np.stack([context_vector(embedding, ctx) for ctx, _ in pairs])
    toks = np.array([tok for _, tok in pairs])
    rng = np.random.default_rng(seed)
    means = []
    for _ in range(n_permutations):
        shuffled = rng.permutation(toks)
        sims = [
            cosine_similarity(ctx_vecs[i], embedding.vectors[shuffled[i]]) for i in range(len(toks))
        ]
        means.append(float(np.mean(sims)))
    arr = np.array(means)
    return float(arr.mean()), float(arr.std(ddof=1)) if len(arr) > 1 else 0.0
