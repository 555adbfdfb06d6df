import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from copyspec.analysis import (
    VocabTooLarge,
    ZeroVector,
    context_vector,
    cosine_similarity,
    cs_study,
    mean_cs,
    permutation_baseline,
    train_left_skipgram,
)
from copyspec.engine import EngineConfig, run_transcript, sweep
from copyspec.metrics import CostModel, aggregate
from copyspec.synthetic import make_redundant_corpus
from copyspec.corpus import Vocabulary, ingest, training_sequences
from copyspec.lm import train_kgram


@pytest.fixture(scope="module")
def small_setup():
    corpus = make_redundant_corpus(n=10, seed=77)
    vocab = Vocabulary()
    seqs, prompts = ingest(corpus, vocab)
    target = train_kgram(seqs, 4, vocab_size=len(vocab))
    return corpus, prompts, vocab, target


def test_sweep_single_point_equals_direct_run(small_setup):
    # each point equals independent runs on fresh spawns, so no state can
    # leak between values through the models a transcript reuses
    corpus, prompts, vocab, target = small_setup
    draft = train_kgram(training_sequences(corpus, vocab), 2, vocab_size=len(vocab))
    values = [2, 3, 5]
    for strategy, draft_model in (("copy", None), ("copy_plus_specdec", draft)):
        result = sweep(corpus, prompts, vocab, target, draft_model, EngineConfig(strategy=strategy), "gamma", values)
        assert [v for v, _ in result.points] == values
        for value, pooled in result.points:
            config = EngineConfig(gamma=value, strategy=strategy)
            per_turn = []
            for t in corpus:
                fresh_draft = draft_model.spawn() if draft_model else None
                per_turn.extend(
                    r.metrics for r in run_transcript(t, vocab, target.spawn(), fresh_draft, config, CostModel())
                )
            direct = aggregate(per_turn)
            assert pooled == direct
            assert pooled.copy_attempts == direct.copy_attempts


def test_sweep_validation(small_setup):
    corpus, prompts, vocab, target = small_setup
    config = EngineConfig(strategy="copy")
    with pytest.raises(ValueError):
        sweep(corpus, prompts, vocab, target, None, config, "gamma", [])
    with pytest.raises(ValueError):
        sweep(corpus, prompts, vocab, target, None, config, "gamma", [3, 3])
    with pytest.raises(ValueError):
        sweep(corpus, prompts, vocab, target, None, config, "learning_rate", [1])


def test_gamma_sweep_attempts_non_increasing(small_setup):
    corpus, prompts, vocab, target = small_setup
    result = sweep(corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "gamma", [2, 4, 6, 8])
    attempts = [m.copy_attempts for _, m in result.points]
    assert all(b <= a for a, b in zip(attempts, attempts[1:]))


def test_chunk_sweep_interior_peak_on_shipped_corpus(redundant_setup):
    corpus, vocab, target, _ = redundant_setup
    prompts = ingest(corpus, vocab)[1]  # the vocabulary already holds every symbol
    result = sweep(corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "chunk_len", [5, 10, 50])
    tps = {v: m.sim_tps for v, m in result.points}
    assert tps[10] > tps[5] and tps[10] > tps[50]


def test_chunk_sweep_interior_peak_on_short_runs():
    # short copyable runs (tail 6..10 tokens) make mid-size chunks optimal:
    # bigger proposals only add rejected-token cost
    corpus = make_redundant_corpus(n=12, seed=5, body_range=(40, 56), tail_range=(6, 11))
    vocab = Vocabulary()
    seqs, prompts = ingest(corpus, vocab)
    target = train_kgram(seqs, 4, vocab_size=len(vocab))
    result = sweep(corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "chunk_len", [5, 10, 50])
    tps = {v: m.sim_tps for v, m in result.points}
    assert tps[10] > tps[5] and tps[10] > tps[50]


def test_sweep_determinism(small_setup):
    corpus, prompts, vocab, target = small_setup
    config = EngineConfig(strategy="copy")
    a = sweep(corpus, prompts, vocab, target, None, config, "gamma", [2, 3])
    b = sweep(corpus, prompts, vocab, target, None, config, "gamma", [2, 3])
    assert a == b


def test_sweep_long_rows_shape(small_setup):
    corpus, prompts, vocab, target = small_setup
    result = sweep(corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "gamma", [2, 3])
    rows = result.long_rows()
    assert ({v for v, _, _ in rows} == {2, 3}) and any(name == "sim_tps" for _, name, _ in rows)


# --- left-context skip-gram -------------------------------------------------


def test_skipgram_learns_planted_pair():
    # token 2 always follows (1, 1); the trained softmax must rank it first
    rng = np.random.default_rng(0)
    fillers = [int(f) for f in rng.permutation(np.arange(3, 43))[:30]]
    corpus = [sum([[f, 1, 1, 2] for f in fillers], [])]
    emb = train_left_skipgram(corpus, gamma=2, dim=16, epochs=30, learning_rate=0.3, seed=0)
    logits = emb.out_vectors @ context_vector(emb, [1, 1])
    assert int(np.argmax(logits)) == 2  # the softmax's argmax


def test_skipgram_single_token_vocab_trivial_softmax():
    emb = train_left_skipgram([[0, 0, 0, 0]], gamma=2, dim=2, epochs=3, seed=1)
    assert emb.epoch_losses == [0.0, 0.0, 0.0]  # single class: P = 1, so -log P = 0
    assert emb.vectors.shape == (1, 2)


def test_skipgram_seed_determinism():
    corpus = [[1, 2, 3, 4, 2, 3] * 3]
    a = train_left_skipgram(corpus, gamma=2, dim=4, epochs=5, seed=9)
    b = train_left_skipgram(corpus, gamma=2, dim=4, epochs=5, seed=9)
    assert np.array_equal(a.vectors, b.vectors)
    assert a.epoch_losses == b.epoch_losses


def test_skipgram_loss_mostly_non_increasing():
    corpus = [[1, 2, 2, 3, 4, 2, 2, 3] * 4]
    emb = train_left_skipgram(corpus, gamma=2, dim=8, epochs=20, learning_rate=0.1, seed=3)
    losses = emb.epoch_losses
    upticks = sum(1 for a, b in zip(losses, losses[1:]) if b > a + 1e-6)
    assert upticks <= max(1, int(0.1 * (len(losses) - 1)))


def test_skipgram_vocab_limit():
    with pytest.raises(VocabTooLarge):
        train_left_skipgram([[5999]], gamma=1, dim=2, vocab_size=6000)


def test_cosine_hand_values():
    assert cosine_similarity(np.array([2.0, 1.0]), np.array([2.0, 1.0])) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-9)
    mean = np.array([1.0, 0.0]) * 0.5 + np.array([0.0, 1.0]) * 0.5
    assert cosine_similarity(mean, np.array([1.0, 0.0])) == pytest.approx(0.70710678, abs=1e-8)


def test_cosine_zero_vector():
    with pytest.raises(ZeroVector):
        cosine_similarity(np.zeros(3), np.ones(3))


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=5),
    st.floats(0.1, 7.0),
    st.floats(0.1, 7.0),
)
@example(vals=[0.0, 2.7607288587194162e-160], lam=2.0, mu=1.0)  # squared norm is subnormal
def test_cosine_symmetric_and_scale_invariant(vals, lam, mu):
    a = np.array(vals)
    b = a[::-1] + 0.25
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return
    assert cosine_similarity(a, b) == pytest.approx(cosine_similarity(b, a), abs=1e-9)
    assert cosine_similarity(lam * a, mu * b) == pytest.approx(cosine_similarity(a, b), abs=1e-7)


def test_mean_cs_single_pair():
    emb = train_left_skipgram([[1, 1, 2]], gamma=2, dim=4, epochs=2, seed=0, vocab_size=3)
    want = cosine_similarity(context_vector(emb, [1, 1]), emb.vectors[2])
    assert mean_cs([[1, 1, 2]], emb) == pytest.approx(want)


def test_mean_cs_repeated_symbol_is_one():
    emb = train_left_skipgram([[3, 3, 3, 3, 3]], gamma=2, dim=4, epochs=2, seed=0, vocab_size=4)
    assert mean_cs([[3, 3, 3, 3, 3]], emb) == pytest.approx(1.0)


def planted_corpus(rng, clusters=4, members=6, n_seq=12, runs=14):
    """Cluster-run sequences: the next token stays in the cluster the last
    few tokens came from, so left contexts carry real predictive signal."""
    seqs = []
    for _ in range(n_seq):
        seq = []
        for _ in range(runs):
            c = int(rng.integers(0, clusters))
            length = int(rng.integers(5, 10))
            seq += [c * members + int(x) for x in rng.integers(0, members, size=length)]
        seqs.append(seq)
    return seqs


def test_planted_left_dependence_beats_permutation():
    rng = np.random.default_rng(17)
    corpus = planted_corpus(rng)
    emb = train_left_skipgram(corpus, gamma=3, dim=12, epochs=8, learning_rate=0.2, seed=17)
    observed = mean_cs(corpus, emb)
    mu, sd = permutation_baseline(corpus, emb, n_permutations=10, seed=17)
    assert observed > mu + 3 * sd


def test_cs_study_retrains_per_gamma():
    corpus = [[1, 2, 3, 4, 1, 2, 3, 4] * 2]
    points = cs_study(corpus, [1, 2], dim=4, epochs=2, seed=0)
    assert [g for g, _ in points] == [1, 2]
