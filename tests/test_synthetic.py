from copyspec.corpus import Vocabulary, detokenize, save_transcripts, training_sequences
from copyspec.engine import EngineConfig, run_transcript
from copyspec.lm import train_kgram
from copyspec.synthetic import (
    CATEGORIES,
    CORPUS_SEED,
    corpus_filename,
    default_corpora,
    make_redundant_corpus,
)


def test_shipped_files_match_regeneration(data_dir, tmp_path):
    # the checked-in corpora are exactly what the documented seed produces
    for name, transcripts in default_corpora(seed=CORPUS_SEED).items():
        regenerated = tmp_path / corpus_filename(name)
        save_transcripts(regenerated, transcripts)
        shipped = data_dir / corpus_filename(name)
        assert shipped.read_bytes() == regenerated.read_bytes(), name


def test_corpora_shape():
    corpora = default_corpora(n=50)
    for name, transcripts in corpora.items():
        assert len(transcripts) >= 50, name
        assert {t.category for t in transcripts} == set(CATEGORIES)
        for t in transcripts:
            roles = [turn.role for turn in t.turns]
            assert roles[0] == "user"
            assert all(a != b for a, b in zip(roles, roles[1:]))
    assert len({t.id for ts in corpora.values() for t in ts}) == 3 * 50


def test_turn_counts():
    corpora = default_corpora(n=8)
    assert all(len(t.user_turns()) == 2 for t in corpora["redundant-2turn"])
    assert all(len(t.user_turns()) == 2 for t in corpora["novel-2turn"])
    assert all(len(t.user_turns()) == 3 for t in corpora["selfcorrect-3turn"])


def test_generation_replays_references():
    # the order-4 chain over each transcript is unambiguous by construction,
    # so greedy decoding reproduces the reference answers verbatim
    corpus = make_redundant_corpus(n=8)
    vocab = Vocabulary()
    seqs = training_sequences(corpus, vocab)
    target = train_kgram(seqs, 4, vocab_size=len(vocab))
    for t in corpus:
        results = run_transcript(t, vocab, target.spawn(), None, EngineConfig(strategy="baseline"))
        refs = [turn.text for turn in t.turns if turn.role == "assistant"]
        outs = [detokenize(r.output, vocab) for r in results]
        assert outs == refs, t.id


def test_second_turn_overlaps_first():
    for t in make_redundant_corpus(n=6):
        first = t.turns[1].text.split()
        second = t.turns[3].text.split()
        overlap = len([w for w in second if w in set(first)])
        assert overlap / len(second) > 0.5


def test_determinism_across_calls():
    assert make_redundant_corpus(n=5) == make_redundant_corpus(n=5)
    assert make_redundant_corpus(n=5, seed=1) != make_redundant_corpus(n=5, seed=2)
