import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import copyspec.lm
from copyspec.corpus import Vocabulary, ingest, load_transcripts
from copyspec.engine import EngineConfig, run_corpus
from copyspec.lm import (
    InvalidToken,
    KgramLM,
    TableLM,
    TruncateBeyondState,
    _count,
    train_kgram,
)

from oracles import greedy_reference, naive_kgram_argmax, random_kgram_lm, random_table_lm, table_argmax

EOT = 0  # the end-of-text id of the passes below; a pass with nothing proposed never reads it


def scores(model, seq):
    """The argmax after each token of ``seq``, appending each in a pass of one token."""
    return [model.score_block(tok, [], EOT)[0] for tok in seq]


def next_argmax(model):
    """Argmax after the model's cached prefix, read from its tables."""
    return table_argmax(model, model.state)


def dumped_counts(model, o):
    """The order-``o`` grams of the model's dump, with their counts."""
    _, contexts = model.to_dict()["counts"][o]  # the dump lists orders 0..order in turn
    return {(*ctx, tok): c for ctx, hist in contexts for tok, c in hist}


def test_table_read_after_known_context():
    model = TableLM(vocab_size=10, order=2, table={(1, 2): 3}, fallback=0)
    assert scores(model, [1]) == [0]  # short prefix falls back
    read = scores(model, [2, 0])
    assert read[0] == 3  # argmax after [1, 2] is the table entry
    assert read[1] == 0  # (2, 0) is not listed


def test_kgram_counts_by_hand():
    # corpus [1,2,3,1,2,3], k=2: context (1,2) is always followed by 3
    model = train_kgram([[1, 2, 3, 1, 2, 3]], k=2)
    model.feed([1, 2])
    assert next_argmax(model) == 3
    # independent hand count of the same corpus
    count = sum(
        1
        for j in range(2, 6)
        if [1, 2, 3, 1, 2, 3][j - 2:j] == [1, 2] and [1, 2, 3, 1, 2, 3][j] == 3
    )
    assert count == 2


def test_score_block_purity_after_truncate():
    model = train_kgram([[1, 2, 3, 4, 1, 2, 3, 4, 0]], k=3)
    model.feed([1, 2])
    n = model.state_len
    first = scores(model, [3, 4, 1])
    model.truncate(n)
    assert scores(model, [3, 4, 1]) == first


def test_truncate_noop_and_errors():
    model = TableLM(vocab_size=4, order=1, table={}, fallback=1)
    model.feed([1, 2, 3])
    model.truncate(3)
    assert model.state == (1, 2, 3)
    with pytest.raises(TruncateBeyondState):
        model.truncate(4)
    with pytest.raises(TruncateBeyondState):
        model.truncate(-1)


def test_truncate_to_zero_equals_fresh():
    model = train_kgram([[1, 2, 1, 2, 3, 0]], k=2)
    fresh_scores = scores(model.spawn(), [1, 2, 1])
    model.feed([3, 2, 1])
    model.truncate(0)
    assert scores(model, [1, 2, 1]) == fresh_scores


def test_truncate_then_append_matches_fresh_model():
    # append [1,2,3,4], truncate(2), append [9]: scoring matches fresh [1,2,9]
    model = train_kgram([[1, 2, 9, 5, 1, 2, 3, 4, 0]], k=3, vocab_size=10)
    model.feed([1, 2, 3, 4])
    model.truncate(2)
    assert model.score_block(9, [], EOT) == [table_argmax(model, [1, 2, 9])]


def test_train_kgram_hand_counts():
    model = train_kgram([[1, 2, 1, 2, 1]], k=1)
    model.feed([1])
    assert next_argmax(model) == 2
    assert dumped_counts(model, 1) == {(1, 2): 2, (2, 1): 2}
    # after 1: 2 twice, 3 once
    model = train_kgram([[1, 2, 1, 3, 1, 2, 0]], k=1)
    assert {gram: c for gram, c in dumped_counts(model, 1).items() if gram[0] == 1} == {(1, 2): 2, (1, 3): 1}
    assert scores(model.spawn(), [1]) == [2]


def test_train_kgram_backoff_single_symbol():
    model = train_kgram([[7]], k=2, vocab_size=8)
    model.feed([3])
    assert next_argmax(model) == 7  # no higher-order context: unigram backoff


def test_train_kgram_deterministic():
    corpus = [[1, 2, 3, 2, 1, 0], [2, 3, 1, 0]]
    a = train_kgram(corpus, k=2)
    b = train_kgram(corpus, k=2)
    assert a.to_dict() == b.to_dict()
    for ctx in [[1], [2], [1, 2], [3, 2], [0, 0]]:
        assert scores(a.spawn(), ctx) == scores(b.spawn(), ctx)


def test_tie_break_smallest_id():
    model = train_kgram([[1, 5, 1, 3, 1, 4, 1, 3, 1, 4]], k=1)
    # after 1: counts {5:1, 3:2, 4:2} -> tie between 3 and 4 at count 2
    model.feed([1])
    assert next_argmax(model) == 3


def test_score_block_length_and_validation():
    # every argmax is 2: a proposal of 2s is accepted whole, plus the bonus,
    # and an empty proposal is one pass of one token
    model = TableLM(vocab_size=5, order=1, table={}, fallback=2)
    assert len(model.score_block(1, [2, 2, 2], EOT)) == 4
    assert model.score_block(1, [], EOT) == [2]
    for pending, proposal in ((5, []), (-1, []), (1, [5]), (1, [2, -1])):
        with pytest.raises(InvalidToken):
            model.score_block(pending, proposal, EOT)


@pytest.mark.parametrize(
    "model",
    [
        train_kgram([[1, 2, 3, 1, 2, 0]], k=2, vocab_size=6),
        TableLM(vocab_size=6, order=2, table={(1, 2): 3}, fallback=1),
    ],
    ids=["kgram", "table"],
)
def test_rejected_block_changes_nothing(model):
    model.feed([1, 2])
    model.score_block(3, [], EOT)
    before = (model.state, model.blocks_scored, model.tokens_scored)
    with pytest.raises(InvalidToken):
        model.score_block(1, [99, 2], EOT)
    assert (model.state, model.blocks_scored, model.tokens_scored) == before
    # later scoring continues from the prefix before the rejected pass
    assert scores(model, [1, 2]) == [table_argmax(model, [1, 2, 3, 1]), table_argmax(model, [1, 2, 3, 1, 2])]


def test_continuation_past_the_vocabulary_changes_nothing():
    # 1 -> 2 -> 9: the third pass of decode(1) would append 9
    model = TableLM(vocab_size=4, order=1, table={(1,): 2, (2,): 9}, fallback=1)
    model.score_block(3, [], EOT)
    tokens = model.decode(1)
    assert [next(tokens), next(tokens)] == [2, 9]  # the last argmax is not appended
    before = (model.state, model.blocks_scored, model.tokens_scored)
    assert before == ((3, 1, 2), 3, 3)
    with pytest.raises(InvalidToken):
        next(tokens)
    assert (model.state, model.blocks_scored, model.tokens_scored) == before


def test_counters():
    model = TableLM(vocab_size=5, order=1, table={}, fallback=2)
    model.score_block(1, [2], EOT)
    model.score_block(3, [], EOT)
    assert model.blocks_scored == 2 and model.tokens_scored == 3


def test_random_interleavings_match_fresh_model():
    # prefix purity under random verification/truncate interleavings
    rng = np.random.default_rng(11)
    for case in range(100):
        model = random_table_lm(rng, 12) if case % 2 else random_kgram_lm(rng, 12)
        for _ in range(int(rng.integers(2, 10))):
            if model.state_len and rng.random() < 0.4:
                model.truncate(int(rng.integers(0, model.state_len + 1)))
            else:
                block = [int(x) for x in rng.integers(0, 12, size=int(rng.integers(1, 6)))]
                model.score_block(block[0], block[1:], EOT)
        block = [int(x) for x in rng.integers(0, 12, size=int(rng.integers(1, 6)))]
        model.feed(block[:-1])
        assert model.score_block(block[-1], [], EOT)[-1] == table_argmax(model, model.state)


def test_untrained_model_dumps_every_order(tmp_path):
    # a dump lists orders 0..order, each once, which loading requires
    model = KgramLM(2, {}, 4)
    assert model.to_dict()["counts"] == [[0, []], [1, []], [2, []]]
    model.save(tmp_path / "model.json")
    loaded, symbols = KgramLM.load(tmp_path / "model.json")
    assert (loaded.order, loaded.counts, symbols) == (2, {0: {}, 1: {}, 2: {}}, None)


def test_persistence_round_trip(tmp_path):
    corpus = [[1, 2, 3, 1, 2, 0]]
    model = train_kgram(corpus, k=2, vocab_size=6)
    path = tmp_path / "model.json"
    model.save(path, vocab_symbols=["<eot>", "a", "b", "c"])
    loaded, symbols = KgramLM.load(path)
    assert symbols == ["<eot>", "a", "b", "c"]
    assert loaded.order == model.order and loaded.vocab_size == model.vocab_size
    # a loaded dump keeps its counts, the ones the trained model counts for its dump
    assert loaded.counts == {o: _count(corpus, o) for o in range(3)}
    assert loaded.to_dict() == model.to_dict()
    with pytest.raises(ValueError):
        KgramLM.from_dict({"format": "other"})


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    corpus=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=24), min_size=1, max_size=4),
    probes=st.lists(st.lists(st.integers(0, 5), min_size=1, max_size=12), max_size=3),
    order=st.integers(1, 5),
    extra=st.integers(0, 3),
)
def test_kgram_view_of_shared_counts_equals_separate_training(corpus, probes, order, extra):
    # tables built for a higher order, read at ``order``, and counts dumped
    # at a higher order, loaded at ``order``, score every prefix as a model
    # trained at ``order`` alone; one spawn of each is reused throughout
    full = train_kgram(corpus, order + extra, vocab_size=6)
    full.resolve(range(order + extra + 1))
    views = [full.view(order).spawn(), KgramLM(order, KgramLM.from_dict(full.to_dict()).counts, 6).spawn()]
    alone = train_kgram(corpus, order, vocab_size=6)
    for seq in corpus + probes:
        for view in views:
            view.truncate(0)
            assert scores(view, seq) == scores(alone.spawn(), seq)


def test_view_dumps_only_its_own_orders():
    seqs = [[1, 2, 3, 1, 2, 0], [2, 3, 1, 0]]
    full = train_kgram(seqs, 4, vocab_size=4)
    full.resolve(range(5))
    view = full.view(2)
    assert view.to_dict() == train_kgram(seqs, 2, vocab_size=4).to_dict()
    assert [o for o, _ in view.to_dict()["counts"]] == [0, 1, 2]


@st.composite
def small_vocab_corpus(draw):
    """A vocabulary of 3-5 ids, so count ties occur, with a corpus and probes over it."""
    vocab = draw(st.integers(3, 5))
    tokens = st.integers(0, vocab - 1)
    corpus = draw(st.lists(st.lists(tokens, max_size=20), min_size=1, max_size=4))
    probes = draw(st.lists(st.lists(tokens, min_size=1, max_size=10), max_size=3))
    return vocab, corpus, probes


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=small_vocab_corpus(), order=st.integers(1, 5), extra=st.integers(0, 3))
def test_kgram_argmax_matches_naive_scan(case, order, extra):
    # trained at ``order``, a view at ``order`` of counts and tables taken
    # at order + extra, and a saved and reloaded model all score every
    # prefix as a naive scan of the corpus does
    vocab, corpus, probes = case
    trained = train_kgram(corpus, order, vocab_size=vocab)
    full = train_kgram(corpus, order + extra, vocab_size=vocab)
    full.resolve(range(order + extra + 1))
    view = full.view(order)
    with tempfile.TemporaryDirectory() as tmp:
        trained.save(Path(tmp) / "model.json")
        loaded, _ = KgramLM.load(Path(tmp) / "model.json")
    models = [m.spawn() for m in (trained, view, loaded)]
    for seq in [s for s in corpus if s] + probes:
        expected = [naive_kgram_argmax(corpus, order, seq[:i + 1]) for i in range(len(seq))]
        assert [table_argmax(trained, seq[:i + 1]) for i in range(len(seq))] == expected
        for model in models:
            model.truncate(0)
            assert scores(model, seq) == expected


def built_orders(model):
    return [o for o, table in enumerate(model.tables) if table is not None]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(case=small_vocab_corpus(), order=st.integers(1, 5), data=st.data())
def test_lazy_resolution_equals_eager_and_naive(case, order, data):
    # a model trained with no extra order resolved, a spawn of it, a view
    # at a lower order sharing its tables, and a pickled copy of one of
    # them, probed so that first misses reach the backoff orders in a
    # random order, score every prefix as a model with every order
    # resolved up front and as a naive scan of the corpus
    vocab, corpus, probes = case
    lazy = train_kgram(corpus, order, vocab_size=vocab)
    assert built_orders(lazy) == [order]
    eager = train_kgram(corpus, order, vocab_size=vocab)
    eager.resolve(range(order + 1))
    low = data.draw(st.integers(1, order), label="view order")
    models = [lazy, lazy.spawn(), lazy.view(low)]
    pickled = data.draw(st.integers(0, 2), label="pickled")
    models[pickled] = pickle.loads(pickle.dumps(models[pickled]))
    assert all(set(built_orders(m)) == {low, order} for m in models)
    tokens = st.integers(0, vocab - 1)
    reach = data.draw(st.permutations(range(order)), label="orders in the order first reached")
    # a state of o < order tokens misses the top table and first backs off at order o
    states = [data.draw(st.lists(tokens, min_size=max(o, 1), max_size=max(o, 1))) for o in reach]
    for state in states + [s for s in corpus if s] + probes:
        for model in data.draw(st.permutations(models), label="model order"):
            fresh = eager.view(model.order)
            model.truncate(0)
            model.feed(state[:-1])
            fresh.feed(state[:-1])
            assert model.score_block(state[-1], [], EOT) == fresh.score_block(state[-1], [], EOT)
            model.truncate(0)
            fresh.truncate(0)
            expected = [naive_kgram_argmax(corpus, model.order, state[:i + 1]) for i in range(len(state))]
            assert scores(model, state) == scores(fresh, state) == expected
    # the models that share tables agree on what is built, and every built
    # table is the eager one
    shared = [m for i, m in enumerate(models) if i != pickled]
    assert all(m.tables is shared[0].tables for m in shared)
    for model in models:
        for o in built_orders(model):
            assert model.tables[o] == eager.tables[o]


def test_training_builds_only_the_models_order(monkeypatch):
    # train_kgram counts and resolves order k alone; a view builds its own
    counted = []

    def count(corpus, o):
        counted.append(o)
        return _count(corpus, o)

    monkeypatch.setattr(copyspec.lm, "_count", count)
    seqs = [[1, 2, 3, 1, 2, 0], [2, 3, 1, 0]]
    model = train_kgram(seqs, 3, vocab_size=4)
    assert built_orders(model) == [3] and sorted(counted) == [3]
    view = model.view(1)
    assert built_orders(model) == built_orders(view) == [1, 3]
    assert sorted(counted) == [1, 3]


def test_lazy_model_dumps_every_order(tmp_path):
    # ``to_dict`` counts the orders nothing has read yet before dumping
    seqs = [[1, 2, 3, 1, 2, 0], [2, 3, 1, 0]]
    lazy = train_kgram(seqs, 3, vocab_size=4)
    assert built_orders(lazy) == [3]
    eager = train_kgram(seqs, 3, vocab_size=4)
    eager.resolve(range(4))
    assert lazy.to_dict() == eager.to_dict()
    assert [o for o, _ in lazy.to_dict()["counts"]] == [0, 1, 2, 3]
    lazy.save(tmp_path / "lazy.json")
    eager.save(tmp_path / "eager.json")
    assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()
    # a loaded dump resolves only its own order at load, as training does;
    # the others resolve from the dumped counts to the eager tables
    loaded, _ = KgramLM.load(tmp_path / "lazy.json")
    assert built_orders(loaded) == [3]
    loaded.resolve(range(4))
    assert loaded.tables == eager.tables


def test_trained_models_keep_no_counts(data_dir, tmp_path):
    # after a corpus run, a trained model, its draft view and their spawns
    # keep the one list of argmax tables and the corpus, not the counts
    # behind them, and still dump what a model with every order resolved
    # does; a loaded dump keeps its counts, having no corpus to count over
    transcripts = load_transcripts(data_dir / "redundant_2turn.jsonl")
    vocab = Vocabulary()
    seqs, prompts = ingest(transcripts, vocab)
    target = train_kgram(seqs, 4, vocab_size=len(vocab))
    draft = target.view(2)
    run_corpus(transcripts, prompts, vocab, target, draft, [EngineConfig(strategy="copy_plus_specdec")])
    models = [target, draft, target.spawn(), draft.spawn()]
    assert all(m.counts == {} and m.tables is target.tables for m in models)
    eager = train_kgram(seqs, 4, vocab_size=len(vocab))
    eager.resolve(range(5))
    for model in models:
        assert model.to_dict() == eager.view(model.order).to_dict()
    target.save(tmp_path / "lm.json")
    loaded, _ = KgramLM.load(tmp_path / "lm.json")
    assert sorted(loaded.counts) == [0, 1, 2, 3, 4] and loaded.corpus is None
    assert loaded.view(2).counts is loaded.counts
    assert loaded.to_dict() == target.to_dict()


@st.composite
def small_model(draw):
    """A TableLM or KgramLM over a vocabulary of 2-6 ids."""
    vocab = draw(st.integers(2, 6))
    tokens = st.integers(0, vocab - 1)
    if draw(st.booleans()):
        order = draw(st.integers(1, 3))
        table = draw(st.dictionaries(st.tuples(*[tokens] * order), tokens, max_size=12))
        return TableLM(vocab, order, table, fallback=draw(tokens))
    corpus = draw(st.lists(st.lists(tokens, max_size=16), min_size=1, max_size=3))
    return train_kgram(corpus, draw(st.integers(1, 4)), vocab_size=vocab)


@st.composite
def model_and_ops(draw):
    """A small model and a random run of feeds, verification passes (a
    pending token, a proposal and an end-of-text id), greedy decodes (a
    pending token, which may lie outside the vocabulary, and how many
    argmaxes to read; after a feed, this is a draft proposal) and
    truncations (a truncation keeps a fraction of the cache)."""
    model = draw(small_model())
    vocab = model.vocab_size
    tokens = st.integers(0, vocab - 1)
    op = st.one_of(
        st.tuples(st.just("feed"), st.lists(tokens, max_size=8)),
        st.tuples(st.just("score"), st.tuples(tokens, st.lists(tokens, max_size=7), tokens)),
        st.tuples(st.just("decode"), st.tuples(st.integers(-1, vocab), st.integers(1, 5))),
        st.tuples(st.just("truncate"), st.floats(0, 1)),
    )
    return model, draw(st.lists(op, min_size=1, max_size=12))


def expected_pass(model, prefix, pending, proposal, eot):
    """A verification pass after ``prefix``, read from the table oracle: the
    argmaxes it returns and the tokens it leaves appended.

    The argmax after each token of ``[pending, *proposal]``, up to the
    first that differs from the next proposed token or is ``eot``."""
    block = [pending, *proposal]
    full = [table_argmax(model, prefix + block[:i + 1]) for i in range(len(block))]
    k = next((i for i in range(len(proposal)) if full[i] != proposal[i] or full[i] == eot), len(proposal))
    return full[:k + 1], block[:k + 1]


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=model_and_ops())
def test_feed_then_score_equals_fresh_model(case):
    # feeding only updates the cache: every verification pass reads as the
    # table oracle does on the same prefix, and only scoring calls are counted
    model, ops = case
    model = model.spawn()
    prefix: list[int] = []
    fed = scored_blocks = scored_tokens = 0
    for kind, arg in ops:
        if kind == "feed":
            model.feed(arg)
            prefix += arg
            fed += len(arg)
        elif kind == "score":
            pending, proposal, eot = arg
            expected, kept = expected_pass(model, prefix, pending, proposal, eot)
            assert model.score_block(pending, proposal, eot) == expected
            prefix += kept
            scored_blocks += 1
            scored_tokens += len(proposal) + 1
        elif kind == "decode":
            # each argmax read is one pass of one token; the last one read
            # stays pending, and a pending token outside the vocabulary
            # leaves its pass's cache and counters as they were
            pending, n = arg
            tokens = model.decode(pending)
            if not 0 <= pending < model.vocab_size:
                with pytest.raises(InvalidToken):
                    next(tokens)
            else:
                tok = pending
                for _ in range(n):
                    prefix.append(tok)
                    tok = next(tokens)
                    assert tok == table_argmax(model, prefix)
                    scored_blocks += 1
                    scored_tokens += 1
                    assert (model.blocks_scored, model.tokens_scored) == (scored_blocks, scored_tokens)
        else:
            keep = int(arg * len(prefix))
            model.truncate(keep)
            del prefix[keep:]
        assert model.state == tuple(prefix)
    assert (model.blocks_scored, model.tokens_scored, model.tokens_fed) == (scored_blocks, scored_tokens, fed)


def bad_token(model, past_end):
    """A negative id when ``past_end`` is None, else the id that far past the vocabulary."""
    return -1 if past_end is None else model.vocab_size + past_end


@settings(derandomize=True, deadline=None, max_examples=100)
@given(case=model_and_ops(), past_end=st.sampled_from([None, 0, 90]), at=st.integers(0, 8))
def test_feed_out_of_vocabulary_changes_nothing(case, past_end, at):
    model, ops = case
    model = model.spawn()
    for kind, arg in ops:
        if kind == "feed":
            model.feed(arg)
        elif kind == "score":
            model.score_block(*arg)
    block = [1] * 8
    block.insert(at, bad_token(model, past_end))
    before = counters(model)
    with pytest.raises(InvalidToken):
        model.feed(block)
    assert counters(model) == before


@st.composite
def verification_case(draw):
    """A small model, a prefix, a pending token and a proposal that is the
    model's greedy continuation with up to two tokens replaced, so that it
    agrees for a while and then may not; the end-of-text id is drawn from
    the vocabulary, so it also turns up inside proposals."""
    model = draw(small_model())
    tokens = st.integers(0, model.vocab_size - 1)
    prefix = draw(st.lists(tokens, max_size=10))
    pending = draw(tokens)
    n = draw(st.integers(0, 6))
    proposal = greedy_reference(model, prefix + [pending], n, eot=-1)  # no token ends it
    if n:
        for i, tok in draw(st.dictionaries(st.integers(0, n - 1), tokens, max_size=2)).items():
            proposal[i] = tok
    return model, prefix, pending, proposal, draw(tokens)


def counters(model):
    return model.state, model.blocks_scored, model.tokens_scored, model.tokens_fed


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=verification_case())
def test_verification_stops_at_the_first_disagreement(case):
    # the argmaxes of the full pass up to the first that disagrees with the
    # next proposed token or is end-of-text; only that much stays appended,
    # and the whole pass is counted
    model, prefix, pending, proposal, eot = case
    expected, kept = expected_pass(model, prefix, pending, proposal, eot)
    model = model.spawn()
    model.feed(prefix)
    assert model.score_block(pending, proposal, eot) == expected
    assert model.state == tuple(prefix + kept)
    assert (model.blocks_scored, model.tokens_scored) == (1, len(proposal) + 1)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(case=verification_case(), past_end=st.sampled_from([None, 0, 90]), data=st.data())
def test_verification_rejects_any_out_of_vocabulary_token(case, past_end, data):
    # a bad token anywhere in the pass, also after the first disagreement
    # where nothing is scored, raises and changes nothing
    model, prefix, pending, proposal, eot = case
    model = model.spawn()
    model.feed(prefix)
    model.score_block(pending, proposal, eot)
    block = [pending, *proposal]
    block[data.draw(st.integers(0, len(proposal)), label="bad position")] = bad_token(model, past_end)
    before = counters(model)
    with pytest.raises(InvalidToken):
        model.score_block(block[0], block[1:], eot)
    assert counters(model) == before


@settings(derandomize=True, deadline=None, max_examples=300)
@given(case=verification_case(), past_end=st.sampled_from([None, 0, 90]), data=st.data())
def test_verification_pass_equals_table_oracle(case, past_end, data):
    # after a prefix read one pass at a time (so the counters start above
    # zero), a pass with a bad token at any place, past the first
    # disagreement too, changes nothing; the good pass then returns the
    # oracle's argmaxes, leaves the prefix, pending and the accepted tokens
    # cached, and adds one block of len(proposal) + 1 tokens
    model, prefix, pending, proposal, eot = case
    model = model.spawn()
    scores(model, prefix)
    state, blocks, tokens, fed = before = counters(model)
    bad = [pending, *proposal]
    bad[data.draw(st.integers(0, len(proposal)), label="bad position")] = bad_token(model, past_end)
    with pytest.raises(InvalidToken):
        model.score_block(bad[0], bad[1:], eot)
    assert counters(model) == before
    expected, kept = expected_pass(model, prefix, pending, proposal, eot)
    assert model.score_block(pending, proposal, eot) == expected
    assert counters(model) == (tuple(prefix + kept), blocks + 1, tokens + len(proposal) + 1, fed)
