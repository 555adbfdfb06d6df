import gc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copyspec.corpus import EOT_ID, Transcript, Turn, Vocabulary, tokenize, turn_prefix_tokens
from copyspec.engine import (
    PLAIN_RECORDS,
    STRATEGIES,
    AttemptOutcome,
    BudgetExhausted,
    EngineConfig,
    Session,
    generate,
    run_transcript,
)
from copyspec.lm import LangModel, TableLM
from copyspec.match_index import MatchIndex
from copyspec.metrics import CostModel, score_log

from oracles import (
    greedy_reference,
    naive_first_positions,
    naive_match_scan,
    random_kgram_lm,
    random_table_lm,
    table_argmax,
)


def chain_table(words, vocab_size, order=2, fallback=0):
    """TableLM whose greedy output walks the given chain token by token."""
    table = {}
    for j in range(order, len(words)):
        table[tuple(words[j - order:j])] = words[j]
    return TableLM(vocab_size, order, table, fallback)


def test_baseline_one_attempt_per_token():
    model = chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=8)
    out, log = generate([1, 2], model, config=EngineConfig(strategy="baseline", max_new_tokens=5))
    assert out == [3, 4, 5, 6, 7]
    assert len(log) == 5 and all(o.source == "plain" for o in log)


def test_strategies_match_baseline_on_cyclic_model():
    # a cyclic table model: heavy self-repetition exercises every path
    cycle = [3, 4, 5, 6, 3, 4, 5, 6, 3, 4]
    target = chain_table(cycle, vocab_size=8)
    draft = TableLM(8, 1, {(3,): 4, (4,): 5, (5,): 6, (6,): 3}, fallback=1)
    ref, _ = generate([3, 4], target.spawn(), config=EngineConfig(strategy="baseline", max_new_tokens=40))
    for strategy in ("copy", "specdec", "copy_plus_specdec"):
        out, _ = generate(
            [3, 4],
            target.spawn(),
            draft.spawn(),
            EngineConfig(strategy=strategy, max_new_tokens=40),
        )
        assert out == ref, strategy


def test_copy_attempt_fires_on_prompt_repeat():
    # prompt contains "p q r s t"; generation reproduces "p q r" and the
    # engine proposes the tokens that followed the earlier occurrence
    vocab = Vocabulary()
    prompt_words = "a p q r s t b c p q r".split()
    prompt = tokenize(" ".join(prompt_words), vocab)
    p, q, r, s, t = (vocab.id_of(w) for w in "pqrst")
    target = chain_table(prompt + [s, t, EOT_ID], vocab_size=len(vocab), order=3)
    out, log = generate(prompt, target, config=EngineConfig(strategy="copy", gamma=3))
    assert out == [s, t]
    copy_attempts = [o for o in log if o.source == "copy"]
    assert copy_attempts, "a copy opportunity should have been taken"
    assert copy_attempts[0].accepted_k >= 1


def test_merge_falls_back_to_draft_without_match():
    target = chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=9)
    draft = chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=9)
    out, log = generate(
        [1, 2], target, draft, EngineConfig(strategy="copy_plus_specdec", draft_len=3, max_new_tokens=5)
    )
    assert out == [3, 4, 5, 6, 7]
    assert log[0].source == "draft" and log[0].proposed == 3


def test_draft_proposal_conditions_on_own_tokens():
    # the draft's greedy chain is 1 -> 2 -> 3 -> 4, one token of context at a time
    table = {(1,): 2, (2,): 3, (3,): 4}
    target = TableLM(vocab_size=6, order=1, table=table, fallback=1)
    draft = TableLM(vocab_size=6, order=1, table=table, fallback=5)
    calls = []  # a proposal makes at most one feed and exactly one decode call
    for name in ("feed", "decode"):
        method = getattr(draft, name)
        setattr(draft, name, lambda *a, _m=method, _n=name: calls.append(_n) or _m(*a))
    session = Session(target, draft, EngineConfig(strategy="specdec", draft_len=3))
    session.extend_context([5, 1])
    calls.clear()
    outcome = session.step(10)
    assert (outcome.source, outcome.proposed, outcome.accepted_k, session.context[-1]) == ("draft", 3, 3, 1)
    assert draft.state == (5, 1, 2, 3)  # the last drafted token is not appended
    assert draft.blocks_scored == draft.tokens_scored == 3  # one pass counted per drafted token
    assert calls == ["decode"]
    # catching up on unseen context feeds all of it but the pending token unscored
    draft.truncate(1)
    calls.clear()
    outcome = session.step(10)
    assert (outcome.proposed, outcome.accepted_k) == (3, 3)
    assert session.context == [5, 1, 2, 3, 4, 1, 2, 3, 4, 1]
    assert draft.state == (5, 1, 2, 3, 4, 1, 2, 3) and draft.tokens_fed == 5
    assert draft.blocks_scored == draft.tokens_scored == 6
    assert calls == ["feed", "decode"]


def test_specdec_without_draft_degrades_to_plain():
    target = chain_table([1, 2, 3, 4], vocab_size=5)
    out, log = generate([1, 2], target, None, EngineConfig(strategy="specdec", max_new_tokens=2))
    assert out == [3, 4] and all(o.source == "plain" for o in log)


def test_verify_block_partial_accept_and_divergence():
    session = Session(chain_table([1, 2, 3, 4, 5], vocab_size=10), None, EngineConfig())
    session.extend_context([1, 2])
    k = session.verify_block([3, 4, 9, 9])
    assert k == 2
    bonus = session.context[-1]
    assert bonus == 5 and bonus != 9  # diverges from first reject
    assert session.context == [1, 2, 3, 4, 5]
    # the rejected tokens are rolled back and the bonus stays pending
    assert session.target.state == (1, 2, 3, 4)


def test_verify_block_full_accept_bonus_from_same_pass():
    # greedy continuation of the prompt starts [4,1,2,3]; proposing exactly
    # that prefix accepts everything, and the bonus is greedy's next token,
    # read from the one verification pass
    chain = [9, 1, 2, 4, 1, 2, 3, 7, 8]
    target = chain_table(chain, vocab_size=10, order=3)
    reference = greedy_reference(target, [9, 1, 2], 6)
    assert reference[:4] == [4, 1, 2, 3]
    session = Session(target.spawn(), None, EngineConfig())
    session.extend_context([9, 1, 2])
    k = session.verify_block([4, 1, 2, 3])
    # the prompt is fed unscored, all but its pending newest token; the one
    # scored pass covers the pending token and the proposal
    assert session.target.tokens_fed == 2
    assert (session.target.blocks_scored, session.target.tokens_scored) == (1, 5)
    assert k == 4
    assert session.context[-1] == reference[4]  # the bonus
    assert session.context == [9, 1, 2] + reference[:5]


def test_immediate_eot_gives_empty_output_one_attempt():
    target = TableLM(vocab_size=4, order=1, table={(2,): EOT_ID}, fallback=1)
    session = Session(target, None, EngineConfig(strategy="baseline"))
    session.extend_context([2])
    out, log = session.run()
    assert out == [] and len(log) == 1 and session.context[-1] == EOT_ID


def test_eot_accepted_inside_proposal_reclassified_as_bonus():
    # the chain ends in <eot>; a copy proposal spanning it must terminate
    # cleanly with the end marker as the bonus, not as a copied token
    words = [5, 6, 7, 5, 6, 7, EOT_ID]
    target = chain_table(words, vocab_size=8, order=3)
    session = Session(target, None, EngineConfig())
    session.extend_context([5, 6, 7, 5, 6])
    k = session.verify_block([7, EOT_ID, 5, 5])
    assert k == 1  # only the ordinary token counts as copied
    assert session.context == [5, 6, 7, 5, 6, 7, EOT_ID]  # the bonus, which ends the output


def test_budget_is_exact_and_step_raises_when_spent():
    target = chain_table(list(range(1, 9)) + list(range(1, 9)), vocab_size=9)
    out, log = generate([1, 2], target, config=EngineConfig(strategy="copy", max_new_tokens=7))
    assert len(out) == 7
    session = Session(target.spawn(), None, EngineConfig())
    session.extend_context([1, 2])
    with pytest.raises(BudgetExhausted):
        session.step(0)


def test_progress_and_accounting_invariants():
    rng = np.random.default_rng(5)
    for case in range(30):
        target = random_table_lm(rng, 16) if case % 2 else random_kgram_lm(rng, 16)
        draft = random_table_lm(rng, 16)
        prompt = [int(x) for x in rng.integers(1, 16, size=int(rng.integers(2, 20)))]
        config = EngineConfig(
            strategy=("copy", "specdec", "copy_plus_specdec")[case % 3],
            gamma=int(rng.integers(1, 5)),
            chunk_len=int(rng.integers(1, 12)),
            draft_len=int(rng.integers(1, 5)),
            max_new_tokens=int(rng.integers(1, 60)),
        )
        session = Session(target.spawn(), draft.spawn(), config)
        session.extend_context(prompt)
        before = len(session.context)
        out, log = session.run()
        committed = len(session.context) - before
        assert committed == sum(o.accepted_k + 1 for o in log)
        assert len(out) == committed - (1 if log and session.context[-1] == EOT_ID else 0)
        for o in log:
            assert o.accepted_k + 1 >= 1
            assert 0 <= o.accepted_k <= max(o.proposed, 0)
        assert_cache_invariants(session)


def test_rollback_equivalence_replay():
    # truncate-to-zero-and-replay on the target reproduces the same argmax
    target = random_kgram_lm(np.random.default_rng(9), 12)
    session = Session(target, None, EngineConfig(strategy="copy", max_new_tokens=20))
    session.extend_context([1, 2, 3])
    session.run()
    assert session.target.state == tuple(session.context[:-1])
    live = session.target.score_block(session.context[-1], [], EOT_ID)  # the pending token
    session.target.truncate(0)
    session.target.feed(session.context[:-1])
    assert session.target.score_block(session.context[-1], [], EOT_ID) == live
    assert live == [table_argmax(session.target, session.context)]


def test_generate_requires_prompt():
    with pytest.raises(ValueError):
        generate([], TableLM(2, 1, {}, 0))
    with pytest.raises(ValueError):  # an empty prefix has no after-position score
        Session(TableLM(2, 1, {}, 0), None, EngineConfig()).step(1)


def assert_cache_invariants(session):
    """The target holds everything but the pending newest token; the
    draft (kept only when drafting) holds some prefix of the context."""
    assert session.target.state == tuple(session.context[:-1])
    assert_draft_prefix(session)


def assert_draft_prefix(session):
    """A drafting session's draft holds a prefix of the context; any other
    session keeps no draft, even when one was handed in."""
    if not session.config.allows_draft:
        assert session.draft is None
    else:
        assert session.draft.state == tuple(session.context[: session.draft.state_len])


def assert_copy_lengths(session, start, budget, log):
    """Each attempt copies exactly when the naive scan finds a match and
    there is room for a proposal, and it proposes the tokens after the
    match, cut at the chunk length, the budget and the context end."""
    gamma = session.config.gamma
    t = start  # context length before the attempt
    for o in log:
        room = budget - (t - start) - 1
        p = naive_match_scan(session.context[:t], gamma) if session.index is not None else None
        assert (o.source == "copy") == (p is not None and room >= 1)
        if o.source == "copy":
            assert o.proposed == min(session.config.chunk_len, room, t - (p - 1 + gamma))
        t += o.accepted_k + 1


def model_calls(session):
    draft_calls = session.draft.blocks_scored if session.draft is not None else 0
    return session.target.blocks_scored, session.target.tokens_scored, draft_calls


def assert_run_accounting(before, after, log):
    """The calls one run made are what the cost model charges for its log.

    One target pass over the pending token plus the proposal per attempt,
    and one draft call per drafted token; copy and plain attempts never
    call the draft.
    """
    target_calls, target_tokens, draft_calls = (a - b for a, b in zip(after, before))
    assert target_calls == len(log)
    assert target_tokens == sum(o.proposed + 1 for o in log)
    assert draft_calls == sum(o.proposed for o in log if o.source == "draft")


def test_model_calls_match_cost_model(redundant_setup, monkeypatch):
    corpus, vocab, target, draft = redundant_setup
    prompts, runs = [], []
    extend_context, run = Session.extend_context, Session.run

    def counted_extend_context(self, tokens):
        prompts.append(len(tokens))
        extend_context(self, tokens)

    def counted_run(self, *args):
        before = model_calls(self)
        output, log = run(self, *args)
        runs.append((before, model_calls(self), log))
        return output, log

    monkeypatch.setattr(Session, "extend_context", counted_extend_context)
    monkeypatch.setattr(Session, "run", counted_run)
    for strategy in STRATEGIES:
        for transcript in corpus:
            prompts.clear()
            runs.clear()
            t, d = target.spawn(), draft.spawn()
            run_transcript(transcript, vocab, t, d, EngineConfig(strategy=strategy))
            for before, after, log in runs:
                assert_run_accounting(before, after, log)
            attempts = [o for _, _, log in runs for o in log]
            # scoring is exactly what the cost model charges: one target
            # pass per attempt and one draft token per call; prompts are fed
            # unscored, all but the first prompt's newest token, which is
            # still pending when generation starts
            assert t.blocks_scored == len(attempts)
            assert t.tokens_scored == sum(o.proposed + 1 for o in attempts)
            assert t.tokens_fed == sum(prompts) - 1
            drafted = sum(o.proposed for o in attempts if o.source == "draft")
            assert d.blocks_scored == d.tokens_scored == drafted


def test_non_copy_strategies_never_touch_the_index(redundant_setup, monkeypatch):
    corpus, vocab, target, draft = redundant_setup
    calls = {"extend": 0, "lookup": 0}
    for name in calls:
        method = getattr(MatchIndex, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(MatchIndex, name, counted)
    logs = []  # each turn's attempt log, as Session.run returns it
    session_run = Session.run

    def logged_run(self):
        output, log = session_run(self)
        logs.append(log)
        return output, log

    monkeypatch.setattr(Session, "run", logged_run)
    budget = EngineConfig().max_new_tokens
    for strategy in ("baseline", "specdec", "copy"):
        for transcript in corpus:
            for name in calls:
                calls[name] = 0
            logs.clear()
            results = run_transcript(
                transcript, vocab, target.spawn(), draft.spawn(), EngineConfig(strategy=strategy)
            )
            assert len(logs) == len(results)
            if strategy == "copy":  # the counters do see a copying session
                assert calls["extend"] > 0 and calls["lookup"] > 0
                continue
            assert calls == {"extend": 0, "lookup": 0}, strategy
            context: list[int] = []
            for turn, result, log in zip(transcript.user_turns(), results, logs):
                assert result.metrics == score_log(log)
                # no index, so no index work is charged at any index cost
                assert all(o.index_ops == 0 for o in log)
                costly = score_log(log, CostModel(index_op_cost=0.5))
                assert costly.sim_time == score_log(log, CostModel()).sim_time
                context += turn_prefix_tokens(turn.text, vocab)
                assert result.output == greedy_reference(target, context, budget)
                context += result.output
                if len(result.output) < budget:
                    context.append(EOT_ID)  # the end-of-text sentinel stays in the context


def test_run_transcript_keeps_no_attempt_records(redundant_setup):
    # a long session's results must not hold every earlier attempt's record
    corpus, vocab, target, draft = redundant_setup

    def live_records():
        gc.collect()
        return sum(isinstance(obj, AttemptOutcome) for obj in gc.get_objects())

    transcript = max(corpus, key=lambda t: len(t.user_turns()))
    assert len(transcript.user_turns()) > 1
    before = live_records()
    for strategy in STRATEGIES:
        results = run_transcript(
            transcript, vocab, target.spawn(), draft.spawn(), EngineConfig(strategy=strategy)
        )
        assert sum(r.metrics.tokens_out for r in results) > len(results)
        assert live_records() == before, strategy


def fresh_plain_records():
    return tuple(AttemptOutcome("plain", 0, 0, ops) for ops in range(3))


def test_shared_plain_records_stay_as_built(redundant_setup):
    # every plain step yields one of these records,
    # so no strategy's run, nor the scoring of its log, may change them
    corpus, vocab, target, draft = redundant_setup
    assert PLAIN_RECORDS == fresh_plain_records()
    for strategy in STRATEGIES:
        for transcript in corpus[:3]:
            results = run_transcript(
                transcript, vocab, target.spawn(), draft.spawn(), EngineConfig(strategy=strategy)
            )
            assert all(r.metrics.tokens_out > 0 for r in results)
            assert PLAIN_RECORDS == fresh_plain_records(), strategy


def test_plain_steps_share_prebuilt_records(redundant_setup):
    # a plain step allocates no record, the run's last included: an
    # end-of-text or a spent budget shares one too
    corpus, vocab, target, draft = redundant_setup
    for strategy in ("baseline", "copy"):
        shared = last = 0
        for transcript in corpus[:3]:
            session = Session(target.spawn(), draft.spawn(), EngineConfig(strategy=strategy))
            for turn in transcript.user_turns():
                session.extend_context(turn_prefix_tokens(turn.text, vocab))
                _, log = session.run()
                for o in log:
                    if o.source == "plain":
                        assert any(o is record for record in PLAIN_RECORDS), (strategy, o)
                        shared += 1
                last += log[-1].source == "plain"
        assert shared > 0 and last > 0, strategy
    # a context shorter than 2 * gamma is indexed but not looked up
    session = Session(chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=8), None, EngineConfig())
    session.extend_context([1, 2])
    _, log = session.run()
    assert [o.index_ops for o in log] == [1, 1, 1, 1, 2, 2] and session.context[-1] == EOT_ID
    assert all(o is PLAIN_RECORDS[o.index_ops] for o in log)


def make_repeat_transcript():
    """Two turns; the second answer repeats the first verbatim."""
    vocab = Vocabulary()
    words = "w1 w2 w3 w4 w5 w6".split()
    ids = [vocab.add(w) for w in words]
    u1 = tokenize("ask about topic", vocab)
    u2 = tokenize("repeat it please", vocab)
    vocab.add("<user>")
    a_tag = vocab.add("<assistant>")
    table = {}
    table[(u1[-1], a_tag)] = ids[0]
    table[(u2[-1], a_tag)] = ids[0]
    table[(a_tag, ids[0])] = ids[1]
    for j in range(2, len(ids)):
        table[(ids[j - 2], ids[j - 1])] = ids[j]
    table[(ids[-2], ids[-1])] = EOT_ID
    target = TableLM(len(vocab), 2, table, fallback=EOT_ID)
    transcript = Transcript(
        "rep",
        "demo",
        (
            Turn("user", "ask about topic"),
            Turn("assistant", " ".join(words)),  # reference; ignored by generation
            Turn("user", "repeat it please"),
        ),
    )
    return transcript, vocab, target


def test_run_transcript_second_turn_copies():
    transcript, vocab, target = make_repeat_transcript()
    results = run_transcript(transcript, vocab, target, None, EngineConfig(strategy="copy"))
    assert len(results) == 2
    assert results[0].output == results[1].output
    assert results[0].metrics.pct_copied == 0.0
    assert results[1].metrics.pct_copied > 0.5


def test_run_transcript_single_turn_equals_generate():
    transcript, vocab, target = make_repeat_transcript()
    single = Transcript("one", "demo", (Turn("user", "ask about topic"),))
    results = run_transcript(single, vocab, target.spawn(), None, EngineConfig(strategy="copy"))
    from copyspec.corpus import turn_prefix_tokens

    prompt = turn_prefix_tokens("ask about topic", vocab)
    out, _ = generate(prompt, target.spawn(), config=EngineConfig(strategy="copy"))
    assert results[0].output == out


def test_run_transcript_three_turns_monotone_context():
    vocab = Vocabulary()
    target = TableLM(vocab_size=4096, order=2, table={}, fallback=EOT_ID)
    transcript = Transcript(
        "t3",
        "demo",
        (
            Turn("user", "one point"),
            Turn("assistant", "ref a"),
            Turn("user", "two points"),
            Turn("assistant", "ref b"),
            Turn("user", "three points"),
        ),
    )
    results = run_transcript(transcript, vocab, target, None, EngineConfig(strategy="copy"))
    assert len(results) == 3
    assert [r.turn for r in results] == [1, 2, 3]


def test_losslessness_randomized_sample():
    rng = np.random.default_rng(123)
    for case in range(60):
        vocab_size = int(rng.integers(4, 33))
        target = random_table_lm(rng, vocab_size) if case % 2 else random_kgram_lm(rng, vocab_size)
        draft = random_table_lm(rng, vocab_size)
        prompt = [int(x) for x in rng.integers(1, vocab_size, size=int(rng.integers(1, 30)))]
        budget = int(rng.integers(1, 80))
        ref = greedy_reference(target, prompt, budget)
        for strategy in ("copy", "specdec", "copy_plus_specdec"):
            config = EngineConfig(
                strategy=strategy,
                gamma=int(rng.integers(1, 5)),
                chunk_len=int(rng.integers(1, 12)),
                draft_len=int(rng.integers(1, 6)),
                max_new_tokens=budget,
            )
            out, _ = generate(prompt, target.spawn(), draft.spawn(), config)
            assert out == ref, (strategy, config)


def test_attempt_outcome_invariants():
    outcome = AttemptOutcome(source="copy", proposed=4, accepted_k=2)
    assert 0 <= outcome.accepted_k <= outcome.proposed


def test_engine_config_validation():
    for bad in (
        {"gamma": 0},
        {"chunk_len": 0},
        {"draft_len": 0},
        {"max_new_tokens": 0},
        {"strategy": "magic"},
    ):
        with pytest.raises(ValueError):
            EngineConfig(**bad)
    assert EngineConfig().gamma == 3
    assert EngineConfig().chunk_len == 10
    assert EngineConfig().max_new_tokens == 1024


@st.composite
def table_lms(draw, vocab_size):
    order = draw(st.integers(1, 3))
    token = st.integers(0, vocab_size - 1)
    table = draw(st.dictionaries(st.tuples(*[token] * order), token, max_size=4 * vocab_size))
    return TableLM(vocab_size, order, table, draw(token))


@st.composite
def sessions(draw):
    """A random target/draft pair, config and extend/run interleaving."""
    vocab_size = draw(st.integers(2, 6))  # small vocabularies put <eot> in copy chunks
    target, draft = draw(table_lms(vocab_size)), draw(table_lms(vocab_size))
    config = EngineConfig(
        strategy=draw(st.sampled_from(STRATEGIES)),
        gamma=draw(st.integers(1, 8)),
        chunk_len=draw(st.integers(1, 12)),
        draft_len=draw(st.integers(1, 5)),
    )
    # repeated prompts give the index matches, some spanning <eot>
    prompt = st.builds(
        lambda part, repeats: part * repeats,
        st.lists(st.integers(0, vocab_size - 1), min_size=1, max_size=6),
        st.integers(1, 3),
    )
    budget = st.one_of(st.integers(1, 3), st.integers(4, 40))
    ops = draw(st.lists(st.one_of(prompt, budget), min_size=1, max_size=6))
    return target, draft, config, [draw(prompt)] + ops


def step_run(session, budget):
    """The attempts of a run made by ``step`` alone, one attempt per call."""
    log, produced = [], 0
    while produced < budget:
        log.append(session.step(budget - produced))
        produced += log[-1].accepted_k + 1
        if session.context[-1] == EOT_ID:
            break
    return log


def session_state(session):
    """The context, target cache and counters, and index counters of a session."""
    target, index = session.target, session.index
    state = [session.context, target.state, target.blocks_scored, target.tokens_scored]
    if index is not None:
        state += [index.lookups, index.mix_ops, index.first]
    return state


@settings(derandomize=True, deadline=None, max_examples=300)
@given(sessions())
def test_session_interleavings_match_greedy_and_accounting(case):
    # every run also drives a twin session by step() alone: a run's plain
    # stretches decode from one target generator, yet log, commit, score
    # and touch the index exactly as one step per attempt does
    target, draft, config, ops = case
    session = Session(target.spawn(), draft.spawn(), config)
    twin = Session(target.spawn(), draft.spawn(), config)
    step = twin.step

    def checked_step(remaining):  # step_run calls this per attempt
        outcome = step(remaining)
        assert_cache_invariants(twin)
        return outcome

    twin.step = checked_step
    for op in ops:
        if isinstance(op, list):
            session.extend_context(op)
            twin.extend_context(op)
        else:
            expected = greedy_reference(target, session.context, op)
            before, start = model_calls(session), len(session.context)
            session.config = replace(config, max_new_tokens=op)
            out, log = session.run()
            assert out == expected
            assert_run_accounting(before, model_calls(session), log)
            assert_copy_lengths(session, start, op, log)
            assert log == step_run(twin, op)
        assert_cache_invariants(session)
        assert session_state(session) == session_state(twin)


_COSTS = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(sessions(), st.builds(CostModel, _COSTS, _COSTS, _COSTS, _COSTS))
def test_score_log_of_shared_records_equals_fresh_records(case, cost):
    target, draft, config, ops = case
    session = Session(target.spawn(), draft.spawn(), config)
    for op in ops:
        if isinstance(op, list):
            session.extend_context(op)
            continue
        session.config = replace(config, max_new_tokens=op)
        _, log = session.run()
        fresh = [AttemptOutcome(o.source, o.proposed, o.accepted_k, o.index_ops) for o in log]
        assert all(o is not f for o, f in zip(log, fresh))
        got, want = score_log(log, cost), score_log(fresh, cost)
        assert got.sim_time == want.sim_time  # bit for bit
        assert got == want
    assert PLAIN_RECORDS == fresh_plain_records()


def test_only_a_rejection_truncates(redundant_setup, monkeypatch):
    corpus, vocab, target, draft = redundant_setup
    truncated = []  # (model, keep) per truncate call in a step
    truncations = []  # every truncate call's model, never cleared
    truncate, run = LangModel.truncate, Session.run
    kinds = set()

    def counted_truncate(self, keep_len):
        truncated.append((self, keep_len))
        truncations.append(self)
        truncate(self, keep_len)

    def checked_step(session, remaining):
        truncated.clear()
        t, passes = len(session.context), session.target.blocks_scored
        o = session.step(remaining)
        to_target = [keep for model, keep in truncated if model is session.target]
        to_draft = [keep for model, keep in truncated if model is session.draft]
        # one target pass, which stops at the accepted prefix: nothing to undo
        assert session.target.blocks_scored == passes + 1
        assert to_target == []
        assert session.target.state_len == t + o.accepted_k
        if o.accepted_k < o.proposed:  # partly rejected: the draft rolls back to t + k
            kinds.add("rejected")
            assert to_draft in ([], [t + o.accepted_k])
        else:  # a plain step or a fully accepted proposal has nothing to undo
            kinds.add(o.source if o.proposed == 0 else "accepted")
            assert to_draft == []
        assert len(truncated) == len(to_target) + len(to_draft)
        return o

    def checked_run(self):
        before = len(truncations)
        result = run(self)
        # plain runs decode without truncating, and leave the newest token pending
        if self.draft is None:
            assert len(truncations) == before
        assert self.target.state_len == len(self.context) - 1
        return result

    monkeypatch.setattr(LangModel, "truncate", counted_truncate)
    monkeypatch.setattr(Session, "run", checked_run)
    for strategy in STRATEGIES:
        config = EngineConfig(strategy=strategy)
        for transcript in corpus[:4]:
            run_transcript(transcript, vocab, target.spawn(), draft.spawn(), config)
            # run makes its attempts without calling step, so step the same turns
            session = Session(target.spawn(), draft.spawn(), config)
            for turn in transcript.user_turns():
                session.extend_context(turn_prefix_tokens(turn.text, vocab))
                budget = config.max_new_tokens
                while budget > 0:
                    o = checked_step(session, budget)
                    budget -= o.accepted_k + 1
                    if session.context[-1] == EOT_ID:
                        break
    assert kinds == {"plain", "accepted", "rejected"}


@pytest.mark.parametrize("strategy", ["specdec", "copy_plus_specdec"])
def test_budget_final_plain_step_decodes(strategy, monkeypatch):
    # with room for the bonus only, a drafting session proposes nothing: its
    # plain step is one counted target pass of one token, not a scored block
    target = chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=8)
    draft = chain_table([1, 2, 3, 4, 5, 6, 7], vocab_size=8)
    blocks = []
    score_block = LangModel.score_block

    def counted_score_block(self, *args, **kwargs):
        blocks.append(self)
        return score_block(self, *args, **kwargs)

    monkeypatch.setattr(LangModel, "score_block", counted_score_block)
    session = Session(target, draft, EngineConfig(strategy=strategy, draft_len=2, max_new_tokens=4))
    session.extend_context([1, 2])
    drafted = draft.blocks_scored
    o = session.step(1)
    assert (o.source, o.proposed, o.accepted_k, session.context[-1]) == ("plain", 0, 0, 3)
    assert blocks == [] and draft.blocks_scored == drafted
    assert (target.blocks_scored, target.tokens_scored) == (1, 1)
    assert_cache_invariants(session)
    # a run whose budget ends one token after a full draft ends the same way
    out, log = session.run()
    assert out == [4, 5, 6, 7]
    assert [o.source for o in log] == ["draft", "plain"]
    assert blocks == [target]  # the draft attempt's verification only
    assert (target.blocks_scored, target.tokens_scored) == (3, 5)
    assert_cache_invariants(session)


class CountingDict(dict):
    """A gram index that counts the calls the engine's index makes on it."""

    def __init__(self):
        super().__init__()
        self.calls = {"setdefault": 0, "get": 0}

    def setdefault(self, key, default=None):
        self.calls["setdefault"] += 1
        return super().setdefault(key, default)

    def get(self, key, default=None):
        self.calls["get"] += 1
        return super().get(key, default)


def new_grams(before, after, gamma):
    """How many gamma-grams a context growing from ``before`` to ``after`` tokens adds."""
    return max(after - gamma + 1, 0) - max(before - gamma + 1, 0)


def test_copy_attempts_touch_the_index_once_per_committed_token(redundant_setup):
    corpus, vocab, target, draft = redundant_setup
    for strategy in ("copy", "copy_plus_specdec"):
        for gamma in (2, 3, 5):
            config = EngineConfig(strategy=strategy, gamma=gamma)
            for transcript in corpus[:3]:
                session = Session(target.spawn(), draft.spawn(), config)
                index, context = session.index, session.context
                first = index.first = CountingDict()
                for turn in transcript.user_turns():
                    t, first.calls["setdefault"] = len(context), 0
                    session.extend_context(turn_prefix_tokens(turn.text, vocab))
                    assert first.calls == {"setdefault": new_grams(t, len(context), gamma), "get": 0}
                    budget = config.max_new_tokens
                    while budget > 0:
                        # the kept answer is the naive scan's; reading it touches no dict
                        first.calls["setdefault"] = 0
                        assert index.lookup(context) == naive_match_scan(context, gamma)
                        assert first.calls == {"setdefault": 0, "get": 0}
                        t, lookups = len(context), index.lookups
                        o = session.step(budget)
                        looked_up = index.lookups - lookups
                        # one insert per newly indexed gram, and the lookup reads none
                        assert first.calls == {"setdefault": new_grams(t, len(context), gamma), "get": 0}
                        assert o.index_ops == looked_up + o.accepted_k + 1
                        budget -= o.accepted_k + 1
                        if context[-1] == EOT_ID:
                            break
                assert index.first == naive_first_positions(context, gamma)
