import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copyspec.corpus import Transcript, Turn
from copyspec.engine import AttemptOutcome, EngineConfig, TurnResult, generate
from copyspec.lm import TableLM
from copyspec.metrics import (
    CostModel,
    EmptyLog,
    RunMetrics,
    aggregate,
    attempt_cost,
    atomic_write_text,
    metrics_record,
    record_config,
    records_to_csv,
    records_to_json,
    records_to_jsonl,
    score_log,
    speedup,
)

from oracles import random_table_lm, reaggregate


def plain(index_ops=0):
    return AttemptOutcome("plain", 0, 0, index_ops)


def copy_attempt(proposed, k, index_ops=0):
    return AttemptOutcome("copy", proposed, k, index_ops)


def draft_attempt(proposed, k):
    return AttemptOutcome("draft", proposed, k)


def test_baseline_cost_is_definitional():
    n = 17
    cost = CostModel()
    m = score_log([plain()] * n, cost)
    assert m.sim_time == pytest.approx(n * (cost.target_pass_cost + cost.target_per_token_cost))
    assert m.sim_tps == pytest.approx(n / m.sim_time)
    assert m.tokens_out == n and m.plain_steps == n


def test_single_copy_attempt_fields():
    m = score_log([copy_attempt(10, 7)])
    assert m.tokens_out == 8 and m.copied_tokens == 7
    assert m.tau1 == pytest.approx(7.0)
    assert m.pct_copied == pytest.approx(7 / 8)


def test_mixed_log_matches_reaggregation_oracle():
    rng = np.random.default_rng(2)
    cost = CostModel(1.3, 0.05, 0.2, 0.01)
    log = []
    for _ in range(200):
        kind = rng.integers(0, 3)
        if kind == 0:
            log.append(plain(index_ops=int(rng.integers(0, 3))))
        elif kind == 1:
            p = int(rng.integers(1, 12))
            log.append(copy_attempt(p, int(rng.integers(0, p + 1)), int(rng.integers(0, 4))))
        else:
            p = int(rng.integers(1, 6))
            log.append(draft_attempt(p, int(rng.integers(0, p + 1))))
    got = score_log(log, cost).to_dict()
    want = reaggregate(log, cost)
    for key, val in want.items():
        assert got[key] == pytest.approx(val), key


def test_speedup_identity_and_ordering():
    base = score_log([plain()] * 10)
    assert speedup(base, base) == pytest.approx(1.0)
    fast = score_log([copy_attempt(10, 9)] * 5)
    assert speedup(fast, base) > 1.0
    slow = score_log([copy_attempt(10, 0)] * 10)  # pure overhead
    assert speedup(slow, base) <= 1.0


def test_speedup_zero_tokens_raises():
    from copyspec.metrics import RunMetrics

    good = score_log([plain()])
    bad = RunMetrics(0, 0, 0, 0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ZeroDivisionError):
        speedup(good, bad)


def test_empty_log_raises():
    with pytest.raises(EmptyLog):
        score_log([])
    with pytest.raises(EmptyLog):
        aggregate([])
    with pytest.raises(EmptyLog):
        aggregate(iter([]))


def test_cost_monotonicity():
    rng = np.random.default_rng(8)
    log = [copy_attempt(8, int(rng.integers(0, 9)), 2) for _ in range(20)]
    log += [draft_attempt(3, int(rng.integers(0, 4))) for _ in range(20)]
    log += [plain(index_ops=1) for _ in range(20)]
    base = CostModel(1.0, 0.02, 0.1, 0.01)
    tps0 = score_log(log, base).sim_tps
    for bump in (
        CostModel(1.5, 0.02, 0.1, 0.01),
        CostModel(1.0, 0.06, 0.1, 0.01),
        CostModel(1.0, 0.02, 0.4, 0.01),
        CostModel(1.0, 0.02, 0.1, 0.09),
    ):
        assert score_log(log, bump).sim_tps <= tps0


def test_zero_copy_overhead_bounded_by_index_cost():
    # searching without ever copying costs exactly the index term
    n = 50
    cost = CostModel(index_op_cost=0.05)
    searched = score_log([plain(index_ops=2)] * n, cost)
    untouched = score_log([plain(index_ops=0)] * n, cost)
    per_plain = cost.target_pass_cost + cost.target_per_token_cost
    predicted = per_plain / (per_plain + 2 * cost.index_op_cost)
    assert speedup(searched, untouched) == pytest.approx(predicted)
    # with the default zero index cost the two are identical
    assert speedup(score_log([plain(index_ops=2)] * n), score_log([plain()] * n)) == 1.0


def test_engine_zero_copy_matches_baseline_throughput():
    # a model that never repeats its own output: copy search finds nothing,
    # so under default costs the copy strategy scores exactly like baseline
    chain = list(range(1, 40))
    table = {(a,): b for a, b in zip(chain, chain[1:])}
    target = TableLM(40, 1, table, fallback=0)
    base_log = generate([1], target.spawn(), config=EngineConfig(strategy="baseline", max_new_tokens=30))[1]
    copy_log = generate([1], target.spawn(), config=EngineConfig(strategy="copy", max_new_tokens=30))[1]
    assert score_log(copy_log).sim_tps == pytest.approx(score_log(base_log).sim_tps)


def test_adversarial_always_rejected_copy_is_pure_overhead():
    rng = np.random.default_rng(3)
    target = random_table_lm(rng, 8)
    prompt = [int(x) for x in rng.integers(1, 8, size=12)]
    base_log = generate(prompt, target.spawn(), config=EngineConfig(strategy="baseline", max_new_tokens=50))[1]
    copy_log = generate(prompt, target.spawn(), config=EngineConfig(strategy="copy", max_new_tokens=50))[1]
    assert speedup(score_log(copy_log), score_log(base_log)) <= 1.0 + 1e-9 or score_log(copy_log).copied_tokens > 0


def test_attempt_cost_components():
    cost = CostModel(2.0, 0.1, 0.5, 0.25)
    assert attempt_cost(plain(index_ops=2), cost) == pytest.approx(2.0 + 0.1 + 0.5)
    assert attempt_cost(copy_attempt(10, 3, 1), cost) == pytest.approx(2.0 + 0.1 * 11 + 0.25)
    assert attempt_cost(draft_attempt(4, 4), cost) == pytest.approx(2.0 + 0.1 * 5 + 0.5 * 4)


@st.composite
def attempt_logs(draw):
    log = []
    for _ in range(draw(st.integers(1, 40))):
        source = draw(st.sampled_from(["copy", "draft", "plain"]))
        # the engine's plain attempts propose nothing, but a record may say otherwise
        proposed = draw(st.integers(0 if source == "plain" else 1, 12))
        k = draw(st.integers(0, proposed))
        log.append(AttemptOutcome(source, proposed, k, draw(st.integers(0, 15))))
    return log


_COST = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False)


@given(attempt_logs(), st.builds(CostModel, _COST, _COST, _COST, _COST))
def test_score_log_sim_time_is_exactly_the_sum_of_attempt_costs(log, cost):
    # bitwise equal, not approximately: every metric file prints sim_time
    total = 0.0
    for o in log:
        total += attempt_cost(o, cost)
    got = score_log(log, cost).to_dict()
    assert got["sim_time"] == total
    want = reaggregate(log, cost)
    for key in ("tokens_out", "copied_tokens", "copy_attempts", "draft_attempts", "draft_accepted", "plain_steps"):
        assert got[key] == want[key], key


def test_invariant_ranges_on_engine_log():
    rng = np.random.default_rng(21)
    target = random_table_lm(rng, 10)
    out, log = generate([1, 2, 3], target, config=EngineConfig(strategy="copy", chunk_len=6, max_new_tokens=64))
    m = score_log(log)
    assert 0.0 <= m.pct_copied <= 1.0
    assert m.tau1 <= 6
    assert m.sim_time > 0


def test_aggregate_pools_counts():
    a = score_log([copy_attempt(10, 7), plain()])
    b = score_log([draft_attempt(3, 2), plain()])
    pooled = aggregate([a, b])
    assert pooled.tokens_out == a.tokens_out + b.tokens_out
    assert pooled.copy_attempts == 1 and pooled.draft_attempts == 1
    assert pooled.sim_time == pytest.approx(a.sim_time + b.sim_time)
    assert pooled.tau1 == pytest.approx(7.0) and pooled.tau2 == pytest.approx(2.0)


def per_field_sums(items):
    """Pooled metrics from the builtin ``sum`` of each field over ``items``, in order."""
    tokens, copied, copy_attempts, draft_attempts, draft_accepted, plain_steps, sim_time = (
        sum([getattr(m, name) for m in items])
        for name in ("tokens_out", "copied_tokens", "copy_attempts", "draft_attempts", "draft_accepted",
                     "plain_steps", "sim_time")
    )
    return {
        "tokens_out": tokens,
        "copied_tokens": copied,
        "copy_attempts": copy_attempts,
        "draft_attempts": draft_attempts,
        "draft_accepted": draft_accepted,
        "plain_steps": plain_steps,
        "tau1": copied / copy_attempts if copy_attempts else 0.0,
        "tau2": draft_accepted / draft_attempts if draft_attempts else 0.0,
        "sim_time": sim_time,
        "sim_tps": tokens / sim_time if sim_time > 0 else 0.0,
        "pct_copied": copied / tokens if tokens else 0.0,
    }


_COUNT = st.integers(0, 10**6)
_RATIO = st.floats(0, 100, allow_nan=False)
# sim_time spans many magnitudes, so that summing in another order or way changes its low bits
run_metrics = st.builds(
    RunMetrics, _COUNT, _COUNT, _COUNT, _COUNT, _COUNT, _COUNT, _RATIO, _RATIO,
    st.floats(0, 1e12, allow_nan=False) | st.sampled_from([0.1, 1e-9, 3e7 + 0.3]), _RATIO, _RATIO,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.lists(run_metrics, min_size=1, max_size=30))
def test_aggregate_equals_the_per_field_sums(items):
    # sim_time equal bit for bit, not approximately: every metric file prints it
    want = per_field_sums(items)
    assert aggregate(items).to_dict() == want
    assert aggregate(iter(items)).to_dict() == want


def test_records_emission_identical_columns():
    m = score_log([copy_attempt(10, 7), plain()])
    rec = metrics_record("t1", "math", 2, "copy", m, record_config({"gamma": 3}))
    csv_text = records_to_csv([rec])
    header = csv_text.splitlines()[0].split(",")
    assert header == list(rec.keys())
    json_text = records_to_json({"records": [rec]})
    assert '"transcript_id": "t1"' in json_text


def test_a_record_lists_its_keys_in_the_csv_header_order():
    m = score_log([copy_attempt(10, 7), draft_attempt(3, 1), plain()])
    echo = {"strategy": "copy", "gamma": 3, "chunk_len": 10, "cost_index": 0.0, "corpus_fingerprint": "ab"}
    rec = metrics_record("t1", "math", 2, "copy", m, record_config(echo))
    want = ["transcript_id", "category", "turn", "strategy", *(f.name for f in dataclasses.fields(RunMetrics))]
    want += sorted(f"config_{key}" for key in echo)
    assert list(rec) == want
    assert records_to_csv([rec]).splitlines()[0] == ",".join(want)
    assert [rec[f"config_{key}"] for key in echo] == list(echo.values())


def test_to_dict_lists_every_field_in_order():
    m = score_log([copy_attempt(10, 7), draft_attempt(3, 2), plain(1)], CostModel(1.3, 0.05, 0.2, 0.01))
    names = [f.name for f in dataclasses.fields(RunMetrics)]
    assert list(m.to_dict()) == names
    assert m.to_dict() == {name: getattr(m, name) for name in names}


def test_per_turn_and_per_record_types_hold_no_instance_dict():
    m = score_log([plain()])
    turn = Turn("user", "hi")
    for obj in (m, TurnResult(1, [5], m), turn, Transcript("t1", "math", (turn,)), AttemptOutcome("plain", 0, 0)):
        assert not hasattr(obj, "__dict__"), type(obj).__name__
        assert dataclasses.is_dataclass(obj)


def test_cost_model_validation():
    with pytest.raises(ValueError):
        CostModel(target_pass_cost=-1)
    # an attempt must take simulated time, or sim_tps is undefined
    with pytest.raises(ValueError, match="cannot both be 0"):
        CostModel(target_pass_cost=0, target_per_token_cost=0)
    assert CostModel(target_pass_cost=0).target_per_token_cost > 0
    assert CostModel(target_per_token_cost=0).target_pass_cost > 0


@pytest.mark.parametrize("name", ["target_pass_cost", "target_per_token_cost", "draft_token_cost", "index_op_cost"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_cost_model_rejects_a_non_finite_cost(name, value):
    with pytest.raises(ValueError, match=f"{name} must be a finite number >= 0"):
        CostModel(**{name: value})


json_keys = st.one_of(
    st.sampled_from(["", "é", "日本", 'a "quote"', "back\\slash", "\x00\x1f\x7f", "line\nbreak", "\ud800"]),
    st.text(max_size=6),
)
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(2**64, 2**80) | st.integers(-(2**80), -(2**64)),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]),
    json_keys,
)


def json_containers(leaves):
    """Nested dicts with ``str`` keys (or, now and then, all-number keys,
    which ``json.dumps`` converts), lists and tuples of ``leaves``, empty
    ones included."""
    def nest(children):
        return st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(json_keys, children, max_size=4),
            st.dictionaries(st.integers() | st.floats(allow_nan=False, allow_infinity=False), children, max_size=2),
        )
    return st.recursive(leaves, nest, max_leaves=24)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(value=json_containers(json_scalars))
def test_records_to_json_equals_the_indented_standard_encoder(value):
    assert records_to_json(value) == json.dumps(value, sort_keys=True, indent=2, allow_nan=False) + "\n"


def holding_non_finite(filler):
    """Lists, tuples and dicts that hold a non-finite float at some depth
    and at any place, beside ``filler`` values."""
    def around(bad):
        return st.one_of(
            st.tuples(st.lists(filler, max_size=2), bad, st.lists(filler, max_size=2))
            .map(lambda t: [*t[0], t[1], *t[2]]),
            st.tuples(st.lists(filler, max_size=2), bad).map(lambda t: (t[1], *t[0])),
            st.tuples(st.dictionaries(json_keys, filler, max_size=2), json_keys, bad)
            .map(lambda t: {**t[0], t[1]: t[2]}),
        )
    return st.recursive(st.sampled_from([math.nan, math.inf, -math.inf]), around, max_leaves=4)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(value=holding_non_finite(json_containers(json_scalars)))
def test_records_to_json_rejects_a_non_finite_float_anywhere(value):
    with pytest.raises(ValueError):
        records_to_json(value)


@pytest.mark.parametrize("c_encoder", [True, False], ids=["c-encoder", "python-encoder"])
def test_the_emitters_equal_the_standard_encoder_with_or_without_its_c_part(monkeypatch, c_encoder):
    from copyspec import metrics

    if not c_encoder:  # as on an interpreter built without the _json accelerator
        monkeypatch.setattr(metrics, "c_make_encoder", None)
    metrics._encoder.cache_clear()
    try:
        records = [
            metrics_record("t1", "math", 1, "copy", score_log([copy_attempt(10, 7), plain()]), record_config({"gamma": 3})),
            {"b": [1.5, -0.0, None], "a": "é \"x\"", "c": {"z": 2**70, "y": True}},
        ]
        payload = {"records": records, "config": {"gamma": 3, "nested": [[], {}, ()]}}
        assert records_to_json(payload) == json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert records_to_jsonl(records) == "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records)
        with pytest.raises(ValueError):
            records_to_jsonl([{"x": math.nan}])
        with pytest.raises(ValueError):
            records_to_json({"x": [math.inf]})
    finally:
        metrics._encoder.cache_clear()


@pytest.mark.parametrize("umask", [0o022, 0o002], ids=["umask-022", "umask-002"])
def test_atomic_write_gives_the_mode_of_a_plain_write(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "atomic.json", "{}\n")
        (tmp_path / "plain.json").write_text("{}\n")
    finally:
        os.umask(old)
    assert (tmp_path / "atomic.json").read_text() == "{}\n"
    mode = (tmp_path / "atomic.json").stat().st_mode
    assert mode == (tmp_path / "plain.json").stat().st_mode
    assert mode & 0o777 == 0o666 & ~umask
