import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from copyspec.match_index import MatchIndex

from oracles import naive_first_positions, naive_match_scan


def build_index(context, gamma):
    index = MatchIndex(gamma=gamma)
    index.extend(context)
    return index


def test_extend_too_short_inserts_nothing():
    index = build_index([1, 2], gamma=3)
    assert naive_first_positions([1, 2], 3) == {}
    assert index.first == {} and index.length == 2 and index.mix_ops == 0


def test_extend_boundary_single_gram():
    index = build_index([1, 2, 3], gamma=3)
    assert index.first == naive_first_positions([1, 2, 3], 3) == {(1, 2, 3): 1}
    assert index.mix_ops == 3


def test_extend_matches_naive_enumeration():
    context = [1, 2, 3, 1, 2, 3]
    index = build_index(context, gamma=3)
    assert index.first == naive_first_positions(context, 3)
    # four positions, three distinct grams: the repeat keeps its first position
    assert index.first == {(1, 2, 3): 1, (2, 3, 1): 2, (3, 1, 2): 3}
    assert index.mix_ops == 4 * 3  # every position's gram is read once


def test_extend_rejects_shorter_context():
    index = build_index([1, 2, 3], gamma=2)
    with pytest.raises(ValueError):
        index.extend([1, 2])
    assert index.length == 3 and index.first == naive_first_positions([1, 2, 3], 2)


def test_extend_with_the_same_context_is_a_no_op():
    context = [1, 2, 3, 1, 2]
    index = build_index(context, gamma=2)
    first, mix_ops = dict(index.first), index.mix_ops
    index.extend(context)
    assert index.first == first and index.mix_ops == mix_ops and index.length == len(context)


def test_lookup_earliest_nonoverlapping():
    context = [1, 2, 3, 4, 1, 2, 3]
    index = build_index(context, gamma=3)
    assert naive_match_scan(context, 3) == 1
    assert index.lookup(context) == 1


def test_lookup_overlap_excluded():
    context = [1, 2, 3, 4]
    index = build_index(context, gamma=2)
    assert naive_match_scan(context, 2) is None
    assert index.lookup(context) is None


def test_lookup_degenerate_repetition():
    context = [5, 5, 5, 5, 5, 5]
    index = build_index(context, gamma=2)
    assert naive_match_scan(context, 2) == 1
    assert index.lookup(context) == 1


def test_lookup_short_context_returns_none():
    index = build_index([1, 2], gamma=3)
    assert index.lookup([1, 2]) is None


def test_lookup_requires_the_indexed_context():
    context = [1, 2, 3, 4, 1, 2, 3]
    index = build_index(context, gamma=3)
    for other in (context[:-1], context + [4], []):
        with pytest.raises(ValueError):
            index.lookup(other)
    assert index.lookups == 0
    assert index.lookup(context) == 1 and index.lookups == 1


def test_mix_ops_counts_extend_grams_only():
    context = [1, 2, 1, 2, 1, 2]
    index = build_index(context, gamma=2)
    assert index.mix_ops == 5 * 2  # five grams read by extend
    for _ in range(3):
        assert index.lookup(context) == 1
    assert index.mix_ops == 5 * 2 and index.lookups == 3  # a lookup reads no gram


def test_randomized_oracle_equivalence():
    rng = np.random.default_rng(42)
    for _ in range(300):
        gamma = int(rng.integers(1, 6))
        alphabet = int(rng.integers(2, 9))
        length = int(rng.integers(gamma, 201))
        context = [int(x) for x in rng.integers(0, alphabet, size=length)]
        index = build_index(context, gamma)
        assert index.lookup(context) == naive_match_scan(context, gamma)


@st.composite
def chunked_contexts(draw):
    gamma = draw(st.integers(1, 5))
    alphabet = draw(st.integers(1, 6))
    context = draw(st.lists(st.integers(0, alphabet - 1), max_size=80))
    cuts = sorted(draw(st.lists(st.integers(0, len(context)), max_size=12)))
    return gamma, context, [0, *cuts, len(context)]


@settings(derandomize=True, deadline=None, max_examples=300)
@given(chunked_contexts())
def test_chunked_extend_lookups_match_naive_scan(case):
    gamma, context, bounds = case
    index = MatchIndex(gamma=gamma)
    for hi in bounds[1:]:
        prefix = context[:hi]
        index.extend(prefix)
        index.extend(prefix)  # a no-op extend keeps the answer for the same context
        p = index.lookup(prefix)
        assert p == naive_match_scan(prefix, gamma)
        if p is not None:
            assert prefix[p - 1:p - 1 + gamma] == prefix[-gamma:]
            assert p + gamma <= len(prefix)  # something follows the occurrence to copy
    assert index.first == naive_first_positions(context, gamma)
    assert index.length == len(context)


def test_incremental_equals_batch():
    rng = np.random.default_rng(3)
    context = [int(x) for x in rng.integers(0, 5, size=80)]
    batch = build_index(context, gamma=3)
    incremental = MatchIndex(gamma=3)
    for i in range(len(context)):
        incremental.extend(context[: i + 1])
    assert incremental.first == batch.first == naive_first_positions(context, 3)
    assert incremental.length == batch.length
    assert incremental.mix_ops == batch.mix_ops


def test_mixing_work_is_context_length_independent():
    short = build_index(list(range(10)), gamma=3)
    long = build_index(list(range(5000)), gamma=3)
    before_short, before_long = short.mix_ops, long.mix_ops
    short.extend(list(range(10)) + [1])
    long.extend(list(range(5000)) + [1])
    added_short = short.mix_ops - before_short
    added_long = long.mix_ops - before_long
    assert added_short == added_long == 3  # one gram hashed, gamma mixes


def test_gamma_validation():
    with pytest.raises(ValueError):
        MatchIndex(gamma=0)
