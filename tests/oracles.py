"""Independent oracles used to derive expected values.

Everything here deliberately avoids the implementation paths it checks:
the match oracle is a naive full scan, the argmax oracle reads the
model's backoff tables directly, without scoring through the model (the
greedy reference reads it token by token, without the engine), the
metrics oracle re-aggregates raw logs from scratch, and the transcript
assembly tokenizes word by word, splitting with a punctuation-peeling
loop, without the corpus's ingest pass or its tokenizer.
"""

from __future__ import annotations

import numpy as np

from copyspec.corpus import ASSISTANT_TAG, EOT_ID, USER_TAG
from copyspec.lm import KgramLM, LangModel, TableLM, train_kgram


def peel_split_words(text):
    """Split on whitespace, then peel trailing ``.,;:!?`` off each word
    one mark at a time, keeping a word's last character."""
    words = []
    for raw in text.split():
        peeled = []
        while len(raw) > 1 and raw[-1] in ".,;:!?":
            peeled.append(raw[-1])
            raw = raw[:-1]
        words.append(raw)
        words.extend(reversed(peeled))
    return words


def assemble_transcript_tokens(transcript, vocab):
    """A transcript's token sequence, turn by turn, growing ``vocab``:
    ``<user> text <assistant>`` per user turn, ``text <eot>`` per answer."""
    toks = []
    for turn in transcript.turns:
        if turn.role == "user":
            toks.append(vocab.add(USER_TAG))
            toks += [vocab.add(w) for w in peel_split_words(turn.text)]
            toks.append(vocab.add(ASSISTANT_TAG))
        else:
            toks += [vocab.add(w) for w in peel_split_words(turn.text)]
            toks.append(EOT_ID)
    return toks


def naive_match_scan(context, gamma, t=None):
    """Earliest occurrence p (1-based) of the last gamma tokens with
    p + gamma - 1 < t - gamma + 1, by scanning every start position."""
    if t is None:
        t = len(context)
    if t < gamma:
        return None
    s = list(context[t - gamma:t])
    for q in range(1, t - gamma + 2):
        if list(context[q - 1:q - 1 + gamma]) == s and q + gamma - 1 < t - gamma + 1:
            return q
    return None


def naive_gram_positions(context, gamma):
    """All (1-based position, gram) pairs by direct slicing."""
    return [
        (q, tuple(context[q - 1:q - 1 + gamma]))
        for q in range(1, len(context) - gamma + 2)
    ]


def naive_first_positions(context, gamma):
    """Each distinct gram's smallest 1-based position, over all positions."""
    pairs = naive_gram_positions(context, gamma)
    return {gram: min(q for q, other in pairs if other == gram) for _, gram in pairs}


def naive_kgram_argmax(corpus, k, prefix):
    """Argmax after ``prefix`` of an order-k backoff model of ``corpus``.

    Scans every corpus position at each context length from
    min(k, len(prefix)) down to 0 and stops at the first length whose
    context is followed somewhere; the most frequent follower wins, the
    smallest id on ties. A corpus without tokens predicts 0.
    """
    prefix = list(prefix)
    for o in range(min(k, len(prefix)), -1, -1):
        ctx = prefix[len(prefix) - o:]
        followers = [seq[j] for seq in corpus for j in range(o, len(seq)) if list(seq[j - o:j]) == ctx]
        if followers:
            return min(set(followers), key=lambda tok: (-followers.count(tok), tok))
    return 0


def table_argmax(model: LangModel, prefix):
    """Argmax after ``prefix``, read straight from ``model.tables``.

    The longest context, up to ``model.order`` tokens, whose table has an
    entry wins; a None table is built through ``model._resolve``; a prefix
    with no entry at any length predicts ``model.fallback``. It calls
    neither ``score_block`` nor ``decode``, which the tests check against it.
    """
    prefix = tuple(prefix)
    for o in range(min(model.order, len(prefix)), -1, -1):
        table = model.tables[o]
        if table is None:
            table = model._resolve(o)
        nxt = table.get(prefix[len(prefix) - o:])
        if nxt is not None:
            return nxt
    return model.fallback


def greedy_reference(model: LangModel, prompt, max_new, eot=0):
    """Greedy decode after ``prompt``, one table read per token."""
    seq = list(prompt)
    out = []
    nxt = table_argmax(model, seq)
    while len(out) < max_new and nxt != eot:
        out.append(nxt)
        seq.append(nxt)
        nxt = table_argmax(model, seq)
    return out


def reaggregate(log, cost):
    """Recompute every metric field from the raw log, independently."""
    tokens = sum(o.accepted_k + 1 for o in log)
    copied = sum(o.accepted_k for o in log if o.source == "copy")
    catt = sum(1 for o in log if o.source == "copy")
    datt = sum(1 for o in log if o.source == "draft")
    dacc = sum(o.accepted_k for o in log if o.source == "draft")
    plain = sum(1 for o in log if o.source == "plain")
    t = 0.0
    for o in log:
        t += cost.target_pass_cost
        t += cost.target_per_token_cost * (o.proposed + 1)
        if o.source == "draft":
            t += cost.draft_token_cost * o.proposed
        t += cost.index_op_cost * o.index_ops
    return {
        "tokens_out": tokens,
        "copied_tokens": copied,
        "copy_attempts": catt,
        "draft_attempts": datt,
        "draft_accepted": dacc,
        "plain_steps": plain,
        "tau1": copied / catt if catt else 0.0,
        "tau2": dacc / datt if datt else 0.0,
        "sim_time": t,
        "sim_tps": tokens / t if t > 0 else 0.0,
        "pct_copied": copied / tokens if tokens else 0.0,
    }


def random_table_lm(rng: np.random.Generator, vocab_size: int) -> TableLM:
    """Random sparse lookup model; quickly falls into copyable cycles."""
    order = int(rng.integers(1, 4))
    n_entries = int(rng.integers(vocab_size, 4 * vocab_size))
    table = {}
    for _ in range(n_entries):
        key = tuple(int(x) for x in rng.integers(0, vocab_size, size=order))
        table[key] = int(rng.integers(0, vocab_size))
    fallback = int(rng.integers(0, vocab_size))
    return TableLM(vocab_size, order, table, fallback)


def random_repetitive_corpus(rng: np.random.Generator, vocab_size: int) -> list[list[int]]:
    """Sequences assembled from a few repeated random blocks."""
    blocks = [
        [int(x) for x in rng.integers(1, vocab_size, size=int(rng.integers(3, 9)))]
        for _ in range(int(rng.integers(2, 5)))
    ]
    seqs = []
    for _ in range(int(rng.integers(2, 5))):
        seq: list[int] = []
        for _ in range(int(rng.integers(3, 8))):
            seq += blocks[int(rng.integers(0, len(blocks)))]
        seq.append(0)
        seqs.append(seq)
    return seqs


def random_kgram_lm(rng: np.random.Generator, vocab_size: int) -> KgramLM:
    corpus = random_repetitive_corpus(rng, vocab_size)
    return train_kgram(corpus, k=int(rng.integers(2, 5)), vocab_size=vocab_size)
