"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. Token accounting convention: an attempt commits accepted_k + 1
tokens; a terminating end-of-text marker is committed (and counted) but
excluded from the emitted text, so "output length" below means committed
tokens.
"""

import hashlib
import json
import time

import numpy as np
import pytest

from copyspec.analysis import (
    cosine_similarity,
    mean_cs,
    permutation_baseline,
    train_left_skipgram,
)
from copyspec.corpus import EOT_ID, Vocabulary, ingest, load_transcripts, training_sequences
from copyspec.engine import EngineConfig, Session, run_transcript, sweep
from copyspec.lm import train_kgram
from copyspec.match_index import MatchIndex
from copyspec.metrics import CostModel, aggregate, speedup

from oracles import (
    greedy_reference,
    naive_match_scan,
    random_kgram_lm,
    random_table_lm,
)

STRATEGIES = ("copy", "specdec", "copy_plus_specdec")
CASES_PER_STRATEGY = 200


def _random_case(rng):
    vocab_size = int(rng.integers(4, 33))
    if rng.random() < 0.5:
        target = random_table_lm(rng, vocab_size)
    else:
        target = random_kgram_lm(rng, vocab_size)
    draft = random_table_lm(rng, vocab_size) if rng.random() < 0.5 else random_kgram_lm(rng, vocab_size)
    prompt = [int(x) for x in rng.integers(1, vocab_size, size=int(rng.integers(1, 65)))]
    budget = int(rng.integers(8, 257))
    config_kwargs = dict(
        gamma=int(rng.integers(1, 6)),
        chunk_len=int(rng.integers(1, 13)),
        draft_len=int(rng.integers(1, 6)),
        max_new_tokens=budget,
    )
    return target, draft, prompt, budget, config_kwargs


@pytest.fixture(scope="module")
def randomized_runs():
    """Criterion 1 workload, shared with criterion 4's invariant checks."""
    rng = np.random.default_rng(20240229)
    t0 = time.monotonic()
    runs = []
    for _ in range(CASES_PER_STRATEGY):
        target, draft, prompt, budget, config_kwargs = _random_case(rng)
        reference = greedy_reference(target, prompt, budget)
        for strategy in STRATEGIES:
            config = EngineConfig(strategy=strategy, **config_kwargs)
            session = Session(target.spawn(), draft.spawn(), config)  # as generate() does, keeping the context
            session.extend_context(prompt)
            output, log = session.run()
            runs.append(
                {
                    "strategy": strategy,
                    "config": config,
                    "output": output,
                    "reference": reference,
                    "log": log,
                    "context": session.context,
                }
            )
    return runs, time.monotonic() - t0


def test_criterion_01_losslessness(randomized_runs):
    runs, elapsed = randomized_runs
    per_strategy = {s: 0 for s in STRATEGIES}
    for run in runs:
        assert run["output"] == run["reference"], (run["strategy"], run["config"])
        per_strategy[run["strategy"]] += 1
    assert all(count >= 200 for count in per_strategy.values())
    assert elapsed < 60.0, f"losslessness workload took {elapsed:.1f}s (budget 60s)"
    print(
        f"ACCEPTANCE 1 losslessness: PASS   {per_strategy} cases byte-identical "
        f"to greedy in {elapsed:.1f}s"
    )


def test_criterion_02_index_oracle_equivalence():
    rng = np.random.default_rng(7)
    t0 = time.monotonic()
    checked = 0
    while checked < 1000:
        gamma = int(rng.integers(1, 6))
        length = int(rng.integers(gamma, 201))
        context = [int(x) for x in rng.integers(0, int(rng.integers(2, 9)), size=length)]
        index = MatchIndex(gamma=gamma)
        index.extend(context)
        assert index.lookup(context) == naive_match_scan(context, gamma)
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"index oracle run took {elapsed:.1f}s (budget 10s)"
    print(f"ACCEPTANCE 2 index-oracle: PASS   {checked} lookups match the naive scan in {elapsed:.1f}s")


def test_criterion_03_rollback_equivalence():
    rng = np.random.default_rng(12)
    for builder, name in ((random_table_lm, "table"), (random_kgram_lm, "kgram")):
        for _ in range(500):
            model = builder(rng, int(rng.integers(3, 17)))
            for _ in range(int(rng.integers(1, 12))):
                if model.state_len and rng.random() < 0.45:
                    model.truncate(int(rng.integers(0, model.state_len + 1)))
                else:
                    size = int(rng.integers(1, 7))
                    block = [int(x) for x in rng.integers(0, model.vocab_size, size=size)]
                    if rng.random() < 0.5:
                        model.feed(block)
                    else:  # a verification pass of block[1:] after block[0]
                        model.score_block(block[0], block[1:], EOT_ID)
            prefix = list(model.state)
            live = model.score_block(0, [], EOT_ID)[0]
            fresh = model.spawn()
            fresh.feed(prefix)
            assert fresh.score_block(0, [], EOT_ID)[0] == live, name
    print("ACCEPTANCE 3 rollback-equivalence: PASS   500 interleavings per reference model")


def test_criterion_04_progress_and_accounting(randomized_runs):
    runs, _ = randomized_runs
    partial_rejects = 0
    for run in runs:
        committed = sum(o.accepted_k + 1 for o in run["log"])
        ended_by_eot = bool(run["log"]) and run["context"][-1] == EOT_ID
        assert committed == len(run["output"]) + (1 if ended_by_eot else 0)
        assert committed <= run["config"].max_new_tokens
        for o in run["log"]:
            assert o.accepted_k + 1 >= 1  # progress: every attempt appends
            if o.proposed and o.accepted_k < o.proposed:
                partial_rejects += 1
    # the log stores counts, not proposal contents, so check divergence by
    # driving the verifier directly with adversarial random proposals
    rng = np.random.default_rng(99)
    violations = 0
    checked = 0
    for _ in range(300):
        target = random_table_lm(rng, 12)
        from copyspec.engine import Session

        session = Session(target, None, EngineConfig())
        session.extend_context([int(x) for x in rng.integers(1, 12, size=6)])
        proposal = [int(x) for x in rng.integers(0, 12, size=int(rng.integers(1, 8)))]
        k = session.verify_block(proposal)
        bonus = session.context[-1]
        if k < len(proposal) and bonus != EOT_ID:
            checked += 1
            if bonus == proposal[k]:
                violations += 1
    assert violations == 0 and checked > 50
    print(
        f"ACCEPTANCE 4 progress+accounting: PASS   {len(runs)} runs partition exactly; "
        f"{partial_rejects} partial rejects, divergence held on {checked} adversarial verifies"
    )


def _per_turn(corpus, vocab, target, draft, strategy, **config_kwargs):
    config = EngineConfig(strategy=strategy, **config_kwargs)
    per_turn = {}
    for t in corpus:
        results = run_transcript(
            t, vocab, target.spawn(), draft.spawn() if draft else None, config, CostModel()
        )
        for r in results:
            per_turn.setdefault(r.turn, []).append(r.metrics)
    return {turn: aggregate(ms) for turn, ms in per_turn.items()}


def test_criterion_05_turn_structure(redundant_setup, novel_setup):
    t0 = time.monotonic()
    corpus, vocab, target, _ = redundant_setup
    base = _per_turn(corpus, vocab, target, None, "baseline")
    copy = _per_turn(corpus, vocab, target, None, "copy")
    pct2 = copy[2].pct_copied
    sp2 = speedup(copy[2], base[2])
    sp1 = speedup(copy[1], base[1])
    ncorpus, nvocab, ntarget = novel_setup
    nbase = _per_turn(ncorpus, nvocab, ntarget, None, "baseline")
    ncopy = _per_turn(ncorpus, nvocab, ntarget, None, "copy")
    nsp2 = speedup(ncopy[2], nbase[2])
    elapsed = time.monotonic() - t0
    assert pct2 >= 0.40, pct2
    assert sp2 >= 1.5, sp2
    assert sp1 >= 0.95, sp1
    assert nsp2 >= 0.95, nsp2
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 5 turn-structure: PASS   redundant turn-2 pct_copied={pct2:.3f} (>=0.40), "
        f"speedup={sp2:.2f} (>=1.5), turn-1 speedup={sp1:.3f} (>=0.95); "
        f"novel turn-2 speedup={nsp2:.3f} (>=0.95) in {elapsed:.1f}s"
    )


def test_criterion_06_gamma_sweep_shape(redundant_setup):
    corpus, vocab, target, _ = redundant_setup
    prompts = ingest(corpus, vocab)[1]  # the vocabulary already holds every symbol
    result = sweep(
        corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "gamma", list(range(2, 9))
    )
    attempts = [m.copy_attempts for _, m in result.points]
    taus = [m.tau1 for _, m in result.points]
    attempt_violations = sum(1 for a, b in zip(attempts, attempts[1:]) if b > a)
    tau_violations = sum(1 for a, b in zip(taus, taus[1:]) if b < a)
    assert attempt_violations == 0, attempts
    assert tau_violations <= 1, taus
    print(
        f"ACCEPTANCE 6 gamma-sweep: PASS   attempts {attempts} non-increasing "
        f"(0 violations), tau1 {[round(t, 2) for t in taus]} non-decreasing "
        f"({tau_violations} violation(s), <=1 allowed)"
    )


def test_criterion_07_chunk_length_interior_optimum(redundant_setup):
    t0 = time.monotonic()
    corpus, vocab, target, _ = redundant_setup
    prompts = ingest(corpus, vocab)[1]  # the vocabulary already holds every symbol
    result = sweep(
        corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "chunk_len", [5, 10, 50, 100]
    )
    tps = {v: m.sim_tps for v, m in result.points}
    elapsed = time.monotonic() - t0
    assert max(tps[10], tps[50]) > tps[100], tps
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 7 chunk-optimum: PASS   sim_tps {{5: {tps[5]:.3f}, 10: {tps[10]:.3f}, "
        f"50: {tps[50]:.3f}, 100: {tps[100]:.3f}}}: interior exceeds 100 in {elapsed:.1f}s"
    )


def test_criterion_08_specdec_complementarity(redundant_setup):
    corpus, vocab, target, draft = redundant_setup
    sd = _per_turn(corpus, vocab, target, draft, "specdec")
    both = _per_turn(corpus, vocab, target, draft, "copy_plus_specdec")
    r1 = speedup(both[1], sd[1])
    r2 = speedup(both[2], sd[2])
    assert r1 >= 0.98, r1
    assert r2 >= 1.2, r2
    print(
        f"ACCEPTANCE 8 specdec-complementarity: PASS   copy+specdec vs specdec: "
        f"turn-1 {r1:.3f} (>=0.98), turn-2 {r2:.3f} (>=1.2)"
    )


def _planted_cluster_corpus(rng, clusters=4, members=6, n_seq=12, runs=14):
    seqs = []
    for _ in range(n_seq):
        seq = []
        for _ in range(runs):
            c = int(rng.integers(0, clusters))
            length = int(rng.integers(5, 10))
            seq += [c * members + int(x) for x in rng.integers(0, members, size=length)]
        seqs.append(seq)
    return seqs


def _cs_stats(seed=31):
    rng = np.random.default_rng(seed)
    corpus = _planted_cluster_corpus(rng)
    emb = train_left_skipgram(corpus, gamma=3, dim=12, epochs=8, learning_rate=0.2, seed=seed)
    observed = mean_cs(corpus, emb)
    mu, sd = permutation_baseline(corpus, emb, n_permutations=20, seed=seed)
    return observed, mu, sd


def test_criterion_09_cosine_similarity_sanity():
    observed, mu, sd = _cs_stats()
    assert observed > mu + 3 * sd, (observed, mu, sd)
    # unit cases at 1e-9
    assert cosine_similarity(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(1.0, abs=1e-9)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0, abs=1e-9)
    mean = np.array([0.5, 0.5])
    assert cosine_similarity(mean, np.array([1.0, 0.0])) == pytest.approx(0.7071067811865475, abs=1e-9)
    print(
        f"ACCEPTANCE 9 cosine-sanity: PASS   planted gamma*=3 mean CS {observed:.4f} vs "
        f"permutation {mu:.4f} +/- {sd:.4f} (>= 3 SE); unit cases match to 1e-9"
    )


def _pipeline_metric_files(tmpdir):
    """Recompute the criterion 5-9 metric payloads and write them as files."""
    from conftest import DATA_DIR

    files = {}

    corpus = load_transcripts(DATA_DIR / "redundant_2turn.jsonl")
    vocab = Vocabulary()
    seqs, prompts = ingest(corpus, vocab)
    target = train_kgram(seqs, 4, vocab_size=len(vocab))
    draft = train_kgram(seqs, 2, vocab_size=len(vocab))

    ncorpus = load_transcripts(DATA_DIR / "novel_2turn.jsonl")
    nvocab = Vocabulary()
    ntarget = train_kgram(training_sequences(ncorpus, nvocab), 4, vocab_size=len(nvocab))

    turn_payload = {}
    for strategy in ("baseline", "copy", "specdec", "copy_plus_specdec"):
        per = _per_turn(corpus, vocab, target, draft, strategy)
        turn_payload[strategy] = {str(k): v.to_dict() for k, v in sorted(per.items())}
    for strategy in ("baseline", "copy"):
        per = _per_turn(ncorpus, nvocab, ntarget, None, strategy)
        turn_payload[f"novel_{strategy}"] = {str(k): v.to_dict() for k, v in sorted(per.items())}
    files["turns.json"] = turn_payload

    files["gamma_sweep.json"] = sweep(
        corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "gamma", list(range(2, 9))
    ).to_dict()
    files["chunk_sweep.json"] = sweep(
        corpus, prompts, vocab, target, None, EngineConfig(strategy="copy"), "chunk_len", [5, 10, 50, 100]
    ).to_dict()
    observed, mu, sd = _cs_stats()
    files["cs.json"] = {"observed": observed, "perm_mean": mu, "perm_sd": sd}

    tmpdir.mkdir(parents=True, exist_ok=True)
    hashes = {}
    for name, payload in files.items():
        path = tmpdir / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        hashes[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes


def test_criterion_10_determinism(tmp_path):
    first = _pipeline_metric_files(tmp_path / "a")
    second = _pipeline_metric_files(tmp_path / "b")
    assert first == second
    print(f"ACCEPTANCE 10 determinism: PASS   {len(first)} metric files hash-equal across reruns")
