#!/usr/bin/env python3
"""Benchmark of copyspec, driven through its command-line entry point.

Run from the repository root:

    python3 perfbench/run.py --workload redundant --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

A workload is a fixed set of ``copyspec run``/``sweep`` invocations made
in process through ``copyspec.cli.main``, one after another: a closed
loop with one client and one process. A run repeats the set until
``--seconds`` have passed and reports medians over sets. Times are read
from the process's CPU clock, which leaves out the bursts in which the
host gives our CPU to someone else (``instrument.cpu_clock``), and are
scaled to a reference host speed, because a shared host's clock rate
swings by nearly 2x (``instrument.HostSpeed``). The set's plain wall-clock
time is printed beside them. Turn-time percentiles are Harrell-Davis
estimates over every timed turn of the run. The order of the invocations
within each set is shuffled from ``--seed``; the seed also generates the
``longctx`` corpus. The first set is a warm-up: it is not timed, and its
metric files are the reference every later set must reproduce byte for
byte.

Every run checks its outputs. One operation is one (transcript, turn,
strategy) generation, or one (transcript, turn, gamma) generation of a
sweep. It fails when its invocation exits non-zero, when its
``tokens_out`` differs from the baseline strategy's record, or when its
metric file differs from the warm-up's.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
traced and untraced sets and reports the per-layer breakdown (see
``instrument.Tracer``); it also probes ``--jobs`` fan-out and re-checks
every strategy's output tokens against baseline greedy decoding by
calling ``copyspec.engine.run_transcript`` directly. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import instrument

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DATA = ROOT / "data"

WORKLOADS = ("redundant", "novel", "longctx", "sweep")
STRATEGIES = ("baseline", "copy", "specdec", "copy+specdec")
SWEEP_STRATEGIES = ("copy", "copy+specdec")
SWEEP_VALUES = (2, 3, 4, 5, 6, 7, 8)
MIN_SETS = 3  # measured sets per run, for quartiles
MIN_TURNS = 1000  # timed turns per run, so that at least 10 fall beyond p99
FANOUT_PAIRS = 2


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a workload set; ``records_out`` is set for sweeps."""

    key: str
    corpus: Path
    strategy: str
    out: Path
    records_out: Path | None = None

    @property
    def is_sweep(self) -> bool:
        return self.records_out is not None

    @property
    def values(self) -> tuple:
        return SWEEP_VALUES if self.is_sweep else (None,)

    def argv(self, *extra: str) -> list[str]:
        common = ["--corpus", str(self.corpus), "--strategy", self.strategy, "--out", str(self.out)]
        if not self.is_sweep:
            return ["run", *common, *extra]
        values = ",".join(map(str, SWEEP_VALUES))
        return ["sweep", *common, "--axis", "gamma", "--values", values, "--records-out", str(self.records_out), *extra]


def _run_invocation(work: Path, corpus: Path, strategy: str) -> Invocation:
    key = f"{corpus.stem}.{strategy}"
    return Invocation(key, corpus, strategy, work / f"{key}.json")


def _sweep_invocation(work: Path, corpus: Path, strategy: str) -> Invocation:
    key = f"{corpus.stem}.sweep.{strategy}"
    return Invocation(key, corpus, strategy, work / f"{key}.json", work / f"{key}.records.jsonl")


def build_longctx(path: Path, n: int, seed: int, synthetic, corpus_mod) -> None:
    """One transcript made of all the turns of ``make_selfcorrect_corpus(n, seed)``."""
    turns = [turn for t in synthetic.make_selfcorrect_corpus(n, seed) for turn in t.turns]
    joined = corpus_mod.Transcript(id="longctx", category="longctx", turns=tuple(turns))
    corpus_mod.save_transcripts(path, [joined])


def build_workload(name: str, work: Path, seed: int, longctx_n: int, cs) -> tuple[list[Invocation], Path]:
    """The invocations of one set, and the corpus the ``--jobs`` probe uses."""
    if name == "redundant":
        corpora = [DATA / "redundant_2turn.jsonl", DATA / "selfcorrect_3turn.jsonl"]
    elif name == "novel":
        corpora = [DATA / "novel_2turn.jsonl"]
    elif name == "longctx":
        corpora = [work / "longctx.jsonl"]
        build_longctx(corpora[0], longctx_n, seed, cs["synthetic"], cs["corpus"])
    else:
        corpus = DATA / "redundant_2turn.jsonl"
        invocations = [_run_invocation(work, corpus, "baseline")]
        invocations += [_sweep_invocation(work, corpus, s) for s in SWEEP_STRATEGIES]
        return invocations, corpus
    return [_run_invocation(work, c, s) for c in corpora for s in STRATEGIES], corpora[-1]


# -- correctness -------------------------------------------------------------


def _digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


@dataclass
class Parsed:
    """What one invocation wrote: tokens_out per operation, plus pooled totals."""

    tokens: dict  # (transcript_id, turn, sweep value or None) -> tokens_out
    pooled: dict  # sweep value or None -> (tokens_out, sim_time)


def parse_outputs(inv: Invocation) -> Parsed:
    doc = json.loads(inv.out.read_text(encoding="utf-8"))
    if not inv.is_sweep:
        tokens = {(r["transcript_id"], r["turn"], None): r["tokens_out"] for r in doc["records"]}
        overall = doc["aggregate"]["overall"]
        return Parsed(tokens, {None: (overall["tokens_out"], overall["sim_time"])})
    pooled = {p["value"]: (p["metrics"]["tokens_out"], p["metrics"]["sim_time"]) for p in doc["sweep"]["points"]}
    tokens = {}
    for line in inv.records_out.read_text(encoding="utf-8").splitlines():
        r = json.loads(line)
        tokens[(r["transcript_id"], r["turn"], r["sweep_value"])] = r["tokens_out"]
    return Parsed(tokens, pooled)


class Checker:
    """Counts operations and failures over every set a run makes."""

    def __init__(self, turn_keys: dict):
        self.turn_keys = turn_keys  # corpus path -> [(transcript_id, turn)]
        self.reference: dict[str, str] = {}  # invocation key -> digest of its first outputs
        self.first: dict[str, Parsed] = {}
        self.baseline: dict[Path, dict] = {}  # corpus path -> the first baseline run's tokens_out
        self.attempted = 0
        self.failed = 0

    def operations(self, inv: Invocation) -> int:
        return len(self.turn_keys[inv.corpus]) * len(inv.values)

    def check_set(self, invocations: list[Invocation], exit_codes: dict[str, int]) -> int:
        """Check one set's outputs; returns the committed tokens they report."""
        parsed: dict[str, Parsed] = {}
        for inv in invocations:
            if exit_codes[inv.key] != 0:
                continue
            try:
                digest = _digest(*[p for p in (inv.out, inv.records_out) if p is not None])
                result = parse_outputs(inv)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"unreadable output of {inv.key}: {exc!r}", file=sys.stderr)
                continue
            if self.reference.setdefault(inv.key, digest) != digest:
                print(f"{inv.key}: metric file differs from the warm-up's", file=sys.stderr)
                continue
            parsed[inv.key] = result
            self.first.setdefault(inv.key, result)
            if inv.strategy == "baseline" and not inv.is_sweep:
                self.baseline.setdefault(inv.corpus, result.tokens)
        committed = 0
        for inv in invocations:
            self.attempted += self.operations(inv)
            result = parsed.get(inv.key)
            if result is None:
                self.failed += self.operations(inv)
                continue
            ref = self.baseline.get(inv.corpus, {})
            ref_total = sum(ref.values())
            for value in inv.values:
                pooled_ok = result.pooled.get(value, (None,))[0] == ref_total
                for tid, turn in self.turn_keys[inv.corpus]:
                    got = result.tokens.get((tid, turn, value))
                    if not pooled_ok or got is None or got != ref.get((tid, turn, None)):
                        self.failed += 1
            committed += sum(result.tokens.values())
            if inv.is_sweep:
                committed += sum(tok for tok, _ in result.pooled.values())
        return committed

    def sim_speedups(self, invocations: list[Invocation], default_gamma: int) -> dict[str, float]:
        """Pooled sim_tps of each strategy over baseline's, from the warm-up's files.

        A sweep contributes its point at the default gamma.
        """
        pooled: dict[str, list[float]] = {}
        for inv in invocations:
            result = self.first.get(inv.key)
            if result is None:
                continue
            tokens, sim_time = result.pooled.get(default_gamma if inv.is_sweep else None, (0, 0.0))
            acc = pooled.setdefault(inv.strategy, [0, 0.0])
            acc[0] += tokens
            acc[1] += sim_time
        tps = {s: tok / t for s, (tok, t) in pooled.items() if t > 0}
        base = tps.get("baseline")
        return {s: v / base for s, v in tps.items() if base}


# -- running sets ------------------------------------------------------------


def invoke(main, argv: list[str], speed) -> tuple[int, float, float, float]:
    """Call the CLI in process.

    Returns the exit code, its start and end on ``instrument.cpu_clock``,
    and its wall-clock seconds less the host-speed samples taken inside it.
    The host speed is also sampled just before and just after. The CLI's
    stdout and stderr are captured and shown only on failure.
    """
    captured = io.StringIO()
    gc.collect()
    speed.sample()
    sampled = speed.sampling_wall_s
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        w0 = perf_counter()
        t0 = instrument.cpu_clock()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        t1 = instrument.cpu_clock()
        wall = perf_counter() - w0 - (speed.sampling_wall_s - sampled)
    speed.sample()
    if code != 0:
        print(f"copyspec {' '.join(argv)} exited {code}:\n{captured.getvalue()}", file=sys.stderr)
    return code, t0, t1, wall


@dataclass
class SetResult:
    """One set's times, at the reference host speed unless marked raw."""

    wall: float = 0.0  # the CLI invocations only
    raw_wall: float = 0.0  # the same on the wall clock, unscaled
    setup: float = 0.0  # per invocation, from its start to its first Session
    gen: float = 0.0  # per invocation, from its first Session to the end of its last turn
    committed: int = 0
    turns: list = field(default_factory=list)  # (seconds, context length before, tokens committed)
    spans: dict = field(default_factory=dict)  # traced sets: name -> [calls, inclusive_s, self_s]
    counts: Counter = field(default_factory=Counter)  # traced sets
    passes: list = field(default_factory=list)  # traced sets: sessions per transcript per sweep value


def run_set(cs, invocations, checker, speed, probe=None, tracer=None) -> SetResult:
    main = cs["cli"].main if tracer is None else tracer.wrap(cs["cli"].main, "cli.main")
    result = SetResult()
    codes = {}
    for inv in invocations:
        if probe is not None:
            probe.reset_invocation()
        codes[inv.key], t0, t1, raw_wall = invoke(main, inv.argv(), speed)
        wall = speed.scaled(t0, t1)
        result.wall += wall
        result.raw_wall += raw_wall
        if probe is not None and probe.gen_start is not None:
            result.setup += speed.scaled(t0, probe.gen_start)
            result.gen += speed.scaled(probe.gen_start, probe.gen_end or probe.gen_start)
            result.turns += [(speed.scaled(a, b), ctx, n) for a, b, ctx, n in probe.turns]
        if tracer is not None:
            factor = wall / speed.unscaled(t0, t1)
            for name, (calls, total, own) in tracer.take_spans().items():
                rec = result.spans.setdefault(name, [0, 0.0, 0.0])
                rec[0] += calls
                rec[1] += total * factor
                rec[2] += own * factor
            if inv.is_sweep:
                transcripts = len({tid for tid, _ in checker.turn_keys[inv.corpus]})
                result.passes.append(tracer.counts["sessions"] / transcripts / len(inv.values))
            result.counts += tracer.take_counts()
        speed.forget()
    result.committed = checker.check_set(invocations, codes)
    return result


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def harrell_davis(sorted_values: list[float], q: float) -> float:
    """Harrell-Davis estimate of quantile ``q`` of an ascending list.

    A weighted mean of the order statistics around rank ``q * n``, with
    Beta((n+1)q, (n+1)(1-q)) weights, here in their normal approximation.
    A single order statistic is unsteady where the distribution has a
    gap: on two-turn corpora the median falls between the short second
    turns and the long first turns.
    """
    n = len(sorted_values)
    if n == 0:
        return 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    sd = math.sqrt(a * b / ((a + b) ** 2 * (a + b + 1)))
    dist = statistics.NormalDist(q, sd)
    lo, hi = max(1, int((q - 8 * sd) * n)), min(n, int((q + 8 * sd) * n) + 1)
    total = weight = 0.0
    prev = dist.cdf((lo - 1) / n)
    for i in range(lo, hi + 1):
        cur = dist.cdf(i / n)
        total += (cur - prev) * sorted_values[i - 1]
        weight += cur - prev
        prev = cur
    return total / weight


class Budget:
    """Repeat sets until ``seconds`` would be exceeded, after the minimums are met."""

    def __init__(self, seconds: float):
        self.deadline = perf_counter() + seconds
        self.set_seconds: list[float] = []

    def more(self, done: int, min_sets: int) -> bool:
        if done < min_sets:
            return True
        return perf_counter() + statistics.median(self.set_seconds) <= self.deadline

    def timed(self, fn, *args):
        t0 = perf_counter()
        out = fn(*args)
        self.set_seconds.append(perf_counter() - t0)
        return out


def _shuffled(invocations, rng) -> list[Invocation]:
    order = list(invocations)
    rng.shuffle(order)
    return order


# -- end-to-end --------------------------------------------------------------


def measure_end_to_end(cs, invocations, checker, seconds, rng, default_gamma) -> tuple[dict, list[str]]:
    turns_per_set = sum(checker.operations(inv) for inv in invocations)
    min_sets = max(MIN_SETS, -(-MIN_TURNS // turns_per_set))
    sets: list[SetResult] = []
    speed = instrument.HostSpeed()
    with instrument.Probe(cs["engine"], speed) as probe:
        run_set(cs, invocations, checker, speed, probe)  # warm-up and reference outputs
        budget = Budget(seconds)
        while budget.more(len(sets), min_sets):
            sets.append(budget.timed(run_set, cs, _shuffled(invocations, rng), checker, speed, probe))
    turns = sorted(dt * 1e3 for s in sets for dt, _, _ in s.turns)

    series = {
        "wall_s": [s.wall for s in sets],
        "setup_s": [s.setup for s in sets],
        "gen_tok_s": [s.committed / s.gen for s in sets if s.gen > 0],
    }
    metrics = {}
    lines = []
    for name, values in series.items():
        q1, med, q3 = _quartiles(values)
        metrics[name] = med
        lines.append(f"{name:<26}{med:>14.6g} {UNITS[name]:<6} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)} sets")
    raw = statistics.median(s.raw_wall for s in sets)
    lines.append(f"{'wall_s on the wall clock':<26}{raw:>14.6g} {'s':<6} unscaled, host stalls included")
    for name, q in (("turn_ms_p50", 0.5), ("turn_ms_p99", 0.99)):
        metrics[name] = harrell_davis(turns, q)
        beyond = sum(1 for t in turns if t > metrics[name])
        lines.append(f"{name:<26}{metrics[name]:>14.6g} {'ms':<6} n={len(turns)} turns, {beyond} beyond")
    speedups = checker.sim_speedups(invocations, default_gamma)
    for strategy, name in (("copy", "sim_speedup_copy"), ("copy+specdec", "sim_speedup_copy_specdec")):
        metrics[name] = speedups.get(strategy, 0.0)
        lines.append(f"{name:<26}{metrics[name]:>14.6g} {'x':<6} pooled aggregate.overall.sim_tps / baseline's")
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lines.append(f"{'peak_rss_mb':<26}{metrics['peak_rss_mb']:>14.6g} {'MB':<6} this process")
    return metrics, lines


UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "gen_tok_s": "tok/s",
    "turn_ms_p50": "ms",
    "turn_ms_p99": "ms",
    "sim_speedup_copy": "x",
    "sim_speedup_copy_specdec": "x",
    "peak_rss_mb": "MB",
    "corpus.load_s": "s",
    "corpus.tokenize_s": "s",
    "lm.train_s": "s",
    "lm.target.calls": "count",
    "lm.target.tokens": "count",
    "lm.target.self_s": "s",
    "lm.draft.calls": "count",
    "lm.draft.tokens": "count",
    "lm.draft.self_s": "s",
    "lm.target.calls_per_attempt": "calls/attempt",
    "lm.target.calls_per_attempt.baseline": "calls/attempt",
    "lm.target.calls_per_attempt.copy": "calls/attempt",
    "lm.target.calls_per_attempt.specdec": "calls/attempt",
    "lm.target.calls_per_attempt.copy_specdec": "calls/attempt",
    "lm.truncate.calls": "count",
    "lm.truncate_s": "s",
    "lm.spawns": "count",
    "match_index.extend.calls": "count",
    "match_index.extend_s": "s",
    "match_index.mix_ops_per_tok": "ops/tok",
    "match_index.lookup.calls": "count",
    "match_index.lookup_s": "s",
    "match_index.hit_rate": "ratio",
    "engine.attempts": "count",
    "engine.tok_per_attempt": "tok/attempt",
    "engine.copy_accept_ratio": "ratio",
    "engine.draft_accept_ratio": "ratio",
    "engine.self_s": "s",
    "engine.ctx_growth": "ratio",
    "metrics.score_s": "s",
    "metrics.emit_s": "s",
    "analysis.sweep_s": "s",
    "analysis.corpus_passes": "passes/value",
    "cli.self_s": "s",
    "cli.fanout_speedup": "x",
    "trace.overhead": "x",
}

# -- per layer ---------------------------------------------------------------


def cli_defaults(cli) -> argparse.Namespace:
    """The flag values a plain ``copyspec run`` uses."""
    return cli.build_parser().parse_args(["run", "--corpus", "-", "--strategy", "baseline"])


def _accepts_jobs(cli) -> bool:
    try:
        _, extra = cli.build_parser().parse_known_args(["run", "--corpus", "-", "--strategy", "baseline", "--jobs", "1"])
    except SystemExit:
        return False
    return not extra


def fanout_probe(cs, corpus: Path, work: Path, checker: Checker, speed) -> float | None:
    """Wall with ``--jobs 1`` over wall with ``--jobs min(2, nproc)``; None without ``--jobs``."""
    if not _accepts_jobs(cs["cli"]):
        return None
    jobs = min(2, os.cpu_count() or 1)
    base = Invocation(f"{corpus.stem}.fanout", corpus, "copy+specdec", work / "fanout.json")
    walls: dict[int, list[float]] = {1: [], jobs: []}
    for pair in range(FANOUT_PAIRS):
        for j in (1, jobs) if pair % 2 == 0 else (jobs, 1):
            code, t0, t1, wall = invoke(cs["cli"].main, base.argv("--jobs", str(j)), speed)
            walls[j].append(wall * speed.scaled(t0, t1) / speed.unscaled(t0, t1))
            speed.forget()
            checker.check_set([base], {base.key: code})
    return statistics.median(walls[1]) / statistics.median(walls[jobs])


def check_engine_outputs(cs, invocations, checker: Checker) -> None:
    """Every strategy's output tokens against baseline greedy, via ``run_transcript``."""
    corpus_mod, lm, engine = cs["corpus"], cs["lm"], cs["engine"]
    defaults = cli_defaults(cs["cli"])
    strategies = {inv.strategy for inv in invocations} - {"baseline"}
    for corpus in sorted({inv.corpus for inv in invocations}):
        transcripts = corpus_mod.load_transcripts(corpus)
        vocab = corpus_mod.Vocabulary()
        seqs = corpus_mod.training_sequences(transcripts, vocab)
        target = lm.train_kgram(seqs, defaults.target_order, vocab_size=len(vocab))
        draft = lm.train_kgram(seqs, defaults.draft_order, vocab_size=len(vocab))
        values = {g for inv in invocations for g in inv.values if g is not None} or {defaults.gamma}

        def outputs(transcript, config):
            spawned_draft = draft.spawn() if config.allows_draft else None
            results = engine.run_transcript(transcript, vocab, target.spawn(), spawned_draft, config)
            return [r.output for r in results]

        for transcript in transcripts:
            reference = outputs(transcript, engine.EngineConfig(strategy="baseline"))
            for strategy in sorted(strategies):
                for gamma in sorted(values):
                    config = engine.EngineConfig(gamma=gamma, strategy=cs["cli"].STRATEGY_FLAGS[strategy])
                    got = outputs(transcript, config)
                    checker.attempted += len(reference)
                    checker.failed += sum(1 for a, b in zip(got, reference) if a != b)
                    checker.failed += abs(len(got) - len(reference))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ctx_growth(turns: list[tuple[float, int, int]]) -> float:
    """Time per committed token in the tenth of turns with the longest
    contexts, over the same in the tenth with the shortest."""
    ordered = sorted(turns, key=lambda t: t[1])
    tenth = max(1, len(ordered) // 10)

    def us_per_token(chunk):
        return _ratio(sum(t[0] for t in chunk) * 1e6, sum(t[2] for t in chunk))

    return _ratio(us_per_token(ordered[-tenth:]), us_per_token(ordered[:tenth]))


def layer_metrics(spans: dict, counts, passes: list[float]) -> dict[str, float]:
    """Per-layer numbers of one traced set."""

    def self_s(*names):
        return sum(spans.get(n, (0, 0.0, 0.0))[2] for n in names)

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    attempts = sum(v for k, v in counts.items() if k.startswith("attempts."))
    gen_target_calls = sum(v for k, v in counts.items() if k.startswith("gen.target.calls."))
    metrics = {
        "corpus.load_s": self_s("corpus.load"),
        "corpus.tokenize_s": self_s("corpus.tokenize"),
        "lm.train_s": self_s("lm.train"),
        "lm.target.calls": counts["target.calls"],
        "lm.target.tokens": counts["target.tokens"],
        "lm.target.self_s": self_s("lm.target"),
        "lm.draft.calls": counts["draft.calls"],
        "lm.draft.tokens": counts["draft.tokens"],
        "lm.draft.self_s": self_s("lm.draft"),
        "lm.target.calls_per_attempt": _ratio(gen_target_calls, attempts),
    }
    for strategy in STRATEGIES:
        engine_name = strategy.replace("+", "_plus_")
        metrics[f"lm.target.calls_per_attempt.{strategy.replace('+', '_')}"] = _ratio(
            counts[f"gen.target.calls.{engine_name}"], counts[f"attempts.{engine_name}"]
        )
    metrics.update({
        "lm.truncate.calls": calls("lm.truncate"),
        "lm.truncate_s": self_s("lm.truncate"),
        "lm.spawns": calls("lm.spawn"),
        "match_index.extend.calls": calls("match_index.extend"),
        "match_index.extend_s": self_s("match_index.extend"),
        "match_index.mix_ops_per_tok": _ratio(counts["index.mix_ops"], counts["prompt.tokens"] + counts["committed"]),
        "match_index.lookup.calls": counts["index.lookups"],
        "match_index.lookup_s": self_s("match_index.lookup"),
        "match_index.hit_rate": _ratio(counts["index.hits"], calls("match_index.lookup")),
        "engine.attempts": attempts,
        "engine.tok_per_attempt": _ratio(counts["committed"], attempts),
        "engine.copy_accept_ratio": _ratio(counts["copy.accepted"], counts["copy.proposed"]),
        "engine.draft_accept_ratio": _ratio(counts["draft.accepted"], counts["draft.proposed"]),
        "engine.self_s": self_s(*[n for n in spans if n.startswith("engine.")]),
        "metrics.score_s": self_s("metrics.score"),
        "metrics.emit_s": self_s("metrics.emit"),
        "analysis.sweep_s": spans.get("analysis.sweep", (0, 0.0, 0.0))[1],
        "analysis.corpus_passes": statistics.mean(passes) if passes else 0.0,
        "cli.self_s": self_s("cli.main"),
    })
    return metrics


def measure_layers(cs, invocations, checker, seconds, rng, fanout_corpus, work) -> tuple[dict, list[str], bool]:
    tracer = instrument.Tracer(cs)
    traced: list[SetResult] = []
    untraced: list[SetResult] = []
    speed = instrument.HostSpeed()
    probe = instrument.Probe(cs["engine"], speed)
    with probe:
        run_set(cs, invocations, checker, speed, probe)  # warm-up and reference outputs
    budget = Budget(seconds)
    while budget.more(min(len(traced), len(untraced)), 2):
        order = _shuffled(invocations, rng)
        if len(traced) <= len(untraced):
            with tracer:
                traced.append(budget.timed(run_set, cs, order, checker, speed, None, tracer))
        else:
            with probe:
                untraced.append(budget.timed(run_set, cs, order, checker, speed, probe))
    growth = _ctx_growth([turn for s in untraced for turn in s.turns])

    per_set = [layer_metrics(s.spans, s.counts, s.passes) for s in traced]
    first = per_set[0]
    counted = [name for name in first if UNITS[name] != "s"]
    repeat = all(m[name] == first[name] for m in per_set for name in counted)
    metrics = {}
    lines = []
    for name in first:
        if name in counted:  # deterministic: equal in every traced set
            metrics[name] = first[name]
            lines.append(f"{name:<44}{first[name]:>14.6g}  same in all {len(per_set)} traced sets")
            continue
        q1, med, q3 = _quartiles([m[name] for m in per_set])
        metrics[name] = med
        lines.append(f"{name:<44}{med:>14.6g}  q1 {q1:.6g}  q3 {q3:.6g}  n={len(per_set)} traced sets")
    metrics["engine.ctx_growth"] = growth
    lines.append(f"{'engine.ctx_growth':<44}{growth:>14.6g}  untraced turns, longest-context tenth / shortest")
    overhead = statistics.median(s.wall for s in traced) / statistics.median(s.wall for s in untraced)
    metrics["trace.overhead"] = overhead
    lines.append(f"{'trace.overhead':<44}{overhead:>14.6g}  traced set wall / untraced")
    fanout = fanout_probe(cs, fanout_corpus, work, checker, speed)
    if fanout is None:
        lines.append(f"{'cli.fanout_speedup':<44}{'absent':>14}  the CLI has no --jobs")
    else:
        metrics["cli.fanout_speedup"] = fanout
        jobs = min(2, os.cpu_count() or 1)
        lines.append(f"{'cli.fanout_speedup':<44}{fanout:>14.6g}  --jobs 1 wall / --jobs {jobs} wall")
    check_engine_outputs(cs, invocations, checker)
    if not repeat:
        lines.append("count metrics differ between traced sets")
    return metrics, lines, repeat


# -- entry point -------------------------------------------------------------


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1, help="shuffles invocation order; seeds the longctx corpus")
    parser.add_argument("--seconds", type=float, default=25.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--longctx-n", type=int, default=200, help="selfcorrect transcripts joined into longctx")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or args.longctx_n < 1:
        parser.error("--seed must be >= 0, --seconds > 0 and --longctx-n >= 1")
    return args


def run_all(args) -> int:
    """Each workload in its own process, so that peak RSS is its own."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--longctx-n", str(args.longctx_n)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary, sort_keys=True))
    return 0


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    modules = ("analysis", "cli", "corpus", "engine", "lm", "match_index", "metrics", "synthetic")
    try:
        cs = {name: importlib.import_module(f"copyspec.{name}") for name in modules}
    except ImportError as exc:
        print(f"cannot import copyspec from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 1

    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        invocations, fanout_corpus = build_workload(args.workload, work, args.seed, args.longctx_n, cs)
        turn_keys = {}
        for inv in invocations:
            if inv.corpus not in turn_keys:
                transcripts = cs["corpus"].load_transcripts(inv.corpus)
                turn_keys[inv.corpus] = [(t.id, n + 1) for t in transcripts for n in range(len(t.user_turns()))]
        checker = Checker(turn_keys)
        rng = random.Random(args.seed)
        repeat = True
        if args.trace:
            metrics, lines, repeat = measure_layers(cs, invocations, checker, args.seconds, rng, fanout_corpus, work)
        else:
            default_gamma = cli_defaults(cs["cli"]).gamma
            metrics, lines = measure_end_to_end(cs, invocations, checker, args.seconds, rng, default_gamma)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {sys.version.split()[0]}")
    for line in lines:
        print("  " + line)
    print(f"  {'fail_share':<26}{checker.failed}/{checker.attempted} = {_ratio(checker.failed, checker.attempted):.6g}")
    correct = checker.failed == 0 and checker.attempted > 0 and repeat
    result = {
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
