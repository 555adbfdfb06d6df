#!/usr/bin/env python3
"""Same-process A/B of the engine, or of whole commands, of two checkouts.

    python3 scripts/ab_engine.py PARENT_ROOT CHILD_ROOT [--reps N]
    python3 scripts/ab_engine.py PARENT_ROOT CHILD_ROOT --workload NAME [--reps N]

Imports the ``copyspec`` package of each checkout's ``src/`` side by side
in this one process, so both sides share the interpreter, the heap and
the host's moment-to-moment speed.

Engine mode (no ``--workload``): each side builds its models once per
shipped corpus (``data/*.jsonl`` of CHILD_ROOT), as ``copyspec run`` does
at its default orders (target 4, draft 2). Then, for every corpus and
strategy, each side runs ``engine.run_corpus`` once untimed (it resolves
the tables a run reads) and ``--reps`` times timed, the two sides taking
turns at going first. Every run's per-turn metrics must equal the
parent's; a mismatch stops the script with exit code 1. Prints one line
per corpus and strategy: the min and median time of each side in
milliseconds, and the child's change of each. Times are ``perf_counter``
wall time after a ``gc.collect()``, with the cyclic collector paused
during the call and restored after it, as ``copyspec run`` runs a command.

Whole-command mode (``--workload redundant|novel|longctx|sweep``): the
invocations of one set of that benchmark workload
(``perfbench/run.py::build_workload`` of CHILD_ROOT, at that script's
default seed and ``longctx`` size) go through each side's ``cli.main``,
each side writing to a directory of its own. An untimed set comes first, then
``--reps`` timed sets. Each invocation of a set is a pair, one call per
side, and the side that goes first alternates from pair to pair. After
every pair each output file must be byte-identical between the sides,
or the script stops with exit code 1. Times are CPU seconds
(``time.process_time``) of the ``main`` call after a ``gc.collect()``.
Prints, per invocation, each side's median in milliseconds and the
median child/parent ratio of its pairs; then the median ratio over every
pair and how many sets the child won (its summed time below the
parent's).

On a shared host read both modes as leads, and make speed claims with
``scripts/bench_pairs.sh``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import importlib.util
import io
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

TARGET_ORDER, DRAFT_ORDER = 4, 2
WORKLOADS = ("redundant", "novel", "longctx", "sweep")


def load_side(root: Path, names=("corpus", "lm", "engine")) -> dict:
    """The ``names`` modules of ``root/src``, imported apart from any other
    copy of the package."""
    src = str(root / "src")

    def ours():
        return [name for name in sys.modules if name == "copyspec" or name.startswith("copyspec.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    sys.path.insert(0, src)
    importlib.invalidate_caches()
    try:
        mods = {name: importlib.import_module(f"copyspec.{name}") for name in names}
    finally:
        sys.path.remove(src)
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    where = Path(mods[names[-1]].__file__).resolve()
    if Path(src).resolve() not in where.parents:
        raise SystemExit(f"imported {where}, not the copy under {src}")
    return mods


def build(mods: dict, path: Path):
    """Transcripts, prompts, vocabulary and the model pair of one corpus."""
    corpus, lm = mods["corpus"], mods["lm"]
    transcripts = corpus.load_transcripts(path)
    vocab = corpus.Vocabulary()
    sequences, prompts = corpus.ingest(transcripts, vocab)
    full = lm.train_kgram(sequences, max(TARGET_ORDER, DRAFT_ORDER), vocab_size=len(vocab))
    return transcripts, prompts, vocab, full.view(TARGET_ORDER), full.view(DRAFT_ORDER)


def timed_run(mods: dict, built, strategy: str):
    """Seconds of one ``run_corpus`` call, and its per-turn metrics as dicts."""
    engine = mods["engine"]
    transcripts, prompts, vocab, target, draft = built
    config = engine.EngineConfig(strategy=strategy)
    gc.collect()
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        runs = engine.run_corpus(transcripts, prompts, vocab, target, draft, [config])
        seconds = perf_counter() - t0
    finally:
        if collecting:
            gc.enable()
    metrics = [(tid, [(turn, m.to_dict()) for turn, m in turns]) for tid, _, (turns,) in runs]
    return seconds, metrics


def engine_mode(args, parser) -> int:
    sides = {"parent": load_side(args.parent), "child": load_side(args.child)}
    corpora = sorted((args.child / "data").glob("*.jsonl"))
    if not corpora:
        parser.error(f"no corpora in {args.child / 'data'}")
    strategies = sides["parent"]["engine"].STRATEGIES

    print(f"{'corpus':<20}{'strategy':<20}{'parent min/med ms':>20}{'child min/med ms':>20}{'min':>9}{'median':>9}")
    for path in corpora:
        built = {side: build(mods, path) for side, mods in sides.items()}
        for strategy in strategies:
            expected = timed_run(sides["parent"], built["parent"], strategy)[1]
            if timed_run(sides["child"], built["child"], strategy)[1] != expected:
                print(f"error: {path.stem} {strategy}: the child's metrics differ from the parent's", file=sys.stderr)
                return 1
            times = {"parent": [], "child": []}
            for rep in range(args.reps):
                for side in ("parent", "child") if rep % 2 == 0 else ("child", "parent"):
                    seconds, metrics = timed_run(sides[side], built[side], strategy)
                    if metrics != expected:
                        print(f"error: {path.stem} {strategy}: {side} metrics changed on rep {rep}", file=sys.stderr)
                        return 1
                    times[side].append(seconds * 1e3)
            p, c = times["parent"], times["child"]
            pmin, pmed, cmin, cmed = min(p), statistics.median(p), min(c), statistics.median(c)
            print(
                f"{path.stem:<20}{strategy:<20}{pmin:>9.2f} /{pmed:>8.2f}{cmin:>11.2f} /{cmed:>8.2f}"
                f"{cmin / pmin - 1:>+9.1%}{cmed / pmed - 1:>+9.1%}"
            )
    return 0


def load_benchmark(root: Path):
    """``root/perfbench/run.py`` as a module, its ``instrument`` import resolved."""
    bench = root / "perfbench"
    sys.path.insert(0, str(bench))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(bench))
    return module


def timed_main(cli, argv: list[str]) -> float:
    """CPU seconds of one ``cli.main(argv)`` call, its output captured; stops the script if it fails."""
    captured = io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        t0 = process_time()
        code = cli.main(argv)
        seconds = process_time() - t0
    if code != 0:
        raise SystemExit(f"copyspec {' '.join(argv)} exited {code}:\n{captured.getvalue()}")
    return seconds


def command_mode(args) -> int:
    names = ("corpus", "synthetic", "cli")  # build_workload writes the longctx corpus with the first two
    sides = {"parent": load_side(args.parent, names), "child": load_side(args.child, names)}
    bench = load_benchmark(args.child)
    defaults = bench._parse_args(["--workload", args.workload])  # the benchmark's seed and longctx size
    with tempfile.TemporaryDirectory(prefix="ab-commands-") as tmp:
        invocations = {}
        for side, mods in sides.items():
            work = Path(tmp) / side
            work.mkdir()
            invocations[side] = bench.build_workload(args.workload, work, defaults.seed, defaults.longctx_n, mods)[0]
        keys = [inv.key for inv in invocations["parent"]]
        times = {side: {key: [] for key in keys} for side in sides}
        pair = 0
        for rep in range(args.reps + 1):  # set 0 is the warm-up
            for j, key in enumerate(keys):
                for side in ("parent", "child") if pair % 2 == 0 else ("child", "parent"):
                    seconds = timed_main(sides[side]["cli"], invocations[side][j].argv())
                    if rep:
                        times[side][key].append(seconds)
                pair += 1
                files = [[p.read_bytes() for p in (inv.out, inv.records_out) if p is not None]
                         for inv in (invocations["parent"][j], invocations["child"][j])]
                if files[0] != files[1]:
                    print(f"error: {key}: the child's output files differ from the parent's", file=sys.stderr)
                    return 1

    ratios = {key: [c / p for p, c in zip(times["parent"][key], times["child"][key])] for key in keys}
    print(f"{'invocation':<40}{'parent ms':>11}{'child ms':>11}{'median ratio':>14}")
    for key in keys:
        pmed, cmed = (statistics.median(times[side][key]) * 1e3 for side in ("parent", "child"))
        print(f"{key:<40}{pmed:>11.2f}{cmed:>11.2f}{statistics.median(ratios[key]) - 1:>+14.1%}")
    totals = {side: [sum(times[side][key][rep] for key in keys) for rep in range(args.reps)] for side in sides}
    wins = sum(c < p for p, c in zip(totals["parent"], totals["child"]))
    every = [r for key in keys for r in ratios[key]]
    print(f"median per-invocation ratio {statistics.median(every) - 1:+.2%} over {len(every)} pairs; "
          f"child won {wins} of {args.reps} sets; output files byte-identical")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("child", type=Path, help="root of the child checkout")
    parser.add_argument("--reps", type=int, default=20, help="timed runs, or timed sets, per side (default 20)")
    parser.add_argument("--workload", choices=WORKLOADS, default=None,
                        help="time whole commands of one set of this benchmark workload")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    return engine_mode(args, parser) if args.workload is None else command_mode(args)


if __name__ == "__main__":
    sys.exit(main())
