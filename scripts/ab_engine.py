#!/usr/bin/env python3
"""Same-process A/B of the engine of two checkouts.

    python3 scripts/ab_engine.py PARENT_ROOT CHILD_ROOT [--reps N]

Imports the ``copyspec`` package of each checkout's ``src/`` side by side
in this one process, so both sides share the interpreter, the heap and
the host's moment-to-moment speed. Each side builds its models once per
shipped corpus (``data/*.jsonl`` of CHILD_ROOT), as ``copyspec run`` does
at its default orders (target 4, draft 2). Then, for every corpus and
strategy, each side runs ``engine.run_corpus`` once untimed (it resolves
the tables a run reads) and ``--reps`` times timed, the two sides taking
turns at going first. Every run's per-turn metrics must equal the
parent's; a mismatch stops the script with exit code 1.

Prints one line per corpus and strategy: the min and median time of each
side in milliseconds, and the child's change of each. Times are
``perf_counter`` wall time after a ``gc.collect()``, with the cyclic
collector paused during the call and restored after it, as ``copyspec
run`` runs a command; on a shared host read them as leads, and make
speed claims with ``scripts/bench_pairs.sh``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
from pathlib import Path
from time import perf_counter

TARGET_ORDER, DRAFT_ORDER = 4, 2


def load_side(root: Path) -> dict:
    """The ``corpus``, ``lm`` and ``engine`` modules of ``root/src``, imported
    apart from any other copy of the package."""
    src = str(root / "src")

    def ours():
        return [name for name in sys.modules if name == "copyspec" or name.startswith("copyspec.")]

    saved = {name: sys.modules.pop(name) for name in ours()}
    sys.path.insert(0, src)
    importlib.invalidate_caches()
    try:
        mods = {name: importlib.import_module(f"copyspec.{name}") for name in ("corpus", "lm", "engine")}
    finally:
        sys.path.remove(src)
        for name in ours():
            del sys.modules[name]
        sys.modules.update(saved)
    where = Path(mods["engine"].__file__).resolve()
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("child", type=Path, help="root of the child checkout")
    parser.add_argument("--reps", type=int, default=20, help="timed runs per side and case (default 20)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
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


if __name__ == "__main__":
    sys.exit(main())
