#!/usr/bin/env python3
"""Peak memory of ``copyspec run`` in one or more checkouts.

    python3 scripts/peak_memory.py ROOT [ROOT ...] [--reps N]

For every corpus and strategy, runs ``copyspec run`` from each
checkout's ``src/`` in a fresh subprocess, the checkouts taking turns at
going first, ``--reps`` times each (default 3). A run's figure is its
max RSS (``ru_maxrss``) at exit less the max RSS right after ``import
copyspec.cli``: what the command itself adds. Every metric file must
equal the first checkout's; a mismatch or a failed run stops the script
with exit code 1.

Corpora: the shipped ``data/*.jsonl`` of the checkout holding this
script, and the ``longctx`` corpus that ``perfbench/run.py``'s
``build_longctx`` joins at the benchmark's default size and seed.

Prints one line per corpus and strategy: each checkout's minimum in MB,
and the change of every later checkout against the first. RSS depends
on the allocator and on what the host's other processes leave free, so
read the table as leads, and make claims with ``scripts/bench_pairs.sh``.
"""

from __future__ import annotations

import argparse
import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STRATEGIES = ("baseline", "copy", "specdec", "copy+specdec")
LONGCTX_N, LONGCTX_SEED = 200, 1  # perfbench/run.py's --longctx-n and --seed defaults

CHILD = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
import copyspec.cli
base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = copyspec.cli.main(sys.argv[2:])
print(code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)
"""


def build_longctx(path: str) -> None:
    """Write the benchmark's ``longctx`` corpus with this checkout's code.

    :func:`main` calls it in a subprocess: on Linux a child's ``ru_maxrss``
    starts at its parent's RSS when it was forked, so the parent must stay
    smaller than any run it measures.
    """
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
    spec.loader.exec_module(bench)
    from copyspec import corpus, synthetic

    bench.build_longctx(Path(path), LONGCTX_N, LONGCTX_SEED, synthetic, corpus)


def peak_mb(root: Path, corpus: Path, strategy: str, out: Path) -> float:
    """MB of max RSS that one ``copyspec run`` adds above its import."""
    argv = ["run", "--corpus", str(corpus), "--strategy", strategy, "--out", str(out)]
    proc = subprocess.run([sys.executable, "-c", CHILD, str(root / "src"), *argv], cwd=out.parent,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, check=False)
    fields = proc.stdout.split()
    if proc.returncode != 0 or len(fields) != 2 or fields[0] != "0":
        raise SystemExit(f"error: {root}: {strategy} on {corpus.name} failed:\n{proc.stderr}")
    return int(fields[1]) / 1024


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("roots", nargs="+", type=Path, help="checkout roots; changes are against the first")
    parser.add_argument("--reps", type=int, default=3, help="runs per checkout, corpus and strategy (default 3)")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    roots = [root.resolve() for root in args.roots]
    for i, root in enumerate(roots):
        print(f"# root{i}: {root}")

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        longctx = work / "longctx.jsonl"
        code = "import sys; sys.path.insert(0, sys.argv[1]); import peak_memory as m; m.build_longctx(sys.argv[2])"
        subprocess.run([sys.executable, "-c", code, str(ROOT / "scripts"), str(longctx)], check=True)
        corpora = [*sorted((ROOT / "data").glob("*.jsonl")), longctx]
        header = f"{'corpus':<20}{'strategy':<15}" + "".join(f"{f'root{i} MB':>11}" for i in range(len(roots)))
        print(header + "".join(f"{f'root{i}':>9}" for i in range(1, len(roots))))
        for corpus in corpora:
            for strategy in STRATEGIES:
                mb: list[list[float]] = [[] for _ in roots]
                expected = None
                for rep in range(args.reps):
                    order = range(len(roots)) if rep % 2 == 0 else reversed(range(len(roots)))
                    for i in order:
                        mb[i].append(peak_mb(roots[i], corpus, strategy, work / "out.json"))
                        data = (work / "out.json").read_bytes()
                        if expected is None:  # root0 goes first on rep 0
                            expected = data
                        elif data != expected:
                            print(f"error: {corpus.stem} {strategy}: root{i}'s metric file differs from root0's",
                                  file=sys.stderr)
                            return 1
                low = [min(values) for values in mb]
                print(f"{corpus.stem:<20}{strategy:<15}" + "".join(f"{v:>11.1f}" for v in low)
                      + "".join(f"{v / low[0] - 1:>+9.1%}" for v in low[1:]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
