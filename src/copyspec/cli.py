"""Command-line surface: run, sweep, train-lm, skipgram, report.

Every command is deterministic given the corpus bytes and the flags
(``skipgram`` also takes a seed): output files carry no timestamps,
wall-clock fields or the corpus path, records are sorted by transcript
id regardless of worker scheduling, and files are written atomically.
Wall-clock duration is logged to stderr only. Only ``skipgram`` imports
the numpy-based :mod:`copyspec.analysis`, so ``run`` and ``sweep`` load
just the engine path. :func:`main` runs a command with the cyclic garbage
collector paused: a command's data holds no reference cycles, so the
collector would only walk the count tables and records as they grow.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time
from pathlib import Path

from .corpus import Transcript, Vocabulary, file_fingerprint, ingest, load_transcripts, training_sequences, utf8_error
from .engine import EngineConfig, run_corpus, sweep
from .lm import KgramLM, train_kgram
from .metrics import (
    CostModel,
    aggregate,
    atomic_write_text,
    metrics_record,
    record_config,
    records_to_csv,
    records_to_json,
    records_to_jsonl,
)

DEFAULT_SEED = 1729

STRATEGY_FLAGS = {
    "baseline": "baseline",
    "copy": "copy",
    "specdec": "specdec",
    "copy+specdec": "copy_plus_specdec",
}


class MissingBaseline(RuntimeError):
    """Speedup was requested but no baseline-strategy metrics file is present."""


def _positive(text):
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _nonnegative_float(text):
    value = float(text)
    if not 0 <= value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


def _positive_list(text):
    try:
        values = [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("expected at least one integer")
    if min(values) <= 0:
        raise argparse.ArgumentTypeError(f"every value must be positive, got {text!r}")
    return values


def _attach_negative_lists(argv: list[str]) -> list[str]:
    """Rewrite ``--values -1,4`` as ``--values=-1,4``: argparse would read
    ``-1,4`` as an option flag and never show ``_positive_list``'s message."""
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in ("--values", "--gammas") and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="copyspec",
        description="Speculative copy generation over reference language models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--corpus", required=True, help="transcript JSONL file")
        p.add_argument("--gamma", type=_positive, default=3, help="match window length (default 3)")
        p.add_argument("--chunk", type=_positive, default=10, help="max tokens per copy proposal (default 10)")
        p.add_argument("--draft-tokens", type=_positive, default=3, help="draft proposal length (default 3)")
        p.add_argument("--max-new-tokens", type=_positive, default=1024, help="per-turn budget (default 1024)")
        p.add_argument("--cost-target", type=_nonnegative_float, default=1.0, help="units per target pass")
        p.add_argument("--cost-target-token", type=_nonnegative_float, default=0.02, help="units per scored token")
        p.add_argument("--cost-draft-token", type=_nonnegative_float, default=0.1, help="units per drafted token")
        p.add_argument("--cost-index", type=_nonnegative_float, default=0.0, help="units per index operation")
        p.add_argument("--target-order", type=_positive, default=4, help="target k-gram order (default 4; --model-path sets it)")
        p.add_argument("--draft-order", type=_positive, default=2, help="draft k-gram order (default 2)")
        p.add_argument("--model-path", default=None, help="load the target model from a dump instead of training")
        p.add_argument("--jobs", type=_positive, default=1, help="transcript-level worker processes")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_run = sub.add_parser("run", help="run one strategy over a corpus and emit per-turn metrics")
    add_common(p_run)
    p_run.add_argument("--strategy", required=True, choices=sorted(STRATEGY_FLAGS))

    p_sweep = sub.add_parser("sweep", help="sweep gamma or chunk length over a corpus")
    add_common(p_sweep)
    p_sweep.add_argument("--strategy", default="copy", choices=sorted(STRATEGY_FLAGS))
    p_sweep.add_argument("--axis", required=True, choices=("gamma", "chunk"))
    p_sweep.add_argument("--values", required=True, type=_positive_list, help="comma-separated, positive, strictly increasing")
    p_sweep.add_argument("--records-out", default=None, help="also write raw per-transcript records (JSONL)")

    p_train = sub.add_parser("train-lm", help="train a k-gram model on a corpus and dump it")
    p_train.add_argument("--corpus", required=True)
    p_train.add_argument("--order", type=_positive, default=4)
    p_train.add_argument("--out", required=True)

    p_skip = sub.add_parser("skipgram", help="left-context embedding study: mean cosine similarity per gamma")
    p_skip.add_argument("--corpus", required=True)
    p_skip.add_argument("--gammas", type=_positive_list, default=[2, 3, 4, 5], help="comma-separated positive gammas")
    p_skip.add_argument("--dim", type=_positive, default=16)
    p_skip.add_argument("--epochs", type=_positive, default=10)
    p_skip.add_argument("--lr", type=_nonnegative_float, default=0.1)
    p_skip.add_argument("--seed", type=int, default=DEFAULT_SEED, help=f"training seed (default {DEFAULT_SEED})")
    p_skip.add_argument("--out", default=None)

    p_report = sub.add_parser("report", help="tabulate metric files; speedups are against the baseline file")
    p_report.add_argument("paths", nargs="+", help="JSON metric files from `copyspec run`")
    p_report.add_argument("--no-speedup", action="store_true", help="omit the speedup column")
    p_report.add_argument("--out", default=None, help="also write the table as markdown")

    return parser


def _load_corpus(path: str) -> list[Transcript]:
    transcripts = load_transcripts(path)
    if not transcripts:
        raise RuntimeError(f"corpus {path} contains no transcripts")
    return transcripts


def _build_models(args, transcripts, config: EngineConfig):
    """Vocabulary, user-turn prompts, target and (if the strategy drafts)
    draft model, from one tokenizing pass and one training.

    Trained models are views at their own order of one set of argmax
    tables, which does not depend on the highest order counted. Set-up
    builds the orders a run reads. That is the target's order, and when
    the strategy drafts, the draft's. The target's verification pass
    stops at the first rejected token, and on the shipped corpora every
    backoff below the target's order fell after one, so no other order is
    read; any other order is still built on its first backoff read. A
    loaded target keeps its dump's order, whatever ``--target-order``
    says, and may come from another corpus, so the draft is then trained
    on this one, over the target's vocabulary, whose ids may run past
    this corpus's.
    """
    wants_draft = config.allows_draft
    t, d = args.target_order, args.draft_order
    if args.model_path:
        target, symbols = KgramLM.load(args.model_path)
        vocab = Vocabulary(list(symbols) if symbols else None)
        seqs, prompts = ingest(transcripts, vocab)
        target.vocab_size = max(target.vocab_size, len(vocab))
        draft = train_kgram(seqs, d, vocab_size=target.vocab_size) if wants_draft else None
        return vocab, prompts, target, draft
    vocab = Vocabulary()
    seqs, prompts = ingest(transcripts, vocab)
    full = train_kgram(seqs, max(t, d) if wants_draft else t, vocab_size=len(vocab))
    return vocab, prompts, full.view(t), full.view(d) if wants_draft else None


def _engine_config(args) -> EngineConfig:
    return EngineConfig(
        gamma=args.gamma,
        chunk_len=args.chunk,
        draft_len=args.draft_tokens,
        strategy=STRATEGY_FLAGS[args.strategy],
        max_new_tokens=args.max_new_tokens,
    )


def _cost_model(args) -> CostModel:
    return CostModel(
        target_pass_cost=args.cost_target,
        target_per_token_cost=args.cost_target_token,
        draft_token_cost=args.cost_draft_token,
        index_op_cost=args.cost_index,
    )


def _config_echo(args, target_order: int, extra=None) -> dict:
    echo = {
        "strategy": args.strategy,
        "gamma": args.gamma,
        "chunk_len": args.chunk,
        "draft_len": args.draft_tokens,
        "max_new_tokens": args.max_new_tokens,
        "cost_target": args.cost_target,
        "cost_target_token": args.cost_target_token,
        "cost_draft_token": args.cost_draft_token,
        "cost_index": args.cost_index,
        "target_order": target_order,
        "draft_order": args.draft_order,
        "corpus_fingerprint": file_fingerprint(args.corpus),
    }
    echo.update(extra or {})
    return echo


def _by_id(runs):
    """Records are emitted sorted by transcript id, whatever the corpus order."""
    return sorted(runs, key=lambda item: item[0])


def _write(args, text: str) -> None:
    """Write ``text`` to ``--out`` if given, else to stdout."""
    if args.out:
        atomic_write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit(args, payload: dict, records: list[dict]) -> None:
    if args.format == "json":
        text = records_to_json(payload)
    else:
        text = records_to_csv(records)
        print(json.dumps({"aggregate": payload["aggregate"]}, sort_keys=True), file=sys.stderr)
    _write(args, text)


def cmd_run(args) -> int:
    t0 = time.monotonic()
    transcripts = _load_corpus(args.corpus)
    config = _engine_config(args)
    vocab, prompts, target, draft = _build_models(args, transcripts, config)
    echo = _config_echo(args, target.order)
    runs = run_corpus(transcripts, prompts, vocab, target, draft, [config], args.cost, args.jobs)

    fields = record_config(echo)
    records = []
    by_turn: dict[int, list] = {}
    by_category: dict[str, list] = {}
    flat = []
    for tid, category, (turns,) in _by_id(runs):
        for turn, metrics in turns:
            records.append(metrics_record(tid, category, turn, args.strategy, metrics, fields))
            by_turn.setdefault(turn, []).append(metrics)
            by_category.setdefault(category, []).append(metrics)
            flat.append(metrics)
    payload = {
        "config": echo,
        "records": records,
        "aggregate": {
            "overall": aggregate(flat).to_dict(),
            "by_turn": {str(turn): aggregate(ms).to_dict() for turn, ms in sorted(by_turn.items())},
            "by_category": {cat: aggregate(ms).to_dict() for cat, ms in sorted(by_category.items())},
        },
    }
    _emit(args, payload, records)
    print(f"run: {len(records)} records in {time.monotonic() - t0:.1f}s wall", file=sys.stderr)
    return 0


def cmd_sweep(args) -> int:
    t0 = time.monotonic()
    transcripts = _load_corpus(args.corpus)
    config = _engine_config(args)
    vocab, prompts, target, draft = _build_models(args, transcripts, config)
    axis = "gamma" if args.axis == "gamma" else "chunk_len"
    echo = _config_echo(args, target.order, {"axis": axis, "values": ",".join(map(str, args.values))})

    result = sweep(transcripts, prompts, vocab, target, draft, config, axis, args.values, args.cost, args.jobs)
    payload = {"config": echo, "sweep": result.to_dict()}

    if args.records_out:
        fields = record_config(echo)
        runs = _by_id(result.runs)
        records = (  # encoded as they are made, so only the lines are held
            metrics_record(tid, category, turn, args.strategy, metrics, value_fields)
            for i, value_fields in enumerate({**fields, "sweep_value": value} for value in args.values)
            for tid, category, per_config in runs
            for turn, metrics in per_config[i]
        )
        atomic_write_text(args.records_out, records_to_jsonl(records))

    if args.format == "json":
        text = records_to_json(payload)
    else:
        rows = ["value,metric,number"]
        rows += [f"{v},{name},{num!r}" for v, name, num in result.long_rows()]
        text = "\n".join(rows) + "\n"
    _write(args, text)
    print(f"sweep: {len(args.values)} points in {time.monotonic() - t0:.1f}s wall", file=sys.stderr)
    return 0


def cmd_train_lm(args) -> int:
    transcripts = _load_corpus(args.corpus)
    vocab = Vocabulary()
    seqs = training_sequences(transcripts, vocab)
    model = train_kgram(seqs, args.order, vocab_size=len(vocab))
    model.save(args.out, vocab_symbols=vocab.symbols)
    print(f"trained order-{args.order} model on {len(seqs)} transcripts -> {args.out}", file=sys.stderr)
    return 0


def cmd_skipgram(args) -> int:
    from .analysis import cs_study  # the one command that needs numpy

    transcripts = _load_corpus(args.corpus)
    vocab = Vocabulary()
    seqs = training_sequences(transcripts, vocab)
    points = cs_study(seqs, args.gammas, dim=args.dim, epochs=args.epochs, learning_rate=args.lr, seed=args.seed)
    payload = {
        "config": {
            "corpus_fingerprint": file_fingerprint(args.corpus),
            "gammas": args.gammas,
            "dim": args.dim,
            "epochs": args.epochs,
            "lr": args.lr,
            "seed": args.seed,
        },
        "points": [{"gamma": g, "mean_cs": cs} for g, cs in points],
    }
    _write(args, records_to_json(payload))
    return 0


REPORT_COLUMNS = ("sim_tps", "pct_copied", "tau1", "tau2")


def _is_run_file(doc) -> bool:
    """Whether ``doc`` holds what report reads of a `copyspec run` metrics file:
    a strategy, and at least one turn's columns under its turn number."""
    try:
        by_turn = doc["aggregate"]["by_turn"]
        return isinstance(doc["config"]["strategy"], str) and len(by_turn) > 0 and all(
            turn.isdigit() and turn == str(int(turn)) != "0"  # "1", "2", ..., as run writes them
            and isinstance(vals, dict) and all(name in vals for name in REPORT_COLUMNS)
            for turn, vals in by_turn.items()
        )
    except (KeyError, TypeError, AttributeError, ValueError):  # a part missing, not a dict, or no int
        return False


def cmd_report(args) -> int:
    docs = []
    for path in args.paths:
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            raise RuntimeError(f"{path} is {utf8_error(exc)}") from None
        except (ValueError, RecursionError) as exc:  # the latter: nested too deep
            raise RuntimeError(f"{path} is not JSON: {exc}") from None
        if not _is_run_file(doc):
            raise RuntimeError(f"{path} is not a metrics file produced by `copyspec run`")
        for turn, vals in doc["aggregate"]["by_turn"].items():
            for name in REPORT_COLUMNS:
                v = vals[name]
                if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:  # bool, NaN, inf, too big
                    raise RuntimeError(f"{path}: turn {turn} {name} is {json.dumps(v)}, not a finite number")
        docs.append(doc)

    fingerprints = [doc["config"].get("corpus_fingerprint") for doc in docs]
    if any(fingerprint != fingerprints[0] for fingerprint in fingerprints):
        print("warning: metric files were produced from different corpora", file=sys.stderr)
    # speedups divide simulated rates, so they mean nothing across cost models
    costs = [{k: v for k, v in doc["config"].items() if k.startswith("cost_")} for doc in docs]
    if any(cost != costs[0] for cost in costs):
        print("warning: metric files were produced under different cost models", file=sys.stderr)

    # a run file pools its turns in `aggregate.by_turn`, under its one strategy
    rows, sources = {}, {}
    for path, doc in zip(args.paths, docs):
        for turn, vals in doc["aggregate"]["by_turn"].items():
            key = (doc["config"]["strategy"], int(turn))
            if key in rows:
                raise RuntimeError(f"{sources[key]} and {path} both hold {key[0]} turn {key[1]}")
            rows[key], sources[key] = vals, path

    baseline = {turn: vals for (strategy, turn), vals in rows.items() if strategy == "baseline"}
    want_speedup = not args.no_speedup
    if want_speedup:
        if not baseline:
            raise MissingBaseline(f"no baseline run among {', '.join(args.paths)}; pass one or use --no-speedup")
        for turn, vals in baseline.items():
            if vals["sim_tps"] <= 0:
                raise RuntimeError(f"{sources['baseline', turn]}: turn {turn} sim_tps is {vals['sim_tps']}, not positive")

    header = ["strategy", "turn", *REPORT_COLUMNS]
    if want_speedup:
        header.append("speedup_vs_baseline")
    lines = []
    for (strategy, turn), vals in sorted(rows.items()):
        line = [
            strategy,
            str(turn),
            *(f"{vals[name]:.4f}" for name in REPORT_COLUMNS),
        ]
        if want_speedup:
            ref = baseline.get(turn)
            line.append(f"{vals['sim_tps'] / ref['sim_tps']:.4f}" if ref else "n/a")
        lines.append(line)

    widths = [max(len(h), *(len(l[i]) for l in lines)) for i, h in enumerate(header)]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))

    if args.out:
        md = ["| " + " | ".join(header) + " |", "|" + "|".join("---" for _ in header) + "|"]
        md += ["| " + " | ".join(line) + " |" for line in lines]
        atomic_write_text(args.out, "\n".join(md) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    if getattr(args, "values", None) is not None:
        if any(b <= a for a, b in zip(args.values, args.values[1:])):
            parser.error("--values must be strictly increasing")
    if args.command in ("run", "sweep"):
        try:
            args.cost = _cost_model(args)
        except ValueError:  # the flags are finite and >= 0, so both target costs are 0
            parser.error("--cost-target and --cost-target-token cannot both be 0: no attempt would take time")
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "train-lm": cmd_train_lm,
        "skipgram": cmd_skipgram,
        "report": cmd_report,
    }
    collecting = gc.isenabled()  # paused while the command runs, then left as the caller had it
    gc.disable()
    try:
        return handlers[args.command](args)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # runtime errors -> exit 1 with a diagnostic
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
