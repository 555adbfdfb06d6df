import csv
import gc
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import copyspec
from copyspec.cli import STRATEGY_FLAGS, _build_models, _engine_config, _load_corpus, build_parser, main
from copyspec.engine import run_corpus
from copyspec.lm import KgramLM
from copyspec.metrics import RunMetrics, aggregate
from copyspec.synthetic import make_redundant_corpus
from copyspec.corpus import load_transcripts, save_transcripts


@pytest.fixture(scope="module")
def small_corpus_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "small.jsonl"
    save_transcripts(path, make_redundant_corpus(n=8, seed=99))
    return path


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_run_then_report_speedup(small_corpus_path, tmp_path, capsys):
    base = tmp_path / "base.json"
    copy = tmp_path / "copy.json"
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base) == 0
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", copy) == 0
    assert run_cli("report", base, copy) == 0
    out = capsys.readouterr().out
    rows = [line.split() for line in out.splitlines() if line.startswith("copy")]
    turn2 = next(r for r in rows if r[1] == "2")
    assert float(turn2[-1]) > 1.0  # speedup on the redundant second turn


def test_run_rejects_zero_budget(small_corpus_path):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--max-new-tokens", "0")
    assert err.value.code == 2


def test_unknown_strategy_exits_2(small_corpus_path):
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--corpus", small_corpus_path, "--strategy", "magic")
    assert err.value.code == 2


def test_missing_corpus_is_runtime_error(tmp_path, capsys):
    assert run_cli("run", "--corpus", tmp_path / "nope.jsonl", "--strategy", "copy") == 1
    assert "error:" in capsys.readouterr().err


def test_command_runs_with_the_collector_paused(small_corpus_path, tmp_path, monkeypatch):
    seen = []

    def recording_run_corpus(*args, **kwargs):
        seen.append(gc.isenabled())
        return run_corpus(*args, **kwargs)

    monkeypatch.setattr("copyspec.cli.run_corpus", recording_run_corpus)
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", tmp_path / "m.json") == 0
    assert seen == [False]


@pytest.fixture
def collector_state():
    """Restore the collector's state after a test that sets it."""
    enabled = gc.isenabled()
    yield
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
def test_main_leaves_the_collector_as_it_found_it(small_corpus_path, tmp_path, collector_state, enabled):
    (gc.enable if enabled else gc.disable)()
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", tmp_path / "m.json") == 0
    assert gc.isenabled() is enabled
    assert run_cli("run", "--corpus", tmp_path / "nope.jsonl", "--strategy", "copy") == 1
    assert gc.isenabled() is enabled
    with pytest.raises(SystemExit) as err:
        run_cli("run", "--corpus", small_corpus_path, "--strategy", "magic")
    assert err.value.code == 2
    assert gc.isenabled() is enabled


def test_commands_leave_no_cycles_behind(data_dir, tmp_path, collector_state):
    # the pause is safe only if a command's garbage does not grow with its work:
    # what the collector finds after a one-transcript run, it finds after every run and sweep
    one = tmp_path / "one.jsonl"
    save_transcripts(one, make_redundant_corpus(n=1, seed=99))
    redundant = data_dir / "redundant_2turn.jsonl"
    commands = [["run", "--corpus", one, "--strategy", "copy"]]
    commands += [["run", "--corpus", redundant, "--strategy", strategy] for strategy in STRATEGY_FLAGS]
    commands.append(["sweep", "--corpus", redundant, "--strategy", "copy+specdec", "--axis", "gamma",
                     "--values", "2,3,4", "--records-out", tmp_path / "s.jsonl"])
    found = []
    for argv in commands:
        gc.collect()
        gc.disable()
        assert run_cli(*argv, "--out", tmp_path / "out.json") == 0
        found.append(gc.collect())
    assert found == [found[0]] * len(commands)


def test_run_deterministic_across_repeats(small_corpus_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_run_output_does_not_depend_on_corpus_path(small_corpus_path, tmp_path, monkeypatch):
    # metric files name the corpus by fingerprint, so how its path is spelled does not matter
    monkeypatch.chdir(small_corpus_path.parent)
    outputs = []
    for corpus in (small_corpus_path.name, small_corpus_path.resolve()):
        out = tmp_path / f"{len(outputs)}.json"
        assert run_cli("run", "--corpus", corpus, "--strategy", "copy", "--out", out) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_jobs_parallelism_is_order_stable(small_corpus_path, tmp_path):
    run = ["run", "--corpus", small_corpus_path, "--strategy", "copy"]
    sweep = ["sweep", "--corpus", small_corpus_path, "--strategy", "copy+specdec", "--axis", "gamma", "--values", "2,3,5"]
    for argv in (run, sweep):
        outputs = {}
        for jobs in ("1", "2"):
            out, records = tmp_path / f"{jobs}.json", tmp_path / f"{jobs}.records.jsonl"
            extra = ["--records-out", records] if argv is sweep else []
            assert run_cli(*argv, "--jobs", jobs, "--out", out, *extra) == 0
            outputs[jobs] = [out.read_bytes()] + ([records.read_bytes()] if extra else [])
        assert outputs["1"] == outputs["2"]


def test_jobs_pickle_each_model_once_per_worker(small_corpus_path, tmp_path, monkeypatch):
    # the jobs go out in one chunk per worker, and pickling a chunk writes
    # the shared model pair once, so the parent pickles each model at most
    # once per worker rather than once per transcript
    pickled = Counter()
    getstate = KgramLM.__getstate__

    def counted(self):
        pickled[id(self)] += 1
        return getstate(self)

    monkeypatch.setattr(KgramLM, "__getstate__", counted)
    argv = ["run", "--corpus", small_corpus_path, "--strategy", "copy+specdec", "--jobs", "2"]
    assert run_cli(*argv, "--out", tmp_path / "m.json") == 0
    assert len(pickled) == 2  # the target and the draft
    assert max(pickled.values()) <= 2, pickled


def _count_calls(monkeypatch, module, name):
    """Count calls of ``module.name`` made through any copyspec module that binds it."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("copyspec") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


def _count_tokenizer_calls(monkeypatch):
    """Count ``tokenize`` calls in this process; a call in another process
    (a ``--jobs`` worker, which inherits the patch) raises instead."""
    pid = os.getpid()
    original = copyspec.corpus.tokenize

    def tokenize_here(*args, **kwargs):
        if os.getpid() != pid:
            raise AssertionError("a worker tokenized")
        return original(*args, **kwargs)

    monkeypatch.setattr(copyspec.corpus, "tokenize", tokenize_here)
    return _count_calls(monkeypatch, copyspec.corpus, "tokenize")


def test_sweep_computes_each_result_once(small_corpus_path, tmp_path, monkeypatch):
    # one corpus pass per value, records included, one k-gram training and
    # one tokenizing pass (one tokenize call per turn), whatever the values
    runs = _count_calls(monkeypatch, copyspec.engine, "run_transcript")
    trainings = _count_calls(monkeypatch, copyspec.lm, "train_kgram")
    tokenized = _count_tokenizer_calls(monkeypatch)
    argv = ["sweep", "--corpus", small_corpus_path, "--strategy", "copy+specdec", "--axis", "gamma"]
    records = tmp_path / "records.jsonl"
    assert run_cli(*argv, "--values", "2,3,5", "--out", tmp_path / "s.json", "--records-out", records) == 0
    transcripts = load_transcripts(small_corpus_path)
    assert len(runs) == len(transcripts) * 3
    assert len(trainings) == 1
    assert len(tokenized) == sum(len(t.turns) for t in transcripts)
    turns = sum(len(t.user_turns()) for t in transcripts)
    assert len(records.read_text().splitlines()) == 3 * turns


@pytest.mark.parametrize("command, jobs", [("run", "1"), ("run", "2"), ("sweep", "2")])
def test_generation_never_tokenizes(small_corpus_path, tmp_path, monkeypatch, command, jobs):
    # the one tokenizing pass happens before generation, and each --jobs
    # worker gets its transcripts' prompts with the job
    tokenized = _count_tokenizer_calls(monkeypatch)
    argv = ["run", "--strategy", "copy"] if command == "run" else ["sweep", "--axis", "gamma", "--values", "2,3"]
    assert run_cli(*argv, "--corpus", small_corpus_path, "--jobs", jobs, "--out", tmp_path / "m.json") == 0
    assert len(tokenized) == sum(len(t.turns) for t in load_transcripts(small_corpus_path))


def _built_orders(model):
    return [o for o, table in enumerate(model.tables) if table is not None]


@pytest.mark.parametrize(
    "strategy, orders",
    [("baseline", [4]), ("copy", [4]), ("specdec", [2, 4]), ("copy+specdec", [2, 4])],
)
def test_setup_builds_only_the_orders_a_run_reads(small_corpus_path, strategy, orders):
    # the target's order, and when the strategy drafts, the draft's; the
    # views share one set of tables
    args = build_parser().parse_args(["run", "--corpus", str(small_corpus_path), "--strategy", strategy])
    _, _, target, draft = _build_models(args, _load_corpus(args.corpus), _engine_config(args))
    assert _built_orders(target) == orders
    assert (draft is None) == (strategy in ("baseline", "copy"))
    if draft is not None:
        assert draft.order == 2 and draft.tables is target.tables


@pytest.mark.parametrize("corpus", ["redundant_2turn", "novel_2turn", "selfcorrect_3turn"])
def test_generation_resolves_no_order_on_shipped_corpora(data_dir, corpus):
    # the premise of building only the target's and draft's orders: every
    # lower-order backoff falls after the first rejected token, where the
    # target's pass stops, so generation resolves nothing
    for strategy in ("specdec", "copy+specdec"):
        args = build_parser().parse_args(["run", "--corpus", str(data_dir / f"{corpus}.jsonl"), "--strategy", strategy])
        transcripts = _load_corpus(args.corpus)
        config = _engine_config(args)
        vocab, prompts, target, draft = _build_models(args, transcripts, config)
        run_corpus(transcripts, prompts, vocab, target, draft, [config])
        assert _built_orders(target) == [2, 4], f"{corpus} {strategy}"


@pytest.mark.parametrize("target_order, draft_order", [(1, 1), (3, 5), (5, 2)])
def test_lazy_orders_equal_eager_training(data_dir, tmp_path, monkeypatch, target_order, draft_order):
    # the metric file is the one written when set-up resolves every order
    argv = ["run", "--corpus", data_dir / "novel_2turn.jsonl", "--strategy", "copy+specdec",
            "--target-order", target_order, "--draft-order", draft_order]
    assert run_cli(*argv, "--out", tmp_path / "lazy.json") == 0
    train = copyspec.cli.train_kgram

    def eager(seqs, k, vocab_size=None):
        model = train(seqs, k, vocab_size=vocab_size)
        model.resolve(range(k + 1))
        return model

    monkeypatch.setattr(copyspec.cli, "train_kgram", eager)
    assert run_cli(*argv, "--out", tmp_path / "eager.json") == 0
    assert (tmp_path / "lazy.json").read_bytes() == (tmp_path / "eager.json").read_bytes()


def test_csv_format_matches_json_records(small_corpus_path, tmp_path):
    jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", jpath)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--format", "csv", "--out", cpath)
    records = json.loads(jpath.read_text())["records"]
    lines = cpath.read_text().splitlines()
    assert set(lines[0].split(",")) == set(records[0].keys())
    assert len(lines) == len(records) + 1


def test_csv_to_stdout_is_only_csv(small_corpus_path, tmp_path, capsys):
    # without --out the pooled aggregate goes to stderr, so stdout parses as CSV
    jpath = tmp_path / "m.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", jpath)
    capsys.readouterr()
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--format", "csv") == 0
    captured = capsys.readouterr()
    doc = json.loads(jpath.read_text())
    reader = csv.DictReader(io.StringIO(captured.out))
    rows = list(reader)
    assert sorted(reader.fieldnames) == sorted(doc["records"][0])
    assert [row["transcript_id"] for row in rows] == [rec["transcript_id"] for rec in doc["records"]]
    assert json.loads(captured.err.splitlines()[0]) == {"aggregate": doc["aggregate"]}


def test_sweep_three_point_csv(small_corpus_path, tmp_path):
    out = tmp_path / "sweep.csv"
    assert (
        run_cli(
            "sweep", "--corpus", small_corpus_path, "--axis", "gamma",
            "--values", "2,3,5", "--format", "csv", "--out", out,
        )
        == 0
    )
    lines = out.read_text().splitlines()
    assert lines[0] == "value,metric,number"
    values = {line.split(",")[0] for line in lines[1:]}
    assert values == {"2", "3", "5"}


def test_sweep_rejects_bad_values(small_corpus_path):
    for bad in ("", "3,2", "5,5"):
        with pytest.raises(SystemExit) as err:
            run_cli("sweep", "--corpus", small_corpus_path, "--axis", "gamma", "--values", bad)
        assert err.value.code == 2


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["skipgram", "--gammas", "0,2"], 2, "every value must be positive, got '0,2'"),
        (["skipgram", "--gammas", "-2"], 2, "every value must be positive, got '-2'"),
        (["sweep", "--axis", "gamma", "--values", "0,1"], 2, "every value must be positive, got '0,1'"),
        (["sweep", "--axis", "chunk", "--values", "0,4"], 2, "every value must be positive, got '0,4'"),
        (["sweep", "--axis", "gamma", "--values", "-1,4"], 2, "every value must be positive, got '-1,4'"),
        (["skipgram", "--gammas", "-2,3"], 2, "every value must be positive, got '-2,3'"),
        (["run", "--strategy", "copy", "--out", "{tmp}/missing/x.json"], 1, "cannot write {tmp}/missing/x.json"),
        (
            ["train-lm", "--out", "{tmp}/missing/lm.json"], 1,
            "cannot write {tmp}/missing/lm.json: directory {tmp}/missing does not exist",
        ),
        (
            ["run", "--strategy", "copy", "--cost-target", "0", "--cost-target-token", "0"], 2,
            "--cost-target and --cost-target-token cannot both be 0",
        ),
        (
            ["sweep", "--axis", "gamma", "--values", "2,3", "--cost-target", "0", "--cost-target-token", "0"], 2,
            "--cost-target and --cost-target-token cannot both be 0",
        ),
    ],
    ids=[
        "skipgram-gamma-zero", "skipgram-gamma-negative", "sweep-gamma-zero", "sweep-chunk-zero",
        "sweep-gamma-negative-first", "skipgram-gamma-negative-first", "out-missing-dir",
        "train-lm-out-missing-dir", "run-zero-target-cost", "sweep-zero-target-cost",
    ],
)
def test_bad_input_exit_code_and_message(small_corpus_path, tmp_path, capsys, argv, code, message):
    argv = [a.format(tmp=tmp_path) for a in argv]
    try:
        got = run_cli(argv[0], "--corpus", small_corpus_path, *argv[1:])
    except SystemExit as exc:  # usage errors exit from the parser
        got = exc.code
    assert got == code
    assert message.format(tmp=tmp_path) in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "1e400"])
@pytest.mark.parametrize(
    "command, flag",
    [("run", "--cost-target"), ("run", "--cost-target-token"), ("run", "--cost-draft-token"),
     ("sweep", "--cost-index"), ("skipgram", "--lr")],
)
def test_a_non_finite_cost_or_rate_is_a_usage_error(small_corpus_path, capsys, command, flag, value):
    # else the run generates the whole corpus and then fails to write its metrics
    extra = {"run": ["--strategy", "copy"], "sweep": ["--axis", "gamma", "--values", "2,3"], "skipgram": []}[command]
    with pytest.raises(SystemExit) as err:
        run_cli(command, "--corpus", small_corpus_path, *extra, flag, value)
    assert err.value.code == 2
    assert f"argument {flag}: must be a finite number >= 0, got {value}" in capsys.readouterr().err


def test_sweep_reaggregation_oracle(small_corpus_path, tmp_path):
    out = tmp_path / "sweep.json"
    records_out = tmp_path / "records.jsonl"
    assert (
        run_cli(
            "sweep", "--corpus", small_corpus_path, "--axis", "chunk",
            "--values", "5,10", "--out", out, "--records-out", records_out,
        )
        == 0
    )
    doc = json.loads(out.read_text())
    raw = [json.loads(line) for line in records_out.read_text().splitlines()]
    for point in doc["sweep"]["points"]:
        subset = [r for r in raw if r["sweep_value"] == point["value"]]
        pooled = aggregate(
            [RunMetrics(**{k: r[k] for k in RunMetrics.__dataclass_fields__}) for r in subset]
        )
        assert pooled.to_dict() == pytest.approx(point["metrics"])


def test_report_single_baseline_speedup_one(small_corpus_path, tmp_path, capsys):
    base = tmp_path / "base.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    capsys.readouterr()
    assert run_cli("report", base) == 0
    out = capsys.readouterr().out
    for line in out.splitlines()[1:]:
        assert line.split()[-1] == "1.0000"


def test_report_missing_baseline_errors(small_corpus_path, tmp_path, capsys):
    copy = tmp_path / "copy.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", copy)
    capsys.readouterr()
    assert run_cli("report", copy) == 1
    err = capsys.readouterr().err
    assert "baseline" in err
    assert err == f"error: no baseline run among {copy}; pass one or use --no-speedup\n"
    assert run_cli("report", copy, "--no-speedup") == 0


def test_report_warns_on_corpus_mismatch(small_corpus_path, tmp_path, capsys):
    other = tmp_path / "other.jsonl"
    save_transcripts(other, make_redundant_corpus(n=4, seed=123))
    f1, f2 = tmp_path / "one.json", tmp_path / "two.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", f1)
    run_cli("run", "--corpus", other, "--strategy", "copy", "--out", f2)
    capsys.readouterr()
    assert run_cli("report", f1, f2) == 0
    captured = capsys.readouterr()
    assert "different corpora" in captured.err
    assert "copy" in captured.out  # rows still printed


def test_report_warns_on_cost_model_mismatch(small_corpus_path, tmp_path, capsys):
    # a speedup divides two simulated rates, so both must come from one cost model
    base, copy, free = tmp_path / "base.json", tmp_path / "copy.json", tmp_path / "free.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", copy)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--cost-target", "0", "--out", free)
    capsys.readouterr()
    assert run_cli("report", base, copy) == 0
    assert "warning" not in capsys.readouterr().err
    assert run_cli("report", base, free) == 0
    captured = capsys.readouterr()
    assert "different cost models" in captured.err
    assert "copy" in captured.out  # rows still printed


def test_report_rejects_two_files_for_one_strategy_and_turn(small_corpus_path, tmp_path, capsys):
    # two copy runs would fill the same (strategy, turn) rows; one would be lost
    base, one, two = tmp_path / "base.json", tmp_path / "one.json", tmp_path / "two.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    for path, gamma in ((one, 2), (two, 3)):
        run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--gamma", gamma, "--out", path)
    capsys.readouterr()
    assert run_cli("report", one, base, two) == 1
    captured = capsys.readouterr()
    assert str(one) in captured.err and str(two) in captured.err
    assert captured.out == ""


def rekey(key):
    """A damage that moves a run file's turn 1 under ``key``."""
    return lambda doc: doc["aggregate"]["by_turn"].update({key: doc["aggregate"]["by_turn"].pop("1")})


def test_report_rejects_files_without_aggregate(small_corpus_path, tmp_path, capsys):
    # report reads each run file's strategy and pooled `aggregate.by_turn`;
    # a sweep file, or a run file stripped of either, with no turn, or with
    # a turn other than "1", "2", ... or columns that are no object, is not
    # a run's metrics file
    run_file, sweep_file = tmp_path / "run.json", tmp_path / "sweep.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", run_file)
    run_cli("sweep", "--corpus", small_corpus_path, "--axis", "gamma", "--values", "2,3", "--out", sweep_file)
    broken = []
    for name, damage in (
        ("stripped", lambda doc: doc.pop("aggregate")),
        ("no-strategy", lambda doc: doc["config"].pop("strategy")),
        ("no-by-turn", lambda doc: doc["aggregate"].pop("by_turn")),
        ("turn-not-a-number", lambda doc: doc["aggregate"]["by_turn"].update(one={})),
        ("no-sim-tps", lambda doc: doc["aggregate"]["by_turn"]["1"].pop("sim_tps")),
        ("no-turns", lambda doc: doc["aggregate"]["by_turn"].clear()),
        ("turn-zero", rekey("0")),
        ("leading-zero", rekey("01")),
        ("arabic-indic-one", rekey("\u0661")),
        ("5000-digits", rekey("1" * 5000)),
        ("columns-a-list", lambda doc: doc["aggregate"]["by_turn"].update({"1": ["sim_tps", "pct_copied", "tau1", "tau2"]})),
    ):
        doc = json.loads(run_file.read_text())
        damage(doc)
        broken.append(tmp_path / f"{name}.json")
        broken[-1].write_text(json.dumps(doc))
    for path in (sweep_file, *broken):
        capsys.readouterr()
        assert run_cli("report", run_file, path) == 1
        assert "not a metrics file produced by `copyspec run`" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("tau1", "x", '"x"'), ("sim_tps", None, "null"), ("pct_copied", True, "true"), ("tau2", float("nan"), "NaN"),
        ("tau1", 10**400, str(10**400)),
    ],
    ids=["string", "null", "bool", "nan", "beyond-a-float"],
)
def test_report_names_a_column_that_is_not_a_finite_number(small_corpus_path, tmp_path, capsys, field, value, shown):
    base, bad = tmp_path / "base.json", tmp_path / "bad.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    doc = json.loads(base.read_text())
    doc["aggregate"]["by_turn"]["2"][field] = value
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", bad, "--no-speedup") == 1
    assert f"error: {bad}: turn 2 {field} is {shown}, not a finite number" in capsys.readouterr().err


def test_report_rejects_a_zero_baseline_rate_for_speedups(small_corpus_path, tmp_path, capsys):
    base = tmp_path / "base.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    doc = json.loads(base.read_text())
    doc["aggregate"]["by_turn"]["1"]["sim_tps"] = 0
    base.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", base) == 1
    assert f"error: {base}: turn 1 sim_tps is 0, not positive" in capsys.readouterr().err
    assert run_cli("report", base, "--no-speedup") == 0


def test_report_names_a_file_that_is_not_json(small_corpus_path, tmp_path, capsys):
    base, table = tmp_path / "base.json", tmp_path / "base.csv"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--format", "csv", "--out", table)
    capsys.readouterr()
    assert run_cli("report", base, table) == 1
    assert f"error: {table} is not JSON" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad, message",
    [(b"\xff{}", "is not UTF-8: byte 0xff at offset 0"), (b"[" * 100_000, "is not JSON: maximum recursion depth")],
    ids=["not-utf8", "nested-too-deep"],
)
def test_report_names_a_file_that_is_no_json_text(small_corpus_path, tmp_path, capsys, bad, message):
    base, path = tmp_path / "base.json", tmp_path / "bad.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    path.write_bytes(bad)
    capsys.readouterr()
    assert run_cli("report", base, path) == 1
    assert capsys.readouterr().err.startswith(f"error: {path} {message}")


@pytest.mark.parametrize("fingerprint", [["a"], {"a": 1}], ids=["list", "object"])
def test_report_compares_fingerprints_of_any_json_type(small_corpus_path, tmp_path, capsys, fingerprint):
    base, copy = tmp_path / "base.json", tmp_path / "copy.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", copy)
    doc = json.loads(copy.read_text())
    doc["config"]["corpus_fingerprint"] = fingerprint
    copy.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run_cli("report", base, copy) == 0
    captured = capsys.readouterr()
    assert "warning: metric files were produced from different corpora" in captured.err
    assert "copy" in captured.out


def test_report_markdown_output(small_corpus_path, tmp_path):
    base = tmp_path / "base.json"
    md = tmp_path / "table.md"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", base)
    assert run_cli("report", base, "--out", md) == 0
    assert md.read_text().startswith("| strategy | turn |")


def test_train_lm_then_model_path_run(small_corpus_path, tmp_path):
    dump = tmp_path / "lm.json"
    assert run_cli("train-lm", "--corpus", small_corpus_path, "--order", "4", "--out", dump) == 0
    direct = tmp_path / "direct.json"
    loaded = tmp_path / "loaded.json"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", direct)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--model-path", dump, "--out", loaded)
    d, l = json.loads(direct.read_text()), json.loads(loaded.read_text())
    assert d["records"] == l["records"]


def test_model_path_ids_beyond_the_corpus_vocabulary_reach_the_draft(small_corpus_path, tmp_path):
    # a dump may count ids past its symbols (or hold none): its target then
    # emits ids this corpus never minted, which the draft reads next
    dump, out = tmp_path / "lm.json", tmp_path / "m.json"
    assert run_cli("train-lm", "--corpus", small_corpus_path, "--out", dump) == 0
    doc = json.loads(dump.read_text())
    unnamed = doc["vocab_size"]
    doc["vocab_size"] += 1
    for _, contexts in doc["counts"]:
        for _, hist in contexts:
            hist.append([unnamed, 10**6])  # the argmax of every context
    dump.write_text(json.dumps(doc))
    argv = ["--corpus", small_corpus_path, "--model-path", dump, "--max-new-tokens", "8", "--out", out]
    assert run_cli("run", "--strategy", "copy+specdec", *argv) == 0
    assert json.loads(out.read_text())["aggregate"]["overall"]["tokens_out"] > 0


def test_model_path_run_echoes_the_dumps_order(small_corpus_path, tmp_path):
    # the dump's order is what runs, whatever --target-order says
    dump, out = tmp_path / "lm3.json", tmp_path / "m.json"
    assert run_cli("train-lm", "--corpus", small_corpus_path, "--order", "3", "--out", dump) == 0
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--model-path", dump, "--out", out) == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["target_order"] == 3
    assert doc["records"] and all(rec["config_target_order"] == 3 for rec in doc["records"])


def _drop(doc, name):
    del doc[name]


@pytest.mark.parametrize(
    "spoil, message",
    [
        (None, "not JSON: Expecting value: line 1 column 1 (char 0)"),
        (lambda doc: _drop(doc, "counts"), "missing field 'counts'"),
        (
            lambda doc: doc["counts"][1][1][0][1].append([2]),  # a token without its count
            "counts[1] must be [order, [[context, [[token, count], ...]], ...]]",
        ),
        (lambda doc: doc.update(order="a"), 'order must be a positive integer, got "a"'),
        (lambda doc: doc.update(counts={}), "counts must be a list"),
        (lambda doc: doc.update(vocab=5), "vocab must be a list of strings"),
        (lambda doc: doc.update(order=10**12), "counts must list each order from 0 to order once"),
        (lambda doc: doc["counts"].pop(1), "counts must list each order from 0 to order once"),
        (lambda doc: doc["counts"].append(doc["counts"][2]), "counts must list each order from 0 to order once"),
        ("bytes", "not UTF-8: byte 0xff at offset 0"),
        ("nested", "not JSON: maximum recursion depth exceeded"),
        (lambda doc: doc["vocab"].__setitem__(3, doc["vocab"][2]), 'vocab must list distinct symbols, "<eot>" first'),
        (lambda doc: doc["vocab"].__setitem__(0, "x"), 'vocab must list distinct symbols, "<eot>" first'),
    ],
    ids=["not-json", "no-counts", "malformed-counts-entry", "order-string", "counts-object", "vocab-number",
         "order-beyond-counts", "order-missing", "order-twice", "not-utf8", "nested-too-deep",
         "vocab-repeats-a-symbol", "vocab-without-eot-first"],
)
def test_model_path_names_the_dump_and_the_field(small_corpus_path, tmp_path, capsys, spoil, message):
    dump = tmp_path / "lm.json"
    assert run_cli("train-lm", "--corpus", small_corpus_path, "--order", "2", "--out", dump) == 0
    if spoil is None:
        dump.write_text("not a dump\n")
    elif spoil == "bytes":
        dump.write_bytes(b"\xff" + dump.read_bytes())
    elif spoil == "nested":
        dump.write_bytes(b"[" * 100_000)
    else:
        doc = json.loads(dump.read_text())
        spoil(doc)
        dump.write_text(json.dumps(doc))
    capsys.readouterr()
    out = tmp_path / "m.json"
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--model-path", dump, "--out", out) == 1
    assert capsys.readouterr().err.startswith(f"error: {dump}: {message}")
    assert not out.exists()


def test_skipgram_command(small_corpus_path, tmp_path):
    out = tmp_path / "cs.json"
    assert (
        run_cli(
            "skipgram", "--corpus", small_corpus_path, "--gammas", "2,3",
            "--dim", "8", "--epochs", "2", "--out", out,
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert [p["gamma"] for p in doc["points"]] == [2, 3]


_LOADED_PROBE = """
import json, sys
heavy = ("numpy", "concurrent.futures", "copyspec.analysis", "copyspec.synthetic")
loaded = {}
import copyspec.cli
loaded["import"] = [m for m in heavy if m in sys.modules]
corpus, out = sys.argv[1], sys.argv[2]
copyspec.cli.main(["run", "--corpus", corpus, "--strategy", "copy+specdec", "--out", out + "/run.json"])
loaded["run"] = [m for m in heavy if m in sys.modules]
copyspec.cli.main(["sweep", "--corpus", corpus, "--strategy", "copy+specdec", "--axis", "gamma",
                   "--values", "2,3", "--out", out + "/sweep.json", "--records-out", out + "/sweep.jsonl"])
loaded["sweep"] = [m for m in heavy if m in sys.modules]
print(json.dumps(loaded))
"""


def test_run_and_sweep_load_only_the_engine_path(small_corpus_path, tmp_path):
    # numpy and the process pool stay unloaded unless skipgram or --jobs > 1 asks for them
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_PROBE, str(small_corpus_path), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(copyspec.__file__).parents[1])},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"import": [], "run": [], "sweep": []}
    assert (tmp_path / "run.json").exists() and (tmp_path / "sweep.jsonl").exists()


def test_console_entry_point(small_corpus_path):
    proc = subprocess.run(
        [sys.executable, "-m", "copyspec.cli", "run", "--corpus", str(small_corpus_path), "--strategy", "baseline"],
        capture_output=True,
        text=True,
        # the source root of the package under test, so an uninstalled checkout works
        env={**os.environ, "PYTHONPATH": str(Path(copyspec.__file__).parents[1])},
    )
    assert proc.returncode == 0
    assert '"aggregate"' in proc.stdout
