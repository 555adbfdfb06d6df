import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import copyspec
from copyspec.cli import main
from copyspec.metrics import RunMetrics, aggregate
from copyspec.synthetic import make_redundant_corpus
from copyspec.corpus import save_transcripts


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


def test_run_deterministic_across_repeats(small_corpus_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--seed", "5", "--out", out) == 0
    assert a.read_bytes() == b.read_bytes()


def test_jobs_parallelism_is_order_stable(small_corpus_path, tmp_path):
    serial, parallel = tmp_path / "s.json", tmp_path / "p.json"
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", serial) == 0
    assert run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--jobs", "2", "--out", parallel) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_csv_format_matches_json_records(small_corpus_path, tmp_path):
    jpath, cpath = tmp_path / "m.json", tmp_path / "m.csv"
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--out", jpath)
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "copy", "--format", "csv", "--out", cpath)
    records = json.loads(jpath.read_text())["records"]
    lines = cpath.read_text().splitlines()
    assert set(lines[0].split(",")) == set(records[0].keys())
    assert len(lines) == len(records) + 1


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
    assert "baseline" in capsys.readouterr().err
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


def test_env_seed_override(small_corpus_path, tmp_path, monkeypatch):
    out = tmp_path / "m.json"
    monkeypatch.setenv("COPYSPEC_SEED", "4242")
    run_cli("run", "--corpus", small_corpus_path, "--strategy", "baseline", "--out", out)
    assert json.loads(out.read_text())["config"]["seed"] == 4242


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
