"""The benchmark's contract with the program: perfbench/run.py must end with a full result.

The benchmark drives copyspec in process and reports every metric that
BENCHMARK.json lists. A change that breaks a call it makes, or a CLI
option it probes, can leave the run exiting 0 with a result line missing
metrics, or none at all. Both tracing modes are run on the smallest
workload for a tenth of a second, and the last line is parsed as strict
JSON: NaN and Infinity, which Python's parser accepts by default, are
not a result a reader of the line can use.
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_strict(line: str):
    """``json.loads`` that rejects the non-standard NaN, Infinity and -Infinity."""

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(line, parse_constant=reject)


def test_strict_parse_rejects_non_finite():
    assert parse_strict('{"x": 1.5}') == {"x": 1.5}
    for text in ('{"x": NaN}', '{"x": Infinity}', '{"x": [-Infinity]}'):
        with pytest.raises(ValueError):
            parse_strict(text)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_perfbench_prints_every_listed_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "novel", "--seconds", "0.1", "--trace", str(trace)],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert lines, proc.stderr[-2000:]
    result = parse_strict(lines[-1])
    assert result["correct"] is True
    missing = {m["name"] for m in BENCHMARK[section]} - set(result["metrics"])
    assert not missing, f"--trace {trace} result lacks {sorted(missing)}"
