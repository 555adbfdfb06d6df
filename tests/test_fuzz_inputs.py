"""Every input file the command line reads, damaged: bad input ends with a clear message.

Each example starts from a valid file (a corpus line, a `run` metrics
file, a `train-lm` dump) or from an arbitrary JSON value, damages it (a
value swapped for an arbitrary JSON value, a key or item dropped, a
byte changed, the text cut short) and calls ``cli.main`` in process on
it. The exit code must be 0, 1 or 2. On an error the last line of
stderr starts with ``error:``, names the file or the corpus line, and
shows none of Python's own exception texts.
"""

import contextlib
import copy
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from copyspec.cli import main
from copyspec.corpus import save_transcripts
from copyspec.synthetic import make_redundant_corpus

# what an exception of Python's own says, which a message to a user should not
INTERNAL_TEXTS = (
    "not iterable", "unhashable", "format code", "__format__", "unpack", "invalid literal",
    "codec can't decode",
)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)

FUZZ = settings(
    max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _paths(value, path=()):
    """Every path into a decoded JSON value below its root."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


@st.composite
def damaged(draw, doc):
    """The bytes of ``doc`` after one to three damages, or of an arbitrary JSON value."""
    if draw(st.integers(0, 9)) == 0:
        doc = draw(JSON_VALUES)
    else:
        doc = copy.deepcopy(doc)
        for _ in range(draw(st.integers(1, 3))):
            paths = list(_paths(doc))
            if not paths:
                break
            # each depth is as likely as any other, so a few top-level keys are not lost among many leaves
            depth = draw(st.sampled_from(sorted({len(path) for path in paths})))
            *keys, last = draw(st.sampled_from([path for path in paths if len(path) == depth]))
            parent = doc
            for key in keys:
                parent = parent[key]
            if draw(st.booleans()):
                parent[last] = draw(JSON_VALUES)
            else:
                del parent[last]
    data = json.dumps(doc).encode()
    edit = draw(st.sampled_from(["none", "none", "byte", "cut"]))
    if edit != "none" and data:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + (bytes([draw(st.integers(0, 255))]) + data[at + 1:] if edit == "byte" else b"")
    return data


def call_main(*argv):
    """``cli.main``'s exit code and the last line of its stderr."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([str(a) for a in argv])
        except SystemExit as exc:  # a usage error exits from the parser
            code = exc.code
    lines = err.getvalue().splitlines()
    return code, lines[-1] if lines else ""


def check_outcome(code, last, path):
    assert code in (0, 1, 2), (code, last)
    if code:
        assert last.startswith("error: "), last
        assert str(path) in last or re.search(r"\bline \d+\b", last), last
        assert not any(text in last for text in INTERNAL_TEXTS), last


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A two-transcript corpus, a baseline and a copy run file of it, and its dump."""
    root = tmp_path_factory.mktemp("fuzz")
    corpus = root / "corpus.jsonl"
    save_transcripts(corpus, make_redundant_corpus(n=2, seed=7))
    files = {"corpus": corpus, "dump": root / "lm.json", "root": root}
    assert call_main("train-lm", "--corpus", corpus, "--order", "2", "--out", files["dump"])[0] == 0
    for strategy in ("baseline", "copy"):
        files[strategy] = root / f"{strategy}.json"
        argv = ["--corpus", corpus, "--strategy", strategy, "--max-new-tokens", "16", "--out", files[strategy]]
        assert call_main("run", *argv)[0] == 0
    return files


RUN = ["--strategy", "copy+specdec", "--target-order", "2", "--max-new-tokens", "16"]


@FUZZ
@given(data=st.data())
def test_damaged_corpus_line(inputs, data):
    lines = inputs["corpus"].read_bytes().splitlines(keepends=True)
    n = data.draw(st.integers(0, len(lines) - 1))
    lines[n] = data.draw(damaged(json.loads(lines[n]))) + b"\n"
    path, out = inputs["root"] / "damaged.jsonl", inputs["root"] / "out.json"
    path.write_bytes(b"".join(lines))
    check_outcome(*call_main("run", "--corpus", path, *RUN, "--out", out), path)


@FUZZ
@given(data=st.data())
def test_damaged_run_file(inputs, data):
    strategy = data.draw(st.sampled_from(["baseline", "copy"]))
    path = inputs["root"] / "damaged.json"
    path.write_bytes(data.draw(damaged(json.loads(inputs[strategy].read_text()))))
    other = inputs["copy" if strategy == "baseline" else "baseline"]
    flags = data.draw(st.sampled_from([[], ["--no-speedup"]]))
    check_outcome(*call_main("report", other, path, *flags), path)


@FUZZ
@given(data=st.data())
def test_damaged_model_dump(inputs, data):
    path, out = inputs["root"] / "damaged-lm.json", inputs["root"] / "out.json"
    path.write_bytes(data.draw(damaged(json.loads(inputs["dump"].read_text()))))
    argv = ["--corpus", inputs["corpus"], *RUN, "--model-path", path, "--out", out]
    check_outcome(*call_main("run", *argv), path)
