import json
import re

import pytest
from hypothesis import given, strategies as st

from copyspec.corpus import (
    EOT_ID,
    EOT_SYMBOL,
    BadRoleSequence,
    InvalidTokenId,
    MissingField,
    ParseError,
    Transcript,
    Turn,
    UnknownSymbol,
    Vocabulary,
    detokenize,
    ingest,
    load_transcripts,
    save_transcripts,
    tokenize,
    turn_prefix_tokens,
)

from oracles import assemble_transcript_tokens, peel_split_words


def test_reserved_end_of_text():
    vocab = Vocabulary()
    assert vocab.symbol_of(EOT_ID) == EOT_SYMBOL
    assert vocab.id_of(EOT_SYMBOL) == 0
    # seeding with symbols keeps the reserved id
    v2 = Vocabulary(["dog", "cat"])
    assert v2.id_of(EOT_SYMBOL) == 0
    assert v2.id_of("dog") == 1


def test_tokenize_first_seen_ordering():
    vocab = Vocabulary()
    ids = tokenize("a b a", vocab)
    # ids follow first-seen order starting right after the reserved symbol
    assert ids == [1, 2, 1]
    assert vocab.symbol_of(1) == "a" and vocab.symbol_of(2) == "b"


def test_tokenize_empty():
    assert tokenize("", Vocabulary()) == []


def test_tokenize_unknown_symbol_raises():
    vocab = Vocabulary(["a"])
    with pytest.raises(UnknownSymbol):
        vocab.id_of("b")


def test_detokenize_trivial():
    assert detokenize([], Vocabulary()) == ""
    vocab = Vocabulary(["dog"])
    assert detokenize([vocab.id_of("dog")], vocab) == "dog"


def test_detokenize_invalid_id():
    with pytest.raises(InvalidTokenId):
        detokenize([99], Vocabulary(["a"]))


@pytest.mark.parametrize("seq, bad", [([99], 99), ([1, -1, 5], -1), ([5, -1], 5), ([0, 2], 2)])
def test_detokenize_names_the_first_id_outside_the_vocabulary(seq, bad):
    with pytest.raises(InvalidTokenId) as exc:
        detokenize(seq, Vocabulary(["a"]))
    assert exc.value.args == (bad,)


def test_round_trip_space_separated():
    vocab = Vocabulary()
    ids = tokenize("x y z x", vocab)
    assert tokenize(detokenize(ids, vocab), vocab) == ids


def test_round_trip_random_sequences():
    # property oracle: tokenize(detokenize(s)) = s for random id sequences
    vocab = Vocabulary()
    tokenize("ka le mi no pa ra su te vu wo", vocab)
    import random

    rng = random.Random(7)
    for _ in range(100):
        seq = [rng.randrange(1, len(vocab)) for _ in range(rng.randrange(0, 20))]
        assert tokenize(detokenize(seq, vocab), vocab) == seq


def test_trailing_punctuation_split():
    vocab = Vocabulary()
    assert [vocab.symbol_of(t) for t in tokenize("stop. wait;", vocab)] == [
        "stop", ".", "wait", ";",
    ]
    assert [vocab.symbol_of(t) for t in tokenize("end?!", vocab)] == ["end", "?", "!"]
    assert [vocab.symbol_of(t) for t in tokenize("...", vocab)] == [".", ".", "."]
    # interior punctuation stays attached
    assert [vocab.symbol_of(t) for t in tokenize("a.b", vocab)] == ["a.b"]


@given(st.lists(st.sampled_from(["kite", "blue", "rock", "mi.xed", "?"]), max_size=12),
       st.sampled_from([" ", "  ", "\t", "\n", " \t "]))
def test_whitespace_normalization(words, sep):
    # detokenize(tokenize(t)) equals t after collapsing whitespace runs,
    # for text whose punctuation is already space-delimited
    text = sep.join(words)
    vocab = Vocabulary()
    out = detokenize(tokenize(text, vocab), vocab)
    assert out == " ".join(text.split())


def test_regex_whitespace_is_str_isspace():
    # the tokenizer splits with re's \s, the peeling oracle with str.split()
    every_code_point = "".join(map(chr, range(0x110000)))
    assert re.findall(r"\s", every_code_point) == [c for c in every_code_point if c.isspace()]


_SPACE = "\x1c\x1d\x1e\x1f\x85\xa0\u2028\u3000 \t\n"
_PUNCT_AND_SPACE_TEXT = st.lists(
    st.one_of(
        st.text(alphabet=".,;:!?", min_size=1, max_size=4),  # punctuation runs
        st.text(alphabet=_SPACE, min_size=1, max_size=3),
        st.sampled_from(["a", "bc", "é", "x.y", "<eot>", "-", "'"]),
    ),
    max_size=16,
).map("".join)


@given(texts=st.lists(st.one_of(_PUNCT_AND_SPACE_TEXT, st.text(max_size=20)), min_size=1, max_size=4))
def test_tokenize_splits_like_the_peeling_oracle(texts):
    vocab, reference = Vocabulary(), Vocabulary()
    for text in texts:
        ids = tokenize(text, vocab)
        assert ids == [reference.add(w) for w in peel_split_words(text)]
        # the symbol list catches up on what tokenize added to the table
        assert [vocab.symbol_of(i) for i in ids] == peel_split_words(text)
        assert len(vocab) == len(reference)
    assert vocab.symbols == reference.symbols
    assert [vocab.id_of(sym) for sym in vocab.symbols] == list(range(len(vocab)))
    with pytest.raises(InvalidTokenId):
        vocab.symbol_of(len(vocab))


def test_vocab_growth_append_only():
    vocab = Vocabulary()
    first = tokenize("alpha beta gamma", vocab)
    tokenize("delta beta epsilon alpha", vocab)
    assert tokenize("alpha beta gamma", vocab) == first


def test_transcript_roles():
    Transcript("t", "c", (Turn("user", "hi"),))
    with pytest.raises(BadRoleSequence):
        Transcript("t", "c", (Turn("assistant", "hi"),))
    with pytest.raises(BadRoleSequence):
        Transcript("t", "c", (Turn("user", "a"), Turn("user", "b")))


def test_load_transcripts_single_line(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps({"id": "x", "category": "demo", "turns": [{"role": "user", "text": "hi"}]}) + "\n")
    out = load_transcripts(path)
    assert len(out) == 1 and len(out[0].turns) == 1 and out[0].turns[0].text == "hi"


def test_load_transcripts_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_transcripts(path) == []


def test_load_transcripts_missing_turns_names_line(tmp_path):
    path = tmp_path / "bad.jsonl"
    good = json.dumps({"id": "a", "turns": [{"role": "user", "text": "q"}]})
    path.write_text(good + "\n" + json.dumps({"id": "b"}) + "\n")
    with pytest.raises(ParseError) as err:
        load_transcripts(path)
    assert err.value.line == 2
    assert "turns" in str(err.value)
    assert isinstance(err.value.__cause__, MissingField)


@pytest.mark.parametrize("text", [5, None, ["hi"]], ids=["int", "null", "list"])
def test_load_transcripts_non_string_text_names_line(tmp_path, text):
    path = tmp_path / "text.jsonl"
    turns = [{"role": "user", "text": "q"}, {"role": "assistant", "text": text}]
    path.write_text(json.dumps({"id": "a", "turns": turns}) + "\n")
    with pytest.raises(ParseError) as err:
        load_transcripts(path)
    assert err.value.line == 1
    assert "turn 2 text must be a string" in str(err.value)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"id": "b", "turns": None}, "line 2: turns must be a list, got null"),
        ({"id": "b", "turns": "hi"}, "line 2: turns must be a list, got a string"),
        ({"id": "b", "turns": [5]}, "line 2: turn 1 must be an object, got a number"),
        ({"id": "b", "turns": [{"role": 1, "text": "q"}]}, "line 2: turn 1 role must be a string, got a number"),
        (["b"], "line 2: a transcript must be an object, got a list"),
        ({"id": 5, "turns": []}, "line 2: id must be a string, got a number"),
        ({"id": "b", "category": [1], "turns": []}, "line 2: category must be a string, got a list"),
        ({"id": "b", "category": None, "turns": []}, "line 2: category must be a string, got null"),
    ],
    ids=["turns-null", "turns-string", "turn-number", "role-number", "line-list", "id-number", "category-list",
         "category-null"],
)
def test_load_transcripts_wrong_json_type_names_line_and_field(tmp_path, obj, message):
    path = tmp_path / "types.jsonl"
    good = json.dumps({"id": "a", "turns": [{"role": "user", "text": "q"}]})
    path.write_text(good + "\n" + json.dumps(obj) + "\n")
    with pytest.raises(ParseError) as err:
        load_transcripts(path)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "bad, message",
    [
        (b'{"id": "\xffa"}', "line 3: not UTF-8: byte 0xff at offset 8"),
        (b"[" * 100_000 + b"]" * 100_000, "line 3: maximum recursion depth exceeded"),
    ],
    ids=["not-utf8", "nested-too-deep"],
)
def test_load_transcripts_names_a_line_that_is_no_json_text(tmp_path, bad, message):
    path = tmp_path / "bytes.jsonl"
    good = json.dumps({"id": "a", "turns": [{"role": "user", "text": "caf\u00e9"}]}, ensure_ascii=False).encode()
    path.write_bytes(good + b"\n" + good + b"\n" + bad + b"\n")
    with pytest.raises(ParseError) as err:
        load_transcripts(path)
    assert str(err.value).startswith(message)


def test_load_transcripts_bad_roles_named_line(tmp_path):
    path = tmp_path / "roles.jsonl"
    path.write_text(json.dumps({"id": "a", "turns": [{"role": "assistant", "text": "q"}]}) + "\n")
    with pytest.raises(ParseError) as err:
        load_transcripts(path)
    assert err.value.line == 1
    assert isinstance(err.value.__cause__, BadRoleSequence)


def test_save_load_round_trip(tmp_path):
    t = Transcript("id1", "math", (Turn("user", "one"), Turn("assistant", "two")))
    path = tmp_path / "rt.jsonl"
    save_transcripts(path, [t])
    assert load_transcripts(path) == [t]


def test_context_assembly_layout():
    vocab = Vocabulary()
    t = Transcript("id", "c", (Turn("user", "ask me"), Turn("assistant", "the answer")))
    (toks,), (prompts,) = ingest([t], vocab)
    words = [vocab.symbol_of(x) for x in toks]
    assert words == ["<user>", "ask", "me", "<assistant>", "the", "answer", "<eot>"]
    assert prompts == [turn_prefix_tokens("ask me", vocab)]
    assert toks[: len(prompts[0])] == prompts[0]


_WORDS = st.sampled_from(["a", "b", "c", "a.", "b,", "c?!", "<user>", "<assistant>", "<eot>", "x;"])
_TEXT = st.lists(_WORDS, max_size=6).map(" ".join)


@st.composite
def _transcripts(draw):
    out = []
    for i in range(draw(st.integers(1, 4))):
        n_turns = draw(st.integers(1, 5))
        roles = ["user" if j % 2 == 0 else "assistant" for j in range(n_turns)]
        out.append(Transcript(f"t{i}", "c", tuple(Turn(role, draw(_TEXT)) for role in roles)))
    return out


@given(transcripts=_transcripts(), seeded=st.lists(_WORDS, max_size=5))
def test_ingest_matches_assembly_and_prompts(transcripts, seeded):
    # ``seeded`` stands for a --model-path vocabulary: symbols given up front
    vocab, reference = Vocabulary(seeded), Vocabulary(seeded)
    sequences, prompts = ingest(transcripts, vocab)
    assert sequences == [assemble_transcript_tokens(t, reference) for t in transcripts]
    assert vocab.symbols == reference.symbols
    assert prompts == [
        [turn_prefix_tokens(turn.text, reference) for turn in t.user_turns()] for t in transcripts
    ]
