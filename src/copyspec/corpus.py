"""Tokenization and ingestion of multi-turn transcripts into token sequences.

Tokens are non-negative integer ids into a session :class:`Vocabulary`.
The tokenizer is deliberately word-level: it splits on Unicode whitespace
and peels trailing punctuation into separate tokens, which keeps copied
spans human-inspectable when tracing the generation engine.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path

EOT_SYMBOL = "<eot>"
EOT_ID = 0
USER_TAG = "<user>"
ASSISTANT_TAG = "<assistant>"

class UnknownSymbol(KeyError):
    """A symbol is absent from the vocabulary."""


class InvalidTokenId(IndexError):
    """A token id falls outside the vocabulary."""


class ParseError(ValueError):
    """A transcript line could not be parsed; carries the 1-based line number."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class MissingField(ValueError):
    """A required field is absent from a transcript object."""

    def __init__(self, name: str):
        super().__init__(f"missing field {name!r}")
        self.name = name


class BadRoleSequence(ValueError):
    """Transcript roles do not alternate user/assistant starting with user."""


class Vocabulary:
    """Append-only symbol table.

    Ids are assigned in first-seen order and never change within a session.
    Id 0 is always the reserved end-of-text symbol. The table is the dict
    ``_ids``, which :func:`tokenize` grows directly; its keys are in
    insertion order, which is id order.
    """

    def __init__(self, symbols: list[str] | None = None):
        self._ids: dict[str, int] = {}
        for sym in [EOT_SYMBOL, *(symbols or [])]:
            self.add(sym)

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._ids)

    def add(self, symbol: str) -> int:
        """Return the id of ``symbol``, appending it if unseen."""
        ids = self._ids
        return ids.setdefault(symbol, len(ids))

    def id_of(self, symbol: str) -> int:
        tid = self._ids.get(symbol)
        if tid is None:
            raise UnknownSymbol(symbol)
        return tid

    def symbol_of(self, token_id: int) -> str:
        if not 0 <= token_id < len(self._ids):
            raise InvalidTokenId(token_id)
        return next(islice(self._ids, token_id, None))


@dataclass(slots=True)
class Turn:
    role: str  # "user" | "assistant"
    text: str


@dataclass(slots=True)
class Transcript:
    """An ordered multi-turn conversation; roles alternate starting with user."""

    id: str
    category: str
    turns: tuple[Turn, ...]

    def __post_init__(self):
        _check_roles(self.turns)

    def user_turns(self) -> list[Turn]:
        return [t for t in self.turns if t.role == "user"]


def _check_roles(turns: tuple[Turn, ...]) -> None:
    if not turns or turns[0].role != "user":
        raise BadRoleSequence("transcript must start with a user turn")
    for prev, cur in zip(turns, turns[1:]):
        if cur.role == prev.role or cur.role not in ("user", "assistant"):
            raise BadRoleSequence(f"roles must alternate, got {prev.role!r} then {cur.role!r}")


# each mark in a word's trailing run of .,;:!? (a word keeps its interior marks)
_trailing_marks = re.compile(r"[.,;:!?](?=[.,;:!?]*(?!\S))").sub


def tokenize(text: str, vocab: Vocabulary) -> list[int]:
    """Map ``text`` to token ids, growing ``vocab`` on unseen symbols.

    Splits on whitespace after putting a space before each mark of a
    word's trailing run of ``.,;:!?``, so each such mark is a token of its
    own. Deterministic: the same text against the same vocabulary always
    yields the same ids.
    """
    ids = vocab._ids
    return [ids.setdefault(w, len(ids)) for w in _trailing_marks(r" \g<0>", text).split()]


def detokenize(seq: list[int], vocab: Vocabulary) -> str:
    """Join the symbols of ``seq`` with single spaces.

    Inverse of :func:`tokenize` on space-separated input. Raises
    :class:`InvalidTokenId` for the first id outside the vocabulary.
    """
    symbols = vocab.symbols
    if seq and not (0 <= min(seq) and max(seq) < len(symbols)):
        raise InvalidTokenId(next(t for t in seq if not 0 <= t < len(symbols)))
    return " ".join(map(symbols.__getitem__, seq))


# each type a JSON value decodes to, named in JSON's terms
_JSON_KINDS = {dict: "an object", list: "a list", str: "a string", int: "a number", float: "a number",
               bool: "a boolean", type(None): "null"}


def _expect(value, kind: type, what: str) -> None:
    """Raise :class:`TypeError` naming ``what`` unless the decoded ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise TypeError(f"{what} must be {_JSON_KINDS[kind]}, got {_JSON_KINDS[type(value)]}")


def _transcript_from_obj(obj: dict) -> Transcript:
    _expect(obj, dict, "a transcript")
    for name in ("id", "turns"):
        if name not in obj:
            raise MissingField(name)
    _expect(obj["id"], str, "id")
    _expect(obj.get("category", ""), str, "category")
    _expect(obj["turns"], list, "turns")
    turns = []
    for n, item in enumerate(obj["turns"], start=1):
        _expect(item, dict, f"turn {n}")
        for name in ("role", "text"):
            if name not in item:
                raise MissingField(name)
            _expect(item[name], str, f"turn {n} {name}")
        turns.append(Turn(item["role"], item["text"]))
    return Transcript(obj["id"], obj.get("category", ""), tuple(turns))


def utf8_error(exc: UnicodeDecodeError) -> str:
    """Why input bytes are not text, in the input's terms: the first bad byte and its offset."""
    return f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset {exc.start}"


def load_transcripts(path: str | Path) -> list[Transcript]:
    """Load one-JSON-object-per-line transcripts, preserving file order.

    Lines end at ``\\n`` and are decoded one by one. Any malformed line
    raises :class:`ParseError` naming the 1-based line; the underlying
    cause (not UTF-8, bad JSON or nested too deep, :class:`MissingField`,
    :class:`BadRoleSequence`, a value of the wrong JSON type) is
    chained. Blank lines are skipped.
    """
    out: list[Transcript] = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                text = line.decode("utf-8")
                if text.strip():
                    out.append(_transcript_from_obj(json.loads(text)))
            except UnicodeDecodeError as exc:
                raise ParseError(lineno, utf8_error(exc)) from exc
            except (ValueError, TypeError, RecursionError) as exc:  # each other cause is one of these
                raise ParseError(lineno, str(exc)) from exc
    return out


def save_transcripts(path: str | Path, transcripts: list[Transcript]) -> None:
    """Write transcripts in the one-object-per-line format read by loading."""
    with open(path, "w", encoding="utf-8") as fh:
        for t in transcripts:
            obj = {
                "id": t.id,
                "category": t.category,
                "turns": [{"role": turn.role, "text": turn.text} for turn in t.turns],
            }
            fh.write(json.dumps(obj, sort_keys=True) + "\n")


def file_fingerprint(path: str | Path) -> str:
    """First 16 hex digits of the SHA-256 of the file's bytes."""
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


def turn_prefix_tokens(user_text: str, vocab: Vocabulary) -> list[int]:
    """Tokens appended to the context before generating one assistant turn,
    growing ``vocab``.

    Layout: role tag, user text, assistant tag. The engine's generated
    answer (ending in end-of-text) follows directly after.
    """
    return [vocab.add(USER_TAG), *tokenize(user_text, vocab), vocab.add(ASSISTANT_TAG)]


def ingest(transcripts: list[Transcript], vocab: Vocabulary) -> tuple[list[list[int]], list[list[list[int]]]]:
    """Tokenize every transcript once, growing ``vocab``: the one tokenizing pass.

    Returns each transcript's training sequence and the prompt of each of
    its user turns (:func:`turn_prefix_tokens`). A sequence lays the turns
    out as generation does: each user turn is its prompt, each assistant
    text ends with end-of-text. Generation reads only the prompts; the
    reference answers serve training and corpus statistics.
    """
    sequences: list[list[int]] = []
    prompts: list[list[list[int]]] = []
    for transcript in transcripts:
        seq: list[int] = []
        turn_prompts: list[list[int]] = []
        for turn in transcript.turns:
            if turn.role == "user":
                prompt = turn_prefix_tokens(turn.text, vocab)
                turn_prompts.append(prompt)
                seq += prompt
            else:
                seq += tokenize(turn.text, vocab)
                seq.append(EOT_ID)
        sequences.append(seq)
        prompts.append(turn_prompts)
    return sequences, prompts


def training_sequences(transcripts: list[Transcript], vocab: Vocabulary) -> list[list[int]]:
    """One token sequence per transcript, growing ``vocab`` (:func:`ingest`)."""
    return ingest(transcripts, vocab)[0]

