"""Counters and the pass-counting cost model.

Wall clock is meaningless for desk-scale reference models, so efficiency
is expressed in simulated time units: every attempt is charged one target
verification pass plus a per-scored-token term covering proposed+1 logits
(the extra guaranteed token rides in the same pass), draft-proposed
tokens are charged separately, and index operations can be given a
nonzero cost to study search overhead. Simulated tokens-per-second is
committed tokens divided by simulated time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import dataclass, fields
from functools import cache
from itertools import repeat
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from .engine import AttemptOutcome


class EmptyLog(ValueError):
    """score_log requires at least one attempt."""


@dataclass(frozen=True)
class CostModel:
    """Time units charged per attempt component; all costs must be finite
    and >= 0, and the target's pass and per-token costs not both 0, so
    that every attempt takes simulated time."""

    target_pass_cost: float = 1.0
    target_per_token_cost: float = 0.02
    draft_token_cost: float = 0.1
    index_op_cost: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            if not 0 <= getattr(self, f.name) < math.inf:  # also false for nan
                raise ValueError(f"{f.name} must be a finite number >= 0")
        if self.target_pass_cost == self.target_per_token_cost == 0:
            raise ValueError("target_pass_cost and target_per_token_cost cannot both be 0")


@dataclass(slots=True)
class RunMetrics:
    """Aggregated counters for one generation run (or a pool of runs).

    ``tokens_out`` counts every committed token, including a terminating
    end-of-text sentinel. ``tau1``/``tau2`` are mean accepted tokens per
    copy/draft attempt (0.0 when no such attempts were made).
    """

    tokens_out: int
    copied_tokens: int
    copy_attempts: int
    draft_attempts: int
    draft_accepted: int
    plain_steps: int
    tau1: float
    tau2: float
    sim_time: float
    sim_tps: float
    pct_copied: float

    def to_dict(self) -> dict:
        return dict(zip(_METRIC_FIELDS, _metric_values(self)))


_METRIC_FIELDS = tuple(f.name for f in fields(RunMetrics))
_metric_values = attrgetter(*_METRIC_FIELDS)


def _derive(
    tokens_out: int,
    copied: int,
    copy_attempts: int,
    draft_attempts: int,
    draft_accepted: int,
    plain_steps: int,
    sim_time: float,
) -> RunMetrics:
    return RunMetrics(
        tokens_out,
        copied,
        copy_attempts,
        draft_attempts,
        draft_accepted,
        plain_steps,
        copied / copy_attempts if copy_attempts else 0.0,  # tau1
        draft_accepted / draft_attempts if draft_attempts else 0.0,  # tau2
        sim_time,
        tokens_out / sim_time if sim_time > 0 else 0.0,  # sim_tps
        copied / tokens_out if tokens_out else 0.0,  # pct_copied
    )


def attempt_cost(outcome: "AttemptOutcome", cost: CostModel) -> float:
    """Simulated time of one attempt.

    One target pass scoring proposed+1 logits, plus draft generation for
    draft-sourced proposals, plus any index operations performed.
    """
    scored = outcome.proposed + 1
    time = cost.target_pass_cost + cost.target_per_token_cost * scored
    if outcome.source == "draft":
        time += cost.draft_token_cost * outcome.proposed
    time += cost.index_op_cost * outcome.index_ops
    return time


def score_log(log: Sequence["AttemptOutcome"], cost: CostModel | None = None) -> RunMetrics:
    """Deterministic aggregation of one generation run's attempt log."""
    if not log:
        raise EmptyLog("cannot score an empty attempt log")
    cost = cost or CostModel()
    # attempt_cost inlined, its terms added in the same order, so sim_time keeps its bits
    pass_cost, per_token = cost.target_pass_cost, cost.target_per_token_cost
    draft_cost, index_cost = cost.draft_token_cost, cost.index_op_cost
    tokens_out = len(log)  # the bonus of each attempt; accepted tokens are added below
    copied = copy_attempts = draft_attempts = draft_accepted = 0
    sim_time = 0.0
    for o in log:
        source = o.source
        if source == "plain":  # most attempts of most runs: no proposer to count
            tokens_out += o.accepted_k
            sim_time += pass_cost + per_token * (o.proposed + 1) + index_cost * o.index_ops
            continue
        k = o.accepted_k
        tokens_out += k
        time = pass_cost + per_token * (o.proposed + 1)
        if source == "copy":
            copy_attempts += 1
            copied += k
        elif source == "draft":
            draft_attempts += 1
            draft_accepted += k
            time += draft_cost * o.proposed
        sim_time += time + index_cost * o.index_ops
    plain_steps = len(log) - copy_attempts - draft_attempts
    return _derive(tokens_out, copied, copy_attempts, draft_attempts, draft_accepted, plain_steps, sim_time)


def aggregate(metrics: Iterable[RunMetrics]) -> RunMetrics:
    """Pool runs: counts and simulated time are summed, ratios recomputed."""
    items = list(metrics)
    if not items:
        raise EmptyLog("cannot aggregate zero metric records")
    return _derive(
        tokens_out=sum(m.tokens_out for m in items),
        copied=sum(m.copied_tokens for m in items),
        copy_attempts=sum(m.copy_attempts for m in items),
        draft_attempts=sum(m.draft_attempts for m in items),
        draft_accepted=sum(m.draft_accepted for m in items),
        plain_steps=sum(m.plain_steps for m in items),
        sim_time=sum(m.sim_time for m in items),
    )


def speedup(metrics_a: RunMetrics, metrics_b: RunMetrics) -> float:
    """Simulated-throughput ratio a/b; both runs must have produced tokens."""
    if metrics_a.tokens_out == 0 or metrics_b.tokens_out == 0:
        raise ZeroDivisionError("speedup undefined for runs with zero tokens")
    return metrics_a.sim_tps / metrics_b.sim_tps


def record_config(config_echo: dict) -> dict:
    """The ``config_*`` fields of a command's records, sorted by key: built
    once per command and handed to every :func:`metrics_record`."""
    return {f"config_{k}": v for k, v in sorted(config_echo.items())}


def metrics_record(
    transcript_id: str,
    category: str,
    turn: int,
    strategy: str,
    metrics: RunMetrics,
    config_fields: dict,
) -> dict:
    """Flat record emitted per (transcript, turn, strategy): these four keys,
    the metrics' fields, then ``config_fields`` (:func:`record_config`)."""
    rec = {"transcript_id": transcript_id, "category": category, "turn": turn, "strategy": strategy}
    rec.update(zip(_METRIC_FIELDS, _metric_values(metrics)))
    rec.update(config_fields)
    return rec


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see partials.

    The file gets the mode a plain write would (0o666 less the umask), not
    the temp file's 0o600.
    """
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=path.name, suffix=".tmp")
    except FileNotFoundError:
        raise FileNotFoundError(f"cannot write {path}: directory {path.parent} does not exist") from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


@cache
def _encoder(item_separator: str):
    """``json.dumps(obj, sort_keys=True, allow_nan=False, separators=(item_separator,
    ": "))`` as a function of ``obj``, made once: ``dumps`` builds an encoder per call."""
    if c_make_encoder is None:  # no _json accelerator: the standard library's Python encoder
        return json.JSONEncoder(sort_keys=True, allow_nan=False, separators=(item_separator, ": ")).encode
    # The arguments in the order JSONEncoder.iterencode passes them (CPython 3.10 to 3.13): markers,
    # default, string encoder, indent, key and item separators, sort_keys, skipkeys, allow_nan.
    # markers=None skips the circular-reference check (a cycle raises RecursionError, not
    # ValueError); records hold no cycles.
    encode = c_make_encoder(
        None, json.JSONEncoder().default, encode_basestring_ascii, None, ": ", item_separator, True, False, False
    )
    return lambda obj: "".join(encode(obj, 0))


def _dumps(obj, item_separator: str = ", ") -> str:
    return _encoder(item_separator)(obj)


def records_to_json(payload: dict) -> str:
    """``json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)`` and a
    newline, byte for byte. ``indent`` would send the whole file through
    the pure-Python encoder; here each container of plain values is one
    call of the C encoder, its item separator carrying the indent, and
    only containers of containers are walked in Python."""
    return _indented(payload, "\n") + "\n"


def records_to_jsonl(records: Iterable[dict]) -> str:
    """One ``json.dumps(record, sort_keys=True, allow_nan=False)`` line per record."""
    return "\n".join(map(_dumps, records)) + "\n"


_CONTAINERS = (dict, list, tuple)


def _indented(obj, nl: str) -> str:
    """``obj`` as ``json.dumps(indent=2)`` writes it where ``nl`` (a newline
    and the enclosing indent) starts its closing line."""
    if not isinstance(obj, _CONTAINERS) or not obj:
        return _dumps(obj)
    inner = nl + "  "
    if not any(map(isinstance, obj.values() if isinstance(obj, dict) else obj, repeat(_CONTAINERS))):
        flat = _dumps(obj, "," + inner)
        return f"{flat[0]}{inner}{flat[1:-1]}{nl}{flat[-1]}"
    if isinstance(obj, dict):
        if not all(isinstance(key, str) for key in obj):  # json.dumps converts such keys
            return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False).replace("\n", nl)
        parts = [f"{encode_basestring_ascii(key)}: {_indented(value, inner)}" for key, value in sorted(obj.items())]
        brackets = "{}"
    else:
        parts = [_indented(value, inner) for value in obj]
        brackets = "[]"
    body = ("," + inner).join(parts)
    del parts  # freed before the body is copied
    return f"{brackets[0]}{inner}{body}{nl}{brackets[1]}"


def records_to_csv(records: list[dict]) -> str:
    """CSV with the same columns as the JSON records, in stable order."""
    if not records:
        return ""
    columns = list(records[0].keys())
    import io

    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    for rec in records:
        writer.writerow(rec)
    return buf.getvalue()
