"""Wrappers the benchmark puts around copyspec's public calls.

:func:`cpu_clock` is the clock untraced runs read, and :class:`HostSpeed`
converts its intervals to a reference host speed. The two instruments are
installed for the duration of a ``with`` block and removed on exit:

* :class:`Probe` is the light one used by untraced runs. It wraps only
  ``Session.__init__`` and ``Session.run`` to find where set-up ends and
  generation starts, and to time each generated turn: two clock reads per
  turn, and a host-speed sample between turns every tenth of a second.
* :class:`Tracer` wraps every public call the per-layer breakdown needs
  and folds each span into per-name totals as it closes: call count,
  inclusive time, and self time (the span minus the spans nested in it).
  Spans are not stored one by one, because a long-context run makes
  millions of ``score_block`` calls. Deterministic counts are read from
  the program's own counters (``blocks_scored``, ``tokens_scored``,
  ``mix_ops``, ``lookups``) and from the attempt logs ``Session.run``
  returns.
"""

from __future__ import annotations

import gc
import resource
import sys
import time
import weakref
from collections import Counter
from time import perf_counter


REFERENCE_KERNEL_S = 0.002  # about the kernel's time on a 2-CPU x86-64 host, Python 3.11


def _kernel() -> None:
    table: dict[int, int] = {}
    for i in range(10000):
        table[i & 1023] = table.get((i * 7) & 1023, 0) + i


def cpu_clock() -> float:
    """CPU seconds used by this process and by its children that have ended.

    For copyspec, which computes in one thread and waits on nothing, this
    advances with the wall clock except while the host runs something else
    on our CPU: such stalls come in bursts of several milliseconds that
    last for minutes, and would otherwise swamp the tail of turn times.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def kernel_s() -> float:
    """Best of three timings of the reference kernel, with the garbage collector off."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = time.process_time()
            _kernel()
            best = min(best, time.process_time() - t0)
    finally:
        gc.enable()
    return best


class HostSpeed:
    """Converts :func:`cpu_clock` intervals to time at a reference host speed.

    The clock rate of a shared host can swing by nearly 2x over spans of
    seconds to minutes: a fixed pure-Python kernel takes 1.5 ms in one
    phase and 2.7 ms in the next, and copyspec's invocations slow down
    with it. So the kernel is timed before and after every invocation and,
    through :class:`Probe`, between turns at least every ``interval_s``.
    Each stretch of program time between two samples is multiplied by
    ``REFERENCE_KERNEL_S`` over the mean of the kernel times at its ends;
    the samples' own time is left out. The kernel does not touch copyspec,
    so a change to the program moves scaled times as much as raw ones.
    """

    def __init__(self, interval_s: float = 0.1):
        self.interval_s = interval_s
        self.sampling_wall_s = 0.0  # wall-clock time spent in samples so far
        self._segments: list[tuple[float, float, float]] = []  # (start, end, factor) on cpu_clock
        self._open: tuple[float, float] | None = None  # (start, kernel seconds at start)

    def sample(self) -> None:
        w0 = perf_counter()
        t0 = cpu_clock()
        k = kernel_s()
        t1 = cpu_clock()
        if self._open is not None:
            start, k0 = self._open
            self._segments.append((start, t0, 2 * REFERENCE_KERNEL_S / (k0 + k)))
        self._open = (t1, k)
        self.sampling_wall_s += perf_counter() - w0

    def due(self) -> bool:
        return self._open is None or cpu_clock() - self._open[0] >= self.interval_s

    def scaled(self, a: float, b: float) -> float:
        """Program time within [a, b] of :func:`cpu_clock` at the reference speed, samples excluded."""
        return sum((min(b, end) - max(a, start)) * f for start, end, f in self._segments if end > a and start < b)

    def unscaled(self, a: float, b: float) -> float:
        return sum(min(b, end) - max(a, start) for start, end, _ in self._segments if end > a and start < b)

    def forget(self) -> None:
        """Drop closed stretches once their intervals have been converted."""
        self._segments.clear()


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def replace_function(self, original, wrapper) -> None:
        """Rebind ``original`` to ``wrapper`` in every copyspec module that imported it."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "copyspec" or module_name.startswith("copyspec.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, wrapper)

    def undo(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


class Probe:
    """Set-up end, generation window and per-turn times of one invocation, on :func:`cpu_clock`.

    Between turns it also lets ``speed`` sample the host speed.
    """

    def __init__(self, engine_module, speed: HostSpeed):
        self._session = engine_module.Session
        self._speed = speed
        self._patches = _Patches()
        self.reset_invocation()

    def reset_invocation(self) -> None:
        self.gen_start: float | None = None
        self.gen_end: float | None = None
        self.turns: list[tuple[float, float, int, int]] = []  # (start, end, context length before, tokens committed)

    def __enter__(self) -> "Probe":
        session = self._session
        orig_init, orig_run = vars(session)["__init__"], vars(session)["run"]
        probe = self

        def __init__(self, *args, **kwargs):
            if probe.gen_start is None:
                probe.gen_start = cpu_clock()
            orig_init(self, *args, **kwargs)

        def run(self, *args, **kwargs):
            ctx = len(self.context)
            t0 = cpu_clock()
            result = orig_run(self, *args, **kwargs)
            t1 = cpu_clock()
            probe.gen_end = t1
            probe.turns.append((t0, t1, ctx, len(self.context) - ctx))
            if probe._speed.due():
                probe._speed.sample()
            return result

        self._patches.set(session, "__init__", __init__)
        self._patches.set(session, "run", run)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


def _model_counters(model) -> tuple[int, int]:
    if model is None:
        return 0, 0
    return getattr(model, "blocks_scored", 0), getattr(model, "tokens_scored", 0)


def _session_counters(session) -> tuple[int, ...]:
    index = getattr(session, "index", None)
    return (
        *_model_counters(session.target),
        *_model_counters(session.draft),
        getattr(index, "mix_ops", 0),
        getattr(index, "lookups", 0),
    )


_COUNTER_NAMES = ("target.calls", "target.tokens", "draft.calls", "draft.tokens", "index.mix_ops", "index.lookups")


class Tracer:
    """Per-name span totals and counts over copyspec's public calls.

    ``spans[name]`` is ``[calls, inclusive_s, self_s]``. A span's name
    starts with its layer (``corpus``, ``lm``, ``match_index``, ``engine``,
    ``metrics``, ``analysis``, ``cli``). Score calls are split into
    ``lm.target`` and ``lm.draft`` by the session slot the model instance
    was given. Time the tracer spends on its own bookkeeping after a span
    closes is kept out of the enclosing span's self time.
    """

    def __init__(self, copyspec_modules: dict):
        self._mods = copyspec_modules
        self._patches = _Patches()
        self._stack: list[list[float]] = []
        self._roles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.spans: dict[str, list] = {}
        self.counts: Counter = Counter()

    def take_spans(self) -> dict[str, list]:
        """The spans closed since the last call, and start afresh."""
        spans, self.spans = self.spans, {}
        return spans

    def take_counts(self) -> Counter:
        counts, self.counts = self.counts, Counter()
        return counts

    def wrap(self, fn, name, after=None, before=None):
        """``fn`` timed as a span; ``name`` may be a function of the call's arguments."""
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            state = before(args) if before is not None else None
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, state)
            rec = tracer.spans.get(label)
            if rec is None:
                rec = tracer.spans[label] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += t1 - t0
            rec[2] += t1 - t0 - frame[0]
            if stack:
                stack[-1][0] += perf_counter() - t0
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        m = self._mods
        corpus, lm, match_index, engine, metrics, analysis = (
            m["corpus"], m["lm"], m["match_index"], m["engine"], m["metrics"], m["analysis"],
        )
        functions = [
            (corpus, "load_transcripts", "corpus.load"),
            (corpus, "training_sequences", "corpus.tokenize"),
            (corpus, "turn_prefix_tokens", "corpus.tokenize"),
            (lm, "train_kgram", "lm.train"),
            (engine, "run_transcript", "engine.run_transcript"),
            (metrics, "score_log", "metrics.score"),
            (metrics, "aggregate", "metrics.score"),
            (metrics, "records_to_json", "metrics.emit"),
            (metrics, "atomic_write_text", "metrics.emit"),
            (analysis, "sweep", "analysis.sweep"),
        ]
        for module, attr, name in functions:
            original = getattr(module, attr, None)
            if original is not None:
                self._patches.replace_function(original, self.wrap(original, name))

        roles = self._roles
        model_classes = [lm.LangModel, *_subclasses(lm.LangModel)]
        for cls in model_classes:
            for attr, name in (
                ("score_block", lambda args: roles.get(args[0], "lm.other")),
                ("truncate", "lm.truncate"),
                ("spawn", "lm.spawn"),
            ):
                if attr in vars(cls):
                    self._patches.set(cls, attr, self.wrap(vars(cls)[attr], name))

        index_cls = match_index.MatchIndex
        self._patches.set(index_cls, "extend", self.wrap(vars(index_cls)["extend"], "match_index.extend"))
        self._patches.set(
            index_cls, "lookup", self.wrap(vars(index_cls)["lookup"], "match_index.lookup", after=self._after_lookup)
        )

        session = engine.Session
        orig_init = vars(session)["__init__"]
        tracer = self

        def __init__(self, *args, **kwargs):
            orig_init(self, *args, **kwargs)
            roles[self.target] = "lm.target"
            if self.draft is not None:
                roles[self.draft] = "lm.draft"
            tracer.counts["sessions"] += 1

        self._patches.set(session, "__init__", __init__)
        self._patches.set(
            session,
            "extend_context",
            self.wrap(
                vars(session)["extend_context"], "engine.extend_context",
                before=self._counters_before, after=self._after_extend,
            ),
        )
        self._patches.set(
            session,
            "run",
            self.wrap(vars(session)["run"], "engine.run", before=self._counters_before, after=self._after_run),
        )
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    # -- counters -----------------------------------------------------------

    @staticmethod
    def _counters_before(args):
        return _session_counters(args[0])

    def _add_counter_delta(self, session, before, prefix: str = "") -> tuple[int, ...]:
        delta = tuple(a - b for a, b in zip(_session_counters(session), before))
        for name, value in zip(_COUNTER_NAMES, delta):
            self.counts[prefix + name] += value
        return delta

    def _after_lookup(self, args, result, state) -> None:
        if result is not None:
            self.counts["index.hits"] += 1

    def _after_extend(self, args, result, before) -> None:
        session, tokens = args[0], args[1]
        self._add_counter_delta(session, before)
        self.counts["prompt.tokens"] += len(tokens)

    def _after_run(self, args, result, before) -> None:
        session = args[0]
        delta = self._add_counter_delta(session, before)
        strategy = session.config.strategy
        self.counts[f"gen.target.calls.{strategy}"] += delta[0]
        counts = self.counts
        log = result[1]
        counts[f"attempts.{strategy}"] += len(log)
        for outcome in log:
            counts["committed"] += outcome.accepted_k + 1
            if outcome.source in ("copy", "draft"):
                counts[f"{outcome.source}.proposed"] += outcome.proposed
                counts[f"{outcome.source}.accepted"] += outcome.accepted_k


def _subclasses(cls) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
