"""Timing spans around the calls a session makes into each dualgc layer.

The wrappers live here, not in ``src/``: ``Tracer.installed()`` swaps them in
for the names ``dualgc.session`` imported from ``garbling``, ``consistency``
and ``outputs``, for the ``encode_*``/``decode_*`` codecs of
``dualgc.messages`` (session looks them up at call time), for
``dualgc.commitments.commit`` (reached through module globals by
``tagged_commit`` and ``open_commitment``) and for
``GarbledCircuit.tables_blob``, and puts every original back on exit.
Transport calls are timed by ``TracedTransport``, which the benchmark passes
through ``run_session(transport=...)``.

A span is ``[name, start, end, parent, session]``: ``parent`` is the index
of the enclosing span or -1, ``session`` the id the benchmark set before the
call. Spans stay in memory until ``write_spans``.
"""

from __future__ import annotations

import functools
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from dualgc import commitments, messages
from dualgc import session as session_module
from dualgc.garbling import GarbledCircuit
from dualgc.messages import MessageType
from dualgc.transport import Transport

SPAN_FIELDS = ("name", "start", "end", "parent", "session")

# Modules whose functions dualgc.session imported by name.
_SESSION_IMPORTS = ("dualgc.garbling", "dualgc.consistency", "dualgc.outputs")

# Step groups reported per layer: metric stem -> wrapped function names.
STEPS = {
    "consistency.material": ("generate_input_material",
                             "generate_cheating_material"),
    "consistency.toss": ("coin_toss_commit", "coin_toss_open",
                         "combine_challenge"),
    "consistency.audit": ("check_pair_construction",),
    "consistency.derive": ("open_position", "open_eval_triple",
                           "evaluate_final_labels"),
    "consistency.hash_tuple": ("make_hash_tuple", "cross_hash_aggregate",
                               "label_check_passes"),
    "consistency.arbitrate": ("issue_consistency_proof",
                              "verify_consistency_proof",
                              "verify_check_failure_claim"),
    "outputs.commit": ("commit_output_encodings", "commit_output_labels",
                       "bundle_digest"),
    "outputs.verify": ("verify_output",),
    "outputs.failure_proof": ("verify_failure_proof",),
    "garbling.garble": ("garble",),
    "garbling.blob": ("tables_blob",),
    "garbling.parse": ("parse_tables_blob",),
    "garbling.evaluate": ("evaluate",),
    "commitments.commit": ("commit",),
    "transport.send": ("send",),
    "transport.recv": ("recv",),
    "transport.setup": ("setup",),
}

TYPE_NAMES = tuple(t.name for t in MessageType)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def codec_type(function_name: str) -> str:
    """``decode_hash_tuples`` -> ``HASH_TUPLE``; frame codecs have none."""
    stem = function_name.split("_", 1)[1].upper()
    for candidate in (stem, stem[:-1]):
        if candidate in TYPE_NAMES:
            return candidate
    return ""


class Tracer:
    """Spans and counters of the traced sessions of one run."""

    def __init__(self):
        self.spans: list[list] = []
        self.session = -1
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.session])
        self._open.append(index)
        return index

    def _end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        index = self._begin(name)
        try:
            yield
        finally:
            self._end(index)

    def count(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += amount

    def _wrap(self, name: str, fn, observe=None):
        begin, end = self._begin, self._end

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(index)
            if observe is not None:
                observe(index, args, result)
            return result

        return timed

    # ------------------------------------------------------------- patching

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _observe_challenge(self, _index, _args, result):
        self.count("combine_calls")
        if result is None:
            self.count("combine_none")

    def _observe_blob(self, _index, _args, result):
        self.count("blob_bytes", len(result))

    def _observe_frame(self, index, args, result):
        # A frame codec serves every type; its span name gets the type.
        mtype = args[0] if self.spans[index][0].endswith("encode_frame") \
            else result[0]
        self.spans[index][0] += "." + mtype.name

    def install(self) -> None:
        for name, fn in list(vars(session_module).items()):
            if inspect.isfunction(fn) and fn.__module__ in _SESSION_IMPORTS:
                observe = (self._observe_challenge
                           if name == "combine_challenge" else None)
                self._patch(session_module, name, self._wrap(
                    f"{fn.__module__.rsplit('.', 1)[1]}.{name}", fn, observe))
        for name, fn in list(vars(messages).items()):
            if inspect.isfunction(fn) and name.startswith(("encode_",
                                                           "decode_")):
                observe = (self._observe_frame
                           if name.endswith("_frame") else None)
                self._patch(messages, name,
                            self._wrap(f"messages.{name}", fn, observe))
        self._patch(commitments, "commit",
                    self._wrap("commitments.commit", commitments.commit))
        self._patch(GarbledCircuit, "tables_blob",
                    self._wrap("garbling.tables_blob",
                               GarbledCircuit.tables_blob, self._observe_blob))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": SPAN_FIELDS, "spans": self.spans}, fh)


class TracedTransport(Transport):
    """Delegates to ``inner`` and records a span per send and receive."""

    def __init__(self, tracer: Tracer, inner: Transport):
        self.tracer = tracer
        self.inner = inner

    def send(self, sender, receiver, frame):
        with self.tracer.span("transport.send"):
            self.inner.send(sender, receiver, frame)
        self.tracer.count("frames")
        self.tracer.count("bytes", len(frame))

    def recv(self, receiver, sender):
        with self.tracer.span("transport.recv"):
            return self.inner.recv(receiver, sender)

    def close(self):
        self.inner.close()


# ------------------------------------------------------------------ summary

def summarize(tracer: Tracer) -> dict:
    """Span totals over all traced sessions.

    ``busy[name]`` and ``calls[name]`` count only a layer's outermost spans,
    so a codec that calls another codec is not counted twice; spans of one
    layer nested in another layer's span (a commitment inside a consistency
    step) still count for their own layer. ``direct[name]`` sums the spans
    directly under each ``session`` span, which do not overlap, and
    ``self_s`` is the session time they leave uncovered.
    """
    spans = tracer.spans
    busy: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    direct: dict[str, float] = defaultdict(float)
    session_s = 0.0
    sessions = 0
    for name, start, end, parent, _sid in spans:
        if name == "session":
            session_s += end - start
            sessions += 1
            continue
        parent_name = spans[parent][0] if parent >= 0 else ""
        if parent_name == "session":
            direct[name] += end - start
        if layer_of(parent_name) == layer_of(name):
            continue
        busy[name] += end - start
        calls[name] += 1
    return {"busy": busy, "calls": calls, "direct": direct,
            "session_s": session_s, "sessions": sessions,
            "self_s": session_s - sum(direct.values())}


def shares(summary: dict) -> dict[str, float]:
    """Share of traced session time spent directly in each layer, in
    message decoding, and in the session's own code."""
    total = summary["session_s"] or 1.0
    out: dict[str, float] = defaultdict(float)
    for name, t in summary["direct"].items():
        out[layer_of(name)] += t / total
        if name.startswith("messages.decode_"):
            out["messages.decode"] += t / total
    out["session.self"] = summary["self_s"] / total
    return dict(out)


def step_totals(summary: dict, stem: str) -> tuple[float, int]:
    """Time and calls of one ``STEPS`` group."""
    names = [f"{layer_of(stem)}.{fn}" for fn in STEPS[stem]]
    return (sum(summary["busy"].get(n, 0.0) for n in names),
            sum(summary["calls"][n] for n in names))


def decode_time_by_type(summary: dict) -> dict[str, float]:
    """Frame and body decode time per message type."""
    out = dict.fromkeys(TYPE_NAMES, 0.0)
    for name, t in summary["busy"].items():
        if name.startswith("messages.decode_"):
            fn, _, frame_type = name[len("messages."):].partition(".")
            mtype = frame_type or codec_type(fn)
            if mtype:
                out[mtype] += t
    return out
