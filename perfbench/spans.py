"""Spans and counts recorded around calls into etdgraph's public functions.

The tracer patches the layer functions from outside the package: every
module attribute that refers to a traced function is replaced by a
wrapper, so calls through `from .reason import derive_mobility` style
imports are caught too. `model` and `vocab` are leaf utilities and are
not wrapped; their cost shows inside the self time of their callers.

A span is (id, parent id, name, start, end, request id). Spans stay in
memory and are written once, by `dump`, when the run ends. Self time is
a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import logging
import statistics
import threading
import time
from collections import Counter, defaultdict

# (module, attribute, span name); Store methods are patched on the class.
FUNCTIONS = (
    ("ingest", "parse_records", "ingest.parse_records"),
    ("ingest", "records_to_graph", "ingest.records_to_graph"),
    ("graphio", "export_quads", "graphio.export_quads"),
    ("graphio", "import_quads", "graphio.import_quads"),
    ("graphio", "describe_entity", "graphio.describe_entity"),
    ("graphio", "serialize_description", "graphio.serialize_description"),
    ("query", "parse_query", "query.parse_query"),
    ("query", "eval_query", "query.eval_query"),
    ("reason", "derive_mobility", "reason.derive_mobility"),
    ("reason", "top_institution_at", "reason.top_institution_at"),
    ("reason", "ancestors_at", "reason.ancestors_at"),
    ("reason", "structure_timeline", "reason.structure_timeline"),
    ("analytics", "gender_of", "analytics.gender_of"),
    ("analytics", "gender_tally", "analytics.gender_tally"),
    ("analytics", "supervisor_gender_rate", "analytics.supervisor_gender_rate"),
    ("analytics", "supervision_gender_matrix", "analytics.supervision_gender_matrix"),
    ("analytics", "interdisciplinary_works", "analytics.interdisciplinary_works"),
    ("analytics", "mobility_by_gender", "analytics.mobility_by_gender"),
    ("analytics", "institution_cooperation", "analytics.institution_cooperation"),
)
MODULES = ("ingest", "store", "graphio", "query", "reason", "analytics", "cli")


class SkipCounter(logging.Handler):
    """Counts the mobility boundaries `reason` logs as skipped. Attached
    in every run, so those warnings never reach the last-resort handler."""

    def __init__(self):
        super().__init__()
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("no mobility event"):
            self.count += 1


def attach_skip_counter() -> SkipCounter:
    handler = SkipCounter()
    logging.getLogger("etdgraph.reason").addHandler(handler)
    return handler


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # parallel columns: parent, name id, start, end, request id
        self.parent: list[int] = []
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.request: list[int] = []
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: int):
        """Tag this thread's open spans and its next spans with request_id."""
        self._local.request = request_id
        for sid in self._stack():
            self.request[sid] = request_id

    def _open(self, name: str) -> int:
        with self._lock:
            nid = self._name_ids.get(name)
            if nid is None:
                nid = self._name_ids[name] = len(self.names)
                self.names.append(name)
            sid = len(self.name)
            stack = self._stack()
            self.parent.append(stack[-1] if stack else -1)
            self.name.append(nid)
            self.start.append(0.0)
            self.end.append(0.0)
            self.request.append(getattr(self._local, "request", -1))
        stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack().pop()

    def current(self) -> str | None:
        stack = self._stack()
        return self.names[self.name[stack[-1]]] if stack else None

    def count(self, key: str, n: int = 1):
        with self._lock:
            self.counts[key] += n

    def span(self, name: str, fn, after=None):
        """Wrap fn in a span; `after(result)` records counts at the boundary."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if after is not None:
                after(result)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package):
        mods = [getattr(package, m) for m in MODULES]
        for mod_name, attr, span_name in FUNCTIONS:
            original = getattr(getattr(package, mod_name), attr)
            wrapped = self.span(span_name, original, self._after(span_name))
            for mod in mods:
                if getattr(mod, attr, None) is original:
                    self._set(mod, attr, wrapped)
        store_cls = package.store.Store
        self._set(store_cls, "insert",
                  self.span("store.insert", store_cls.insert, self._after_insert))
        self._set(store_cls, "match", self._traced_match(store_cls.match))
        self._set(package.cli, "main", self._traced_main(package.cli.main))
        self._set(package.cli, "_make_handler",
                  self._traced_handler_factory(package.cli._make_handler))
        return self

    def uninstall(self):
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def _after(self, name: str):
        if name == "graphio.serialize_description":
            return lambda text: self.samples["describe_bytes"].append(len(text.encode("utf-8")))
        if name == "query.eval_query":
            return lambda table: self.count("query.result_rows", len(table.rows))
        return None

    def _after_insert(self, result):
        self.count(f"store.insert.{result.effect.value}")

    def _traced_match(self, match):
        inner = self.span("store.match", match)

        @functools.wraps(match)
        def traced(store, pattern):
            in_query = self.current() == "query.eval_query"
            rows = inner(store, pattern)
            self.count("store.match_rows", len(rows))
            if in_query:
                self.count("query.match_rows", len(rows))
            return rows

        return traced

    def _traced_main(self, main):
        @functools.wraps(main)
        def traced(argv=None):
            command = argv[0] if argv else "none"
            return self.span(f"cli.main.{command}", main)(argv)

        return traced

    def _traced_handler_factory(self, make_handler):
        tracer = self

        @functools.wraps(make_handler)
        def factory(store):
            base = make_handler(store)

            class TracedHandler(base):
                def handle_one_request(self):
                    sid = tracer._open("cli.http")
                    try:
                        super().handle_one_request()
                    finally:
                        tracer._close(sid)

                def do_GET(self):
                    rid = self.headers.get("X-Request-Id")
                    if rid is not None and rid.isdigit():
                        tracer.set_request(int(rid))
                    super().do_GET()

            return TracedHandler

        return factory

    # -- results -------------------------------------------------------------

    def durations(self) -> dict[str, tuple[float, float, int]]:
        """span name -> (inclusive seconds, self seconds, calls)."""
        n = len(self.name)
        child = [0.0] * n
        for sid in range(n):
            p = self.parent[sid]
            if p >= 0:
                child[p] += self.end[sid] - self.start[sid]
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for sid in range(n):
            name = self.names[self.name[sid]]
            d = self.end[sid] - self.start[sid]
            incl[name] += d
            own[name] += d - child[sid]
            calls[name] += 1
        return {k: (incl[k], own[k], calls[k]) for k in calls}

    def summary(self) -> dict:
        """Durations, counts and samples, in a form that merges across processes."""
        return {
            "durations": self.durations(),
            "counts": dict(self.counts),
            "samples": {k: list(v) for k, v in self.samples.items()},
        }

    def dump(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for sid in range(len(self.name)):
                fh.write(f"{sid}\t{self.parent[sid]}\t{self.name[sid]}\t"
                         f"{self.start[sid]:.9f}\t{self.end[sid]:.9f}\t{self.request[sid]}\n")


def merge(summaries: list[dict]) -> dict:
    durations: dict[str, list[float]] = defaultdict(lambda: [0.0, 0.0, 0])
    counts: Counter = Counter()
    samples: dict[str, list[float]] = defaultdict(list)
    for s in summaries:
        for k, (incl, own, calls) in s["durations"].items():
            d = durations[k]
            d[0] += incl
            d[1] += own
            d[2] += calls
        counts.update(s["counts"])
        for k, v in s["samples"].items():
            samples[k].extend(v)
    return {"durations": dict(durations), "counts": dict(counts), "samples": dict(samples)}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100)[q - 1]
