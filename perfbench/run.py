"""etdgraph benchmark: seeded catalogs, three workloads, per-layer tracing.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke
    python3 perfbench/run.py --record-expected

Run it from the root of a checkout; it imports etdgraph from `src/` and
writes scratch files under `.perfbench-work/`, which it removes.

Every run generates a catalog from the seed, ingests it with the `ingest`
command, loads the written store, starts `etdgraph serve` on it in a
subprocess and then, for `--seconds`, runs a closed loop of five kinds
of unit, one at a time:

- load: `import_quads` of the store (`setup_s`);
- cli: the next of `ingest`, `report mobility`, `ingest`,
  `report cooperation`;
- query: the next query of the seed's query pool;
- report: the next library report call of the seed's report pool;
- describe: a burst of DESCRIBE_BURST requests from CLIENTS threads.

Each workload gives each kind a share of the loop time; the next unit is
the kind furthest below its share, so every kind's samples spread over
the whole run. The loop ends at the first unit boundary after
`--seconds` at which every pool has run whole at least once, so every
workload reports every end-to-end metric. Pooled operations of one
metric differ in cost, so such a metric is taken per operation first:
the median latency of each operation, then the mean (or, for queries,
the percentile) of those medians. The last line of stdout is a JSON
object with `correct`, `attempted`, `failed` and `metrics`; the exit
code is 1 when any output check failed.

With `--trace 1` the run instead replays one fixed, seed-determined
schedule twice, untraced and then traced (in process and in a traced
server), reports per-layer metrics and the tracing overhead, and writes
the spans to `.perfbench-traces/`.
"""

from __future__ import annotations

import argparse
import http.client
import json
import logging
import math
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, replace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    import etdgraph
    from etdgraph import graphio, ingest
    from etdgraph.vocab import EntityKind
except ImportError as exc:
    sys.exit(f"error: cannot import etdgraph from {os.path.join(ROOT, 'src')}: {exc}")
if not os.path.abspath(etdgraph.__file__).startswith(os.path.join(ROOT, "src", "")):
    sys.exit(f"error: etdgraph was imported from {etdgraph.__file__}, not from this checkout")

import gen  # noqa: E402
import ops  # noqa: E402
import spans  # noqa: E402

DEFAULT_SEED = 0
EXPECTED_PATH = os.path.join(HERE, "expected.json")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
TRACE_DIR = os.path.join(ROOT, ".perfbench-traces")  # spans of the last traced run
DESCRIBE_BURST = 50
CLIENTS = 2
# passes of each kind in the fixed schedule of a traced run: a pass is
# one unit of load or describe, or one run through a pool
TRACE_PASSES = {"load": 1, "cli": 1, "query": 1, "report": 1, "describe": 5}
STATS_NAMES = {
    "persons": EntityKind.PERSON,
    "bodies": EntityKind.CORPORATE_BODY,
    "works": EntityKind.WORK,
    "places": EntityKind.PLACE,
    "genders": EntityKind.GENDER,
    "external": EntityKind.EXTERNAL_RESOURCE,
}


@dataclass(frozen=True)
class Workload:
    knobs: gen.Knobs
    shares: dict  # unit kind -> share of the timed loop


CATALOG = gen.Knobs(persons=600)
WORKLOADS = {
    # write path and the real CLI commands: ingest, store load, report
    "cli-pipeline": Workload(CATALOG, {"load": 0.1, "cli": 0.5, "query": 0.1, "report": 0.2,
                                       "describe": 0.1}),
    # read path on a loaded store: query joins, store.match, reason, analytics
    "warm-reports": Workload(CATALOG, {"load": 0.1, "cli": 0.2, "query": 0.25, "report": 0.3,
                                       "describe": 0.15}),
    # describe_entity, serialize_description and the HTTP handler of `serve`
    "http-describe": Workload(CATALOG, {"load": 0.1, "cli": 0.2, "query": 0.1, "report": 0.15,
                                        "describe": 0.45}),
}
TINY = gen.Knobs(universities=3, depth=2, fanout=2, persons=40, places=20)

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ingest_records_per_s": "records/s",
    "tnq_bytes_per_etd_byte": "ratio", "cli_report_s": "s",
    "query_p50_ms": "ms", "query_p90_ms": "ms",
    "gender_ms": "ms", "supervision_ms": "ms", "interdisciplinary_ms": "ms",
    "mobility_ms": "ms", "cooperation_ms": "ms",
    "describe_p50_ms": "ms", "describe_p99_ms": "ms", "describe_rps": "req/s",
}


class Server:
    """`etdgraph serve` on the run's store, in a subprocess through serve.py."""

    def __init__(self, workdir: str, store_path: str, name: str, traced: bool):
        self.result_path = os.path.join(workdir, f"{name}.json")
        self.spans_path = os.path.join(workdir, f"{name}-spans.tsv")
        self.log_path = os.path.join(workdir, f"{name}.log")
        cmd = [sys.executable, os.path.join(HERE, "serve.py"), store_path, self.result_path]
        if traced:
            cmd += ["--trace", self.spans_path]
        self.started = time.perf_counter()
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL,
                                         stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT)
        self.port = None

    def wait_ready(self, timeout: float = 150.0) -> float:
        """Seconds from spawn until /health answers 200."""
        deadline = time.monotonic() + timeout
        while self.port is None:
            with open(self.log_path, encoding="utf-8") as log:
                m = re.search(r"serving on port (\d+)", log.read())
            if m:
                self.port = int(m.group(1))
            elif self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"server did not start: see {self.log_path}")
            else:
                time.sleep(0.02)
        while True:
            try:
                status, _, _ = request(self.port, "/health", 0)
                if status == 200:
                    return time.perf_counter() - self.started
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never answered /health")
            time.sleep(0.02)

    def stop(self) -> dict:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("server ignored SIGTERM")
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited {self.proc.returncode}")
        with open(self.result_path, encoding="utf-8") as fh:
            return json.load(fh)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def request(port: int, path: str, request_id: int) -> tuple[int, bytes, float]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        t0 = time.perf_counter()
        conn.request("GET", path, headers={"X-Request-Id": str(request_id)})
        resp = conn.getresponse()
        body = resp.read()
        return resp.status, body, time.perf_counter() - t0
    finally:
        conn.close()


class Run:
    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.catalog = gen.generate(seed, workload.knobs)
        self.pools = ops.Pools(seed, self.catalog)
        self.samples: dict[str, list[float]] = defaultdict(list)
        # metric -> operation key -> latencies, for metrics of pooled operations
        self.calls: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
        self.pool = {"cli": self.pools.cli, "query": self.pools.queries,
                     "report": self.pools.reports}
        self.cursor = dict.fromkeys(self.pool, 0)
        self.attempted = 0
        self.failures: list[str] = []
        self.answers: dict[str, str] = {}
        self.partners: dict[str, str] = {}
        self.bodies: dict[str, bytes] = {}
        self.describe_wall = 0.0
        self.server: Server | None = None
        self.tracer: spans.Tracer | None = None
        self.store = None
        self.etd_path = os.path.join(workdir, "catalog.etd")
        self.tnq_path = os.path.join(workdir, "catalog.tnq")
        self.out_path = os.path.join(workdir, "again.tnq")
        with open(self.etd_path, "w", encoding="utf-8") as fh:
            fh.write(self.catalog.text)
        self.etd_bytes = os.path.getsize(self.etd_path)

    # -- checks ----------------------------------------------------------------

    def fail(self, message: str):
        self.failures.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def answer(self, key: str, text: str):
        d = ops.digest(text)
        prev = self.answers.setdefault(key, d)
        if prev != d:
            self.fail(f"answer changed between repeats: {key}")

    # -- setup -------------------------------------------------------------------

    def setup(self, servers: list[tuple[str, bool]]) -> list[Server]:
        t0 = time.perf_counter()
        code, _ = ops.run_cli(["ingest", self.etd_path, "--out", self.tnq_path,
                               "--batch-date", "none"])
        self.samples["ingest_s"].append(time.perf_counter() - t0)
        self.attempted += 1
        if code != 0:
            raise RuntimeError(f"ingest exited {code}")
        with open(self.tnq_path, "rb") as fh:
            self.tnq = fh.read()
        self.load()
        started = [Server(self.workdir, self.tnq_path, name, traced) for name, traced in servers]
        for server in started:
            self.samples["server_ready_s"].append(server.wait_ready())
        return started

    def load(self) -> float:
        self.store = None
        t0 = time.perf_counter()
        with open(self.tnq_path, encoding="utf-8") as fh:
            self.store = graphio.import_quads(fh.read())
        self.attempted += 1
        return time.perf_counter() - t0

    # -- units ---------------------------------------------------------------------

    def unit_ops(self, kind: str) -> list:
        if kind == "describe":
            return [self.pools.next_describe() for _ in range(DESCRIBE_BURST)]
        if kind == "load":
            return [None]
        pool = self.pool[kind]
        self.cursor[kind] += 1
        return [pool[(self.cursor[kind] - 1) % len(pool)]]

    def execute(self, kind: str, unit: list) -> float:
        """Run one unit; returns its wall seconds."""
        t0 = time.perf_counter()
        if kind == "load":
            self.samples["setup_s"].append(self.load())
        elif kind == "describe":
            self.describe(unit)
        else:
            for op in unit:
                self.attempted += 1
                if self.tracer is not None:
                    self.tracer.set_request(self.attempted)
                try:
                    getattr(self, f"do_{kind}")(op)
                except Exception as exc:  # an operation failure is a result, not a crash
                    self.fail(f"{op.key}: {type(exc).__name__}: {exc}")
        return time.perf_counter() - t0

    def do_cli(self, op: ops.Op):
        if op.args[0] == "ingest":
            argv = ["ingest", self.etd_path, "--out", self.out_path, "--batch-date", "none"]
        else:
            argv = ["report", op.args[1], "--store", self.tnq_path, "--during", op.args[2]]
        t0 = time.perf_counter()
        code, out = ops.run_cli(argv)
        dt = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"exit {code}")
        if op.args[0] == "ingest":
            self.samples["ingest_s"].append(dt)
            with open(self.out_path, "rb") as fh:
                if fh.read() != self.tnq:
                    raise RuntimeError("ingest wrote different bytes on a repeat")
        else:
            self.calls["cli_report_s"][op.key].append(dt)
            self.answer(f"cli {op.key}", out)

    def do_query(self, op: ops.Op):
        text, partner = op.args
        t0 = time.perf_counter()
        table = ops.run_query(self.store, text)
        self.calls["query_ms"][op.key].append((time.perf_counter() - t0) * 1000)
        self.answer(op.key, table.to_text())
        if not table.rows:
            raise RuntimeError("the query has no rows")
        if partner is not None:
            self.partners[text] = partner

    def do_report(self, op: ops.Op):
        t0 = time.perf_counter()
        answer = ops.run_report(self.store, op.args)
        dt = time.perf_counter() - t0
        metric = ops.REPORT_METRIC[op.args[0]]
        if metric is not None:
            self.calls[metric][op.key].append(dt * 1000)
        self.answer(op.key, answer)

    def describe(self, unit: list):
        port = self.server.port
        results: list = [None] * len(unit)
        cursor = iter(range(len(unit)))
        lock = threading.Lock()

        def client():
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                op = unit[i]
                try:
                    results[i] = request(port, f"/entity/{op.key}", op.args[0])
                except (OSError, http.client.HTTPException) as exc:
                    results[i] = exc

        threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.describe_wall += time.perf_counter() - t0
        for op, result in zip(unit, results):
            self.attempted += 1
            if isinstance(result, Exception):
                self.fail(f"GET {op.key}: {result}")
                continue
            status, body, dt = result
            self.samples["describe_ms"].append(dt * 1000)
            known = op.args[1]
            if status != (200 if known else 404):
                self.fail(f"GET {op.key}: status {status}")
            elif known and self.bodies.setdefault(op.key, body) != body:
                self.fail(f"GET {op.key}: body changed between requests")

    # -- loops -----------------------------------------------------------------------

    def covered(self, spent: dict) -> bool:
        """Every kind has run, and every pool has run whole."""
        return all(spent.values()) and all(
            self.cursor[kind] >= len(pool) for kind, pool in self.pool.items())

    def timed_loop(self, seconds: float):
        shares = self.workload.shares
        spent = dict.fromkeys(shares, 0.0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not self.covered(spent):
            kind = min(shares, key=lambda k: spent[k] / shares[k])
            spent[kind] += self.execute(kind, self.unit_ops(kind))

    def schedule(self) -> list[tuple[str, list]]:
        remaining = {kind: n * len(self.pool.get(kind, [None]))
                     for kind, n in TRACE_PASSES.items()}
        units = []
        while any(remaining.values()):
            for kind in remaining:
                if remaining[kind]:
                    remaining[kind] -= 1
                    units.append((kind, self.unit_ops(kind)))
        return units

    # -- final checks ------------------------------------------------------------------

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.fail(message)

    def final_checks(self):
        exported = graphio.export_quads(self.store)
        self.check(exported.encode("utf-8") == self.tnq,
                   "export_quads(import_quads(tnq)) differs from the ingested tnq")
        for name, kind in STATS_NAMES.items():
            got = len(self.store.entities_of_kind(kind))
            self.check(got == self.catalog.counts[name],
                       f"stats {name}: {got}, generator made {self.catalog.counts[name]}")
        for text, partner in self.partners.items():
            if partner not in self.answers:
                self.answer(partner, ops.run_query(self.store, partner).to_text())
            self.check(self.answers[text] == self.answers[partner],
                       f"clause order changed the answer: {text}")
        export_lines = set(exported.splitlines())
        for path, body in self.bodies.items():
            try:
                ok = ops.description_lines_ok(body.decode("utf-8"), export_lines)
            except Exception as exc:  # any parse error fails the check
                ok = False
                path = f"{path} ({type(exc).__name__}: {exc})"
            self.check(ok, f"GET {path}: body is not a parseable subset of the store")
        if self.seed == DEFAULT_SEED and self.workload.knobs == CATALOG:
            expected = load_expected()
            self.check(bool(expected), "no pinned digests for the default seed")
            for key, d in expected.items():
                self.check(self.answers.get(key) == d, f"answer differs from the pinned digest: {key}")


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(run: Run) -> dict:
    s = run.samples
    describe = s["describe_ms"]

    def medians(metric):  # one median per pooled operation
        return [statistics.median(v) for v in run.calls[metric].values()]

    def per_op(metric):
        return statistics.fmean(medians(metric))

    values = {
        "setup_s": statistics.median(s["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ingest_records_per_s": run.catalog.records / statistics.median(s["ingest_s"]),
        "tnq_bytes_per_etd_byte": len(run.tnq) / run.etd_bytes,
        "cli_report_s": per_op("cli_report_s"),
        "query_p50_ms": spans.percentile(medians("query_ms"), 50),
        "query_p90_ms": spans.percentile(medians("query_ms"), 90),
        "gender_ms": per_op("gender_ms"),
        "supervision_ms": per_op("supervision_ms"),
        "interdisciplinary_ms": per_op("interdisciplinary_ms"),
        "mobility_ms": per_op("mobility_ms"),
        "cooperation_ms": per_op("cooperation_ms"),
        "describe_p50_ms": spans.percentile(describe, 50),
        "describe_p99_ms": spans.percentile(describe, 99),
        "describe_rps": len(describe) / run.describe_wall,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def ref_loop_ms() -> float:
    """A fixed pure-Python loop, to tell host speed drift from a regression."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return (time.perf_counter() - t0) * 1000


def per_layer(run: Run, tracer_summary: dict, overhead: float, skipped: int,
              exponent: float, ref_ms: float) -> dict:
    d = tracer_summary["durations"]
    c = tracer_summary["counts"]

    def own(name):
        return d.get(name, (0.0, 0.0, 0))[1]

    def calls(name):
        return d.get(name, (0.0, 0.0, 0))[2]

    subjects = defaultdict(int)
    for t in run.store:
        subjects[t.subject] += 1
    sizes = tracer_summary["samples"].get("describe_bytes", [0])
    result_rows = c.get("query.result_rows", 0)
    values = {
        "ingest.parse_records_s": (own("ingest.parse_records"), "s"),
        "ingest.records_to_graph_s": (own("ingest.records_to_graph"), "s"),
        "ingest.scaling_exponent": (exponent, "1"),
        "store.insert_calls": (calls("store.insert"), "count"),
        "store.insert_s": (own("store.insert"), "s"),
        "store.insert.inserted": (c.get("store.insert.inserted", 0), "count"),
        "store.insert.coalesced": (c.get("store.insert.coalesced", 0), "count"),
        "store.insert.duplicate": (c.get("store.insert.duplicate", 0), "count"),
        "store.statements": (len(run.store), "count"),
        "store.max_subject_statements": (max(subjects.values()), "count"),
        "graphio.export_quads_s": (own("graphio.export_quads"), "s"),
        "graphio.import_quads_s": (own("graphio.import_quads"), "s"),
        "store.match_calls": (calls("store.match"), "count"),
        "store.match_s": (own("store.match"), "s"),
        "store.match_rows": (c.get("store.match_rows", 0), "count"),
        "query.parse_query_s": (own("query.parse_query"), "s"),
        "query.eval_query_s": (own("query.eval_query"), "s"),
        "query.match_rows_per_result": (c.get("query.match_rows", 0) / max(result_rows, 1), "ratio"),
        "reason.derive_mobility_calls": (calls("reason.derive_mobility"), "count"),
        "reason.derive_mobility_s": (own("reason.derive_mobility"), "s"),
        "reason.top_institution_at_calls": (calls("reason.top_institution_at"), "count"),
        "reason.ancestors_at_calls": (calls("reason.ancestors_at"), "count"),
        "analytics.gender_of_calls": (calls("analytics.gender_of"), "count"),
        "analytics.gender_of_s": (own("analytics.gender_of"), "s"),
        "graphio.describe_entity_s": (own("graphio.describe_entity"), "s"),
        "graphio.serialize_description_s": (own("graphio.serialize_description"), "s"),
        "graphio.describe_bytes_p50": (spans.percentile(sizes, 50), "bytes"),
        "graphio.describe_bytes_p99": (spans.percentile(sizes, 99), "bytes"),
        "cli.main_s.ingest": (d.get("cli.main.ingest", (0.0,))[0], "s"),
        "cli.main_s.report": (d.get("cli.main.report", (0.0,))[0], "s"),
        "cli.http_s": (own("cli.http"), "s"),
        "reason.mobility_skipped": (skipped, "count"),
        "trace.overhead": (overhead, "ratio"),
        "host.ref_loop_ms": (ref_ms, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def scaling_exponent(seed: int, knobs: gen.Knobs) -> float:
    """log(t_full / t_quarter) / log 4 for records_to_graph, untraced."""

    def cost(k: gen.Knobs, repeats: int) -> float:
        records = ingest.parse_records(gen.generate(seed, k).text)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            ingest.records_to_graph(records, batch_date=None)
            times.append(time.perf_counter() - t0)
        return statistics.median(times)

    quarter = replace(knobs, persons=max(1, knobs.persons // 4))
    return math.log(cost(knobs, 1) / cost(quarter, 3)) / math.log(4)


def execute_run(name: str, seed: int, seconds: float, trace: bool,
                knobs: gen.Knobs | None = None) -> dict:
    workload = WORKLOADS[name]
    if knobs is not None:
        workload = replace(workload, knobs=knobs)
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = os.path.join(WORK_ROOT, f"{name}-{seed}-{os.getpid()}-{int(trace)}")
    os.makedirs(workdir, exist_ok=True)
    skip_counter = spans.attach_skip_counter()
    servers: list[Server] = []
    try:
        ref_start = ref_loop_ms()
        run = Run(workload, seed, workdir)
        if not trace:
            servers = run.setup([("serve", False)])
            run.server = servers[0]
            run.timed_loop(seconds)
            result_metrics = None
        else:
            servers = run.setup([("serve", False), ("serve-traced", True)])
            units = run.schedule()
            run.server = servers[0]
            t0 = time.perf_counter()
            for kind, unit in units:
                run.execute(kind, unit)
            untraced = time.perf_counter() - t0
            skipped_before = skip_counter.count
            tracer = run.tracer = spans.Tracer().install(etdgraph)
            run.server = servers[1]
            t0 = time.perf_counter()
            try:
                for kind, unit in units:
                    run.execute(kind, unit)
            finally:
                tracer.uninstall()
            traced = time.perf_counter() - t0
            run.tracer = None
            skipped = skip_counter.count - skipped_before
            exponent = scaling_exponent(seed, workload.knobs)
        run.final_checks()
        server_results = [s.stop() for s in servers]
        ref_end = ref_loop_ms()
        print(f"host.ref_loop_ms start {ref_start:.2f} end {ref_end:.2f}; samples: "
              + ", ".join(f"{k}={len(v)}" for k, v in sorted(run.samples.items())),
              file=sys.stderr)
        if not trace:
            result_metrics = end_to_end(run)
        else:
            summary = spans.merge([tracer.summary(), server_results[1]["trace"]])
            os.makedirs(TRACE_DIR, exist_ok=True)
            tracer.dump(os.path.join(TRACE_DIR, f"{name}-{seed}-bench.tsv"))
            shutil.copy(servers[1].spans_path, os.path.join(TRACE_DIR, f"{name}-{seed}-serve.tsv"))
            result_metrics = per_layer(run, summary, traced / untraced - 1, skipped,
                                       exponent, (ref_start + ref_end) / 2)
        return {
            "correct": not run.failures,
            "attempted": run.attempted,
            "failed": len(run.failures),
            "metrics": result_metrics,
        }
    finally:
        for s in servers:
            s.kill()
        logging.getLogger("etdgraph.reason").removeHandler(skip_counter)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass


def record_expected():
    """Pin the answers of every pooled operation for DEFAULT_SEED and
    CATALOG, which all workloads share."""
    skip_counter = spans.attach_skip_counter()
    workdir = os.path.join(WORK_ROOT, "record-expected")
    os.makedirs(workdir, exist_ok=True)
    try:
        run = Run(Workload(CATALOG, {}), DEFAULT_SEED, workdir)
        run.setup([])
        for kind in ("query", "report", "cli"):
            for op in run.pool[kind]:
                run.execute(kind, [op])
        if run.failures:
            raise RuntimeError(f"{len(run.failures)} operations failed; nothing recorded")
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        logging.getLogger("etdgraph.reason").removeHandler(skip_counter)
    with open(EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(run.answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


def smoke() -> int:
    """All workloads, both modes, on a tiny catalog for one second each."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            result = execute_run(name, DEFAULT_SEED + 1, 1, trace, knobs=TINY)
            ok = result["correct"] and len(result["metrics"]) > 0
            print(f"{name} trace={int(trace)}: {'ok' if ok else 'FAILED'}")
            bad += not ok
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still stops its server and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.smoke:
        return smoke()
    if args.record_expected:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = execute_run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
