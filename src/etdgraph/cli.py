"""Command line entry point and the read-only dereference endpoint.

Exit codes: 0 success, 1 usage error, 2 data error, 3 I/O error.
Diagnostics go to stderr, data to stdout. ETD_BASE_IRI overrides the
default base IRI.
"""

from __future__ import annotations

import argparse
import errno
import logging.handlers
import os
import sys
from datetime import date
from fractions import Fraction
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import urlsplit

from . import analytics, graphio, ingest, query, reason
from .errors import EtdError, PortInUse
from .ingest import DEFAULT_AUTHORITY_IRI
from .model import Iri, TimeInterval, TimePoint
from .store import DEFAULT_BASE_IRI, Effect, Store
from .vocab import EntityKind

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _default_base() -> str:
    return os.environ.get("ETD_BASE_IRI", DEFAULT_BASE_IRI)


def _build_parser() -> _Parser:
    parser = _Parser(prog="etdgraph", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse record files into a store")
    p.add_argument("files", nargs="+")
    p.add_argument("--base", default=_default_base())
    p.add_argument("--authority", default=DEFAULT_AUTHORITY_IRI)
    p.add_argument("--out", required=True, help="output .tnq path")
    p.add_argument("--batch-date", default=None,
                   help="provenance date YYYY[-MM[-DD]], 'none', or default today")

    p = sub.add_parser("query", help="run a query against a store")
    p.add_argument("--store", required=True)
    p.add_argument("text", help="query text")

    p = sub.add_parser("report", help="run a canned analytic")
    p.add_argument("kind", choices=["gender", "supervision", "matrix",
                                    "interdisciplinary", "mobility",
                                    "cooperation", "structure"])
    p.add_argument("--store", required=True)
    p.add_argument("--at", default=None, help="time point YYYY[-MM[-DD]]")
    p.add_argument("--during", default=None, help="interval A..B")
    p.add_argument("--scope", default=None, help="entity id, e.g. body/ux")
    p.add_argument("--kind", dest="work_kind", default="any",
                   choices=["master", "phd", "any"])
    p.add_argument("--role", default="professor",
                   choices=["student", "professor", "any",
                            "advisor", "committee", "dissertant"])
    p.add_argument("--subdivisions", action="store_true",
                   help="include the scope's subdivision subtree")

    p = sub.add_parser("export", help="write the store as quads or DOT")
    p.add_argument("--store", required=True)
    p.add_argument("--format", required=True, choices=["tnq", "dot"])
    p.add_argument("--focus", default=None)
    p.add_argument("--radius", type=int, default=1)

    p = sub.add_parser("describe", help="print one entity's description")
    p.add_argument("--store", required=True)
    p.add_argument("entity", help="entity id, e.g. person/pA")

    p = sub.add_parser("stats", help="entity and statement census")
    p.add_argument("--store", required=True)

    p = sub.add_parser("serve", help="serve entity descriptions over HTTP")
    p.add_argument("--store", required=True)
    p.add_argument("--port", type=int, required=True)
    return parser


def _load_store(path: str) -> Store:
    with open(path, "r", encoding="utf-8") as fh:
        return graphio.import_quads(fh.read())


def _entity_iri(store: Store, text: str) -> Iri:
    if text.startswith("http://") or text.startswith("https://"):
        return Iri(text)
    return Iri(f"{store.base_iri.value.rstrip('/')}/{text}")


def _interval_from_args(args) -> TimeInterval:
    if args.during:
        return ingest.parse_interval_text(args.during)
    if args.at:
        return TimeInterval.instant(TimePoint.parse(args.at))
    return TimeInterval(TimePoint(1), TimePoint(9999))


def _ratio(f: Fraction) -> str:
    return f"{float(f):.4f}"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _dispatch(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ingest.IngestError as exc:
        for issue in exc.report.errors:
            print(f"error: {issue}", file=sys.stderr)
        return 2
    except EtdError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    command = args.command
    if command == "ingest":
        return _cmd_ingest(args)
    store = _load_store(args.store)
    if command == "query":
        ast = query.parse_query(args.text)
        sys.stdout.write(query.eval_query(store, ast).to_text())
        return 0
    if command == "report":
        return _cmd_report(args, store)
    if command == "export":
        if args.format == "tnq":
            sys.stdout.write(graphio.export_quads(store))
        else:
            focus = _entity_iri(store, args.focus) if args.focus else None
            sys.stdout.write(graphio.export_dot(store, focus, args.radius))
        return 0
    if command == "describe":
        doc = graphio.describe_entity(store, _entity_iri(store, args.entity))
        sys.stdout.write(graphio.serialize_description(store, doc))
        return 0
    if command == "stats":
        _cmd_stats(store)
        return 0
    if command == "serve":
        serve_descriptions(store, args.port)
        return 0
    raise _UsageError(f"unknown command {command!r}")


def _cmd_ingest(args) -> int:
    records = []
    for path in args.files:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        records.extend(ingest.parse_records(text))
    if args.batch_date == "none":
        batch_date = None
    elif args.batch_date:
        batch_date = TimePoint.parse(args.batch_date)
    else:
        today = date.today()
        batch_date = TimePoint(today.year, today.month, today.day)
    store, report = ingest.records_to_graph(
        records, base=args.base, authority=args.authority, batch_date=batch_date
    )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(graphio.export_quads(store))
    print(f"records\t{report.records_parsed}")
    print(f"triples\t{report.triples_emitted}")
    for effect in Effect:
        print(f"{effect.value}\t{report.effects[effect]}")
    for warning in report.warnings:
        print(f"warning\t{warning}")
    return 0


def _cmd_report(args, store: Store) -> int:
    kind = args.kind
    interval = _interval_from_args(args)
    out = sys.stdout

    if kind == "gender":
        if not args.scope or not args.at:
            raise _UsageError("report gender needs --scope and --at")
        tally = analytics.gender_tally(
            store, _entity_iri(store, args.scope), args.role,
            TimePoint.parse(args.at), args.subdivisions,
        )
        out.write("gender\tcount\n")
        for gender, count in tally.counts.items():
            out.write(f"{gender}\t{count}\n")
        out.write(f"unspecified\t{tally.unspecified}\n")
    elif kind == "supervision":
        rates = analytics.supervisor_gender_rate(store, interval, args.work_kind)
        out.write("gender\tsupervisions\tshare\n")
        for gender, entry in rates.by_gender.items():
            out.write(f"{gender}\t{entry.supervisions}\t{_ratio(entry.share)}\n")
        out.write(f"unspecified\t{rates.unspecified}\t-\n")
    elif kind == "matrix":
        matrix = analytics.supervision_gender_matrix(store, interval, args.work_kind)
        out.write("advisor\tdissertant\tcount\n")
        for advisor in sorted(matrix, key=lambda g: g.value if g else ""):
            row = matrix[advisor]
            for dissertant in sorted(row, key=lambda g: g.value if g else ""):
                a = advisor.value if advisor else "unspecified"
                d = dissertant.value if dissertant else "unspecified"
                out.write(f"{a}\t{d}\t{row[dissertant]}\n")
    elif kind == "interdisciplinary":
        count, works = analytics.interdisciplinary_works(store, interval)
        out.write(f"count\t{count}\n")
        for work in works:
            out.write(f"work\t{work}\n")
    elif kind == "mobility":
        out.write("person\tfrom\tto\tfrom-role\tto-role\tdeparture\tarrival\tgap-years\n")
        skipped = logging.handlers.BufferingHandler(sys.maxsize)  # never flushes
        reason.logger.addHandler(skipped)
        try:
            events = analytics.mobility_events(store, interval)
        finally:
            reason.logger.removeHandler(skipped)
        if skipped.buffer:
            print(f"warning: skipped {len(skipped.buffer)} mobility boundaries with "
                  "open-ended or overlapping affiliations", file=sys.stderr)
        for e in events:
            out.write(
                f"{e.person}\t{e.from_institution}\t{e.to_institution}\t"
                f"{e.from_role}\t{e.to_role}\t{e.departure}\t{e.arrival}\t{e.gap_years}\n"
            )
        for gender, agg in analytics.mobility_aggregate(store, events).items():
            name = gender.value if gender else "unspecified"
            out.write(f"by-gender\t{name}\t{agg.moves}\t{_ratio(agg.avg_gap_years)}\n")
    elif kind == "cooperation":
        pairs = analytics.institution_cooperation(store, interval)
        out.write("institution-a\tinstitution-b\tshared-works\n")
        for a, b, n in pairs:
            out.write(f"{a}\t{b}\t{n}\n")
    elif kind == "structure":
        if not args.scope:
            raise _UsageError("report structure needs --scope")
        events = reason.structure_timeline(store, _entity_iri(store, args.scope))
        out.write("when\tevent\tbody\tcounterpart\n")
        for e in events:
            counterpart = e.counterpart.value if e.counterpart else "-"
            out.write(f"{e.when}\t{e.event_kind.value}\t{e.body}\t{counterpart}\n")
    return 0


def _cmd_stats(store: Store):
    names = [
        ("persons", EntityKind.PERSON),
        ("bodies", EntityKind.CORPORATE_BODY),
        ("works", EntityKind.WORK),
        ("places", EntityKind.PLACE),
        ("genders", EntityKind.GENDER),
        ("external", EntityKind.EXTERNAL_RESOURCE),
    ]
    for name, kind in names:
        print(f"{name}\t{len(store.entities_of_kind(kind))}")
    print(f"statements\t{len(store)}")


# -- HTTP ----------------------------------------------------------------------


def _make_handler(store: Store):
    class Handler(BaseHTTPRequestHandler):
        def log_message(self, fmt, *args):  # keep stdout clean
            pass

        def _send(self, status: int, body: str):
            payload = body.encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "text/plain; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            if self.command != "HEAD":
                self.wfile.write(payload)

        def do_GET(self):
            try:
                status, body = self._answer(urlsplit(self.path).path)
            except Exception:  # still answer; the server prints the traceback
                self.server.handle_error(self.request, self.client_address)
                status, body = 500, "internal error"
            self._send(status, body)

        do_HEAD = do_GET

        def _answer(self, path: str) -> tuple[int, str]:
            if path == "/health":
                return 200, "ok"
            parts = path.lstrip("/").split("/")
            if len(parts) == 3 and parts[0] == "entity" and parts[1] in ingest._KIND_SEGMENT.values():
                iri_text = f"{store.base_iri.value.rstrip('/')}/{parts[1]}/{parts[2]}"
                try:
                    focus = Iri(iri_text)
                    doc = graphio.describe_entity(store, focus)
                except EtdError:
                    return 404, "not found"
                return 200, graphio.serialize_description(store, doc)
            return 404, "not found"

        def _reject(self):
            self._send(405, "read-only endpoint")

        do_POST = _reject
        do_PUT = _reject
        do_DELETE = _reject
        do_PATCH = _reject

    return Handler


def make_server(store: Store, port: int) -> ThreadingHTTPServer:
    try:
        return ThreadingHTTPServer(("", port), _make_handler(store))
    except OSError as exc:
        if exc.errno == errno.EADDRINUSE:
            raise PortInUse(f"port {port} is already in use") from exc
        raise


def serve_descriptions(store: Store, port: int):
    """Serve GET /entity/{kind}/{id}, /health; everything else 404/405."""
    server = make_server(store, port)
    try:
        print(f"serving on port {server.server_address[1]}", file=sys.stderr)
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    sys.exit(main())
