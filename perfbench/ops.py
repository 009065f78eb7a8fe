"""The operations a benchmark run sends, drawn from the seed.

Four kinds of operation. Queries, reports and commands come from
finite seeded pools, which a run repeats whole, so answers repeat and
can be pinned; describe requests are an endless seeded stream:

- `cli`: the `ingest` and `report mobility|cooperation` commands, run
  in process through `cli.main` with stdout captured;
- `query`: query-language joins of 1 to 3 clauses, some with `@point`
  or `@[a..b]`; each 3-clause join appears in its selective clause
  order and in the reverse order, which makes the join slow today;
- `report`: the library analytics and `reason.structure_timeline`;
- `describe`: `GET /entity/{kind}/{id}` requests to `serve`.

Every answer is reduced to canonical text, so repeated operations, the
two clause orders of one join, and the digests pinned for the default
seed can be compared.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import random
from dataclasses import dataclass

from etdgraph import analytics, cli, graphio, query, reason
from etdgraph.model import Iri, TimeInterval, TimePoint

# report kind -> end-to-end metric; structure has no metric of its own
REPORT_METRIC = {
    "gender": "gender_ms",
    "supervision": "supervision_ms",
    "matrix": "supervision_ms",
    "interdisciplinary": "interdisciplinary_ms",
    "mobility": "mobility_ms",
    "cooperation": "cooperation_ms",
    "structure": None,
}
# Draws of each family of pooled operation. A metric averages over all
# the draws of its family, so more draws make it depend less on which
# bodies and windows the seed happened to pick. The slow clause orders,
# which cost far more than any other query, are a seventh of the query
# pool, so query_p90_ms falls inside their group, not on its edge.
QUERY_DRAWS = 12  # five queries each, plus one gender join
JOIN_DRAWS = 12  # each in both clause orders
REPORT_DRAWS = 4
GENDER_REPORTS = (("professor", "university"), ("advisor", "faculty"),
                  ("committee", "university"), ("dissertant", "faculty"))
MATRIX_KINDS = ("phd", "master")
CLI_CYCLE = ("ingest", "mobility", "ingest", "cooperation")
# kinds of entity in every 100 consecutive describe requests
DESCRIBE_MIX = (("person", 48), ("work", 35), ("body", 12), ("value", 3), ("unknown", 2))
# value entities with the largest descriptions, the same for every seed
# (pl0 is the most frequent birth place)
VALUE_PAGES = ("gender/female", "gender/male", "place/pl0")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def _interval(rng: random.Random) -> tuple[int, int]:
    # Study periods start uniformly in 1965..2009, so a ten-year window
    # starting in 1975..1995 covers about the same number of works for
    # every seed, and the cost of a report does not depend on the seed.
    a = 1975 + rng.randrange(21)
    return a, a + 9


def _year(rng: random.Random) -> int:
    return 1980 + rng.randrange(26)


def _within(rng: random.Random, start: int, end: int) -> int:
    """A year of start..end, at most five years after start."""
    return start + rng.randrange(min(end, start + 5) - start + 1)


def _iri(iri) -> str:
    return "-" if iri is None else iri.value


@dataclass(frozen=True)
class Op:
    key: str  # identifies the answer: equal keys must give equal answers
    args: tuple


class Pools:
    """Seeded operation streams over one generated catalog."""

    def __init__(self, seed: int, catalog):
        self.catalog = catalog
        self._describe_rng = random.Random(f"{seed}/describe")
        self.queries = self._make_queries(random.Random(f"{seed}/query-pool"))
        self.reports = self._make_reports(random.Random(f"{seed}/report-pool"))
        self.cli = self._make_cli(random.Random(f"{seed}/cli-pool"))
        self._request_id = 0
        self._value_i = 0
        self._describe_pattern = [seg for seg, n in DESCRIBE_MIX for _ in range(n)]
        n = len(catalog.persons)
        # Zipf weights over persons: a few are asked for far more often
        self._person_cdf = []
        acc = 0.0
        for rank in range(1, n + 1):
            acc += 1.0 / rank
            self._person_cdf.append(acc)
        self._person_order = list(catalog.persons)
        random.Random(f"{seed}/person-order").shuffle(self._person_order)

    # -- cli ------------------------------------------------------------------

    def _make_cli(self, rng) -> list[Op]:
        args = []
        for command in CLI_CYCLE:
            if command == "ingest":
                args.append(("ingest",))
            else:
                a, b = _interval(rng)
                args.append(("report", command, f"{a}..{b}"))
        return [Op(" ".join(a), a) for a in args]

    # -- queries --------------------------------------------------------------

    def _make_queries(self, rng) -> list[Op]:
        # Bodies, years and windows come from statements the catalog
        # holds, so every query has rows.
        c = self.catalog
        out = []
        for _ in range(QUERY_DRAWS):
            _, body, start, end = rng.choice(c.chairs)
            out.append(f"SELECT ?p WHERE {{ ?p etd:isProfessorAt body/{body} "
                       f"@{_within(rng, start, end)} . }}")
            _, body, start, end = rng.choice(c.studies)
            a = start - rng.randrange(6)
            out.append(f"SELECT ?p WHERE {{ ?p etd:isStudentOf body/{body} @[{a}..{a + 9}] . }}")
            out.append(f"SELECT ?w WHERE {{ ?w etd:advisedBy person/{rng.choice(c.advisors)} . }}")
            out.append(f"SELECT ?w ?p WHERE {{ ?w etd:degreeGrantedBy "
                       f"body/{rng.choice(c.committee_grantors)} . "
                       f"?w etd:committeeMember ?p . }}")
            # places ranked 5..20 by frequency: a few to a few dozen births each
            place = f"pl{rng.randrange(5, 21)}"
            if place not in c.places:
                place = rng.choice(c.places)
            out.append(f"SELECT ?p ?b WHERE {{ ?p etd:birthPlace place/{place} . "
                       f"?p etd:isStudentOf ?b . }}")
        out.append(f"SELECT ?a ?w WHERE {{ ?w etd:advisedBy ?a . "
                   f"?a etd:hasGender gender/{rng.choice(c.genders)} @{_year(rng)} . }}")
        ops = [Op(q, (q, None)) for q in out]
        # schools where some advisor holds a chair, each drawn once
        advising = set(c.advisors)
        schools = sorted({c.school_of[body] for person, body, _, _ in c.chairs
                          if person in advising})
        for school in rng.sample(schools, min(JOIN_DRAWS, len(schools))):
            fast = (f"SELECT ?w ?a ?b WHERE {{ ?b etd:isSubdivisionOf body/{school} . "
                    f"?a etd:isProfessorAt ?b . ?w etd:advisedBy ?a . }}")
            slow = (f"SELECT ?w ?a ?b WHERE {{ ?w etd:advisedBy ?a . "
                    f"?a etd:isProfessorAt ?b . ?b etd:isSubdivisionOf body/{school} . }}")
            ops.append(Op(fast, (fast, slow)))
            ops.append(Op(slow, (slow, fast)))
        rng.shuffle(ops)
        return ops

    # -- reports --------------------------------------------------------------

    def _make_reports(self, rng) -> list[Op]:
        # Every seed gets the same mix of kinds, roles, scopes and work
        # kinds; the seed picks the bodies, years and time windows.
        # Faculty-scoped tallies take a faculty and a year from a study,
        # so that some work was granted there then.
        c = self.catalog
        args = []
        for _ in range(REPORT_DRAWS):
            for role, scope_kind in GENDER_REPORTS:
                if scope_kind == "university":
                    args.append(("gender", rng.choice(c.universities), role, _year(rng), True))
                else:
                    _, body, start, end = rng.choice(c.studies)
                    args.append(("gender", body, role, _within(rng, start, end), False))
            for work_kind in MATRIX_KINDS:
                args.append(("supervision",) + _interval(rng) + ("any",))
                args.append(("matrix",) + _interval(rng) + (work_kind,))
            args.append(("structure", rng.choice(c.universities)))
            for kind in ("interdisciplinary", "mobility", "cooperation"):
                args.append((kind,) + _interval(rng))
        rng.shuffle(args)
        return [Op(" ".join(map(str, a)), a) for a in args]

    # -- describe ---------------------------------------------------------------

    def next_describe(self) -> Op:
        rng = self._describe_rng
        c = self.catalog
        i = self._request_id
        self._request_id += 1
        if i % len(self._describe_pattern) == 0:
            rng.shuffle(self._describe_pattern)
        segment = self._describe_pattern[i % len(self._describe_pattern)]
        if segment == "person":
            rank = bisect.bisect_left(self._person_cdf, rng.random() * self._person_cdf[-1])
            path = f"person/{self._person_order[rank]}"
        elif segment == "work":
            path = f"work/{rng.choice(c.works)}"
        elif segment == "body":
            path = f"body/{rng.choice(c.bodies)}"
        elif segment == "value":
            path = VALUE_PAGES[self._value_i % len(VALUE_PAGES)]
            self._value_i += 1
            value = path.split("/")[1]
            return Op(path, (i, value in c.genders or value in c.places))
        else:
            path = f"person/ghost{rng.randrange(10**6)}"
        return Op(path, (i, segment != "unknown"))


# -- executing --------------------------------------------------------------


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def run_query(store, text: str) -> query.ResultTable:
    return query.eval_query(store, query.parse_query(text))


def run_report(store, args: tuple) -> str:
    """Call one report and return its answer as canonical text."""
    kind = args[0]
    base = store.base_iri.value.rstrip("/")
    if kind == "gender":
        scope, role, at, subdivisions = args[1:]
        tally = analytics.gender_tally(store, Iri(f"{base}/body/{scope}"), role,
                                       TimePoint(at), subdivisions)
        lines = [f"{g.value}\t{n}" for g, n in tally.counts.items()]
        lines.append(f"unspecified\t{tally.unspecified}")
    elif kind == "structure":
        events = reason.structure_timeline(store, Iri(f"{base}/body/{args[1]}"))
        lines = [f"{e.when}\t{e.event_kind.value}\t{e.body}\t{_iri(e.counterpart)}"
                 for e in events]
    elif kind == "supervision":
        a, b, work_kind = args[1:]
        rates = analytics.supervisor_gender_rate(
            store, TimeInterval(TimePoint(a), TimePoint(b)), work_kind)
        lines = [f"{g.value}\t{e.supervisions}\t{e.share}" for g, e in rates.by_gender.items()]
        lines.append(f"unspecified\t{rates.unspecified}")
    elif kind == "matrix":
        a, b, work_kind = args[1:]
        matrix = analytics.supervision_gender_matrix(
            store, TimeInterval(TimePoint(a), TimePoint(b)), work_kind)
        lines = sorted(f"{_iri(x)}\t{_iri(y)}\t{n}"
                       for x, row in matrix.items() for y, n in row.items())
    else:
        interval = TimeInterval(TimePoint(args[1]), TimePoint(args[2]))
        if kind == "interdisciplinary":
            count, works = analytics.interdisciplinary_works(store, interval)
            lines = [str(count)] + [w.value for w in works]
        elif kind == "mobility":
            agg = analytics.mobility_by_gender(store, interval)
            lines = [f"{_iri(g)}\t{m.moves}\t{m.avg_gap_years}" for g, m in agg.items()]
        elif kind == "cooperation":
            lines = [f"{a.value}\t{b.value}\t{n}"
                     for a, b, n in analytics.institution_cooperation(store, interval)]
        else:
            raise ValueError(f"unknown report {kind!r}")
    return "\n".join(lines) + "\n"


def description_lines_ok(body: str, export_lines: set[str]) -> bool:
    """A description must parse as quads and be a subset of the full export."""
    graphio.import_quads(body)
    return all(line in export_lines for line in body.splitlines() if line)
