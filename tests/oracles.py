"""Independent brute-force oracles and random data generators.

The oracles only look at raw fields (years, months, days) and work on
explicit day-ordinal sets, deliberately avoiding the interval algebra
they are used to check. Unbounded sides are clamped to a universe that
comfortably encloses everything the generators produce.
"""

from __future__ import annotations

import calendar
import random
from datetime import date
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from etdgraph.model import (
    Iri,
    Literal,
    Datatype,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    triple_sort_key,
)
from etdgraph.store import Store
from etdgraph.vocab import EntityKind

UNIVERSE_FIRST = date(1900, 1, 1).toordinal()
UNIVERSE_LAST = date(2099, 12, 31).toordinal()

AUTHORITY = Iri("http://example.org/etd/authority")


# -- day-set oracles -----------------------------------------------------------


def point_days(t: TimePoint) -> set[int]:
    if t.month is None:
        first = date(t.year, 1, 1)
        last = date(t.year, 12, 31)
    elif t.day is None:
        first = date(t.year, t.month, 1)
        last = date(t.year, t.month, calendar.monthrange(t.year, t.month)[1])
    else:
        first = last = date(t.year, t.month, t.day)
    return set(range(first.toordinal(), last.toordinal() + 1))


def interval_days(iv: TimeInterval) -> set[int]:
    first = min(point_days(iv.start)) if iv.start is not None else UNIVERSE_FIRST
    last = max(point_days(iv.end)) if iv.end is not None else UNIVERSE_LAST
    return set(range(first, last + 1))


def oracle_contains(iv: TimeInterval, t: TimePoint) -> bool:
    return point_days(t) <= interval_days(iv)


def oracle_overlap(a: TimeInterval, b: TimeInterval) -> bool:
    return bool(interval_days(a) & interval_days(b))


def oracle_mergeable(a: TimeInterval, b: TimeInterval) -> bool:
    # contiguous union, and the union must be a representable interval
    # (an interval unbounded on both sides does not exist as a value)
    union = interval_days(a) | interval_days(b)
    contiguous = max(union) - min(union) + 1 == len(union)
    unbounded_start = a.start is None or b.start is None
    unbounded_end = a.end is None or b.end is None
    return contiguous and not (unbounded_start and unbounded_end)


def oracle_merge_days(a: TimeInterval, b: TimeInterval) -> set[int]:
    return interval_days(a) | interval_days(b)


def oracle_validity_contains(v: Validity, t: TimePoint) -> bool:
    return True if v.interval is None else oracle_contains(v.interval, t)


@lru_cache(maxsize=None)
def _point_bounds(t: TimePoint) -> tuple[int, int]:
    days = point_days(t)
    return min(days), max(days)


@lru_cache(maxsize=None)
def _validity_day_range(v: Validity) -> range | None:
    # materialized day range; None means unqualified (matches any time)
    if v.interval is None:
        return None
    days = interval_days(v.interval)
    return range(min(days), max(days) + 1)


def fast_valid_at(v: Validity, t: TimePoint) -> bool:
    """Day-range filtering: both boundary days of the probe must be
    members of the statement's materialized day range."""
    day_range = _validity_day_range(v)
    if day_range is None:
        return True
    first, last = _point_bounds(t)
    return first in day_range and last in day_range


def oracle_snapshot(triples, t: TimePoint) -> set:
    return {x for x in triples if fast_valid_at(x.validity, t)}


def oracle_passes(v: Validity, constraint) -> bool:
    """A store time constraint on materialized day ranges."""
    from etdgraph.store import At, During

    if constraint is None:
        return True
    if isinstance(constraint, At):
        return fast_valid_at(v, constraint.point)
    days = _validity_day_range(v)
    window = _validity_day_range(Validity.during(constraint.interval))
    if isinstance(constraint, During):
        # an unqualified row holds on every day, more than any interval
        return days is not None and window.start <= days.start and days.stop <= window.stop
    return days is None or (days.start < window.stop and window.start < days.stop)


def oracle_match(store: Store, subject, prop, obj, time, inverse: bool) -> list:
    """Store.match by brute force: every stored row and, with `inverse`,
    every flipped copy, filtered term by term; a stored row shadows an
    identical derived one."""
    universe = {}
    for t in store:
        universe[(t.subject, t.property, t.object, t.validity, t.provenance)] = t
    if inverse:
        for t in list(store):
            inverse_prop = store.vocab.inverse_of(t.property)
            if inverse_prop is not None and isinstance(t.object, Iri):
                f = t.flipped(inverse_prop)
                universe.setdefault((f.subject, f.property, f.object, f.validity, f.provenance), f)
    return [
        t for t in universe.values()
        if (subject is None or t.subject == subject)
        and (prop is None or t.property == prop)
        and (obj is None or t.object == obj)
        and oracle_passes(t.validity, time)
    ]


# -- generators ----------------------------------------------------------------


def rand_point(rng: random.Random, lo=1970, hi=2019) -> TimePoint:
    year = rng.randint(lo, hi)
    roll = rng.random()
    if roll < 0.4:
        return TimePoint(year)
    month = rng.randint(1, 12)
    if roll < 0.7:
        return TimePoint(year, month)
    return TimePoint(year, month, rng.randint(1, calendar.monthrange(year, month)[1]))


def rand_interval(rng: random.Random, lo=1970, hi=2019, open_p=0.15) -> TimeInterval:
    a, b = rand_point(rng, lo, hi), rand_point(rng, lo, hi)
    if a.first_day() > b.first_day() or (
        a.first_day() == b.first_day() and a.last_day() > b.last_day()
    ):
        a, b = b, a
    roll = rng.random()
    if roll < open_p / 2:
        return TimeInterval(None, b)
    if roll < open_p:
        return TimeInterval(a, None)
    return TimeInterval(a, b)


def rand_validity(rng: random.Random, always_p=0.2) -> Validity:
    if rng.random() < always_p:
        return Validity()
    return Validity.during(rand_interval(rng))


_LABEL_POOL = [
    "Faculty of Letters",
    "School of Science",
    'Dept of "Quotes"',
    "Tabs\tand\nnewlines",
    "Back\\slash",
    "Athens",
    "Institut für Informatik",
]


def rand_store(rng: random.Random, n_people=6, n_bodies=5, n_works=4,
               base="http://example.org/etd") -> Store:
    """A random but valid store touching most property kinds; labels
    include characters that need escaping."""
    store = Store(base_iri=base)
    vocab = store.vocab

    def prov(record_id: str) -> ProvenanceTag:
        return ProvenanceTag(record_id, AUTHORITY)

    def put(subject, prop, obj, validity=Validity(), record="r0"):
        store.insert(
            TemporalTriple(subject, vocab.expand(prop), obj, validity, prov(record))
        )

    people = [Iri(f"{base}/person/p{i}") for i in range(n_people)]
    bodies = [Iri(f"{base}/body/b{i}") for i in range(n_bodies)]
    works = [Iri(f"{base}/work/w{i}") for i in range(n_works)]
    genders = [Iri(f"{base}/gender/g{i}") for i in range(2)]

    for i, p in enumerate(people):
        put(p, "kind", vocab.class_iri(EntityKind.PERSON), record=f"p{i}")
        put(p, "label", Literal(rng.choice(_LABEL_POOL)), record=f"p{i}")
    for i, b in enumerate(bodies):
        put(b, "kind", vocab.class_iri(EntityKind.CORPORATE_BODY), record=f"b{i}")
        put(b, "label", Literal(rng.choice(_LABEL_POOL)), record=f"b{i}")
        kind_value = rng.choice(["university", "school", "faculty", "other"])
        put(b, "bodyKind", Literal(kind_value), record=f"b{i}")
        if rng.random() < 0.5:
            put(b, "establishedIn", Literal(str(rng.randint(1900, 1999)), Datatype.YEAR),
                record=f"b{i}")
    for g in genders:
        put(g, "kind", vocab.class_iri(EntityKind.GENDER), record="g")

    for i, b in enumerate(bodies[1:], start=1):
        if rng.random() < 0.7:
            parent = bodies[rng.randrange(i)]
            put(parent, "hasSubdivision", b, Validity.during(rand_interval(rng)),
                record=f"b{i}")

    for i, p in enumerate(people):
        if rng.random() < 0.8:
            put(p, "hasGender", rng.choice(genders), rand_validity(rng), f"p{i}")
        for _ in range(rng.randint(0, 2)):
            put(p, "isStudentOf", rng.choice(bodies),
                Validity.during(rand_interval(rng)), f"p{i}")
        for _ in range(rng.randint(0, 2)):
            put(p, "isProfessorAt", rng.choice(bodies),
                Validity.during(rand_interval(rng)), f"p{i}")

    for i, w in enumerate(works):
        put(w, "kind", vocab.class_iri(EntityKind.WORK), record=f"w{i}")
        put(w, "label", Literal(rng.choice(_LABEL_POOL)), record=f"w{i}")
        put(w, "workKind", Literal(rng.choice(["master", "phd"])), record=f"w{i}")
        study = rand_interval(rng, open_p=0.0)
        put(w, "createdBy", rng.choice(people), Validity.during(study), f"w{i}")
        for _ in range(rng.randint(1, 2)):
            put(w, "advisedBy", rng.choice(people), record=f"w{i}")
        if rng.random() < 0.5:
            put(w, "committeeMember", rng.choice(people), record=f"w{i}")
        put(w, "degreeGrantedBy", rng.choice(bodies), record=f"w{i}")
    return store


def rand_dag_store(rng: random.Random, n_nodes=20,
                   base="http://example.org/etd") -> tuple[Store, list[Iri]]:
    """Interval-annotated hierarchy DAG: edges only point from lower to
    higher index, so the parent relation is acyclic at every instant."""
    store = Store(base_iri=base)
    vocab = store.vocab
    nodes = [Iri(f"{base}/body/n{i:02d}") for i in range(n_nodes)]
    for i, node in enumerate(nodes):
        store.insert(
            TemporalTriple(node, vocab.expand("kind"),
                           vocab.class_iri(EntityKind.CORPORATE_BODY),
                           Validity(), ProvenanceTag(f"n{i}", AUTHORITY))
        )
    for i in range(1, n_nodes):
        for parent_index in rng.sample(range(i), k=min(i, rng.randint(0, 2))):
            store.insert(
                TemporalTriple(
                    nodes[parent_index], vocab.expand("hasSubdivision"), nodes[i],
                    Validity.during(rand_interval(rng)),
                    ProvenanceTag(f"n{i}", AUTHORITY),
                )
            )
    return store, nodes


def oracle_reachable_parents(store: Store, body: Iri, t: TimePoint) -> set[Iri]:
    """Fixpoint reachability over valid-at-t parent edges, day-range based."""
    has_subdivision = store.vocab.expand("hasSubdivision")
    parent_edges: dict[Iri, set[Iri]] = {}
    for triple in store:
        if triple.property == has_subdivision and fast_valid_at(triple.validity, t):
            parent_edges.setdefault(triple.object, set()).add(triple.subject)
    reached: set[Iri] = set()
    frontier = {body}
    while frontier:
        node = frontier.pop()
        for parent in parent_edges.get(node, ()):
            if parent not in reached:
                reached.add(parent)
                frontier.add(parent)
    return reached


# -- report oracles ------------------------------------------------------------
#
# Written from the README's "Analytics definitions" on day sets. Where the
# README leaves a choice open, the oracle's docstring names the rule it
# takes. Each works on plain store rows and `oracle_reachable_parents`.


def _rows(store: Store, prop: str, subject=None, obj=None) -> list:
    prop_iri = store.vocab.expand(prop)
    return [t for t in store if t.property == prop_iri
            and (subject is None or t.subject == subject)
            and (obj is None or t.object == obj)]


def _day_point(ordinal: int) -> TimePoint:
    day = date.fromordinal(ordinal)
    return TimePoint(day.year, day.month, day.day)


def oracle_top(store: Store, body: Iri, t: TimePoint) -> Iri:
    """The top-level institution: among the bodies reachable from body
    through parent links valid at t (body included), those with no
    valid parent at t; the lowest IRI of them."""
    reached = {body} | oracle_reachable_parents(store, body, t)
    roots = [n for n in reached if not oracle_reachable_parents(store, n, t)]
    return min(roots, key=lambda i: i.value)


def _oracle_studies(store: Store) -> dict[Iri, TimeInterval]:
    """Work -> study period: the authorship interval ending on the latest
    day; of several ending on that day, the one of the row first in
    canonical order (`triple_sort_key`)."""
    rows: dict[Iri, list] = {}
    for t in _rows(store, "createdBy"):
        if t.validity.interval is not None:
            rows.setdefault(t.subject, []).append(t)
    return {
        work: min(ts, key=lambda t: (-max(interval_days(t.validity.interval)),
                                     triple_sort_key(t))).validity.interval
        for work, ts in rows.items()
    }


def _study_end(study: TimeInterval) -> TimePoint:
    return study.end if study.end is not None else study.start


def _oracle_works(store: Store, window: TimeInterval, work_kind: str) -> list:
    """(work, study period) of the works whose study period shares a day
    with the window and, unless the kind is "any", whose workKind is it;
    by work IRI."""
    kinds = {t.subject: t.object.lexical for t in _rows(store, "workKind")}
    return sorted(
        ((work, study) for work, study in _oracle_studies(store).items()
         if interval_days(study) & interval_days(window)
         and work_kind in ("any", kinds.get(work))),
        key=lambda ws: ws[0].value,
    )


def oracle_gender_of(store: Store, person: Iri, t: TimePoint) -> Iri | None:
    """The gender of the person's `hasGender` row that holds on every day
    of t. A time-scoped row beats an unqualified one, then the later
    first day wins (an open start is the earliest), then the lowest
    gender IRI."""
    rows = [r for r in _rows(store, "hasGender", subject=person)
            if oracle_validity_contains(r.validity, t)]
    if not rows:
        return None

    def rank(r):
        iv = r.validity.interval
        if iv is None:
            return (1, 0, r.object.value)
        first = min(interval_days(iv)) if iv.start is not None else 0
        return (0, -first, r.object.value)

    return min(rows, key=rank).object


_WORK_ROLES = {"advisor": "advisedBy", "committee": "committeeMember",
               "dissertant": "createdBy"}


def oracle_gender_tally(store: Store, scope: Iri, role: str, t: TimePoint,
                        include_subdivisions: bool) -> tuple[list, int]:
    """(gender, count) pairs by gender IRI, and the number of persons with
    no gender at t.

    The bodies are the scope and, with subdivisions, every body below it
    through edges valid at t. Membership roles count the persons whose
    `isStudentOf` / `isProfessorAt` row (both for "any") to one of the
    bodies holds at t. Work roles count the distinct persons in that role
    on works granted by one of the bodies whose study period shares a day
    with the year of t.
    """
    bodies = {scope}
    if include_subdivisions:
        bodies |= {e.object for e in _rows(store, "hasSubdivision")
                   if scope in oracle_reachable_parents(store, e.object, t)}
    if role in _WORK_ROLES:
        year = point_days(TimePoint(t.year))
        studies = _oracle_studies(store)
        works = {g.subject for g in _rows(store, "degreeGrantedBy")
                 if g.object in bodies and g.subject in studies
                 and interval_days(studies[g.subject]) & year}
        people = {r.object for r in _rows(store, _WORK_ROLES[role]) if r.subject in works}
    else:
        props = [prop for name, prop in _ROLES if role in (name, "any")]
        people = {r.subject for prop in props for r in _rows(store, prop)
                  if r.object in bodies and oracle_validity_contains(r.validity, t)}
    counts: dict[Iri, int] = {}
    unspecified = 0
    for person in people:
        gender = oracle_gender_of(store, person, t)
        if gender is None:
            unspecified += 1
        else:
            counts[gender] = counts.get(gender, 0) + 1
    return sorted(counts.items(), key=lambda kv: kv[0].value), unspecified


def oracle_supervision_rate(store: Store, window: TimeInterval,
                            work_kind: str = "any") -> tuple[list, int]:
    """(gender, supervisions, share) rows by gender IRI, and the number of
    supervisions whose advisor has no gender. Each `advisedBy` row of a
    work in scope (see `_oracle_works`) is one supervision, under the
    advisor's gender at the study end; shares are over the rows with a
    gender."""
    counts: dict[Iri, int] = {}
    unspecified = 0
    for work, study in _oracle_works(store, window, work_kind):
        for t in _rows(store, "advisedBy", subject=work):
            gender = oracle_gender_of(store, t.object, _study_end(study))
            if gender is None:
                unspecified += 1
            else:
                counts[gender] = counts.get(gender, 0) + 1
    total = sum(counts.values())
    return [(g, n, Fraction(n, total))
            for g, n in sorted(counts.items(), key=lambda kv: kv[0].value)], unspecified


def oracle_supervision_matrix(store: Store, window: TimeInterval,
                              work_kind: str = "any") -> dict:
    """advisor gender -> dissertant gender -> count, None for no gender.
    Each `advisedBy` row of a work in scope counts once per distinct
    dissertant of the work, with both genders read at the study end."""
    matrix: dict = {}
    for work, study in _oracle_works(store, window, work_kind):
        end = _study_end(study)
        dissertants = {t.object for t in _rows(store, "createdBy", subject=work)}
        for t in _rows(store, "advisedBy", subject=work):
            row = matrix.setdefault(oracle_gender_of(store, t.object, end), {})
            for dissertant in dissertants:
                gender = oracle_gender_of(store, dissertant, end)
                row[gender] = row.get(gender, 0) + 1
    return matrix


def oracle_interdisciplinary(store: Store, window: TimeInterval) -> tuple[int, list[Iri]]:
    """Works whose study period shares a day with the window and that have
    two degree-granting bodies whose hierarchies at the study end belong
    to different top-level institutions, or share no body but that
    institution."""
    hits = []
    for work, study in _oracle_studies(store).items():
        if not interval_days(study) & interval_days(window):
            continue
        end = _study_end(study)
        grantors = sorted({t.object for t in _rows(store, "degreeGrantedBy", subject=work)},
                          key=lambda i: i.value)
        for i, a in enumerate(grantors):
            if any(_meet_only_at_top(store, a, b, end) for b in grantors[i + 1:]):
                hits.append(work)
                break
    hits.sort(key=lambda i: i.value)
    return len(hits), hits


def _meet_only_at_top(store: Store, a: Iri, b: Iri, t: TimePoint) -> bool:
    top_a, top_b = oracle_top(store, a, t), oracle_top(store, b, t)
    if top_a != top_b:
        return True
    common = ({a} | oracle_reachable_parents(store, a, t)) & (
        {b} | oracle_reachable_parents(store, b, t))
    return common <= {top_a}


def oracle_cooperation(store: Store, window: TimeInterval) -> list[tuple[Iri, Iri, int]]:
    """Pairs of top-level institutions (A, B), A != B, with the number of
    works whose study period shares a day with the window, whose degree
    is granted under A, and whose advisor or committee member holds a
    professorship under B during the study period.

    A grantor is lifted at the study end (the degree grant); a
    professorship is lifted on the first day it shares with the study
    period."""
    pair_works: dict[tuple[Iri, Iri], set[Iri]] = {}
    for work, study in _oracle_studies(store).items():
        study_days = interval_days(study)
        if not study_days & interval_days(window):
            continue
        end = _study_end(study)
        granting = {oracle_top(store, t.object, end)
                    for t in _rows(store, "degreeGrantedBy", subject=work)}
        contributors = {t.object for prop in ("advisedBy", "committeeMember")
                        for t in _rows(store, prop, subject=work)}
        for person in contributors:
            for t in _rows(store, "isProfessorAt", subject=person):
                shared = study_days & interval_days(t.validity.interval)
                if not shared:
                    continue
                home = oracle_top(store, t.object, _day_point(min(shared)))
                for a in granting - {home}:
                    pair = tuple(sorted((a, home), key=lambda i: i.value))
                    pair_works.setdefault(pair, set()).add(work)
    rows = [(a, b, len(works)) for (a, b), works in pair_works.items()]
    rows.sort(key=lambda r: (-r[2], r[0].value, r[1].value))
    return rows


_ROLES = (("student", "isStudentOf"), ("professor", "isProfessorAt"))


class _Affiliation(NamedTuple):
    first: int  # day ordinals
    last: int
    body: str
    role_rank: int
    role: str
    interval: TimeInterval
    institution: Iri


def oracle_mobility(store: Store, window: TimeInterval) -> list[tuple]:
    """Every person's moves with an arrival inside the window, by person
    IRI, then by departure day and arrival day. A move is
    (person, from, to, from role, to role, departure day, arrival, gap
    in years).

    Affiliations are lifted at their start (their end when open at the
    start) and ordered by first day, last day, body IRI, student before
    professor; consecutive ones at one institution form a run. A run
    departs at the end of its affiliation with the latest last day
    (then latest first day, then earliest in that order). A student run
    departs instead at the latest study end among the person's works
    whose study period shares a day with one of the run's affiliations,
    when that end is later or the affiliation is open-ended. A boundary
    with an open departure or arrival, or whose arrival starts on or
    before the departure's last day, is no move. The departure is given
    as its last day: the README fixes the day, not the precision of the
    point naming it.
    """
    kind = store.vocab.expand("kind")
    person_class = store.vocab.class_iri(EntityKind.PERSON)
    persons = sorted({t.subject for t in store if t.property == kind and t.object == person_class},
                     key=lambda i: i.value)
    window_days = interval_days(window)
    out = []
    for person in persons:
        moves = [m for m in _oracle_moves(store, person)
                 if point_days(m[6]) <= window_days]
        out.extend(sorted(moves, key=lambda m: (m[5], min(point_days(m[6])))))
    return out


def _oracle_moves(store: Store, person: Iri) -> list[tuple]:
    affiliations = []
    for role_rank, (role, prop) in enumerate(_ROLES):
        for t in _rows(store, prop, subject=person):
            iv = t.validity.interval
            days = interval_days(iv)
            lift_at = iv.start if iv.start is not None else iv.end
            affiliations.append(_Affiliation(min(days), max(days), t.object.value, role_rank,
                                             role, iv, oracle_top(store, t.object, lift_at)))
    affiliations.sort(key=lambda a: a[:4])
    runs: list[list[_Affiliation]] = []
    for aff in affiliations:
        if runs and runs[-1][0].institution == aff.institution:
            runs[-1].append(aff)
        else:
            runs.append([aff])

    moves = []
    for earlier, later in zip(runs, runs[1:]):
        latest = max(a.last for a in earlier)
        latest_start = max(a.first for a in earlier if a.last == latest)
        last = next(a for a in earlier if (a.last, a.first) == (latest, latest_start))
        from_role = last.role
        departure = None if last.interval.end is None else max(point_days(last.interval.end))
        if from_role == "student":
            run_days = set().union(*(interval_days(a.interval) for a in earlier))
            degree_ends = [max(point_days(t.validity.interval.end))
                           for t in _rows(store, "createdBy", obj=person)
                           if t.validity.interval is not None
                           and t.validity.interval.end is not None
                           and interval_days(t.validity.interval) & run_days]
            if degree_ends and (departure is None or max(degree_ends) > departure):
                departure = max(degree_ends)
        arrival = later[0].interval.start
        if departure is None or arrival is None:
            continue
        if min(point_days(arrival)) <= departure:
            continue
        moves.append((person, earlier[0].institution, later[0].institution, from_role,
                      later[0].role, departure, arrival,
                      arrival.year - date.fromordinal(departure).year))
    return moves


def rand_network_store(rng: random.Random, n_universities=2, n_people=8, n_works=8,
                       base="http://example.org/etd") -> Store:
    """Universities with schools and faculties whose subdivision edges
    change over time, and persons and works in the same decades.

    Each faculty leaves its first school at a random point and joins a
    school of any university the day, month or year after (one time in
    five it joins none); schools join
    their university late or leave it. One faculty also sits directly
    under its university while it sits under a school of it (a shortcut
    edge), and the first work is granted by that faculty and that
    school. Body IRIs are shuffled, so a university is not always the
    lowest IRI of its hierarchy. Every edge points from a higher level
    to a lower one, so no hierarchy has a cycle.

    One person in five has no gender; the others have an unqualified
    gender, time-scoped ones, or both. Most works have a workKind, and
    some have a second authorship row that ends on the study's last day
    from another start or at another precision, so that the study
    period's tie-break decides.
    """
    store = Store(base_iri=base)
    vocab = store.vocab

    def put(subject, prop, obj, validity=Validity(), record="r0"):
        store.insert(TemporalTriple(subject, vocab.expand(prop), obj, validity,
                                    ProvenanceTag(record, AUTHORITY)))

    names = [f"{base}/body/b{i:02d}" for i in range(n_universities * 6)]
    rng.shuffle(names)
    bodies = [Iri(n) for n in names]
    universities = bodies[:n_universities]
    schools = bodies[n_universities:3 * n_universities]
    faculties = bodies[3 * n_universities:]
    for b in bodies:
        put(b, "kind", vocab.class_iri(EntityKind.CORPORATE_BODY), record=b.local_name())

    def school_of(u_index):
        return schools[2 * u_index + rng.randrange(2)]

    for i, s in enumerate(schools):
        start = rand_point(rng, 1960, 1990) if rng.random() < 0.5 else None
        end = rand_point(rng, 1995, 2015) if start is None or rng.random() < 0.3 else None
        put(universities[i // 2], "hasSubdivision", s,
            Validity.during(TimeInterval(start, end)), record=s.local_name())
    for i, f in enumerate(faculties):
        home = i % n_universities
        first_school = school_of(home)
        first = TimeInterval(rand_point(rng, 1960, 1975), rand_point(rng, 1980, 2005))
        after = _point_after(first.end, rng)
        put(first_school, "hasSubdivision", f, Validity.during(first), record=f.local_name())
        if after is not None:
            put(school_of(rng.randrange(n_universities)), "hasSubdivision", f,
                Validity.during(TimeInterval(after, None)), record=f.local_name())
        if i == 0:
            shortcut = (f, first_school, first)
            put(universities[home], "hasSubdivision", f, Validity.during(first),
                record=f.local_name())

    genders = [Iri(f"{base}/gender/g{i}") for i in range(2)]
    for g in genders:
        put(g, "kind", vocab.class_iri(EntityKind.GENDER), record="g")
    people = [Iri(f"{base}/person/p{i}") for i in range(n_people)]
    for i, p in enumerate(people):
        put(p, "kind", vocab.class_iri(EntityKind.PERSON), record=f"p{i}")
        if rng.random() < 0.8:
            if rng.random() < 0.5:
                put(p, "hasGender", rng.choice(genders), record=f"p{i}")
            for k in range(rng.randint(0, 2)):
                put(p, "hasGender", rng.choice(genders),
                    Validity.during(rand_interval(rng, 1975, 2012, open_p=0.3)),
                    record=f"p{i}g{k}")
        for _ in range(rng.randint(1, 4)):
            role = rng.choice(["isStudentOf", "isProfessorAt"])
            body = rng.choice(faculties + schools) if rng.random() < 0.9 else rng.choice(universities)
            put(p, role, body, Validity.during(rand_interval(rng, 1975, 2012, open_p=0.2)),
                record=f"p{i}")
    for i in range(n_works):
        w = Iri(f"{base}/work/w{i}")
        put(w, "kind", vocab.class_iri(EntityKind.WORK), record=f"w{i}")
        if i == 0:
            # granted by the shortcut faculty and its school while both of
            # the faculty's edges hold
            faculty, school, edge = shortcut
            grantors = [faculty, school]
            study = TimeInterval(TimePoint(edge.start.year + 1), TimePoint(edge.end.year - 1))
        else:
            grantors = [rng.choice(faculties + schools) for _ in range(rng.randint(1, 2))]
            study = rand_interval(rng, 1975, 2012, open_p=0.0)
        put(w, "createdBy", rng.choice(people), Validity.during(study), f"w{i}")
        if rng.random() < 0.4:
            # a second authorship row ending on the study's last day
            put(w, "createdBy", rng.choice(people),
                Validity.during(_same_last_day(study, rng)), rng.choice([f"w{i}", f"w{i}b"]))
        if rng.random() < 0.9:
            put(w, "workKind", Literal(rng.choice(["master", "phd"])), record=f"w{i}")
        for _ in range(rng.randint(1, 2)):
            put(w, "advisedBy", rng.choice(people), record=f"w{i}")
        if rng.random() < 0.6:
            put(w, "committeeMember", rng.choice(people), record=f"w{i}")
        for grantor in grantors:
            put(w, "degreeGrantedBy", grantor, record=f"w{i}")
    return store


def _same_last_day(iv: TimeInterval, rng: random.Random) -> TimeInterval:
    """An interval ending on iv's last day, at a random precision that can
    name that day, from iv's start or from an earlier or later one."""
    last = date.fromordinal(max(interval_days(iv)))
    ends = [TimePoint(last.year, last.month, last.day)]
    if last.day == calendar.monthrange(last.year, last.month)[1]:
        ends.append(TimePoint(last.year, last.month))
        if last.month == 12:
            ends.append(TimePoint(last.year))
    start = iv.start if rng.random() < 0.5 else rand_point(rng, 1970, last.year - 1)
    return TimeInterval(start, rng.choice(ends))


def _point_after(t: TimePoint, rng: random.Random) -> TimePoint | None:
    """A point starting the day after t ends, at a random precision that
    can name that day; None (a gap) one time in five."""
    if rng.random() < 0.2:
        return None
    nxt = date.fromordinal(max(point_days(t)) + 1)
    choices = [TimePoint(nxt.year, nxt.month, nxt.day)]
    if nxt.day == 1:
        choices.append(TimePoint(nxt.year, nxt.month))
        if nxt.month == 1:
            choices.append(TimePoint(nxt.year))
    return rng.choice(choices)


# -- brute-force conjunctive join ----------------------------------------------


def oracle_join(store: Store, ast) -> set[tuple]:
    """Nested-loop enumeration over per-clause candidates (stored plus
    inverse-derived), sharing nothing with the evaluator."""
    from etdgraph.query import AtSpec, CurieRef, IriRef, PathRef, Var

    universe = list(store)
    for t in list(store):
        inverse = store.vocab.inverse_of(t.property)
        if inverse is not None and isinstance(t.object, Iri):
            universe.append(t.flipped(inverse))
    # stored statements shadow identical derived ones
    dedup = {}
    for t in universe:
        key = (t.subject, t.property, t.object, t.validity, t.provenance)
        if key not in dedup or not t.derived:
            dedup[key] = t
    universe = list(dedup.values())

    def concrete(term, pdef):
        if isinstance(term, Var):
            return None
        if isinstance(term, CurieRef):
            return store.vocab.resolve_curie(term.curie)
        if isinstance(term, IriRef):
            return term.iri
        if isinstance(term, PathRef):
            return Iri(store.base_iri.value.rstrip("/") + "/" + term.path)
        datatype = term.datatype
        if datatype is None:
            datatype = (
                pdef.range_kind
                if pdef is not None and isinstance(pdef.range_kind, Datatype)
                else Datatype.STRING
            )
        return Literal(term.lexical, datatype, term.language)

    def clause_candidates(clause):
        pdef = None
        if isinstance(clause.property, CurieRef):
            pdef = store.vocab.lookup(clause.property.curie)
        s = concrete(clause.subject, None)
        p = concrete(clause.property, None)
        o = concrete(clause.object, pdef)
        hits = []
        for t in universe:
            if s is not None and t.subject != s:
                continue
            if p is not None and t.property != p:
                continue
            if o is not None and t.object != o:
                continue
            if clause.time is not None:
                if isinstance(clause.time, AtSpec):
                    if not oracle_validity_contains(t.validity, clause.time.point):
                        continue
                else:
                    window = TimeInterval(clause.time.start, clause.time.end)
                    if t.validity.interval is not None and not oracle_overlap(
                        t.validity.interval, window
                    ):
                        continue
            hits.append(t)
        return hits

    def descend(index, binding):
        if index == len(ast.clauses):
            yield binding
            return
        clause = ast.clauses[index]
        for t in candidates[index]:
            extended = dict(binding)
            ok = True
            for term, value in (
                (clause.subject, t.subject),
                (clause.property, t.property),
                (clause.object, t.object),
            ):
                if isinstance(term, Var):
                    if term.name in extended and extended[term.name] != value:
                        ok = False
                        break
                    extended[term.name] = value
            if ok:
                yield from descend(index + 1, extended)

    candidates = [clause_candidates(c) for c in ast.clauses]
    rows = set()
    for binding in descend(0, {}):
        rows.add(tuple(binding[name] for name in ast.select))
    return rows
