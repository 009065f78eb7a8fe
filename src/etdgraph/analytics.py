"""Canned analytics over the academic network.

Definitions that the source data does not fix are made explicit here:

* "interdisciplinary": a work with at least two degree-granting bodies
  whose only common ancestor (at the study end) is the university
  itself, or whose universities differ outright.
* "cooperation": a work counts for an institution pair (A, B) when A
  grants the degree and an advisor or committee member holds a
  professorship under B during the study period.
* Gender is always read at a stated time point: the query point for
  tallies, the study end for supervision statistics, the arrival for
  mobility.

Shares and averages are exact rationals (fractions.Fraction).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import NotABody
from .model import (
    Iri,
    Literal,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    interval_contains,
    intervals_overlap,
)
from .reason import (
    ANY_ROLE,
    PROFESSOR,
    STUDENT,
    MobilityEvent,
    _ends_later,
    _Lifts,
    derive_mobility,
    members_at,
    subtree_at,
)
from .store import At, Overlaps, Pattern, Store
from .vocab import EntityKind

ADVISOR = "advisor"
COMMITTEE = "committee"
DISSERTANT = "dissertant"
ANY_KIND = "any"

_ROLE_PROPERTY = {
    ADVISOR: "advisedBy",
    COMMITTEE: "committeeMember",
    DISSERTANT: "createdBy",
}


@dataclass
class GenderTally:
    scope: Iri
    role: str
    at: TimePoint
    counts: dict[Iri, int] = field(default_factory=dict)
    unspecified: int = 0

    @property
    def total(self) -> int:
        return sum(self.counts.values()) + self.unspecified


@dataclass
class RateEntry:
    supervisions: int
    share: Fraction


@dataclass
class SupervisionRates:
    by_gender: dict[Iri, RateEntry] = field(default_factory=dict)
    unspecified: int = 0


@dataclass
class MobilityAggregate:
    moves: int
    avg_gap_years: Fraction


def gender_of(store: Store, person: Iri, at: TimePoint) -> Iri | None:
    """Gender valid at the given point; a time-scoped assertion wins over
    an unqualified one, later starts win, ties break on the gender IRI.
    Rows that tie on all three name one gender, so the probe's order does
    not matter."""
    hits = store._match(person, store.vocab.expand("hasGender"), None, At(at), False)
    if not hits:
        return None

    def rank(t: TemporalTriple):
        iv = t.validity.interval
        scoped = 0 if iv is None else 1
        start = iv.start.first_day().toordinal() if iv is not None and iv.start else 0
        return (-scoped, -start, t.object.value)

    return min(hits, key=rank).object


def _work_studies(
    store: Store, work_kind: str = ANY_KIND, works: Iterable[Iri] | None = None
) -> dict[Iri, TimeInterval]:
    """Work -> study period, for every work or only the given ones, in no
    particular order. The study period is the createdBy validity that
    ends on the latest day; of several ending on that day, the one of the
    row first in canonical order (`_ends_later`)."""
    created_by = store.vocab.expand("createdBy")
    latest: dict[Iri, TemporalTriple] = {}
    for work in [None] if works is None else works:
        for t in store._match(work, created_by, None, None, False):
            if t.validity.interval is not None and (
                t.subject not in latest or _ends_later(t, latest[t.subject])
            ):
                latest[t.subject] = t
    if work_kind != ANY_KIND:
        kind_prop = store.vocab.expand("workKind")
        keep = {t.subject for t in store._match(None, kind_prop, Literal(work_kind), None, False)}
        latest = {w: t for w, t in latest.items() if w in keep}
    return {w: t.validity.interval for w, t in latest.items()}


def _studies_during(
    store: Store, interval: TimeInterval, work_kind: str = ANY_KIND
) -> list[tuple[Iri, TimeInterval]]:
    """(work, study period) of the works whose study period overlaps the
    interval, by work IRI."""
    return sorted(
        ((w, iv) for w, iv in _work_studies(store, work_kind).items()
         if intervals_overlap(iv, interval)),
        key=lambda ws: ws[0].value,
    )


def _study_end(iv: TimeInterval) -> TimePoint:
    return iv.end if iv.end is not None else iv.start


def _dissertants(store: Store, work: Iri) -> list[Iri]:
    return sorted(
        {t.object for t in store._match(work, store.vocab.expand("createdBy"), None, None, False)},
        key=lambda i: i.value,
    )


def gender_tally(
    store: Store,
    scope: Iri,
    role: str,
    at: TimePoint,
    include_subdivisions: bool = False,
) -> GenderTally:
    """Gender composition of a body's members or of the people on its
    granted works. Student/professor roles go through membership; work
    roles select works granted by the scope whose study period overlaps
    the year of `at`."""
    if store.kind_of(scope) is not EntityKind.CORPORATE_BODY:
        raise NotABody(f"<{scope}> is not a corporate body")

    if role in (STUDENT, PROFESSOR, ANY_ROLE):
        people = members_at(store, scope, at, role, include_subdivisions)
    elif role in _ROLE_PROPERTY:
        people = _work_role_people(store, scope, role, at, include_subdivisions)
    else:
        raise ValueError(f"unknown role {role!r}")

    tally = GenderTally(scope=scope, role=role, at=at)
    for person in people:
        gender = gender_of(store, person, at)
        if gender is None:
            tally.unspecified += 1
        else:
            tally.counts[gender] = tally.counts.get(gender, 0) + 1
    tally.counts = dict(sorted(tally.counts.items(), key=lambda kv: kv[0].value))
    return tally


def _work_role_people(store, scope, role, at, include_subdivisions) -> list[Iri]:
    bodies = subtree_at(store, {scope}, at) if include_subdivisions else {scope}
    year_window = TimeInterval(TimePoint(at.year), TimePoint(at.year))
    granted_by = store.vocab.expand("degreeGrantedBy")
    granted = {t.subject for body in bodies
               for t in store._match(None, granted_by, body, None, False)}
    prop = store.vocab.expand(_ROLE_PROPERTY[role])
    people = set()
    for work, study in _work_studies(store, works=granted).items():
        if intervals_overlap(study, year_window):
            people.update(t.object for t in store._match(work, prop, None, None, False))
    return sorted(people, key=lambda i: i.value)


def supervisor_gender_rate(
    store: Store, interval: TimeInterval, work_kind: str = ANY_KIND
) -> SupervisionRates:
    """Advisedness counts grouped by the advisor's gender at the study
    end, over works whose study period overlaps the interval. Shares sum
    to 1 over the specified genders; unspecified is reported apart."""
    advised_by = store.vocab.expand("advisedBy")
    counts: dict[Iri, int] = {}
    unspecified = 0
    for work, study in _studies_during(store, interval, work_kind):
        when = _study_end(study)
        for t in store._match(work, advised_by, None, None, False):
            gender = gender_of(store, t.object, when)
            if gender is None:
                unspecified += 1
            else:
                counts[gender] = counts.get(gender, 0) + 1
    total = sum(counts.values())
    rates = SupervisionRates(unspecified=unspecified)
    for gender in sorted(counts, key=lambda i: i.value):
        rates.by_gender[gender] = RateEntry(
            supervisions=counts[gender],
            share=Fraction(counts[gender], total),
        )
    return rates


def supervision_gender_matrix(
    store: Store, interval: TimeInterval, work_kind: str = ANY_KIND
) -> dict[Iri | None, dict[Iri | None, int]]:
    """advisor gender -> dissertant gender -> count of advisedBy edges on
    works in scope; None keys collect persons without a gender at the
    study end."""
    advised_by = store.vocab.expand("advisedBy")
    matrix: dict[Iri | None, dict[Iri | None, int]] = {}
    for work, study in _studies_during(store, interval, work_kind):
        when = _study_end(study)
        # canonical advisor order fixes the order of the matrix keys
        advisors = store.match(Pattern(subject=work, property=advised_by))
        dissertant_genders = [
            gender_of(store, d, when) for d in _dissertants(store, work)
        ] if advisors else []
        for t in advisors:
            row = matrix.setdefault(gender_of(store, t.object, when), {})
            for gender in dissertant_genders:
                row[gender] = row.get(gender, 0) + 1
    return matrix


def interdisciplinary_works(
    store: Store, interval: TimeInterval
) -> tuple[int, list[Iri]]:
    """Works granted by bodies that only meet at the university, or by
    different universities altogether."""
    granted_by = store.vocab.expand("degreeGrantedBy")
    lifts = _Lifts(store)
    hits = []
    for work, study in _studies_during(store, interval):
        when = _study_end(study)
        grantors = sorted(
            {t.object for t in store._match(work, granted_by, None, None, False)},
            key=lambda i: i.value,
        )
        if len(grantors) < 2:
            continue
        if _grantors_diverge(lifts, grantors, when):
            hits.append(work)
    hits.sort(key=lambda i: i.value)
    return len(hits), hits


def _grantors_diverge(lifts: _Lifts, grantors: list[Iri], when: TimePoint) -> bool:
    chains, tops = {}, {}
    for g in grantors:
        ancestors, tops[g] = lifts.at(g, when)
        chains[g] = [g] + ancestors
    for i, a in enumerate(grantors):
        for b in grantors[i + 1:]:
            if tops[a] != tops[b]:
                return True
            shared = (set(chains[a]) & set(chains[b])) - {tops[a]}
            if not shared:
                return True
    return False


def mobility_events(store: Store, interval: TimeInterval) -> list[MobilityEvent]:
    """Every person's mobility events with an arrival inside the
    interval, by person IRI, then in each person's departure order."""
    lifts = _Lifts(store)
    return [
        event
        for person in store.entities_of_kind(EntityKind.PERSON)
        for event in derive_mobility(store, person, lifts)
        if interval_contains(interval, event.arrival)
    ]


def mobility_aggregate(
    store: Store, events: list[MobilityEvent]
) -> dict[Iri | None, MobilityAggregate]:
    """Events grouped by the mover's gender at arrival."""
    moves: dict[Iri | None, list[int]] = {}
    for event in events:
        gender = gender_of(store, event.person, event.arrival)
        moves.setdefault(gender, []).append(event.gap_years)
    return {
        gender: MobilityAggregate(len(gaps), Fraction(sum(gaps), len(gaps)))
        for gender, gaps in sorted(moves.items(), key=lambda kv: kv[0].value if kv[0] else "")
    }


def mobility_by_gender(
    store: Store, interval: TimeInterval
) -> dict[Iri | None, MobilityAggregate]:
    """Mobility events with an arrival inside the interval, grouped by
    the mover's gender at arrival."""
    return mobility_aggregate(store, mobility_events(store, interval))


def institution_cooperation(
    store: Store, interval: TimeInterval
) -> list[tuple[Iri, Iri, int]]:
    """Institution pairs linked by cross-institution advising or
    committee service, with the number of shared works, sorted by count
    descending then lexicographically."""
    professor_at = store.vocab.expand("isProfessorAt")
    granted_by = store.vocab.expand("degreeGrantedBy")
    contribution_props = [store.vocab.expand("advisedBy"), store.vocab.expand("committeeMember")]

    lifts = _Lifts(store)
    pair_works: dict[tuple[Iri, Iri], set[Iri]] = {}
    for work, study in _studies_during(store, interval):
        when = _study_end(study)
        grantor_institutions = {
            lifts.at(t.object, when)[1]
            for t in store._match(work, granted_by, None, None, False)
        }
        contributors = set()
        for prop in contribution_props:
            contributors.update(
                t.object for t in store._match(work, prop, None, None, False)
            )
        for person in contributors:
            for t in store._match(person, professor_at, None, Overlaps(study), False):
                overlap_start = max(
                    study.first_day(), t.validity.interval.first_day()
                )
                lift_at = TimePoint(
                    overlap_start.year, overlap_start.month, overlap_start.day
                )
                home = lifts.at(t.object, lift_at)[1]
                for granting in grantor_institutions:
                    if granting == home:
                        continue
                    key = tuple(sorted((granting, home), key=lambda i: i.value))
                    pair_works.setdefault(key, set()).add(work)

    rows = [(a, b, len(works)) for (a, b), works in pair_works.items()]
    rows.sort(key=lambda r: (-r[2], r[0].value, r[1].value))
    return rows
