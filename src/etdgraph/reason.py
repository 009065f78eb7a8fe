"""Inference over the graph: time-scoped hierarchy closure, succession
chains, membership queries, derived mobility events, and institutional
timelines. Everything here is a pure read; the store is never mutated.

A report that lifts many bodies shares hierarchy walks within its one
call: one walk per body and per segment of the day axis in which no
subdivision edge above the body starts or ends (`_Lifts`). Nothing is
kept from one call to the next.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, timedelta
from enum import Enum

from .errors import (
    AmbiguousSuccession,
    HierarchyCycle,
    NotABody,
    NotAPerson,
    SequenceCycle,
)
from .model import Iri, TemporalTriple, TimePoint, triple_sort_key
from .store import At, Pattern, Store
from .vocab import EntityKind

logger = logging.getLogger(__name__)

STUDENT = "student"
PROFESSOR = "professor"
ANY_ROLE = "any"


@dataclass(frozen=True)
class MobilityEvent:
    person: Iri
    from_institution: Iri
    to_institution: Iri
    from_role: str
    to_role: str
    departure: TimePoint
    arrival: TimePoint
    gap_years: int


class StructureEventKind(Enum):
    ESTABLISHED = "established"
    SUBDIVISION_ADDED = "subdivision-added"
    SUBDIVISION_REMOVED = "subdivision-removed"
    RENAMED = "renamed"
    CHANGED_TO = "changed-to"


_EVENT_ORDER = {k: i for i, k in enumerate(StructureEventKind)}


@dataclass(frozen=True)
class StructureEvent:
    body: Iri
    event_kind: StructureEventKind
    when: TimePoint
    counterpart: Iri | None = None


def _require_body(store: Store, body: Iri):
    if store.kind_of(body) is not EntityKind.CORPORATE_BODY:
        raise NotABody(f"<{body}> is not a corporate body")


def _parents_at(store: Store, body: Iri, t: TimePoint) -> list[Iri]:
    hits = store._match(None, store.vocab.expand("hasSubdivision"), body, At(t), False)
    return sorted({h.subject for h in hits}, key=lambda i: i.value)


def _walk(store: Store, body: Iri, t: TimePoint) -> tuple[list[Iri], dict[Iri, list[Iri]]]:
    """ancestors_at's answer, plus the valid-at-t parents of body and of
    each ancestor; each body's parents are probed once.

    The cycle check runs only when some parent edge reaches a body seen
    before (the start body, or a parent shared by two children): without
    such an edge the reached edges form a tree, which has no cycle.
    """
    _require_body(store, body)
    order: list[Iri] = []
    parents: dict[Iri, list[Iri]] = {}
    seen = {body}
    revisited = False
    frontier = [body]
    while frontier:
        layer: list[Iri] = []
        for node in frontier:
            parents[node] = _parents_at(store, node, t)
            for parent in parents[node]:
                if parent in seen:
                    revisited = True
                else:
                    seen.add(parent)
                    layer.append(parent)
        layer.sort(key=lambda i: i.value)
        order.extend(layer)
        frontier = layer

    if revisited:
        _check_acyclic(parents)
    return order, parents


def ancestors_at(store: Store, body: Iri, t: TimePoint) -> list[Iri]:
    """Transitive hierarchy closure at time t, ordered child to root.

    Breadth-first layers, each sorted, first occurrence wins. A directed
    cycle among the reachable bodies aborts with HierarchyCycle.
    """
    return _walk(store, body, t)[0]


def _check_acyclic(parents: dict[Iri, list[Iri]]):
    # Iterative three-color DFS over the valid-at-t parent edges.
    WHITE, GRAY, BLACK = 0, 1, 2
    color = dict.fromkeys(parents, WHITE)
    for root in sorted(parents, key=lambda i: i.value):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(parents[root]))]
        color[root] = GRAY
        path = [root]
        while stack:
            node, pending = stack[-1]
            for nxt in pending:
                if color[nxt] == GRAY:
                    raise HierarchyCycle(path[path.index(nxt):] + [nxt])
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append((nxt, iter(parents[nxt])))
                    break
            else:
                color[node] = BLACK
                path.pop()
                stack.pop()


def top_institution_at(store: Store, body: Iri, t: TimePoint) -> Iri:
    """The root of the hierarchy above body at t (body itself if none);
    the lowest IRI when several roots are reachable."""
    return _lift(store, body, t)[1]


def _lift(store: Store, body: Iri, t: TimePoint) -> tuple[list[Iri], Iri]:
    """ancestors_at and top_institution_at from one walk."""
    chain, parents = _walk(store, body, t)
    return chain, min((n for n in [body] + chain if not parents[n]), key=lambda i: i.value)


class _Lifts:
    """`_lift` for one report call, walking once per body and segment.

    A walk at t reads only the `hasSubdivision` edges above the body that
    hold over t's whole day range. Cut the day axis at the first day and
    at the day after the last day of every edge above the body, over all
    time: each such edge then holds on all days of a segment or on none,
    so one walk answers every point inside the segment. A point whose
    day range crosses a cut walks on its own. Nothing outlives the call,
    so a store changed between calls is never answered from old walks.
    """

    def __init__(self, store: Store):
        self.store = store
        self._cuts: dict[Iri, list[date]] = {}
        self._lifted: dict[tuple[Iri, int], tuple[list[Iri], Iri]] = {}

    def at(self, body: Iri, t: TimePoint) -> tuple[list[Iri], Iri]:
        cuts = self._cuts.get(body)
        if cuts is None:
            cuts = self._cuts[body] = self._cut_days(body)
        segment = bisect_right(cuts, t.first_day())
        if segment < len(cuts) and cuts[segment] <= t.last_day():
            return _lift(self.store, body, t)
        lifted = self._lifted.get((body, segment))
        if lifted is None:
            lifted = self._lifted[body, segment] = _lift(self.store, body, t)
        return lifted

    def _cut_days(self, body: Iri) -> list[date]:
        has_subdivision = self.store.vocab.expand("hasSubdivision")
        cuts = set()
        seen = {body}
        frontier = [body]
        while frontier:
            node = frontier.pop()
            for edge in self.store._match(None, has_subdivision, node, None, False):
                iv = edge.validity.interval
                if iv is not None:
                    cuts.add(iv.first_day())
                    if iv.last_day() < date.max:
                        cuts.add(iv.last_day() + timedelta(days=1))
                if edge.subject not in seen:
                    seen.add(edge.subject)
                    frontier.append(edge.subject)
        return sorted(cuts)


def successor_chain(store: Store, body: Iri) -> list[Iri]:
    """Follow changed-to links forward from body; branching is an error."""
    _require_body(store, body)
    changed_to = store.vocab.expand("changedTo")
    chain = [body]
    seen = {body}
    current = body
    while True:
        successors = sorted(
            {t.object for t in store._match(current, changed_to, None, None, False)},
            key=lambda i: i.value,
        )
        if not successors:
            return chain
        if len(successors) > 1:
            raise AmbiguousSuccession(current, successors)
        nxt = successors[0]
        if nxt in seen:
            raise SequenceCycle(chain[chain.index(nxt):] + [nxt])
        chain.append(nxt)
        seen.add(nxt)
        current = nxt


def _succession_component(store: Store, body: Iri) -> set[Iri]:
    # Both directions, tolerant of branching: membership lookups should
    # not fail just because a body's history splits.
    changed_to = store.vocab.expand("changedTo")
    seen = {body}
    frontier = [body]
    while frontier:
        node = frontier.pop()
        forward = {t.object for t in store._match(node, changed_to, None, None, False)}
        backward = {t.subject for t in store._match(None, changed_to, node, None, False)}
        for other in forward | backward:
            if other not in seen:
                seen.add(other)
                frontier.append(other)
    return seen


def subtree_at(store: Store, roots: set[Iri], t: TimePoint | None) -> set[Iri]:
    has_subdivision = store.vocab.expand("hasSubdivision")
    time = At(t) if t is not None else None
    seen = set(roots)
    frontier = list(roots)
    while frontier:
        node = frontier.pop()
        for child in store._match(node, has_subdivision, None, time, False):
            if child.object not in seen:
                seen.add(child.object)
                frontier.append(child.object)
    return seen


def members_at(
    store: Store,
    body: Iri,
    t: TimePoint,
    role: str = ANY_ROLE,
    include_subdivisions: bool = False,
    follow_successors: bool = False,
) -> list[Iri]:
    """Persons affiliated with body (and optionally its subtree and its
    succession chain) at time t, sorted and deduplicated."""
    _require_body(store, body)
    targets = {body}
    if follow_successors:
        targets = _succession_component(store, body)
    if include_subdivisions:
        targets = subtree_at(store, targets, t)

    props = []
    if role in (STUDENT, ANY_ROLE):
        props.append(store.vocab.expand("isStudentOf"))
    if role in (PROFESSOR, ANY_ROLE):
        props.append(store.vocab.expand("isProfessorAt"))
    if not props:
        raise ValueError(f"unknown role {role!r}")

    people = set()
    for target in targets:
        for prop in props:
            for hit in store._match(None, prop, target, At(t), False):
                people.add(hit.subject)
    return sorted(people, key=lambda i: i.value)


@dataclass(frozen=True)
class _Affiliation:
    role: str
    body: Iri
    institution: Iri
    triple: TemporalTriple


_ROLES = ((STUDENT, "isStudentOf"), (PROFESSOR, "isProfessorAt"))
_ROLE_RANK = {role: i for i, (role, _) in enumerate(_ROLES)}


def _affiliation_order(a: _Affiliation):
    iv = a.triple.validity.interval
    return (iv.first_day(), iv.last_day(), a.body.value, _ROLE_RANK[a.role],
            triple_sort_key(a.triple))


def _affiliations(store: Store, person: Iri, lifts: _Lifts) -> list[_Affiliation]:
    out = []
    for role, prop in _ROLES:
        for t in store._match(person, store.vocab.expand(prop), None, None, False):
            iv = t.validity.interval
            lift_at = iv.start if iv.start is not None else iv.end
            out.append(_Affiliation(role, t.object, lifts.at(t.object, lift_at)[1], t))
    if len(out) > 1:
        out.sort(key=_affiliation_order)
    return out


@dataclass
class _Run:
    institution: Iri
    affiliations: list[_Affiliation]

    def start_point(self) -> TimePoint | None:
        return self.affiliations[0].triple.validity.interval.start

    def first_role(self) -> str:
        return self.affiliations[0].role

    def last_affiliation(self) -> _Affiliation:
        return max(
            self.affiliations,
            key=lambda a: (a.triple.validity.interval.last_day(),
                           a.triple.validity.interval.first_day()),
        )


def _ends_later(a: TemporalTriple, b: TemporalTriple) -> bool:
    """Whether a's interval ends on a later day than b's, or on the same
    day with a first in canonical order; the sort key is built only on
    such a tie."""
    a_last, b_last = a.validity.interval.last_day(), b.validity.interval.last_day()
    return a_last > b_last or (a_last == b_last and triple_sort_key(a) < triple_sort_key(b))


def _degree_end(store: Store, person: Iri, run: _Run) -> TimePoint | None:
    """Latest study-period end among the person's works overlapping the
    run; of several ending on one day, that of the row first in canonical
    order (`_ends_later`)."""
    created_by = store.vocab.expand("createdBy")
    best: TemporalTriple | None = None
    for t in store._match(None, created_by, person, None, False):
        iv = t.validity.interval
        if iv is None or iv.end is None:
            continue
        if any(a.triple.validity.overlaps(iv) for a in run.affiliations) and (
            best is None or _ends_later(t, best)
        ):
            best = t
    return None if best is None else best.validity.interval.end


def derive_mobility(
    store: Store, person: Iri, lifts: _Lifts | None = None
) -> list[MobilityEvent]:
    """Movements between top-level institutions.

    Affiliations are lifted to their institution at their start, ordered
    by start, and collapsed into runs per institution; each boundary
    between two different institutions yields one event. The departure
    is the earlier run's end, except that a student run departs at the
    degree grant (the study-period end) when that is later or when the
    affiliation is open-ended. Runs that overlap in time produce no
    event and are logged. A caller deriving many persons passes one
    `lifts` so that their affiliations share hierarchy walks.
    """
    if store.kind_of(person) is not EntityKind.PERSON:
        raise NotAPerson(f"<{person}> is not a person")

    runs: list[_Run] = []
    for aff in _affiliations(store, person, lifts or _Lifts(store)):
        if runs and runs[-1].institution == aff.institution:
            runs[-1].affiliations.append(aff)
        else:
            runs.append(_Run(aff.institution, [aff]))

    events = []
    for earlier, later in zip(runs, runs[1:]):
        last = earlier.last_affiliation()
        departure = last.triple.validity.interval.end
        from_role = last.role
        if from_role == STUDENT:
            # the degree grant ends a study affiliation, even an open one
            degree = _degree_end(store, person, earlier)
            if degree is not None and (
                departure is None or degree.last_day() > departure.last_day()
            ):
                departure = degree
        arrival = later.start_point()
        if departure is None or arrival is None:
            logger.warning(
                "no mobility event for %s: open-ended boundary between %s and %s",
                person, earlier.institution, later.institution,
            )
            continue
        if arrival.first_day() <= departure.last_day():
            logger.warning(
                "no mobility event for %s: overlapping affiliations at %s and %s",
                person, earlier.institution, later.institution,
            )
            continue
        events.append(
            MobilityEvent(
                person=person,
                from_institution=earlier.institution,
                to_institution=later.institution,
                from_role=from_role,
                to_role=later.first_role(),
                departure=departure,
                arrival=arrival,
                gap_years=arrival.year - departure.year,
            )
        )
    events.sort(key=lambda e: (e.departure.first_day(), e.arrival.first_day()))
    return events


def structure_timeline(store: Store, university: Iri) -> list[StructureEvent]:
    """Chronological establishment, subdivision, rename, and succession
    events across the university's subtree (membership taken over all
    time, not a single snapshot)."""
    _require_body(store, university)
    vocab = store.vocab
    subtree = subtree_at(store, {university}, t=None)
    events: list[StructureEvent] = []

    for body in subtree:
        for t in store.match(Pattern(subject=body, property=vocab.expand("establishedIn"))):
            year = TimePoint(int(t.object.lexical))
            events.append(StructureEvent(body, StructureEventKind.ESTABLISHED, year))

        labels = store.match(Pattern(subject=body, property=vocab.expand("label")))
        starts = sorted(
            {t.validity.interval.start.text(): t.validity.interval.start
             for t in labels
             if t.validity.interval is not None and t.validity.interval.start is not None}.values(),
            key=lambda p: p.first_day(),
        )
        has_baseline = any(
            t.validity.is_always or t.validity.interval.start is None for t in labels
        )
        rename_starts = starts if has_baseline else starts[1:]
        for point in rename_starts:
            events.append(StructureEvent(body, StructureEventKind.RENAMED, point))

        for t in store.match(Pattern(subject=body, property=vocab.expand("changedTo"))):
            events.append(
                StructureEvent(
                    body, StructureEventKind.CHANGED_TO,
                    t.validity.interval.start, t.object,
                )
            )

        for t in store.match(Pattern(subject=body, property=vocab.expand("hasSubdivision"))):
            iv = t.validity.interval
            if iv is None:
                continue
            if iv.start is not None:
                events.append(
                    StructureEvent(body, StructureEventKind.SUBDIVISION_ADDED,
                                   iv.start, t.object)
                )
            if iv.end is not None:
                events.append(
                    StructureEvent(body, StructureEventKind.SUBDIVISION_REMOVED,
                                   iv.end, t.object)
                )

    events.sort(
        key=lambda e: (
            e.when.first_day(),
            _EVENT_ORDER[e.event_kind],
            e.body.value,
            e.counterpart.value if e.counterpart else "",
        )
    )
    return events
