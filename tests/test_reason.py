import random
from datetime import date, timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph import reason
from etdgraph.analytics import mobility_events
from etdgraph.errors import (
    AmbiguousSuccession,
    HierarchyCycle,
    NotABody,
    NotAPerson,
    SequenceCycle,
)
from etdgraph.graphio import export_quads
from etdgraph.ingest import parse_records, records_to_graph
from etdgraph.model import Iri, ProvenanceTag, TemporalTriple, TimeInterval, TimePoint, Validity
from etdgraph.reason import (
    StructureEventKind,
    ancestors_at,
    derive_mobility,
    members_at,
    structure_timeline,
    successor_chain,
    top_institution_at,
)
from etdgraph.store import Store
from etdgraph.vocab import EntityKind

from oracles import (
    AUTHORITY,
    fast_valid_at,
    oracle_reachable_parents,
    rand_dag_store,
    rand_point,
)

BASE = Iri("http://example.org/etd")


def _bound(point):
    return TimePoint(point) if isinstance(point, int) else point


def body_store(*bodies, edges=(), changes=()):
    """bodies: local ids; edges: (parent, child, start, end), each bound a
    year, a TimePoint or None; changes: (old, new, year)."""
    store = Store(base_iri=BASE)
    v = store.vocab
    iris = {b: Iri(f"{BASE}/body/{b}") for b in bodies}
    for i, b in enumerate(bodies):
        store.insert(TemporalTriple(
            iris[b], v.expand("kind"), v.class_iri(EntityKind.CORPORATE_BODY),
            Validity(), ProvenanceTag(b, AUTHORITY)))
    for parent, child, start, end in edges:
        store.insert(TemporalTriple(
            iris[parent], v.expand("hasSubdivision"), iris[child],
            Validity.during(TimeInterval(_bound(start), _bound(end))),
            ProvenanceTag(child, AUTHORITY)))
    for old, new, year in changes:
        store.insert(TemporalTriple(
            iris[old], v.expand("changedTo"), iris[new],
            Validity.at(TimePoint(year)), ProvenanceTag(old, AUTHORITY)))
    return store, iris


class TestAncestors:
    def test_fixture_faculty_chain(self, network, iri):
        assert ancestors_at(network, iri("body/facB"), TimePoint(1998)) == [
            iri("body/schoolA"), iri("body/ux"),
        ]

    def test_root_has_no_ancestors(self, network, iri):
        assert ancestors_at(network, iri("body/ux"), TimePoint(1998)) == []

    def test_edges_outside_validity_ignored(self):
        store, iris = body_store("u", "f", edges=[("u", "f", 1990, 2000)])
        assert ancestors_at(store, iris["f"], TimePoint(1995)) == [iris["u"]]
        assert ancestors_at(store, iris["f"], TimePoint(2005)) == []

    def test_not_a_body(self, network, iri):
        with pytest.raises(NotABody):
            ancestors_at(network, iri("person/pA"), TimePoint(1998))

    def test_cycle_detected(self):
        store, iris = body_store(
            "a", "b", edges=[("a", "b", 1990, None), ("b", "a", 1990, None)]
        )
        with pytest.raises(HierarchyCycle) as err:
            ancestors_at(store, iris["a"], TimePoint(1995))
        assert len(err.value.cycle) >= 2

    def test_matches_reachability_oracle(self):
        rng = random.Random(77)
        for _ in range(5):
            store, nodes = rand_dag_store(rng)
            for _ in range(20):
                node = rng.choice(nodes)
                t = rand_point(rng)
                assert set(ancestors_at(store, node, t)) == oracle_reachable_parents(
                    store, node, t
                )
                roots = [n for n in {node} | oracle_reachable_parents(store, node, t)
                         if not oracle_reachable_parents(store, n, t)]
                assert top_institution_at(store, node, t) == min(roots, key=lambda i: i.value)

    # Edge windows around the probed years 1985, 2000 and 2003: some hold
    # at the probe, some do not.
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1),
                st.sampled_from([(1990, 2010), (None, 2005), (2001, None),
                                 (1980, 1999), (2000, 2000)]),
            ), min_size=n, max_size=3 * n),
        )),
        st.sampled_from([1985, 2000, 2003]),
    )
    def test_walk_matches_oracle_or_raises_its_cycle(self, graph, year):
        n, edges = graph
        names = [f"b{i}" for i in range(n)]
        store, iris = body_store(*names, edges=[
            (names[p], names[c], start, end) for p, c, (start, end) in edges
        ])
        t = TimePoint(year)
        has_subdivision = store.vocab.expand("hasSubdivision")
        for start in iris.values():
            reached = {start} | oracle_reachable_parents(store, start, t)
            oracle_parents = {
                node: sorted({x.subject for x in store if x.property == has_subdivision
                              and x.object == node and fast_valid_at(x.validity, t)},
                             key=lambda i: i.value)
                for node in reached
            }
            if any(node in oracle_reachable_parents(store, node, t) for node in reached):
                with pytest.raises(HierarchyCycle) as expected:
                    reason._check_acyclic(oracle_parents)
                for walk in (ancestors_at, top_institution_at):
                    with pytest.raises(HierarchyCycle) as err:
                        walk(store, start, t)
                    assert err.value.cycle == expected.value.cycle
            else:
                assert set(ancestors_at(store, start, t)) == reached - {start}
                roots = [node for node in reached if not oracle_parents[node]]
                assert top_institution_at(store, start, t) == min(roots, key=lambda i: i.value)

    def test_diamond_is_reached_twice_without_a_cycle(self, monkeypatch):
        store, iris = body_store("u", "s1", "s2", "f", edges=[
            ("u", "s1", 1990, None), ("u", "s2", 1990, None),
            ("s1", "f", 1990, None), ("s2", "f", 1990, None),
        ])
        checks = []
        real = reason._check_acyclic
        monkeypatch.setattr(reason, "_check_acyclic",
                            lambda parents: checks.append(parents) or real(parents))
        t = TimePoint(2000)
        assert ancestors_at(store, iris["f"], t) == [iris["s1"], iris["s2"], iris["u"]]
        assert top_institution_at(store, iris["f"], t) == iris["u"]
        assert len(checks) == 2
        # a chain reaches no body twice, so it needs no cycle check
        assert ancestors_at(store, iris["s1"], t) == [iris["u"]]
        assert len(checks) == 2

    def test_reasoning_is_read_only(self, network, iri):
        before = export_quads(network)
        ancestors_at(network, iri("body/facB"), TimePoint(1998))
        members_at(network, iri("body/ux"), TimePoint(1998), "any", True)
        derive_mobility(network, iri("person/pA"))
        structure_timeline(network, iri("body/ux"))
        assert export_quads(network) == before


_YEARS = st.integers(1988, 1992)
_POINTS = st.one_of(
    _YEARS.map(TimePoint),
    st.tuples(_YEARS, st.integers(1, 12)).map(lambda ym: TimePoint(*ym)),
    st.tuples(_YEARS, st.integers(1, 12), st.integers(1, 28)).map(lambda ymd: TimePoint(*ymd)),
)
_BOUND = st.one_of(st.none(), _POINTS, _POINTS, _POINTS)
# edge bounds of any precision, either side open, in order
_EDGE_BOUNDS = st.tuples(_BOUND, _BOUND).filter(lambda b: b != (None, None)).map(
    lambda b: b if None in b or b[0].first_day() <= b[1].first_day() else b[::-1])


def _probes_around(day):
    """Points of every precision on both sides of the cut at `day`: the
    day before and the day itself, and the month and year of each (a
    month or year holding both crosses the cut)."""
    before = day - timedelta(days=1)
    out = []
    for d in (before, day):
        out += [TimePoint(d.year), TimePoint(d.year, d.month), TimePoint(d.year, d.month, d.day)]
    return out


def _lift_or_cycle(lift, body, t):
    try:
        ancestors, top = lift(body, t)
        return list(ancestors), top
    except HierarchyCycle as err:
        return err.cycle


class TestLiftsPerCall:
    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 5).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _EDGE_BOUNDS),
                     min_size=n, max_size=3 * n),
        )),
        st.randoms(use_true_random=False),
    )
    def test_matches_one_walk_per_point(self, graph, rng):
        n, edges = graph
        names = [f"b{i}" for i in range(n)]
        store, iris = body_store(*names, edges=[
            (names[p], names[c], start, end) for p, c, (start, end) in edges
        ])
        cuts = {date(1988, 1, 1), date(1993, 1, 1)}
        for _, _, (start, end) in edges:
            if start is not None:
                cuts.add(start.first_day())
            if end is not None:
                cuts.add(end.last_day() + timedelta(days=1))
        probes = [(body, t) for body in iris.values() for day in cuts for t in _probes_around(day)]
        rng.shuffle(probes)
        lifts = reason._Lifts(store)
        for body, t in probes + probes[::-1]:
            assert _lift_or_cycle(lifts.at, body, t) == _lift_or_cycle(
                lambda b, p: (ancestors_at(store, b, p), top_institution_at(store, b, p)), body, t)

    def test_cycle_is_raised_only_inside_its_segment(self):
        store, iris = body_store("a", "b", edges=[
            ("a", "b", 1990, 2000),
            ("b", "a", TimePoint(1995, 3), TimePoint(1995, 6, 15)),
        ])
        lifts = reason._Lifts(store)
        for t in (TimePoint(1995, 4), TimePoint(1995, 6, 15), TimePoint(1995, 3, 1)):
            with pytest.raises(HierarchyCycle) as err:
                lifts.at(iris["b"], t)
            with pytest.raises(HierarchyCycle) as expected:
                ancestors_at(store, iris["b"], t)
            assert err.value.cycle == expected.value.cycle
        for t in (TimePoint(1995), TimePoint(1995, 6), TimePoint(1995, 6, 16),
                  TimePoint(1995, 2, 28), TimePoint(1994), TimePoint(1996)):
            assert lifts.at(iris["b"], t) == ([iris["a"]], iris["a"])

    def test_not_a_body(self, network, iri):
        with pytest.raises(NotABody):
            reason._Lifts(network).at(iri("person/pA"), TimePoint(1998))

    def test_edge_to_the_last_representable_day(self):
        # no cut after 9999-12-31: the day after it is not a date
        store, iris = body_store("u", "f", edges=[("u", "f", 1990, 9999)])
        lifts = reason._Lifts(store)
        assert lifts.at(iris["f"], TimePoint(9999, 12, 31)) == ([iris["u"]], iris["u"])
        assert lifts.at(iris["f"], TimePoint(1989)) == ([], iris["f"])

    def test_walks_once_per_body_and_segment(self, monkeypatch):
        moves = [("1970..1974", "1976.."), ("1975-03..1979-06", "1980-01-15.."),
                 ("1981-07-09..1985-02-01", "1986.."), ("1990..1994", "1996-05.."),
                 ("1996-11..2000", "2002..")]
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id s\ntype body\nname S\nbody-kind school\nsubdivision-of u1@1950..\n\n"
            "id f\ntype body\nname F\nbody-kind faculty\nsubdivision-of s@1960..\n\n"
        ) + "".join(
            f"id p{i}\ntype person\nname P{i}\nstudent-of f@{study}\nprofessor-at u2@{chair}\n\n"
            for i, (study, chair) in enumerate(moves)
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        walked = []
        real = reason._walk
        monkeypatch.setattr(reason, "_walk",
                            lambda store, body, t: walked.append(body) or real(store, body, t))
        events = mobility_events(store, TimeInterval(TimePoint(1900), TimePoint(2100)))
        assert [(e.from_institution.local_name(), e.to_institution.local_name())
                for e in events] == [("u1", "u2")] * len(moves)
        # f's chain never changes after 1960: one walk for f, one for u2
        assert sorted(b.local_name() for b in walked) == ["f", "u2"]


class TestSuccession:
    def test_singleton_chain(self, network, iri):
        assert successor_chain(network, iri("body/facB")) == [iri("body/facB")]

    def test_two_step_chain(self):
        store, iris = body_store("deptOld", "deptNew", changes=[("deptOld", "deptNew", 1990)])
        assert successor_chain(store, iris["deptOld"]) == [iris["deptOld"], iris["deptNew"]]

    def test_cycle(self):
        store, iris = body_store("a", "b", changes=[("a", "b", 1990), ("b", "a", 1995)])
        with pytest.raises(SequenceCycle):
            successor_chain(store, iris["a"])

    def test_branching_is_ambiguous(self):
        store, iris = body_store(
            "a", "b", "c", changes=[("a", "b", 1990), ("a", "c", 1990)]
        )
        with pytest.raises(AmbiguousSuccession) as err:
            successor_chain(store, iris["a"])
        assert set(err.value.successors) == {iris["b"], iris["c"]}


class TestMembers:
    def test_fixture_university_wide(self, network, iri):
        assert members_at(network, iri("body/ux"), TimePoint(1998), "any", True) == [
            iri("person/pA"), iri("person/pB"), iri("person/pC"),
        ]

    def test_fixture_faculty_professors(self, network, iri):
        assert members_at(network, iri("body/facE"), TimePoint(1998), "professor") == [
            iri("person/pB")
        ]

    def test_role_filter(self, network, iri):
        assert members_at(network, iri("body/facB"), TimePoint(1998), "student") == [
            iri("person/pA")
        ]
        assert members_at(network, iri("body/facB"), TimePoint(1998), "professor") == [
            iri("person/pC")
        ]

    def test_empty_body(self, network, iri):
        assert members_at(network, iri("body/uy"), TimePoint(1990), "any", True) == []

    def test_subtree_equals_union_of_children(self, network, iri):
        t = TimePoint(1998)
        whole = members_at(network, iri("body/ux"), t, "any", True)
        union = set()
        for b in ("ux", "schoolA", "facB", "facE"):
            union.update(members_at(network, iri(f"body/{b}"), t, "any", False))
        assert whole == sorted(union, key=lambda i: i.value)

    def test_follow_successors(self):
        store, iris = body_store("old", "new", changes=[("old", "new", 1990)])
        v = store.vocab
        person = Iri(f"{BASE}/person/p1")
        store.insert(TemporalTriple(
            person, v.expand("kind"), v.class_iri(EntityKind.PERSON),
            Validity(), ProvenanceTag("p1", AUTHORITY)))
        store.insert(TemporalTriple(
            person, v.expand("isProfessorAt"), iris["new"],
            Validity.during(TimeInterval(TimePoint(1991), None)),
            ProvenanceTag("p1", AUTHORITY)))
        t = TimePoint(1995)
        assert members_at(store, iris["old"], t, "professor") == []
        assert members_at(store, iris["old"], t, "professor",
                          follow_successors=True) == [person]


class TestMobility:
    def test_person_a_single_move_with_six_year_gap(self, network, iri):
        events = derive_mobility(network, iri("person/pA"))
        assert len(events) == 1
        e = events[0]
        assert e.from_institution == iri("body/ux")
        assert e.to_institution == iri("body/uy")
        assert e.from_role == "student" and e.to_role == "professor"
        assert e.departure == TimePoint(2000)
        assert e.arrival == TimePoint(2006)
        assert e.gap_years == 6

    def test_person_c_moves_one_year_after_person_a(self, network, iri):
        a = derive_mobility(network, iri("person/pA"))[0]
        c = derive_mobility(network, iri("person/pC"))[0]
        assert c.arrival.year == a.arrival.year + 1
        assert c.from_institution == iri("body/ux")
        assert c.to_institution == iri("body/uy")

    def test_single_affiliation_yields_nothing(self, network, iri):
        assert derive_mobility(network, iri("person/pB")) == []
        assert derive_mobility(network, iri("person/pD")) == []

    def test_not_a_person(self, network, iri):
        with pytest.raises(NotAPerson):
            derive_mobility(network, iri("body/ux"))

    def test_department_change_within_university_is_not_mobility(self, network, iri):
        # pA changed faculties inside University X without an event
        events = derive_mobility(network, iri("person/pA"))
        assert all(e.from_institution != e.to_institution for e in events)

    def test_overlapping_affiliations_skip_event(self, caplog):
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id p\ntype person\nname P\nprofessor-at u1@1990..2000\nprofessor-at u2@1995..\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        person = Iri(f"{BASE}/person/p")
        with caplog.at_level("WARNING"):
            assert derive_mobility(store, person) == []
        assert "overlapping" in caplog.text

    def test_open_ended_student_run_uses_degree_grant(self):
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id p\ntype person\nname P\nstudent-of u1@1994..\nprofessor-at u2@2003..\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant p\nstudy 1994..2000\ngrantor u1\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        events = derive_mobility(store, Iri(f"{BASE}/person/p"))
        assert len(events) == 1
        assert events[0].departure == TimePoint(2000)
        assert events[0].gap_years == 3


class TestTopInstitution:
    def test_lifts_to_university(self, network, iri):
        assert top_institution_at(network, iri("body/facB"), TimePoint(1998)) == iri("body/ux")
        assert top_institution_at(network, iri("body/uy"), TimePoint(1998)) == iri("body/uy")

    def test_probes_each_reached_body_once(self, network, iri, monkeypatch):
        probed = []
        real = reason._parents_at

        def counting(store, body, t):
            probed.append(body)
            return real(store, body, t)

        monkeypatch.setattr(reason, "_parents_at", counting)
        assert top_institution_at(network, iri("body/facB"), TimePoint(1998)) == iri("body/ux")
        assert sorted(probed, key=lambda i: i.value) == [
            iri("body/facB"), iri("body/schoolA"), iri("body/ux"),
        ]


class TestStructureTimeline:
    def test_fixture_includes_establishment(self, network, iri):
        events = structure_timeline(network, iri("body/ux"))
        assert any(
            e.event_kind is StructureEventKind.ESTABLISHED
            and e.body == iri("body/facB")
            and e.when == TimePoint(1963)
            for e in events
        )

    def test_events_sorted_chronologically(self, network, iri):
        events = structure_timeline(network, iri("body/ux"))
        days = [e.when.first_day() for e in events]
        assert days == sorted(days)

    def test_university_without_subdivisions(self, network, iri):
        events = structure_timeline(network, iri("body/uy"))
        assert events == []

    def test_rename_detected(self):
        text = (
            "id u\ntype body\nname Old Name@..1989\nname New Name@1990..\nbody-kind university\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        events = structure_timeline(store, Iri(f"{BASE}/body/u"))
        renames = [e for e in events if e.event_kind is StructureEventKind.RENAMED]
        assert [e.when for e in renames] == [TimePoint(1990)]

    def test_split_modeled_as_change_plus_establishment(self):
        # a department is renamed into one successor while a sibling is
        # founded alongside it; the timeline shows both steps
        store, iris = body_store(
            "u", "old", "new", "sibling",
            edges=[("u", "old", 1960, 1990), ("u", "new", 1990, None),
                   ("u", "sibling", 1990, None)],
            changes=[("old", "new", 1990)],
        )
        v = store.vocab
        from etdgraph.model import Datatype, Literal

        store.insert(TemporalTriple(
            iris["sibling"], v.expand("establishedIn"), Literal("1990", Datatype.YEAR),
            Validity(), ProvenanceTag("sibling", AUTHORITY)))
        events = structure_timeline(store, iris["u"])
        kinds = [e.event_kind for e in events if e.when == TimePoint(1990)]
        assert StructureEventKind.CHANGED_TO in kinds
        assert StructureEventKind.ESTABLISHED in kinds
        # chain order preserved for the changed body
        assert successor_chain(store, iris["old"]) == [iris["old"], iris["new"]]
