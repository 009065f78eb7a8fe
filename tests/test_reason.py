import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph import reason
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


def body_store(*bodies, edges=(), changes=()):
    """bodies: local ids; edges: (parent, child, start, end); changes:
    (old, new, year)."""
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
            Validity.during(TimeInterval(
                TimePoint(start) if start else None,
                TimePoint(end) if end else None)),
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
