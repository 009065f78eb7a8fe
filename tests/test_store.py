import itertools
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph.errors import InvalidTriple, KindMismatch, UnknownProperty
from etdgraph.graphio import export_quads, import_quads
from etdgraph.model import (
    Datatype,
    Iri,
    Literal,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    triple_sort_key,
)
from etdgraph.store import (
    At,
    During,
    Effect,
    Inference,
    InsertResult,
    Overlaps,
    Pattern,
    Store,
)
from etdgraph.vocab import DEFAULT_VOCAB, EntityKind

from oracles import (
    AUTHORITY,
    UNIVERSE_FIRST,
    UNIVERSE_LAST,
    interval_days,
    oracle_match,
    oracle_mergeable,
    oracle_snapshot,
    rand_interval,
    rand_point,
    rand_store,
)

BASE = "http://example.org/etd"


def prov(record="rec1", authority=AUTHORITY):
    return ProvenanceTag(record, authority)


def make_triple(store, subject, prop, obj, validity=Validity(), record="rec1"):
    return TemporalTriple(subject, store.vocab.expand(prop), obj, validity, prov(record))


@pytest.fixture
def store():
    s = Store(base_iri=BASE)
    return s


@pytest.fixture
def seeded(store):
    v = store.vocab
    body = Iri(f"{BASE}/body/facB")
    person = Iri(f"{BASE}/person/pA")
    store.insert(make_triple(store, body, "kind", v.class_iri(EntityKind.CORPORATE_BODY)))
    store.insert(make_triple(store, person, "kind", v.class_iri(EntityKind.PERSON)))
    return store, person, body


def interval(a, b):
    return TimeInterval(
        TimePoint.parse(a) if a else None, TimePoint.parse(b) if b else None
    )


class TestInsert:
    def test_established_literal(self, seeded):
        store, _, body = seeded
        result = store.insert(
            make_triple(store, body, "establishedIn", Literal("1963", Datatype.YEAR))
        )
        assert result.effect is Effect.INSERTED

    def test_exact_duplicate(self, seeded):
        store, _, body = seeded
        t = make_triple(store, body, "establishedIn", Literal("1963", Datatype.YEAR))
        store.insert(t)
        assert store.insert(t).effect is Effect.DUPLICATE

    def test_adjacent_professorships_coalesce(self, seeded):
        store, person, body = seeded
        first = make_triple(store, person, "isProfessorAt", body,
                            Validity.during(interval("2006", "2008")))
        second = make_triple(store, person, "isProfessorAt", body,
                             Validity.during(interval("2008", "2010")))
        assert store.insert(first).effect is Effect.INSERTED
        result = store.insert(second)
        assert result.effect is Effect.COALESCED
        assert result.validity == Validity.during(interval("2006", "2010"))
        assert len(store.match(Pattern(subject=person))) == 2  # kind + one membership

    def test_contained_interval_is_duplicate(self, seeded):
        store, person, body = seeded
        store.insert(make_triple(store, person, "isProfessorAt", body,
                                 Validity.during(interval("2000", "2010"))))
        result = store.insert(make_triple(store, person, "isProfessorAt", body,
                                          Validity.during(interval("2002", "2003"))))
        assert result.effect is Effect.DUPLICATE

    def test_coalescing_bridges_several_rows(self, seeded):
        store, person, body = seeded
        for span in (("2000", "2002"), ("2006", "2008")):
            store.insert(make_triple(store, person, "isProfessorAt", body,
                                     Validity.during(interval(*span))))
        result = store.insert(make_triple(store, person, "isProfessorAt", body,
                                          Validity.during(interval("2002", "2006"))))
        assert result.effect is Effect.COALESCED
        assert result.validity == Validity.during(interval("2000", "2008"))

    def test_different_provenance_not_coalesced(self, seeded):
        store, person, body = seeded
        store.insert(make_triple(store, person, "isProfessorAt", body,
                                 Validity.during(interval("2000", "2004")), record="a"))
        result = store.insert(make_triple(store, person, "isProfessorAt", body,
                                          Validity.during(interval("2004", "2008")), record="b"))
        assert result.effect is Effect.INSERTED
        memberships = store.match(
            Pattern(subject=person, property=store.vocab.expand("isProfessorAt"))
        )
        assert len(memberships) == 2

    def test_unknown_property(self, store):
        triple = TemporalTriple(
            Iri(f"{BASE}/person/x"), Iri(f"{BASE}/vocab#mystery"),
            Iri(f"{BASE}/body/y"), Validity(), prov(),
        )
        with pytest.raises(UnknownProperty):
            store.insert(triple)

    def test_kind_mismatch(self, seeded):
        store, person, body = seeded
        # works are the only legal subjects of advisedBy
        with pytest.raises(KindMismatch):
            store.insert(make_triple(store, body, "advisedBy", person))

    def test_membership_requires_interval(self, seeded):
        store, person, body = seeded
        with pytest.raises(InvalidTriple):
            store.insert(make_triple(store, person, "isProfessorAt", body, Validity()))

    def test_succession_requires_instant(self, seeded):
        store, _, body = seeded
        other = Iri(f"{BASE}/body/facC")
        store.insert(make_triple(store, other, "kind",
                                 store.vocab.class_iri(EntityKind.CORPORATE_BODY)))
        with pytest.raises(InvalidTriple):
            store.insert(make_triple(store, body, "changedTo", other,
                                     Validity.during(interval("1990", "1995"))))
        assert store.insert(
            make_triple(store, body, "changedTo", other, Validity.at(TimePoint(1990)))
        ).effect is Effect.INSERTED

    @pytest.mark.parametrize("first, second", [
        ("1990", "1991"),
        ("2000-01-01", "2000-01-02"),
        ("1990-12", "1991"),
    ])
    def test_day_adjacent_instants_stay_apart(self, seeded, first, second):
        store, _, body = seeded
        other = Iri(f"{BASE}/body/facC")
        store.insert(make_triple(store, other, "kind",
                                 store.vocab.class_iri(EntityKind.CORPORATE_BODY)))
        for point in (first, second):
            result = store.insert(make_triple(store, body, "changedTo", other,
                                              Validity.at(TimePoint.parse(point))))
            assert result.effect is Effect.INSERTED
        rows = store.match(Pattern(subject=body, property=store.vocab.expand("changedTo")))
        assert [r.validity for r in rows] == [
            Validity.at(TimePoint.parse(first)), Validity.at(TimePoint.parse(second))
        ]
        reloaded = import_quads(export_quads(store), base_iri=BASE)
        assert reloaded.sorted_triples() == store.sorted_triples()

    def test_nested_instants_keep_the_coarser(self, seeded):
        store, _, body = seeded
        other = Iri(f"{BASE}/body/facC")
        store.insert(make_triple(store, other, "kind",
                                 store.vocab.class_iri(EntityKind.CORPORATE_BODY)))
        store.insert(make_triple(store, body, "changedTo", other,
                                 Validity.at(TimePoint(1990, 6))))
        result = store.insert(make_triple(store, body, "changedTo", other,
                                          Validity.at(TimePoint(1990))))
        assert (result.effect, result.validity) == (
            Effect.COALESCED, Validity.at(TimePoint(1990))
        )
        assert store.insert(make_triple(store, body, "changedTo", other, Validity.at(
            TimePoint(1990, 12, 31)))).effect is Effect.DUPLICATE

    def test_conflicting_kind_rejected(self, seeded):
        store, person, _ = seeded
        with pytest.raises(InvalidTriple):
            store.insert(make_triple(store, person, "kind",
                                     store.vocab.class_iri(EntityKind.WORK)))

    def test_conflicting_work_subkind_rejected(self, store):
        work = Iri(f"{BASE}/work/w1")
        store.insert(make_triple(store, work, "kind", store.vocab.class_iri(EntityKind.WORK)))
        store.insert(make_triple(store, work, "workKind", Literal("master")))
        with pytest.raises(InvalidTriple):
            store.insert(make_triple(store, work, "workKind", Literal("phd")))

    def test_subkind_value_set_enforced(self, seeded):
        store, _, body = seeded
        with pytest.raises(InvalidTriple):
            store.insert(make_triple(store, body, "bodyKind", Literal("empire")))

    def test_always_absorbs_scoped_rows(self, seeded):
        store, person, body = seeded
        first = make_triple(store, body, "label", Literal("Faculty B"),
                            Validity.during(interval("1963", "1999")))
        store.insert(first)
        result = store.insert(make_triple(store, body, "label", Literal("Faculty B")))
        assert result.effect is Effect.COALESCED
        assert result.validity == Validity()

    def test_coarser_boundary_wins_in_either_order(self, seeded):
        # 1996 and 1996-01 start on the same day; the stored row must not
        # depend on which statement came first
        store, person, body = seeded
        year = make_triple(store, person, "isStudentOf", body,
                           Validity.during(interval("1996", "1998")))
        month = make_triple(store, person, "isStudentOf", body,
                            Validity.during(interval("1996-01", "2000")))
        clone = store.copy()
        store.insert(year)
        store.insert(month)
        clone.insert(month)
        assert clone.insert(year).effect is Effect.COALESCED
        assert store.sorted_triples() == clone.sorted_triples()
        stored = store.match(Pattern(subject=person, property=year.property))
        assert [t.validity for t in stored] == [Validity.during(interval("1996", "2000"))]

    def test_rows_covering_all_time_become_unqualified(self, seeded):
        store, _, body = seeded
        for span in (("", "1990"), ("1995", ""), ("1988", "1996")):
            result = store.insert(make_triple(store, body, "label", Literal("B"),
                                              Validity.during(interval(*span))))
        assert result == InsertResult(Effect.COALESCED, Validity())
        labels = store.match(Pattern(subject=body, property=store.vocab.expand("label")))
        assert [t.validity for t in labels] == [Validity()]

    def test_membership_rows_covering_all_time_become_one_row(self, seeded):
        # a membership needs an interval, so an all-time union is one row
        # from the first representable day on, in any insert order
        seeded_store, person, body = seeded
        all_days = Validity.during(interval("0001", ""))
        statements = [make_triple(seeded_store, person, "isStudentOf", body,
                                  Validity.during(interval(*span)))
                      for span in (("", "1990"), ("1995", ""), ("1989", "1996"))]
        for order in itertools.permutations(statements):
            store = seeded_store.copy()
            results = [store.insert(t) for t in order]
            assert results[-1] == InsertResult(Effect.COALESCED, all_days)
            rows = store.match(Pattern(subject=person, property=statements[0].property))
            assert [t.validity for t in rows] == [all_days]
            # a repeat of any of them, or of the row itself, is a duplicate
            for t in statements + rows:
                assert store.insert(t).effect is Effect.DUPLICATE

    def test_insert_into_copy_coalesces_and_leaves_original(self, seeded):
        store, person, body = seeded
        first = make_triple(store, person, "isProfessorAt", body,
                            Validity.during(interval("2000", "2004")))
        store.insert(first)
        before = store.sorted_triples()
        second = make_triple(store, person, "isProfessorAt", body,
                             Validity.during(interval("2005", "2008")))
        merged = InsertResult(Effect.COALESCED, Validity.during(interval("2000", "2008")))
        by_property = Pattern(property=first.property)
        size, probed = len(store), store.match(by_property)
        clone = store.copy()
        assert clone.insert(second) == merged
        assert len(clone) == len(store)
        assert first not in clone
        assert store.sorted_triples() == before
        # the clone's property index holds its own lists, not the original's
        assert len(store) == size
        assert store.match(by_property) == probed
        assert [t.validity for t in clone.match(by_property)] == [merged.validity]
        # the original's own index still holds its row, so it coalesces too
        assert store.insert(second) == merged
        assert store.sorted_triples() == clone.sorted_triples()
        # a row only the clone gains counts in the clone only
        later = make_triple(store, person, "isProfessorAt", body,
                            Validity.during(interval("2010", "2012")))
        assert clone.insert(later).effect is Effect.INSERTED
        assert len(store) == len(clone) - 1


_BODY = Iri(f"{BASE}/body/b")
_OTHER_BODY = Iri(f"{BASE}/body/c")
_PERSON = Iri(f"{BASE}/person/p")
_LABEL = DEFAULT_VOCAB.expand("label")
_STUDENT_OF = DEFAULT_VOCAB.expand("isStudentOf")
_ALL_DAYS = Validity.during(TimeInterval(TimePoint(1), None))


@st.composite
def _points(draw):
    # a narrow span of years at mixed precision, so that validities often
    # overlap, touch at a day boundary or share a boundary day
    year = draw(st.integers(1990, 1995))
    precision = draw(st.integers(1, 3))
    if precision == 1:
        return TimePoint(year)
    month = draw(st.integers(1, 12))
    if precision == 2:
        return TimePoint(year, month)
    return TimePoint(year, month, draw(st.sampled_from([1, 15, 28])))


@st.composite
def _intervals(draw):
    a, b = draw(_points()), draw(_points())
    if (a.first_day(), a.last_day()) > (b.first_day(), b.last_day()):
        a, b = b, a
    open_side = draw(st.sampled_from(["none"] * 4 + ["start", "end"]))
    return TimeInterval(None if open_side == "start" else a, None if open_side == "end" else b)


@st.composite
def _validities(draw):
    if draw(st.integers(0, 6)) == 0:
        return Validity()
    return Validity.during(draw(_intervals()))


@st.composite
def _labels(draw):
    # two objects times two provenances: four keys on one body
    label = Literal(draw(st.sampled_from(["B", "C"])))
    source = prov(draw(st.sampled_from(["r1", "r2"])))
    return TemporalTriple(_BODY, _LABEL, label, draw(_validities()), source)


@st.composite
def _memberships(draw):
    # two bodies times two provenances: four keys on one person
    body = draw(st.sampled_from([_BODY, _OTHER_BODY]))
    source = prov(draw(st.sampled_from(["r1", "r2"])))
    return TemporalTriple(_PERSON, _STUDENT_OF, body, Validity.during(draw(_intervals())), source)


# Keys never interact, so each list holds one kind of statement: its keys
# then meet often enough to cover all time.
_statement_lists = st.sampled_from([_labels, _memberships]).flatmap(
    lambda statements: st.lists(statements(), min_size=1, max_size=8)
)


def _store_of(triples) -> Store:
    store = Store(base_iri=BASE)
    for t in triples:
        store.insert(t)
    return store


def _key(t: TemporalTriple):
    return t.subject, t.property, t.object, t.provenance


class TestInsertOrder:
    """Coalescing keeps a canonical store whatever the insert order.

    Rows of a `label` key whose union covers all time become one
    unqualified row. `isStudentOf` must keep an interval, so there they
    become one row from year 1 on.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        _statement_lists.flatmap(
            lambda triples: st.tuples(st.just(triples), st.permutations(triples))
        )
    )
    def test_any_insert_order_gives_the_same_store(self, orders):
        triples, shuffled = orders
        assert _store_of(triples).sorted_triples() == _store_of(shuffled).sorted_triples()

    @settings(max_examples=200, deadline=None)
    @given(_statement_lists)
    def test_rows_of_a_key_are_the_union_of_its_statements(self, triples):
        store = _store_of(triples)
        universe = set(range(UNIVERSE_FIRST, UNIVERSE_LAST + 1))
        for key in {_key(t) for t in triples}:
            inserted = [t.validity for t in triples if _key(t) == key]
            rows = [t.validity for t in store.sorted_triples() if _key(t) == key]
            if any(v.is_always for v in inserted):
                assert rows == [Validity()]
                continue
            expected = set().union(*(interval_days(v.interval) for v in inserted))
            if expected == universe:
                # not through interval_days: it would list every day from year 1
                assert rows == [_ALL_DAYS if key[1] is _STUDENT_OF else Validity()]
                continue
            assert all(not v.is_always for v in rows)
            stored = set().union(*(interval_days(v.interval) for v in rows))
            assert stored == expected
            for i, a in enumerate(rows):
                for b in rows[i + 1:]:
                    assert not oracle_mergeable(a.interval, b.interval)


class TestMatch:
    def test_fixture_student_at_1998(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("person/pA"),
                    property=network.vocab.expand("isStudentOf"),
                    time=At(TimePoint(1998)))
        )
        assert [(h.object, h.validity.text()) for h in hits] == [
            (iri("body/facB"), "[1996..2000]")
        ]

    def test_fixture_female_persons(self, network, iri):
        hits = network.match(
            Pattern(property=network.vocab.expand("hasGender"),
                    object=iri("gender/female"))
        )
        subjects = sorted((h.subject for h in hits), key=lambda i: i.value)
        assert subjects == [iri("person/pB"), iri("person/pC")]

    def test_inverse_synthesis(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("body/facB"),
                    property=network.vocab.expand("isSubdivisionOf"),
                    inference=Inference.INVERSE)
        )
        assert len(hits) == 1
        derived = hits[0]
        assert derived.derived
        assert derived.object == iri("body/schoolA")
        # flipping the derived statement reproduces the stored one
        restored = derived.flipped(network.vocab.expand("hasSubdivision"))
        assert restored in network

    def test_no_inverse_without_flag(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("body/facB"),
                    property=network.vocab.expand("isSubdivisionOf"))
        )
        assert hits == []

    def test_unknown_explicit_property(self, network):
        with pytest.raises(UnknownProperty):
            network.match(Pattern(property=Iri(f"{BASE}/vocab#bogus")))

    def test_during_and_overlaps_constraints(self, network, iri):
        student_of = network.vocab.expand("isStudentOf")
        inside = network.match(Pattern(subject=iri("person/pA"), property=student_of,
                                       time=During(interval("1990", "2005"))))
        assert {h.object for h in inside} == {iri("body/facB"), iri("body/facE")}
        overlapping = network.match(Pattern(subject=iri("person/pA"), property=student_of,
                                            time=Overlaps(interval("1999", "2001"))))
        assert {h.object for h in overlapping} == {iri("body/facB")}

    def test_results_sorted_canonically(self, network):
        hits = network.match(Pattern())
        keys = [
            (h.subject.value, h.property.value) for h in hits
        ]
        assert keys == sorted(keys)


def _coalesce_some(rng, store, replaced=None) -> Store:
    """Stretch half the bounded rows past their end; the inserts coalesce
    and replace rows in their index groups, which go to `replaced`."""
    bounded = [
        t for t in store.sorted_triples()
        if t.validity.interval is not None and t.validity.interval.end is not None
        and not t.validity.interval.is_instant
    ]
    stretched = 0
    for t in rng.sample(bounded, k=(len(bounded) + 1) // 2):
        iv = t.validity.interval
        longer = TimeInterval(iv.start, TimePoint(iv.end.year + 3))
        result = store.insert(replace(t, validity=Validity.during(longer)))
        stretched += result.effect is Effect.COALESCED
        if replaced is not None and result.effect is Effect.COALESCED:
            replaced.append(t)
    assert stretched
    return store


def _mirror_some(rng, store) -> Store:
    """Also store the flipped copy of some rows, so inverse probes meet
    derived copies equal to stored rows."""
    for t in rng.sample(store.sorted_triples(), k=len(store) // 4):
        inverse = store.vocab.inverse_of(t.property)
        if inverse is not None:
            store.insert(replace(t.flipped(inverse), derived=False))
    return store


def _assert_matches_brute_force(rng, store):
    ghost = Iri(f"{BASE}/person/ghost")
    rows = oracle_match(store, None, None, None, None, True)
    subjects = [t.subject for t in rows] + [ghost]
    props = [pdef.id for pdef in store.vocab.table()]
    objects = [t.object for t in rows] + [ghost, Literal("absent")]
    times = [None, At(rand_point(rng)), During(rand_interval(rng)),
             Overlaps(rand_interval(rng))]
    for bound in itertools.product([False, True], repeat=3):
        # half the probes take their terms from one row, so they hit
        row = rng.choice(rows)
        own = rng.random() < 0.5
        subject, prop, obj = (
            None if not b else own_term if own else rng.choice(pool)
            for b, own_term, pool in zip(
                bound, (row.subject, row.property, row.object),
                (subjects, props, objects))
        )
        for time in times:
            for inference in Inference:
                got = store.match(Pattern(subject, prop, obj, time, inference))
                expected = sorted(
                    oracle_match(store, subject, prop, obj, time,
                                 inference is Inference.INVERSE),
                    key=triple_sort_key,
                )
                assert [(t, t.derived) for t in got] == [(t, t.derived) for t in expected]


def _assert_indexes_agree(store, replaced):
    """The subject, object and property indexes reach the rows `iter`
    does, each once; `len`, `in` and property-only pool sizes agree."""
    rows = Counter(store)
    props = [pdef.id for pdef in store.vocab.table()]
    for reached in (
        (t for groups in store._by_subject.values() for g in groups.values() for t in g),
        (t for groups in store._by_object.values() for g in groups.values() for t in g),
        (t for p in props for t in store._match(None, p, None, None, False)),
    ):
        assert Counter(reached) == rows
    assert set(rows.values()) <= {1}
    assert len(store) == len(rows)
    assert all(t in store for t in rows)
    assert not any(t in store for t in replaced)
    for p in props:
        inverse = store.vocab.inverse_of(p)
        expected = sum(t.property == p for t in rows) + sum(t.property == inverse for t in rows)
        assert store._probe_size(None, p, None) == expected


class TestIndexEquivalence:
    """Every probe shape agrees with a brute-force filter over the stored
    rows and their flipped copies, on terms the store holds and ones it
    does not."""

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(["built", "coalesced", "copied", "mirrored"]))
    def test_match_equals_brute_force(self, rng, variant):
        store = rand_store(rng, n_people=4, n_bodies=3, n_works=3)
        stores = [store]
        if variant == "coalesced":
            _coalesce_some(rng, store)
        elif variant == "copied":
            # coalescing in the copy leaves the original's groups alone
            stores.append(_coalesce_some(rng, store.copy()))
        elif variant == "mirrored":
            _mirror_some(rng, store)
        for s in stores:
            _assert_matches_brute_force(rng, s)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False),
           st.sampled_from(["built", "coalesced", "copied", "mirrored"]))
    def test_indexes_agree(self, rng, variant):
        store = rand_store(rng, n_people=4, n_bodies=3, n_works=3)
        checks = [(store, [])]
        if variant == "coalesced":
            _coalesce_some(rng, store, checks[0][1])
        elif variant == "copied":
            replaced = []
            checks.append((_coalesce_some(rng, store.copy(), replaced), replaced))
        elif variant == "mirrored":
            _mirror_some(rng, store)
        for s, replaced in checks:
            _assert_indexes_agree(s, replaced)


class TestProbeShape:
    def test_two_bound_terms_size_the_exact_rows(self, network):
        for t in network:
            inverse = network.vocab.inverse_of(t.property)
            s_p = [x for x in network if x.subject == t.subject and x.property == t.property]
            s_p += [x for x in network if x.object == t.subject and x.property == inverse]
            assert network._probe_size(t.subject, t.property, None) == len(s_p)
            p_o = [x for x in network if x.object == t.object and x.property == t.property]
            if isinstance(t.object, Iri):
                p_o += [x for x in network if x.subject == t.object and x.property == inverse]
            assert network._probe_size(None, t.property, t.object) == len(p_o)

    def test_stored_probe_is_a_list_without_duplicates(self, network, iri):
        probes = [
            (iri("person/pA"), None, None),
            (None, network.vocab.expand("hasSubdivision"), iri("body/facB")),
            (iri("person/pA"), network.vocab.expand("isStudentOf"), None),
            (None, network.vocab.expand("kind"), None),
            (None, None, None),
        ]
        for subject, prop, obj in probes:
            hits = network._match(subject, prop, obj, None, False)
            assert isinstance(hits, list)
            assert hits
            assert len(set(hits)) == len(hits)


class TestSnapshot:
    def test_fixture_1998(self, network, iri):
        snap = network.snapshot_at(TimePoint(1998))
        props = {(t.subject, t.property.local_name(), t.object) for t in snap}
        assert (iri("person/pA"), "isStudentOf", iri("body/facB")) in props
        assert (iri("person/pA"), "isProfessorAt", iri("body/uy")) not in props

    def test_fixture_2009(self, network, iri):
        snap = network.snapshot_at(TimePoint(2009))
        props = {(t.subject, t.property.local_name(), t.object) for t in snap}
        assert (iri("person/pD"), "isStudentOf", iri("body/uy")) in props
        assert (iri("person/pA"), "isProfessorAt", iri("body/uy")) in props

    def test_empty_store(self):
        assert Store(base_iri=BASE).snapshot_at(TimePoint(2000)) == set()

    def test_matches_brute_force(self, network):
        rng = random.Random(555)
        for _ in range(50):
            t = rand_point(rng, 1950, 2020)
            assert network.snapshot_at(t) == oracle_snapshot(set(network), t)

    def test_matches_brute_force_on_random_stores(self):
        rng = random.Random(556)
        for _ in range(5):
            s = rand_store(rng)
            for _ in range(10):
                t = rand_point(rng)
                assert s.snapshot_at(t) == oracle_snapshot(set(s), t)


class TestEntities:
    def test_fixture_census(self, network, iri):
        assert network.entities_of_kind(EntityKind.PERSON) == [
            iri("person/pA"), iri("person/pB"), iri("person/pC"), iri("person/pD")
        ]
        assert len(network.entities_of_kind(EntityKind.CORPORATE_BODY)) == 5
        assert network.entities_of_kind(EntityKind.PLACE) == []

    def test_reinsertion_leaves_store_unchanged(self, network):
        clone = network.copy()
        for t in list(network):
            clone.insert(t)
        assert set(clone) == set(network)
