import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph import analytics
from etdgraph.analytics import (
    gender_of,
    gender_tally,
    institution_cooperation,
    interdisciplinary_works,
    mobility_by_gender,
    mobility_events,
    supervision_gender_matrix,
    supervisor_gender_rate,
)
from etdgraph.errors import NotABody
from etdgraph.graphio import export_quads
from etdgraph.ingest import parse_records, records_to_graph
from etdgraph.model import (
    Iri,
    Literal,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    intervals_overlap,
)
from etdgraph.reason import members_at
from etdgraph.store import Pattern, Store
from etdgraph.vocab import EntityKind

from oracles import (
    oracle_cooperation,
    oracle_gender_of,
    oracle_gender_tally,
    oracle_interdisciplinary,
    oracle_mobility,
    oracle_supervision_matrix,
    oracle_supervision_rate,
    rand_network_store,
    rand_point,
    rand_store,
)

BASE = Iri("http://example.org/etd")


def years(a, b):
    return TimeInterval(TimePoint(a) if a else None, TimePoint(b) if b else None)


def local(counts):
    return {g.local_name() if g else None: v for g, v in counts.items()}


def store_of(rows):
    """A store of (subject, property, object, interval or None) rows, with
    IRIs given as paths under BASE."""
    store = Store(base_iri=BASE)
    for s, p, o, iv in rows:
        store.insert(TemporalTriple(Iri(f"{BASE}/{s}"), store.vocab.expand(p),
                                    Iri(f"{BASE}/{o}"),
                                    Validity.during(iv) if iv else Validity(),
                                    ProvenanceTag("r", BASE)))
    return store


class TestGenderTally:
    def test_fixture_advisors_of_university_x(self, network, iri):
        tally = gender_tally(network, iri("body/ux"), "advisor", TimePoint(1998), True)
        assert local(tally.counts) == {"female": 2}
        assert tally.unspecified == 0

    def test_professor_tally(self, network, iri):
        tally = gender_tally(network, iri("body/ux"), "professor", TimePoint(1998), True)
        assert local(tally.counts) == {"female": 2}

    def test_unspecified_bucket(self, network, iri):
        tally = gender_tally(network, iri("body/uy"), "student", TimePoint(2009), False)
        assert tally.counts == {}
        assert tally.unspecified == 1  # pD has no recorded gender

    def test_empty_body(self, network, iri):
        tally = gender_tally(network, iri("body/uy"), "professor", TimePoint(1990), False)
        assert tally.total == 0

    def test_requires_body(self, network, iri):
        with pytest.raises(NotABody):
            gender_tally(network, iri("person/pA"), "professor", TimePoint(1998))

    def test_sum_matches_members(self, network, iri):
        t = TimePoint(1998)
        for role in ("student", "professor", "any"):
            tally = gender_tally(network, iri("body/ux"), role, t, True)
            assert tally.total == len(members_at(network, iri("body/ux"), t, role, True))

    def test_work_role_reads_only_granted_studies(self, network, iri, monkeypatch):
        created_by = network.vocab.expand("createdBy")
        granted = {t.subject for t in network.match(
            Pattern(property=network.vocab.expand("degreeGrantedBy"), object=iri("body/uy")))}
        probed = []
        real = Store._match

        def spy(store, subject, prop, *rest):
            if prop == created_by:
                probed.append(subject)
            return real(store, subject, prop, *rest)

        monkeypatch.setattr(Store, "_match", spy)
        tally = gender_tally(network, iri("body/uy"), "dissertant", TimePoint(2009), False)
        assert tally.total > 0
        assert probed and set(probed) <= granted

    def test_counts_stable_under_reingestion(self, network):
        # duplicate ingest of the same batch coalesces to the same store
        from etdgraph.fixture import fixture_text

        records = parse_records(fixture_text())
        once, _ = records_to_graph(records, base=BASE)
        for t in list(once):
            once.insert(t)
        tally = gender_tally(once, Iri(f"{BASE}/body/ux"), "advisor", TimePoint(1998), True)
        assert local(tally.counts) == {"female": 2}


class TestGenderOf:
    def test_time_scoped_transition(self):
        text = (
            "id p\ntype person\nname P\ngender male@..1999\ngender female@2000..\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        person = Iri(f"{BASE}/person/p")
        assert gender_of(store, person, TimePoint(1990)).local_name() == "male"
        assert gender_of(store, person, TimePoint(2005)).local_name() == "female"

    def test_absent(self, network, iri):
        assert gender_of(network, iri("person/pD"), TimePoint(2009)) is None


class TestSupervisorRate:
    def test_fixture_phd_rate(self, network):
        rates = supervisor_gender_rate(network, years(1990, 2010), "phd")
        by_name = {g.local_name(): e for g, e in rates.by_gender.items()}
        assert by_name["female"].supervisions == 1  # phd1 advised by pC
        assert by_name["male"].supervisions == 1  # phd-D advised by pA
        assert by_name["female"].share == Fraction(1, 2)
        assert rates.unspecified == 0

    def test_shares_sum_to_one(self, network):
        rates = supervisor_gender_rate(network, years(1990, 2010), "any")
        assert sum(e.share for e in rates.by_gender.values()) == 1

    def test_empty_window(self, network):
        rates = supervisor_gender_rate(network, years(1900, 1950), "any")
        assert rates.by_gender == {} and rates.unspecified == 0

    @pytest.mark.parametrize("da_first", [True, False])
    def test_study_end_tie_takes_the_canonically_first_row(self, da_first):
        # both authorship rows end on 2004-12-31; da's is first in canonical
        # order, so the study ends on the day 2004-12-31, on which the
        # advisor's gender holds (it does not hold on all of 2004)
        authorship = [
            ("work/w", "createdBy", "person/da",
             TimeInterval(TimePoint(2001), TimePoint(2004, 12, 31))),
            ("work/w", "createdBy", "person/db", TimeInterval(TimePoint(2000), TimePoint(2004))),
        ]
        store = store_of((authorship if da_first else authorship[::-1]) + [
            ("work/w", "advisedBy", "person/pv", None),
            ("person/pv", "hasGender", "gender/female", TimeInterval(TimePoint(2004, 6), None)),
        ])
        rates = supervisor_gender_rate(store, years(2004, 2004))
        assert local({g: e.supervisions for g, e in rates.by_gender.items()}) == {"female": 1}
        assert rates.unspecified == 0


class TestMatrix:
    def test_fixture_women_supervising_men(self, network, iri):
        matrix = supervision_gender_matrix(network, years(1990, 2005), "any")
        female = iri("gender/female")
        male = iri("gender/male")
        assert matrix[female][male] == 2  # pB->pA and pC->pA
        assert set(matrix) == {female}

    def test_no_works_in_window(self, network):
        assert supervision_gender_matrix(network, years(1900, 1950), "any") == {}

    def test_row_sums_match_rate_counts(self, network):
        window = years(1990, 2010)
        for kind in ("master", "phd", "any"):
            matrix = supervision_gender_matrix(network, window, kind)
            rates = supervisor_gender_rate(network, window, kind)
            for gender, entry in rates.by_gender.items():
                assert sum(matrix[gender].values()) == entry.supervisions
            unspecified_row = matrix.get(None, {})
            assert sum(unspecified_row.values()) == rates.unspecified

    def test_reads_each_dissertant_gender_once_per_work(self, monkeypatch):
        study = TimeInterval(TimePoint(2000), TimePoint(2004))
        store = store_of(
            [("work/w", "createdBy", f"person/{d}", study) for d in ("d1", "d2")]
            + [("work/w", "advisedBy", f"person/{a}", None) for a in ("a1", "a2")]
            + [(f"person/{p}", "hasGender", "gender/female", None)
               for p in ("a1", "a2", "d1", "d2")])
        reads = []
        monkeypatch.setattr(analytics, "gender_of",
                            lambda *args: reads.append(args[1]) or gender_of(*args))
        matrix = supervision_gender_matrix(store, years(2000, 2004), "any")
        assert local(matrix[Iri(f"{BASE}/gender/female")]) == {"female": 4}
        assert len(reads) == 4  # two advisors and two dissertants

    def test_key_order_matches_reference(self, network):
        for window in (years(1990, 2005), years(1990, 2020), years(2000, 2010)):
            for kind in ("master", "phd", "any"):
                matrix = supervision_gender_matrix(network, window, kind)
                reference = _reference_matrix(network, window, kind)
                assert _key_order(matrix) == _key_order(reference)
                assert matrix == reference

    def test_row_sums_match_on_random_stores(self):
        rng = random.Random(909)
        window = years(1970, 2019)
        for _ in range(5):
            store = rand_store(rng)
            matrix = supervision_gender_matrix(store, window, "any")
            rates = supervisor_gender_rate(store, window, "any")
            for gender, entry in rates.by_gender.items():
                assert sum(matrix[gender].values()) == entry.supervisions
            assert sum(matrix.get(None, {}).values()) == rates.unspecified


def _reference_matrix(store, interval, work_kind):
    """supervision_gender_matrix as first written, kept for the order of
    its keys: works by IRI, each work's advisors in canonical order, and
    its dissertants by IRI."""
    prop = store.vocab.expand
    studies = {}
    for t in store.match(Pattern(property=prop("createdBy"))):
        iv = t.validity.interval
        if iv is not None and (t.subject not in studies
                               or iv.last_day() > studies[t.subject].last_day()):
            studies[t.subject] = iv
    kinds = {t.subject for t in store.match(
        Pattern(property=prop("workKind"), object=Literal(work_kind)))}
    matrix = {}
    for work, study in studies.items():
        if (work_kind != "any" and work not in kinds) or not intervals_overlap(study, interval):
            continue
        when = study.end if study.end is not None else study.start
        dissertants = sorted({t.object for t in store.match(
            Pattern(subject=work, property=prop("createdBy")))}, key=lambda i: i.value)
        for t in store.match(Pattern(subject=work, property=prop("advisedBy"))):
            row = matrix.setdefault(gender_of(store, t.object, when), {})
            for dissertant in dissertants:
                gender = gender_of(store, dissertant, when)
                row[gender] = row.get(gender, 0) + 1
    return matrix


def _key_order(matrix):
    return [(advisor, list(row)) for advisor, row in matrix.items()]


class TestInterdisciplinary:
    def test_fixture_has_none(self, network):
        assert interdisciplinary_works(network, years(1990, 2020)) == (0, [])

    def test_grantors_meeting_only_at_university(self):
        # facB sits under schoolA, facE directly under the university:
        # the pair shares nothing below the university itself
        text = (
            "id ux\ntype body\nname UX\nbody-kind university\n\n"
            "id schoolA\ntype body\nname SA\nbody-kind school\nsubdivision-of ux@1950..\n\n"
            "id facB\ntype body\nname FB\nbody-kind faculty\nsubdivision-of schoolA@1963..\n\n"
            "id facE\ntype body\nname FE\nbody-kind faculty\nsubdivision-of ux@1970..\n\n"
            "id p\ntype person\nname P\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant p\nstudy 2000..2004\n"
            "grantor facB\ngrantor facE\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        count, works = interdisciplinary_works(store, years(1990, 2020))
        assert count == 1
        assert works[0].local_name() == "w"

    def test_two_faculties_of_same_school_do_not_count(self):
        text = (
            "id ux\ntype body\nname UX\nbody-kind university\n\n"
            "id schoolA\ntype body\nname SA\nbody-kind school\nsubdivision-of ux@1950..\n\n"
            "id f1\ntype body\nname F1\nbody-kind faculty\nsubdivision-of schoolA@1960..\n\n"
            "id f2\ntype body\nname F2\nbody-kind faculty\nsubdivision-of schoolA@1960..\n\n"
            "id p\ntype person\nname P\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant p\nstudy 2000..2004\n"
            "grantor f1\ngrantor f2\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        assert interdisciplinary_works(store, years(1990, 2020)) == (0, [])

    def test_shortcut_edge_keeps_the_lowest_iri_root_as_university(self):
        # g1 sits under school y and directly under university x; g2 only
        # under y: the pair meets at y, below the university
        text = (
            "id x\ntype body\nname X\nbody-kind university\n\n"
            "id y\ntype body\nname Y\nbody-kind school\nsubdivision-of x@1950..\n\n"
            "id g1\ntype body\nname G1\nbody-kind faculty\n"
            "subdivision-of y@1960..\nsubdivision-of x@1960..\n\n"
            "id g2\ntype body\nname G2\nbody-kind faculty\nsubdivision-of y@1960..\n\n"
            "id p\ntype person\nname P\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant p\nstudy 1996..2000\n"
            "grantor g1\ngrantor g2\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        assert interdisciplinary_works(store, years(1990, 2020)) == (0, [])

    def test_different_universities_count(self):
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id p\ntype person\nname P\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant p\nstudy 2000..2004\n"
            "grantor u1\ngrantor u2\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        count, _ = interdisciplinary_works(store, years(1990, 2020))
        assert count == 1


class TestMobilityByGender:
    def test_fixture_window(self, network):
        aggregates = mobility_by_gender(network, years(2000, 2010))
        by_name = {g.local_name() if g else None: a for g, a in aggregates.items()}
        assert by_name["male"].moves == 1
        assert by_name["male"].avg_gap_years == 6
        assert by_name["female"].moves == 1
        assert by_name["female"].avg_gap_years == 1

    def test_window_before_events(self, network):
        assert mobility_by_gender(network, years(1900, 1950)) == {}

    def test_totals_match_direct_derivation(self, network):
        from etdgraph.reason import derive_mobility
        from etdgraph.vocab import EntityKind

        window = years(1900, 2099)
        total = sum(a.moves for a in mobility_by_gender(network, window).values())
        direct = sum(
            len(derive_mobility(network, p))
            for p in network.entities_of_kind(EntityKind.PERSON)
        )
        assert total == direct


class TestCooperation:
    def test_fixture_is_empty(self, network):
        assert institution_cooperation(network, years(1990, 2020)) == []

    def test_cross_institution_advising(self):
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id u2\ntype body\nname U2\nbody-kind university\n\n"
            "id prof\ntype person\nname Prof\nprofessor-at u2@1990..\n\n"
            "id stud\ntype person\nname Stud\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant stud\nstudy 2000..2004\n"
            "advisor prof\ngrantor u1\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        pairs = institution_cooperation(store, years(1990, 2020))
        assert len(pairs) == 1
        a, b, count = pairs[0]
        assert {a.local_name(), b.local_name()} == {"u1", "u2"}
        assert count == 1

    def test_single_institution_store(self):
        text = (
            "id u1\ntype body\nname U1\nbody-kind university\n\n"
            "id prof\ntype person\nname Prof\nprofessor-at u1@1990..\n\n"
            "id stud\ntype person\nname Stud\n\n"
            "id w\ntype work\ntitle T\nwork-kind phd\ndissertant stud\nstudy 2000..2004\n"
            "advisor prof\ngrantor u1\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        assert institution_cooperation(store, years(1990, 2020)) == []


def _network_and_window(rng):
    store = rand_network_store(rng)
    first, last = sorted((rng.randint(1970, 2015), rng.randint(1970, 2015)))
    return store, years(first, last)


class TestReportOracles:
    """Each report against its oracle on random networks whose
    hierarchies change over time and hold a shortcut edge."""

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_cooperation_matches_oracle(self, rng):
        store, window = _network_and_window(rng)
        assert institution_cooperation(store, window) == oracle_cooperation(store, window)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_interdisciplinary_matches_oracle(self, rng):
        store, window = _network_and_window(rng)
        assert interdisciplinary_works(store, window) == oracle_interdisciplinary(store, window)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_gender_of_matches_oracle(self, rng):
        store = rand_network_store(rng)
        for person in store.entities_of_kind(EntityKind.PERSON):
            for at in (rand_point(rng, 1975, 2012) for _ in range(3)):
                assert gender_of(store, person, at) == oracle_gender_of(store, person, at)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_gender_tally_matches_oracle(self, rng):
        store = rand_network_store(rng)
        at = rand_point(rng, 1975, 2012)
        subdivisions = rng.random() < 0.5
        for scope in rng.sample(store.entities_of_kind(EntityKind.CORPORATE_BODY), 2):
            for role in ("student", "professor", "any", "advisor", "committee", "dissertant"):
                tally = gender_tally(store, scope, role, at, subdivisions)
                assert (list(tally.counts.items()), tally.unspecified) == \
                    oracle_gender_tally(store, scope, role, at, subdivisions)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_supervision_rate_matches_oracle(self, rng):
        store, window = _network_and_window(rng)
        for kind in ("any", "master", "phd"):
            rates = supervisor_gender_rate(store, window, kind)
            assert ([(g, e.supervisions, e.share) for g, e in rates.by_gender.items()],
                    rates.unspecified) == oracle_supervision_rate(store, window, kind)

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_supervision_matrix_matches_oracle(self, rng):
        store, window = _network_and_window(rng)
        for kind in ("any", "master", "phd"):
            matrix = supervision_gender_matrix(store, window, kind)
            assert matrix == oracle_supervision_matrix(store, window, kind)
            assert _key_order(matrix) == _key_order(_reference_matrix(store, window, kind))

    @settings(max_examples=50, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mobility_matches_oracle(self, rng):
        store, window = _network_and_window(rng)
        events = [
            (e.person, e.from_institution, e.to_institution, e.from_role, e.to_role,
             e.departure.last_day().toordinal(), e.arrival, e.gap_years)
            for e in mobility_events(store, window)
        ]
        assert events == oracle_mobility(store, window)


class TestPurity:
    def test_analytics_do_not_mutate_store(self, network, iri):
        before = export_quads(network)
        gender_tally(network, iri("body/ux"), "advisor", TimePoint(1998), True)
        supervisor_gender_rate(network, years(1990, 2010), "any")
        supervision_gender_matrix(network, years(1990, 2010), "any")
        interdisciplinary_works(network, years(1990, 2010))
        mobility_by_gender(network, years(1990, 2010))
        institution_cooperation(network, years(1990, 2010))
        assert export_quads(network) == before
