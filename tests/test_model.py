import copy
import dataclasses
import gc
import pickle
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph import model
from etdgraph.errors import InvalidDate, InvalidInterval, InvalidIri, InvalidLiteral
from etdgraph.model import (
    Datatype,
    Iri,
    Literal,
    ProvenanceTag,
    TemporalTriple,
    TimeInterval,
    TimePoint,
    Validity,
    _normalize_iri_chars,
    _normalize_iri_text,
    interval_contains,
    intervals_overlap,
    merge_if_coalescable,
)

from oracles import (
    interval_days,
    oracle_contains,
    oracle_mergeable,
    oracle_overlap,
    rand_interval,
    rand_point,
)


def iv(start=None, end=None):
    return TimeInterval(
        TimePoint.parse(start) if start else None,
        TimePoint.parse(end) if end else None,
    )


class TestTimePoint:
    def test_year_precision(self):
        t = TimePoint(1963)
        assert (t.year, t.month, t.day) == (1963, None, None)
        assert t.text() == "1963"

    def test_no_feb_30(self):
        with pytest.raises(InvalidDate) as err:
            TimePoint(2000, 2, 30)
        assert err.value.field == "day"

    def test_month_precision_fixture_date(self):
        t = TimePoint(2006, 9)
        assert t.first_day().isoformat() == "2006-09-01"
        assert t.last_day().isoformat() == "2006-09-30"

    def test_day_without_month(self):
        with pytest.raises(InvalidDate) as err:
            TimePoint(2000, None, 5)
        assert err.value.field == "day"

    def test_year_out_of_range(self):
        with pytest.raises(InvalidDate):
            TimePoint(0)
        with pytest.raises(InvalidDate):
            TimePoint(10000)

    def test_parse_round_trip(self):
        for text in ("1963", "2006-09", "1998-06-30"):
            assert TimePoint.parse(text).text() == text

    def test_parse_rejects_garbage(self):
        for text in ("196", "1963-13", "1963-00", "nineteen"):
            with pytest.raises(InvalidDate):
                TimePoint.parse(text)


class TestTimeInterval:
    def test_needs_one_bound(self):
        with pytest.raises(InvalidInterval):
            TimeInterval(None, None)

    def test_ordering_enforced(self):
        with pytest.raises(InvalidInterval):
            iv("2000", "1996")

    def test_instant(self):
        t = TimePoint(1990)
        assert TimeInterval.instant(t).is_instant

    def test_mixed_precision_bound_check_uses_day_ranges(self):
        # start 2000-12 is fine against an end of plain 2000
        TimeInterval(TimePoint(2000, 12), TimePoint(2000))


class TestContains:
    def test_strict_interior(self):
        assert interval_contains(iv("1996", "2000"), TimePoint(1998))

    def test_closed_end_bound(self):
        assert interval_contains(iv("1996", "2000"), TimePoint(2000))

    def test_before_open_start(self):
        assert not interval_contains(iv("2006", None), TimePoint(1963))

    def test_partial_year_excluded(self):
        # a probe at year precision needs the whole year inside
        assert not interval_contains(iv("1994-09", "1998-06"), TimePoint(1998))
        assert interval_contains(iv("1994-09", "1998-06"), TimePoint(1997))


class TestOverlap:
    def test_shared_endpoint_year(self):
        assert intervals_overlap(iv("1994", "1996"), iv("1996", "2000"))

    def test_disjoint(self):
        assert not intervals_overlap(iv("1963", "1963"), iv("2006", None))

    def test_unbounded_contains_all(self):
        assert intervals_overlap(iv(None, "2100"), iv("1900", "1900"))
        assert intervals_overlap(iv("1800", None), iv("1900", "1900"))


class TestMerge:
    def test_overlapping_union(self):
        assert merge_if_coalescable(iv("1994", "1996"), iv("1996", "2000")) == iv("1994", "2000")

    def test_adjacent_years(self):
        assert merge_if_coalescable(iv("1963", "1963"), iv("1964", "1964")) == iv("1963", "1964")

    def test_adjacent_days(self):
        assert merge_if_coalescable(
            iv("1999-12-31", "1999-12-31"), iv("2000-01-01", "2000-06")
        ) == iv("1999-12-31", "2000-06")

    def test_disjoint(self):
        assert merge_if_coalescable(iv("1963", "1963"), iv("1970", "1970")) is None

    def test_doubly_unbounded_union_not_representable(self):
        assert merge_if_coalescable(iv(None, "1996"), iv("1995", None)) is None

    def test_open_side_kept_in_union(self):
        merged = merge_if_coalescable(iv(None, "1996"), iv("1995", "2001"))
        assert merged == iv(None, "2001")

    def test_coarser_point_wins_a_shared_boundary_day(self):
        a, b = iv("2000", "2003"), iv("2000-01", "2005-12-31")
        assert merge_if_coalescable(a, b) == iv("2000", "2005-12-31")
        assert merge_if_coalescable(b, a) == iv("2000", "2005-12-31")
        c = iv("2001", "2005")
        assert merge_if_coalescable(b, c) == merge_if_coalescable(c, b) == iv("2000-01", "2005")


class TestIntervalProperties:
    """Seeded random checks against the day-set oracle."""

    def test_against_oracle(self):
        rng = random.Random(4221)
        for _ in range(300):
            a = rand_interval(rng)
            b = rand_interval(rng)
            t = rand_point(rng)
            assert interval_contains(a, t) == oracle_contains(a, t)
            assert intervals_overlap(a, b) == oracle_overlap(a, b)
            merged = merge_if_coalescable(a, b)
            assert (merged is not None) == oracle_mergeable(a, b)
            if merged is not None:
                # the union covers every day of a or b and nothing else
                assert interval_days(merged) == interval_days(a) | interval_days(b)

    def test_overlap_symmetric_reflexive(self):
        rng = random.Random(99)
        for _ in range(200):
            a, b = rand_interval(rng), rand_interval(rng)
            assert intervals_overlap(a, b) == intervals_overlap(b, a)
            assert intervals_overlap(a, a)

    def test_merge_commutes(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b = rand_interval(rng), rand_interval(rng)
            assert merge_if_coalescable(a, b) == merge_if_coalescable(b, a)

    def test_normalization_idempotent(self):
        rng = random.Random(13)
        for _ in range(200):
            t = rand_point(rng)
            assert t.first_day() == TimePoint(t.year, t.month, t.day).first_day()
            ivx = rand_interval(rng)
            assert (ivx.first_day(), ivx.last_day()) == (
                TimeInterval(ivx.start, ivx.end).first_day(),
                TimeInterval(ivx.start, ivx.end).last_day(),
            )


class TestValidity:
    def test_always_passes_everything(self):
        v = Validity()
        assert v.is_always
        assert v.contains(TimePoint(1500))
        assert v.overlaps(iv("1990", "1991"))
        assert not v.within(iv("1990", "1991"))

    def test_during(self):
        v = Validity.during(iv("1996", "2000"))
        assert v.contains(TimePoint(1998))
        assert not v.contains(TimePoint(2001))
        assert v.within(iv("1990", "2005"))


class TestIri:
    def test_percent_encoding_normalized_to_uppercase(self):
        assert Iri("http://x.org/a%2fb") == Iri("http://x.org/a%2Fb")

    def test_non_ascii_percent_encoded(self):
        assert Iri("http://x.org/café").value == "http://x.org/caf%C3%A9"

    def test_normalization_idempotent(self):
        once = Iri("http://x.org/café ding%2f".replace(" ding", ""))
        assert Iri(once.value) == once

    def test_rejects_whitespace_and_control(self):
        for bad in ("http://x.org/a b", "http://x.org/a\tb", "http://x.org/a\nb"):
            with pytest.raises(InvalidIri):
                Iri(bad)

    def test_rejects_non_http(self):
        for bad in ("ftp://x.org/a", "urn:isbn:123", "not an iri"):
            with pytest.raises(InvalidIri):
                Iri(bad)

    def test_rejects_malformed_escape(self):
        with pytest.raises(InvalidIri):
            Iri("http://x.org/a%zz")

    @pytest.mark.parametrize("ch", list('<>"{}|\\^`') + ["\udcff"])  # and a lone surrogate
    def test_rejects_characters_rfc_3987_excludes(self, ch):
        with pytest.raises(InvalidIri, match="not allowed in an IRI at offset 14"):
            Iri(f"http://x.org/a{ch}b")

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.characters(min_codepoint=0x21, max_codepoint=0x7E),
                st.sampled_from(["%", " ", "\t", "\n", "\x00", "\x1f", "\x7f",
                                 "\x80", "é", "€", "\U0001f600", "\udcff"]),
                st.tuples(
                    st.sampled_from("0123456789abcdefABCDEFgz"),
                    st.sampled_from("0123456789abcdefABCDEFgz"),
                ).map(lambda hh: "%" + "".join(hh)),
            ),
            max_size=12,
        ).map("".join)
    )
    def test_fast_path_agrees_with_the_character_loop(self, text):
        try:
            expected = _normalize_iri_chars(text)
        except InvalidIri as exc:
            with pytest.raises(InvalidIri) as raised:
                _normalize_iri_text(text)
            assert str(raised.value) == str(exc)
        else:
            assert _normalize_iri_text(text) == expected

    def test_equality_is_equivalence(self):
        a = Iri("http://x.org/a%2fb")
        b = Iri("http://x.org/a%2Fb")
        c = Iri("http://x.org/a%2FB".lower().replace("http", "http"))
        assert a == b
        assert hash(a) == hash(b)
        assert (a == c) == (b == c)


_iri_paths = st.lists(
    st.sampled_from(["a", "B", "/", "%2f", "%2F", "%c3%a9", "%C3%A9", "é", "€", "%e2%82%ac"]),
    max_size=4,
).map(lambda parts: "http://x.org/" + "".join(parts))


class TestInterning:
    @settings(max_examples=300, deadline=None)
    @given(_iri_paths, _iri_paths)
    def test_one_object_exactly_per_normalized_text(self, a, b):
        x, y = Iri(a), Iri(b)
        assert x.value == _normalize_iri_text(a) and y.value == _normalize_iri_text(b)
        assert (x is y) == (x.value == y.value)

    def test_equality_and_hash_are_identity(self):
        assert Iri.__hash__ is object.__hash__
        assert Iri.__eq__ is object.__eq__

    def test_pickle_and_copy_return_the_same_object(self):
        node = Iri("http://x.org/caf%C3%A9")
        assert pickle.loads(pickle.dumps(node)) is node
        assert copy.copy(node) is node and copy.deepcopy(node) is node
        assert repr(node) == "Iri(value='http://x.org/caf%C3%A9')"

    def test_immutable(self):
        node = Iri("http://x.org/a")
        with pytest.raises(dataclasses.FrozenInstanceError):
            node.value = "http://x.org/b"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del node.value
        assert node.value == "http://x.org/a"

    def test_threads_building_one_fresh_text_share_one_object(self):
        # non-ASCII texts take the slow normalization, widening any race
        texts = [f"http://x.org/race/é{i}" for i in range(2000)]
        start = threading.Barrier(4, timeout=10)
        results = [None] * 4

        def build(slot):
            start.wait()
            results[slot] = [Iri(t) for t in texts]

        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for objects in zip(*results):
            assert all(o is objects[0] for o in objects)

    def test_unreferenced_iris_leave_the_table(self):
        gc.collect()
        before = len(model._interned)
        kept = Iri("http://x.org/kept/é")
        for i in range(100):
            Iri(f"http://x.org/gone/{i}")
        gc.collect()
        assert len(model._interned) <= before + 1
        assert Iri("http://x.org/kept/%C3%A9") is kept


class TestValueIdentity:
    def test_escapes_of_either_case_are_one_iri(self):
        lower, upper = Iri("http://x/%2f"), Iri("http://x/%2F")
        assert lower == upper
        assert hash(lower) == hash(upper)
        assert len({lower, upper}) == 1

    def test_non_ascii_equals_its_percent_encoding(self):
        raw, encoded = Iri("http://x.org/café"), Iri("http://x.org/caf%C3%A9")
        assert raw == encoded and hash(raw) == hash(encoded)

    def test_iri_is_not_its_text_or_a_literal(self):
        node = Iri("http://x.org/a")
        assert node != "http://x.org/a" and "http://x.org/a" != node
        assert node != Literal("http://x.org/a")
        assert Literal("http://x.org/a") != node
        assert {node: 1}.get("http://x.org/a") is None

    def test_value_types_have_no_instance_dict(self):
        node = Iri("http://x.org/a")
        tag = ProvenanceTag("r1", node, TimePoint(2000))
        values = [
            node, TimePoint(2000, 1, 2), iv("1990", "2000"), Validity.during(iv("1990")),
            Literal("x", language="en"), tag,
            TemporalTriple(node, node, node, Validity(), tag),
        ]
        for value in values:
            assert not hasattr(value, "__dict__"), type(value).__name__

    def test_replace_flip_and_derived_equality(self):
        s, p, o = Iri("http://x.org/s"), Iri("http://x.org/p"), Iri("http://x.org/o")
        inverse = Iri("http://x.org/q")
        tag = ProvenanceTag("r1", s)
        triple = TemporalTriple(s, p, o, Validity(), tag)
        later = dataclasses.replace(triple, validity=Validity.during(iv("1990", "2000")))
        assert (later.subject, later.property, later.object, later.provenance) == (s, p, o, tag)
        assert later.validity == Validity.during(iv("1990", "2000")) and later != triple
        flipped = later.flipped(inverse)
        assert (flipped.subject, flipped.property, flipped.object) == (o, inverse, s)
        assert flipped.validity == later.validity and flipped.provenance is tag
        assert flipped.derived and not later.derived
        stored = TemporalTriple(o, inverse, s, later.validity, tag)
        assert flipped == stored and hash(flipped) == hash(stored)
        assert dataclasses.replace(flipped, derived=False) == flipped
        with pytest.raises(dataclasses.FrozenInstanceError):
            triple.subject = o
        with pytest.raises(InvalidLiteral):
            TemporalTriple(s, p, Literal("x"), Validity(), tag).flipped(inverse)


class TestLiteral:
    def test_year_literal(self):
        assert Literal("1963", Datatype.YEAR).lexical == "1963"
        with pytest.raises(InvalidLiteral):
            Literal("63", Datatype.YEAR)

    def test_integer_literal(self):
        Literal("-42", Datatype.INTEGER)
        with pytest.raises(InvalidLiteral):
            Literal("4.2", Datatype.INTEGER)

    def test_date_literal(self):
        Literal("1999-12-31", Datatype.DATE)
        with pytest.raises(InvalidLiteral):
            Literal("1999-02-30", Datatype.DATE)

    def test_language_only_on_strings(self):
        Literal("hello", Datatype.STRING, "en")
        with pytest.raises(InvalidLiteral):
            Literal("1963", Datatype.YEAR, "en")
        with pytest.raises(InvalidLiteral):
            Literal("hi", Datatype.STRING, "not a tag")
