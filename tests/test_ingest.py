import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import etdgraph

from etdgraph.errors import (
    DuplicateLocalId,
    IngestError,
    InvalidLocalId,
    MissingRequiredKey,
    NotFound,
    RecordSyntaxError,
    UnknownKey,
)
from etdgraph.fixture import fixture_text
from etdgraph.graphio import describe_entity, export_quads, serialize_description
from etdgraph.ingest import (
    mint_iri,
    parse_records,
    print_records,
    records_to_graph,
    resolve_entity,
)
from etdgraph.model import Datatype, Iri, Literal, TimePoint
from etdgraph.store import Pattern
from etdgraph.vocab import EntityKind

BASE = Iri("http://example.org/etd")

WORK_RECORD = """id w1
type work
title A Thesis
work-kind master
dissertant pA
study 1994..1996
advisor pB
grantor facE
"""

SMALL_BATCH = """id facE
type body
name Faculty E
body-kind faculty

id pA
type person
name Person A

id pB
type person
name Person B
"""


class TestParse:
    def test_empty_document(self):
        assert parse_records("") == []
        assert parse_records("\n\n\n") == []

    def test_work_record_fields(self):
        records = parse_records(WORK_RECORD)
        assert len(records) == 1
        r = records[0]
        assert r.local_id == "w1" and r.kind == "work"
        assert r.first("advisor").value == "pB"
        assert r.first("grantor").value == "facE"
        assert r.first("advisor").line == 7

    def test_unknown_key_reports_line(self):
        text = "id p1\ntype person\nname X\nfavourite-colour teal\n"
        with pytest.raises(UnknownKey) as err:
            parse_records(text)
        assert err.value.line == 4

    def test_missing_required_key(self):
        with pytest.raises(MissingRequiredKey):
            parse_records("id p1\ntype person\ngender male\n")

    def test_duplicate_local_id(self):
        text = "id p1\ntype person\nname A\n\nid p1\ntype person\nname B\n"
        with pytest.raises(DuplicateLocalId):
            parse_records(text)

    def test_same_id_different_kinds_allowed(self):
        text = "id x\ntype person\nname A\n\nid x\ntype body\nname B\nbody-kind other\n"
        assert len(parse_records(text)) == 2

    def test_malformed_line(self):
        with pytest.raises(RecordSyntaxError):
            parse_records("id p1\ntype person\nnamewithoutvalue\n")

    def test_header_must_come_first(self):
        with pytest.raises(RecordSyntaxError):
            parse_records("type person\nid p1\nname X\n")

    def test_non_repeatable_key(self):
        text = "id w1\ntype work\ntitle A\ntitle B\nwork-kind phd\ndissertant p\nstudy 2000..2001\ngrantor b\n"
        with pytest.raises(RecordSyntaxError):
            parse_records(text)

    def test_round_trip(self):
        records = parse_records(fixture_text())
        printed = print_records(records)
        again = parse_records(printed)
        assert [(r.local_id, r.kind, [(f.key, f.value) for f in r.fields]) for r in records] == [
            (r.local_id, r.kind, [(f.key, f.value) for f in r.fields]) for r in again
        ]
        # and printing is a fixpoint
        assert print_records(again) == printed


class TestMint:
    def test_simple(self):
        assert mint_iri(BASE, EntityKind.PERSON, "pA").value == (
            "http://example.org/etd/person/pA"
        )

    def test_percent_encoding(self):
        assert mint_iri(BASE, EntityKind.CORPORATE_BODY, "faculty B").value == (
            "http://example.org/etd/body/faculty%20B"
        )

    def test_deterministic(self):
        assert mint_iri(BASE, EntityKind.WORK, "w-1") == mint_iri(
            BASE, EntityKind.WORK, "w-1"
        )

    def test_empty_local_id(self):
        with pytest.raises(InvalidLocalId):
            mint_iri(BASE, EntityKind.PERSON, "   ")


class TestGraph:
    def test_fixture_census(self, network):
        assert len(network.entities_of_kind(EntityKind.CORPORATE_BODY)) == 5
        assert len(network.entities_of_kind(EntityKind.PERSON)) == 4
        works = network.entities_of_kind(EntityKind.WORK)
        assert [w.local_name() for w in works] == ["mas1", "phd-D", "phd1"]

    def test_established_year_literal(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("body/facB"),
                    property=network.vocab.expand("establishedIn"))
        )
        assert [h.object for h in hits] == [Literal("1963", Datatype.YEAR)]
        assert hits[0].validity.is_always

    def test_dangling_reference(self):
        text = SMALL_BATCH + "\n" + WORK_RECORD.replace("advisor pB", "advisor pZ")
        with pytest.raises(IngestError) as err:
            records_to_graph(parse_records(text), base=BASE)
        messages = [e.message for e in err.value.report.errors]
        assert any("pZ" in m for m in messages)

    def test_same_as_with_an_excluded_character_is_a_record_error(self):
        text = SMALL_BATCH + "same-as http://viaf.example.org/a>b\n"
        with pytest.raises(IngestError) as err:
            records_to_graph(parse_records(text), base=BASE)
        [issue] = err.value.report.errors
        assert issue.record_id == "pB" and "'>' not allowed in an IRI" in issue.message

    def test_all_or_nothing(self):
        text = SMALL_BATCH + "\n" + WORK_RECORD.replace("advisor pB", "advisor pZ")
        with pytest.raises(IngestError) as err:
            records_to_graph(parse_records(text), base=BASE)
        assert err.value.report.triples_emitted == 0

    def test_provenance_carries_record_and_authority(self):
        store, _ = records_to_graph(
            parse_records(SMALL_BATCH + "\n" + WORK_RECORD),
            base=BASE,
            authority="http://uni.example.edu/library",
            batch_date=TimePoint(2013, 1, 15),
        )
        hits = store.match(Pattern(property=store.vocab.expand("advisedBy")))
        tag = hits[0].provenance
        assert tag.source_record_id == "w1"
        assert tag.asserting_authority.value == "http://uni.example.edu/library"
        assert tag.asserted_at == TimePoint(2013, 1, 15)

    def test_membership_without_interval_fails(self):
        text = "id b1\ntype body\nname B\nbody-kind faculty\n\nid p1\ntype person\nname P\nstudent-of b1\n"
        with pytest.raises(IngestError):
            records_to_graph(parse_records(text), base=BASE)

    def test_study_validity_on_authorship(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("work/phd1"), property=network.vocab.expand("createdBy"))
        )
        assert hits[0].validity.text() == "[1996..2000]"

    def test_subdivision_emitted_from_parent(self, network, iri):
        hits = network.match(
            Pattern(subject=iri("body/schoolA"),
                    property=network.vocab.expand("hasSubdivision"))
        )
        assert [h.object for h in hits] == [iri("body/facB")]

    def test_university_grantor_warning(self):
        text = (
            "id u1\ntype body\nname U\nbody-kind university\n\n"
            "id f1\ntype body\nname F\nbody-kind faculty\nsubdivision-of u1@1980..\n\n"
            "id p1\ntype person\nname P\n\n"
            "id w1\ntype work\ntitle T\nwork-kind phd\ndissertant p1\nstudy 2000..2004\ngrantor u1\n"
        )
        _, report = records_to_graph(parse_records(text), base=BASE)
        assert any("subdivisions" in w for w in report.warnings)

    def test_no_warning_for_leaf_university(self, network):
        # phd-D is granted by uy, which has no subdivisions
        from etdgraph.fixture import fixture_store_with_report

        _, report = fixture_store_with_report()
        assert report.warnings == []

    def test_ingest_determinism(self):
        records = parse_records(fixture_text())
        a, _ = records_to_graph(records, base=BASE)
        b, _ = records_to_graph(parse_records(fixture_text()), base=BASE)
        assert export_quads(a) == export_quads(b)

    def test_order_independence(self):
        rng = random.Random(2024)
        blocks = fixture_text().strip().split("\n\n")
        baseline = None
        for _ in range(3):
            rng.shuffle(blocks)
            text = "\n\n".join(blocks) + "\n"
            store, _ = records_to_graph(parse_records(text), base=BASE)
            doc = export_quads(store)
            if baseline is None:
                baseline = doc
            assert doc == baseline


def _persons(*specs: tuple[str, str, str]) -> str:
    """Person records `(local id, gender, birth place)`."""
    return "\n".join(
        f"id {pid}\ntype person\nname {pid}\ngender {gender}\nbirth-place {place}\n"
        for pid, gender, place in specs
    )


class TestValueEntities:
    """Genders and places get one kind row and one label row per batch,
    sourced from their own path."""

    AUTHORITY = "http://uni.example.edu/library"

    def _rows(self, store, entity: Iri) -> dict:
        rows = {}
        for t in store.match(Pattern(subject=entity)):
            rows.setdefault(t.property.local_name(), []).append(t)
        return rows

    def test_many_mentions_mint_one_kind_and_one_label_row(self):
        text = _persons(("p1", "f", "pl1"), ("p2", "f", "pl1"), ("p3", "f@2001..", "pl1"),
                        ("p4", "m", "pl2"))
        date = TimePoint(2013, 1, 15)
        store, _ = records_to_graph(parse_records(text), base=BASE,
                                    authority=self.AUTHORITY, batch_date=date)
        for path, local_id in (("gender/f", "f"), ("place/pl1", "pl1")):
            entity = Iri(f"{BASE.value}/{path}")
            rows = self._rows(store, entity)
            assert sorted(rows) == ["kind", "label"]
            [kind], [label] = rows["kind"], rows["label"]
            assert label.object == Literal(local_id)
            for t in (kind, label):
                assert t.validity.is_always
                assert t.provenance.source_record_id == path
                assert t.provenance.asserting_authority.value == self.AUTHORITY
                assert t.provenance.asserted_at == date
        hits = store.match(Pattern(object=Iri(f"{BASE.value}/gender/f")))
        assert len(hits) == 3  # the mentions stay, one per person

    def test_into_mints_only_entities_the_store_lacks(self):
        first, _ = records_to_graph(parse_records(_persons(("p1", "f", "pl1"))), base=BASE,
                                    batch_date=TimePoint(2013))
        store, report = records_to_graph(
            parse_records(_persons(("p2", "f", "pl9"))), base=BASE,
            batch_date=TimePoint(2014), into=first,
        )
        gender = Iri(f"{BASE.value}/gender/f")
        assert self._rows(store, gender) == self._rows(first, gender)
        place = self._rows(store, Iri(f"{BASE.value}/place/pl9"))
        assert sorted(place) == ["kind", "label"]
        assert [t.provenance.source_record_id for t in place["kind"] + place["label"]] == [
            "place/pl9", "place/pl9"]
        # p2: kind, label, hasGender, birthPlace; pl9: kind, label
        assert report.triples_emitted == 6

    def test_fixture_gender_page_has_one_label_line(self, network, iri):
        page = serialize_description(network, describe_entity(network, iri("gender/female")))
        label = f"<{iri('gender/female')}> <{network.vocab.expand('label')}> "
        assert sum(line.startswith(label) for line in page.splitlines()) == 1


class TestResolve:
    def test_existing_person(self, network):
        assert resolve_entity(network, EntityKind.PERSON, "pA").local_name() == "pA"

    def test_labels_never_merge_entities(self):
        text = (
            "id athens-ga\ntype body\nname Athens\nbody-kind university\n\n"
            "id athens-gr\ntype body\nname Athens\nbody-kind university\n"
        )
        store, _ = records_to_graph(parse_records(text), base=BASE)
        a = resolve_entity(store, EntityKind.CORPORATE_BODY, "athens-ga")
        b = resolve_entity(store, EntityKind.CORPORATE_BODY, "athens-gr")
        assert a != b
        assert len(store.entities_of_kind(EntityKind.CORPORATE_BODY)) == 2

    def test_missing_entity(self, network):
        with pytest.raises(NotFound):
            resolve_entity(network, EntityKind.PERSON, "ghost")


def test_fixture_import_leaves_cli_and_http_unloaded():
    # a fresh interpreter, so modules other tests imported do not count
    src = str(Path(etdgraph.__file__).resolve().parent.parent)
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, etdgraph.fixture; "
         "print(sorted(m for m in ('etdgraph.cli', 'http.server') if m in sys.modules))"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert loaded.strip() == "[]"
