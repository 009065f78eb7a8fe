import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etdgraph.errors import DanglingContext, InvalidIri, NotFound, QuadParseError
from etdgraph.graphio import (
    _current_label_triple,
    _quad_text,
    describe_entity,
    escape_literal,
    export_dot,
    export_quads,
    import_quads,
    serialize_description,
)
from etdgraph.ingest import parse_records, records_to_graph
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
from etdgraph.store import Pattern, Store
from etdgraph.vocab import EntityKind

from oracles import AUTHORITY, rand_store

BASE = "http://example.org/etd"


def one_triple_store(validity=Validity()):
    store = Store(base_iri=BASE)
    v = store.vocab
    body = Iri(f"{BASE}/body/facB")
    store.insert(TemporalTriple(
        body, v.expand("kind"), v.class_iri(EntityKind.CORPORATE_BODY),
        validity, ProvenanceTag("facB", AUTHORITY)))
    return store, body


class TestExport:
    def test_minimal_store_line_shape(self):
        store, _ = one_triple_store()
        lines = export_quads(store).splitlines()
        data = [l for l in lines if "/ctx/" in l and l.count("<") == 4]
        meta = [l for l in lines if l.startswith(f"<{BASE}/ctx/")]
        assert len(data) == 1
        assert len(meta) == 2  # source + authority, no validity bounds for Always
        assert any("#source>" in l for l in meta)
        assert any("#authority>" in l for l in meta)

    def test_interval_bounds_serialized(self, network):
        doc = export_quads(network)
        from_lines = [l for l in doc.splitlines() if "#validFrom>" in l]
        to_lines = [l for l in doc.splitlines() if "#validTo>" in l]
        assert any('"1996"' in l for l in from_lines)
        assert any('"2000"' in l for l in to_lines)
        assert any('"1994-09"' in l for l in from_lines)  # month precision survives

    def test_escaping(self):
        assert escape_literal('a"b\\c\nd\te\r') == 'a\\"b\\\\c\\nd\\te\\r'

    def test_empty_store(self):
        assert export_quads(Store(base_iri=BASE)) == ""

    def test_year_literal_typed(self, network):
        doc = export_quads(network)
        assert '"1963"^^<http://www.w3.org/2001/XMLSchema#gYear>' in doc

    def test_lines_lf_terminated_no_trailing_whitespace(self, network):
        doc = export_quads(network)
        assert doc.endswith("\n")
        for line in doc.splitlines():
            assert line == line.rstrip()


class TestImport:
    def test_round_trip_fixture(self, network):
        doc = export_quads(network)
        again = import_quads(doc)
        assert set(again) == set(network)
        assert export_quads(again) == doc
        assert again.base_iri == network.base_iri

    def test_empty_document(self):
        store = import_quads("")
        assert len(store) == 0

    def test_dangling_context(self):
        store, _ = one_triple_store()
        doc = export_quads(store)
        data_only = "\n".join(
            l for l in doc.splitlines() if not l.startswith(f"<{BASE}/ctx/")
        ) + "\n"
        with pytest.raises(DanglingContext):
            import_quads(data_only)

    def test_unknown_metadata_key_rejected(self):
        store, _ = one_triple_store()
        doc = export_quads(store)
        ctx = re.search(r"<(\S+/ctx/\S+)>", doc).group(1)
        doc += f'<{ctx}> <http://example.org/etd/vocab#confidence> "0.5" .\n'
        with pytest.raises(QuadParseError):
            import_quads(doc)

    def test_parse_error_carries_line(self):
        with pytest.raises(QuadParseError) as err:
            import_quads("<http://a.org/x> <http://a.org/y>\n")
        assert err.value.line == 1

    def test_escaped_literals_survive(self):
        store = Store(base_iri=BASE)
        v = store.vocab
        p = Iri(f"{BASE}/person/p1")
        store.insert(TemporalTriple(
            p, v.expand("kind"), v.class_iri(EntityKind.PERSON),
            Validity(), ProvenanceTag("p1", AUTHORITY)))
        store.insert(TemporalTriple(
            p, v.expand("label"), Literal('say "hi"\tplease\n\\ok'),
            Validity(), ProvenanceTag("p1", AUTHORITY)))
        doc = export_quads(store)
        again = import_quads(doc)
        assert set(again) == set(store)

    def test_random_stores_round_trip(self):
        rng = random.Random(1212)
        for _ in range(8):
            store = rand_store(rng)
            doc = export_quads(store)
            assert export_quads(import_quads(doc)) == doc

    def test_per_mention_value_entity_rows_round_trip(self):
        # Earlier versions asserted a gender's kind and label once per
        # mentioning record; such files must still load and re-export as is.
        store = Store(base_iri=BASE)
        v = store.vocab
        male = Iri(f"{BASE}/gender/male")
        for i in range(5):
            person, tag = Iri(f"{BASE}/person/p{i}"), ProvenanceTag(f"p{i}", AUTHORITY)
            for s, p, o in ((person, "kind", v.class_iri(EntityKind.PERSON)),
                            (person, "hasGender", male),
                            (male, "kind", v.class_iri(EntityKind.GENDER)),
                            (male, "label", Literal("male"))):
                store.insert(TemporalTriple(s, v.expand(p), o, Validity(), tag))
        text = export_quads(store)
        again = import_quads(text)
        assert len(again.match(Pattern(subject=male, property=v.expand("label")))) == 5
        assert export_quads(again) == text

    def test_permutation_invariance(self):
        # same statements inserted in reverse order export identically
        rng = random.Random(88)
        store = rand_store(rng)
        clone = Store(store.vocab, store.base_iri)
        for t in reversed(store.sorted_triples()):
            clone.insert(t)
        assert export_quads(clone) == export_quads(store)


X = "<http://a.org/x> <http://a.org/y>"
CTX = "<http://a.org/c>"
VOCAB = "http://example.org/etd/vocab#"

# Malformed lines and the message import_quads reports for them.
BAD_LINES = [
    (f"{X} <http://a.org/z> {CTX}", "missing terminating '.'"),
    (f"{X} <http://a.org/z> {CTX}   ", "missing terminating '.'"),
    (f"{X} <http://a.org/z> {CTX} . x", "content after terminating '.'"),
    (f"{X} <http://a.org/z> {CTX} ..", "content after terminating '.'"),
    (f"{X} <http://a.org/z", "unterminated IRI"),
    (f'{X} "abc {CTX} .', "unterminated literal"),
    (f'{X} "a\\qb" {CTX} .', "bad escape in literal"),
    (f'{X} "ab\\', "bad escape in literal"),
    (f'{X} "z"^^<http://x.org/t .', "unterminated datatype IRI"),
    (f'{X} "z"^^<http://x.org/t> {CTX} .', "unsupported datatype <http://x.org/t>"),
    (f"{X} _:b {CTX} .", "unexpected character '_'"),
    (f'{X} "z" ^^<http://x.org/t> {CTX} .', "unexpected character '^'"),
    (f'{X} "z"@en^^<http://x.org/t> {CTX} .', "unexpected character '^'"),
    (f'{X} "z"@en_GB {CTX} .', "unexpected character '_'"),
    (f"<http://a.org/x>\r{X} {CTX} .", "unexpected character '\\r'"),
    (".", "expected 3 or 4 terms, got 0"),
    (f"{X} .", "expected 3 or 4 terms, got 2"),
    (f"{X} <http://a.org/z> {CTX} <http://a.org/d> .", "expected 3 or 4 terms, got 5"),
    (f'"c" <{VOCAB}source> "s" .', "context and key must be IRIs"),
    (f'{CTX} <{VOCAB}authority> "s" .', "authority must be an IRI"),
    (f'{CTX} <{VOCAB}when> "s" .', "unknown context metadata key 'when'"),
]


class TestParseErrors:
    @pytest.mark.parametrize("line,message", BAD_LINES)
    def test_message_and_line(self, line, message):
        doc = f'{CTX} <{VOCAB}source> "s" .\n\n{line}\n'
        with pytest.raises(QuadParseError) as err:
            import_quads(doc)
        assert err.value.line == 3
        assert str(err.value) == f"line 3: {message}"


def _with_line(doc: str, line: str) -> tuple[str, int]:
    """The document with one line appended, and that line's number."""
    return doc + line + "\n", len(doc.splitlines()) + 1


class TestImportRules:
    def doc_and_ctx(self):
        store, _ = one_triple_store()
        doc = export_quads(store)
        return doc, re.search(r"<(\S+/ctx/\S+)>", doc).group(1)

    @pytest.mark.parametrize("key", ["source", "validFrom", "validTo"])
    def test_metadata_value_must_be_a_literal(self, key):
        doc, lineno = _with_line("", f"{CTX} <{VOCAB}{key}> <http://x.org/y> .")
        with pytest.raises(QuadParseError) as err:
            import_quads(doc)
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {key} must be a literal"

    def test_conflicting_metadata_rejected(self):
        doc, ctx = self.doc_and_ctx()
        bad, lineno = _with_line(doc, f'<{ctx}> <{VOCAB}source> "other" .')
        with pytest.raises(QuadParseError) as err:
            import_quads(bad)
        assert err.value.line == lineno
        assert "source" in str(err.value)

    def test_identical_metadata_repeat_accepted(self):
        doc, ctx = self.doc_and_ctx()
        again, _ = _with_line(doc, f'<{ctx}> <{VOCAB}source> "facB" .')
        assert export_quads(import_quads(again)) == doc

    @pytest.mark.parametrize("line,message", [
        (f'{CTX} <{VOCAB}validFrom> "19x6" .',
         "point: cannot parse '19x6', expected YYYY[-MM[-DD]]"),
        (f"<x> <http://a.org/y> <http://a.org/z> {CTX} .",
         "not an absolute http(s) IRI: 'x'"),
        (f'{X} "z"@ {CTX} .', "bad language tag ''"),
        (f'{X} "z"^^<http://www.w3.org/2001/XMLSchema#gYear> {CTX} .',
         "not a 4-digit year literal: 'z'"),
    ])
    def test_value_errors_name_the_line(self, line, message):
        doc, lineno = _with_line(f'{CTX} <{VOCAB}source> "s" .\n', line)
        with pytest.raises(QuadParseError) as err:
            import_quads(doc)
        assert err.value.line == lineno
        assert str(err.value) == f"line {lineno}: {message}"

    def test_insert_errors_name_the_data_line(self):
        doc, ctx = self.doc_and_ctx()
        body = f"<{BASE}/body/facB>"
        bad, lineno = _with_line(doc, f'{body} <{VOCAB}kind> "person" <{ctx}> .')
        with pytest.raises(QuadParseError) as err:
            import_quads(bad)
        assert err.value.line == lineno

    def test_inverted_bounds_name_the_data_line(self):
        doc, lineno = _with_line(
            f'{CTX} <{VOCAB}validFrom> "2000" .\n'
            f'{CTX} <{VOCAB}validTo> "1990" .\n'
            f'{CTX} <{VOCAB}source> "s" .\n'
            f"{CTX} <{VOCAB}authority> <http://a.org/auth> .\n",
            f"<{BASE}/body/facB> <{VOCAB}label> \"B\" {CTX} .",
        )
        with pytest.raises(QuadParseError) as err:
            import_quads(doc)
        assert err.value.line == lineno

    def test_dangling_context_keeps_its_message(self):
        doc, lineno = _with_line("", f"{X} <http://a.org/z> {CTX} .")
        with pytest.raises(DanglingContext) as err:
            import_quads(doc)
        assert str(err.value) == f"line {lineno}: context {CTX} has no complete metadata"


_years = st.integers(1, 9999)
_points = st.one_of(
    st.builds(TimePoint, _years),
    st.builds(TimePoint, _years, st.integers(1, 12)),
    st.builds(TimePoint, _years, st.integers(1, 12), st.integers(1, 28)),
)


def _validity(bounds):
    start, end = bounds
    if start is None and end is None:
        return Validity()
    if start is not None and end is not None and start.first_day() > end.last_day():
        start, end = end, start
    return Validity.during(TimeInterval(start, end))


_validities = st.tuples(st.one_of(st.none(), _points), st.one_of(st.none(), _points)).map(_validity)
_labels = st.builds(
    Literal, st.text(), st.just(Datatype.STRING),
    st.one_of(st.none(), st.from_regex(r"[A-Za-z]{1,8}(-[A-Za-z0-9]{1,8}){0,2}", fullmatch=True)),
)
_sources = st.text(min_size=1).filter(str.strip)


def _iri_or_none(text):
    try:
        return Iri(text)
    except InvalidIri:
        return None


# any IRI the model accepts (lone surrogates cannot be written as UTF-8)
_authorities = st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=12,
).map(lambda path: _iri_or_none(f"http://auth.example.org/{path}")).filter(lambda i: i is not None)


class TestRoundTripProperty:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_labels, _sources, _authorities, _validities),
                    min_size=1, max_size=6))
    def test_export_import_is_identity(self, rows):
        store = Store(base_iri=BASE)
        v = store.vocab
        person = Iri(f"{BASE}/person/p1")
        for label, source, authority, validity in rows:
            provenance = ProvenanceTag(source, authority)
            store.insert(TemporalTriple(person, v.expand("kind"), v.class_iri(EntityKind.PERSON),
                                        Validity(), provenance))
            store.insert(TemporalTriple(person, v.expand("label"), label, validity, provenance))
        doc = export_quads(store)
        assert export_quads(import_quads(doc)) == doc


DOT_NODE = re.compile(r'^  (\w+) \[shape=(\w+), label="(?:[^"\\]|\\.)*"\];$')
DOT_EDGE = re.compile(r'^  (\w+) -> (\w+) \[label="(?:[^"\\]|\\.)*"\];$')


def check_dot_syntax(text: str):
    lines = text.splitlines()
    assert lines[0] == "digraph etd {"
    assert lines[-1] == "}"
    nodes = set()
    for line in lines[1:-1]:
        m = DOT_NODE.match(line)
        if m:
            nodes.add(m.group(1))
            continue
        m = DOT_EDGE.match(line)
        assert m, f"unparseable DOT line: {line!r}"
        assert m.group(1) in nodes and m.group(2) in nodes
    return nodes


class TestDot:
    def test_fixture_contains_study_edge(self, network):
        dot = export_dot(network)
        assert '  pA -> facB [label="isStudentOf [1996..2000]"];' in dot

    def test_shapes_by_kind(self, network):
        dot = export_dot(network)
        assert '  pA [shape=ellipse, label="Person A"];' in dot
        assert '  facB [shape=box, label="Faculty B"];' in dot
        assert '  phd1 [shape=note, label="Entity Linking for Scholarly Repositories"];' in dot
        assert '  male [shape=diamond, label="male"];' in dot

    def test_empty_store(self):
        dot = export_dot(Store(base_iri=BASE))
        assert dot == "digraph etd {\n}\n"
        check_dot_syntax(dot)

    def test_syntax_valid(self, network):
        check_dot_syntax(export_dot(network))

    def test_focus_neighborhood(self, network, iri):
        dot = export_dot(network, focus=iri("person/pA"), radius=1)
        nodes = check_dot_syntax(dot)
        # direct neighbors only: bodies pA studied/worked at, works, gender
        assert "pA" in nodes and "facB" in nodes and "uy" in nodes
        assert "schoolA" not in nodes  # two hops away
        wider = check_dot_syntax(export_dot(network, focus=iri("person/pA"), radius=2))
        assert "schoolA" in wider

    def test_focus_not_found(self, network, iri):
        with pytest.raises(NotFound):
            export_dot(network, focus=iri("person/ghost"), radius=1)

    def test_radius_must_be_positive(self, network, iri):
        with pytest.raises(ValueError):
            export_dot(network, focus=iri("person/pA"), radius=0)


class TestDescribe:
    def test_fixture_person(self, network, iri):
        doc = describe_entity(network, iri("person/pA"))
        facts = {
            (t.property.local_name(), t.object if isinstance(t.object, Iri) else None)
            for t in doc.triples
        }
        assert ("hasGender", iri("gender/male")) in facts
        assert ("isProfessorAt", iri("body/uy")) in facts

    def test_includes_inverse_derived(self, network, iri):
        doc = describe_entity(network, iri("person/pA"))
        derived = [t for t in doc.triples if t.derived]
        assert any(
            t.property.local_name() == "created" and t.object == iri("work/phd1")
            for t in derived
        )

    def test_neighbor_labels(self, network, iri):
        doc = describe_entity(network, iri("person/pA"))
        assert doc.neighbor_labels[iri("body/uy")] == "University Y"

    def test_isolated_entity(self):
        text = "id lone\ntype person\nname Lone\n"
        store, _ = records_to_graph(parse_records(text), base=BASE)
        doc = describe_entity(store, Iri(f"{BASE}/person/lone"))
        props = sorted(t.property.local_name() for t in doc.triples)
        assert props == ["kind", "label"]

    def test_not_found(self, network, iri):
        with pytest.raises(NotFound):
            describe_entity(network, iri("person/ghost"))

    def test_serialization_is_subset_of_export(self, network, iri):
        export_lines = set(export_quads(network).splitlines())
        for entity in ("person/pA", "body/facB", "work/mas1", "gender/female"):
            doc = describe_entity(network, iri(entity))
            for line in serialize_description(network, doc).splitlines():
                assert line in export_lines

    def test_serialization_matches_the_set_reference(self, network):
        def reference(store, doc):  # the expression before the set was dropped
            selected = {t for t in doc.triples if not t.derived}
            selected.update(doc.label_triples)
            return _quad_text(store, sorted(selected, key=triple_sort_key))

        rng = random.Random(19)
        for store in [network] + [rand_store(rng) for _ in range(4)]:
            for kind in EntityKind:
                for entity in store.entities_of_kind(kind):
                    doc = describe_entity(store, entity)
                    assert serialize_description(store, doc) == reference(store, doc)

    def test_descriptions_cover_every_statement(self, network):
        export_lines = set(export_quads(network).splitlines())
        data_lines = {l for l in export_lines if l.count("<") == 4 and "/ctx/" in l}
        covered = set()
        for kind in EntityKind:
            for entity in network.entities_of_kind(kind):
                doc = describe_entity(network, entity)
                covered.update(serialize_description(network, doc).splitlines())
        assert data_lines <= covered



def _label_rank(t):
    """The documented rule: open-ended or unqualified beats closed, a later
    start beats an earlier one, then the smaller text."""
    iv = t.validity.interval
    open_ended = iv is None or iv.end is None
    start = iv.start.first_day().toordinal() if iv is not None and iv.start else 0
    return (-int(open_ended), -start, t.object.lexical)


# few years, two precisions: same-start ties between open and closed rows
_label_points = st.builds(
    TimePoint, st.integers(1990, 1992), st.one_of(st.none(), st.just(1))
)
_label_validities = st.one_of(
    st.just(Validity()),
    st.tuples(st.one_of(st.none(), _label_points), st.one_of(st.none(), _label_points)).map(_validity),
)
_label_rows = st.tuples(
    st.builds(Literal, st.text("ab", max_size=2), st.just(Datatype.STRING),
              st.sampled_from([None, "en", "fr"])),
    _label_validities,
    st.builds(ProvenanceTag, st.sampled_from(["r1", "r2", "r3"]),
              st.sampled_from([AUTHORITY, Iri("http://other.example.org/auth")])),
)


class TestLabelPick:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_label_rows, min_size=1, max_size=8))
    def test_pick_is_the_min_rank_of_the_sorted_group(self, rows):
        store = Store(base_iri=BASE)
        entity = Iri(f"{BASE}/person/p1")
        label = store.vocab.expand("label")
        for text, validity, provenance in rows:
            store.insert(TemporalTriple(entity, label, text, validity, provenance))
        expected = min(store.match(Pattern(subject=entity, property=label)), key=_label_rank)
        assert _current_label_triple(store, entity) is expected

class TestInvariants:
    def test_every_context_has_complete_metadata(self, network):
        lines = export_quads(network).splitlines()
        data_ctx = {
            l.rsplit("<", 1)[1].rstrip("> .")
            for l in lines
            if l.count("<") == 4
        }
        for ctx in data_ctx:
            assert any(l.startswith(f"<{ctx}>") and "#source>" in l for l in lines)
            assert any(l.startswith(f"<{ctx}>") and "#authority>" in l for l in lines)

    def test_descriptions_are_self_contained(self, network):
        for kind in EntityKind:
            for entity in network.entities_of_kind(kind):
                doc = describe_entity(network, entity)
                for t in doc.triples:
                    if t.derived:
                        continue
                    for endpoint in (t.subject, t.object):
                        if isinstance(endpoint, Iri) and endpoint != entity:
                            assert endpoint in doc.neighbor_labels
