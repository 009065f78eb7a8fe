import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from etdgraph.errors import QueryParseError, UnboundSelectVariable, UnknownProperty
from etdgraph.model import Iri, TimePoint
from etdgraph.query import (
    AtSpec,
    CurieRef,
    PathRef,
    QueryAst,
    RangeSpec,
    Var,
    eval_query,
    parse_query,
    print_query,
)
from etdgraph.store import Store

from oracles import oracle_join, rand_store

BASE = "http://example.org/etd"


class TestParse:
    def test_single_clause_with_point(self):
        ast = parse_query("SELECT ?p WHERE { ?p etd:isProfessorAt body/uy @2009 . }")
        assert ast.select == ("p",)
        assert len(ast.clauses) == 1
        clause = ast.clauses[0]
        assert clause.subject == Var("p")
        assert clause.property == CurieRef("etd:isProfessorAt")
        assert clause.object == PathRef("body/uy")
        assert clause.time == AtSpec(TimePoint(2009))

    def test_interval_spec(self):
        ast = parse_query("SELECT ?x WHERE { ?x etd:createdBy ?y @[1996..2000] . }")
        assert ast.clauses[0].time == RangeSpec(TimePoint(1996), TimePoint(2000))
        half = parse_query("SELECT ?x WHERE { ?x etd:createdBy ?y @[..2000] . }")
        assert half.clauses[0].time == RangeSpec(None, TimePoint(2000))

    def test_empty_clause_block(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT ?x WHERE { }")

    def test_error_carries_position(self):
        with pytest.raises(QueryParseError) as err:
            parse_query("SELECT ?x WHERE {\n  ?x ?y . }")
        assert err.value.line == 2

    def test_missing_dot(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT ?x WHERE { ?x etd:label ?y }")

    def test_no_select_variables(self):
        with pytest.raises(QueryParseError):
            parse_query("SELECT WHERE { ?x etd:label ?y . }")

    def test_iri_and_literal_terms(self):
        ast = parse_query(
            'SELECT ?b WHERE { ?b etd:label "Faculty B" . '
            "?b etd:isSubdivisionOf <http://example.org/etd/body/schoolA> . }"
        )
        assert ast.clauses[0].object.lexical == "Faculty B"
        assert ast.clauses[1].object.iri == Iri(f"{BASE}/body/schoolA")

    def test_round_trip_is_identity_on_ast(self):
        queries = [
            "SELECT ?p WHERE { ?p etd:isProfessorAt body/uy @2009 . }",
            'SELECT ?w ?a WHERE { ?w etd:advisedBy ?a . ?w etd:workKind "phd" . }',
            "SELECT ?x WHERE { ?x etd:createdBy ?y @[1996..] . }",
            'SELECT ?b WHERE { ?b etd:label "quo\\"te" . }',
        ]
        for q in queries:
            ast = parse_query(q)
            assert parse_query(print_query(ast)) == ast


class TestEval:
    def test_fixture_advised_by(self, network, iri):
        table = eval_query(network, parse_query(
            "SELECT ?w WHERE { ?w etd:advisedBy person/pC . }"
        ))
        assert table.rows == [(iri("work/phd1"),)]

    def test_empty_store(self):
        table = eval_query(Store(base_iri=BASE), parse_query(
            "SELECT ?s WHERE { ?s etd:label ?l . }"
        ))
        assert table.rows == []

    def test_three_clause_join(self, network, iri):
        # female advisors of works granted inside University X's subtree
        table = eval_query(network, parse_query(
            "SELECT ?a ?w WHERE { "
            "?w etd:advisedBy ?a . "
            "?a etd:hasGender gender/female . "
            "?w etd:degreeGrantedBy ?g . }"
        ))
        assert (iri("person/pB"), iri("work/mas1")) in table.rows
        assert (iri("person/pC"), iri("work/phd1")) in table.rows
        assert len(table.rows) == 2

    def test_inverse_inference_in_queries(self, network, iri):
        table = eval_query(network, parse_query(
            "SELECT ?x WHERE { body/facB etd:isSubdivisionOf ?x . }"
        ))
        assert table.rows == [(iri("body/schoolA"),)]

    def test_time_constraint(self, network, iri):
        at_1998 = eval_query(network, parse_query(
            "SELECT ?b WHERE { person/pA etd:isStudentOf ?b @1998 . }"
        ))
        assert at_1998.rows == [(iri("body/facB"),)]
        overlapping = eval_query(network, parse_query(
            "SELECT ?b WHERE { person/pA etd:isStudentOf ?b @[1995..1996] . }"
        ))
        assert overlapping.rows == [(iri("body/facB"),), (iri("body/facE"),)]

    def test_literal_coercion_by_property_range(self, network, iri):
        table = eval_query(network, parse_query(
            'SELECT ?b WHERE { ?b etd:establishedIn "1963" . }'
        ))
        assert table.rows == [(iri("body/facB"),)]
        # bare number works the same way
        table2 = eval_query(network, parse_query(
            "SELECT ?b WHERE { ?b etd:establishedIn 1963 . }"
        ))
        assert table2.rows == table.rows

    def test_unknown_property(self, network):
        with pytest.raises(UnknownProperty):
            eval_query(network, parse_query("SELECT ?x WHERE { ?x etd:nonsense ?y . }"))

    def test_unbound_select_variable(self, network):
        with pytest.raises(UnboundSelectVariable):
            eval_query(network, parse_query("SELECT ?z WHERE { ?x etd:label ?y . }"))

    def test_rows_deduplicated_and_sorted(self, network):
        table = eval_query(network, parse_query(
            "SELECT ?g WHERE { ?p etd:hasGender ?g . }"
        ))
        texts = [row[0].value for row in table.rows]
        assert texts == sorted(set(texts))

    def test_table_text_format(self, network, iri):
        table = eval_query(network, parse_query(
            "SELECT ?w WHERE { ?w etd:advisedBy person/pC . }"
        ))
        assert table.to_text() == "?w\n" + iri("work/phd1").value + "\n"


class TestAgainstBruteForce:
    def _random_query(self, rng, store):
        triples = [t for t in store if isinstance(t.object, Iri)]
        if not triples:
            return None
        n_clauses = rng.randint(1, 3)
        lines = []
        shared = f"?v0"
        for i in range(n_clauses):
            seed = rng.choice(triples)
            prop = f"<{seed.property}>"
            subject = shared if i > 0 and rng.random() < 0.6 else f"?s{i}"
            if rng.random() < 0.4:
                obj = f"<{seed.object}>"
            elif rng.random() < 0.5:
                obj = shared
            else:
                obj = f"?o{i}"
            time = ""
            if rng.random() < 0.4:
                year = rng.randint(1970, 2019)
                time = f" @{year}" if rng.random() < 0.5 else f" @[{year}..{year + 4}]"
            lines.append(f"{subject} {prop} {obj}{time} .")
        text = "SELECT ?v0 WHERE { " + " ".join(lines) + " }"
        ast = parse_query(text)
        bound = {
            t.name
            for c in ast.clauses
            for t in (c.subject, c.property, c.object)
            if isinstance(t, Var)
        }
        if "v0" not in bound:
            return None
        return ast

    def test_small_random_queries(self):
        rng = random.Random(31337)
        checked = 0
        while checked < 25:
            store = rand_store(rng, n_people=4, n_bodies=3, n_works=3)
            ast = self._random_query(rng, store)
            if ast is None:
                continue
            expected = oracle_join(store, ast)
            got = set(eval_query(store, ast).rows)
            assert got == expected
            checked += 1

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_clause_order_gives_the_oracle_table(self, rng):
        store = rand_store(rng, n_people=4, n_bodies=3, n_works=3)
        ast = self._random_query(rng, store)
        assume(ast is not None)
        names = {
            t.name
            for c in ast.clauses
            for t in (c.subject, c.property, c.object)
            if isinstance(t, Var)
        }
        ast = QueryAst(tuple(sorted(names)), ast.clauses)
        expected = eval_query(store, ast)
        assert set(expected.rows) == oracle_join(store, ast)
        for clauses in itertools.permutations(ast.clauses):
            assert eval_query(store, QueryAst(ast.select, clauses)) == expected


class TestPlan:
    # works advised by professors of the subdivisions of School A, written
    # in the order that is slow to run as written
    REVERSED_JOIN = (
        "?w etd:advisedBy ?a .",
        "?a etd:isProfessorAt ?b .",
        "?b etd:isSubdivisionOf body/schoolA .",
    )

    def test_reversed_join_starts_from_the_constant(self, network, iri, monkeypatch):
        probes = []
        probe = Store._match

        def counting(store, *terms):
            probes.append(terms)
            return probe(store, *terms)

        monkeypatch.setattr(Store, "_match", counting)
        tables, counts = [], []
        for clauses in (self.REVERSED_JOIN, self.REVERSED_JOIN[::-1]):
            probes.clear()
            tables.append(eval_query(network, parse_query(
                "SELECT ?w ?a ?b WHERE { " + " ".join(clauses) + " }"
            )))
            counts.append(len(probes))
            subject, prop, obj = probes[0][:3]
            assert (subject, prop, obj) == (
                None, network.vocab.expand("isSubdivisionOf"), iri("body/schoolA")
            )
        assert tables[0] == tables[1]
        assert tables[0].rows == [(iri("work/phd1"), iri("person/pC"), iri("body/facB"))]
        # one probe per clause: School A, then Faculty B, then Person C
        assert counts == [3, 3]
