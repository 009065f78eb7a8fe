"""Small temporal triple-pattern query language.

Grammar::

    query   := 'SELECT' var+ 'WHERE' '{' clause+ '}'
    clause  := term term term ('@' timespec)? '.'
    term    := var | curie | '<' iri '>' | path | string | number
    var     := '?' [A-Za-z][A-Za-z0-9_]*
    timespec:= point | '[' point? '..' point? ']'
    point   := YYYY[-MM[-DD]]

Curies (``etd:advisedBy``) resolve against the store vocabulary; bare
paths (``person/pA``) resolve against the store base IRI. A point
constraint keeps statements whose validity contains the point, an
interval constraint keeps statements whose validity overlaps it.
Evaluation is a conjunctive join with inverse inference enabled.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import QueryParseError, UnboundSelectVariable
from .model import Datatype, Iri, Literal, TimeInterval, TimePoint, object_sort_text
from .store import At, Overlaps, Store

# -- AST ---------------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    name: str  # without the leading '?'


@dataclass(frozen=True)
class CurieRef:
    curie: str


@dataclass(frozen=True)
class IriRef:
    iri: Iri


@dataclass(frozen=True)
class PathRef:
    path: str  # resolved against the store base IRI at evaluation time


@dataclass(frozen=True)
class LiteralTerm:
    lexical: str
    datatype: Datatype | None = None  # None: coerce from the property range
    language: str | None = None


Term = Var | CurieRef | IriRef | PathRef | LiteralTerm


@dataclass(frozen=True)
class AtSpec:
    point: TimePoint


@dataclass(frozen=True)
class RangeSpec:
    start: TimePoint | None
    end: TimePoint | None


@dataclass(frozen=True)
class Clause:
    subject: Term
    property: Term
    object: Term
    time: AtSpec | RangeSpec | None = None


@dataclass(frozen=True)
class QueryAst:
    select: tuple[str, ...]
    clauses: tuple[Clause, ...]


@dataclass
class ResultTable:
    columns: tuple[str, ...]
    rows: list[tuple]

    def to_text(self) -> str:
        lines = ["\t".join("?" + c for c in self.columns)]
        for row in self.rows:
            lines.append("\t".join(_cell_text(v) for v in row))
        return "\n".join(lines) + "\n"


def _cell_text(value) -> str:
    if isinstance(value, Iri):
        return value.value
    if value.language:
        return f'"{value.lexical}"@{value.language}'
    if value.datatype is Datatype.STRING:
        return value.lexical
    return f'"{value.lexical}"^^{value.datatype.value}'


# -- lexer -------------------------------------------------------------------

_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<string>"(?:[^"\\]|\\.)*")
  | (?P<var>\?[A-Za-z][A-Za-z0-9_]*)
  | (?P<iriref><[^<>\s]*>)
  | (?P<point>\d{4}-\d{2}(-\d{2})?)
  | (?P<number>\d+)
  | (?P<curie>[A-Za-z][A-Za-z0-9_-]*:[A-Za-z][A-Za-z0-9_-]*)
  | (?P<word>[A-Za-z][A-Za-z0-9_/%-]*(?:\.[A-Za-z0-9_/%-]+)*)
  | (?P<dotdot>\.\.)
  | (?P<punct>[{}\[\]@.])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"SELECT", "WHERE"}


@dataclass(frozen=True)
class _Tok:
    kind: str
    text: str
    line: int
    col: int


def _lex(text: str) -> list[_Tok]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise QueryParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group(0)
        if kind != "ws":
            if kind == "word" and chunk in _KEYWORDS:
                kind = "keyword"
            tokens.append(_Tok(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Tok("eof", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self) -> _Tok:
        return self.tokens[self.pos]

    def advance(self) -> _Tok:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, *expected: str):
        tok = self.peek()
        raise QueryParseError(message, tok.line, tok.col, expected)

    def expect_text(self, text: str) -> _Tok:
        tok = self.peek()
        if tok.text != text:
            self.fail(f"got {tok.text!r}", repr(text))
        return self.advance()

    def parse(self) -> QueryAst:
        tok = self.peek()
        if not (tok.kind == "keyword" and tok.text == "SELECT"):
            self.fail(f"got {tok.text!r}", "'SELECT'")
        self.advance()
        select = []
        while self.peek().kind == "var":
            select.append(self.advance().text[1:])
        if not select:
            self.fail("SELECT needs at least one variable", "variable")
        tok = self.peek()
        if not (tok.kind == "keyword" and tok.text == "WHERE"):
            self.fail(f"got {tok.text!r}", "'WHERE'")
        self.advance()
        self.expect_text("{")
        clauses = []
        while self.peek().text != "}":
            if self.peek().kind == "eof":
                self.fail("unterminated clause block", "'}'")
            clauses.append(self.parse_clause())
        if not clauses:
            self.fail("empty clause block", "clause")
        self.advance()  # }
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(f"trailing input {tok.text!r}", "end of query")
        return QueryAst(tuple(select), tuple(clauses))

    def parse_clause(self) -> Clause:
        s = self.parse_term()
        p = self.parse_term()
        o = self.parse_term()
        time = None
        if self.peek().text == "@":
            self.advance()
            time = self.parse_timespec()
        self.expect_text(".")
        return Clause(s, p, o, time)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok.kind == "var":
            self.advance()
            return Var(tok.text[1:])
        if tok.kind == "curie":
            self.advance()
            return CurieRef(tok.text)
        if tok.kind == "iriref":
            self.advance()
            return IriRef(Iri(tok.text[1:-1]))
        if tok.kind == "string":
            self.advance()
            lexical = re.sub(r"\\(.)", r"\1", tok.text[1:-1])
            return LiteralTerm(lexical)
        if tok.kind in ("number", "point"):
            self.advance()
            return LiteralTerm(tok.text, None, None)
        if tok.kind == "word":
            self.advance()
            return PathRef(tok.text)
        self.fail(f"got {tok.text!r}", "term")

    def parse_timespec(self) -> AtSpec | RangeSpec:
        tok = self.peek()
        if tok.text == "[":
            self.advance()
            start = None
            if self.peek().kind in ("number", "point"):
                start = TimePoint.parse(self.advance().text)
            self.expect_text("..")
            end = None
            if self.peek().kind in ("number", "point"):
                end = TimePoint.parse(self.advance().text)
            self.expect_text("]")
            if start is None and end is None:
                self.fail("interval needs at least one bound", "point")
            return RangeSpec(start, end)
        if tok.kind in ("number", "point"):
            self.advance()
            return AtSpec(TimePoint.parse(tok.text))
        self.fail(f"got {tok.text!r}", "point", "'['")


def parse_query(text: str) -> QueryAst:
    return _Parser(text).parse()


def print_query(ast: QueryAst) -> str:
    """Canonical text form; parse(print_query(parse(q))) == parse(q)."""
    parts = ["SELECT " + " ".join("?" + v for v in ast.select) + " WHERE {"]
    for c in ast.clauses:
        terms = " ".join(_term_text(t) for t in (c.subject, c.property, c.object))
        if c.time is None:
            parts.append(f"  {terms} .")
        else:
            parts.append(f"  {terms} @{_timespec_text(c.time)} .")
    parts.append("}")
    return "\n".join(parts) + "\n"


def _term_text(term: Term) -> str:
    if isinstance(term, Var):
        return "?" + term.name
    if isinstance(term, CurieRef):
        return term.curie
    if isinstance(term, IriRef):
        return f"<{term.iri}>"
    if isinstance(term, PathRef):
        return term.path
    escaped = term.lexical.replace("\\", "\\\\").replace('"', '\\"')
    return f'"{escaped}"'


def _timespec_text(spec: AtSpec | RangeSpec) -> str:
    if isinstance(spec, AtSpec):
        return spec.point.text()
    left = spec.start.text() if spec.start else ""
    right = spec.end.text() if spec.end else ""
    return f"[{left}..{right}]"


# -- evaluation ---------------------------------------------------------------


def _resolve_term(term: Term, store: Store, pdef) -> Iri | Literal | None:
    """Concrete value for a term, or None for a variable."""
    if isinstance(term, Var):
        return None
    if isinstance(term, CurieRef):
        return store.vocab.resolve_curie(term.curie)
    if isinstance(term, IriRef):
        return term.iri
    if isinstance(term, PathRef):
        return Iri(f"{store.base_iri.value.rstrip('/')}/{term.path}")
    datatype = term.datatype
    if datatype is None:
        # coerce to the property's range datatype when it is known
        if pdef is not None and isinstance(pdef.range_kind, Datatype):
            datatype = pdef.range_kind
        else:
            datatype = Datatype.STRING
    return Literal(term.lexical, datatype, term.language)


def _constraint(spec: AtSpec | RangeSpec | None):
    if spec is None:
        return None
    if isinstance(spec, AtSpec):
        return At(spec.point)
    return Overlaps(TimeInterval(spec.start, spec.end))


@dataclass(frozen=True)
class _Step:
    """A clause with its constant terms resolved once: per position
    (subject, property, object) a constant or a variable name."""

    terms: tuple[Iri | Literal | None, ...]
    names: tuple[str | None, ...]
    time: At | Overlaps | None
    pool: int  # rows one probe with the constants alone scans

    def cost(self, bound: set[str]) -> tuple[int, int]:
        """Clauses anchored at an entity come before scans, each group
        smallest pool first. A subject or object variable an earlier step
        bound anchors a clause and narrows each probe to one value."""
        subject, _, obj = self.names
        if subject in bound or obj in bound:
            return 0, min(self.pool, 1)
        anchored = self.terms[0] is not None or self.terms[2] is not None
        return (0 if anchored else 1), self.pool


def _step(store: Store, clause: Clause) -> _Step:
    p = _resolve_term(clause.property, store, None)
    pdef = None if p is None else store.vocab.lookup_id(p)
    terms = (
        _resolve_term(clause.subject, store, None),
        p,
        _resolve_term(clause.object, store, pdef),
    )
    names = tuple(
        t.name if isinstance(t, Var) else None
        for t in (clause.subject, clause.property, clause.object)
    )
    return _Step(terms, names, _constraint(clause.time), store._probe_size(*terms))


def eval_query(store: Store, ast: QueryAst) -> ResultTable:
    """Conjunctive join over the clauses with inverse inference enabled.

    Clauses run cheapest first, so the cost does not depend on the order
    they are written in. Before each step the planner takes the clause
    whose subject or object is a constant or a variable an earlier step
    bound, with the smallest index pool; a clause with neither is a scan
    and waits. Ties go to the clause written first. This is the greedy
    selectivity heuristic of RDF-3X, over the store's s/p/o indexes.
    """
    clause_vars = {
        t.name
        for c in ast.clauses
        for t in (c.subject, c.property, c.object)
        if isinstance(t, Var)
    }
    for name in ast.select:
        if name not in clause_vars:
            raise UnboundSelectVariable(f"?{name} does not appear in any clause")

    steps = [_step(store, clause) for clause in ast.clauses]
    bindings: list[dict[str, Iri | Literal]] = [{}]
    bound: set[str] = set()
    while steps and bindings:
        step = steps.pop(min(range(len(steps)), key=lambda i: steps[i].cost(bound)))
        bindings = _extend(store, step, bindings, bound)
        bound.update(name for name in step.names if name is not None)

    rows = {tuple(b[name] for name in ast.select) for b in bindings}
    ordered = sorted(rows, key=lambda row: tuple(object_sort_text(v) for v in row))
    return ResultTable(tuple(ast.select), ordered)


def _extend(store: Store, step: _Step, bindings: list[dict], bound: set[str]) -> list[dict]:
    """Each binding joined with the statements the step matches under it."""
    given = [(i, name) for i, name in enumerate(step.names) if name in bound]
    free = [(i, name) for i, name in enumerate(step.names)
            if name is not None and name not in bound]
    terms = list(step.terms)
    out = []
    for binding in bindings:
        for i, name in given:
            terms[i] = binding[name]
        for hit in store._match(*terms, step.time, True):
            values = (hit.subject, hit.property, hit.object)
            extended = dict(binding)
            for i, name in free:
                # a variable twice in one clause must take one value
                if extended.setdefault(name, values[i]) != values[i]:
                    break
            else:
                out.append(extended)
    return out
