"""Canonical quad file export/import, DOT export, and entity
description documents.

Plain RDF has no slot for validity, so each statement is written as a
quad whose fourth term is a context IRI, and the context carries the
temporal scope and provenance as ordinary triples::

    <s> <p> <o> <ctx> .
    <ctx> <..#validFrom> "1996" .
    <ctx> <..#validTo> "2000" .
    <ctx> <..#source> "recB" .
    <ctx> <..#authority> <http://...> .

validFrom/validTo are omitted on the open side and entirely for
unqualified statements. The context IRI is base/ctx/ plus the first 16
hex chars of SHA-256 over (validFrom, validTo, source, authority), so
equal scopes share one context across runs; a writer builds each
distinct scope's context once. The keys are a local convention of this
format, not a published vocabulary.

The export is canonical: data quads in store order, then context
metadata sorted, LF line endings, UTF-8. export(import(export(s))) is
byte-identical to export(s).
"""

from __future__ import annotations

import hashlib
import re
from collections import deque
from dataclasses import dataclass, field
from itertools import chain

from .errors import DanglingContext, EtdError, NotFound, QuadParseError
from .model import (
    ALWAYS,
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
from .store import Store
from .vocab import EntityKind, Vocabulary

_XSD = "http://www.w3.org/2001/XMLSchema#"
_XSD_BY_DATATYPE = {
    Datatype.INTEGER: _XSD + "integer",
    Datatype.YEAR: _XSD + "gYear",
    Datatype.DATE: _XSD + "date",
}
_DATATYPE_BY_XSD = {v: k for k, v in _XSD_BY_DATATYPE.items()}

_META_KEYS = ("validFrom", "validTo", "source", "authority")

_NODE_SHAPE = {
    EntityKind.PERSON: "ellipse",
    EntityKind.CORPORATE_BODY: "box",
    EntityKind.WORK: "note",
    EntityKind.GENDER: "diamond",
    EntityKind.PLACE: "hexagon",
    EntityKind.EXTERNAL_RESOURCE: "plaintext",
}

_ESCAPES = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"})
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "r": "\r", "t": "\t"}
_ESCAPED = re.compile(r"\\(.)")

_LITERAL_BODY = r'(?:[^"\\]|\\[\\"nrt])*'
# One term after optional blanks: an IRI, a literal with an optional
# language tag or datatype, or the final '.' with only whitespace after it.
_TERM = re.compile(
    rf"""[ \t]*(?:
        <(?P<iri>[^>]*)>
      | "(?P<lexical>{_LITERAL_BODY})"
        (?:@(?P<lang>(?:[^\W_]|-)*)|\^\^<(?P<xsd>[^>]*)>)?
      | (?P<end>\.)\s*\Z
    )""",
    re.VERBOSE,
)
_LITERAL_HEAD = re.compile('"' + _LITERAL_BODY)


def escape_literal(text: str) -> str:
    return text.translate(_ESCAPES)


def _term_text(value: Iri | Literal) -> str:
    if isinstance(value, Iri):
        return f"<{value.value}>"
    out = f'"{escape_literal(value.lexical)}"'
    if value.language:
        return f"{out}@{value.language}"
    if value.datatype is not Datatype.STRING:
        return f"{out}^^<{_XSD_BY_DATATYPE[value.datatype]}>"
    return out


def _context(store: Store, validity: Validity, provenance: ProvenanceTag,
             meta_lines: set[str]) -> str:
    """`<ctx>` text of one scope; adds the scope's metadata lines to
    `meta_lines`."""
    valid_from = valid_to = ""
    if not validity.is_always:
        iv = validity.interval
        valid_from = iv.start.text() if iv.start else ""
        valid_to = iv.end.text() if iv.end else ""
    source = provenance.source_record_id
    authority = provenance.asserting_authority.value
    payload = (
        f"validFrom={valid_from}\nvalidTo={valid_to}\n"
        f"source={source}\nauthority={authority}\n"
    )
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
    ctx = f"<{store.base_iri.value.rstrip('/')}/ctx/{digest}>"
    ns = store.vocab.namespace
    if valid_from:
        meta_lines.add(f'{ctx} <{ns}validFrom> "{valid_from}" .')
    if valid_to:
        meta_lines.add(f'{ctx} <{ns}validTo> "{valid_to}" .')
    meta_lines.add(f'{ctx} <{ns}source> "{escape_literal(source)}" .')
    meta_lines.add(f"{ctx} <{ns}authority> <{authority}> .")
    return ctx


def _quad_text(store: Store, triples) -> str:
    """Data lines of the triples in the given order, then their context
    lines, sorted and deduplicated."""
    data_lines = []
    meta_lines: set[str] = set()
    contexts: dict[tuple[Validity, ProvenanceTag], str] = {}
    for t in triples:
        scope = (t.validity, t.provenance)
        ctx = contexts.get(scope)
        if ctx is None:
            ctx = contexts[scope] = _context(store, *scope, meta_lines)
        data_lines.append(
            f"<{t.subject.value}> <{t.property.value}> {_term_text(t.object)} {ctx} ."
        )
    lines = data_lines + sorted(meta_lines)
    return "\n".join(lines) + "\n" if lines else ""


def export_quads(store: Store) -> str:
    return _quad_text(store, store.sorted_triples())


# -- import -------------------------------------------------------------------


def _lex_quad_line(line: str, lineno: int, iris: dict[str, Iri]) -> list:
    """Terms of one line; `iris` maps IRI text already seen to its Iri."""
    terms = []
    pos = 0
    while True:
        m = _TERM.match(line, pos)
        if m is None:
            raise QuadParseError(lineno, _lex_error(line, pos))
        iri, lexical, language, xsd, end = m.groups()
        if end:
            return terms
        if iri is not None:
            term = iris.get(iri)
            if term is None:
                term = iris[iri] = Iri(iri)
        else:
            if "\\" in lexical:
                lexical = _ESCAPED.sub(lambda e: _UNESCAPES[e[1]], lexical)
            datatype = Datatype.STRING
            if xsd is not None:
                datatype = _DATATYPE_BY_XSD.get(xsd)
                if datatype is None:
                    raise QuadParseError(lineno, f"unsupported datatype <{xsd}>")
            term = Literal(lexical, datatype, language)
        terms.append(term)
        pos = m.end()


def _lex_error(line: str, pos: int) -> str:
    """Why no term starts at `pos`."""
    if line.startswith("^^<", pos) and line[pos - 1 : pos] == '"':
        return "unterminated datatype IRI"
    rest = line[pos:].lstrip(" \t")
    if not rest:
        return "missing terminating '.'"
    if rest[0] == ".":
        return "content after terminating '.'"
    if rest[0] == "<":
        return "unterminated IRI"
    if rest[0] == '"':
        bad_escape = rest.startswith("\\", _LITERAL_HEAD.match(rest).end())
        return "bad escape in literal" if bad_escape else "unterminated literal"
    return f"unexpected character {rest[0]!r}"


def import_quads(
    text: str,
    vocab: Vocabulary | None = None,
    base_iri: str | Iri | None = None,
) -> Store:
    """Rebuild a store from its canonical quad serialization.

    The base IRI and vocabulary namespace are recovered from the
    document itself when not supplied. Every error on a line names it;
    a context given two different values for one key is rejected.
    """
    data: list[tuple[int, Iri, Iri, Iri | Literal, Iri]] = []
    # validFrom/validTo -> TimePoint, source -> str, authority -> Iri
    contexts: dict[Iri, dict[str, TimePoint | str | Iri]] = {}
    meta_ns: str | None = None
    iris: dict[str, Iri] = {}  # Iri() is interned, but a Python call; dict.get is not

    try:
        for lineno, raw in enumerate(text.split("\n"), start=1):
            if not raw.strip():
                continue
            terms = _lex_quad_line(raw, lineno, iris)
            if len(terms) == 4:
                s, p, o, ctx = terms
                if not isinstance(s, Iri) or not isinstance(p, Iri) or not isinstance(ctx, Iri):
                    raise QuadParseError(lineno, "subject, property, context must be IRIs")
                data.append((lineno, s, p, o, ctx))
                continue
            if len(terms) != 3:
                raise QuadParseError(lineno, f"expected 3 or 4 terms, got {len(terms)}")
            ctx, key_iri, value = terms
            if not isinstance(ctx, Iri) or not isinstance(key_iri, Iri):
                raise QuadParseError(lineno, "context and key must be IRIs")
            ns, _, key = key_iri.value.rpartition("#")
            if key not in _META_KEYS:
                raise QuadParseError(lineno, f"unknown context metadata key {key!r}")
            meta_ns = meta_ns or ns + "#"
            if key == "authority":
                if not isinstance(value, Iri):
                    raise QuadParseError(lineno, "authority must be an IRI")
            elif not isinstance(value, Literal):
                raise QuadParseError(lineno, f"{key} must be a literal")
            else:
                value = value.lexical if key == "source" else TimePoint.parse(value.lexical)
            if contexts.setdefault(ctx, {}).setdefault(key, value) != value:
                raise QuadParseError(lineno, f"context <{ctx}> already has another {key}")
    except QuadParseError:
        raise
    except EtdError as exc:
        raise QuadParseError(lineno, str(exc)) from exc

    if vocab is None:
        vocab = Vocabulary(meta_ns) if meta_ns else Vocabulary()
    if base_iri is None:
        base = None
        if data:
            ctx_text = data[0][4].value
            head, sep, _ = ctx_text.rpartition("/ctx/")
            if sep:
                base = Iri(head)
    else:
        base = base_iri if isinstance(base_iri, Iri) else Iri(base_iri)

    store = Store(vocab, base) if base is not None else Store(vocab)
    # one (validity, provenance) per context, built at its first data line
    scopes: dict[Iri, tuple[Validity, ProvenanceTag]] = {}
    try:
        for lineno, s, p, o, ctx in data:
            scope = scopes.get(ctx)
            if scope is None:
                scope = scopes[ctx] = _context_scope(contexts.get(ctx), ctx, lineno)
            store.insert(TemporalTriple(s, p, o, *scope))
    except DanglingContext:
        raise
    except EtdError as exc:
        raise QuadParseError(lineno, str(exc)) from exc
    return store


def _context_scope(meta: dict | None, ctx: Iri,
                   lineno: int) -> tuple[Validity, ProvenanceTag]:
    if meta is None or "source" not in meta or "authority" not in meta:
        raise DanglingContext(f"line {lineno}: context <{ctx}> has no complete metadata")
    start, end = meta.get("validFrom"), meta.get("validTo")
    if start is None and end is None:
        validity = ALWAYS
    else:
        validity = Validity.during(TimeInterval(start, end))
    return validity, ProvenanceTag(meta["source"], meta["authority"])


# -- DOT export ---------------------------------------------------------------


def _label_rank(t: TemporalTriple):
    iv = t.validity.interval
    open_ended = iv is None or iv.end is None
    start = iv.start.first_day().toordinal() if iv is not None and iv.start else 0
    return (-int(open_ended), -start, t.object.lexical)


def _current_label_triple(store: Store, entity: Iri) -> TemporalTriple | None:
    """Pick one label: open-ended or unqualified beats closed, later
    starts beat earlier, then lexicographic text, then canonical order."""
    labels = store._match(entity, store.vocab.expand("label"), None, None, False)
    if not labels:
        return None
    ranked = [(_label_rank(t), t) for t in labels]
    best = min(rank for rank, _ in ranked)
    # min keeps the first of equal keys: index order, as a stable sort would
    return min((t for rank, t in ranked if rank == best), key=triple_sort_key)


def _label_text(entity: Iri, triple: TemporalTriple | None) -> str:
    return triple.object.lexical if triple is not None else entity.local_name()


def _dot_id(text: str) -> str:
    clean = "".join(c if c.isalnum() or c == "_" else "_" for c in text)
    if not clean or clean[0].isdigit():
        clean = "n_" + clean
    return clean


def _node_id(store: Store, entities: set[Iri]) -> dict[Iri, str]:
    by_id: dict[str, list[Iri]] = {}
    for e in sorted(entities, key=lambda i: i.value):
        by_id.setdefault(_dot_id(e.local_name()), []).append(e)
    ids = {}
    for candidate, group in by_id.items():
        if len(group) == 1:
            ids[group[0]] = candidate
        else:
            for e in group:
                prefix = e.value.rsplit("/", 2)[-2] if "/" in e.value else "x"
                ids[e] = _dot_id(f"{prefix}_{e.local_name()}")
    return ids


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(store: Store, focus: Iri | None = None, radius: int = 1) -> str:
    """DOT digraph of the entity network; literal-valued attributes and
    kind assertions (drawn as shapes) are not edges. With a focus, only
    the breadth-limited neighborhood."""
    kind_prop = store.vocab.expand("kind")
    entity_triples = [
        t
        for t in store.sorted_triples()
        if isinstance(t.object, Iri) and t.property != kind_prop
    ]

    if focus is not None:
        if radius < 1:
            raise ValueError("radius must be >= 1 when a focus is given")
        if not store.has_entity(focus):
            raise NotFound(f"<{focus}> is not in the store")
        adjacency: dict[Iri, set[Iri]] = {}
        for t in entity_triples:
            adjacency.setdefault(t.subject, set()).add(t.object)
            adjacency.setdefault(t.object, set()).add(t.subject)
        keep = {focus}
        frontier = deque([(focus, 0)])
        while frontier:
            node, depth = frontier.popleft()
            if depth == radius:
                continue
            for neighbor in adjacency.get(node, ()):
                if neighbor not in keep:
                    keep.add(neighbor)
                    frontier.append((neighbor, depth + 1))
        entity_triples = [
            t for t in entity_triples if t.subject in keep and t.object in keep
        ]
        nodes = keep
    else:
        nodes = {t.subject for t in entity_triples} | {
            t.object for t in entity_triples
        }
        nodes.update(e for k in EntityKind for e in store.entities_of_kind(k))

    ids = _node_id(store, nodes)
    lines = ["digraph etd {"]
    for entity in sorted(nodes, key=lambda i: ids[i]):
        kind = store.kind_of(entity)
        shape = _NODE_SHAPE.get(kind, "ellipse")
        label = _label_text(entity, _current_label_triple(store, entity))
        lines.append(
            f"  {ids[entity]} [shape={shape}, label={_dot_quote(label)}];"
        )
    for t in entity_triples:
        name = t.property.local_name()
        if t.validity.is_always:
            label = name
        else:
            label = f"{name} {t.validity.interval.text()}"
        lines.append(
            f"  {ids[t.subject]} -> {ids[t.object]} [label={_dot_quote(label)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- entity descriptions -------------------------------------------------------


@dataclass
class DescriptionDocument:
    focus: Iri
    triples: list[TemporalTriple]
    neighbor_labels: dict[Iri, str] = field(default_factory=dict)
    label_triples: list[TemporalTriple] = field(default_factory=list)  # the picked label rows


def describe_entity(store: Store, focus: Iri) -> DescriptionDocument:
    """Everything known about one entity: stored statements touching it,
    their inverse-derived flips, and one label per neighbor."""
    if not store.has_entity(focus):
        raise NotFound(f"<{focus}> is not in the store")
    # The key sorts distinct rows of one store totally, with a stored row
    # before the derived one that compares equal to it.
    hits = chain(store._match(focus, None, None, None, True),
                 store._match(None, None, focus, None, True))
    merged = {(t, t.derived): t for t in hits}
    triples = sorted(merged.values(), key=lambda t: (triple_sort_key(t), t.derived))

    neighbors = set()
    for t in triples:
        if t.derived:
            continue
        neighbors.add(t.subject)
        if isinstance(t.object, Iri):
            neighbors.add(t.object)
    neighbors.discard(focus)
    picked = {n: _current_label_triple(store, n) for n in sorted(neighbors, key=lambda i: i.value)}
    labels = {n: _label_text(n, t) for n, t in picked.items()}
    return DescriptionDocument(focus, triples, labels, [t for t in picked.values() if t is not None])


def serialize_description(store: Store, doc: DescriptionDocument) -> str:
    """Quad serialization of a description; a strict subset of the lines
    of the full export, so any consumer of the store format can read it.
    Derived statements are not written, their stored originals are."""
    # Both lists are distinct, and disjoint: label rows are the neighbors'.
    selected = [t for t in doc.triples if not t.derived] + doc.label_triples
    return _quad_text(store, sorted(selected, key=triple_sort_key))
