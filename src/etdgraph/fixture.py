"""Bundled sample batch: the academic network of two universities, four
people, and three theses used throughout the tests and documentation."""

from __future__ import annotations

from importlib import resources

from .ingest import DEFAULT_AUTHORITY_IRI, IngestReport, parse_records, records_to_graph
from .model import TimePoint
from .store import DEFAULT_BASE_IRI, Store

FIXTURE_RESOURCE = "academic_network.etd"


def fixture_text() -> str:
    return (
        resources.files("etdgraph").joinpath("data", FIXTURE_RESOURCE).read_text("utf-8")
    )


def fixture_store(
    base: str = DEFAULT_BASE_IRI,
    authority: str = DEFAULT_AUTHORITY_IRI,
    batch_date: TimePoint | None = None,
) -> Store:
    store, _ = fixture_store_with_report(base, authority, batch_date)
    return store


def fixture_store_with_report(
    base: str = DEFAULT_BASE_IRI,
    authority: str = DEFAULT_AUTHORITY_IRI,
    batch_date: TimePoint | None = None,
) -> tuple[Store, IngestReport]:
    records = parse_records(fixture_text())
    return records_to_graph(records, base=base, authority=authority, batch_date=batch_date)
