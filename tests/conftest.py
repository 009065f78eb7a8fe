import os

import pytest
from hypothesis import settings

from etdgraph.fixture import fixture_store
from etdgraph.model import Iri
from etdgraph.store import DEFAULT_BASE_IRI

# CI runs with HYPOTHESIS_PROFILE=ci: the same examples on every run, and
# a failure prints the blob that replays it (@reproduce_failure)
settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(scope="session")
def network():
    """The bundled two-university fixture (no batch date, so quad
    round-trips are exact)."""
    return fixture_store()


@pytest.fixture(scope="session")
def iri():
    def make(path: str) -> Iri:
        return Iri(f"{DEFAULT_BASE_IRI}/{path}")

    return make
