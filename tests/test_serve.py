import gc
import http.client
import threading
import urllib.error
import urllib.request
from http.server import HTTPServer

import pytest

from etdgraph import graphio, model
from etdgraph.cli import _make_handler, make_server
from etdgraph.errors import PortInUse
from etdgraph.graphio import describe_entity, serialize_description


@pytest.fixture(scope="module")
def server(network):
    httpd = make_server(network, 0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}", network
    httpd.shutdown()
    httpd.server_close()


def get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, response.read(), response.headers
    except urllib.error.HTTPError as err:
        return err.code, err.read(), err.headers


def test_person_description_byte_equal(server, iri):
    base_url, store = server
    status, body, headers = get(f"{base_url}/entity/person/pA")
    assert status == 200
    assert headers["Content-Type"] == "text/plain; charset=utf-8"
    expected = serialize_description(store, describe_entity(store, iri("person/pA")))
    assert body == expected.encode("utf-8")


def test_percent_encoded_ids_resolve(server):
    base_url, _ = server
    status, body, _ = get(f"{base_url}/entity/body/facB")
    assert status == 200
    assert b"Faculty B" in body


def test_unknown_entity_404(server):
    base_url, _ = server
    status, _, _ = get(f"{base_url}/entity/person/ghost")
    assert status == 404


def test_unknown_route_404(server):
    base_url, _ = server
    status, _, _ = get(f"{base_url}/some/other/path")
    assert status == 404


def test_health(server):
    base_url, _ = server
    status, body, _ = get(f"{base_url}/health")
    assert status == 200 and body == b"ok"


def test_query_string_ignored(server):
    base_url, _ = server
    assert get(f"{base_url}/health?probe=1")[:2] == (200, b"ok")
    plain = get(f"{base_url}/entity/person/pA")
    with_query = get(f"{base_url}/entity/person/pA?x=1")
    assert with_query[:2] == plain[:2] and plain[0] == 200


def test_mutating_methods_rejected(server):
    base_url, _ = server
    request = urllib.request.Request(f"{base_url}/entity/person/pA", method="POST",
                                     data=b"nope")
    try:
        with urllib.request.urlopen(request) as response:
            status = response.status
    except urllib.error.HTTPError as err:
        status = err.code
    assert status == 405


def test_port_in_use(network):
    first = make_server(network, 0)
    try:
        with pytest.raises(PortInUse):
            make_server(network, first.server_address[1])
    finally:
        first.server_close()


def test_unexpected_error_answers_500(server, monkeypatch, capsys):
    base_url, _ = server

    def broken(store, focus):
        raise RuntimeError("boom")

    monkeypatch.setattr(graphio, "describe_entity", broken)
    status, body, headers = get(f"{base_url}/entity/person/pA")
    assert status == 500
    assert headers["Content-Type"] == "text/plain; charset=utf-8"
    assert body == b"internal error"
    assert "RuntimeError: boom" in capsys.readouterr().err
    assert get(f"{base_url}/health")[:2] == (200, b"ok")


def test_head_answers_like_get_without_a_body(server):
    base_url, _ = server
    for path in ("/health", "/entity/person/pA"):
        _, get_body, _ = get(base_url + path)
        request = urllib.request.Request(base_url + path, method="HEAD")
        with urllib.request.urlopen(request) as response:
            assert response.status == 200
            assert response.headers["Content-Length"] == str(len(get_body))
            assert response.read() == b""


def test_unknown_entity_lookups_leave_no_interned_iri(network):
    # one server thread, one client: the handler is the one `serve` uses
    httpd = HTTPServer(("127.0.0.1", 0), _make_handler(network))
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        port = httpd.server_address[1]
        gc.collect()
        before = len(model._interned)
        for n in range(1000):
            conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
            conn.request("GET", f"/entity/person/ghost{n}")
            assert conn.getresponse().status == 404
            conn.close()
        gc.collect()
        assert len(model._interned) <= before
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)
