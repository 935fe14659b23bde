"""HTTP front end: routing, JSON codec, admission control, shutdown."""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.serving.cache import ResultCache
from repro.serving.http import create_server
from repro.serving.service import QueryService
from repro.serving.snapshot import SnapshotManager


@pytest.fixture()
def running_server(rec_corpus_dir):
    """A live server on an ephemeral port with its own manager/cache."""
    manager = SnapshotManager(rec_corpus_dir)
    manager.load()
    service = QueryService(manager, cache=ResultCache(64))
    server = create_server(service, port=0, max_in_flight=4)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
        assert not thread.is_alive()


def _get(server, path):
    with urllib.request.urlopen(f"http://127.0.0.1:{server.port}{path}") as response:
        return response.status, response.read().decode()


def _post(server, path, body=None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=json.dumps(body if body is not None else {}).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request) as response:
        return response.status, response.read().decode()


def test_healthz_over_http(running_server):
    status, body = _get(running_server, "/healthz")
    assert status == 200
    payload = json.loads(body)
    assert payload["status"] == "ok"
    assert payload["generation"] == 1


def test_search_get_matches_service(running_server):
    service = running_server.service
    query_id = service.manager.current.corpus[0].object_id
    status, body = _get(running_server, f"/search?query={query_id}&k=3")
    assert status == 200
    payload = json.loads(body)
    expected = service.search(query=query_id, k=3)
    assert payload["results"] == expected["results"]


def test_search_post_json_body(running_server):
    query_id = running_server.service.manager.current.corpus[1].object_id
    status, body = _post(running_server, "/search", {"query": query_id, "k": 2})
    assert status == 200
    assert len(json.loads(body)["results"]) == 2


def test_repeated_query_hits_cache_and_metrics(running_server):
    query_id = running_server.service.manager.current.corpus[2].object_id
    first = json.loads(_get(running_server, f"/search?query={query_id}&k=3")[1])
    second = json.loads(_get(running_server, f"/search?query={query_id}&k=3")[1])
    assert first["cached"] is False
    assert second["cached"] is True
    _, metrics = _get(running_server, "/metrics")
    assert "repro_result_cache_hits_total 1" in metrics
    assert 'repro_requests_total{endpoint="search",status="200"} 2' in metrics
    assert 'repro_request_latency_seconds_count{endpoint="search"} 2' in metrics


def test_similar_post(running_server):
    status, body = _post(running_server, "/similar", {"tags": ["tag1", "tag2"], "k": 3})
    assert status == 200
    assert json.loads(body)["endpoint"] == "similar"


def test_default_search_mode_is_vectorized_over_http(running_server):
    """A modeless GET /search must reach the vectorized engine — the
    transport default is ``auto``, the engine's default."""
    query_id = running_server.service.manager.current.corpus[0].object_id
    payload = json.loads(_get(running_server, f"/search?query={query_id}&k=3")[1])
    assert payload["mode"] == "auto"
    explicit = json.loads(
        _get(running_server, f"/search?query={query_id}&k=3&mode=auto")[1]
    )
    assert explicit["results"] == payload["results"]
    assert explicit["cached"] is True  # same cache entry as the default


def test_default_similar_mode_is_vectorized_over_http(running_server):
    status, body = _post(running_server, "/similar", {"tags": ["tag1"], "k": 3})
    assert status == 200
    assert json.loads(body)["mode"] == "auto"


def test_admin_reload_bumps_generation_and_empties_cache(running_server):
    service = running_server.service
    query_id = service.manager.current.corpus[0].object_id
    _get(running_server, f"/search?query={query_id}&k=3")
    status, body = _post(running_server, "/admin/reload")
    assert status == 200
    payload = json.loads(body)
    assert payload["generation"] == 2
    assert payload["cache_entries_dropped"] == 1
    fresh = json.loads(_get(running_server, f"/search?query={query_id}&k=3")[1])
    assert fresh["generation"] == 2
    assert fresh["cached"] is False


def test_unknown_route_is_404(running_server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(running_server, "/nope")
    assert err.value.code == 404


def test_unknown_object_id_is_404_json(running_server):
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(running_server, "/search?query=ghost")
    assert err.value.code == 404
    assert "unknown object id" in json.loads(err.value.read().decode())["error"]


def test_bad_k_is_400(running_server):
    query_id = running_server.service.manager.current.corpus[0].object_id
    with pytest.raises(urllib.error.HTTPError) as err:
        _get(running_server, f"/search?query={query_id}&k=zero")
    assert err.value.code == 400


def test_malformed_json_body_is_400(running_server):
    request = urllib.request.Request(
        f"http://127.0.0.1:{running_server.port}/search",
        data=b"{not json",
        headers={"Content-Type": "application/json"},
    )
    with pytest.raises(urllib.error.HTTPError) as err:
        urllib.request.urlopen(request)
    assert err.value.code == 400


def test_saturated_server_answers_503_with_retry_after(running_server):
    """Exhaust the in-flight permits, then observe admission control."""
    permits = running_server.max_in_flight
    for _ in range(permits):
        assert running_server.admission.acquire(blocking=False)
    try:
        query_id = running_server.service.manager.current.corpus[0].object_id
        with pytest.raises(urllib.error.HTTPError) as err:
            _get(running_server, f"/search?query={query_id}")
        assert err.value.code == 503
        assert err.value.headers["Retry-After"] == "1"
        # healthz is not admission controlled: stays up under saturation
        assert _get(running_server, "/healthz")[0] == 200
    finally:
        for _ in range(permits):
            running_server.admission.release()
    # permits released: queries flow again
    assert _get(running_server, f"/search?query={query_id}")[0] == 200
    _, metrics = _get(running_server, "/metrics")
    assert "repro_rejected_requests_total 1" in metrics


def test_max_in_flight_must_be_positive(rec_corpus_dir):
    manager = SnapshotManager(rec_corpus_dir)
    manager.load()
    with pytest.raises(ValueError):
        create_server(QueryService(manager), port=0, max_in_flight=0)


def test_graceful_shutdown_finishes_cleanly(rec_corpus_dir):
    """shutdown() + server_close() must join every handler thread."""
    manager = SnapshotManager(rec_corpus_dir)
    manager.load()
    server = create_server(QueryService(manager), port=0, max_in_flight=2)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    assert _get(server, "/healthz")[0] == 200
    server.shutdown()
    thread.join(timeout=10)
    assert not thread.is_alive()
    server.server_close()
