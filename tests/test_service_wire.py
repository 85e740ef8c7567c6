"""Wire contract of the service's HTTP/1.1 server, and the client's one
kept-alive connection.

Raw sockets pin what ``http.client`` never sends: requests without a
length, oversized ones, malformed request lines and pipelined requests.
Every answer is a status line and a JSON body, and a request whose body
is not read closes its connection, so the next request can never be
parsed out of the leftover body.
"""

import json
import socket
import sys
import threading
import time

import pytest

from repro.service import CampaignService, ServiceClient, api

pytestmark = pytest.mark.service


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    with CampaignService(tmp_path_factory.mktemp("wire"), port=0) as svc:
        yield svc


def _exchange(service, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; read until the server closes."""
    with socket.create_connection((service.host, service.port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _responses(raw: bytes) -> list:
    """``(status line, headers, JSON body)`` of each response in ``raw``."""
    out = []
    while raw:
        head, _, rest = raw.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers["content-length"])
        assert "json" in headers["content-type"]
        out.append((lines[0], headers, json.loads(rest[:length])))
        raw = rest[length:]
    return out


def _one_closing_answer(service, data: bytes):
    """The one response to ``data``, after which the server hung up."""
    [(status_line, headers, body)] = _responses(_exchange(service, data))
    assert headers["connection"] == "close"
    return status_line, body


HEALTHZ = b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"


def test_post_without_length_is_411_and_its_body_is_never_parsed(service):
    status_line, body = _one_closing_answer(
        service, b"POST /campaigns HTTP/1.1\r\nHost: x\r\n\r\n" + HEALTHZ
    )
    assert status_line.startswith("HTTP/1.1 411 ")
    assert body == {"error": "Content-Length required"}


def test_body_over_limit_is_413_unread(service):
    status_line, body = _one_closing_answer(
        service,
        b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: 9000000\r\n\r\n"
        + HEALTHZ,
    )
    assert status_line.startswith("HTTP/1.1 413 ")
    assert body == {"error": "body too large"}


def test_negative_length_is_400_unread(service):
    status_line, body = _one_closing_answer(
        service,
        b"POST /campaigns HTTP/1.1\r\nHost: x\r\nContent-Length: -5\r\n\r\n"
        + HEALTHZ,
    )
    assert status_line.startswith("HTTP/1.1 400 ")
    assert body == {"error": "Content-Length must be >= 0"}


@pytest.mark.parametrize(
    "request_bytes, status_line",
    [
        (
            b"GET /healthz HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
            "HTTP/1.1 431 ",
        ),
        (
            b"GET /healthz HTTP/1.1\r\n" + b"X-A: b\r\n" * 101 + b"\r\n",
            "HTTP/1.1 431 ",
        ),
        (
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
            "HTTP/1.1 414 ",
        ),
    ],
    ids=["long-header", "many-headers", "long-request-line"],
)
def test_oversized_head(service, request_bytes, status_line):
    """The stdlib's line and header-count limits, answered as JSON."""
    answer_line, body = _one_closing_answer(service, request_bytes)
    assert answer_line.startswith(status_line)
    assert body["error"]


def test_one_word_request_line_gets_a_status_line(service):
    status_line, body = _one_closing_answer(service, b"HELLO\r\n\r\n")
    assert status_line.startswith("HTTP/1.1 400 ")
    assert body["error"]


def test_endpoint_that_raises_is_a_json_500(service, monkeypatch, capsys):
    def boom():
        raise RuntimeError("boom")

    monkeypatch.setattr(service.queue, "counts", boom)
    status_line, body = _one_closing_answer(service, HEALTHZ)
    assert status_line.startswith("HTTP/1.1 500 ")
    assert body == {"error": "RuntimeError: boom"}
    logged = capsys.readouterr().err
    assert "RuntimeError: boom" in logged  # the traceback, for the operator
    assert "Exception occurred during processing" not in logged  # socketserver's


def test_pipelined_requests_are_both_answered(service):
    raw = _exchange(
        service,
        HEALTHZ
        + b"GET /campaigns/nope HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
    )
    (first, _, health), (second, headers, missing) = _responses(raw)
    assert first == "HTTP/1.1 200 OK" and health["ok"] is True
    assert second.startswith("HTTP/1.1 404 ")
    assert missing == {"error": "unknown campaign: nope"}
    assert headers["connection"] == "close"


# -- the client's kept-alive connection --------------------------------------


@pytest.fixture
def connections(monkeypatch):
    """Counts the connections the server accepts."""
    accepted = []
    setup = api._Handler.setup

    def counting(handler):
        accepted.append(handler.client_address)
        setup(handler)

    monkeypatch.setattr(api._Handler, "setup", counting)
    return accepted


def _spec(seed):
    return {
        "fleet": {
            "groups": 48,
            "disks_per_group": 4,
            "mttr_hours": 36.0,
            "spare_delay_hours": 6.0,
            "classes": [{"mttf_hours": 2.5e4, "lse_burst_rate_per_hour": 3e-4}],
        },
        "policies": [{"name": "weekly", "latent_window_hours": 84.0}],
        "mission_years": 6.0,
        "seed": seed,
        "shards": 4,
    }


def test_client_calls_share_one_connection(service, connections):
    client = ServiceClient(service.url, client="keep")
    _, payload = client.submit(_spec(seed=301))
    job = client.wait(payload["job"]["id"], timeout=30)
    assert job["state"] == "done"
    assert client.submit(_spec(seed=301))[0] == 200
    for fetch in (client.health, client.jobs, lambda: client.job("nope")):
        assert fetch()[0] in (200, 404)
    assert len(connections) == 1


def test_client_retries_once_after_the_idle_timeout(service, connections, monkeypatch):
    monkeypatch.setattr(api, "_IDLE_TIMEOUT", 0.2)
    client = ServiceClient(service.url)
    assert client.health()[0] == 200
    time.sleep(0.6)  # the server closes the idle connection
    assert client.health()[0] == 200
    assert len(connections) == 2


def test_refused_fresh_connection_raises():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    with pytest.raises(ConnectionRefusedError):
        ServiceClient(f"http://127.0.0.1:{port}").health()


def test_stopped_service_answers_no_kept_alive_client(tmp_path):
    svc = CampaignService(tmp_path, port=0).start()
    client = ServiceClient(svc.url)
    try:
        assert client.health()[0] == 200
    finally:
        started = time.monotonic()
        svc.stop()
    assert time.monotonic() - started < 5.0  # not held by the idle connection
    with pytest.raises(ConnectionError):
        client.health()


def test_a_body_cut_short_raises_connection_error_unretried():
    """A server that sends its head and part of a ``Content-Length``
    body, then closes: the client closes its connection and raises
    ``ConnectionError`` (not ``http.client.IncompleteRead``), and sends
    the call once only."""
    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(10)
    requests = []

    def one_shot():
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        with conn:
            requests.append(conn.recv(65536))
            conn.sendall(
                b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
                b"Content-Length: 100\r\n\r\n{\"ok\": tr"
            )
        try:  # a second connection would be a retry
            listener.settimeout(0.3)
            extra, _ = listener.accept()
            extra.close()
            requests.append(b"retry")
        except OSError:
            pass

    server = threading.Thread(target=one_shot)
    server.start()
    try:
        client = ServiceClient(f"http://127.0.0.1:{listener.getsockname()[1]}")
        with pytest.raises(ConnectionError, match="after 9 bytes"):
            client.health()
        assert client._conn.sock is None
    finally:
        server.join(timeout=10)
        listener.close()
    assert len(requests) == 1 and requests[0].startswith(b"GET /healthz ")


@pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
def test_stop_under_load_answers_nothing_begun_after_it(tmp_path):
    """Clients on kept-alive and fresh connections race ``stop()``: it
    returns promptly, and no request begun after it is answered."""
    svc = CampaignService(tmp_path, port=0).start()
    stopped = threading.Event()
    late = []

    def hammer(index):
        client = ServiceClient(svc.url)
        for call in range(10_000):
            begun_after_stop = stopped.is_set()
            fresh = call % 2 == index % 2
            try:
                (ServiceClient(svc.url) if fresh else client).health()
            except ConnectionError:
                if begun_after_stop:
                    return
                continue
            if begun_after_stop:
                late.append(index)
                return

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        started = time.monotonic()
        svc.stop()
        stopped.set()
        took = time.monotonic() - started
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert took < 5.0
    assert late == []


def test_stop_ends_a_connection_it_accepted_but_had_not_yet_tracked(
    tmp_path, monkeypatch
):
    """A connection whose handler registers only after ``stop()`` looked
    at the open connections is ended at registration, not left to wait
    out the idle timeout while ``stop()`` joins its thread."""
    setup = api._Handler.setup

    def slow(handler):
        time.sleep(0.3)
        setup(handler)

    monkeypatch.setattr(api._Handler, "setup", slow)
    svc = CampaignService(tmp_path, port=0).start()
    with socket.create_connection((svc.host, svc.port), timeout=10) as sock:
        time.sleep(0.05)  # accepted; its handler is still in setup
        started = time.monotonic()
        svc.stop()
        assert time.monotonic() - started < 5.0
        try:
            sock.sendall(HEALTHZ)
            answer = sock.recv(65536)
        except ConnectionError:
            answer = b""
        assert answer == b""  # hung up, never answered
