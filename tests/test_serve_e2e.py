"""End-to-end: real ``repro serve`` subprocess driven over real sockets.

One server process serves the whole module: a full process spawn per test
would dominate runtime, and sharing it also exercises the accumulation of
state (LRU, counters) across independent clients.  The final test tears the
server down with SIGTERM and asserts the graceful-drain exit path.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SIMPLE = "SELECT S.sname FROM Sailor S WHERE S.rating > 7"


def _env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(REPO / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    return env


@pytest.fixture(scope="module")
def server():
    """``repro serve --port 0`` as a real subprocess; yields (proc, port)."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=REPO,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        line = proc.stdout.readline()
        assert line.startswith("serving on http://"), line
        port = int(line.rsplit(":", 1)[1])
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()


def _request(
    port: int, method: str, path: str, document: dict | None = None
) -> tuple[int, dict]:
    """One request, retrying refused connections with capped backoff.

    The subprocess server prints its URL *before* the accept loop is
    fully live; on a slow CI machine the first request can race the bind.
    Refusals inside the startup window are retried, not failed.
    """
    deadline = time.monotonic() + 10.0
    backoff = 0.05
    while True:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request(
                method,
                path,
                body=None if document is None else json.dumps(document),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        except ConnectionRefusedError:
            if time.monotonic() >= deadline:
                raise
            time.sleep(backoff)
            backoff = min(backoff * 2, 0.5)
        finally:
            connection.close()


def test_serve_subprocess_answers_all_endpoints(server):
    _proc, port = server
    status, health = _request(port, "GET", "/healthz")
    assert (status, health["status"]) == (200, "ok")
    assert health["disk_degraded"] is False
    assert health["in_flight"] == 0

    status, payload = _request(
        port, "POST", "/compile", {"sql": SIMPLE, "formats": ["text"]}
    )
    assert status == 200
    assert payload["formats"] == ["text"]
    assert "Sailor" in payload["outputs"]["text"]

    status, fingerprint = _request(port, "POST", "/fingerprint", {"sql": SIMPLE})
    assert status == 200
    assert fingerprint["fingerprint"] == payload["fingerprint"]

    status, bad = _request(port, "POST", "/compile", {"sql": "SELEKT"})
    assert status == 400 and "invalid SQL" in bad["error"]

    status, stats = _request(port, "GET", "/stats")
    assert status == 200
    assert stats["compiles"] >= 1 and stats["bad_requests"] >= 1


def test_bench_serve_cli_against_external_server(server, tmp_path):
    _proc, port = server
    out = tmp_path / "serve.json"
    result = subprocess.run(
        [
            sys.executable, "-m", "repro", "bench-serve",
            "--url", f"http://127.0.0.1:{port}",
            "--distinct", "4", "--warm-repeat", "2", "--concurrency", "4",
            "--burst-distinct", "2", "--burst-duplicates", "3",
            "--formats", "text", "--json", str(out),
        ],
        cwd=REPO,
        env=_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "speedup:" in result.stdout and "coalesce:" in result.stdout
    payload = json.loads(out.read_text())
    assert payload["requests_cold"] == 4
    assert payload["requests_warm"] == 8
    assert payload["burst_requests"] == (2 + 3) * 3  # + Fig. 24 trio
    assert payload["server_stats"]["compiles"] >= payload["burst_distinct"]


def test_overly_nested_query_is_a_bad_request(server):
    _proc, port = server
    sql = "SELECT S.sname FROM Sailor S"
    for level in range(1, 200):
        sql += f" WHERE NOT EXISTS (SELECT * FROM Sailor S{level}"
    sql += ")" * 199
    status, payload = _request(port, "POST", "/compile", {"sql": sql, "formats": ["text"]})
    assert status == 400
    assert "nest deeper" in payload["error"]
    # The server is unharmed: the next request compiles normally.
    status, payload = _request(port, "POST", "/compile", {"sql": SIMPLE, "formats": ["text"]})
    assert status == 200 and "Sailor" in payload["outputs"]["text"]


def test_sigterm_drains_and_exits_cleanly(server):
    proc, port = server
    assert _request(port, "GET", "/healthz")[0] == 200
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=30) == 0
    tail = proc.stdout.read()
    assert "draining in-flight work" in tail
    assert "shutdown clean" in tail
    # the listening socket is really gone
    deadline = time.monotonic() + 5
    while time.monotonic() < deadline:
        try:
            _request(port, "GET", "/healthz")
        except (ConnectionError, OSError):
            break
        time.sleep(0.05)
    else:
        pytest.fail("port still accepting connections after shutdown")
