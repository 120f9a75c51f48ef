"""The benchmark's own checks.

    PYTHONPATH=src python3 -m pytest qvbench/tests -q

Tier-1 (``pytest -x -q`` at the root) collects only ``tests/`` and
``benchmarks/``; these tests run workloads and belong to this directory.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import common  # noqa: E402

common.import_program()

import exec_workload as ew  # noqa: E402
import loadgen  # noqa: E402
import run  # noqa: E402
import serve_workload as sw  # noqa: E402
import tracing  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "qvbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_run_prints_every_metric(workload: str, trace: int) -> None:
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    catalogue = common.PER_LAYER if trace else common.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == catalogue
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())
    stamp = json.loads(lines[-2])["provenance"]
    if workload.startswith("serve"):
        shares = stamp["traffic"]
        served = shares["served_lru"] + shares["served_coalesced"] + shares["served_compile"]
        assert served == pytest.approx(1.0, abs=1e-3)
        assert 0 < shares["text_repeat"] < 1 and shares["zipf_skew"] == sw.ZIPF_SKEW
    elif not trace:
        rounds = ew.rounds_for(workload, 1)
        assert result["attempted"] == rounds * len(ew.FAMILIES)


def test_benchmark_json_names_the_catalogue() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == common.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == common.PER_LAYER
    assert spec["command"][1:] == ["qvbench/run.py"]


def test_same_seed_same_request_stream() -> None:
    first = sw.build_inputs(5, 0.5, capacity=False)
    again = sw.build_inputs(5, 0.5, capacity=False)
    other = sw.build_inputs(6, 0.5, capacity=False)
    payloads = [request.payload() for request in first.requests]
    assert payloads == [request.payload() for request in again.requests]
    assert first.digest() == again.digest() != other.digest()


def test_same_seed_same_exec_stream() -> None:
    assert ew.stream(5, 200) == ew.stream(5, 200) != ew.stream(6, 200)
    from repro.workloads import scaled_bench_database

    database = scaled_bench_database(total_rows=300, seed=ew.DATABASE_SEED)
    batches = [ew.Inserter(5, database).batch() for _ in range(2)]
    assert batches[0] == batches[1]


def test_respellings_reach_the_caches_at_different_depths() -> None:
    """Whitespace and order keep (fingerprint, roles); aliases keep only
    the fingerprint, so their back half compiles."""
    seen = {"ws": 0, "order": 0, "alias": 0}
    for entry in range(40):
        base = sw.zipf_text((entry, "canonical"))[1]
        for kind in seen:
            request, reference = sw.zipf_text((entry, kind))
            assert reference.fingerprint == base.fingerprint
            if kind == "alias":
                assert reference.roles != base.roles
            else:
                assert reference.key == base.key
            seen[kind] += 1
    assert all(seen.values())


def test_exec_step_fails_once_however_many_engines_disagree() -> None:
    """Two engines disagreeing on a step is one failed step, not two."""
    from repro.sql import parse

    def engine(name: str, columns: tuple) -> ew.Engine:
        result = SimpleNamespace(columns=columns, rows=[], as_set=frozenset)
        return ew.Engine(name, None, SimpleNamespace(execute=lambda _query: result))

    engines = [engine("rows", ("a",)), engine("columnar", ("b",)), engine("sql", ("c",))]
    queries = [parse(text) for text in ew.stream(1, 2 * len(ew.FAMILIES))]
    phase = ew.run_phase(engines, queries, [()] * len(queries), time_limit=60.0)
    assert phase.steps == len(queries)
    assert phase.failed == len(queries)


def test_serve_calibration_waits_until_nothing_is_in_flight(monkeypatch) -> None:
    """The speed sample never competes with the server for the CPU."""
    in_flight = []
    served = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"

        def do_POST(self) -> None:
            in_flight.append(1)
            self.rfile.read(int(self.headers["Content-Length"]))
            time.sleep(0.001 * (1 + len(served) % 4))
            served.append(1)
            in_flight.pop()
            self.wfile.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")

        def log_message(self, *args) -> None:
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setattr(loadgen, "CALIBRATION_PERIOD_S", 0.005)
    busy_samples = []
    samples = []

    def calibrate() -> float:
        samples.append(1)
        busy_samples.extend(in_flight)
        return 1.0

    try:
        payloads = [loadgen.http_post("/compile", b"{}")] * 200
        result = loadgen.run_phase(
            "127.0.0.1", server.server_address[1], payloads, [0.0] * 200, 2, calibrate
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert all(o.status == 200 for o in result.outcomes) and len(result.outcomes) == 200
    assert len(samples) > 2 and not busy_samples
    assert 0 < result.paused < result.finished - result.started
    stretches = result.stretches()
    assert len(stretches) == len(samples) - 1
    assert stretches[0][0] == result.started and stretches[-1][1] == result.finished


def test_watched_span_is_kept_only_when_the_watched_value_moves() -> None:
    recorder = tracing.Recorder()
    memo = SimpleNamespace(misses=0)

    def lookup(target, miss: bool) -> None:
        target.misses += miss

    traced = recorder.wrap("memo", lookup, watch=lambda target, *_args: target.misses)
    traced(memo, False)
    traced(memo, True)
    traced(memo, False)
    assert [span[tracing.NAME] for span in recorder.spans] == ["memo"]


def test_reference_check_counts_a_wrong_answer() -> None:
    inputs = sw.build_inputs(4, 0.2, capacity=False)
    request = inputs.requests[0]
    reference = inputs.references[request.text]
    wrong = json.dumps(
        {"fingerprint": reference.fingerprint, "formats": sorted(request.formats),
         "outputs": {fmt: "wrong" for fmt in request.formats}}
    ).encode()
    outcome = sw.loadgen.Outcome(0, 0.0, 0.0, 0.0, 200, "compile", "x")
    result = sw.loadgen.PhaseResult([outcome], [], [], 0.0, 0.0, {"x": wrong})
    step = sw.Step(result, 0.0)
    assert sw.verify(inputs, [step]) == (1, 1)


@pytest.mark.parametrize("writes", (False, True))
def test_stream_agrees_with_the_naive_oracle(writes: bool) -> None:
    from repro.relational import BatchExecutor, ExecutionMode
    from repro.sql import parse
    from repro.workloads import scaled_bench_database

    modes = {
        "naive": ExecutionMode.NAIVE,
        "rows": ExecutionMode.PLANNED,
        "columnar": ExecutionMode.COLUMNAR,
        "sql": ExecutionMode.SQL,
    }
    engines = {}
    for name, mode in modes.items():
        database = scaled_bench_database(total_rows=200, seed=ew.DATABASE_SEED)
        engines[name] = (database, BatchExecutor(database, mode=mode))
    inserter = ew.Inserter(9, engines["naive"][0]) if writes else None
    for text in ew.stream(9, len(ew.FAMILIES)):
        query = parse(text)
        batch = inserter.batch() if inserter is not None else ()
        results = {}
        for name, (database, executor) in engines.items():
            for table, row in batch:
                database.insert(table, row)
            results[name] = executor.execute(query)
        for name in ("rows", "columnar", "sql"):
            assert ew.agree(query, engines["naive"][0], results["naive"], results[name]), (
                name, text,
            )


def _marked(marker: str) -> dict[int, str]:
    """Command lines of the live processes whose environment holds ``marker``."""
    found = {}
    for entry in Path("/proc").iterdir():
        try:
            if marker.encode() in (entry / "environ").read_bytes().split(b"\0"):
                cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ")
                found[int(entry.name)] = cmdline.decode()
        except (OSError, ValueError):
            continue
    return found


def _children() -> list[int]:
    """Pids of the live child processes of this process."""
    children = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            children.append(int(entry.name))
    return children


def test_reference_pool_leaves_no_process() -> None:
    """The worker pool starts no helper that outlives it."""
    jobs = list(range(-100, 0))
    assert sw._pool_map(abs, jobs) == [-job for job in jobs]
    assert _children() == []


@pytest.mark.parametrize("signum", (signal.SIGTERM, signal.SIGKILL), ids=("TERM", "KILL"))
def test_stopped_run_leaves_no_process(signum: int) -> None:
    """Stopped while its server is serving, a run leaves no process behind."""
    marker = f"QVBENCH_TEST_RUN={os.getpid()}-{signum}"
    name, value = marker.split("=")
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "run.py"), "--workload", "serve_zipf",
         "--seed", "3", "--seconds", "2", "--trace", "0"],
        cwd=ROOT, env={**os.environ, name: value},
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
    )
    try:
        # The last of the set-up servers is the one that serves the run.
        servers: set[int] = set()
        deadline = time.monotonic() + 120
        while len(servers) < sw.SETUPS:
            assert proc.poll() is None and time.monotonic() < deadline
            servers |= {pid for pid, cmd in _marked(marker).items() if "repro serve" in cmd}
            time.sleep(0.01)
        time.sleep(1.0)
        assert proc.poll() is None
        proc.send_signal(signum)
        out, _ = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode != 0 and b'"metrics"' not in out
    deadline = time.monotonic() + 10
    while _marked(marker) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert _marked(marker) == {}


def test_tier1_collects_no_benchmark_test() -> None:
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q"],
        cwd=ROOT,
        env=common.program_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert "tests/" in proc.stdout
    assert "qvbench" not in proc.stdout


def test_refuses_to_run_without_program_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH, tmp_path / "qvbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    proc = _bench(
        "--workload", "exec_read", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
