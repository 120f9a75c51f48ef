"""Open-loop HTTP load generator for ``repro serve``.

One process, one thread, a ``selectors`` loop over a few keep-alive
connections.  Requests are due on a precomputed schedule (seeded Poisson
arrivals); a due request waits in the client backlog until a connection
is free, and its latency is timed from the moment it was due, so a server
stall is billed to every request it delays.  The loop also records how
late it noticed each due time (generator lateness) and the backlog depth,
which say whether a step's numbers are valid at all.

Request bodies are encoded before a phase starts, and response bodies are
kept undecoded (by digest), so the client's own cost per request stays a
small fraction of the server's.
"""

from __future__ import annotations

import gc
import hashlib
import random
import select
import selectors
import socket
import time
from collections import deque
from dataclasses import dataclass, field

#: A request that has no answer after this long counts as failed.
REQUEST_TIMEOUT_S = 15.0
#: How often a phase samples the machine's speed.
CALIBRATION_PERIOD_S = 0.5


@dataclass
class Outcome:
    """What the client saw for one request."""

    index: int
    due: float
    sent: float
    done: float
    status: int
    served: str
    digest: str


@dataclass
class PhaseResult:
    """Every outcome of one phase plus the generator's own health."""

    outcomes: list[Outcome]
    lateness: list[float]
    backlog: list[int]
    started: float
    finished: float
    bodies: dict[str, bytes] = field(default_factory=dict)
    #: Calibration pauses, ``(start, end, slowdown reading)``, each taken
    #: while nothing was in flight; the first just before the phase
    #: starts, the last just after it ends.
    calibrations: list[tuple[float, float, float]] = field(default_factory=list)

    def latencies_ms(self) -> list[float]:
        """Due-time latencies of the answered (HTTP 200) requests."""
        return sorted(
            (o.done - o.due) * 1000.0 for o in self.outcomes if o.status == 200
        )

    @property
    def paused(self) -> float:
        """Seconds of calibration pauses inside the phase."""
        return sum(end - start for start, end, _ in self.calibrations[1:-1])

    def stretches(self) -> list[tuple[float, float, float]]:
        """``(start, end, slowdown)`` of each stretch between pauses.

        No request is in flight at a pause, so every request lies in one
        stretch; a stretch's slowdown is the mean of the readings taken on
        either side of it.
        """
        readings = self.calibrations
        edges = [self.started]
        for start, end, _ in readings[1:-1]:
            edges += [start, end]
        edges.append(self.finished)
        return [
            (edges[2 * j], edges[2 * j + 1], (readings[j][2] + readings[j + 1][2]) / 2)
            for j in range(len(readings) - 1)
        ]


def poisson_offsets(rng: random.Random, rate: float, count: int) -> list[float]:
    """``count`` arrival offsets (seconds from phase start) at ``rate``/s."""
    offsets = []
    now = 0.0
    for _ in range(count):
        now += rng.expovariate(rate)
        offsets.append(now)
    return offsets


def http_post(path: str, body: bytes) -> bytes:
    """One keep-alive HTTP/1.1 POST request, encoded."""
    return (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode("ascii") + body


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, min(len(sorted_values), int(-(-fraction * len(sorted_values) // 1))))
    return sorted_values[rank - 1]


class _Connection:
    """One keep-alive connection carrying at most one request at a time."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.sock.setblocking(False)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.request: tuple[int, float, float] | None = None  # index, due, sent

    def send(self, payload: bytes) -> None:
        view = memoryview(payload)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                select.select([], [self.sock], [], 1.0)
                continue
            view = view[sent:]

    def parse(self) -> tuple[int, str, bytes] | None:
        """A complete response out of the buffer, or ``None`` if partial."""
        head_end = self.buffer.find(b"\r\n\r\n")
        if head_end < 0:
            return None
        head = bytes(self.buffer[:head_end]).decode("latin-1").split("\r\n")
        status = int(head[0].split()[1])
        length = 0
        served = ""
        for line in head[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "content-length":
                length = int(value)
            elif name == "x-repro-served":
                served = value.strip()
        end = head_end + 4 + length
        if len(self.buffer) < end:
            return None
        body = bytes(self.buffer[head_end + 4 : end])
        del self.buffer[:end]
        return status, served, body

    def close(self) -> None:
        self.sock.close()


def run_phase(
    host: str,
    port: int,
    payloads: list[bytes],
    offsets: list[float],
    connections: int,
    calibrate=None,
) -> PhaseResult:
    """Send ``payloads[i]`` when ``offsets[i]`` falls due; wait for all answers.

    ``calibrate``, when given, returns a slowdown reading of the CPU the
    server shares with this process; it is taken before the phase, about
    every :data:`CALIBRATION_PERIOD_S` during it, and after it.  It runs
    only while the server is idle: once it is due, no request is sent
    until every answer in flight is in, so the reading never includes the
    program's own work.  Requests that fall due meanwhile wait in the
    backlog and are timed from their due time as usual; the pauses are
    returned as ``calibrations``.

    A request whose connection breaks or that gets no answer within
    :data:`REQUEST_TIMEOUT_S` is recorded with status 0 (failed) and its
    connection is replaced.  The client's own garbage collector is off
    while the phase runs: a full collection over the run's requests and
    references would stall the generator and be billed to the server.
    """
    conns: list[_Connection] = []
    selector = selectors.DefaultSelector()
    idle: deque[_Connection] = deque()

    def open_connection() -> None:
        conn = _Connection(host, port)
        conns.append(conn)
        selector.register(conn.sock, selectors.EVENT_READ, conn)
        idle.append(conn)

    def finish(conn: _Connection, status: int, served: str, digest: str) -> None:
        index, due, sent = conn.request
        outcomes.append(Outcome(index, due, sent, clock(), status, served, digest))
        conn.request = None

    def drop(conn: _Connection) -> None:
        if conn.request is not None:
            finish(conn, 0, "", "")
        else:
            idle.remove(conn)
        selector.unregister(conn.sock)
        conn.close()
        conns.remove(conn)
        open_connection()

    backlog: deque[tuple[int, float]] = deque()
    outcomes: list[Outcome] = []
    lateness: list[float] = []
    depth: list[int] = []
    bodies: dict[str, bytes] = {}
    calibrations: list[tuple[float, float, float]] = []
    n = len(payloads)
    clock = time.perf_counter

    def pause() -> float:
        began = clock()
        reading = calibrate()
        resumed = clock()
        calibrations.append((began, resumed, reading))
        return resumed

    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(connections):
            open_connection()
        if calibrate is not None:
            pause()
        start = clock() + 0.005
        next_calibration = start + CALIBRATION_PERIOD_S
        calibration_due = False
        next_index = 0
        while next_index < n or backlog or len(idle) < len(conns):
            now = clock()
            if calibrate is not None and now >= next_calibration:
                calibration_due = True
            if calibration_due and len(idle) == len(conns):
                now = pause()
                calibration_due = False
                next_calibration = now + CALIBRATION_PERIOD_S
            while next_index < n and start + offsets[next_index] <= now:
                due = start + offsets[next_index]
                lateness.append(now - due)
                backlog.append((next_index, due))
                depth.append(len(backlog))
                next_index += 1
            while idle and backlog and not calibration_due:
                conn = idle.popleft()
                index, due = backlog.popleft()
                conn.request = (index, due, clock())
                conn.send(payloads[index])
            if next_index < n:
                timeout = max(0.0, start + offsets[next_index] - clock())
            else:
                timeout = 0.5
            for key, _events in selector.select(timeout):
                conn = key.data
                try:
                    chunk = conn.sock.recv(262144)
                except BlockingIOError:
                    continue
                except OSError:
                    chunk = b""
                if not chunk:
                    drop(conn)
                    continue
                conn.buffer += chunk
                parsed = conn.parse()
                if parsed is None:
                    continue
                status, served, body = parsed
                digest = hashlib.sha1(body).hexdigest()
                if status == 200 and digest not in bodies:
                    bodies[digest] = body
                finish(conn, status, served, digest)
                idle.append(conn)
            now = clock()
            for conn in list(conns):
                if conn.request is not None and now - conn.request[2] > REQUEST_TIMEOUT_S:
                    drop(conn)
        finished = clock()
        if calibrate is not None:
            pause()
    finally:
        if collecting:
            gc.enable()
        selector.close()
        for conn in conns:
            conn.close()
    return PhaseResult(
        outcomes=outcomes,
        lateness=lateness,
        backlog=depth,
        started=start,
        finished=finished,
        bodies=bodies,
        calibrations=calibrations,
    )
