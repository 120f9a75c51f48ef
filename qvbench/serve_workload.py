"""``serve_zipf``: open-loop traffic against ``repro serve``.

The server is a ``repro serve`` subprocess with default flags (single
process, no disk cache).  Inputs are generated here from the seed and
handed to the server only as HTTP requests: ``QueryGenerator`` queries
drawn Zipf-skewed from a pool several times larger than the response LRU,
a share of them re-spelled.  Every answer is checked against a cache-free
in-process ``DiagramCompiler(cache=False)``; the references are computed
by two worker processes before the server starts, so they never compete
with it for the CPU.
"""

from __future__ import annotations

import bisect
import ctypes
import hashlib
import http.client
import json
import multiprocessing
import os
import random
import re
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import loadgen
from common import ROOT, median, program_env, slowdown_sample

FORMATS = ("svg", "dot", "text")
#: Every non-empty subset of the output formats, in a fixed order.
FORMAT_SETS = tuple(
    tuple(fmt for bit, fmt in enumerate(FORMATS) if mask >> bit & 1)
    for mask in range(1, 8)
)
SCHEMA_NAMES = ("sailors", "beers", "chinook")
#: ``QueryGenerator`` depth: blocks nest 0..6 deep (drawn per query).
MAX_DEPTH = 6
#: Connections the client keeps open (at most ``nproc``).
CONNECTIONS = min(2, os.cpu_count() or 1)
#: Setups per run; ``setup_s`` is their median.
SETUPS = 3
#: How long a calibration pause waits, once the last answer is in, before
#: it reads the server's CPU time and the machine's speed: the server still
#: has work to finish after it writes an answer (the rest of the request's
#: coroutine, bookkeeping), and on the shared CPU that work would run
#: inside the calibration loop.
SETTLE_S = 0.001

#: Nominal arrival rate (requests/s) of the open-loop window.  It keeps
#: the server about a third busy, so the window measures answers rather
#: than a queue that a burst of contention on the machine would grow.
RATE = 300.0
#: Share of ``--seconds`` the open-loop window lasts.
WINDOW_SHARE = 0.5
#: Requests, per second of ``--seconds``, sent as fast as the connections
#: allow before the window (cache fill, lazy imports) and in the
#: closed-loop capacity phase behind ``max_rps``.
WARMUP_PER_S = 100.0
CAPACITY_PER_S = 350.0
#: The window and the capacity phase alternate in this many chunks each,
#: so both sample the machine across the whole run rather than in one
#: stretch each: host speed drifts over seconds.
CYCLES = 5

#: Traffic assumptions.  No measured query log stands behind these
#: values; they set how often the text memo, the response LRU and the
#: compile path answer, so every run reports the shares they produce
#: (:func:`traffic`) and README.md lists them.
#:
#: Pool size (four times the 1,024-entry response LRU), rank-frequency
#: exponent, and the share of repeat draws that re-spell the text; the
#: re-spelling kind and the requested formats (one of the 7 non-empty
#: subsets) are drawn uniformly.
ZIPF_POOL = 4096
ZIPF_SKEW = 1.2
#: The pool and its popularity order are a fixed corpus, like a benchmark
#: dataset; the run's seed draws the traffic (which entries, which
#: spellings, when), so runs differ in sampling, not in what is cheap.
CORPUS_SEED = 7
RESPELL_SHARE = 0.15
RESPELLINGS = ("ws", "order", "alias")


@dataclass(frozen=True)
class Request:
    text: str
    formats: tuple[str, ...]
    #: ``canonical`` or the re-spelling kind (one of :data:`RESPELLINGS`).
    kind: str = "canonical"

    def payload(self) -> bytes:
        body = json.dumps({"sql": self.text, "formats": list(self.formats)})
        return loadgen.http_post("/compile", body.encode("utf-8"))


@dataclass(frozen=True)
class Reference:
    """What a cache-free compile of one text produces."""

    fingerprint: str
    roles: str
    digests: dict

    @property
    def key(self) -> tuple[str, str]:
        return self.fingerprint, self.roles


# --------------------------------------------------------------------- #
# input generation (runs in worker processes)
# --------------------------------------------------------------------- #

_WORKER: dict = {}


def _worker_state() -> dict:
    if not _WORKER:
        from repro.catalog.builtin import beers_schema, sailors_schema
        from repro.catalog.chinook import chinook_schema
        from repro.pipeline import DiagramCompiler
        from repro.workloads import QueryGenConfig, QueryGenerator

        config = QueryGenConfig(max_depth=MAX_DEPTH)
        _WORKER["generators"] = {
            "sailors": QueryGenerator(sailors_schema(), config),
            "beers": QueryGenerator(beers_schema(), config),
            "chinook": QueryGenerator(chinook_schema(), config),
        }
        _WORKER["compiler"] = DiagramCompiler(cache=False)
    return _WORKER


def _digest(text: str) -> str:
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def _reference(text: str, formats: tuple[str, ...]) -> Reference:
    artifact = _worker_state()["compiler"].compile(text, formats=formats)
    return Reference(
        artifact.fingerprint,
        repr(artifact.roles),
        {fmt: _digest(artifact.output(fmt)) for fmt in formats},
    )


def _draw(label: str) -> tuple[str, tuple[str, ...], int]:
    rng = random.Random(label)
    return rng.choice(SCHEMA_NAMES), rng.choice(FORMAT_SETS), rng.getrandbits(32)


def _generate(schema: str, query_seed: int):
    return _worker_state()["generators"][schema].generate(query_seed)


def _reorder(query):
    """The same query with every block's WHERE predicates reversed."""
    from repro.sql.ast import Exists

    where = tuple(
        replace(p, query=_reorder(p.query)) if isinstance(p, Exists) else p
        for p in reversed(query.where)
    )
    return replace(query, where=where)


_ALIAS = re.compile(r"\b([A-Z])(\d+)\b")


def respell(query, kind: str) -> str:
    """One re-spelling of ``query``: whitespace, predicate order or aliases."""
    from repro.sql.formatter import format_inline, format_query

    if kind == "ws":
        return format_inline(query)
    if kind == "order":
        return format_query(_reorder(query))
    return _ALIAS.sub(r"\1\2x", format_query(query))


def zipf_text(job: tuple[int, str]) -> tuple[Request, Reference]:
    """Pool entry ``entry`` in spelling ``kind``, with its reference.

    References carry every format: equivalent spellings share the
    diagram, layout and render caches, so any member of a class may have
    produced the output another member is served.
    """
    from repro.sql.formatter import format_query

    entry, kind = job
    schema, formats, query_seed = _draw(f"zipf-entry:{CORPUS_SEED}:{entry}")
    query = _generate(schema, query_seed)
    text = format_query(query) if kind == "canonical" else respell(query, kind)
    return Request(text, formats, kind), _reference(text, FORMATS)


_PR_SET_PDEATHSIG = 1


def _die_with_parent(parent: int):
    """A hook, run first in a child, after which the kernel kills the
    child when ``parent`` dies, even by SIGKILL, so nothing this
    benchmark starts outlives it."""
    libc = ctypes.CDLL(None, use_errno=True)

    def arm() -> None:
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
        if os.getppid() != parent:  # the parent died before the call
            os._exit(1)

    return arm


def _pool_map(function, jobs: list) -> list:
    """``map`` over two forked worker processes (one when there is one CPU).

    Forked, not spawned: the ``spawn`` and ``forkserver`` pools start a
    resource-tracker process that nobody waits for and that outlives the
    run.  This process runs no threads yet, so forking it is safe.  The
    workers are stopped and waited for on every path out, and die with
    this process if it is killed.
    """
    workers = min(2, os.cpu_count() or 1)
    if workers == 1 or len(jobs) < 64:
        return [function(job) for job in jobs]
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_die_with_parent(os.getpid())
    )
    try:
        return pool.map(function, jobs, chunksize=32)
    finally:
        pool.terminate()
        pool.join()


# --------------------------------------------------------------------- #
# the request stream of one run
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class Chunk:
    """One stretch of the stream after the warm-up, sent as one phase."""

    #: ``window`` (open loop at :data:`RATE`) or ``capacity`` (closed loop).
    kind: str
    first: int
    count: int
    #: Window due times, in seconds from the chunk's start.
    offsets: tuple[float, ...] = ()


@dataclass
class Inputs:
    """Requests in send order plus what each must be answered with."""

    requests: list[Request]
    references: dict[str, Reference]
    warmup: int
    #: After the warm-up, in send order.
    chunks: list[Chunk]

    def first_sent(self) -> dict[str, int]:
        """Index of the first request that carries each text."""
        first: dict[str, int] = {}
        for index, request in enumerate(self.requests):
            first.setdefault(request.text, index)
        return first

    def digest(self) -> str:
        from common import digest_of

        return digest_of(
            [[r.text, list(r.formats)] for r in self.requests]
            + [[c.kind, c.count, [round(x, 9) for x in c.offsets]] for c in self.chunks]
        )


def sizes(seconds: float) -> tuple[int, int, int]:
    """(warm-up, nominal window, capacity phase) request counts."""
    return (
        max(10, int(WARMUP_PER_S * seconds)),
        max(60, int(RATE * WINDOW_SHARE * seconds)),
        max(60, int(CAPACITY_PER_S * seconds)),
    )


def build_inputs(seed: int, seconds: float, capacity: bool = True) -> Inputs:
    """The run's requests: the warm-up, then :data:`CYCLES` cycles of a
    window chunk and a capacity chunk; without ``capacity``, the warm-up
    and the whole window as one chunk."""
    warmup, nominal, closed = sizes(seconds)
    cycles = CYCLES if capacity else 1
    arrivals = random.Random(f"arrivals:{seed}")
    chunks = []
    first = warmup
    for cycle in range(cycles):
        count = _part(nominal, cycles, cycle)
        offsets = tuple(loadgen.poisson_offsets(arrivals, RATE, count))
        chunks.append(Chunk("window", first, count, offsets))
        first += count
        if capacity:
            count = _part(closed, cycles, cycle)
            chunks.append(Chunk("capacity", first, count))
            first += count
    requests, references = _zipf_stream(seed, first)
    return Inputs(requests, references, warmup, chunks)


def _part(total: int, parts: int, index: int) -> int:
    """Size of part ``index`` when ``total`` is split into ``parts``."""
    return total * (index + 1) // parts - total * index // parts


def _zipf_stream(seed: int, total: int):
    """Zipf-skewed draws from the pool; a share re-spell an earlier text."""
    from repro.workloads import zipf_sampler

    rng = random.Random(f"zipf-stream:{seed}")
    rank = zipf_sampler(rng, ZIPF_POOL, ZIPF_SKEW)
    order = list(range(ZIPF_POOL))
    random.Random(f"zipf-order:{CORPUS_SEED}").shuffle(order)
    picks: list[tuple[int, str]] = []
    sent: set[int] = set()
    for _ in range(total):
        entry = order[rank() - 1]
        kind = "canonical"
        if entry in sent and rng.random() < RESPELL_SHARE:
            kind = rng.choice(RESPELLINGS)
        sent.add(entry)
        picks.append((entry, kind))
    distinct = sorted(set(picks))
    made = dict(zip(distinct, _pool_map(zipf_text, distinct)))
    references = {request.text: reference for request, reference in made.values()}
    return [made[pick][0] for pick in picks], references


# --------------------------------------------------------------------- #
# the server under test
# --------------------------------------------------------------------- #


class Server:
    """A ``repro serve`` subprocess; ``argv`` picks plain or traced."""

    def __init__(self, argv: list[str]) -> None:
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=program_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            preexec_fn=_die_with_parent(os.getpid()),
        )
        line = self._readline(deadline=started + 60.0)
        match = re.search(rb"serving on http://([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.setup_s = time.perf_counter() - started
        self.host = match.group(1).decode()
        self.port = int(match.group(2))

    def _readline(self, deadline: float) -> bytes:
        while True:
            remaining = deadline - time.perf_counter()
            ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
            if not ready:
                return b"<timeout>"
            line = self.proc.stdout.readline()
            if not line or b"serving on" in line:
                return line

    def cpu_s(self) -> float:
        """utime + stime of the server process, in seconds."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        return 0.0

    def stats(self) -> dict:
        conn = http.client.HTTPConnection(self.host, self.port, timeout=10)
        try:
            conn.request("GET", "/stats")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def stop(self) -> int:
        """SIGTERM (graceful drain), then wait; kill if it does not exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def plain_argv() -> list[str]:
    return [sys.executable, "-m", "repro", "serve", "--port", "0"]


def start_server(argv: list[str], slowdowns: list[float]) -> tuple[Server, float]:
    """Start the server :data:`SETUPS` times; keep the last one.

    Returns it with the median time from spawn to ``serving on``.  Before
    each spawn, while no server runs, a speed sample is appended to
    ``slowdowns``.
    """
    times = []
    for attempt in range(SETUPS):
        slowdowns.append(slowdown_sample(5))
        server = Server(argv)
        times.append(server.setup_s)
        if attempt < SETUPS - 1:
            server.stop()
    return server, median(times)


# --------------------------------------------------------------------- #
# phases
# --------------------------------------------------------------------- #


@dataclass
class Step:
    """One phase of the run."""

    result: loadgen.PhaseResult
    #: Server CPU seconds over the phase.
    cpu_s: float
    #: Server CPU seconds read at each calibration pause (the server is
    #: idle then), in the order of ``result.calibrations``.
    cpu_marks: list[float] = field(default_factory=list)

    @property
    def answered(self) -> int:
        return sum(1 for o in self.result.outcomes if o.status == 200)

    @property
    def cpu_ms(self) -> float:
        """Server CPU milliseconds per answered request."""
        return self.cpu_s * 1000.0 / max(self.answered, 1)

    @property
    def seconds(self) -> float:
        """Length of the phase, calibration pauses left out."""
        return self.result.finished - self.result.started - self.result.paused

    def readings(self) -> list[float]:
        return [reading for _, _, reading in self.result.calibrations]

    def reference_seconds(self) -> float:
        """:attr:`seconds` at the reference speed: each stretch between
        calibration pauses divided by its slowdown."""
        return sum(
            (end - start) / slowdown for start, end, slowdown in self.result.stretches()
        )

    def reference_cpu_s(self) -> float:
        """:attr:`cpu_s` at the reference speed: the server CPU of each
        stretch divided by its slowdown."""
        return sum(
            (after - before) / slowdown
            for before, after, (_, _, slowdown) in zip(
                self.cpu_marks, self.cpu_marks[1:], self.result.stretches()
            )
        )

    def reference_service_ms(self) -> list[float]:
        """Send-to-answer times of the answered requests, each divided by
        its stretch's slowdown."""
        stretches = self.result.stretches()
        starts = [start for start, _, _ in stretches]
        return [
            (o.done - o.sent) * 1000.0
            / stretches[max(0, bisect.bisect_right(starts, o.sent) - 1)][2]
            for o in self.result.outcomes
            if o.status == 200
        ]

    @property
    def late_p99_ms(self) -> float:
        return loadgen.percentile(sorted(x * 1000 for x in self.result.lateness), 0.99)

    @property
    def backlog_max(self) -> int:
        return max(self.result.backlog, default=0)


def run_step(
    server: Server, inputs: Inputs, first: int, count: int,
    offsets: tuple[float, ...], calibrated: bool = False,
) -> Step:
    """Send requests ``first .. first+count``.

    ``offsets`` are due times from the phase start (open loop); empty
    sends every request as soon as a connection is free (closed loop).
    ``calibrated`` takes speed readings around and during the phase,
    each while no request is in flight, and reads the server's CPU time
    at each.
    """
    payloads = [r.payload() for r in inputs.requests[first : first + count]]
    cpu_marks: list[float] = []

    def calibrate() -> float:
        time.sleep(SETTLE_S)
        cpu_marks.append(server.cpu_s())
        return slowdown_sample(1)

    before = server.cpu_s()
    result = loadgen.run_phase(
        server.host, server.port, payloads, list(offsets) or [0.0] * count,
        CONNECTIONS, calibrate if calibrated else None,
    )
    cpu_s = server.cpu_s() - before
    for outcome in result.outcomes:
        outcome.index += first
    return Step(result, cpu_s, cpu_marks)


def warm(server: Server, inputs: Inputs) -> Step:
    """The warm-up prefix, closed loop."""
    return run_step(server, inputs, 0, inputs.warmup, ())


def run_chunks(server: Server, inputs: Inputs, calibrated: bool = False) -> list[Step]:
    """Every chunk after the warm-up, in send order.

    A capacity chunk is a closed loop over every connection: with a
    request always waiting, the backlog is full and the answer rate is
    the server's capacity, the highest rate it can be offered without the
    backlog growing.
    """
    return [
        run_step(server, inputs, chunk.first, chunk.count, chunk.offsets, calibrated)
        for chunk in inputs.chunks
    ]


def traffic(inputs: Inputs, steps: list[Step]) -> dict:
    """What the traffic assumptions produce over ``steps``.

    The assumed parameters, then shares of the steps' requests: whose
    exact text was sent earlier in the run (the text memo can answer
    them), that re-spell an earlier text, and that the response LRU, a
    coalesced compile or a compile of their own answered
    (``X-Repro-Served``).
    """
    first_sent = inputs.first_sent()
    outcomes = [o for step in steps for o in step.result.outcomes]
    answered = [o for o in outcomes if o.status == 200]
    sent = [(o.index, inputs.requests[o.index]) for o in outcomes]

    def share(count: int, whole: list) -> float:
        return round(count / max(len(whole), 1), 4)

    return {
        "zipf_skew": ZIPF_SKEW,
        "zipf_pool": ZIPF_POOL,
        "respell_share": RESPELL_SHARE,
        "requests": len(outcomes),
        "text_repeat": share(sum(first_sent[r.text] < i for i, r in sent), outcomes),
        "respelled": share(sum(r.kind != "canonical" for _, r in sent), outcomes),
        **{
            f"served_{layer}": share(sum(o.served == layer for o in answered), answered)
            for layer in ("lru", "coalesced", "compile")
        },
    }


# --------------------------------------------------------------------- #
# reference check
# --------------------------------------------------------------------- #


def verify(inputs: Inputs, steps: list[Step]) -> tuple[int, int]:
    """(attempted, failed): every answer against the cache-free compiler.

    An answer is right when its fingerprint is the text's own and each
    output equals the cache-free output of the text itself or of a
    spelling sent earlier in the same ``(fingerprint, roles)`` class —
    the dedupe contract of ``DiagramCompiler``.
    """
    first_sent = inputs.first_sent()
    members: dict[tuple[str, str], list[tuple[int, Reference]]] = {}
    for text, index in first_sent.items():
        reference = inputs.references[text]
        members.setdefault(reference.key, []).append((index, reference))
    decoded: dict[str, tuple[str, dict]] = {}
    attempted = failed = 0
    for step in steps:
        for outcome in step.result.outcomes:
            attempted += 1
            if outcome.status != 200:
                failed += 1
                continue
            if outcome.digest not in decoded:
                payload = json.loads(step.result.bodies[outcome.digest])
                decoded[outcome.digest] = (
                    payload["fingerprint"],
                    {fmt: _digest(out) for fmt, out in payload["outputs"].items()},
                )
            fingerprint, outputs = decoded[outcome.digest]
            request = inputs.requests[outcome.index]
            reference = inputs.references[request.text]
            ok = fingerprint == reference.fingerprint and set(outputs) == set(
                request.formats
            )
            if ok:
                earlier = [
                    ref
                    for index, ref in members[reference.key]
                    if index <= outcome.index
                ]
                ok = all(
                    any(ref.digests.get(fmt) == digest for ref in earlier)
                    for fmt, digest in outputs.items()
                )
            if not ok:
                failed += 1
    return attempted, failed
