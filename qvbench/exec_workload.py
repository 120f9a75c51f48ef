"""``exec_read`` and ``exec_rw``: one closed-loop thread over the three engines.

A seeded stream of Chinook queries (the families of
``repro.workloads.execbench``, with literals drawn from pools) runs on the
rows, columnar and sql engines, each through its own ``BatchExecutor``
over its own copy of ``scaled_bench_database``.  Every step's three
results must agree under the four-engine differential contract (set
equality; order-aware for ranked queries).  ``exec_rw`` inserts a small
seeded batch into the fact tables of every copy before each step, and the
insert time counts toward that engine's elapsed time.

A run is a fixed number of rounds, not a wall-clock span: ``exec_rw``'s
tables grow with every step, so a run that stopped at a deadline would
measure a faster program on a larger database.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass
from itertools import groupby, product

from common import median, slowdown_sample

#: Realized size is a little under this (PlaylistTrack dedupes pairs).
#: Small enough that the quadratic sql ``>= ALL`` and the rows engine's
#: correlated ``EXISTS`` stay in the low milliseconds warm.
DATABASE_ROWS = 4000
#: The data is fixed, like a benchmark dataset at a scale factor; the
#: run's seed draws the query stream and the inserts.
DATABASE_SEED = 7
ENGINES = ("rows", "columnar", "sql")
SETUPS = 3

#: Rounds per second of ``--seconds``: about the rate at the calibration
#: loop's reference speed (the 2-vCPU virtual machine the sizes were
#: chosen on), so a run measures about ``--seconds`` there.
ROUNDS_PER_S = {"exec_read": 11.0, "exec_rw": 2.0}
#: A run still going after this many times ``--seconds`` stops at the next
#: round boundary, so a large regression ends in bounded time.
OVERRUN = 3.0

_GENRES = (1, 2, 3, 4)
_MEDIA = (1, 2)
_COUNTRIES = ("USA", "France", "Canada", "Germany", "Brazil")

#: (family, SQL template, literal pool).
FAMILIES: tuple[tuple[str, str, tuple[tuple, ...]], ...] = (
    (
        "join.genre",
        "SELECT A.Name FROM Artist A, Album AL, Track T "
        "WHERE A.ArtistId = AL.ArtistId AND AL.AlbumId = T.AlbumId AND T.GenreId = {0}",
        tuple((g,) for g in _GENRES),
    ),
    (
        "join.country",
        "SELECT T.Name FROM Track T, InvoiceLine IL, Invoice I "
        "WHERE T.TrackId = IL.TrackId AND IL.InvoiceId = I.InvoiceId "
        "AND I.BillingCountry = '{0}'",
        tuple((c,) for c in _COUNTRIES[:3]),
    ),
    (
        "join.media",
        "SELECT P.Name FROM Playlist P, PlaylistTrack PT, Track T "
        "WHERE P.PlaylistId = PT.PlaylistId AND PT.TrackId = T.TrackId "
        "AND T.MediaTypeId = {0}",
        tuple((m,) for m in _MEDIA),
    ),
    (
        "join.quantity",
        "SELECT C.LastName FROM Customer C, Invoice I, InvoiceLine IL "
        "WHERE C.CustomerId = I.CustomerId AND I.InvoiceId = IL.InvoiceId "
        "AND IL.Quantity >= {0}",
        ((1,), (2,), (3,)),
    ),
    (
        "in",
        "SELECT T.Name FROM Track T WHERE T.GenreId = {0} AND T.TrackId IN "
        "(SELECT PT.TrackId FROM PlaylistTrack PT)",
        tuple((g,) for g in _GENRES),
    ),
    (
        "not_in",
        "SELECT A.Name FROM Artist A WHERE A.ArtistId NOT IN "
        "(SELECT AL.ArtistId FROM Album AL WHERE AL.AlbumId <= {0})",
        ((20,), (50,), (100,)),
    ),
    (
        "exists",
        "SELECT C.LastName FROM Customer C WHERE C.Country = '{0}' AND EXISTS "
        "(SELECT I.InvoiceId FROM Invoice I "
        "WHERE I.CustomerId = C.CustomerId AND I.Total >= {1})",
        tuple(product(_COUNTRIES, (10, 25))),
    ),
    (
        "any",
        "SELECT T.Name FROM Track T WHERE T.GenreId = {0} AND T.Milliseconds > ANY "
        "(SELECT T2.Milliseconds FROM Track T2 WHERE T2.AlbumId = {1})",
        tuple(product(_GENRES, (1, 2, 3))),
    ),
    (
        "all",
        "SELECT T.Name FROM Track T WHERE T.MediaTypeId = {0} AND "
        "T.Milliseconds >= ALL (SELECT T2.Milliseconds FROM Track T2 "
        "WHERE T2.GenreId = {1})",
        tuple(product(_MEDIA, _GENRES)),
    ),
    (
        "group",
        "SELECT AL.Title, COUNT(T.TrackId) FROM Album AL, Track T "
        "WHERE AL.AlbumId = T.AlbumId AND T.GenreId = {0} GROUP BY AL.Title",
        tuple((g,) for g in _GENRES),
    ),
    (
        "global",
        "SELECT COUNT(IL.InvoiceLineId), SUM(IL.Quantity) FROM InvoiceLine IL "
        "WHERE IL.Quantity >= {0}",
        ((1,), (2,), (3,)),
    ),
    (
        "minmax",
        "SELECT MIN(T.Milliseconds), MAX(T.Milliseconds) FROM Track T "
        "WHERE T.GenreId = {0}",
        tuple((g,) for g in _GENRES),
    ),
    (
        "topk.distinct",
        "SELECT DISTINCT T.Milliseconds FROM Track T, Album AL "
        "WHERE T.AlbumId = AL.AlbumId ORDER BY T.Milliseconds LIMIT {0}",
        ((1,), (10,), (100,)),
    ),
    (
        "topk.scan",
        "SELECT T.Milliseconds FROM Track T ORDER BY T.Milliseconds DESC LIMIT {0}",
        ((1,), (10,), (100,)),
    ),
    (
        "topk.fk",
        "SELECT IL.InvoiceLineId FROM InvoiceLine IL, Invoice I "
        "WHERE IL.InvoiceId = I.InvoiceId ORDER BY IL.InvoiceLineId DESC LIMIT {0}",
        ((1,), (10,), (100,)),
    ),
)


def rounds_for(workload: str, seconds: float) -> int:
    """How many rounds a run of ``seconds`` makes."""
    return max(1, round(seconds * ROUNDS_PER_S[workload]))


def all_queries() -> list[str]:
    """Every (family, literal) combination: the warm-up pass."""
    return [
        template.format(*literals)
        for _name, template, pool in FAMILIES
        for literals in pool
    ]


def stream(seed: int, steps: int) -> list[str]:
    """``steps`` queries in rounds: each round runs every family once.

    Round order and literals are drawn from the seed, so the family mix is
    the same in every run and only the order and literals vary.
    """
    rng = random.Random(f"exec-stream:{seed}")
    out: list[str] = []
    while len(out) < steps:
        families = list(FAMILIES)
        rng.shuffle(families)
        for _name, template, pool in families:
            out.append(template.format(*rng.choice(pool)))
    return out[:steps]


class Inserter:
    """Seeded small insert batches into the fact tables (exec_rw)."""

    def __init__(self, seed: int, database) -> None:
        self._rng = random.Random(f"exec-inserts:{seed}")
        self._tracks = database.row_count("Track")
        self._customers = database.row_count("Customer")
        self._playlists = database.row_count("Playlist")
        self._invoices = database.row_count("Invoice")
        self._next_line = 1 + max(
            row["InvoiceLineId"] for row in database.relation("InvoiceLine")
        )
        self._next_invoice = 1 + max(
            row["InvoiceId"] for row in database.relation("Invoice")
        )
        self._pairs = {
            (row["PlaylistId"], row["TrackId"])
            for row in database.relation("PlaylistTrack")
        }

    def batch(self) -> list[tuple[str, dict]]:
        rng = self._rng
        rows: list[tuple[str, dict]] = []
        for _ in range(rng.randint(1, 3)):
            table = rng.choice(("InvoiceLine", "InvoiceLine", "PlaylistTrack", "Invoice"))
            if table == "InvoiceLine":
                rows.append((table, {
                    "InvoiceLineId": self._next_line,
                    "InvoiceId": rng.randint(1, self._invoices),
                    "TrackId": rng.randint(1, self._tracks),
                    "UnitPrice": 0.99,
                    "Quantity": rng.randint(1, 3),
                }))
                self._next_line += 1
            elif table == "Invoice":
                rows.append((table, {
                    "InvoiceId": self._next_invoice,
                    "CustomerId": rng.randint(1, self._customers),
                    "BillingCountry": rng.choice(_COUNTRIES),
                    "Total": round(rng.uniform(1, 30), 2),
                }))
                self._invoices = self._next_invoice
                self._next_invoice += 1
            else:
                pair = (rng.randint(1, self._playlists), rng.randint(1, self._tracks))
                if pair in self._pairs:
                    continue
                self._pairs.add(pair)
                rows.append((table, {"PlaylistId": pair[0], "TrackId": pair[1]}))
        return rows


# --------------------------------------------------------------------- #
# the differential contract
# --------------------------------------------------------------------- #


def _rows_match(expected: frozenset, actual: frozenset) -> bool:
    """Set equality; float aggregates may differ in the last ulps (sqlite)."""
    if expected == actual:
        return True
    if len(expected) != len(actual):
        return False

    def canonical(rows):
        return sorted(rows, key=lambda row: tuple(str(value) for value in row))

    for left_row, right_row in zip(canonical(expected), canonical(actual)):
        if len(left_row) != len(right_row):
            return False
        for left, right in zip(left_row, right_row):
            if isinstance(left, float) and isinstance(right, float):
                if not math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12):
                    return False
            elif left != right:
                return False
    return True


def _ranked_agree(query, database, reference, outcome) -> bool:
    """Equal ORDER BY key sequences; equal rows within each tie group,
    except the last group of a limited query, where only its size is fixed."""
    from repro.relational.resolve import order_key_position

    relations = [database.relation(table.name) for table in query.from_tables]
    slots = [
        order_key_position(item.column, query, relations) for item in query.order_by
    ]

    def groups(rows):
        key_of = lambda row: tuple(row[slot] for slot in slots)  # noqa: E731
        return [(key, set(group)) for key, group in groupby(rows, key=key_of)]

    expected, actual = groups(reference.rows), groups(outcome.rows)
    if [key for key, _ in expected] != [key for key, _ in actual]:
        return False
    for index, ((_, want), (_, got)) in enumerate(zip(expected, actual)):
        last = query.limit is not None and index == len(expected) - 1
        if (len(want) != len(got)) if last else (want != got):
            return False
    return True


def agree(query, database, reference, outcome) -> bool:
    """Whether ``outcome`` agrees with ``reference`` under the contract."""
    if outcome.columns != reference.columns:
        return False
    if len(outcome.as_set()) != len(outcome.rows):
        return False
    if query.order_by:
        return _ranked_agree(query, database, reference, outcome)
    return _rows_match(reference.as_set(), outcome.as_set())


# --------------------------------------------------------------------- #
# engines and the closed loop
# --------------------------------------------------------------------- #


@dataclass
class Engine:
    name: str
    database: object
    batch: object


@functools.cache
def _warm_queries() -> list:
    from repro.sql import parse

    return [parse(text) for text in all_queries()]


def fresh_engines() -> list[Engine]:
    """Three engines over identical databases, each warmed by one pass
    over every (family, literal) query."""
    from repro.relational import BatchExecutor, ExecutionMode
    from repro.workloads import scaled_bench_database

    modes = {
        "rows": ExecutionMode.PLANNED,
        "columnar": ExecutionMode.COLUMNAR,
        "sql": ExecutionMode.SQL,
    }
    engines = []
    for name in ENGINES:
        database = scaled_bench_database(total_rows=DATABASE_ROWS, seed=DATABASE_SEED)
        batch = BatchExecutor(database, mode=modes[name])
        for query in _warm_queries():
            batch.execute(query)
        engines.append(Engine(name, database, batch))
    return engines


def build_engines() -> tuple[list[Engine], float]:
    """:func:`fresh_engines`, :data:`SETUPS` times; returns the last set
    and the median set-up time, divided by the machine's slowdown sampled
    around the builds."""
    _warm_queries()
    times = []
    slowdown = [slowdown_sample()]
    for _ in range(SETUPS):
        started = time.perf_counter()
        engines = fresh_engines()
        times.append(time.perf_counter() - started)
        slowdown.append(slowdown_sample())
    return engines, median(times) / median(slowdown)


@dataclass
class Phase:
    """Per-engine samples of one timed stretch of the stream."""

    steps: int
    latency_ms: dict[str, list[float]]
    elapsed_s: dict[str, float]
    #: Steps on which some engine disagreed with the rows engine.
    failed: int
    #: Per round: (engine seconds, CPU seconds) summed over the engines.
    rounds: list[tuple[float, float]]
    #: Per round: the machine's slowdown sampled after it.
    slowdowns: list[float]

    @property
    def queries(self) -> int:
        return self.steps * len(ENGINES)

    def round_rates(self) -> list[float]:
        """Queries per engine-second in each round."""
        per_round = len(FAMILIES) * len(ENGINES)
        return [per_round / wall for wall, _cpu in self.rounds if wall > 0]

    def round_cpu_ms(self) -> list[float]:
        """CPU milliseconds per query in each round."""
        per_round = len(FAMILIES) * len(ENGINES)
        return [cpu * 1000.0 / per_round for _wall, cpu in self.rounds]


def run_phase(
    engines: list[Engine], queries: list, batches: list, time_limit: float
) -> Phase:
    """Run ``queries`` (whole rounds), inserting ``batches[i]`` into every
    engine's database before step ``i``.

    Stops early, at a round boundary, only once ``time_limit`` seconds
    have passed.  Every timing is divided by the slowdown sampled right
    after its round, so rounds run while other tenants load the machine
    compare with rounds run while it is idle.
    """
    latency = {engine.name: [] for engine in engines}
    elapsed = {engine.name: 0.0 for engine in engines}
    pending = {engine.name: [] for engine in engines}
    rounds: list[tuple[float, float]] = []
    slowdowns: list[float] = []
    round_wall = round_cpu = 0.0
    failed = 0
    clock, cpu_clock = time.perf_counter, time.process_time
    deadline = clock() + time_limit
    for index, (query, batch) in enumerate(zip(queries, batches)):
        results = []
        for engine in engines:
            c0 = cpu_clock()
            t0 = clock()
            for table, row in batch:
                engine.database.insert(table, row)
            result = engine.batch.execute(query)
            t1 = clock()
            round_cpu += cpu_clock() - c0
            round_wall += t1 - t0
            pending[engine.name].append(t1 - t0)
            results.append(result)
        reference = results[0]
        if not all(
            agree(query, engines[0].database, reference, outcome)
            for outcome in results[1:]
        ):
            failed += 1
        if (index + 1) % len(FAMILIES) == 0:
            slowdown = slowdown_sample(2)
            for name, samples in pending.items():
                latency[name] += [x * 1000.0 / slowdown for x in samples]
                elapsed[name] += sum(samples) / slowdown
                samples.clear()
            rounds.append((round_wall / slowdown, round_cpu / slowdown))
            slowdowns.append(slowdown)
            round_wall = round_cpu = 0.0
            if clock() >= deadline:
                break
    return Phase(len(rounds) * len(FAMILIES), latency, elapsed, failed, rounds, slowdowns)
