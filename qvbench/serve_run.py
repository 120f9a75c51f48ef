"""One run of ``serve_zipf``.

``--trace 0``: after the warm-up, five cycles of an open-loop window
chunk (p50 from due time) and a closed-loop capacity chunk (``max_rps``,
and p99 of the time each request spent from send to answer), so both
sample the machine across the whole run; server CPU per request over
all of them.
``--trace 1``: the nominal window, as one chunk, twice on fresh servers,
plain then traced, with the same requests; the per-layer numbers come
from the traced one, and the CPU difference is the tracing overhead.

The server, this load generator and the calibration loop share one CPU
(``common.pin_to_one_cpu``), and timings are divided by the machine's
slowdown (``common.slowdown_sample``), read while the server has no
request in flight: before each server start for ``setup_s``, and around
and about every half second of the measured chunks for the rest.  Host
speed drifts within a run, so each capacity latency, and the time and
server CPU of each stretch of a chunk, is divided by the readings next
to it (``loadgen.PhaseResult.stretches``).  The window's p50 is not
divided: it does not follow the loop's speed (README.md).
"""

from __future__ import annotations

import json
import os
import sys
from collections import Counter
from pathlib import Path

import loadgen
import serve_workload as sw
import tracing
from common import (
    END_TO_END,
    PER_LAYER,
    ROOT,
    Report,
    log,
    median,
    pin_to_one_cpu,
    provenance,
    ratio,
    with_units,
)


def run(workload: str, seed: int, seconds: float, trace: bool) -> Report:
    inputs = sw.build_inputs(seed, seconds, capacity=not trace)
    log(
        f"{workload}: {len(inputs.requests)} requests, "
        f"{len(inputs.references)} distinct texts, chunks "
        + " ".join(f"{chunk.kind} {chunk.count}" for chunk in inputs.chunks)
    )
    stamp = provenance(workload, seed, inputs.digest())
    pin_to_one_cpu()
    if trace:
        return _traced(inputs, stamp)
    setup_slowdown: list[float] = []
    server, setup_s = sw.start_server(sw.plain_argv(), setup_slowdown)
    try:
        warm = sw.warm(server, inputs)
        steps = sw.run_chunks(server, inputs, calibrated=True)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    window = [s for chunk, s in zip(inputs.chunks, steps) if chunk.kind == "window"]
    capacity = [s for chunk, s in zip(inputs.chunks, steps) if chunk.kind == "capacity"]
    attempted, failed = sw.verify(inputs, [warm, *steps])
    answered = sum(step.answered for step in capacity)
    stamp["slowdown"] = {
        "setup": median(setup_slowdown),
        "window": median([x for step in window for x in step.readings()]),
        "capacity": median([x for step in capacity for x in step.readings()]),
    }
    stamp["traffic"] = sw.traffic(inputs, steps)
    latencies = sorted(x for step in window for x in step.result.latencies_ms())
    service = sorted(
        (o.done - o.sent) * 1000.0
        for step in capacity
        for o in step.result.outcomes
        if o.status == 200
    )
    log(
        f"  setup {setup_s:.3f} s; window: p50 {loadgen.percentile(latencies, 0.5):.2f} "
        f"p99 {loadgen.percentile(latencies, 0.99):.2f} ms from due time over "
        f"{len(latencies)}, late p99 {max(s.late_p99_ms for s in window):.2f} ms, backlog "
        f"max {max(s.backlog_max for s in window)}; capacity "
        f"{answered / sum(s.seconds for s in capacity):.1f}/s, p99 "
        f"{loadgen.percentile(service, 0.99):.2f} ms over {len(service)}; cpu "
        f"{sum(s.cpu_s for s in steps) * 1000.0 / sum(s.answered for s in steps):.3f} ms"
        " (all raw); slowdown "
        + " ".join(f"{stretch} {value:.3f}" for stretch, value in stamp["slowdown"].items())
    )
    for step in capacity:
        log(
            f"    capacity chunk: {step.answered / step.seconds:.1f}/s raw, "
            f"{step.answered / step.reference_seconds():.1f}/s, p99 "
            f"{loadgen.percentile(sorted(step.reference_service_ms()), 0.99):.2f} ms, "
            f"slowdown {median(step.readings()):.3f}"
        )
    values = {
        "setup_s": setup_s / median(setup_slowdown),
        # Not divided by the slowdown: at a third of capacity the window's
        # latency is mostly wake-ups and system calls, and it stayed flat
        # while the loop's readings moved by 40 % (README.md).
        "p50_ms": loadgen.percentile(latencies, 0.50),
        "p99_ms": loadgen.percentile(
            sorted(x for step in capacity for x in step.reference_service_ms()), 0.99
        ),
        "max_rps": answered / sum(step.reference_seconds() for step in capacity),
        "cpu_ms_per_req": sum(step.reference_cpu_s() for step in steps)
        * 1000.0 / sum(step.answered for step in steps),
        "peak_rss_mb": peak_rss,
        "ok_frac": ratio(attempted - failed, attempted),
    }
    return Report(
        failed == 0, attempted, failed, with_units(values, END_TO_END), stamp
    )


def _traced(inputs: sw.Inputs, stamp: dict) -> Report:
    plain = sw.Server(sw.plain_argv())
    try:
        plain_warm = sw.warm(plain, inputs)
        [plain_nominal] = sw.run_chunks(plain, inputs)
    finally:
        plain.stop()
    spans_path = ROOT / ".qvbench" / f"spans-{os.getpid()}.json"
    spans_path.parent.mkdir(exist_ok=True)
    traced = sw.Server(
        [sys.executable, str(Path(__file__).with_name("traced_serve.py")),
         str(spans_path), "serve", "--port", "0"]
    )
    try:
        warm = sw.warm(traced, inputs)
        [nominal] = sw.run_chunks(traced, inputs)
        stats = traced.stats()
    finally:
        traced.stop()
    try:
        dump = json.loads(spans_path.read_text())
    finally:
        spans_path.unlink(missing_ok=True)
    attempted, failed = sw.verify(inputs, [plain_warm, plain_nominal, warm, nominal])
    stamp["traffic"] = sw.traffic(inputs, [nominal])
    values = layer_metrics(inputs, nominal, dump, stats)
    values["trace.overhead_pct"] = ratio(
        (nominal.cpu_ms - plain_nominal.cpu_ms) * 100.0, plain_nominal.cpu_ms
    )
    return Report(failed == 0, attempted, failed, with_units(values, PER_LAYER), stamp)


def layer_metrics(inputs: sw.Inputs, nominal: sw.Step, dump: dict, stats: dict) -> dict:
    """Per-layer numbers of the traced nominal window.

    Client requests are joined to ``CompileService.compile`` spans by the
    text they carried and by time: a server span lies inside the client's
    send-to-answer interval on the shared monotonic clock.
    """
    spans = [tuple(span) for span in dump["spans"]]
    window = (nominal.result.started, nominal.result.finished)
    outcomes = [o for o in nominal.result.outcomes if o.status == 200]
    requests = len(outcomes)
    by_tag: dict[str, list] = {}
    for span in spans:
        if span[tracing.NAME] == "serve.service.compile":
            by_tag.setdefault(span[tracing.TAG], []).append(span)
    for group in by_tag.values():
        group.sort(key=lambda span: span[tracing.START])
    per_request: dict[int, dict[str, float]] = {}
    for span in spans:
        if span[tracing.RID] and span[tracing.PARENT] == 0:
            slot = per_request.setdefault(span[tracing.RID], Counter())
            slot[span[tracing.NAME]] += span[tracing.END] - span[tracing.START]
    http_self = service_self = latency = 0.0
    joined = 0
    for outcome in sorted(outcomes, key=lambda o: o.sent):
        tag = tracing.text_tag(inputs.requests[outcome.index].text)
        group = by_tag.get(tag, [])
        match = next(
            (s for s in group if outcome.sent <= s[tracing.START] and s[tracing.END] <= outcome.done),
            None,
        )
        if match is None:
            continue
        group.remove(match)
        joined += 1
        parts = per_request.get(match[tracing.RID], {})
        service = match[tracing.END] - match[tracing.START]
        children = sum(v for k, v in parts.items() if k != "serve.service.compile")
        latency += outcome.done - outcome.sent
        http_self += (outcome.done - outcome.sent) - service
        service_self += service - children
    self_s, calls, outer_s = tracing.layer_totals(spans, window)
    ms_per_request = lambda seconds: ratio(seconds * 1000.0, joined)  # noqa: E731
    served = Counter(o.served for o in outcomes)
    values: dict[str, float] = {
        "serve.http.self_ms": ms_per_request(http_self),
        "serve.service.self_ms": ms_per_request(service_self),
        "serve.service.lru_hit_ratio": ratio(served["lru"], requests),
        "serve.service.coalesced_ratio": ratio(served["coalesced"], requests),
        "serve.service.memo_hit_ratio": 1.0 - ratio(calls["pipeline.key"], requests),
        "serve.service.fp_wait_ms": ratio(
            outer_s["serve.service.fp_wait"] * 1000.0, calls["serve.service.fp_wait"]
        ),
        "serve.service.compile_wait_ms": ratio(
            outer_s["serve.service.compile_wait"] * 1000.0,
            calls["serve.service.compile_wait"],
        ),
        "serve.service.shed": stats.get("shed", 0),
        "serve.service.timeouts": stats.get("timeouts", 0),
        "pipeline.compile_ms": ratio(outer_s["pipeline.compile"] * 1000.0, calls["pipeline.compile"]),
        "pipeline.key_ms": ratio(outer_s["pipeline.key"] * 1000.0, calls["pipeline.key"]),
        "pipeline.cache_entries": dump["cache_entries"],
        "loadgen.late_p99_ms": nominal.late_p99_ms,
        "loadgen.backlog_max": nominal.backlog_max,
        "trace.latency_ms": ms_per_request(latency),
    }
    for stage, counter in stats.get("pipeline", {}).get("stages", {}).items():
        values[f"pipeline.{stage}.hit_ratio"] = ratio(
            counter["hits"], counter["hits"] + counter["misses"]
        )
    attributed = http_self + service_self
    for layer in ("serve.service.fp_wait", "serve.service.compile_wait", *tracing.STAGE_LAYERS):
        attributed += self_s[layer]
    for layer in tracing.STAGE_LAYERS:
        values[f"{layer}.busy_ms"] = ms_per_request(self_s[layer])
        values[f"{layer}.calls"] = calls[layer]
    values["trace.unattributed_ms"] = ms_per_request(latency - attributed)
    gen2 = [
        (end - start) * 1000.0
        for start, end, generation in dump["gc"]
        if generation == 2 and window[0] <= start <= window[1]
    ]
    values["gc.gen2_pause_max_ms"] = max(gen2, default=0.0)
    values["gc.gen2_pause_total_ms"] = sum(gen2)
    values["gc.collections"] = sum(
        1 for start, _end, _gen in dump["gc"] if window[0] <= start <= window[1]
    )
    log(
        f"  traced: {joined}/{requests} requests joined; mean latency "
        f"{values['trace.latency_ms']:.3f} ms = http {values['serve.http.self_ms']:.3f}"
        f" + service {values['serve.service.self_ms']:.3f} + waits/stages "
        f"{ms_per_request(attributed - http_self - service_self):.3f}"
        f" + unattributed {values['trace.unattributed_ms']:.3f}"
    )
    return values
