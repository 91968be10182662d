"""The ``serve-mixed`` workload: ``repro serve`` over HTTP, open loop.

The server runs in its own process over a streaming store whose ingest
log (WAL) is seeded with TPC-H rows.  One asyncio client, with at most
``MAX_CONNECTIONS`` connections, sends on a fixed schedule:

* text queries (``render_predicate`` of a balanced TPC-H stream) at
  ``QUERY_RATE`` per second, a rate a 2-core machine keeps up with;
* a ``POST /ingest`` of ``BATCH_ROWS`` rows every ``INGEST_INTERVAL``;
* a ``POST /reorg`` after every ``REORG_EVERY``-th ingest: periodic
  consolidation that bounds fragmentation, pipelined by the server.

Every latency is counted from when the request was due, so a stall
also charges the requests queued behind it.  How late the generator
itself woke is recorded; a run in which it fell behind by more than
``MAX_LATENESS_S`` is marked invalid.

Each query's count must lie between the oracle over the rows
acknowledged before it was sent and the oracle over the rows whose
ingest was sent before its reply arrived.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import selectors
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from common import (
    HostSpeed,
    Outcome,
    balanced_stream,
    latency_metrics,
    layer_metrics,
    median,
    peak_rss_mb_of,
    percentile,
    seeded_rng,
    tree_bytes,
)
from spans import Span, SpanTree, clock

from repro.engine.factory import StoreDir, StoreManifest
from repro.queries.parser import render_predicate
from repro.storage.table import Table
from repro.workloads import tpch

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: rows the WAL holds before the server starts, and rows per ingest
SEEDED_ROWS = {"full": 30_000, "tiny": 3_000}
BATCH_ROWS = {"full": 2_000, "tiny": 500}
#: the traffic mix (fixed here, not by a flag)
QUERY_RATE = 4.0
INGEST_INTERVAL_S = 2.0
REORG_EVERY = 5
REORG_DELAY_S = 1.0
MAX_CONNECTIONS = 2
SERVER_WORKERS = 2
MAX_LATENESS_S = 0.1
#: server starts timed per run; ``setup_s`` is their median
SETUP_REPEATS = 5
#: span ids of the server process are shifted past the client's
SERVER_ID_OFFSET = 1 << 40


@dataclass
class _Op:
    kind: str  # "query", "ingest" or "reorg"
    due: float  # seconds after the schedule's origin
    rid: int
    body: bytes
    index: int = 0  # query or batch index
    woke: float = 0.0
    sent: float = 0.0
    replied: float = 0.0
    status: int = 0
    payload: Any = None

    @property
    def path(self) -> str:
        return f"/{self.kind}?rid={self.rid}"


def _schedule(texts: list[str], batches: list[Table]) -> list[_Op]:
    ops: list[_Op] = []
    for index, text in enumerate(texts):
        body = json.dumps({"where": text}).encode()
        ops.append(_Op("query", (index + 0.5) / QUERY_RATE, 0, body, index))
    for index, batch in enumerate(batches):
        due = 1.0 + index * INGEST_INTERVAL_S
        columns = {name: batch[name].tolist() for name in batch.schema.names()}
        ops.append(_Op("ingest", due, 0, json.dumps({"columns": columns}).encode(), index))
        if (index + 1) % REORG_EVERY == 0:
            ops.append(_Op("reorg", due + REORG_DELAY_S, 0, b"{}"))
    ops.sort(key=lambda op: op.due)
    for rid, op in enumerate(ops, start=1):
        op.rid = rid
    return ops


async def _http(port: int, method: str, path: str, body: bytes) -> tuple[int, Any]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()
        raw = await reader.read()
    finally:
        writer.close()
        with contextlib.suppress(ConnectionError):
            await writer.wait_closed()
    header, _, payload = raw.partition(b"\r\n\r\n")
    status = int(header.split(b" ", 2)[1])
    return status, json.loads(payload) if payload else None


async def _drive(port: int, ops: list[_Op], host: HostSpeed | None) -> float:
    """Send every op on schedule, sampling the host's speed once a second
    if ``host`` is given; returns the schedule's origin.

    A sample holds the event loop for ~15 ms, which may delay one send
    or one reply's time stamp by as much.
    """
    slots = asyncio.Semaphore(MAX_CONNECTIONS)
    origin = clock() + 0.2

    async def calibrate() -> None:
        for tick in range(int(ops[-1].due) + 1):
            await asyncio.sleep(max(0.0, origin + tick + 0.5 - clock()))
            host.sample()

    async def one(op: _Op) -> None:
        await asyncio.sleep(max(0.0, origin + op.due - clock()))
        op.woke = clock()
        async with slots:
            op.sent = clock()
            try:
                op.status, op.payload = await _http(port, "POST", op.path, op.body)
            except OSError as error:
                op.status, op.payload = 0, str(error)
            op.replied = clock()

    await asyncio.gather(*(one(op) for op in ops), *([calibrate()] if host else []))
    return origin


class _Server:
    """One server process; ``setup_s`` is spawn to 'serving on'."""

    def __init__(self, command: list[str], log: Path):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        start = clock()
        self._log = open(log, "ab")
        self.process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=self._log
        )
        try:
            line = self._read_announce(timeout=120.0)
            match = re.search(rb"serving on http://[^:]+:(\d+)", line)
            if match is None:
                raise RuntimeError(f"server did not announce a port: {line!r}")
        except BaseException:
            self.kill()
            raise
        self.setup_s = clock() - start
        self.port = int(match.group(1))

    def _read_announce(self, timeout: float) -> bytes:
        assert self.process.stdout is not None
        with selectors.DefaultSelector() as selector:
            selector.register(self.process.stdout, selectors.EVENT_READ)
            if not selector.select(timeout):
                raise RuntimeError("server did not start in time")
        return self.process.stdout.readline()

    def get(self, path: str) -> Any:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=30) as reply:
            return json.loads(reply.read())

    def wait_idle(self, timeout: float = 120.0) -> dict[str, Any]:
        """Poll /stats until no reorganization is in flight."""
        deadline = clock() + timeout
        while True:
            stats = self.get("/stats")
            if not stats["reorg_active"] or clock() > deadline:
                return stats
            time.sleep(0.05)

    def post(self, path: str) -> Any:
        request = urllib.request.Request(
            f"http://127.0.0.1:{self.port}{path}", data=b"{}", method="POST"
        )
        with urllib.request.urlopen(request, timeout=60) as reply:
            return json.loads(reply.read())

    def shutdown(self) -> None:
        """Graceful shutdown through the API; waits for the process to end."""
        try:
            self.post("/shutdown")
            self.process.wait(timeout=120)
        except (OSError, subprocess.TimeoutExpired):
            self.kill()
        finally:
            self._close_pipes()
        if self.process.returncode != 0:
            raise RuntimeError(f"server exited with {self.process.returncode}")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.process.stdout is not None:
            self.process.stdout.close()
        self._log.close()


def run_serve_mixed(workdir: Path, seed: int, seconds: int, reference: dict[str, Any] | None, scale: str) -> Outcome:
    seeded_rows, batch_rows = SEEDED_ROWS[scale], BATCH_ROWS[scale]
    num_batches = max(1, int(seconds // INGEST_INTERVAL_S))
    schema = tpch.make_schema()
    templates = tpch.make_templates()
    # Whole cycles over the templates, so every seed sends the same mix.
    cycles = max(1, round(seconds * QUERY_RATE / len(templates)))
    table = tpch.make_table(seeded_rows + num_batches * batch_rows, seeded_rng(seed, 1))
    seeded = table.take(np.arange(seeded_rows))
    batches = [
        table.take(np.arange(seeded_rows + i * batch_rows, seeded_rows + (i + 1) * batch_rows))
        for i in range(num_batches)
    ]
    queries = balanced_stream(templates, cycles, 1, seeded_rng(seed, 2))
    texts = [render_predicate(query.predicate, schema) for query in queries]
    ops = _schedule(texts, batches)

    store = StoreDir.initialize(
        workdir / "store",
        StoreManifest(
            schema=schema,
            builder={"kind": "range", "column": "o_orderdate"},
            engine={"num_partitions": 8, "async_reorg": True},
        ),
    )
    for start in range(0, seeded_rows, batch_rows):
        store.append_batch(seeded.take(np.arange(start, min(start + batch_rows, seeded_rows))))

    outcome = Outcome(attempted=len(ops))
    log = workdir / "server.log"
    cli = [sys.executable, "-m", "repro.cli", "serve", str(store.root), "--port", "0",
           "--workers", str(SERVER_WORKERS)]
    spans_path = workdir / "spans.json"
    launcher = [sys.executable, str(BENCH_DIR / "serve_traced.py"), str(store.root),
                str(spans_path), str(SERVER_WORKERS)]

    setups: list[float] = []
    # Traced, the kernel's time would be time no layer span explains.
    host = HostSpeed() if reference is None else None
    server = None
    try:
        for _ in range(SETUP_REPEATS if reference is None else 1):
            if server is not None:
                server.shutdown()
            server = _Server(cli if reference is None else launcher, log)
            setups.append(server.setup_s)
        # Replay leaves one fragment per logged batch; the periodic
        # consolidation the load keeps up would long since have merged
        # them, so the window starts from a consolidated store.
        server.post("/reorg")
        server.wait_idle()
        origin = asyncio.run(_drive(server.port, ops, host))
        stats = server.wait_idle()
        rss = peak_rss_mb_of(server.process.pid)
        space_amp = tree_bytes(store.root) / (
            seeded.memory_bytes() + sum(b.memory_bytes() for b in batches)
        )
        server.shutdown()
        server = None
    finally:
        if server is not None:
            server.kill()

    _check(outcome, ops, queries, seeded, batches)
    lateness = [op.woke - (origin + op.due) for op in ops]
    outcome.check(
        max(lateness) <= MAX_LATENESS_S,
        f"generator fell behind schedule by {max(lateness):.3f} s: run invalid",
    )
    query_lat = [op.replied - (origin + op.due) for op in ops if op.kind == "query"]
    ingest_lat = [op.replied - (origin + op.due) for op in ops if op.kind == "ingest"]
    total_s = max(op.replied for op in ops) - origin
    switches = int(stats["stats"]["num_switches"])
    outcome.notes.update(
        latency_samples=len(query_lat),
        ingest_samples=len(ingest_lat),
        generator_lateness_max_ms=round(max(lateness) * 1e3, 3),
        switches=switches,
        trace_basis=sum(query_lat) / len(query_lat),
    )

    if reference is None:
        outcome.metrics["setup_s"] = (median(setups), "s")
        latency_metrics(outcome, query_lat, total_s, len(query_lat), host)
        outcome.metrics["peak_rss_mb"] = (rss, "MB")
        outcome.metrics["space_amp"] = (space_amp, "ratio")
        outcome.report_only["ingest_p50_ms"] = (percentile(ingest_lat, 50) * 1e3, "ms")
        outcome.notes.update(setup_samples=len(setups))
        return outcome

    outcome.check(
        switches == reference["switches"],
        f"switches: untraced run {reference['switches']}, traced run {switches}",
    )
    spans, counters = _merge_spans(ops, origin, json.loads(spans_path.read_text()))
    wall_spans = [span for span in spans if span.name == "bench.request"]
    outcome.metrics, outcome.notes["shares"] = layer_metrics(
        spans,
        counters,
        wall_spans,
        switches,
        outcome.notes["trace_basis"] / reference["trace_basis"] - 1.0,
    )
    outcome.metrics["server.overhead_s"] = (_server_overhead(spans, ops), "s")
    return outcome


def _merge_spans(ops: list[_Op], origin: float, server: dict[str, Any]) -> tuple[list[Span], dict[str, float]]:
    """Client request spans plus the server's, on one time line.

    A request's span runs from when it was due to its reply; its
    ``client.wait`` child is the time it waited for a free connection,
    and the server's spans for that request (matched by ``rid``) are its
    other children.
    """
    spans: list[Span] = []
    by_rid: dict[str, int] = {}
    for op in ops:
        request = Span(2 * op.rid, "bench.request", origin + op.due, None, str(op.rid), op.replied)
        wait = Span(2 * op.rid + 1, "client.wait", origin + op.due, request.span_id, str(op.rid), op.sent)
        spans.extend((request, wait))
        by_rid[str(op.rid)] = request.span_id
    for row in server["spans"]:
        span = Span.from_row(row, SERVER_ID_OFFSET)
        if span.parent is None and span.rid in by_rid:
            span.parent = by_rid[span.rid]
        spans.append(span)
    return spans, server["counters"]


def _server_overhead(spans: list[Span], ops: list[_Op]) -> float:
    """Query latency minus the server's parse and engine spans: what
    HTTP, JSON and the queue add."""
    tree = SpanTree(spans)
    queries = {str(op.rid) for op in ops if op.kind == "query"}
    overhead = 0.0
    for span in spans:
        if span.name == "bench.request" and span.rid in queries:
            work = sum(
                inner.end - inner.start
                for inner in tree.descendants(span)
                if inner.name in ("engine.facade", "queries.parse")
            )
            overhead += (span.end - span.start) - work
    return overhead


def _check(outcome: Outcome, ops: list[_Op], queries, seeded: Table, batches: list[Table]) -> None:
    for op in ops:
        if op.status != 200:
            outcome.failed += 1
            outcome.check(False, f"{op.kind} rid {op.rid}: status {op.status}: {op.payload}")
    ingests = [op for op in ops if op.kind == "ingest"]
    for op in ops:
        if op.kind != "query" or op.status != 200:
            continue
        predicate = queries[op.index].predicate
        base = int(np.count_nonzero(predicate.evaluate(seeded.columns)))
        per_batch = [int(np.count_nonzero(predicate.evaluate(b.columns))) for b in batches]
        low = base + sum(
            per_batch[i.index] for i in ingests if i.status == 200 and i.replied < op.sent
        )
        high = base + sum(per_batch[i.index] for i in ingests if i.sent < op.replied)
        got = op.payload["result"]["rows_matched"]
        if not low <= got <= high:
            outcome.failed += 1
            outcome.check(False, f"query rid {op.rid}: {got} rows, expected {low}..{high}")
