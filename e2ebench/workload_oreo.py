"""The ``oreo-tpch`` workload: the paper's Fig. 3 loop, in this process.

OREO decides and reorganizes synchronously while one closed-loop caller
issues ``LayoutEngine.query`` one query at a time.  Every query's
``rows_matched`` is checked against a numpy oracle (the predicate
evaluated over the in-memory table), computed before the timed region.

A run serves one independent stream per ``SECONDS_PER_STREAM`` of
``--seconds``, each on a freshly opened engine with its own initial
layout and policy seed, and reports their sum.  One stream's cost moves
with the layouts OREO happens to pick: over 30 seeds its logical cost
spread by 12% of the median between the quartiles, and the sum of two
independent streams by 6%.

Streams are balanced (see ``common.balanced_stream``): a stream of a
few randomly chosen templates, as ``generate_stream`` draws them,
changes its total cost by more than half from one seed to the next.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator
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
    peak_rss_mb_self,
    seeded_rng,
    tree_bytes,
)
from spans import Tracer, clock, install_layer_hooks

from repro import OREO, EngineConfig, LayoutEngine, OreoConfig, OreoPolicy
from repro.layouts import DataLayout, QdTreeBuilder, RangeLayoutBuilder
from repro.queries.query import Query
from repro.storage.table import Table
from repro.workloads import tpch

#: rows of the TPC-H table (the tiny scale is for the smoke test).  A
#: query's time is mostly per-partition overhead, so halving the rows
#: from 50k only cut a stream from ~19 s to ~14 s on a 2-core machine
ROWS = {"full": 25_000, "tiny": 4_000}
#: rows of the sample the layout manager builds candidates from, the
#: same at every table size
SAMPLE_ROWS = 1_000
#: queries per template visit; the layout manager's window is one visit,
#: so each visit can earn a layout of its own (with a longer window a
#: third of the seeds never switch at all, with a shorter one a stream's
#: cost moves more with the seed)
VISIT_QUERIES = {"full": 30, "tiny": 3}
#: partitions of every layout
NUM_PARTITIONS = 32
#: movement price α, near this engine's measured Table I ratio; fixed so
#: the decision schedule is a function of the seed alone
ALPHA = 8.0
#: ``--seconds`` per stream: one full-scale stream (13 visits of 30
#: queries) takes 13-17 s on a 2-core machine
SECONDS_PER_STREAM = 15
#: set-ups timed per run, the streams' own opens among them;
#: ``setup_s`` is their median
SETUP_REPEATS = 5


@dataclass
class _Stream:
    """One stream's inputs, made from the seed and the stream's index."""

    queries: list[Query]
    initial: DataLayout
    policy_rng: np.random.Generator
    expected: list[int]


@dataclass
class _Pass:
    """What serving one stream on a fresh engine measured."""

    latencies: list[float]
    total_s: float
    switches: int
    bytes_read: int
    space_amp: float


def _make_stream(table: Table, per_visit: int, seed: int, index: int) -> _Stream:
    queries = balanced_stream(tpch.make_templates(), 1, per_visit, seeded_rng(seed, 2, index))
    sample_rng = seeded_rng(seed, 3, index)
    initial = RangeLayoutBuilder("o_orderdate").build(
        table.sample(0.01, sample_rng), [], NUM_PARTITIONS, sample_rng
    )
    expected = [int(np.count_nonzero(q.predicate.evaluate(table.columns))) for q in queries]
    return _Stream(queries, initial, seeded_rng(seed, 4, index), expected)


@contextlib.contextmanager
def _traced(tracer: Tracer | None) -> Iterator[None]:
    """With a tracer, the layer spans are installed and the block is one
    ``bench.run`` span; without one, nothing changes."""
    if tracer is None:
        yield
        return
    install_layer_hooks(tracer)
    try:
        with tracer.span("bench.run"):
            yield
    finally:
        tracer.restore()


def _serve(
    engine: LayoutEngine,
    stream: _Stream,
    table: Table,
    root: Path,
    outcome: Outcome,
    tracer: Tracer | None,
    host: HostSpeed | None,
    per_visit: int,
) -> _Pass:
    """Serve the stream one query at a time, sampling the host's speed
    before each template visit, then check every answer."""
    latencies: list[float] = []
    matched: list[int] = []
    with _traced(tracer):
        for index, query in enumerate(stream.queries):
            if host is not None and index % per_visit == 0:
                host.sample()
            begin = clock()
            matched.append(engine.query(query).rows_matched)
            latencies.append(clock() - begin)
    total_s = sum(latencies)
    stats = engine.stats()
    result = _Pass(
        latencies, total_s, stats.num_switches, stats.bytes_read, tree_bytes(root) / table.memory_bytes()
    )
    engine.close()
    for index, (got, want) in enumerate(zip(matched, stream.expected)):
        if got != want:
            outcome.failed += 1
            outcome.check(False, f"query {index}: rows_matched {got} != oracle {want}")
    return result


def run_oreo_tpch(workdir: Path, seed: int, seconds: int, reference: dict[str, Any] | None, scale: str) -> Outcome:
    """Time ``SETUP_REPEATS`` opens and serve every stream on its own engine.

    Untraced (``reference`` is None) the passes give the end-to-end
    metrics.  Traced, the same steps run with the layer spans installed
    while the streams are served; ``reference`` holds what the untraced
    run of the same seed measured, in a fresh process like this one, so
    both do the same work from the same state.
    """
    table = tpch.load(ROWS[scale], seeded_rng(seed, 1)).table
    per_visit = VISIT_QUERIES[scale]
    oreo_config = OreoConfig(
        alpha=ALPHA,
        num_partitions=NUM_PARTITIONS,
        window_size=per_visit,
        generation_interval=per_visit,
        data_sample_fraction=min(1.0, SAMPLE_ROWS / ROWS[scale]),
    )
    num_streams = max(1, round(seconds / SECONDS_PER_STREAM))
    streams = [_make_stream(table, per_visit, seed, index) for index in range(num_streams)]

    def open_engine(initial: DataLayout, policy_rng: np.random.Generator, root: Path) -> LayoutEngine:
        oreo = OREO(table, QdTreeBuilder(), initial, oreo_config, policy_rng)
        config = EngineConfig(store_root=root, alpha=ALPHA, cleanup_on_close=True)
        return LayoutEngine(config, policy=OreoPolicy(oreo)).open(table, initial)

    outcome = Outcome(attempted=sum(len(stream.queries) for stream in streams))
    setups: list[float] = []
    for attempt in range(max(0, SETUP_REPEATS - num_streams)):
        start = clock()
        engine = open_engine(streams[0].initial, seeded_rng(seed, 5, attempt), workdir / f"setup-{attempt}")
        setups.append(clock() - start)
        engine.close()

    tracer = Tracer() if reference is not None else None
    # Traced, the kernel's time would be time no layer span explains.
    host = HostSpeed() if reference is None else None
    passes: list[_Pass] = []
    for index, stream in enumerate(streams):
        root = workdir / f"stream-{index}"
        start = clock()
        engine = open_engine(stream.initial, stream.policy_rng, root)
        setups.append(clock() - start)
        passes.append(_serve(engine, stream, table, root, outcome, tracer, host, per_visit))

    total_s = sum(p.total_s for p in passes)
    switches = [p.switches for p in passes]
    bytes_read = [p.bytes_read for p in passes]
    space_amp = median([p.space_amp for p in passes])
    if tracer is None:
        outcome.metrics["setup_s"] = (median(setups), "s")
        latencies = [lat for p in passes for lat in p.latencies]
        latency_metrics(outcome, latencies, total_s, len(latencies), host)
        outcome.metrics["peak_rss_mb"] = (peak_rss_mb_self(), "MB")
        outcome.metrics["space_amp"] = (space_amp, "ratio")
        outcome.notes.update(
            setup_samples=len(setups),
            streams=num_streams,
            stream_total_s=[round(p.total_s, 4) for p in passes],
            switches=switches,
            bytes_read=bytes_read,
            trace_basis=total_s,
        )
        return outcome

    # Tracing must not change what the engine does.
    for name, got in (("switches", switches), ("bytes_read", bytes_read)):
        want = reference[name]
        outcome.check(want == got, f"{name}: untraced run {want}, traced run {got}")
    run_spans = [span for span in tracer.spans if span.name == "bench.run"]
    outcome.metrics, outcome.notes["shares"] = layer_metrics(
        tracer.spans,
        tracer.counters,
        run_spans,
        sum(switches),
        total_s / reference["trace_basis"] - 1.0,
    )
    outcome.deterministic = {
        "core.switches": sum(switches),
        "storage.read_calls": int(outcome.metrics["storage.read_calls"][0]),
        "layouts.skip_ratio": outcome.metrics["layouts.skip_ratio"][0],
        "space_amp": space_amp,
    }
    return outcome
