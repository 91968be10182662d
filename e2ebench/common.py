"""Helpers shared by the workloads: results, sizes, percentiles, host
speed, analysis."""

from __future__ import annotations

import io
import os
import platform
import resource
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from spans import Span, SpanTree, clock

# Per-layer metrics, in report order.  Every traced run reports all of
# them; a layer a workload does not exercise reads 0.
LAYER_METRICS: dict[str, str] = {
    "storage.read_s": "s",
    "storage.read_calls": "count",
    "storage.read_bytes": "bytes",
    "storage.write_s": "s",
    "storage.write_files": "count",
    "storage.reorg_s": "s",
    "storage.ingest_s": "s",
    "core.decide_s": "s",
    "core.switches": "count",
    "layouts.plan_s": "s",
    "layouts.skip_ratio": "ratio",
    "queries.filter_s": "s",
    "queries.parse_s": "s",
    "engine.facade_s": "s",
    "engine.wal_append_s": "s",
    "engine.replay_s": "s",
    "server.http_s": "s",
    "server.route_s": "s",
    "server.admission_s": "s",
    "server.overhead_s": "s",
    "trace.wall_s": "s",
    "trace.unaccounted_frac": "ratio",
    "trace.overhead_frac": "ratio",
}

# Spans whose self time is the named layer metric ``<span>_s``.
SELF_TIME_SPANS = (
    "storage.read",
    "storage.write",
    "storage.ingest",
    "core.decide",
    "layouts.plan",
    "queries.filter",
    "queries.parse",
    "engine.facade",
    "engine.wal_append",
    "engine.replay",
    "server.http",
    "server.route",
    "server.admission",
)


def seeded_rng(seed: int, *purpose: int) -> np.random.Generator:
    """An independent generator per (seed, purpose): inputs stay fixed
    when another purpose draws more or fewer numbers."""
    return np.random.default_rng([seed, *purpose])


def balanced_stream(templates, cycles: int, per_visit: int, rng: np.random.Generator) -> list:
    """``cycles`` passes over all templates, ``per_visit`` queries per visit.

    Each pass visits every template once, in an order drawn from ``rng``,
    so a stream's total work varies little between seeds while every
    query's constants still come from the seed.
    """
    queries = []
    for _ in range(cycles):
        for index in rng.permutation(len(templates)):
            for _ in range(per_visit):
                queries.append(templates[int(index)].instantiate(rng, float(len(queries))))
    return queries


#: the calibration kernel's time on a 2-core x86-64 host (Python 3.11,
#: numpy 2.4) at the fast end of its range; a normalized time is what the
#: measured one would have been on a host that runs the kernel this fast
CALIBRATION_REFERENCE_S = 0.015


class HostSpeed:
    """Samples of a fixed calibration kernel's time, taken through a run.

    The speed of a shared host drifts by 20-40% over minutes with its
    other tenants' load, and every time a run measures drifts with it.
    A time divided by the kernel's median time over the same stretch of
    the run keeps the program's own speed and loses most of the host's:
    over six repeated runs of one ``oreo-tpch`` stream the standard
    deviation fell from 11% to 4% of the mean, and over ten seeds the
    quartile spread of the mean latency fell from 15% to 12% of the
    median on ``oreo-tpch`` and from 16% to 8% on ``serve-mixed``.  The kernel is the program's main
    work done by numpy alone — decode a zlib-compressed ``.npz`` archive
    and filter two of its columns, as a partition read and scan do — and
    calls nothing in the program, so a change to the program cannot move
    it.  The median ignores samples slowed by the program's own
    background work.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **{f"c{i}": rng.integers(0, 1000, 20_000) for i in range(8)})
        self._archive = buffer.getvalue()
        self.samples: list[float] = []

    def sample(self) -> None:
        start = clock()
        for _ in range(3):
            with np.load(io.BytesIO(self._archive)) as archive:
                columns = [archive[name] for name in archive.files]
            np.count_nonzero((columns[0] > 300) & (columns[1] < 700))
        self.samples.append(clock() - start)

    def slowdown(self) -> float:
        """How much slower than the reference host this run's host ran."""
        return median(self.samples) / CALIBRATION_REFERENCE_S


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: metrics printed in the report but not in the result line: they
    #: apply to one workload only, or lack the samples to repeat
    report_only: dict[str, tuple[float, str]] = field(default_factory=dict)
    #: human-readable extras: sample counts, shares
    notes: dict[str, Any] = field(default_factory=dict)
    #: counts that must repeat exactly for the same code and seed
    deterministic: dict[str, Any] | None = None

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            self.errors.append(message)


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tree_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for dirpath, _, filenames in os.walk(path):
        for name in filenames:
            try:
                total += os.stat(os.path.join(dirpath, name)).st_size
            except FileNotFoundError:
                continue  # a file removed by a concurrent commit
    return total


def peak_rss_mb_self() -> float:
    """Peak resident set of this process, MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def fingerprint() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def latency_metrics(
    outcome: Outcome, latencies_s: list[float], total_s: float, queries: int, host: HostSpeed
) -> None:
    """The gated latency metric from per-query samples, and the raw
    times in the report.

    The gated metric is the mean latency normalized by the host's speed
    (see :class:`HostSpeed`); on ``oreo-tpch`` it is also the stream's
    combined query and reorganization time per query.  Raw times are
    printed, not gated.  Percentiles are printed too: the template mix
    makes the latency distribution multimodal, and on ``oreo-tpch`` the
    seed's layout choices move the median between modes.
    """
    mean_s = sum(latencies_s) / len(latencies_s)
    slowdown = host.slowdown()
    outcome.metrics["query_mean_norm_ms"] = (mean_s / slowdown * 1e3, "ms")
    outcome.report_only["query_mean_ms"] = (mean_s * 1e3, "ms")
    outcome.report_only["total_s"] = (total_s, "s")
    outcome.report_only["queries_per_s"] = (queries / total_s, "queries/s")
    outcome.report_only["query_p50_ms"] = (percentile(latencies_s, 50) * 1e3, "ms")
    outcome.report_only["query_p90_ms"] = (percentile(latencies_s, 90) * 1e3, "ms")
    outcome.report_only["query_p99_ms"] = (percentile(latencies_s, 99) * 1e3, "ms")
    outcome.notes.update(
        latency_samples=len(latencies_s),
        host_slowdown=round(slowdown, 4),
        host_samples=len(host.samples),
    )


def layer_metrics(
    spans: list[Span],
    counters: dict[str, float],
    wall_spans: list[Span],
    switches: int,
    overhead_frac: float,
) -> tuple[dict[str, tuple[float, str]], dict[str, float]]:
    """Per-layer metrics from one traced pass, plus each span's share.

    ``wall_spans`` are the benchmark's own top-level spans (the measured
    loop, or each client request); their self time is what no layer
    span explains, reported as ``trace.unaccounted_frac``.
    """
    tree = SpanTree(spans)
    self_times = tree.self_by_name()
    durations = tree.duration_by_name()
    wall = sum(span.end - span.start for span in wall_spans)
    values: dict[str, float] = {name: 0.0 for name in LAYER_METRICS}
    for name in SELF_TIME_SPANS:
        values[f"{name}_s"] = self_times.get(name, 0.0)
    values["storage.reorg_s"] = durations.get("storage.reorg", 0.0)
    for name in ("storage.read_calls", "storage.read_bytes", "storage.write_files"):
        values[name] = counters.get(name, 0.0)
    considered = counters.get("layouts.partitions_considered", 0.0)
    if considered:
        values["layouts.skip_ratio"] = counters["layouts.partitions_skipped"] / considered
    values["core.switches"] = float(switches)
    values["trace.wall_s"] = wall
    values["trace.unaccounted_frac"] = (
        sum(tree.self_time(span) for span in wall_spans) / wall if wall else 0.0
    )
    values["trace.overhead_frac"] = overhead_frac
    shares = {
        name: round(self_times.get(name, 0.0) / wall, 4) for name in sorted(self_times) if wall
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}, shares
