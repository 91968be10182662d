"""StoreDir: the manifest + durable-ingest-log contract behind the CLI/server."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.engine import (
    LayoutEngine,
    ShardedEngine,
    ShardSpec,
    StoreDir,
    StoreManifest,
    make_builder,
    schema_from_dict,
    schema_to_dict,
    table_from_columns,
    table_from_rows,
)
from repro.queries import Query, ge
from repro.storage import ColumnSpec, Schema, Table


@pytest.fixture
def schema() -> Schema:
    return Schema(
        columns=(
            ColumnSpec("x", "numeric"),
            ColumnSpec("color", "categorical", ("red", "green", "blue")),
        )
    )


def _batch(schema: Schema, rng: np.random.Generator, n: int = 200) -> Table:
    return Table(
        schema,
        {
            "x": rng.uniform(0.0, 100.0, size=n),
            "color": rng.integers(0, 3, size=n).astype(np.int64),
        },
    )


def _manifest(schema: Schema, **overrides) -> StoreManifest:
    defaults = dict(
        schema=schema,
        builder={"kind": "range", "column": "x"},
        engine={"num_partitions": 4, "alpha": 2.0},
    )
    defaults.update(overrides)
    return StoreManifest(**defaults)


# ---------------------------------------------------------------- schema serde
def test_schema_round_trips_through_manifest_dicts(schema):
    assert schema_from_dict(schema_to_dict(schema)) == schema


def test_manifest_round_trips_including_shards(schema):
    manifest = _manifest(schema, shards=ShardSpec(4, "x"))
    assert StoreManifest.from_dict(manifest.to_dict()) == manifest


def test_manifest_rejects_unknown_engine_keys(schema):
    with pytest.raises(ValueError, match="unknown engine keys.*bogus"):
        _manifest(schema, engine={"bogus": 1})


def test_manifest_rejects_shard_key_not_in_schema(schema):
    with pytest.raises(ValueError, match="shard key"):
        _manifest(schema, shards=ShardSpec(2, "nope"))


def test_make_builder_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown builder kind"):
        make_builder({"kind": "mystery"})
    with pytest.raises(ValueError, match="requires a 'column'"):
        make_builder({"kind": "hash"})
    with pytest.raises(ValueError, match="'columns' list"):
        make_builder({"kind": "zorder"})


# ------------------------------------------------------------------ lifecycle
def test_initialize_writes_manifest_and_refuses_overwrite(tmp_path, schema):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    assert store.exists()
    on_disk = json.loads(store.manifest_path.read_text())
    assert on_disk["version"] == 1
    with pytest.raises(FileExistsError):
        StoreDir.initialize(tmp_path / "s", _manifest(schema))


def test_open_uninitialized_store_raises(tmp_path):
    with pytest.raises(FileNotFoundError, match="no store manifest"):
        _ = StoreDir(tmp_path / "missing").manifest


# ----------------------------------------------------------------- ingest log
def test_append_and_replay_preserves_rows_in_order(tmp_path, schema, rng):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    batches = [_batch(schema, rng) for _ in range(3)]
    for batch in batches:
        store.append_batch(batch)
    assert store.batches_logged == 3
    replayed = store.read_batches()
    assert len(replayed) == 3
    for original, restored in zip(batches, replayed, strict=True):
        np.testing.assert_array_equal(original["x"], restored["x"])
        np.testing.assert_array_equal(original["color"], restored["color"])


def test_append_rejects_schema_mismatch_and_empty(tmp_path, schema, rng):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    other = Schema(columns=(ColumnSpec("z", "numeric"),))
    with pytest.raises(ValueError, match="schema"):
        store.append_batch(Table(other, {"z": rng.uniform(size=5)}))
    with pytest.raises(ValueError, match="empty"):
        store.append_batch(
            Table(schema, {"x": np.zeros(0), "color": np.zeros(0, dtype=np.int64)})
        )


def test_truncated_tail_batch_is_dropped_not_fatal(tmp_path, schema, rng):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    store.append_batch(_batch(schema, rng))
    tail = store.append_batch(_batch(schema, rng))
    tail.write_bytes(tail.read_bytes()[:40])  # simulate a write cut by a crash
    replayed = store.read_batches()
    assert len(replayed) == 1  # the acknowledged batch survives; the tail drops


def test_corruption_before_the_tail_raises(tmp_path, schema, rng):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    first = store.append_batch(_batch(schema, rng))
    store.append_batch(_batch(schema, rng))
    first.write_bytes(b"garbage")
    with pytest.raises(RuntimeError, match="corrupt"):
        store.read_batches()


def test_torn_tail_then_append_still_reopens(tmp_path, schema, rng):
    """Crash → open → append → open: the torn tail never becomes a
    non-tail file, and the store answers exactly the acknowledged rows
    plus the batch appended after recovery."""
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    acknowledged = [_batch(schema, rng) for _ in range(2)]
    for batch in acknowledged:
        store.append_batch(batch)
    tail = store.append_batch(_batch(schema, rng))
    tail.write_bytes(tail.read_bytes()[:40])  # the crash cut this write short

    recovered = StoreDir(store.root)  # the crashed process's handle is gone
    engine = recovered.open_engine()
    fresh = _batch(schema, rng, n=50)
    try:
        recovered.append_batch(fresh)
        engine.ingest(fresh)
    finally:
        engine.close()

    reopened = StoreDir(store.root)
    expected = acknowledged + [fresh]
    replayed = reopened.read_batches()
    assert len(replayed) == len(expected)
    for got, want in zip(replayed, expected, strict=True):
        np.testing.assert_array_equal(got["x"], want["x"])
        np.testing.assert_array_equal(got["color"], want["color"])
    x = np.concatenate([batch["x"] for batch in expected])
    engine = reopened.open_engine()
    try:
        for threshold in (0.0, 25.0, 75.0):
            result = engine.query(Query(ge("x", threshold)))
            assert result.total_rows == len(x)
            assert result.rows_matched == int((x >= threshold).sum())
    finally:
        engine.close()


def test_torn_tail_is_removed_before_a_direct_append(tmp_path, schema, rng):
    """An append from a fresh handle (the CLI path) drops the torn tail
    first, so the new batch takes its sequence number."""
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    store.append_batch(_batch(schema, rng))
    tail = store.append_batch(_batch(schema, rng))
    tail.write_bytes(tail.read_bytes()[:40])
    written = StoreDir(store.root).append_batch(_batch(schema, rng))
    assert written == tail
    assert len(StoreDir(store.root).read_batches()) == 2


# --------------------------------------------------------------------- engine
def test_open_engine_replays_log_single(tmp_path, schema, rng):
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    total = 0
    for _ in range(2):
        batch = _batch(schema, rng)
        total += batch.num_rows
        store.append_batch(batch)
    engine = store.open_engine()
    try:
        assert isinstance(engine, LayoutEngine)
        result = engine.query(Query(ge("x", 50.0)))
        assert result.total_rows == total == store.rows_logged()
    finally:
        engine.close()


def test_open_engine_replays_log_sharded(tmp_path, schema, rng):
    store = StoreDir.initialize(
        tmp_path / "s", _manifest(schema, shards=ShardSpec(4, "x"))
    )
    store.append_batch(_batch(schema, rng))
    engine = store.open_engine()
    try:
        assert isinstance(engine, ShardedEngine)
        assert engine.num_shards == 4
        assert engine.query(Query(ge("x", 0.0))).rows_matched == 200
    finally:
        engine.close()


def test_reopen_after_reorg_matches_first_open(tmp_path, schema, rng):
    """Derived state is rebuilt: query results identical across reopens."""
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    store.append_batch(_batch(schema, rng))
    query = Query(ge("x", 25.0))
    engine = store.open_engine()
    first = engine.query(query)
    engine.close()
    engine = store.open_engine()
    try:
        second = engine.query(query)
        assert (second.rows_matched, second.total_rows) == (
            first.rows_matched,
            first.total_rows,
        )
    finally:
        engine.close()


def test_open_engine_discards_derived_debris(tmp_path, schema, rng):
    """Stale files under data/ (a crashed process's leftovers) are wiped."""
    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    store.append_batch(_batch(schema, rng))
    engine = store.open_engine()
    engine.close()
    debris = store.data_root / "range-0.staging"
    debris.mkdir(parents=True, exist_ok=True)
    (debris / "part-00099.npz").write_bytes(b"partial")
    engine = store.open_engine()
    try:
        assert engine.query(Query(ge("x", 0.0))).total_rows == 200
        assert not debris.exists()
    finally:
        engine.close()


def test_single_engine_event_stream_is_shard_tagged(tmp_path, schema, rng):
    from repro.server.events import EventRing

    store = StoreDir.initialize(tmp_path / "s", _manifest(schema))
    store.append_batch(_batch(schema, rng))
    ring = EventRing()
    engine = store.open_engine(shard_events=ring)
    engine.close()
    names = [record["event"] for record in ring.tail()]
    assert names and all(record["shard"] == 0 for record in ring.tail())
    assert any("ingest" in name for name in names)


# ------------------------------------------------------------- table builders
def test_table_from_rows_encodes_categoricals(schema):
    table = table_from_rows(
        schema, [{"x": "1.5", "color": "red"}, {"x": 2, "color": "blue"}]
    )
    np.testing.assert_array_equal(table["x"], [1.5, 2.0])
    np.testing.assert_array_equal(table["color"], [0, 2])


def test_table_from_rows_rejects_bad_payloads(schema):
    with pytest.raises(ValueError, match="no rows"):
        table_from_rows(schema, [])
    with pytest.raises(ValueError, match="missing column"):
        table_from_rows(schema, [{"x": 1}])
    with pytest.raises(ValueError, match="not in vocabulary"):
        table_from_rows(schema, [{"x": 1, "color": "mauve"}])
    with pytest.raises(ValueError, match="non-numeric"):
        table_from_rows(schema, [{"x": "wat", "color": "red"}])


def test_table_from_columns_validates_shape(schema):
    with pytest.raises(ValueError, match="missing columns"):
        table_from_columns(schema, {"x": [1.0]})
    with pytest.raises(ValueError, match="unknown columns"):
        table_from_columns(schema, {"x": [1.0], "color": [0], "zz": [1]})
    with pytest.raises(ValueError, match="unequal lengths"):
        table_from_columns(schema, {"x": [1.0, 2.0], "color": [0]})
    with pytest.raises(ValueError, match="out of range"):
        table_from_columns(schema, {"x": [1.0], "color": [7]})
