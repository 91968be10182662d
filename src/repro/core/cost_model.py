"""Cost model and the logical cost oracle.

The paper's cost model (§III-A): servicing query ``q`` in state (layout)
``s`` costs ``c(s, q) ∈ [0, 1]`` — the fraction of the dataset accessed —
and switching between any two states costs ``α > 1``, the measured ratio of
reorganization time to a full-table scan (60×–100× in the paper's setup,
default 80).

:class:`CostEvaluator` is the oracle every decision component consults.  It
estimates ``c(s, q)`` purely from partition-level metadata (never touching
row data at decision time, matching §VI-A1) and memoizes aggressively:
layout metadata and its compiled :class:`~repro.layouts.zonemaps.ZoneMapIndex`
by ``layout_id``, and per-query costs in a per-layout dict keyed by the
predicate's structural identity (so retiring a layout is an O(1) pop).

Every number comes from one set of pruning kernels
(:mod:`repro.layouts.zonemaps`), driven three ways by input shape:

* **many layouts** — :meth:`CostEvaluator.cost_matrix` (and through it
  admission, pruning, and the per-step D-UMTS cost dicts) registers
  every priced layout in a
  :class:`~repro.layouts.stacked.StackedStateSpace` and evaluates the
  compiled sample against the *whole state space at once*: one
  ``(layouts × queries × partitions)`` tensor instead of one compiled
  pass per layout;
* **one layout, a sample** — :meth:`CostEvaluator.cost_vector` and
  :meth:`CostEvaluator.revalidate` compile the sample once
  (:class:`~repro.layouts.workload_compiler.CompiledWorkload`, memoized
  per sample in a bounded LRU) and evaluate it against that layout's
  zone-map index through the same routine the stack uses;
* **one predicate** — :meth:`CostEvaluator.query_cost` takes the
  zone-map index's tree walk (``ZoneMapIndex.prune_matrix``), which is
  also where the batched drivers send ``Or``/``Not`` residue.

The scalar oracle — ``Predicate.may_match`` looped over
``PartitionMetadata`` — stays the reference semantics and the per-node
fallback for predicates the kernels cannot lower; the test suite asserts
exact agreement between every driver and it.

Every cached cost keeps its may-match mask alongside the float (a bounded
per-layout store), which is what makes reorganizations cheap:
:meth:`CostEvaluator.revalidate` consumes a
:class:`~repro.layouts.zonemaps.ReorgDelta`, carries the per-layout index
forward with :meth:`ZoneMapIndex.apply_reorg`, migrates every stored mask
by copying carried partitions' cells, and re-runs zone-map kernels only on
the partitions the reorg touched — a surgical cost-cache revalidation
instead of dropping the layout's cache wholesale via :meth:`forget`.
Both physical producers of deltas drive it: :class:`IncrementalStore`
revalidates on every streaming append, and the pipelined reorganization
(:class:`~repro.core.reorg_scheduler.ReorgScheduler`) feeds each movement
step's append-only partial commit through a *shadow* evaluator's
``revalidate`` while the move is still in flight — compiling the new
layout's index incrementally without the serving evaluator ever pricing
the under-construction snapshot — and the final commit :meth:`adopt`\\ s
the warm state in one move, so the new layout's index and caches are
ready the instant the epoch flips.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..layouts.base import DataLayout
from ..layouts.metadata import LayoutMetadata
from ..layouts.stacked import StackedStateSpace
from ..layouts.workload_compiler import CompiledWorkload
from ..layouts.zonemaps import ReorgDelta, ZoneMapIndex, _fractions_from_matrix
from ..utils import lru_get, lru_put
from ..queries.query import Query
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only import (avoids cycle)
    from ..storage.table import Table

__all__ = ["CostModel", "CostEvaluator"]


@dataclass(frozen=True)
class CostModel:
    """Scalar parameters of the online problem."""

    alpha: float = 80.0

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError(f"alpha must exceed 1 (reorg dearer than a scan), got {self.alpha}")

    def movement_cost(self, source: str | None, target: str) -> float:
        """Cost of switching layouts; staying put is free."""
        if source == target:
            return 0.0
        return self.alpha


class CostEvaluator:
    """Metadata-backed, memoizing implementation of ``c(s, q)``."""

    #: Compiled-workload LRU bound: admission and pruning re-evaluate the
    #: same sample against many layouts, but samples churn as the stream
    #: drifts — keep the recent ones, never grow without limit.
    COMPILED_CACHE_CAP = 32
    #: Per-layout may-match mask store bound.  Masks ride along with the
    #: cached cost floats so :meth:`revalidate` can migrate them across a
    #: reorganization; entries evicted here simply lose that fast path
    #: (their cost float is dropped at the next reorg and re-derived).
    MASK_STORE_CAP = 1024

    def __init__(self, table: Table | None):
        #: the priced table, or ``None`` for a metadata-only evaluator
        #: (streaming engines register materialized snapshots instead of
        #: deriving assignments from row data)
        self.table = table
        self._metadata: dict[str, LayoutMetadata] = {}
        self._zonemaps: dict[str, ZoneMapIndex] = {}
        self._query_costs: dict[str, dict[tuple, float]] = {}
        self._compiled: dict[tuple, CompiledWorkload] = {}
        self._stacked = StackedStateSpace()
        #: per-layout LRU of ``key -> (predicate, may-match mask)``
        self._masks: dict[str, dict[tuple, tuple]] = {}

    def metadata(self, layout: DataLayout) -> LayoutMetadata:
        """Layout's partition metadata on the evaluator's table (cached)."""
        cached = self._metadata.get(layout.layout_id)
        if cached is None:
            if self.table is None:
                raise RuntimeError(
                    f"no table to derive metadata for layout "
                    f"{layout.layout_id!r}; register_metadata() the "
                    "materialized snapshot first"
                )
            cached = layout.metadata_for(self.table)
            self._metadata[layout.layout_id] = cached
        return cached

    def has_metadata(self, layout_id: str) -> bool:
        """Whether this evaluator can already price ``layout_id``.

        True when the layout's metadata is cached or was registered via
        :meth:`register_metadata`; callers without a table to derive
        metadata from (streaming engines) use this to tell priceable
        candidates apart from un-registered ones.
        """
        return layout_id in self._metadata

    def register_metadata(self, layout_id: str, metadata: LayoutMetadata) -> None:
        """Price ``layout_id`` from externally materialized metadata.

        Physically backed systems (streaming ingest, partition catalogs)
        know the *actual* on-disk partition statistics, which evolve under
        a fixed layout id; registering them here makes every costing path
        use the catalog's view instead of re-deriving assignments from the
        layout object.  Re-registering a different snapshot drops the
        layout's cached state — callers with a
        :class:`~repro.layouts.zonemaps.ReorgDelta` should call
        :meth:`revalidate` instead, which migrates the caches.
        """
        if self._metadata.get(layout_id) is metadata:
            return
        self.forget(layout_id)
        self._metadata[layout_id] = metadata

    def adopt(self, other: CostEvaluator, layout_id: str) -> None:
        """Transplant ``layout_id``'s cached state from another evaluator.

        The reorg scheduler warms a *shadow* evaluator during a pipelined
        move (each partial commit revalidates the shadow, compiling the
        new layout's zone maps incrementally) so that this evaluator's
        pricing of the target stays untouched — and correct — while the
        move is in flight.  At the final commit the shadow's state
        (metadata, compiled index, masks, cached costs) is adopted here
        in one move, replacing whatever pre-move estimate this evaluator
        held.  Both evaluators must price the same table.
        """
        if other.table is not self.table:
            raise ValueError("cannot adopt state priced against a different table")
        metadata = other._metadata.get(layout_id)
        if metadata is None:
            return  # nothing to adopt; leave existing state untouched
        self.forget(layout_id)
        self._metadata[layout_id] = metadata
        index = other._zonemaps.get(layout_id)
        if index is not None:
            self._zonemaps[layout_id] = index
        self._query_costs[layout_id] = other._query_costs.pop(layout_id, {})
        self._masks[layout_id] = other._masks.pop(layout_id, {})

    def zone_maps(self, layout: DataLayout) -> ZoneMapIndex:
        """Layout's compiled zone-map index (cached)."""
        cached = self._zonemaps.get(layout.layout_id)
        if cached is None:
            cached = ZoneMapIndex(self.metadata(layout))
            self._zonemaps[layout.layout_id] = cached
        return cached

    def _store_mask(self, layout_id: str, key: tuple, predicate, mask: np.ndarray) -> None:
        store = self._masks.setdefault(layout_id, {})
        lru_put(store, key, (predicate, mask), self.MASK_STORE_CAP)

    @staticmethod
    def _fraction(mask: np.ndarray, index: ZoneMapIndex) -> float:
        """``c(s, q)`` from a may-match mask; same bits as the oracle."""
        if index.total_rows == 0.0:
            return 0.0
        return float(index.row_counts @ mask) / index.total_rows

    def query_cost(self, layout: DataLayout, query: Query) -> float:
        """Fraction of rows accessed by ``query`` under ``layout``; in [0, 1]."""
        costs = self._query_costs.setdefault(layout.layout_id, {})
        key = query.cache_key()
        cached = costs.get(key)
        if cached is None:
            index = self.zone_maps(layout)
            mask = index.prune_matrix([query.predicate])[0]
            cached = self._fraction(mask, index)
            costs[key] = cached
            self._store_mask(layout.layout_id, key, query.predicate, mask)
        return cached

    def compiled_workload(
        self, predicates: Sequence, key: tuple | None = None
    ) -> CompiledWorkload:
        """Compile a predicate sample for batched evaluation (LRU-cached).

        ``key`` is the sample's structural identity (the tuple of predicate
        cache keys); callers that already hold the keys pass them to avoid
        recomputing.  One compiled sample serves every layout it is
        evaluated against — the admission loop's dominant reuse pattern.
        Single-predicate "samples" (the per-stream-query miss path) are
        compiled fresh instead: they are too cheap to be worth a slot, and
        caching them would churn the LRU until it evicts the expensive
        admission-sample compilations it exists to retain.
        """
        if len(predicates) < 2:
            return CompiledWorkload(predicates)
        if key is None:
            key = tuple(predicate.cache_key() for predicate in predicates)
        cached = lru_get(self._compiled, key)
        if cached is None:
            cached = lru_put(
                self._compiled, key, CompiledWorkload(predicates), self.COMPILED_CACHE_CAP
            )
        return cached

    def _ensure_stacked(self, layout: DataLayout) -> None:
        """Register (or refresh) a layout's slab in the stacked state space."""
        layout_id = layout.layout_id
        index = self.zone_maps(layout)
        if layout_id not in self._stacked:
            self._stacked.add_layout(layout_id, index)
        elif self._stacked.index_for(layout_id) is not index:
            self._stacked.update_layout(layout_id, index)

    def cost_vector(self, layout: DataLayout, queries: Sequence[Query]) -> np.ndarray:
        """Vector of query costs for a layout over a query sample.

        This is the representation Algorithm 5 (layout admission) compares
        with normalized L1 distance.  Uncached entries are evaluated by
        compiling the missing sub-sample once (LRU-memoized across layouts)
        and running its column-wise batched pass over all partitions.
        """
        costs = self._query_costs.setdefault(layout.layout_id, {})
        keys = [query.cache_key() for query in queries]
        out = np.empty(len(queries), dtype=np.float64)
        missing: dict[tuple, list[int]] = {}
        for index, key in enumerate(keys):
            cached = costs.get(key)
            if cached is None:
                missing.setdefault(key, []).append(index)
            else:
                out[index] = cached
        if missing:
            predicates = [queries[positions[0]].predicate for positions in missing.values()]
            compiled = self.compiled_workload(predicates, key=tuple(missing))
            index = self.zone_maps(layout)
            matrix = compiled.prune_matrix(index)
            priced = self._price_sample(
                layout.layout_id, matrix, missing, predicates, index
            )
            for key, positions in missing.items():
                out[positions] = priced[key]
        return out

    def cost_matrix(
        self, layouts: Sequence[DataLayout], queries: Sequence[Query]
    ) -> np.ndarray:
        """``(num_layouts, num_queries)`` cost matrix over a query sample.

        The workhorse behind layout admission, state-space pruning, and the
        per-step D-UMTS cost dicts: the sample is compiled once, every
        layout with a cache miss is registered in the stacked state space,
        and the missing cells are priced by one broadcasted
        ``(layouts × queries × partitions)`` tensor evaluation
        (:meth:`StackedStateSpace.prune_tensor`) instead of one compiled
        pass per layout — unless the miss set is a small fraction of the
        stack, where per-layout compiled passes are cheaper than a
        full-stack sweep.  Residue layouts fall back inside the stack; the
        floats are bit-for-bit the per-layout path's either way.
        """
        if not layouts:
            return np.zeros((0, len(queries)), dtype=np.float64)
        keys = [query.cache_key() for query in queries]
        out = np.empty((len(layouts), len(queries)), dtype=np.float64)
        missing_union: dict[tuple, int] = {}
        pending: list[tuple[int, DataLayout, list[int]]] = []
        for row, layout in enumerate(layouts):
            costs = self._query_costs.setdefault(layout.layout_id, {})
            missing_positions: list[int] = []
            for col, key in enumerate(keys):
                cached = costs.get(key)
                if cached is None:
                    missing_positions.append(col)
                    if key not in missing_union:
                        missing_union[key] = col
                else:
                    out[row, col] = cached
            if missing_positions:
                pending.append((row, layout, missing_positions))
        if pending:
            predicates = [queries[col].predicate for col in missing_union.values()]
            compiled = self.compiled_workload(predicates, key=tuple(missing_union))
            # The stacked tensor always sweeps the whole live stack; when
            # only a few layouts missed (e.g. one newly admitted state),
            # per-layout compiled passes cost less than a full-stack sweep.
            use_stack = 2 * len(pending) >= len(self._stacked)
            fused = None
            if use_stack:
                ids = []
                for _, layout, _ in pending:
                    self._ensure_stacked(layout)
                    ids.append(layout.layout_id)
                tensor = self._stacked.prune_tensor(compiled, ids)
                if len(predicates) <= StackedStateSpace.FUSED_FRACTION_QUERY_CUTOFF:
                    # Narrow samples (the per-step D-UMTS pricing is one
                    # query): contract the whole bool tensor in one fused
                    # einsum instead of one astype+matvec per layout.
                    fused = self._stacked.fractions_tensor(tensor, ids)
            for position, (row, layout, missing_positions) in enumerate(pending):
                index = self.zone_maps(layout)
                if use_stack:
                    matrix = tensor[position, :, : index.num_partitions]
                else:
                    matrix = compiled.prune_matrix(index)
                costs = self._price_sample(
                    layout.layout_id,
                    matrix,
                    missing_union,
                    predicates,
                    index,
                    only={keys[col] for col in missing_positions},
                    fractions=None if fused is None else fused[position],
                )
                for col in missing_positions:
                    out[row, col] = costs[keys[col]]
        return out

    def _price_sample(
        self,
        layout_id: str,
        matrix: np.ndarray,
        missing_union: dict,
        predicates: Sequence,
        index: ZoneMapIndex,
        only: set | None = None,
        fractions: np.ndarray | None = None,
    ) -> dict:
        """Fill one layout's cost + mask caches from its may-match matrix.

        ``only`` restricts the writes to that subset of ``missing_union``
        (the keys this layout actually missed) — keys it already holds
        would be rewritten with identical values, churning the mask LRU
        for nothing.  ``fractions`` (one row of the stacked fused
        contraction, bit-for-bit the per-layout arithmetic) skips the
        per-layout matvec when the caller already contracted the tensor.
        """
        if fractions is None:
            fractions = _fractions_from_matrix(
                matrix, index.row_counts, index.total_rows
            )
        costs = self._query_costs[layout_id]
        for position, key in enumerate(missing_union):
            if only is not None and key not in only:
                continue
            costs[key] = float(fractions[position])
            self._store_mask(
                layout_id, key, predicates[position], matrix[position].copy()
            )
        return costs

    def costs_for_query(
        self, layouts: Sequence[DataLayout], query: Query
    ) -> dict[str, float]:
        """``c(s, q)`` for one query across many layouts, keyed by layout id.

        This is the per-step cost dict D-UMTS ``observe`` consumes; misses
        across the whole state space are priced by one stacked pass.
        """
        if not layouts:
            return {}
        vector = self.cost_matrix(layouts, [query])[:, 0]
        return {
            layout.layout_id: float(value) for layout, value in zip(layouts, vector, strict=True)
        }

    def average_cost(self, layout: DataLayout, queries: Sequence[Query]) -> float:
        """Mean query cost over ``queries`` (0.0 for an empty sample)."""
        if not queries:
            return 0.0
        return float(self.cost_vector(layout, queries).mean())

    # -------------------------------------------------- incremental maintenance
    def revalidate(self, layout_id: str, delta: ReorgDelta) -> int:
        """Carry a layout's cached state across a reorganization.

        ``delta`` must have been computed against the metadata object this
        evaluator holds for ``layout_id`` (otherwise the cached state
        cannot be trusted and this degrades to :meth:`forget`).  The
        zone-map index is migrated with :meth:`ZoneMapIndex.apply_reorg`,
        the stacked slab is refreshed in place, and every cached
        (query, cost) entry whose may-match mask is stored is re-priced by
        copying the carried partitions' mask cells and running zone-map
        kernels *only* on the partitions the reorg touched.  Cost entries
        whose mask was evicted cannot be migrated and are dropped
        (re-derived lazily) — the surgical alternative to forgetting the
        whole layout.  Returns the number of migrated query entries.

        Called once per reorganization by streaming appends
        (:meth:`IncrementalStore.ingest`) and once per *movement step* by
        the async pipeline: :meth:`ReorgScheduler.tick` chains the
        partial commits' append-only deltas through here, so each call's
        kernel work is bounded by one step's partition budget.
        """
        old_index = self._zonemaps.get(layout_id)
        if old_index is None or old_index.metadata is not delta.old_metadata:
            # Nothing carryable (no compiled index, or it was built from a
            # different snapshot): drop the caches but stay registered on
            # the post-reorg metadata so pricing resumes from the truth.
            self.forget(layout_id)
            self._metadata[layout_id] = delta.new_metadata
            return 0
        new_index = old_index.apply_reorg(delta)
        self._metadata[layout_id] = delta.new_metadata
        self._zonemaps[layout_id] = new_index
        if layout_id in self._stacked:
            self._stacked.update_layout(layout_id, new_index)
        masks = self._masks.get(layout_id) or {}
        costs = self._query_costs.setdefault(layout_id, {})
        for key in [key for key in costs if key not in masks]:
            del costs[key]
        if not masks:
            return 0
        predicates = [predicate for predicate, _ in masks.values()]
        compiled = self.compiled_workload(predicates, key=tuple(masks))
        prior = np.stack([mask for _, mask in masks.values()])
        # Carried partitions' cells are copied; kernels run only on the
        # partitions the reorg touched.  Migrated masks are bit-for-bit the
        # fresh masks, so the dot below re-derives the exact fresh float.
        migrated = compiled.revalidate(new_index, delta, prior)
        for row, (key, (predicate, _)) in enumerate(list(masks.items())):
            masks[key] = (predicate, migrated[row])
            costs[key] = self._fraction(migrated[row], new_index)
        return len(masks)

    def forget(self, layout_id: str) -> None:
        """Drop cached state for a retired layout to bound memory: O(1)."""
        self._metadata.pop(layout_id, None)
        self._zonemaps.pop(layout_id, None)
        self._query_costs.pop(layout_id, None)
        self._masks.pop(layout_id, None)
        self._stacked.discard(layout_id)

    def cache_sizes(self) -> tuple[int, int]:
        """(#layout metadata entries, #query-cost entries) — for tests."""
        return len(self._metadata), sum(len(c) for c in self._query_costs.values())
