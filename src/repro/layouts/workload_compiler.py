"""Workload compiler: one column-wise pass for a whole query sample.

The tree walk (:meth:`ZoneMapIndex._mask`) is vectorized *across
partitions*, but it still recurses once per predicate: evaluating a
D-UMTS admission sample against a candidate layout costs ``O(|sample|)``
AST walks, each issuing a handful of small NumPy calls.  At 64-query
samples over dozens of candidate layouts, that per-call overhead is the
dominant cost of Algorithm 5's admission loop.

:class:`CompiledWorkload` removes it by compiling the *sample itself*,
once, independent of any layout:

1. every query predicate is flattened into its top-level conjunction
   (``And`` trees; a bare atom is a one-conjunct conjunction);
2. supported atomic conjuncts — ``Comparison``, ``Between``, ``In`` —
   are grouped by ``(column, kind)`` and their constants deduplicated
   and stacked on an atoms axis;
3. anything else (``Or``/``Not`` subtrees, user-defined predicates,
   non-numeric or float64-lossy constants) becomes *residue*: it is
   evaluated through the tree walk, node by node;
4. the AND-reduction over each query's conjuncts is *pre-planned* into
   depth layers at compile time (see :meth:`CompiledWorkload._plan_reduction`).

:meth:`CompiledWorkload.evaluate` is the one evaluation routine of both
batched drivers: one block per group from the shared pruning kernel
(:func:`repro.layouts.zonemaps._zone_mask`), the depth-layer reduction,
then false rows and residue.  It reads a *zones source* — one layout's
:class:`~repro.layouts.zonemaps.ZoneMapIndex` (optionally restricted to
some partition positions), or the
:class:`~repro.layouts.stacked.StackedStateSpace` slab view of every
layout at once.  Segments a source cannot vectorize (a column with
non-numeric boundaries) take the tree walk, which falls back to the
scalar oracle there; every output is bit-for-bit the scalar
``may_match``/``matches_all`` oracle (asserted by the equivalence and
property suites).

Conjunction semantics make the reduction exact: for ``And`` nodes both
``may_match`` and ``matches_all`` distribute over children as logical
AND, so batching the supported conjuncts and folding residue conjuncts
in afterwards loses nothing.

The compiled object also supports *incremental revalidation*: after a
reorganization described by a :class:`~repro.layouts.zonemaps.ReorgDelta`,
:meth:`CompiledWorkload.revalidate` copies matrix columns for carried
partitions from the prior result and re-evaluates only the changed
partitions' columns.
"""

# reprolint: vectorized

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..queries.predicates import (
    AlwaysFalse,
    AlwaysTrue,
    And,
    Between,
    Comparison,
    In,
    Predicate,
)
from .zonemaps import (
    ReorgDelta,
    ZoneMapIndex,
    _atom,
    _ColumnZones,
    _fractions_from_matrix,
    _stack_constants,
    _Unsupported,
    _zone_mask,
)

__all__ = ["CompiledWorkload"]


class _AtomGroup:
    """All supported atoms of one ``(column, kind)`` across the sample.

    ``kind`` is a comparison operator (``"<"`` .. ``"!="``), ``"between"``
    or ``"in"``.  ``owners`` maps each atom to the query row it belongs
    to; atoms are appended in query order, so ``owners`` is sorted within
    the group.

    ``freeze`` dedups the constants: workload streams dwell on one
    template for whole segments, so a 64-query sample routinely repeats
    the same handful of constants (a 5-value dimension column can only
    produce 5 distinct equality atoms).  The kernel runs over the *unique*
    constants (``block``, stacked on the atoms axis) and the pre-planned
    reduction reads unique rows through ``inverse``.
    """

    __slots__ = ("column", "kind", "owners", "nodes", "a", "b", "unodes", "block", "inverse")

    def __init__(self, column: str, kind: str):
        self.column = column
        self.kind = kind
        self.owners: list[int] = []
        #: original AST nodes, for the per-predicate fallback path
        self.nodes: list[Predicate] = []
        #: per-atom kernel constants, as built by ``zonemaps._atom``
        self.a: list = []
        self.b: list = []
        #: deduplicated nodes, their stacked constants and the expansion
        #: gather, set by freeze()
        self.unodes: list[Predicate] = []
        self.block: tuple = ()
        self.inverse: np.ndarray | None = None

    def freeze(self) -> None:
        # First-occurrence-order dedup (a dict, no sort): slots keep the
        # original relative order, so "no duplicates" means the expansion
        # gather is the identity and can be skipped outright.  The key is
        # a comparison's float value (its raw constant may be unhashable),
        # a Between's bounds or an In's value set.
        slots: dict = {}
        first: list[int] = []
        inverse: list[int] = []
        keys = zip(self.a, self.b, strict=True) if self.kind == "between" else self.a
        for position, key in enumerate(keys):
            slot = slots.get(key)
            if slot is None:
                slot = slots[key] = len(first)
                first.append(position)
            inverse.append(slot)
        self.unodes = [self.nodes[i] for i in first]
        self.block = _stack_constants(
            self.kind, [self.a[i] for i in first], [self.b[i] for i in first]
        )
        if len(first) == len(self.nodes):
            self.inverse = None
        else:
            self.inverse = np.asarray(inverse, dtype=np.int64)


def _sliced_zones(zones: _ColumnZones, positions: np.ndarray) -> _ColumnZones:
    """Restrict a column's zone arrays to a subset of partition positions."""
    return _ColumnZones(
        zones.mins[positions],
        zones.maxs[positions],
        zones.has_stats[positions],
        zones.has_distinct[positions],
        None if zones.bitmap is None else zones.bitmap[positions],
        zones.value_index,
    )


class _IndexSource:
    """Zones source over one layout's index, optionally restricted to some
    partition positions (the changed partitions of a reorganization).

    A *zones source* is what :meth:`CompiledWorkload.evaluate` reads:

    * ``width`` — the number of output columns;
    * ``column_zones(name)`` — ``(zones, fallback)``: the column's zones
      over those columns (``None``: no partition has stats for it) and the
      segments whose zones cannot be vectorized;
    * ``segments`` — ``(index, columns, positions)`` triples covering the
      output, where per-predicate ``index._mask`` results (restricted to
      ``positions`` when given) land for residue and fallback atoms;
    * ``scratch(role, rows, cols)`` — a bool workspace the result never
      aliases.

    :class:`~repro.layouts.stacked.StackedStateSpace` is the other source:
    its flat ``slots × partition_width`` slab view.
    """

    def __init__(self, index: ZoneMapIndex, positions: np.ndarray | None = None):
        self.index = index
        self.positions = positions
        self.width = index.num_partitions if positions is None else len(positions)
        self.segments = ((index, slice(None), positions),)

    def column_zones(self, name: str) -> tuple[_ColumnZones | None, tuple]:
        try:
            zones = self.index._column(name)
        except _Unsupported:
            return None, self.segments
        if zones is not None and self.positions is not None:
            zones = _sliced_zones(zones, self.positions)
        return zones, ()

    @staticmethod
    def scratch(role: str, rows: int, cols: int) -> np.ndarray:
        return np.empty((rows, cols), dtype=bool)


class CompiledWorkload:
    """A query sample compiled for batched zone-map evaluation.

    The compilation is layout-independent: one ``CompiledWorkload`` can
    be evaluated against any number of :class:`ZoneMapIndex` instances
    (the layout-admission loop evaluates the same sample against every
    candidate and every existing state, so the compile cost amortizes
    across the whole state space).
    """

    def __init__(self, predicates: Sequence[Predicate]):
        self.predicates = tuple(predicates)
        self.num_queries = len(self.predicates)
        groups: dict[tuple[str, str], _AtomGroup] = {}
        #: (query row, node) pairs evaluated via the per-predicate path
        self._residue: list[tuple[int, Predicate]] = []
        #: query rows containing an AlwaysFalse conjunct: both masks False
        self._false_rows: list[int] = []
        for row, predicate in enumerate(self.predicates):
            stack = [predicate]
            while stack:
                node = stack.pop()
                if type(node) is And:
                    stack.extend(reversed(node.children))
                else:
                    self._lower(row, node, groups)
        self._groups = list(groups.values())
        for group in self._groups:
            group.freeze()
        self._plan_reduction()

    # -------------------------------------------------------------- compilation
    def _lower(self, row: int, node: Predicate, groups: dict) -> None:
        node_type = type(node)
        if node_type is AlwaysTrue:
            return  # identity of the conjunction
        if node_type is AlwaysFalse:
            self._false_rows.append(row)
            return
        if node_type is Comparison or node_type is Between or node_type is In:
            try:
                kind, a, b = _atom(node, eager_in=True)
            except _Unsupported:
                # Lossy constants: exact via the per-predicate path.
                self._residue.append((row, node))
                return
            group = groups.get((node.column, kind))
            if group is None:
                group = groups[(node.column, kind)] = _AtomGroup(node.column, kind)
            group.owners.append(row)
            group.nodes.append(node)
            group.a.append(a)
            group.b.append(b)
            return
        # Or / Not / unknown subclasses: exact via the per-predicate path.
        self._residue.append((row, node))

    def _plan_reduction(self) -> None:
        """Pre-plan the fused AND-reduction over all groups' atoms.

        Group mask blocks — one row per *unique* atom — are concatenated
        in group order at evaluation time.  Here the atom→query ownership
        (over the logical, duplicate-bearing atoms) is sorted and cut
        into *depth layers*: layer 0 holds each query's first atom, layer
        ``d`` its ``d``-th further atom.  Within a layer every query
        appears at most once, so evaluation folds each layer with one
        duplicate-free fancy-indexed ``&=`` — a couple of large NumPy ops
        per layer (conjunctions are shallow: layers ≈ max conjuncts per
        query) instead of one update per group or a slow ``reduceat``
        over ragged segments.  Every row index is composed with the
        groups' dedup mapping at plan time, so duplicate atoms are never
        materialized: the layer gathers read the unique row directly.
        """
        owners_list: list[int] = []
        unique_rows_list: list[int] = []
        offset = 0
        for group in self._groups:
            owners_list.extend(group.owners)
            if group.inverse is None:
                unique_rows_list.extend(range(offset, offset + len(group.unodes)))
            else:
                unique_rows_list.extend((group.inverse + offset).tolist())
            offset += len(group.unodes)
        self._num_atoms = len(owners_list)
        self._num_unique_atoms = offset
        self._layers: list[tuple[np.ndarray | None, np.ndarray]] = []
        self._base_rows: np.ndarray | None = None
        self._target_rows: np.ndarray | None = None
        if not self._num_atoms:
            return
        owners = np.asarray(owners_list, dtype=np.int64)
        unique_rows = np.asarray(unique_rows_list, dtype=np.int64)
        order = np.argsort(owners, kind="stable")
        sorted_owners = owners[order]
        starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_owners)) + 1))
        sizes = np.diff(starts, append=self._num_atoms)
        #: row index into the stacked *unique* block matrix of each
        #: query's first atom (order[...] composes the sort at plan time,
        #: unique_rows[...] the dedup)
        self._base_rows = unique_rows[order[starts]]
        self._target_rows = sorted_owners[starts]
        #: True when every query owns at least one atom — the reduction
        #: result then IS the output matrix (no scatter needed).
        self._covers_all = len(starts) == self.num_queries
        owner_rank = np.repeat(np.arange(len(starts)), sizes)
        depth = np.arange(self._num_atoms) - starts[owner_rank]
        for level in range(1, int(sizes.max())):
            in_level = depth == level
            ranks = owner_rank[in_level]
            # A layer touching every reduction row in order needs no
            # scatter: ``None`` marks it for a single in-place AND pass
            # instead of gather + AND + scatter.
            full = len(ranks) == len(starts)
            self._layers.append(
                (None if full else ranks, unique_rows[order[in_level]])
            )

    # --------------------------------------------------------------- evaluation
    def prune_matrix(self, index: ZoneMapIndex) -> np.ndarray:
        """``(num_queries, num_partitions)`` may-match matrix for ``index``."""
        return self.evaluate(_IndexSource(index), want_all=False)

    def matches_all_matrix(self, index: ZoneMapIndex) -> np.ndarray:
        """``(num_queries, num_partitions)`` matches-all matrix for ``index``."""
        return self.evaluate(_IndexSource(index), want_all=True)

    def matrices(self, index: ZoneMapIndex) -> tuple[np.ndarray, np.ndarray]:
        """(may-match, matches-all) matrices in one call."""
        return self.prune_matrix(index), self.matches_all_matrix(index)

    def accessed_fractions(self, index: ZoneMapIndex) -> np.ndarray:
        """Batched ``c(s, q)`` over the sample: one matrix product."""
        if self.num_queries == 0 or index.total_rows == 0.0:
            return np.zeros(self.num_queries, dtype=np.float64)
        return _fractions_from_matrix(
            self.prune_matrix(index), index.row_counts, index.total_rows
        )

    def revalidate(
        self,
        index: ZoneMapIndex,
        delta: ReorgDelta,
        prior: np.ndarray,
        want_all: bool = False,
    ) -> np.ndarray:
        """Update a previously computed matrix after a reorganization.

        ``prior`` must be the matrix this workload produced against the
        pre-reorg index (with the same ``want_all``); ``index`` is the
        post-reorg index (typically ``old_index.apply_reorg(delta)``).
        Columns of carried partitions are copied; only the changed
        partitions are re-evaluated.
        """
        if prior.shape != (self.num_queries, len(delta.old_metadata.partitions)):
            raise ValueError(
                f"prior matrix shape {prior.shape} does not match "
                f"({self.num_queries}, {len(delta.old_metadata.partitions)})"
            )
        if index.metadata is not delta.new_metadata:
            raise ValueError("index was not built from the delta's new metadata")
        out = np.empty((self.num_queries, index.num_partitions), dtype=bool)
        out[:, delta.carried_new] = prior[:, delta.carried_old]
        if len(delta.changed):
            positions = np.asarray(delta.changed, dtype=np.int64)
            out[:, positions] = self.evaluate(_IndexSource(index, positions), want_all)
        return out

    def evaluate(self, source, want_all: bool = False) -> np.ndarray:
        """``(num_queries, source.width)`` matrix over a zones source.

        The one evaluation routine of both batched drivers: one kernel block
        per group, the pre-planned depth-layer AND-reduction, then the
        false rows and the residue predicates.  ``source`` is an
        ``_IndexSource`` (one layout) or a
        :class:`~repro.layouts.stacked.StackedStateSpace` (every layout).
        """
        width = source.width
        if self._num_atoms:
            # _plan_reduction pinned both row maps when atoms exist.
            assert self._base_rows is not None and self._target_rows is not None
            # Group kernels write straight into their slice of the block
            # matrix: no per-group allocation, no vstack copy.
            blocks = source.scratch("blocks", self._num_unique_atoms, width)
            offset = 0
            for group in self._groups:
                rows = len(group.unodes)
                self._group_block(group, source, want_all, blocks[offset : offset + rows])
                offset += rows
            reduced = np.take(blocks, self._base_rows, axis=0)
            for owner_ranks, atom_rows in self._layers:
                layer = source.scratch("layer", len(atom_rows), width)
                gathered = np.take(blocks, atom_rows, axis=0, out=layer)
                if owner_ranks is None:
                    np.logical_and(reduced, gathered, out=reduced)
                else:
                    reduced[owner_ranks] &= gathered
            if self._covers_all:
                out = reduced  # target rows are exactly 0..Q-1, in order
            else:
                out = np.ones((self.num_queries, width), dtype=bool)
                out[self._target_rows] = reduced
        else:
            out = np.ones((self.num_queries, width), dtype=bool)
        for row in self._false_rows:
            out[row] = False
        segments = source.segments if self._residue else ()
        for row, node in self._residue:
            for index, columns, positions in segments:
                mask = index._mask(node, want_all)
                out[row, columns] &= mask if positions is None else mask[positions]
        return out

    @staticmethod
    def _group_block(group: _AtomGroup, source, want_all: bool, out: np.ndarray) -> None:
        """One group's ``(unique_atoms, width)`` mask block, into ``out``.

        Segments whose column cannot be vectorized (non-numeric or lossy
        zone boundaries) are overwritten with the per-predicate result,
        which falls back to the scalar oracle there.
        """
        zones, fallback = source.column_zones(group.column)
        if zones is None:
            # Column in no partition's stats: may_match is vacuously True
            # (no-op under AND); matches_all is False for every partition.
            out[:] = not want_all
        else:
            _zone_mask(zones, group.kind, want_all, *group.block, out)
        for index, columns, positions in fallback:
            for row, node in enumerate(group.unodes):
                mask = index._mask(node, want_all)
                out[row, columns] = mask if positions is None else mask[positions]
