"""Vectorized CSR spike-propagation engine.

The deferred-event ("soft delay") model is "one of the most expensive
functions of the neuron models" (Sections 3.2 and 5.3 of the paper), and
the original reference simulator paid for it twice over: every projection
was expanded into per-source lists of :class:`~repro.neuron.synapse.Synapse`
objects, and every spike walked its list one Python object at a time.

This module compiles a projection's expanded rows once into a
compressed-sparse-row (CSR) matrix — four flat NumPy arrays:

* ``row_ptr``  — ``n_pre + 1`` offsets; row ``i`` occupies synapse slots
  ``row_ptr[i]:row_ptr[i + 1]``;
* ``targets``  — post-synaptic neuron index per synapse;
* ``weights``  — synaptic efficacy (nA) per synapse;
* ``delay_ticks`` — programmable soft delay per synapse.

All spikes of a tick are then scattered into the
:class:`~repro.neuron.synapse.DeferredEventBuffer` ring with one
``np.add.at`` per projection instead of a per-synapse Python loop, and the
same arrays drive the vectorized STDP update
(:meth:`repro.neuron.stdp.STDPMechanism.update_csr`) and the packed-word
SDRAM blocks written by the mapping layer.  The scatter performs the same
floating-point additions in the same order as the object-based loop, so
the two propagation paths produce identical spike trains for a seeded
network (see ``tests/test_neuron_engine.py``).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.neuron.synapse import (
    DELAY_BITS,
    INDEX_BITS,
    MAX_DELAY_TICKS,
    WEIGHT_BITS,
    WEIGHT_FIXED_POINT,
    DeferredEventBuffer,
    Synapse,
)

_SIGN_BIT = 1 << (WEIGHT_BITS - 1)
_WEIGHT_MAGNITUDE_MASK = _SIGN_BIT - 1
_INDEX_MASK = (1 << INDEX_BITS) - 1
_DELAY_MASK = (1 << DELAY_BITS) - 1


# ----------------------------------------------------------------------
# Vectorized packed-word codec (bit-compatible with Synapse.pack/unpack)
# ----------------------------------------------------------------------
def pack_synapse_words(targets: np.ndarray, weights: np.ndarray,
                       delay_ticks: np.ndarray) -> np.ndarray:
    """Pack aligned synapse arrays into 32-bit SDRAM synaptic words.

    Bit-for-bit identical to calling :meth:`Synapse.pack` on every synapse
    (both round half-to-even when quantising the weight).
    """
    targets = np.asarray(targets, dtype=np.int64)
    delay_ticks = np.asarray(delay_ticks, dtype=np.int64)
    weights = np.asarray(weights, dtype=float)
    if targets.size and (targets.min() < 0
                         or targets.max() >= (1 << INDEX_BITS)):
        raise ValueError("target indices must fit in %d bits and be "
                         "non-negative" % (INDEX_BITS,))
    if delay_ticks.size and (delay_ticks.min() < 1
                             or delay_ticks.max() > (1 << DELAY_BITS)):
        raise ValueError("delays must lie in 1..%d ticks to fit the %d-bit "
                         "field" % (1 << DELAY_BITS, DELAY_BITS))
    magnitude = np.rint(np.abs(weights) * WEIGHT_FIXED_POINT).astype(np.int64)
    magnitude = np.minimum(magnitude, _WEIGHT_MAGNITUDE_MASK)
    weight_field = np.where(weights < 0, magnitude | _SIGN_BIT, magnitude)
    words = ((weight_field << (DELAY_BITS + INDEX_BITS)) |
             ((delay_ticks - 1) << INDEX_BITS) | targets)
    return words.astype(np.uint32)


def unpack_synapse_words(words: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                     np.ndarray]:
    """Unpack 32-bit synaptic words into ``(targets, weights, delay_ticks)``.

    The inverse of :func:`pack_synapse_words`, matching
    :meth:`Synapse.unpack` exactly.
    """
    words = np.asarray(words, dtype=np.uint32).astype(np.int64)
    targets = (words & _INDEX_MASK).astype(np.int64)
    delay_ticks = (((words >> INDEX_BITS) & _DELAY_MASK) + 1).astype(np.int64)
    weight_field = words >> (DELAY_BITS + INDEX_BITS)
    magnitude = (weight_field & _WEIGHT_MAGNITUDE_MASK) / WEIGHT_FIXED_POINT
    weights = np.where(weight_field & _SIGN_BIT, -magnitude, magnitude)
    return targets, weights, delay_ticks


def decode_packed_row(words: Sequence[int]) -> Tuple[int, np.ndarray,
                                                     np.ndarray, np.ndarray]:
    """Decode one packed SDRAM row (count header + synapse words).

    Returns ``(count, targets, weights, delay_ticks)``; the fast-path
    replacement for ``SynapticRow.unpack`` used by the on-machine
    DMA-complete handler, with the same validation.
    """
    if len(words) == 0:
        raise ValueError("a packed synaptic row has at least a header word")
    count = int(words[0])
    if count > len(words) - 1:
        raise ValueError("row header claims %d synapses but only %d words follow"
                         % (count, len(words) - 1))
    targets, weights, delay_ticks = unpack_synapse_words(
        np.asarray(words[1:count + 1], dtype=np.uint32))
    return count, targets, weights, delay_ticks


class CSRMatrix:
    """A projection's synapses compiled into flat CSR arrays."""

    __slots__ = ("n_pre", "n_post", "row_ptr", "targets", "weights",
                 "delay_ticks", "pre_index")

    def __init__(self, n_pre: int, n_post: int, row_ptr: np.ndarray,
                 targets: np.ndarray, weights: np.ndarray,
                 delay_ticks: np.ndarray) -> None:
        if n_pre <= 0 or n_post <= 0:
            raise ValueError("population sizes must be positive")
        self.n_pre = n_pre
        self.n_post = n_post
        self.row_ptr = np.asarray(row_ptr, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int64)
        self.weights = np.asarray(weights, dtype=float)
        self.delay_ticks = np.asarray(delay_ticks, dtype=np.int64)
        if self.row_ptr.shape != (n_pre + 1,):
            raise ValueError("row_ptr must have n_pre + 1 entries")
        if not (self.targets.shape == self.weights.shape
                == self.delay_ticks.shape):
            raise ValueError("targets, weights and delay_ticks must align")
        if self.targets.size:
            if self.targets.min() < 0 or self.targets.max() >= n_post:
                raise ValueError("synapse target outside the post population")
            if (self.delay_ticks.min() < 1
                    or self.delay_ticks.max() > MAX_DELAY_TICKS):
                raise ValueError("synapse delays must lie in 1..%d ticks"
                                 % (MAX_DELAY_TICKS,))
        #: Source neuron of every synapse slot (the row each slot belongs to).
        self.pre_index = np.repeat(np.arange(n_pre, dtype=np.int64),
                                   np.diff(self.row_ptr))

    # ------------------------------------------------------------------
    # Construction / conversion
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(cls, rows: Dict[int, List[Synapse]], n_pre: int,
                  n_post: int) -> "CSRMatrix":
        """Compile per-source :class:`Synapse` lists into CSR arrays."""
        counts = np.zeros(n_pre + 1, dtype=np.int64)
        for pre, synapses in rows.items():
            if not 0 <= pre < n_pre:
                raise IndexError("row key %d outside population of %d"
                                 % (pre, n_pre))
            counts[pre + 1] = len(synapses)
        row_ptr = np.cumsum(counts)
        total = int(row_ptr[-1])
        ordered = (s for pre in range(n_pre) for s in rows.get(pre, ()))
        flat = list(ordered)
        targets = np.fromiter((s.target for s in flat), dtype=np.int64,
                              count=total)
        weights = np.fromiter((s.weight for s in flat), dtype=float,
                              count=total)
        delays = np.fromiter((s.delay_ticks for s in flat), dtype=np.int64,
                             count=total)
        return cls(n_pre, n_post, row_ptr, targets, weights, delays)

    def to_rows(self) -> Dict[int, List[Synapse]]:
        """Expand back into per-source synapse lists (rows may be empty)."""
        rows: Dict[int, List[Synapse]] = {}
        for pre in range(self.n_pre):
            lo, hi = int(self.row_ptr[pre]), int(self.row_ptr[pre + 1])
            rows[pre] = [Synapse(int(self.targets[i]), float(self.weights[i]),
                                 int(self.delay_ticks[i]))
                         for i in range(lo, hi)]
        return rows

    def write_back(self, rows: Dict[int, List[Synapse]]) -> None:
        """Sync (possibly plasticity-modified) weights into a rows dict.

        ``rows`` must be the expansion this matrix was compiled from; the
        on-machine analogue is the write-back DMA that commits modified
        connectivity data to SDRAM (Section 5.3).
        """
        for pre, row in rows.items():
            lo = int(self.row_ptr[pre])
            for offset, synapse in enumerate(row):
                weight = float(self.weights[lo + offset])
                if weight != synapse.weight:
                    row[offset] = Synapse(synapse.target, weight,
                                          synapse.delay_ticks)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_synapses(self) -> int:
        """Total synapses in the matrix."""
        return int(self.targets.size)

    def max_delay(self) -> int:
        """Largest programmable delay used (0 for an empty matrix)."""
        if self.delay_ticks.size == 0:
            return 0
        return int(self.delay_ticks.max())

    def row_lengths(self) -> np.ndarray:
        """Synapse count of every source row."""
        return np.diff(self.row_ptr)

    def synapse_slots(self, pre_indices: np.ndarray) -> np.ndarray:
        """Flat synapse-array indices of all synapses of the given rows.

        Rows are expanded in the order given (ascending when the caller
        passes ``np.flatnonzero`` of a spike mask), with each row's
        synapses kept in storage order — the exact order the object-based
        reference loop visits them.
        """
        pre_indices = np.asarray(pre_indices, dtype=np.int64)
        if pre_indices.size == 0:
            return np.empty(0, dtype=np.int64)
        starts = self.row_ptr[pre_indices]
        counts = self.row_ptr[pre_indices + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        offsets = np.cumsum(counts) - counts
        return (np.arange(total, dtype=np.int64)
                - np.repeat(offsets, counts) + np.repeat(starts, counts))

    # ------------------------------------------------------------------
    # Propagation
    # ------------------------------------------------------------------
    def scatter(self, pre_indices: np.ndarray,
                buffer: DeferredEventBuffer) -> int:
        """Batch-defer every synaptic event of the spiking source neurons.

        Returns the number of synaptic events scattered.
        """
        slots = self.synapse_slots(pre_indices)
        if slots.size:
            buffer.add_events(self.targets[slots], self.weights[slots],
                              self.delay_ticks[slots])
        return int(slots.size)

    # ------------------------------------------------------------------
    # Mapping-layer views and the packed SDRAM format
    # ------------------------------------------------------------------
    def submatrix(self, pre_start: int, pre_stop: int, post_start: int,
                  post_stop: int) -> "CSRMatrix":
        """Restrict to a (source-slice, target-slice) block.

        Source rows are renumbered from ``pre_start`` and target indices
        are rewritten into the target slice's local numbering — the view a
        destination core's synaptic-matrix block needs.
        """
        n_pre = pre_stop - pre_start
        n_post = post_stop - post_start
        lo, hi = int(self.row_ptr[pre_start]), int(self.row_ptr[pre_stop])
        targets = self.targets[lo:hi]
        keep = (targets >= post_start) & (targets < post_stop)
        counts = np.zeros(n_pre + 1, dtype=np.int64)
        if keep.any():
            kept_rows = self.pre_index[lo:hi][keep] - pre_start
            np.add.at(counts, kept_rows + 1, 1)
        row_ptr = np.cumsum(counts)
        return CSRMatrix(n_pre, n_post, row_ptr,
                         targets[keep] - post_start,
                         self.weights[lo:hi][keep],
                         self.delay_ticks[lo:hi][keep])

    def pack_block(self) -> np.ndarray:
        """Pack every row for SDRAM as one ``(n_pre, stride)`` block.

        Row ``i`` is ``SynapticRow(i, rows[i]).pack()`` — a count header
        and one synaptic word per synapse — zero-padded to the common
        stride (one header word plus the longest row), so a row's
        address follows from its index alone.
        """
        lengths = self.row_lengths()
        stride = 1 + int(lengths.max())
        block = np.zeros((self.n_pre, stride), dtype=np.uint32)
        block[:, 0] = lengths
        columns = (np.arange(self.n_synapses, dtype=np.int64)
                   - self.row_ptr[self.pre_index] + 1)
        block[self.pre_index, columns] = pack_synapse_words(
            self.targets, self.weights, self.delay_ticks)
        return block

    @classmethod
    def from_packed_block(cls, block: np.ndarray,
                          n_post: int) -> "CSRMatrix":
        """Rebuild a matrix from an ``(n_rows, stride)`` packed SDRAM block.

        The inverse of :meth:`pack_block` up to fixed-point weight
        quantisation, with :func:`decode_packed_row`'s header validation
        applied to every row at once.
        """
        block = np.asarray(block, dtype=np.uint32)
        counts = block[:, 0].astype(np.int64)
        stride = block.shape[1]
        if counts.size and counts.max() > stride - 1:
            raise ValueError("row header claims %d synapses but only %d "
                             "words follow" % (counts.max(), stride - 1))
        present = (np.arange(stride - 1, dtype=np.int64)[None, :]
                   < counts[:, None])
        targets, weights, delay_ticks = unpack_synapse_words(
            block[:, 1:][present])
        row_ptr = np.zeros(block.shape[0] + 1, dtype=np.int64)
        np.cumsum(counts, out=row_ptr[1:])
        return cls(block.shape[0], n_post, row_ptr, targets, weights,
                   delay_ticks)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CSRMatrix(%d pre, %d post, %d synapses)" % (
            self.n_pre, self.n_post, self.n_synapses)
