"""Shared SDRAM model (Figure 3).

Each SpiNNaker node pairs the MPSoC with a 1 Gbit (128 Mbyte) mobile DDR
SDRAM.  The SDRAM holds the synaptic connectivity data: when a spike packet
arrives, the receiving core DMAs the corresponding synaptic row from SDRAM
into its local data memory (Section 5.3).

The model tracks:

* a word-addressable backing store of fixed-size ``uint32`` pages, each
  created on its first write, so a 128 Mbyte address space costs memory
  only for the pages actually written and block transfers are array
  slice copies;
* an access-time model — fixed latency plus a per-byte transfer cost — used
  by the DMA controller;
* contention: the memory interface serves one burst at a time, so
  overlapping requests queue behind each other (the System NoC arbitrates).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: Default SDRAM size: 1 Gbit = 128 Mbyte.
DEFAULT_SDRAM_BYTES = 128 * 1024 * 1024
#: First-word access latency of the mobile DDR part, in microseconds.
DEFAULT_ACCESS_LATENCY_US = 0.1
#: Sustained transfer bandwidth of the memory interface, in bytes per
#: microsecond (~1 Gbyte/s shared across the 20 cores of a node).
DEFAULT_BANDWIDTH_BYTES_PER_US = 1000.0
#: Words per backing page (64 Kbyte pages).
PAGE_WORDS = 1 << 14


class SDRAMAllocationError(Exception):
    """Raised when an allocation request cannot be satisfied."""


@dataclass
class SDRAMRegion:
    """A contiguous allocated region of SDRAM."""

    base: int
    size: int
    tag: str = ""

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def __contains__(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass
class SDRAM:
    """The node's shared SDRAM with a simple bump allocator and timing model."""

    size_bytes: int = DEFAULT_SDRAM_BYTES
    access_latency_us: float = DEFAULT_ACCESS_LATENCY_US
    bandwidth_bytes_per_us: float = DEFAULT_BANDWIDTH_BYTES_PER_US
    _next_free: int = 0
    _regions: List[SDRAMRegion] = field(default_factory=list)
    #: Page index -> ``PAGE_WORDS`` words; unwritten pages read as zero.
    _pages: Dict[int, np.ndarray] = field(default_factory=dict, repr=False,
                                          compare=False)
    _busy_until: float = 0.0
    total_bytes_read: int = 0
    total_bytes_written: int = 0

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, tag: str = "") -> SDRAMRegion:
        """Allocate ``size`` bytes and return the region descriptor.

        Allocation is a simple bump allocator: the real machine builds its
        SDRAM layout once at load time, so fragmentation is not a concern.

        Raises
        ------
        SDRAMAllocationError
            If the request does not fit in the remaining space.
        """
        if size <= 0:
            raise ValueError("allocation size must be positive, got %r" % (size,))
        # Word-align every region.
        aligned = (size + 3) & ~3
        if self._next_free + aligned > self.size_bytes:
            raise SDRAMAllocationError(
                "cannot allocate %d bytes: %d of %d bytes already in use"
                % (size, self._next_free, self.size_bytes)
            )
        region = SDRAMRegion(base=self._next_free, size=aligned, tag=tag)
        self._next_free += aligned
        self._regions.append(region)
        return region

    def free(self, region: SDRAMRegion) -> None:
        """Release a region allocated earlier.

        The bump allocator only reclaims address space when the freed
        region is the most recent allocation; interior regions are
        forgotten (their words are zeroed and the region no longer shows
        up in :attr:`regions`) but their addresses are not reused.  This
        matches the real machine's load-time layout discipline while
        letting the incremental mapping compiler drop the synaptic blocks
        of a vertex it moved off the chip.
        """
        try:
            self._regions.remove(region)
        except ValueError:
            raise ValueError("region %r was not allocated from this SDRAM"
                             % (region,))
        for page, start, count, _offset in self._spans(region.base,
                                                       region.size // 4):
            store = self._pages.get(page)
            if store is not None:
                store[start:start + count] = 0
        if region.end == self._next_free:
            self._next_free = region.base

    @property
    def bytes_allocated(self) -> int:
        """Total bytes handed out so far."""
        return self._next_free

    @property
    def bytes_free(self) -> int:
        """Bytes still available for allocation."""
        return self.size_bytes - self._next_free

    @property
    def regions(self) -> List[SDRAMRegion]:
        """All allocated regions in allocation order."""
        return list(self._regions)

    def region_for(self, tag: str) -> Optional[SDRAMRegion]:
        """Return the first region allocated with ``tag``, or ``None``."""
        for region in self._regions:
            if region.tag == tag:
                return region
        return None

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def write_word(self, address: int, value: int) -> None:
        """Write a 32-bit word at a byte address (must be word-aligned)."""
        self._check_address(address)
        page, index = divmod(address >> 2, PAGE_WORDS)
        self._page(page)[index] = value & 0xFFFFFFFF
        self.total_bytes_written += 4

    def read_word(self, address: int) -> int:
        """Read a 32-bit word; unwritten locations read as zero."""
        self._check_address(address)
        self.total_bytes_read += 4
        page, index = divmod(address >> 2, PAGE_WORDS)
        store = self._pages.get(page)
        return 0 if store is None else int(store[index])

    def write_block(self, address: int, words) -> None:
        """Write consecutive 32-bit words starting at ``address``.

        ``words`` is a sequence of ints or an integer array of any shape
        (written in C order); each word keeps its low 32 bits.  A block
        that does not fit the SDRAM raises before any word is written.
        """
        block = np.asarray(words)
        if block.dtype != np.uint32:
            block = (block.astype(np.int64) & 0xFFFFFFFF).astype(np.uint32)
        block = block.reshape(-1)
        for page, start, count, offset in self._spans(address, block.size):
            self._page(page)[start:start + count] = \
                block[offset:offset + count]
        self.total_bytes_written += 4 * block.size

    def read_block(self, address: int, n_words: int) -> List[int]:
        """Read ``n_words`` consecutive 32-bit words starting at ``address``."""
        words = self.peek_block(address, n_words).tolist()
        self.total_bytes_read += 4 * n_words
        return words

    def peek_block(self, address: int, n_words: int) -> np.ndarray:
        """Read a block as a ``uint32`` array *without* charging the
        traffic counters.

        For tooling that inspects memory outside the simulated dataflow —
        e.g. the transport fabric decoding synaptic blocks at compile
        time — so ``total_bytes_read`` keeps meaning "bytes the simulated
        machine moved".
        """
        words = np.zeros(n_words, dtype=np.uint32)
        for page, start, count, offset in self._spans(address, n_words):
            store = self._pages.get(page)
            if store is not None:
                words[offset:offset + count] = store[start:start + count]
        return words

    def _page(self, page: int) -> np.ndarray:
        """The backing page ``page``, created zeroed on first use."""
        store = self._pages.get(page)
        if store is None:
            store = np.zeros(PAGE_WORDS, dtype=np.uint32)
            self._pages[page] = store
        return store

    def _spans(self, address: int,
               n_words: int) -> Iterator[Tuple[int, int, int, int]]:
        """Validate a block and split it into per-page pieces.

        Yields ``(page, first word in page, word count, offset into the
        block)``.  An empty block is valid at any address.
        """
        if n_words < 0:
            raise ValueError("block length must be non-negative, got %d"
                             % (n_words,))
        if n_words == 0:
            return
        self._check_address(address)
        if address + 4 * n_words > self.size_bytes:
            raise ValueError("block of %d words at 0x%x runs past the end "
                             "of the %d-byte SDRAM"
                             % (n_words, address, self.size_bytes))
        word = address >> 2
        offset = 0
        while offset < n_words:
            page, start = divmod(word + offset, PAGE_WORDS)
            count = min(PAGE_WORDS - start, n_words - offset)
            yield page, start, count, offset
            offset += count

    def _check_address(self, address: int) -> None:
        if address % 4 != 0:
            raise ValueError("address 0x%x is not word-aligned" % (address,))
        if not 0 <= address < self.size_bytes:
            raise ValueError("address 0x%x is outside the %d-byte SDRAM"
                             % (address, self.size_bytes))

    # ------------------------------------------------------------------
    # Timing
    # ------------------------------------------------------------------
    def transfer_time(self, n_bytes: int) -> float:
        """Time (microseconds) for an uncontended burst of ``n_bytes``."""
        if n_bytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.access_latency_us + n_bytes / self.bandwidth_bytes_per_us

    def schedule_transfer(self, now: float, n_bytes: int) -> float:
        """Account for contention and return the completion time of a burst.

        The interface serves one burst at a time; a burst issued while a
        previous one is still in flight starts when the interface frees up.
        """
        start = max(now, self._busy_until)
        finish = start + self.transfer_time(n_bytes)
        self._busy_until = finish
        return finish

    @property
    def busy_until(self) -> float:
        """Simulated time at which the memory interface becomes idle."""
        return self._busy_until
