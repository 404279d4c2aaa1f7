"""The paged SDRAM store against a dict-of-words reference model.

:class:`repro.core.sdram.SDRAM` keeps its words in fixed-size ``uint32``
pages and moves blocks as slice copies.  The reference model below is
the plain word-addressed dict the store replaced.  Random operation
sequences — concentrated around page boundaries, with unaligned and
out-of-range addresses mixed in — must give both the same return
values, the same errors, the same traffic counters and the same final
memory image.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sdram import (
    PAGE_WORDS,
    SDRAM,
    SDRAMAllocationError,
    SDRAMRegion,
)

PAGE_BYTES = 4 * PAGE_WORDS
#: Three pages and a bit: every page boundary is reachable by a block.
SIZE_BYTES = 3 * PAGE_BYTES + 64


class ReferenceSDRAM:
    """Word-addressed dict model of the SDRAM data-access contract."""

    def __init__(self, size_bytes: int) -> None:
        self.size_bytes = size_bytes
        self.store: Dict[int, int] = {}
        self.regions: List[SDRAMRegion] = []
        self.next_free = 0
        self.total_bytes_read = 0
        self.total_bytes_written = 0

    def _check(self, address: int, n_words: int = 1) -> None:
        if n_words < 0:
            raise ValueError("negative length")
        if address % 4 != 0:
            raise ValueError("unaligned")
        if not 0 <= address < self.size_bytes:
            raise ValueError("outside")
        if address + 4 * n_words > self.size_bytes:
            raise ValueError("runs past the end")

    def write_word(self, address: int, value: int) -> None:
        self._check(address)
        self.store[address] = value & 0xFFFFFFFF
        self.total_bytes_written += 4

    def read_word(self, address: int) -> int:
        self._check(address)
        self.total_bytes_read += 4
        return self.store.get(address, 0)

    def write_block(self, address: int, words: List[int]) -> None:
        if words:
            self._check(address, len(words))
        for offset, word in enumerate(words):
            self.store[address + 4 * offset] = word & 0xFFFFFFFF
        self.total_bytes_written += 4 * len(words)

    def peek_block(self, address: int, n_words: int) -> List[int]:
        if n_words:
            self._check(address, n_words)
        return [self.store.get(address + 4 * i, 0) for i in range(n_words)]

    def read_block(self, address: int, n_words: int) -> List[int]:
        words = self.peek_block(address, n_words)
        self.total_bytes_read += 4 * n_words
        return words

    def allocate(self, size: int) -> SDRAMRegion:
        aligned = (size + 3) & ~3
        if self.next_free + aligned > self.size_bytes:
            raise SDRAMAllocationError("full")
        region = SDRAMRegion(base=self.next_free, size=aligned)
        self.next_free += aligned
        self.regions.append(region)
        return region

    def free(self, region: SDRAMRegion) -> None:
        self.regions.remove(region)
        for address in range(region.base, region.end, 4):
            self.store.pop(address, None)
        if region.end == self.next_free:
            self.next_free = region.base

    def image(self) -> np.ndarray:
        words = np.zeros(self.size_bytes // 4, dtype=np.uint32)
        for address, value in self.store.items():
            words[address // 4] = value
        return words


# ----------------------------------------------------------------------
# Operation strategies
# ----------------------------------------------------------------------
#: Word-aligned addresses within a few words of a page boundary, plus
#: the ends of the address space.
near_boundary = st.builds(
    lambda page, delta: page * PAGE_BYTES + 4 * delta,
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-24, max_value=24))
addresses = st.one_of(
    near_boundary,
    st.integers(min_value=0, max_value=SIZE_BYTES // 4 - 1).map(
        lambda word: 4 * word),
    # Unaligned, negative or past the end.
    near_boundary.map(lambda address: address + 1),
    near_boundary.map(lambda address: address + 2),
    st.sampled_from([-4, SIZE_BYTES, SIZE_BYTES + 4, SIZE_BYTES - 4]),
)
values = st.integers(min_value=-(1 << 40), max_value=1 << 40)
lengths = st.integers(min_value=0, max_value=48)

operations = st.one_of(
    st.tuples(st.just("write_word"), addresses, values),
    st.tuples(st.just("read_word"), addresses),
    st.tuples(st.just("write_block"), addresses,
              st.lists(values, max_size=48)),
    st.tuples(st.just("read_block"), addresses, lengths),
    st.tuples(st.just("peek_block"), addresses, lengths),
    st.tuples(st.just("allocate"),
              st.integers(min_value=1, max_value=PAGE_BYTES + 200)),
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=7)),
)


def apply(memory, operation):
    """Run one operation; return ``("ok", value)`` or ``("error", type)``."""
    name, *args = operation
    if name == "free":
        live = memory.regions
        if not live:
            return ("ok", None)
        region = live[args[0] % len(live)]
        memory.free(region)
        return ("ok", (region.base, region.size))
    try:
        result = getattr(memory, name)(*args)
    except (ValueError, SDRAMAllocationError) as error:
        return ("error", type(error).__name__)
    if isinstance(result, SDRAMRegion):
        return ("ok", (result.base, result.size))
    if isinstance(result, np.ndarray):
        return ("ok", [int(word) for word in result])
    return ("ok", result)


class TestPagedStoreMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operations, min_size=1, max_size=40))
    def test_random_operation_sequences(self, sequence):
        paged = SDRAM(size_bytes=SIZE_BYTES)
        reference = ReferenceSDRAM(SIZE_BYTES)
        for operation in sequence:
            assert apply(paged, operation) == apply(reference, operation), \
                operation
            assert paged.total_bytes_read == reference.total_bytes_read
            assert paged.total_bytes_written == \
                reference.total_bytes_written
        assert np.array_equal(paged.peek_block(0, SIZE_BYTES // 4),
                              reference.image())


class TestPagedStoreEdges:
    def test_block_across_page_boundary(self):
        sdram = SDRAM(size_bytes=SIZE_BYTES)
        address = PAGE_BYTES - 8
        sdram.write_block(address, [1, 2, 3, 4])
        assert sdram.read_block(address, 4) == [1, 2, 3, 4]
        assert sdram.read_word(PAGE_BYTES) == 3
        assert sdram.total_bytes_written == 16

    def test_array_block_keeps_low_32_bits(self):
        sdram = SDRAM(size_bytes=SIZE_BYTES)
        sdram.write_block(0, np.array([[-1, 1 << 33], [7, 0]]))
        assert sdram.read_block(0, 4) == [0xFFFFFFFF, 0, 7, 0]

    def test_overrunning_block_writes_nothing(self):
        sdram = SDRAM(size_bytes=SIZE_BYTES)
        with pytest.raises(ValueError):
            sdram.write_block(SIZE_BYTES - 8, [1, 2, 3])
        assert sdram.total_bytes_written == 0
        assert sdram.peek_block(SIZE_BYTES - 8, 2).tolist() == [0, 0]

    def test_peek_does_not_charge_counters(self):
        sdram = SDRAM(size_bytes=SIZE_BYTES)
        sdram.write_block(PAGE_BYTES - 4, [5, 6])
        before = (sdram.total_bytes_read, sdram.total_bytes_written)
        words = sdram.peek_block(PAGE_BYTES - 4, 2)
        assert words.dtype == np.uint32 and words.tolist() == [5, 6]
        assert (sdram.total_bytes_read, sdram.total_bytes_written) == before

    def test_freed_words_read_zero(self):
        sdram = SDRAM(size_bytes=SIZE_BYTES)
        keep = sdram.allocate(PAGE_BYTES - 4)
        gone = sdram.allocate(16)
        sdram.write_block(keep.base, [9] * (keep.size // 4))
        sdram.write_block(gone.base, [1, 2, 3, 4])
        sdram.free(gone)
        assert sdram.read_block(gone.base, 4) == [0, 0, 0, 0]
        assert sdram.read_word(keep.end - 4) == 9

    def test_unwritten_pages_are_not_materialised(self):
        sdram = SDRAM()
        sdram.write_word(sdram.size_bytes - 4, 1)
        assert sdram.read_block(0, 3) == [0, 0, 0]
        assert len(sdram._pages) == 1
