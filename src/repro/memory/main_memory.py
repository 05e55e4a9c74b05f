"""Backing main memory.

Directories access memory through this object; the access latency is
applied by the caller via ``sim.schedule(memory.latency, ...)`` so the
memory itself stays a plain store. Unwritten blocks read as zero.
"""

from repro.memory.datablock import BLOCK_SIZE, DataBlock, block_align
from repro.sim.image import copy_value


class MainMemory:
    """Word-of-truth backing store, one :class:`DataBlock` per block."""

    def __init__(self, block_size=BLOCK_SIZE, latency=80):
        self.block_size = block_size
        self.latency = latency
        self._blocks = {}
        self.reads = 0
        self.writes = 0

    def read(self, addr):
        """Copy of the block containing ``addr`` (zeros if never written)."""
        addr = block_align(addr, self.block_size)
        self.reads += 1
        block = self._blocks.get(addr)
        if block is None:
            return DataBlock(self.block_size)
        return block.copy()

    def write(self, addr, data):
        """Store a copy of ``data`` at ``addr``'s block."""
        addr = block_align(addr, self.block_size)
        if data.size != self.block_size:
            raise ValueError(
                f"block size mismatch: memory {self.block_size}, data {data.size}"
            )
        self.writes += 1
        self._blocks[addr] = data.copy()

    def peek(self, addr):
        """Read without counting (for checkers); zeros if never written."""
        addr = block_align(addr, self.block_size)
        block = self._blocks.get(addr)
        return block.copy() if block is not None else DataBlock(self.block_size)

    def save_state(self, memo):
        """Written blocks and the access counters."""
        return (copy_value(self._blocks, memo), self.reads, self.writes)

    def restore_state(self, image, memo):
        blocks, self.reads, self.writes = image
        self._blocks = copy_value(blocks, memo)

    def __repr__(self):
        return f"MainMemory(blocks={len(self._blocks)}, latency={self.latency})"
