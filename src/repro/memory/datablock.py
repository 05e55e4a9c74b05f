"""Cache-block data payloads.

A :class:`DataBlock` wraps a fixed-size bytearray. The random tester writes
and checks single bytes; the Crossing Guard block-size translator merges and
splits whole blocks (Section 2.5 of the paper).
"""

from repro.sim.image import image_slots

BLOCK_SIZE = 64


def block_align(addr, block_size=BLOCK_SIZE):
    """Round ``addr`` down to its block base."""
    return addr - (addr % block_size)


def block_offset(addr, block_size=BLOCK_SIZE):
    """Byte offset of ``addr`` within its block."""
    return addr % block_size


@image_slots
class DataBlock:
    """Fixed-size mutable data payload with value semantics on copy.

    Blocks compare equal by content, so the random tester can check a
    loaded block against the expected value directly.
    """

    __slots__ = ("size", "_bytes")

    def __init__(self, size=BLOCK_SIZE, fill=0):
        if size <= 0:
            raise ValueError("block size must be positive")
        if not 0 <= fill <= 0xFF:
            raise ValueError("fill must be a byte value")
        self.size = size
        self._bytes = bytearray([fill]) * size if fill else bytearray(size)

    @classmethod
    def from_bytes(cls, raw):
        """Build a block whose size and content are ``raw``."""
        block = cls(size=len(raw))
        block._bytes[:] = raw
        return block

    def copy(self):
        """An independent copy (messages must not alias cache storage)."""
        clone = DataBlock(size=self.size)
        clone._bytes[:] = self._bytes
        return clone

    def read_byte(self, offset):
        """Byte at ``offset``."""
        return self._bytes[offset]

    def write_byte(self, offset, value):
        """Set byte at ``offset`` to ``value``."""
        if not 0 <= value <= 0xFF:
            raise ValueError(f"byte value out of range: {value}")
        self._bytes[offset] = value

    def read_bytes(self, offset, length):
        """``length`` bytes starting at ``offset``."""
        if offset < 0 or offset + length > self.size:
            raise IndexError("read beyond block")
        return bytes(self._bytes[offset : offset + length])

    def write_bytes(self, offset, raw):
        """Overwrite bytes starting at ``offset``."""
        if offset < 0 or offset + len(raw) > self.size:
            raise IndexError("write beyond block")
        self._bytes[offset : offset + len(raw)] = raw

    def zero(self):
        """Clear the block — Crossing Guard's untrusted-data response."""
        for index in range(self.size):
            self._bytes[index] = 0

    def is_zero(self):
        return not any(self._bytes)

    def to_bytes(self):
        return bytes(self._bytes)

    def __eq__(self, other):
        if not isinstance(other, DataBlock):
            return NotImplemented
        return self._bytes == other._bytes

    def __hash__(self):
        raise TypeError("DataBlock is mutable and unhashable")

    def __repr__(self):
        head = self._bytes[:8].hex()
        return f"DataBlock(size={self.size}, head={head}...)"
