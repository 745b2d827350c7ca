"""MSB-first bit streams.

Writing is one conversion: the encoder builds its stream as a string of
'0' and '1' characters and :func:`bits_to_bytes` turns it into bytes.
Reading goes through :class:`BitReader`, which peeks and consumes bit
fields of any width.
"""

from __future__ import annotations


class BitstreamEnd(Exception):
    """Read past the end of the input."""


def bits_to_bytes(bits: str) -> bytes:
    """The bytes of a '0'/'1' string, MSB first, the last byte padded
    with zero bits."""
    bits += "0" * (-len(bits) % 8)
    # base-2 int() is linear and exempt from the 4300-digit limit on
    # str-to-int conversion, so a whole stream converts at once
    return int(bits or "0", 2).to_bytes(len(bits) >> 3, "big")


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0  # in bits

    def peek(self, nbits) -> int:
        """The next ``nbits`` bits without consuming them; at least
        ``nbits`` must be left."""
        pos = self._pos
        end = pos + nbits
        chunk = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (chunk >> (-end & 7)) & ((1 << nbits) - 1)

    def read(self, nbits) -> int:
        if nbits > self.remaining_bits:
            raise BitstreamEnd()
        value = self.peek(nbits)
        self._pos += nbits
        return value

    def skip(self, nbits):
        """Consume ``nbits`` bits, or raise BitstreamEnd and consume none
        if fewer are left."""
        if self._pos + nbits > self._nbits:
            raise BitstreamEnd()
        self._pos += nbits

    @property
    def remaining_bits(self):
        return self._nbits - self._pos
