"""MSB-first bit stream reader/writer."""

from __future__ import annotations


class BitstreamEnd(Exception):
    """Read past the end of the input."""


class BitWriter:
    def __init__(self):
        self._out = bytearray()
        self._acc = 0
        self._n = 0

    def write(self, value, nbits):
        if nbits < 0 or value < 0 or value >> nbits:
            raise ValueError("value %d does not fit in %d bits" % (value, nbits))
        self._acc = (self._acc << nbits) | value
        self._n += nbits
        while self._n >= 8:
            self._n -= 8
            self._out.append((self._acc >> self._n) & 0xFF)
        self._acc &= (1 << self._n) - 1

    def write_bits(self, bits: str):
        """Append a string of '0' and '1' characters in one conversion."""
        if bits.strip("01"):
            raise ValueError("bit string holds a character other than 0 and 1")
        if self._n:
            bits = format(self._acc, "0%db" % self._n) + bits
        value = int(bits or "0", 2)
        self._n = len(bits) & 7
        self._out += (value >> self._n).to_bytes(len(bits) >> 3, "big")
        self._acc = value & ((1 << self._n) - 1)

    def getvalue(self) -> bytes:
        """Final bytes, zero-padding the last partial byte."""
        out = bytes(self._out)
        if self._n:
            out += bytes([(self._acc << (8 - self._n)) & 0xFF])
        return out


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._nbits = len(data) * 8
        self._pos = 0  # in bits

    def peek(self, nbits) -> int:
        """The next ``nbits`` bits without consuming them; bits past the
        end of the input read as zeros."""
        pos = self._pos
        end = pos + nbits
        if end > self._nbits:
            have = self._nbits - pos
            return self.peek(have) << (nbits - have)
        chunk = int.from_bytes(self._data[pos >> 3:(end + 7) >> 3], "big")
        return (chunk >> (-end & 7)) & ((1 << nbits) - 1)

    def read(self, nbits) -> int:
        value = self.peek(nbits)
        self.skip(nbits)
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
