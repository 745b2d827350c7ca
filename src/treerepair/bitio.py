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

    def getvalue(self) -> bytes:
        """Final bytes, zero-padding the last partial byte."""
        out = bytes(self._out)
        if self._n:
            out += bytes([(self._acc << (8 - self._n)) & 0xFF])
        return out


class BitReader:
    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0  # in bits

    def read(self, nbits) -> int:
        end = self._pos + nbits
        if end > len(self._data) * 8:
            raise BitstreamEnd()
        value = 0
        pos = self._pos
        data = self._data
        taken = 0
        while taken < nbits:
            byte = data[pos >> 3]
            offset = pos & 7
            avail = 8 - offset
            take = min(avail, nbits - taken)
            chunk = (byte >> (avail - take)) & ((1 << take) - 1)
            value = (value << take) | chunk
            taken += take
            pos += take
        self._pos = end
        return value

    @property
    def remaining_bits(self):
        return len(self._data) * 8 - self._pos
