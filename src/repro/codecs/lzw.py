"""LZW compression (the paper's "compression A").

A from-scratch implementation of Lempel-Ziv-Welch over byte streams with
variable-width codes (9-16 bits).  When the dictionary reaches 2**16
entries both sides simply stop adding entries ("freeze"), which keeps the
encoder and decoder trivially synchronized.  Round-trip tested against
random and structured data, including property-based tests.
"""

from __future__ import annotations

__all__ = ["lzw_compress", "lzw_decompress"]

_MIN_WIDTH = 9
_MAX_WIDTH = 16
_MAX_CODE = 1 << _MAX_WIDTH


class _BitWriter:
    def __init__(self) -> None:
        self._out = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, width: int) -> None:
        self._acc = (self._acc << width) | value
        self._nbits += width
        while self._nbits >= 8:
            self._nbits -= 8
            self._out.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def getvalue(self) -> bytes:
        if self._nbits:
            return bytes(self._out) + bytes([(self._acc << (8 - self._nbits)) & 0xFF])
        return bytes(self._out)


class _BitReader:
    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0
        self._acc = 0
        self._nbits = 0

    def read(self, width: int) -> int:
        while self._nbits < width:
            if self._pos >= len(self._data):
                raise ValueError("truncated LZW stream")
            self._acc = (self._acc << 8) | self._data[self._pos]
            self._pos += 1
            self._nbits += 8
        self._nbits -= width
        value = (self._acc >> self._nbits) & ((1 << width) - 1)
        self._acc &= (1 << self._nbits) - 1
        return value

    def exhausted(self, width: int) -> bool:
        remaining_bits = (len(self._data) - self._pos) * 8 + self._nbits
        return remaining_bits < width


def lzw_compress(data: bytes) -> bytes:
    """Compress ``data``; empty input yields empty output."""
    if not data:
        return b""
    # A string is keyed by its prefix's code and its last byte, packed into
    # one int: ``(prefix_code << 8) | byte``.  The 256 single-byte strings
    # need no entries, their code is the byte itself.
    dictionary = {}
    lookup = dictionary.get
    next_code = 256
    width = _MIN_WIDTH
    limit = 1 << width
    writer = _BitWriter()
    write = writer.write
    current = data[0]
    for byte in data[1:]:
        key = (current << 8) | byte
        code = lookup(key)
        if code is not None:
            current = code
            continue
        write(current, width)
        if next_code < _MAX_CODE:
            dictionary[key] = next_code
            next_code += 1
            if next_code > limit and width < _MAX_WIDTH:
                width += 1
                limit <<= 1
        current = byte
    write(current, width)
    return writer.getvalue()


def lzw_decompress(data: bytes) -> bytes:
    """Inverse of :func:`lzw_compress`."""
    if not data:
        return b""
    reader = _BitReader(data)
    dictionary = {i: bytes([i]) for i in range(256)}
    next_code = 256
    width = _MIN_WIDTH
    code = reader.read(width)
    if code not in dictionary:
        raise ValueError(f"invalid initial LZW code {code}")
    previous = dictionary[code]
    out = bytearray(previous)
    while True:
        # The decoder lags the encoder's dictionary by one entry, so it must
        # widen one code earlier ("early change" in LZW folklore).
        if (
            next_code < _MAX_CODE
            and next_code + 1 > (1 << width)
            and width < _MAX_WIDTH
        ):
            width += 1
        if reader.exhausted(width):
            break
        code = reader.read(width)
        if code in dictionary:
            entry = dictionary[code]
        elif code == next_code:
            # The "KwKwK" special case: code references the entry being built.
            entry = previous + previous[:1]
        else:
            raise ValueError(f"invalid LZW code {code}")
        out.extend(entry)
        if next_code < _MAX_CODE:
            dictionary[next_code] = previous + entry[:1]
            next_code += 1
        previous = entry
    return bytes(out)
