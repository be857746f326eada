"""Run-length and move-to-front coding.

Building blocks used by the simple "bzip2-flavoured" fallback codec and by
tests; also useful for compressing the flat regions synthetic images
produce at coarse resolution levels.
"""

from __future__ import annotations

__all__ = ["rle_compress", "rle_decompress", "mtf_encode", "mtf_decode"]

_MAX_RUN = 255


def rle_compress(data: bytes) -> bytes:
    """Byte-level run-length encoding: (count, value) pairs."""
    if not data:
        return b""
    out = bytearray()
    run_byte = data[0]
    run_len = 1
    for byte in data[1:]:
        if byte == run_byte and run_len < _MAX_RUN:
            run_len += 1
        else:
            out.append(run_len)
            out.append(run_byte)
            run_byte = byte
            run_len = 1
    out.append(run_len)
    out.append(run_byte)
    return bytes(out)


def rle_decompress(data: bytes) -> bytes:
    """Inverse of :func:`rle_compress`."""
    if len(data) % 2:
        raise ValueError("RLE stream must have even length")
    out = bytearray()
    for i in range(0, len(data), 2):
        count, value = data[i], data[i + 1]
        if count == 0:
            raise ValueError("zero-length run in RLE stream")
        out.extend(bytes([value]) * count)
    return bytes(out)


def mtf_encode(data: bytes) -> bytes:
    """Move-to-front transform (stabilizes byte distributions for RLE)."""
    alphabet = bytearray(range(256))
    out = bytearray()
    for byte in data:
        idx = alphabet.index(byte)
        out.append(idx)
        del alphabet[idx]
        alphabet.insert(0, byte)
    return bytes(out)


def mtf_decode(data: bytes) -> bytes:
    """Inverse of :func:`mtf_encode`."""
    alphabet = bytearray(range(256))
    out = bytearray()
    for idx in data:
        byte = alphabet[idx]
        out.append(byte)
        del alphabet[idx]
        alphabet.insert(0, byte)
    return bytes(out)
