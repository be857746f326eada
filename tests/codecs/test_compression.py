"""Tests for LZW, RLE/MTF, and codec models (incl. property-based)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.visualization.images import measured_codec_ratios
from repro.codecs import (
    BZ2,
    CODECS,
    LZW,
    MTF_RLE,
    NULL,
    WaveletPyramid,
    get_codec,
    lzw_compress,
    lzw_decompress,
    mtf_decode,
    mtf_encode,
    rle_compress,
    rle_decompress,
    synthetic_image,
)


# ------------------------------------------------------------------- LZW


def test_lzw_empty():
    assert lzw_compress(b"") == b""
    assert lzw_decompress(b"") == b""


def test_lzw_single_byte():
    assert lzw_decompress(lzw_compress(b"x")) == b"x"


def test_lzw_repetitive_data_compresses_well():
    data = b"abcabcabc" * 1000
    compressed = lzw_compress(data)
    assert len(compressed) < len(data) / 4
    assert lzw_decompress(compressed) == data


def test_lzw_kwkwk_case():
    # The classic pathological pattern that exercises the code==next_code
    # branch.
    data = b"ababababa" * 10
    assert lzw_decompress(lzw_compress(data)) == data


def test_lzw_random_data_roundtrip():
    rng = np.random.default_rng(0)
    data = rng.integers(0, 256, size=10000, dtype=np.uint8).tobytes()
    assert lzw_decompress(lzw_compress(data)) == data


def test_lzw_large_input_crosses_width_boundaries():
    # >65536 dictionary entries worth of input exercises width growth and
    # the dictionary freeze.
    rng = np.random.default_rng(1)
    # Mildly compressible: limited alphabet.
    data = rng.integers(0, 16, size=300000, dtype=np.uint8).tobytes()
    assert lzw_decompress(lzw_compress(data)) == data


def test_lzw_invalid_stream_raises():
    with pytest.raises(ValueError):
        # 0xFFFF as a 9-bit-first stream yields an out-of-range code.
        lzw_decompress(b"\xff\xff\xff\xff")


@given(st.binary(max_size=2000))
@settings(max_examples=150, deadline=None)
def test_lzw_roundtrip_property(data):
    assert lzw_decompress(lzw_compress(data)) == data


# ------------------------------------------------------------------- RLE


def test_rle_empty():
    assert rle_compress(b"") == b""
    assert rle_decompress(b"") == b""


def test_rle_runs():
    data = b"\x00" * 300 + b"\x01" * 5
    compressed = rle_compress(data)
    assert len(compressed) == 6  # runs: 255+45 zeros, 5 ones
    assert rle_decompress(compressed) == data


def test_rle_invalid_stream():
    with pytest.raises(ValueError):
        rle_decompress(b"\x01")
    with pytest.raises(ValueError):
        rle_decompress(b"\x00\x41")


@given(st.binary(max_size=1500))
@settings(max_examples=150, deadline=None)
def test_rle_roundtrip_property(data):
    assert rle_decompress(rle_compress(data)) == data


@given(st.binary(max_size=1000))
@settings(max_examples=100, deadline=None)
def test_mtf_roundtrip_property(data):
    assert mtf_decode(mtf_encode(data)) == data


def test_mtf_stabilizes_repeated_bytes():
    encoded = mtf_encode(b"aaaaab")
    # After the first 'a', repeats encode as index 0.
    assert encoded[1:5] == b"\x00\x00\x00\x00"


# ------------------------------------------------------------ byte pins
#
# sha256 of each codec's output on two fixed inputs: the 64 KiB pyramid
# bytes that calibrate the analytic image model, and a seeded input long
# enough to fill the LZW dictionary (2**16 codes) and freeze it.  Any
# rewrite of the codecs must keep these bytes.

def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _calibration_bytes() -> bytes:
    return WaveletPyramid(synthetic_image(256, seed=0), levels=3).region_bytes(
        3, 0, 0, 256, 256
    )


def _freezing_bytes() -> bytes:
    rng = np.random.default_rng(1)
    return rng.integers(0, 16, size=300000, dtype=np.uint8).tobytes()


_PINS = {
    "calibration": (
        _calibration_bytes,
        "f282a0ec406cc5e144f64a4e2c91dd69ccd4b2bfde952534eee0f8e63081e851",
        {
            "lzw": "3050b1f8d399438d9218ef84a89b6410477c05a796b4cba81de8c01b68adc31d",
            "mtf": "2e0163dbb021d45e1af02f9c1b5f71b13fb34d696c18addbf8119fc33a4d4851",
            "mtf-rle": "dd38d4d603ab16a02180ef71fdab02e0d1a2f1a6da5980cae39f8d150604c547",
        },
    ),
    "freezing": (
        _freezing_bytes,
        "8dc20fcc4438d49119acd3a3f25f007292ece1218b12f592fe1d6de7d7528dbe",
        {
            "lzw": "c12cab89a8a8c7f31dbdf3623485785aa06ca84ea70ee77990ad69e250a45ffc",
            "mtf": "1b1f381a4ac7840ed9aa1ee6db8c5fc0693aa29106bd23628e06ea11bbdeb4c4",
            "mtf-rle": "0bfa29137963024e25ad14d5b4e77f50bd1ae73ff4680fac12375d4299db1318",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(_PINS))
def test_codec_output_bytes_pinned(name):
    make, input_sha, outputs = _PINS[name]
    data = make()
    assert _sha(data) == input_sha
    encoded = mtf_encode(data)
    assert _sha(lzw_compress(data)) == outputs["lzw"]
    assert _sha(encoded) == outputs["mtf"]
    assert _sha(rle_compress(encoded)) == outputs["mtf-rle"]
    assert mtf_decode(encoded) == data


def test_measured_codec_ratios_pinned():
    assert measured_codec_ratios() == {
        "none": 1.0,
        "lzw": 2.169778837240101,
        "bzip2": 3.885456809153969,
        "mtf-rle": 0.6748774560283396,
    }


# ----------------------------------------------------------------- models


def test_all_registered_codecs_roundtrip_on_image_bytes():
    pyr = WaveletPyramid(synthetic_image(64, seed=1), levels=3)
    data = pyr.region_bytes(3, 0, 0, 64, 64)
    for codec in CODECS.values():
        assert codec.roundtrip_ok(data), codec.name


def test_bz2_beats_lzw_ratio_on_image_data():
    """The relationship that drives the paper's Fig. 6(a) crossover."""
    pyr = WaveletPyramid(synthetic_image(128, seed=2), levels=3)
    data = pyr.region_bytes(3, 0, 0, 128, 128)
    assert BZ2.ratio(data) > LZW.ratio(data) > 1.0


def test_bz2_costs_more_cpu_than_lzw():
    assert BZ2.compress_cost > LZW.compress_cost
    assert BZ2.decompress_cost > LZW.decompress_cost


def test_codec_work_scaling():
    assert LZW.compress_work(2e6) == pytest.approx(2e6 * LZW.compress_cost)
    assert NULL.compress_work(1e9) == 0.0


def test_codec_ratio_edge_cases():
    assert NULL.ratio(b"") == 1.0
    assert NULL.ratio(b"abc") == pytest.approx(1.0)


def test_get_codec():
    assert get_codec("lzw") is LZW
    assert get_codec("bzip2") is BZ2
    assert get_codec("mtf-rle") is MTF_RLE
    with pytest.raises(KeyError):
        get_codec("zstd")
