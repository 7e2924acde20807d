"""Every line compressor accepts bytes, bytearray and memoryview alike.

The serial and batched kernels must agree whatever buffer type a line
arrives in: equal results, ``bytes`` payloads, hashable (frozen)
results -- and a wrongly sized line still raises ``CompressionError``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import (
    BDICompressor,
    BestOfCompressor,
    CachingCompressor,
    CompressionError,
    FPCCompressor,
)

_RNG = np.random.default_rng(17)
LINES = [
    bytes(64),                                   # BDI zeros
    bytes(range(8)) * 8,                         # BDI rep8
    bytes(np.arange(16, dtype="<u4") + 1000),    # narrow deltas
    bytes(_RNG.integers(0, 256, 64, dtype=np.uint8)),  # uncompressed
]
BUFFERS = {
    "bytes": bytes,
    "bytearray": bytearray,
    "memoryview": lambda line: memoryview(bytearray(line)),
}
COMPRESSORS = {
    "bdi": BDICompressor,
    "fpc": FPCCompressor,
    "best": BestOfCompressor,
    "cache": lambda: CachingCompressor(BestOfCompressor(), capacity=8),
}


@pytest.mark.parametrize("buffer", list(BUFFERS), ids=list(BUFFERS))
@pytest.mark.parametrize("name", list(COMPRESSORS), ids=list(COMPRESSORS))
def test_buffer_types_give_equal_bytes_results(name, buffer):
    reference = COMPRESSORS[name]()
    compressor = COMPRESSORS[name]()
    wrap = BUFFERS[buffer]
    expected = [reference.compress(line) for line in LINES]
    serial = [compressor.compress(wrap(line)) for line in LINES]
    batched = compressor.compress_batch([wrap(line) for line in LINES])
    for got in (serial, batched):
        assert got == expected
        for result in got:
            assert type(result.payload) is bytes
            hash(result)


@pytest.mark.parametrize("size", [63, 65])
@pytest.mark.parametrize("buffer", list(BUFFERS), ids=list(BUFFERS))
@pytest.mark.parametrize("name", list(COMPRESSORS), ids=list(COMPRESSORS))
def test_wrong_sized_lines_still_raise(name, buffer, size):
    compressor = COMPRESSORS[name]()
    with pytest.raises(CompressionError):
        compressor.compress(BUFFERS[buffer](bytes(size)))
