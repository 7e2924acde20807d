"""Line and batch kernels vs the frozen reference encoders.

``FPCCompressor.compress`` is a native-int line kernel (``struct``-
unpacked words classified with range tests, one shift-or bitstream),
``BDICompressor.compress`` checks each variant's delta bounds on one
numpy line, and ``BestOfCompressor.compress_batch`` is a size-first
numpy kernel that loops ``compress`` below
:data:`~repro.compression.best.BATCH_CROSSOVER` lines.  These tests pin
all of them to the word-at-a-time encoders of
:mod:`repro.validate.refcompress` (the differential oracle's second
implementation): for adversarial boundary lines, a broad randomized
corpus and samples of the synthetic workload streams, every kernel
must produce *byte-identical* ``CompressionResult``s, and every result
must still round-trip.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.compression import BDICompressor, BestOfCompressor, FPCCompressor
from repro.compression.base import LINE_SIZE_BYTES
from repro.compression.best import BATCH_CROSSOVER
from repro.traces import SyntheticWorkload, get_profile
from repro.validate.refcompress import (
    reference_bdi_compress,
    reference_best_compress,
    reference_fpc_compress,
)

FPC = FPCCompressor()
BDI = BDICompressor()
BEST = BestOfCompressor()


def _words(*values) -> bytes:
    padded = list(values) + [0] * (16 - len(values))
    return b"".join((v & 0xFFFFFFFF).to_bytes(4, "little") for v in padded)


# Every FPC pattern-class boundary, both sides: SE4/SE8/SE16 edges,
# half-zero words, byte-extending halfword pairs, repeated bytes, and
# values one off each class.
FPC_ADVERSARIAL = [
    bytes(LINE_SIZE_BYTES),
    bytes([0xFF]) * LINE_SIZE_BYTES,
    _words(7, 8, -8 & 0xFFFFFFFF, -9 & 0xFFFFFFFF),
    _words(127, 128, -128 & 0xFFFFFFFF, -129 & 0xFFFFFFFF),
    _words(32767, 32768, -32768 & 0xFFFFFFFF, -32769 & 0xFFFFFFFF),
    _words(0x12340000, 0x00015678, 0xFFFF0000, 0x0000FFFF),
    _words(0x007F007F, 0x0080FF80, 0xFF80007F, 0x00800080),
    _words(0xABABABAB, 0xAB00ABAB, 0x01010101, 0x80808080),
    # Zero runs: max-length (8), split runs, run at line end.
    _words(*([0] * 9 + [1] + [0] * 6)),
    _words(*([1] + [0] * 15)),
    _words(*([0] * 15 + [1])),
    _words(*(0xDEADBEEF if i % 2 else 0 for i in range(16))),
]

# BDI boundaries: zeros, repeated 8-byte pattern (and a near-miss),
# exact delta-limit fits/misses for each (base, delta) variant.
BDI_ADVERSARIAL = [
    bytes(LINE_SIZE_BYTES),
    bytes(range(8)) * 8,
    bytes(range(8)) * 7 + bytes(range(1, 9)),
    # base8-delta1: deltas exactly at +127 / -128, and one past.
    b"".join((1000 + d).to_bytes(8, "little") for d in [0, 127, -128 + 256, 0, 0, 0, 0, 0]),
    b"".join(((1 << 40) + d).to_bytes(8, "little", signed=False) for d in [0, 127, 128, 1, 2, 3, 4, 5]),
    # base4-delta1 / base4-delta2 / base2-delta1 shapes.
    b"".join((0x10000 + d).to_bytes(4, "little") for d in range(16)),
    b"".join((0x70000000 + d * 300).to_bytes(4, "little") for d in range(16)),
    b"".join((0x4000 + (d % 100)).to_bytes(2, "little") for d in range(32)),
    np.arange(16, dtype="<u4").tobytes(),
    bytes([0x80]) * LINE_SIZE_BYTES,
]


def _random_corpus() -> list[bytes]:
    rng = np.random.default_rng(2024)
    corpus: list[bytes] = []
    for _ in range(150):
        corpus.append(rng.bytes(LINE_SIZE_BYTES))
    for _ in range(150):
        # Low-entropy words drawn from a tiny pool: exercises zero runs,
        # repeats, and small sign-extended values.
        pool = np.array([0, 1, 0xFF, 0xFFFFFFFF, 0x01010101, 0x00010000,
                         0x7FFF, 0x8000, 0xDEADBEEF], dtype="<u4")
        corpus.append(rng.choice(pool, 16).astype("<u4").tobytes())
    for width in (2, 4, 8):
        for _ in range(100):
            # Clustered values around a random base: BDI's home turf,
            # with delta magnitudes straddling every variant's limit.
            base = int(rng.integers(0, min(1 << (8 * width - 1), 1 << 62)))
            spread = int(rng.choice([4, 100, 40_000, 1 << 20]))
            values = base + rng.integers(
                -spread, spread, LINE_SIZE_BYTES // width
            )
            # Unsafe downcast wraps modulo 2**(8*width), the wire format.
            corpus.append(values.astype(f"<i{width}", casting="unsafe").tobytes())
    return corpus


CORPUS = _random_corpus()


def _stream_sample() -> list[bytes]:
    """Distinct payloads of the four workload profiles' streams."""
    lines: dict[bytes, None] = {}
    for profile in ("mcf", "milc", "gcc", "lbm"):
        workload = SyntheticWorkload(get_profile(profile), n_lines=32, seed=1)
        lines.update(dict.fromkeys(w.data for w in workload.generate_trace(250).writes))
    return list(lines)


STREAMS = _stream_sample()
ALL_LINES = FPC_ADVERSARIAL + BDI_ADVERSARIAL + CORPUS + STREAMS


@pytest.mark.parametrize("line", FPC_ADVERSARIAL, ids=range(len(FPC_ADVERSARIAL)))
def test_fpc_matches_reference_adversarial(line):
    assert FPC.compress(line) == reference_fpc_compress(line)


@pytest.mark.parametrize("line", BDI_ADVERSARIAL, ids=range(len(BDI_ADVERSARIAL)))
def test_bdi_matches_reference_adversarial(line):
    assert BDI.compress(line) == reference_bdi_compress(line)


def test_fpc_matches_reference_randomized():
    for line in CORPUS + STREAMS:
        result = FPC.compress(line)
        assert result == reference_fpc_compress(line)
        assert FPC.decompress(result) == line


def test_bdi_matches_reference_randomized():
    for line in CORPUS + STREAMS:
        result = BDI.compress(line)
        assert result == reference_bdi_compress(line)
        assert BDI.decompress(result) == line


def test_best_line_kernel_matches_reference():
    for line in ALL_LINES:
        result = BEST.compress(line)
        assert result == reference_best_compress(line)
        assert BEST.decompress(result) == line


REFERENCE = [reference_best_compress(line) for line in ALL_LINES]


@pytest.mark.parametrize("size", [*range(1, BATCH_CROSSOVER + 3), 128])
def test_batch_kernel_matches_reference_at_every_size(size):
    """Both sides of the line-kernel/numpy crossover, batch by batch."""
    for start in range(0, len(ALL_LINES), size):
        batch = ALL_LINES[start : start + size]
        assert BEST.compress_batch(batch) == REFERENCE[start : start + size]


@pytest.mark.parametrize("member", [BDI, FPC], ids=["bdi", "fpc"])
def test_member_plan_sizes_then_fills_chosen_rows(member):
    """``plan_batch`` sizes every row; ``fill`` packs only the rows asked."""
    lines = ALL_LINES[:300]
    size_bits, fill = member.plan_batch(lines)
    expected = [member.compress(line) for line in lines]
    assert size_bits.tolist() == [result.size_bits for result in expected]
    rows = np.arange(1, len(lines), 3)
    assert fill(rows) == [expected[row] for row in rows]
