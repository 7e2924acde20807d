"""uint64 wear-count arithmetic must never promote to float64.

NEP 50 (numpy >= 2) keeps ``uint64_array + python_int`` in uint64, but
``uint64 <op> int64`` silently promotes *both* sides to float64, whose
53-bit mantissa cannot represent endurance-scale counts exactly.  These
tests pin the dtypes of every wear array and exercise the arithmetic at
magnitudes where a float64 round-trip would visibly mis-count.
"""

import numpy as np

from repro.pcm import EnduranceModel
from repro.pcm.bank import PCMBankArray
from repro.pcm.block import BLOCK_BITS, apply_write
from repro.pcm.mlc import MLCBankArray

#: Above float64's exact-integer range (2**53); float64 spacing at this
#: magnitude is 512, so any promotion loses single increments.
HUGE = np.uint64(1) << np.uint64(62)


def _model():
    return EnduranceModel(mean=100.0, cov=0.1)


def _preset(bank, row, counts_value, endurance_value):
    """Force one row's wear state and rebuild the maintained masks."""
    bank.counts[row][:] = counts_value
    bank.endurance[row][:] = endurance_value
    if hasattr(bank, "faulty_cells"):  # MLC keeps cell-granular masks
        bank.faulty_cells = bank.counts >= bank.endurance
        bank.fault_counts = np.count_nonzero(bank.faulty_cells, axis=1) * 2
    else:
        bank.faulty = bank.counts >= bank.endurance
        bank.fault_counts = np.count_nonzero(bank.faulty, axis=1)


class TestDtypes:
    def test_bank_array_dtypes(self):
        bank = PCMBankArray(4, _model(), np.random.default_rng(0))
        assert bank.counts.dtype == np.uint64
        assert bank.endurance.dtype == np.uint64
        bank.write_bytes(0, b"\xFF" * 64)
        assert bank.counts.dtype == np.uint64

    def test_mlc_array_dtypes(self):
        bank = MLCBankArray(4, _model(), np.random.default_rng(0))
        assert bank.counts.dtype == np.uint64
        assert bank.endurance.dtype == np.uint64
        bank.write_bytes(0, b"\xFF" * 64)
        assert bank.counts.dtype == np.uint64

    def test_endurance_model_samples_uint64(self):
        sample = _model().sample((2, BLOCK_BITS), np.random.default_rng(1))
        assert sample.dtype == np.uint64


class TestExactArithmeticAtScale:
    def test_increment_is_exact_above_float53(self):
        bank = PCMBankArray(2, _model(), np.random.default_rng(0))
        _preset(bank, 0, HUGE + np.uint64(3), HUGE << np.uint64(1))
        new_bits = np.zeros(BLOCK_BITS, dtype=np.uint8)
        new_bits[:8] = 1
        outcome = bank.write(0, new_bits)
        assert outcome.programmed_flips == 8
        # float64 spacing at 2**62 is 512: a promoted increment would
        # leave the count unchanged.  uint64 must land exactly on +1.
        assert bank.counts[0, 0] == HUGE + np.uint64(4)
        assert bank.counts[0, 8] == HUGE + np.uint64(3)

    def test_fault_boundary_is_exact_above_float53(self):
        bank = PCMBankArray(2, _model(), np.random.default_rng(0))
        limit = HUGE + np.uint64(256)  # rounds to HUGE in float64
        _preset(bank, 0, HUGE, limit)
        assert not bank.faulty[0].any()

        new_bits = np.zeros(BLOCK_BITS, dtype=np.uint8)
        new_bits[0] = 1
        outcome = bank.write(0, new_bits)
        # counts hit HUGE+1 < HUGE+256: a float64 comparison would see
        # HUGE+1 >= HUGE (the rounded limit) and declare a false fault.
        assert outcome.new_fault_positions.size == 0
        assert not bank.faulty[0, 0]

        _preset(bank, 1, limit - np.uint64(1), limit)
        outcome = bank.write(1, new_bits)
        assert outcome.new_fault_positions.tolist() == [0]
        assert bank.faulty[1, 0]

    def test_mlc_fault_boundary_is_exact(self):
        bank = MLCBankArray(1, _model(), np.random.default_rng(0))
        limit = HUGE + np.uint64(256)
        _preset(bank, 0, limit - np.uint64(1), limit)
        new_bits = np.zeros(BLOCK_BITS, dtype=np.uint8)
        new_bits[0] = 1
        outcome = bank.write(0, new_bits)
        # Exactly the written cell wears out, both of its bits stuck.
        assert outcome.new_fault_positions.tolist() == [0, 1]
        assert bank.fault_count(0) == 2
        assert bank.counts.dtype == np.uint64

    def test_apply_write_keeps_uint64_through_fault_path(self):
        stored = np.zeros(BLOCK_BITS, dtype=np.uint8)
        counts = np.full(BLOCK_BITS, HUGE, dtype=np.uint64)
        endurance = np.full(BLOCK_BITS, HUGE + np.uint64(2), dtype=np.uint64)
        new_bits = np.ones(BLOCK_BITS, dtype=np.uint8)
        apply_write(stored, counts, endurance, new_bits)
        assert counts.dtype == np.uint64
        assert (counts == HUGE + np.uint64(1)).all()
        outcome = apply_write(
            stored, counts, endurance, np.zeros(BLOCK_BITS, dtype=np.uint8)
        )
        assert counts.dtype == np.uint64
        assert outcome.new_fault_positions.size == BLOCK_BITS
