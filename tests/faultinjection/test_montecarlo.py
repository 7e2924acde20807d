"""Unit tests for the Figure 9 Monte Carlo harness."""

import numpy as np
import pytest

from repro.correction import aegis17x31, ecp6, safer32
from repro.faultinjection import (
    PAPER_DATA_SIZES,
    block_survives,
    failure_probability,
    sweep,
    tolerable_faults,
)

from ..core.test_window_search import per_start_search


@pytest.fixture(scope="module")
def ecp():
    return ecp6()


class TestBlockSurvives:
    def test_few_faults_always_survive(self, ecp):
        faults = np.array([0, 100, 200, 300, 400, 500])
        assert block_survives(ecp, faults, data_bytes=64)

    def test_full_line_dies_past_capability(self, ecp):
        assert not block_survives(ecp, np.arange(7), data_bytes=64)

    def test_small_window_escapes_cluster(self, ecp):
        # 20 faults in the first 3 bytes; a 16-byte window fits elsewhere.
        faults = np.arange(20)
        assert block_survives(ecp, faults, data_bytes=16)
        assert not block_survives(ecp, faults, data_bytes=64)

    @pytest.mark.parametrize(
        "scheme", [ecp6(), safer32(), aegis17x31()], ids=lambda s: s.name
    )
    def test_block_survives_matches_per_start_loop(self, scheme):
        rng = np.random.default_rng(0)
        for _ in range(100):
            n = int(rng.integers(0, 60))
            faults = np.sort(rng.choice(512, size=n, replace=False))
            size = int(rng.integers(1, 65))
            found = per_start_search(faults, size, scheme, hint=0) is not None
            assert block_survives(scheme, faults, size) == found, (n, size)

    def test_wraparound_window_counts(self, ecp):
        # Faults at both ends: a circular window covering the middle is
        # the only survivor.
        faults = np.concatenate([np.arange(10), np.arange(502, 512)])
        assert block_survives(ecp, faults, data_bytes=32)


class TestFailureProbability:
    def test_zero_faults_never_fail(self, ecp):
        point = failure_probability(ecp, 32, 0, trials=10, rng=np.random.default_rng(0))
        assert point.failure_probability == 0.0

    def test_saturated_faults_always_fail(self, ecp):
        # One fault per byte everywhere: every window holds > 6 faults.
        point = failure_probability(ecp, 32, 512, trials=5, rng=np.random.default_rng(0))
        assert point.failure_probability == 1.0

    def test_ecp_64byte_is_step_function(self, ecp):
        rng = np.random.default_rng(1)
        below = failure_probability(ecp, 64, 6, 20, rng)
        above = failure_probability(ecp, 64, 7, 20, rng)
        assert below.failure_probability == 0.0
        assert above.failure_probability == 1.0

    def test_smaller_windows_tolerate_more(self, ecp):
        rng = np.random.default_rng(2)
        p_small = failure_probability(ecp, 8, 24, 150, rng).failure_probability
        p_large = failure_probability(ecp, 48, 24, 150, rng).failure_probability
        assert p_small < p_large

    def test_validation(self, ecp):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            failure_probability(ecp, 0, 4, 10, rng)
        with pytest.raises(ValueError):
            failure_probability(ecp, 32, 513, 10, rng)
        with pytest.raises(ValueError):
            failure_probability(ecp, 32, 4, 0, rng)


class TestPaperHeadlines:
    @pytest.mark.slow
    def test_tolerable_faults_ordering_at_32_bytes(self):
        # Figure 9's 0.5-failure-probability crossings at 32 bytes:
        # paper reports ~18 / ~38 / ~41 for ECP-6 / SAFER-32 / Aegis.
        ecp_val = tolerable_faults(ecp6(), 32, trials=60, seed=3)
        safer_val = tolerable_faults(safer32(), 32, trials=60, seed=3)
        aegis_val = tolerable_faults(aegis17x31(), 32, trials=60, seed=3)
        assert 14 <= ecp_val <= 26
        assert safer_val > 1.5 * ecp_val
        assert aegis_val > 1.5 * ecp_val

    def test_sweep_covers_grid(self):
        points = sweep(
            (ecp6(),), data_sizes=(16, 64), fault_counts=(0, 8, 16), trials=20
        )
        assert len(points) == 6
        assert {point.data_bytes for point in points} == {16, 64}

    def test_paper_data_sizes_sane(self):
        assert 1 in PAPER_DATA_SIZES and 64 in PAPER_DATA_SIZES
