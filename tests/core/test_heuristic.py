"""Unit tests for the Figure 8 bit-flip heuristic."""

import pickle

import numpy as np
import pytest

from repro.core import (
    DEFAULT_THRESHOLD1,
    DEFAULT_THRESHOLD2,
    SC_MAX,
    BitFlipHeuristic,
    LineMetadata,
)


@pytest.fixture()
def heuristic():
    return BitFlipHeuristic(threshold1=16, threshold2=8)


def test_step1_small_writes_always_compress(heuristic):
    meta = LineMetadata(sc=3, stored_size=64)  # even a saturated counter
    decision = heuristic.decide(meta, new_size=8)
    assert decision.compress
    assert decision.step == 1
    assert meta.sc == 3  # step 1 leaves SC untouched


def test_step2_saturated_counter_blocks_compression(heuristic):
    meta = LineMetadata(sc=3, stored_size=40)
    decision = heuristic.decide(meta, new_size=40)
    assert not decision.compress
    assert decision.step == 2
    assert meta.sc == 3


def test_step3_stable_sizes_decrement(heuristic):
    meta = LineMetadata(sc=2, stored_size=32)
    decision = heuristic.decide(meta, new_size=36)  # |32-36| < 8
    assert decision.compress
    assert decision.step == 3
    assert meta.sc == 1


def test_step3_volatile_sizes_increment(heuristic):
    meta = LineMetadata(sc=1, stored_size=20)
    decision = heuristic.decide(meta, new_size=40)  # |20-40| >= 8
    assert decision.compress
    assert meta.sc == 2


def test_volatile_block_converges_to_uncompressed(heuristic):
    """A block alternating between two far-apart sizes saturates SC and
    stops being compressed -- the Figure 8 design goal."""
    meta = LineMetadata(sc=0, stored_size=24)
    sizes = [48, 20, 52, 24, 56, 28]
    decisions = []
    for size in sizes:
        decision = heuristic.decide(meta, size)
        decisions.append(decision)
        meta.stored_size = size if decision.compress else 64
    assert decisions[-1].step == 2
    assert not decisions[-1].compress


def test_stable_block_keeps_compressing(heuristic):
    meta = LineMetadata(sc=2, stored_size=30)
    for _ in range(10):
        decision = heuristic.decide(meta, new_size=32)
        assert decision.compress
        meta.stored_size = 32
    assert meta.sc == 0


def test_boundary_semantics(heuristic):
    # new_size == threshold1 is NOT "less than".
    meta = LineMetadata(sc=3)
    assert heuristic.decide(meta, new_size=15).step == 1
    assert heuristic.decide(meta, new_size=16).step == 2
    # |old - new| == threshold2 counts as a significant change.
    meta2 = LineMetadata(sc=0, stored_size=24)
    heuristic.decide(meta2, new_size=32)
    assert meta2.sc == 1


def test_validation():
    with pytest.raises(ValueError):
        BitFlipHeuristic(threshold1=0)
    with pytest.raises(ValueError):
        BitFlipHeuristic(threshold2=-1)
    heuristic = BitFlipHeuristic()
    with pytest.raises(ValueError):
        heuristic.decide(LineMetadata(), new_size=0)
    with pytest.raises(ValueError):
        heuristic.decide(LineMetadata(), new_size=65)


# -- the Figure 8 table against the scalar flow ---------------------------


def _figure8(sc, old_size, new_size, threshold1, threshold2):
    """Figure 8 written out as scalar rules: (compress, step, new SC)."""
    if new_size < threshold1:
        return True, 1, sc
    if sc == SC_MAX:
        return False, 2, sc
    if abs(old_size - new_size) < threshold2:
        return True, 3, max(sc - 1, 0)
    return True, 3, min(sc + 1, SC_MAX)


@pytest.mark.parametrize(
    "thresholds", [(DEFAULT_THRESHOLD1, DEFAULT_THRESHOLD2), (24, 3)],
    ids=["default", "t1=24,t2=3"],
)
def test_table_matches_the_scalar_rules_over_the_whole_domain(thresholds):
    heuristic = BitFlipHeuristic(*thresholds)
    domain = [
        (sc, old, new)
        for sc in range(SC_MAX + 1)
        for old in range(1, 65)
        for new in range(1, 65)
    ]
    sc, old, new = (np.array(column) for column in zip(*domain))
    compress, step, new_sc = heuristic.lookup_many(sc, old, new)
    for j, point in enumerate(domain):
        want = _figure8(*point, *thresholds)
        assert heuristic.lookup(*point) == want, point
        assert (bool(compress[j]), int(step[j]), int(new_sc[j])) == want, point
        meta = LineMetadata(sc=point[0], stored_size=point[1])
        decision = heuristic.decide(meta, point[2])
        assert (decision.compress, decision.step, meta.sc) == want, point


def test_table_survives_pickling():
    heuristic = BitFlipHeuristic(24, 3)
    restored = pickle.loads(pickle.dumps(heuristic))
    assert (restored.threshold1, restored.threshold2) == (24, 3)
    assert np.array_equal(restored.table, heuristic.table)
