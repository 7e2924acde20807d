"""``BankParallelExecutor`` lifecycle: shared segments must never leak.

A half-torn executor used to be able to strand POSIX shared-memory
segments -- a failure while releasing one segment abandoned the rest,
and a failure during ``__init__`` (e.g. the pool refusing to start)
left every already-created segment behind plus a bank whose arrays
pointed into soon-unlinked shared buffers.  These tests inject
failures at both points and assert the OS-level cleanup happens
regardless.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.engine import bank_parallel
from repro.engine.bank_parallel import _STATE_ARRAYS, BankParallelExecutor
from repro.pcm import EnduranceModel
from repro.pcm.bank import PCMBankArray


def small_memory(seed=0):
    return PCMBankArray(
        n_blocks=4,
        endurance_model=EnduranceModel(mean=50.0, cov=0.1),
        rng=np.random.default_rng(seed),
    )


def assert_all_private(memory):
    """Every state array owns its buffer (no dangling shared views)."""
    for attr in _STATE_ARRAYS:
        assert getattr(memory, attr).base is None, attr


def assert_segment_gone(name):
    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


class TestClose:
    def test_close_is_idempotent(self):
        executor = BankParallelExecutor(small_memory(), n_banks=2, workers=1)
        names = [segment.name for segment in executor._segments]
        executor.close()
        executor.close()  # second call must be a silent no-op
        assert_all_private(executor.memory)
        for name in names:
            assert_segment_gone(name)

    def test_context_manager_closes(self):
        memory = small_memory()
        with BankParallelExecutor(memory, n_banks=2, workers=1) as executor:
            names = [segment.name for segment in executor._segments]
        assert_all_private(memory)
        for name in names:
            assert_segment_gone(name)

    def test_write_rows_after_close_is_rejected(self):
        executor = BankParallelExecutor(small_memory(), n_banks=2, workers=1)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor.write_rows(np.array([0, 1]), np.zeros((2, 512), bool))

    def test_failing_segment_release_frees_the_rest(self, monkeypatch):
        """A mid-teardown unlink error must not strand the remaining
        segments: they are all still released, the first error is
        re-raised once teardown finishes, and a second close is a
        no-op."""
        executor = BankParallelExecutor(small_memory(), n_banks=2, workers=1)
        segments = list(executor._segments)
        names = [segment.name for segment in segments]
        assert len(segments) == len(_STATE_ARRAYS)

        original_unlink = segments[0].unlink
        monkeypatch.setattr(
            segments[0], "unlink",
            lambda: (_ for _ in ()).throw(RuntimeError("injected unlink")),
        )
        with pytest.raises(RuntimeError, match="injected unlink"):
            executor.close()
        # Every *other* segment was released despite the first failing,
        # and the bank was privatized before anything was unlinked.
        assert_all_private(executor.memory)
        for name in names[1:]:
            assert_segment_gone(name)
        # Idempotence holds even after a failed teardown.
        executor.close()
        assert executor._segments == [] and executor._pool is None
        monkeypatch.undo()
        original_unlink()  # release the survivor ourselves
        assert_segment_gone(names[0])


class TestInitFailure:
    def test_pool_failure_leaves_no_segments_behind(self, monkeypatch):
        """If the worker pool refuses to start, construction must unwind
        completely: no shared segment survives and the bank's arrays are
        private (usable) again."""
        created = []
        real_shared_memory = bank_parallel.shared_memory

        class Recording:
            @staticmethod
            def SharedMemory(*args, **kwargs):
                segment = real_shared_memory.SharedMemory(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(segment.name)
                return segment

        monkeypatch.setattr(bank_parallel, "shared_memory", Recording)

        def refuse(*args, **kwargs):
            raise RuntimeError("pool refused to start")

        monkeypatch.setattr(bank_parallel, "ProcessPoolExecutor", refuse)

        memory = small_memory()
        before = {
            attr: np.array(getattr(memory, attr)) for attr in _STATE_ARRAYS
        }
        with pytest.raises(RuntimeError, match="pool refused"):
            BankParallelExecutor(memory, n_banks=2, workers=1)

        assert len(created) == len(_STATE_ARRAYS)
        for name in created:
            assert_segment_gone(name)
        assert_all_private(memory)
        for attr, expected in before.items():
            np.testing.assert_array_equal(getattr(memory, attr), expected)

    def test_mid_segment_failure_frees_earlier_segments(self, monkeypatch):
        """A segment-creation failure partway through the mirror loop
        must release the segments already created."""
        created = []
        real_shared_memory = bank_parallel.shared_memory

        class Flaky:
            @staticmethod
            def SharedMemory(*args, **kwargs):
                if kwargs.get("create") and len(created) == 3:
                    raise OSError("out of shm")
                segment = real_shared_memory.SharedMemory(*args, **kwargs)
                if kwargs.get("create"):
                    created.append(segment.name)
                return segment

        monkeypatch.setattr(bank_parallel, "shared_memory", Flaky)
        memory = small_memory()
        with pytest.raises(OSError, match="out of shm"):
            BankParallelExecutor(memory, n_banks=2, workers=1)
        assert created  # the failure really was mid-loop
        for name in created:
            assert_segment_gone(name)
        assert_all_private(memory)


def test_parallel_writes_match_serial_after_roundtrip():
    """End-to-end sanity: open, program a wave, close -- the state is
    identical to a serial run and fully private afterwards."""
    serial, parallel = small_memory(7), small_memory(7)
    rows = np.array([0, 1, 2, 3])
    rng = np.random.default_rng(3)
    targets = rng.random((4, serial.stored.shape[1])) < 0.5
    expected = serial.write_rows(rows, targets)
    with BankParallelExecutor(parallel, n_banks=2, workers=2) as executor:
        got = executor.write_rows(rows, targets)
    for expected_part, got_part in zip(expected, got):
        np.testing.assert_array_equal(expected_part, got_part)
    assert_all_private(parallel)
    for attr in _STATE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(parallel, attr), getattr(serial, attr)
        )


MALFORMED = {
    "negative row": ([0, -1], (2, 512)),
    "out-of-range row": ([0, 4], (2, 512)),
    "duplicate rows": ([1, 1], (2, 512)),
    "non-integer rows": ([0.0, 1.0], (2, 512)),
    "targets not (K, 512)": ([0, 1], (2, 256)),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_write_rows_raise_before_fan_out(case):
    """Bad rows or targets raise ValueError instead of wrapping, dropping
    updates, or reaching a worker; the bank is left untouched."""
    rows, shape = MALFORMED[case]
    memory = small_memory()
    before = {attr: getattr(memory, attr).copy() for attr in _STATE_ARRAYS}
    with BankParallelExecutor(memory, n_banks=2, workers=1) as executor:
        with pytest.raises(ValueError, match="write_rows"):
            executor.write_rows(np.array(rows), np.zeros(shape, np.uint8))
    for attr in _STATE_ARRAYS:
        np.testing.assert_array_equal(getattr(memory, attr), before[attr])
