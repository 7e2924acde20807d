"""Bank-parallel wave programming over shared-memory PCM state.

The out-of-order scheduler's waves are sets of writes to *distinct*
physical rows, so the row kernel's state updates for different ops
never overlap -- which makes a wave embarrassingly parallel across
banks.  This module exploits that: the bank arrays (cell values, wear
counts, fault state, per-row write totals) move into POSIX shared
memory, a pool of worker processes maps them once at startup, and each
wave is split by bank (``row % n_banks``, the controller's interleave)
into disjoint row sets that the workers program concurrently through
:func:`~repro.pcm.bank.write_rows_arrays` -- the exact same kernel the
serial path runs, on the exact same memory, so results are
bit-identical by construction.

This is an opt-in throughput feature
(``CompressedPCMController.enable_bank_parallel``): per-wave fan-out
only pays off when waves are wide and cores are plentiful, and a
single-core host will see pure dispatch overhead.  Everything else --
scheduling, compression, metadata commits -- stays in the parent
process, which also keeps mutating the shared arrays directly through
its own views (serial writes, barrier flushes, reads all still work,
because the views *are* the bank state while the executor is active).
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context, resource_tracker, shared_memory

import numpy as np

from ..pcm.bank import PCMBankArray, check_write_rows, write_rows_arrays

__all__ = ["BankParallelExecutor"]

#: Bank-state arrays mirrored into shared memory, in the positional
#: argument order of :func:`~repro.pcm.bank.write_rows_arrays`.
_STATE_ARRAYS = (
    "stored", "counts", "endurance", "faulty",
    "fault_counts", "row_writes", "no_wear_limit",
)

#: Worker-process globals: the attached shared views (kernel argument
#: order) and the segments keeping their buffers alive.
_worker_state: tuple[np.ndarray, ...] | None = None
_worker_segments: list[shared_memory.SharedMemory] = []


def _attach_worker(spec) -> None:
    """Pool initializer: map the shared bank state into this process."""
    global _worker_state
    arrays = []
    for name, shape, dtype in spec:
        segment = shared_memory.SharedMemory(name=name)
        # Attaching registers the segment with the resource tracker a
        # second time (fixed by ``track=False`` in 3.13); unregister so
        # only the creating process unlinks it.
        resource_tracker.unregister(segment._name, "shared_memory")
        _worker_segments.append(segment)
        arrays.append(np.ndarray(shape, dtype=dtype, buffer=segment.buf))
    _worker_state = tuple(arrays)


def _program_rows(
    rows: np.ndarray, targets: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Run the write kernel on one bank's slice of a wave."""
    return write_rows_arrays(*_worker_state, rows, targets)


class BankParallelExecutor:
    """Dispatches each wave's row programming across a process pool.

    Construction moves ``memory``'s state arrays into shared segments
    (replacing the attributes with equal-valued shared views) and forks
    the pool; :meth:`close` copies the state back into private arrays,
    unlinks the segments, and shuts the pool down, leaving the bank
    indistinguishable from one that never went parallel.
    """

    def __init__(
        self,
        memory: PCMBankArray,
        n_banks: int,
        workers: int | None = None,
    ) -> None:
        if not isinstance(memory, PCMBankArray):
            raise ValueError(
                "bank-parallel execution needs a PCMBankArray (SLC) memory"
            )
        if n_banks < 1:
            raise ValueError("need at least one bank")
        self.memory = memory
        self.n_banks = n_banks
        self.workers = workers or max(
            1, min(n_banks, (os.cpu_count() or 1) - 1)
        )
        self._segments: list[shared_memory.SharedMemory] = []
        self._pool = None
        try:
            spec = []
            for attr in _STATE_ARRAYS:
                source = getattr(memory, attr)
                segment = shared_memory.SharedMemory(
                    create=True, size=source.nbytes
                )
                view = np.ndarray(
                    source.shape, dtype=source.dtype, buffer=segment.buf
                )
                view[...] = source
                setattr(memory, attr, view)
                self._segments.append(segment)
                spec.append((segment.name, source.shape, source.dtype))
            # Fork-based pool: workers attach the segments by name in
            # their initializer, so the parent's later array contents
            # (not the fork-time snapshot) are always what they program.
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=get_context("fork"),
                initializer=_attach_worker,
                initargs=(spec,),
            )
        except BaseException:
            # Partial construction must not leak OS-level segments (nor
            # leave the bank pointing at soon-unlinked shared buffers);
            # the construction failure outranks any teardown error.
            try:
                self.close()
            except Exception:
                pass
            raise

    def write_rows(
        self, rows: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One wave: partition by bank, program concurrently, reassemble.

        Drop-in for :meth:`PCMBankArray.write_rows` (the scheduler
        passes this to ``WritePipeline.program_rows``).  Rows are
        distinct within a wave, and banks partition them into disjoint
        sets touching disjoint slices of every shared array, so the
        concurrent kernels are race-free.  Malformed calls raise
        ``ValueError`` before any fan-out (see
        :func:`~repro.pcm.bank.check_write_rows`).
        """
        if self._pool is None:
            raise RuntimeError("bank-parallel executor is closed")
        rows, targets = check_write_rows(rows, targets, self.memory.n_blocks)
        banks = rows % self.n_banks
        members = [
            np.flatnonzero(banks == bank) for bank in np.unique(banks)
        ]
        if len(members) == 1:
            # Whole wave in one bank: no fan-out to win, skip the IPC.
            return self.memory.write_rows(rows, targets)
        futures = [
            self._pool.submit(_program_rows, rows[index], targets[index])
            for index in members
        ]
        programmed = np.zeros(len(rows), dtype=np.int64)
        set_flips = np.zeros(len(rows), dtype=np.int64)
        worn = np.zeros(len(rows), dtype=np.int64)
        for index, future in zip(members, futures):
            bank_programmed, bank_sets, bank_worn = future.result()
            programmed[index] = bank_programmed
            set_flips[index] = bank_sets
            worn[index] = bank_worn
        return programmed, set_flips, worn

    def close(self) -> None:
        """Tear down: privatize the state, free the shared segments.

        Idempotent and exception-safe: a failure while releasing one
        segment never strands the others (every remaining segment is
        still closed and unlinked, and the first error re-raised once
        teardown finishes), and calling again after any outcome --
        including a partially-failed ``__init__`` -- is a no-op.
        """
        pool, self._pool = self._pool, None
        segments, self._segments = self._segments, []
        error: BaseException | None = None
        try:
            if pool is not None:
                pool.shutdown(wait=True)
        finally:
            # Privatize before unlinking: the bank must never be left
            # referencing a shared buffer that is about to disappear.
            for attr in _STATE_ARRAYS:
                held = getattr(self.memory, attr)
                if held.base is not None:
                    setattr(self.memory, attr, np.array(held))
            for segment in segments:
                for release in (segment.close, segment.unlink):
                    try:
                        release()
                    except BaseException as exc:
                        if error is None:
                            error = exc
        if error is not None:
            raise error

    def __enter__(self) -> "BankParallelExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
