"""The differential write of one PCM line, with wear.

The model tracks, per cell: the stored value, the number of times the
cell was actually programmed (bit flips, i.e. post-differential-write
writes), and the cell's endurance limit.  A cell whose flip count
reaches its endurance limit becomes stuck at the value it last held:
subsequent programs are silently ineffective, which the controller
observes as a write-verify mismatch.

:func:`apply_write` is the row operation
:class:`repro.pcm.bank.PCMBankArray` runs over views into its large
arrays; :class:`repro.pcm.cell.PCMCell` is the readable per-cell
reference the tests check it against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Cells per memory line (64 bytes).
BLOCK_BITS = 512

#: Shared empty position vector for fault-free outcomes (read-only).
_NO_POSITIONS = np.empty(0, dtype=np.intp)
_NO_POSITIONS.setflags(write=False)


@dataclass(frozen=True)
class WriteOutcome:
    """What happened when one line was written.

    Attributes:
        attempted_flips: Cells the differential write wanted to change.
        programmed_flips: Cells actually programmed (healthy cells only);
            this is the wear and energy cost of the write.
        set_flips: Programmed cells driven to ``1`` (SET pulses: long,
            low current).
        reset_flips: Programmed cells driven to ``0`` (RESET pulses:
            short, high current -- the wear-dominant transition).
        new_fault_positions: Cells that wore out during this write.
        error_positions: Cells whose stored value differs from the
            requested value after the write -- the stuck-at errors a
            read-verify would report to the correction scheme.
    """

    attempted_flips: int
    programmed_flips: int
    set_flips: int
    reset_flips: int
    new_fault_positions: np.ndarray
    error_positions: np.ndarray

    @property
    def clean(self) -> bool:
        """True when the write landed with no stuck-at mismatch."""
        return self.error_positions.size == 0


#: Shared outcome for a differential-write no-op on a fault-free line
#: (immutable, so every such write can return the same object).
_CLEAN_OUTCOME = WriteOutcome(
    attempted_flips=0,
    programmed_flips=0,
    set_flips=0,
    reset_flips=0,
    new_fault_positions=_NO_POSITIONS,
    error_positions=_NO_POSITIONS,
)


def apply_write(
    stored: np.ndarray,
    counts: np.ndarray,
    endurance: np.ndarray,
    new_bits: np.ndarray,
    faulty: np.ndarray | None = None,
    has_faults: bool | None = None,
) -> WriteOutcome:
    """Program one line in place with differential-write semantics.

    Args:
        stored: Current cell values (0/1), modified in place.
        counts: Per-cell program counts, modified in place.
        endurance: Per-cell endurance limits.
        new_bits: Desired cell values (0/1).  A windowed write passes
            its payload overlaid on the stored cells, so cells outside
            the window compare equal and are left untouched.
        faulty: Optional maintained boolean fault mask for the line.
            When given it must equal ``counts >= endurance`` on entry;
            it is updated in place in O(new faults), sparing the caller
            (and this function) any full ``counts >= endurance`` rescan.
            Stuck-at faults are monotone, so the mask only ever gains
            ``True`` entries.
        has_faults: Optional hint whether ``faulty`` has any ``True``
            entry on entry (callers with a maintained fault count know
            this for free); computed from ``faulty`` when omitted.
    """
    want = stored != new_bits
    if faulty is None:
        tracked = False
        faulty = counts >= endurance
    else:
        tracked = True
    # Most lines have no faults for most of their life; skipping the
    # fault-mask arithmetic on them roughly halves this function.
    if has_faults is None:
        has_faults = bool(faulty.any())

    if has_faults:
        # want & ~faulty in a single ufunc (True > False on booleans).
        touched = (want > faulty).nonzero()[0]
    else:
        touched = want.nonzero()[0]
        if touched.size == 0:
            # Differential-write no-op on a healthy line (the common
            # steady state when a trace is replayed): nothing to
            # program, no errors possible.
            return _CLEAN_OUTCOME
    bumped = counts[touched] + 1
    counts[touched] = bumped
    stored[touched] = new_bits[touched]
    new_faults = touched[bumped >= endurance[touched]]

    # Post-write mismatches, reconstructed without rescanning `stored`:
    # a stuck-at-last fault never produces errors beyond the stuck
    # cells the write wanted to change (programmed cells match by
    # construction, and a cell that wears out *during* the write holds
    # the value just written).
    if has_faults:
        errors = (want & faulty).nonzero()[0]
        attempted = int(np.count_nonzero(want))
    else:
        errors = _NO_POSITIONS
        attempted = touched.size
    if tracked:
        faulty[new_faults] = True

    programmed = touched.size
    set_flips = int(np.count_nonzero(new_bits[touched]))
    return WriteOutcome(
        attempted_flips=attempted,
        programmed_flips=programmed,
        set_flips=set_flips,
        reset_flips=programmed - set_flips,
        new_fault_positions=new_faults,
        error_positions=errors,
    )
