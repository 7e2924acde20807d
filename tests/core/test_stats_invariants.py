"""Write-accounting invariants for :class:`ControllerStats`.

Regression guard for the historical double-counting risk: the stored
write count used to be derivable from several counters owned by
different parts of the fused controller.  The per-stage counters are now
the single source of truth, and these invariants pin down how they must
relate after *any* seeded run:

* ``stored_writes == compressed_writes + uncompressed_writes``
* every accepted write is either stored or lost:
  ``demand_writes + gap_move_writes == stored_writes + lost_writes``
* the ``WriteResult`` stream agrees with the counters.
"""

import numpy as np
import pytest

from repro.core import EVALUATED_SYSTEMS, CompressedPCMController
from repro.engine import resolve_config
from repro.pcm import EnduranceModel
from repro.traces import SyntheticWorkload, get_profile


def run_trace(system, workload="gcc", n_lines=32, writes=3000,
              endurance=25.0, seed=11):
    controller = CompressedPCMController(
        config=resolve_config(system, intra_counter_limit=64),
        n_lines=n_lines,
        endurance_model=EnduranceModel(mean=endurance, cov=0.15),
        rng=np.random.default_rng(seed + 1),
    )
    workload = SyntheticWorkload(
        get_profile(workload), n_lines=n_lines, seed=seed
    )
    results = [
        controller.write(write.line, write.data)
        for write in workload.iter_writes(writes)
    ]
    return controller, results


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_stored_writes_is_the_sum_of_the_format_counters(system):
    controller, _ = run_trace(system)
    stats = controller.stats
    assert stats.stored_writes == stats.compressed_writes + stats.uncompressed_writes
    if system == "baseline":
        assert stats.compressed_writes == 0


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_every_accepted_write_is_stored_or_lost(system):
    controller, _ = run_trace(system)
    stats = controller.stats
    assert (
        stats.demand_writes + stats.gap_move_writes
        == stats.stored_writes + stats.lost_writes
    )


@pytest.mark.parametrize("system", EVALUATED_SYSTEMS)
def test_result_stream_agrees_with_the_counters(system):
    controller, results = run_trace(system)
    stats = controller.stats
    stored = [r for r in results if not r.lost]
    assert stats.demand_writes == len(results)
    # Gap moves also store lines but do not emit demand WriteResults,
    # so the demand stream plus gap-move traffic covers stored_writes.
    assert len(stored) <= stats.stored_writes
    assert len(stored) + stats.gap_move_writes >= stats.stored_writes
    assert stats.lost_writes >= sum(1 for r in results if r.lost)
    compressed_demand = sum(1 for r in stored if r.compressed)
    assert compressed_demand <= stats.compressed_writes
    assert len(stored) - compressed_demand <= stats.uncompressed_writes


def test_flip_counters_split_by_direction():
    controller, results = run_trace("comp_wf")
    stats = controller.stats
    assert stats.total_flips == stats.set_flips + stats.reset_flips
    assert stats.total_flips > 0


def test_deaths_and_revivals_reconcile_with_the_dead_map():
    controller, _ = run_trace("comp_wf", endurance=12.0, writes=20000)
    stats = controller.stats
    assert stats.deaths >= stats.revivals
    # A failed revival attempt re-marks an already-dead block (counting
    # a death without toggling the map), so the map is a lower bound.
    assert int(controller.dead.sum()) <= stats.deaths - stats.revivals
    assert stats.deaths > 0
