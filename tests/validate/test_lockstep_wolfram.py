"""Lockstep oracle campaigns on the WoLFRaM PAD backend (PR 10).

The fast engine's :class:`~repro.wearleveling.wolfram.WolframPAD` /
:class:`~repro.wearleveling.wolfram.PadSpareRemapper` pair is validated
write-for-write against the reference model's independent, loop-based
``_RefWolframPAD`` / ``_RefPadRemapper`` re-derivation -- swap
schedule, decoder-table permutation, spare remaps, and the priced
``pad_table_writes`` counter all checked in lockstep, serially and
through the out-of-order batch scheduler.
"""

import pytest

from repro.engine.registry import get_system
from repro.validate.fuzz import run_fuzz

from .test_lockstep import _batched_campaign, _campaign


class TestWolframLockstep:
    def test_worn_campaign_agrees_with_deaths_and_revivals(self):
        config = get_system("comp_wf").configured(
            wl_backend="wolfram", correction_scheme="ecp6", start_gap_psi=23
        )
        controller = _campaign(config)
        stats = controller.fast.stats
        assert stats.deaths > 0, "campaign too gentle to exercise death"
        assert stats.revivals > 0, "campaign never exercised revival"
        assert stats.pad_table_writes > 0

    def test_spare_pool_campaign_exercises_pad_remap(self):
        config = get_system("comp_wf").configured(
            wl_backend="wolfram", correction_scheme="ecp6", start_gap_psi=23,
            spare_line_fraction=0.15,
        )
        controller = _campaign(config)
        stats = controller.fast.stats
        assert stats.remaps > 0, "PAD spare remap never fired"
        # Each swap costs 2 entry rewrites; each remap at least 1 more.
        assert stats.pad_table_writes >= (
            2 * controller.fast.engine.start_gap.swaps + stats.remaps
        )

    def test_safer_campaign_agrees(self):
        config = get_system("comp_wf").configured(
            wl_backend="wolfram", correction_scheme="safer32",
            start_gap_psi=23,
        )
        controller = _campaign(config, writes=600)
        assert controller.fast.stats.deaths > 0

    def test_batched_campaign_agrees_through_wearout(self):
        config = get_system("comp_wf").configured(
            wl_backend="wolfram", correction_scheme="ecp6", start_gap_psi=23
        )
        controller = _batched_campaign(config)
        stats = controller.fast.stats
        assert stats.deaths > 0, "campaign too gentle to exercise death"
        assert stats.pad_table_writes > 0

    def test_batched_spare_campaign_agrees(self):
        config = get_system("comp_wf").configured(
            wl_backend="wolfram", correction_scheme="ecp6", start_gap_psi=23,
            spare_line_fraction=0.15,
        )
        controller = _batched_campaign(config)
        assert controller.fast.stats.remaps > 0


@pytest.mark.slow
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fuzz_campaigns_agree_on_the_pad_backend(seed):
    """The full design, the spare-pool variant (PAD remap traffic) and
    the plain baseline, each forced onto the PAD backend, agree with
    the reference model under every default correction scheme."""
    report = run_fuzz(
        systems=("comp_wf", "comp_wf_freep", "baseline"),
        writes=2000,
        seed=seed,
        wl_backend="wolfram",
    )
    assert not report.failures, [c.divergence for c in report.failures]
    assert len([c for c in report.campaigns if not c.skipped]) == 9
