"""Unit tests for the per-operation energy model (repro.energy.model)."""

import pytest

from repro.energy import (
    CORRECTION_ENERGY,
    EnergyBreakdown,
    EnergyModel,
    correction_energy,
)
from repro.engine.context import ControllerStats
from repro.pcm import PCMEnergy


class TestCorrectionEnergyTable:
    @pytest.mark.parametrize("scheme", ["ecp6", "safer32", "aegis17x31", "secded"])
    def test_every_supported_scheme_has_an_entry(self, scheme):
        entry = correction_energy(scheme)
        assert entry.name == scheme
        assert entry.check_gates > 0
        assert entry.commit_register_bits > 0

    def test_unknown_scheme_falls_back_to_ecp6(self):
        assert correction_energy("no-such-scheme") is CORRECTION_ENERGY["ecp6"]

    def test_check_and_commit_pricing(self):
        entry = correction_energy("ecp6")
        assert entry.check_pj(gate_pj=0.01) == pytest.approx(
            entry.check_gates * 0.01
        )
        assert entry.commit_pj(register_pj=0.1) == pytest.approx(
            entry.commit_register_bits * 0.1
        )


class TestEnergyBreakdown:
    def _breakdown(self):
        return EnergyBreakdown(
            array_set_pj=10.0, array_reset_pj=5.0,
            flag_set_pj=2.0, flag_reset_pj=1.0,
            correction_check_pj=3.0, correction_commit_pj=0.5,
            writes=4,
        )

    def test_groups_and_total_add_up(self):
        b = self._breakdown()
        assert b.array_pj == pytest.approx(15.0)
        assert b.flag_pj == pytest.approx(3.0)
        assert b.correction_pj == pytest.approx(3.5)
        assert b.total_pj == pytest.approx(21.5)
        assert b.per_write_pj == pytest.approx(21.5 / 4)

    def test_zero_writes_divides_to_zero(self):
        b = EnergyBreakdown(0, 0, 0, 0, 0, 0, writes=0)
        assert b.per_write_pj == 0.0

    def test_to_dict_is_json_ready_and_consistent(self):
        d = self._breakdown().to_dict()
        assert d["total_pj"] == pytest.approx(21.5)
        assert d["per_write_pj"] == pytest.approx(21.5 / 4)
        assert d["writes"] == 4


class TestEnergyModelPricing:
    def test_each_counter_prices_into_its_group(self):
        cell = PCMEnergy()
        stats = ControllerStats(
            demand_writes=10, compressed_writes=5, uncompressed_writes=4,
            set_flips=100, reset_flips=50,
            encoding_flag_set_flips=7, encoding_flag_reset_flips=3,
            repair_commits=2,
        )
        assert stats.stored_writes == 9  # derived, feeds the check term
        b = EnergyModel().breakdown(stats, scheme="safer32")
        assert b.array_set_pj == pytest.approx(100 * cell.set_pj_per_bit)
        assert b.array_reset_pj == pytest.approx(50 * cell.reset_pj_per_bit)
        assert b.flag_set_pj == pytest.approx(7 * cell.set_pj_per_bit)
        assert b.flag_reset_pj == pytest.approx(3 * cell.reset_pj_per_bit)
        entry = correction_energy("safer32")
        assert b.correction_check_pj == pytest.approx(9 * entry.check_pj())
        assert b.correction_commit_pj == pytest.approx(2 * entry.commit_pj())
        assert b.writes == 10

    def test_counter_source_is_duck_typed(self):
        class Sparse:  # pre-energy record: most counters absent
            set_flips = 8
            writes_issued = 2

        b = EnergyModel().breakdown(Sparse())
        assert b.array_set_pj > 0
        assert b.flag_pj == 0.0
        assert b.correction_pj == 0.0
        assert b.writes == 2

    def test_empty_stub_prices_to_all_zero(self):
        # PR 10 audit: the breakdown must never AttributeError on a
        # counter source that has *no* recognised fields at all (legacy
        # pickles, hand-rolled stat stubs).  Every term defaults to 0.
        class Empty:
            pass

        b = EnergyModel().breakdown(Empty())
        assert b.total_pj == 0.0
        assert b.pad_table_pj == 0.0
        assert b.writes == 0
        assert b.per_write_pj == 0.0

    def test_pad_table_writes_price_as_register_updates(self):
        from repro.energy.model import PAD_ENTRY_BITS

        class WolframStats:
            demand_writes = 4
            pad_table_writes = 10

        model = EnergyModel()
        b = model.breakdown(WolframStats())
        assert b.pad_table_pj == pytest.approx(
            10 * PAD_ENTRY_BITS * model.register_pj
        )
        assert b.total_pj == pytest.approx(b.pad_table_pj)
        assert b.to_dict()["pad_table_pj"] == pytest.approx(b.pad_table_pj)

    def test_breakdown_built_without_pad_field_stays_valid(self):
        # An EnergyBreakdown constructed without the pad-table term
        # keeps working: the field defaults to 0.0.
        old_style = EnergyBreakdown(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, writes=1)
        assert old_style.pad_table_pj == 0.0
        assert old_style.total_pj == pytest.approx(2.0)

    def test_pricing_is_additive_over_stats_merge(self):
        # The Pareto sweep prices merged fleet records; pricing must
        # commute with the stats monoid for that to be sound.
        a = ControllerStats(
            demand_writes=5, compressed_writes=5, set_flips=40, reset_flips=10,
            encoding_flag_set_flips=4, repair_commits=1,
        )
        b = ControllerStats(
            demand_writes=3, uncompressed_writes=2, set_flips=15, reset_flips=25,
            encoding_flag_reset_flips=6, repair_commits=2,
        )
        model = EnergyModel()
        merged = model.breakdown(a.merge(b))
        merged_swapped = model.breakdown(b.merge(a))
        parts = (model.breakdown(a), model.breakdown(b))
        assert merged == merged_swapped
        assert merged.total_pj == pytest.approx(sum(p.total_pj for p in parts))
        assert merged.flag_pj == pytest.approx(sum(p.flag_pj for p in parts))
        assert merged.correction_pj == pytest.approx(
            sum(p.correction_pj for p in parts)
        )
