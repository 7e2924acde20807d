"""Unit and statistical tests for the synthetic workload generator."""

import numpy as np
import pytest

from repro.compression import BestOfCompressor, size_change_probability
from repro.traces import PROFILES, PayloadModel, SyntheticWorkload, get_profile


@pytest.fixture(scope="module")
def best():
    return BestOfCompressor()


class TestPayloadModel:
    def test_fpc_sizes_are_monotone_in_word_count(self, best):
        model = PayloadModel(np.random.default_rng(0))
        sizes = [best.compress(model.make_fpc(r)).size_bytes for r in range(17)]
        assert sizes[0] == 1  # all zeros
        assert all(a <= b for a, b in zip(sizes, sizes[1:]))
        assert sizes[-1] == 64

    def test_bdi_variant_sizes(self, best):
        model = PayloadModel(np.random.default_rng(1))
        expected = {"zeros": 1, "rep8": 8, "b8d1": 16, "b8d2": 24, "b8d4": 40}
        for variant, size in expected.items():
            for _ in range(5):
                line = model.make_bdi(variant)
                assert best.compress(line).size_bytes == size, variant

    def test_raw_is_incompressible(self, best):
        model = PayloadModel(np.random.default_rng(2))
        assert best.compress(model.make_bdi("raw")).size_bytes == 64

    def test_fpc_perturbation_preserves_size(self, best):
        model = PayloadModel(np.random.default_rng(3))
        for r in (1, 4, 8, 12):
            line = model.make_fpc(r)
            size = best.compress(line).size_bytes
            for _ in range(10):
                line = model.perturb_fpc(line, r, turbulence=0.5)
                assert best.compress(line).size_bytes == size

    def test_bdi_perturbation_preserves_size(self, best):
        model = PayloadModel(np.random.default_rng(4))
        for variant in ("rep8", "b8d1", "b8d2", "b8d4", "raw"):
            line = model.make_bdi(variant)
            size = best.compress(line).size_bytes
            for _ in range(10):
                line = model.perturb_bdi(line, variant, turbulence=0.3)
                assert best.compress(line).size_bytes == size, variant

    def test_perturbation_changes_few_bits(self):
        model = PayloadModel(np.random.default_rng(5))
        line = model.make_fpc(8)
        perturbed = model.perturb_fpc(line, 8, turbulence=0.25)
        flips = sum((a ^ b).bit_count() for a, b in zip(line, perturbed))
        assert 0 < flips < 64

    def test_bad_inputs(self):
        model = PayloadModel(np.random.default_rng(6))
        with pytest.raises(ValueError):
            model.make_fpc(17)
        with pytest.raises(ValueError):
            model.make_bdi("b2d1")


class TestSyntheticWorkload:
    def test_writes_are_well_formed(self):
        gen = SyntheticWorkload(get_profile("gcc"), n_lines=64, seed=0)
        for write in gen.iter_writes(200):
            assert 0 <= write.line < 64
            assert len(write.data) == 64

    def test_deterministic_given_seed(self):
        a = SyntheticWorkload(get_profile("mcf"), n_lines=64, seed=9)
        b = SyntheticWorkload(get_profile("mcf"), n_lines=64, seed=9)
        for wa, wb in zip(a.iter_writes(100), b.iter_writes(100)):
            assert wa == wb

    def test_generate_trace(self):
        gen = SyntheticWorkload(get_profile("milc"), n_lines=32, seed=1)
        trace = gen.generate_trace(500)
        assert len(trace) == 500
        assert trace.workload == "milc"
        assert trace.lines_touched() <= set(range(32))

    def test_zipf_skew_concentrates_writes(self):
        gen = SyntheticWorkload(get_profile("lbm"), n_lines=512, seed=2)
        trace = gen.generate_trace(5000)
        counts = sorted(trace.writes_per_line().values(), reverse=True)
        top_decile = sum(counts[: max(1, len(counts) // 10)])
        assert top_decile > 0.2 * len(trace)  # hot lines exist

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_compression_ratio_matches_table3(self, best, name):
        profile = PROFILES[name]
        gen = SyntheticWorkload(profile, n_lines=256, seed=1)
        sizes = [
            best.compress(write.data).size_bytes for write in gen.iter_writes(2500)
        ]
        measured = np.mean(sizes) / 64
        assert measured == pytest.approx(profile.cr, abs=0.09), name

    def test_size_change_ordering_matches_figure6(self, best):
        def measured_change(name):
            gen = SyntheticWorkload(get_profile(name), n_lines=128, seed=3)
            per_line = {}
            for write in gen.iter_writes(3000):
                size = best.compress(write.data).size_bytes
                per_line.setdefault(write.line, []).append(size)
            rates = [
                size_change_probability(sizes)
                for sizes in per_line.values()
                if len(sizes) > 3
            ]
            return np.mean(rates)

        volatile = measured_change("bzip2")
        stable = measured_change("hmmer")
        compressible = measured_change("zeusmp")
        assert volatile > 2 * stable
        assert compressible < 0.15

    def test_needs_positive_lines(self):
        with pytest.raises(ValueError):
            SyntheticWorkload(get_profile("gcc"), n_lines=0)
