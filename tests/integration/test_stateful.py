"""Hypothesis stateful test: controller correctness under random ops.

A rule-based state machine throws arbitrary interleavings of writes
(compressible and not, across lines and systems) at the controller and
checks the global invariants after every step:

* a read returns exactly the last successfully written data, unless
  the backing physical block died;
* flip accounting matches the wear model's ground truth;
* the dead set only grows for systems without revival.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.core import CompressedPCMController
from repro.engine import resolve_config
from repro.pcm import EnduranceModel

N_LINES = 6

payloads = st.one_of(
    st.just(bytes(64)),
    st.binary(min_size=64, max_size=64),
    st.integers(min_value=0, max_value=2**30).map(
        lambda base: (np.arange(16) + base).astype(np.uint32).tobytes()
    ),
    st.integers(min_value=0, max_value=255).map(lambda byte: bytes([byte]) * 64),
)


class ControllerMachine(RuleBasedStateMachine):
    @initialize(
        system=st.sampled_from(["baseline", "comp", "comp_w", "comp_wf"]),
        endurance=st.integers(min_value=30, max_value=500),
        seed=st.integers(min_value=0, max_value=2**16),
        # Tiny rotation periods so intra-line wear-leveling rotates
        # (often repeatedly, wrapping offsets) within a 30-step run.
        intra_limit=st.sampled_from([1, 3, 7, 2**16]),
    )
    def setup(self, system, endurance, seed, intra_limit):
        self.config = resolve_config(
            system, start_gap_psi=17, intra_counter_limit=intra_limit
        )
        self.controller = CompressedPCMController(
            config=self.config,
            n_lines=N_LINES,
            endurance_model=EnduranceModel(mean=endurance, cov=0.1),
            rng=np.random.default_rng(seed),
        )
        self.shadow = {}
        self.max_deaths_seen = 0

    @rule(line=st.integers(min_value=0, max_value=N_LINES - 1), data=payloads)
    def write(self, line, data):
        result = self.controller.write(line, data)
        if result.lost:
            self.shadow.pop(line, None)
        else:
            self.shadow[line] = data

    @invariant()
    def reads_match_shadow(self):
        if not hasattr(self, "controller"):
            return
        for line, expected in self.shadow.items():
            physical = self.controller.start_gap.map(line)
            if self.controller.dead[physical]:
                continue  # data stranded by a later death or gap move
            assert self.controller.read(line) == expected

    @invariant()
    def flip_accounting_consistent(self):
        if not hasattr(self, "controller"):
            return
        stats = self.controller.stats
        assert stats.set_flips + stats.reset_flips == stats.total_flips
        assert stats.total_flips == self.controller.memory.total_programmed_flips()

    @invariant()
    def intra_wl_registers_in_range(self):
        if not hasattr(self, "controller"):
            return
        leveler = self.controller.intra_wl
        if leveler is None:
            return
        for bank in range(leveler.n_banks):
            assert 0 <= leveler.offset(bank) < leveler.line_bytes
            assert 0 <= leveler._counters[bank] < leveler.counter_limit
        # Every saturation rotated exactly once, and only landed writes
        # advance the counters (lost/dying writes never note_commit):
        # residues plus rotations*period reconstruct the stored total.
        recorded = sum(leveler._counters) + leveler.rotations * leveler.counter_limit
        assert recorded == self.controller.stats.stored_writes

    @invariant()
    def deaths_monotone_without_revival(self):
        if not hasattr(self, "controller"):
            return
        if not self.config.use_dead_block_revival:
            assert self.controller.stats.revivals == 0
        deaths = self.controller.stats.deaths
        assert deaths >= self.max_deaths_seen
        self.max_deaths_seen = deaths


TestControllerMachine = ControllerMachine.TestCase
TestControllerMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
