"""Ablation: differential writes vs Flip-N-Write as the chip-level
write-reduction layer (Section II-C background).

Flip-N-Write (Cho and Lee, the paper's reference [25]) stores each
32-bit word as its data or its complement, whichever programs fewer
cells counting the word's flag cell, and inverts only on a strict gain.
That is WIRE's per-word choice with SET and RESET priced alike, so the
Flip-N-Write column is :class:`~repro.energy.WireEncoder` at unit
prices.
"""

import numpy as np

from repro.core import LINE_BYTES
from repro.energy import WireEncoder
from repro.pcm import PCMEnergy, bytes_to_bits
from repro.traces import SyntheticWorkload, get_profile

#: Every cell program costs the same: the encoder minimizes flips.
UNIT_PRICES = PCMEnergy(set_pj_per_bit=1.0, reset_pj_per_bit=1.0)


def test_ablation_dw_vs_flip_n_write(benchmark, report, bench_scale):
    workloads = ("gobmk", "milc", "lbm")
    writes = bench_scale["writes"]
    n_lines = 64

    def measure():
        rows = {}
        for name in workloads:
            generator = SyntheticWorkload(get_profile(name), n_lines=n_lines, seed=0)
            fnw = WireEncoder(n_lines, energy=UNIT_PRICES)
            state_dw: dict[int, np.ndarray] = {}
            state_fnw: dict[int, np.ndarray] = {}
            dw_total = fnw_total = samples = 0
            for write in generator.iter_writes(writes):
                bits = bytes_to_bits(write.data)
                old = state_dw.get(write.line)
                if old is not None:
                    dw_total += int(np.count_nonzero(old != bits))
                    stored = state_fnw[write.line]
                    outcome = fnw.encode(
                        write.line, stored, bits, 0, LINE_BYTES, compressed=True
                    )
                    fnw_total += (
                        int(np.count_nonzero(outcome.target != stored))
                        + outcome.flag_set_flips
                        + outcome.flag_reset_flips
                    )
                    state_fnw[write.line] = outcome.target
                    samples += 1
                else:
                    # The first write lands plain, every flag clear.
                    state_fnw[write.line] = bits
                state_dw[write.line] = bits
            rows[name] = (dw_total / samples, fnw_total / samples)
        return rows

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)

    lines = [f"{'workload':10}{'DW flips/wr':>13}{'FNW flips/wr':>14}{'FNW saving':>12}"]
    for name, (dw, fnw_flips) in rows.items():
        lines.append(
            f"{name:10}{dw:13.1f}{fnw_flips:14.1f}{1 - fnw_flips / dw:12.1%}"
        )
    lines.append("Flip-N-Write (WIRE at unit SET/RESET prices) never programs")
    lines.append("more than half a word (+flag)")
    report("ablation_dw_vs_flip_n_write", "\n".join(lines))

    for name, (dw, fnw_flips) in rows.items():
        # FNW is at worst a flag-bit per word above DW, and usually below.
        assert fnw_flips <= dw + 16, name
        # The structural guarantee: never above half the cells + flags.
        assert fnw_flips <= 16 * 17
