"""Monte Carlo fault injection (Figure 9).

For a single 64-byte block, the paper injects ``k`` uniformly placed
stuck-at faults (modelling perfect intra-line wear-leveling), assumes
the written data compresses to ``W`` bytes, and asks whether the block
is still usable: is there a compression-window placement whose in-window
faults the correction scheme can mask?  Sweeping ``k`` from 1 to 128
and ``W`` from 1 to 64 bytes for ECP-6, SAFER-32 and Aegis 17x31 yields
the failure-probability surfaces of Figure 9.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from ..core.window import find_window
from ..correction import CorrectionScheme
from ..rng import as_generator

#: The data sizes highlighted in Figure 9's legend.
PAPER_DATA_SIZES = (1, 8, 16, 20, 24, 32, 34, 36, 40, 64)


@dataclass(frozen=True)
class FailurePoint:
    """Failure probability of one (scheme, data size, fault count) cell."""

    scheme: str
    data_bytes: int
    n_faults: int
    trials: int
    failures: int

    @property
    def failure_probability(self) -> float:
        """Estimated P(block failure) for this cell."""
        return self.failures / self.trials if self.trials else 0.0


def block_survives(
    scheme: CorrectionScheme,
    fault_positions: np.ndarray,
    data_bytes: int,
    line_bytes: int = 64,
) -> bool:
    """Whether a block with these faults can still store ``data_bytes``."""
    return (
        find_window(fault_positions, data_bytes, scheme, line_bytes=line_bytes)
        is not None
    )


def failure_probability(
    scheme: CorrectionScheme,
    data_bytes: int,
    n_faults: int,
    trials: int,
    rng: np.random.Generator,
    line_bits: int = 512,
) -> FailurePoint:
    """Estimate one Figure 9 point by Monte Carlo fault injection."""
    if not 1 <= data_bytes <= line_bits // 8:
        raise ValueError("data size must be within the line")
    if n_faults < 0 or n_faults > line_bits:
        raise ValueError("fault count must be within the line")
    if trials < 1:
        raise ValueError("need at least one trial")

    failures = 0
    for _ in range(trials):
        faults = np.sort(rng.choice(line_bits, size=n_faults, replace=False))
        if not block_survives(scheme, faults, data_bytes, line_bits // 8):
            failures += 1
    return FailurePoint(
        scheme=scheme.name,
        data_bytes=data_bytes,
        n_faults=n_faults,
        trials=trials,
        failures=failures,
    )


def sweep(
    schemes: Iterable[CorrectionScheme],
    data_sizes: Sequence[int] = PAPER_DATA_SIZES,
    fault_counts: Sequence[int] = tuple(range(0, 129, 8)),
    trials: int = 1000,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> list[FailurePoint]:
    """The full Figure 9 grid (paper: 100k trials; default scaled down).

    ``seed`` also accepts an explicit ``Generator``/``SeedSequence`` so
    parallel sweeps can thread independent spawned streams through.
    """
    rng = as_generator(seed)
    points = []
    for scheme in schemes:
        for data_bytes in data_sizes:
            for n_faults in fault_counts:
                points.append(
                    failure_probability(
                        scheme, data_bytes, n_faults, trials, rng
                    )
                )
    return points


def tolerable_faults(
    scheme: CorrectionScheme,
    data_bytes: int,
    target_probability: float = 0.5,
    trials: int = 400,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
    max_faults: int = 128,
) -> float:
    """Fault count at which failure probability crosses ``target``.

    This is the Figure 9 headline statistic: e.g. at a 32-byte
    compressed size and P(fail) = 0.5, the paper reports ~18 (ECP-6),
    ~38 (SAFER-32) and ~41 (Aegis) tolerable faults.  Linear
    interpolation between the two bracketing fault counts.
    """
    rng = as_generator(seed)
    previous_count, previous_prob = 0, 0.0
    for n_faults in range(1, max_faults + 1):
        point = failure_probability(scheme, data_bytes, n_faults, trials, rng)
        probability = point.failure_probability
        if probability >= target_probability:
            if probability == previous_prob:
                return float(n_faults)
            fraction = (target_probability - previous_prob) / (
                probability - previous_prob
            )
            return previous_count + fraction * (n_faults - previous_count)
        previous_count, previous_prob = n_faults, probability
    return float(max_faults)
